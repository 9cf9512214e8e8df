#pragma once

// The benchmark's own tracing: spans recorded in memory around every call
// the benchmark makes into a library layer, and a forwarding LanguageModel
// decorator that adds the model-layer spans. Nothing here reaches inside the
// library; spans inside the executor's phases are out of scope.
//
// A span's parent is the innermost span open on the same thread. A span that
// starts on a thread with no open span (a pool worker evaluating a batch the
// executor submitted) takes the innermost call span open on the client
// thread instead:
// the benchmark is one closed-loop client, so whatever the workers run was
// caused by the client's current call. Spans of one query or cohort share a
// request id.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/language_model.hpp"

namespace perfbench {

struct Span {
  const char* name = "";      // string literal
  std::uint64_t id = 0;       // unique within a run, never 0
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // query / cohort id, 0 = none
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;  // steady clock, since process start
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;    // distributions, for model spans
};

// Turns recording on or off. The thread that turns it on becomes the client
// thread (see above). Call only while no pool task is running.
void set_tracing(bool on);

// Starts a new request id; spans opened from now on carry it.
void begin_request();

// Moves every recorded span out of the per-thread buffers, ordered by start.
// Call only while no pool task is running.
std::vector<Span> drain_spans();

// RAII span; records nothing while recording is off. A kCall span is
// one of the benchmark's own calls into a layer; while open on the client
// thread it is the parent of spans that start on threads with no open span.
// A kModel span may open on any thread and never takes that role.
class ScopedSpan {
 public:
  enum class Kind { kCall, kModel };
  explicit ScopedSpan(const char* name, Kind kind = Kind::kCall,
                      std::uint64_t items = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool client_scope_ = false;
  std::uint64_t items_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::int64_t start_ns_ = 0;
};

// Forwards every LanguageModel call to `inner` unchanged, wrapping each in
// a span called `span_name` whose `items` is the number of distributions
// requested. Outputs are identical to calling `inner` directly.
class TracedModel final : public relm::model::LanguageModel {
 public:
  TracedModel(std::shared_ptr<const relm::model::LanguageModel> inner,
              const char* span_name);

  std::size_t vocab_size() const override { return inner_->vocab_size(); }
  relm::model::TokenId eos() const override { return inner_->eos(); }
  std::size_t max_sequence_length() const override {
    return inner_->max_sequence_length();
  }
  std::size_t relevant_context_length() const override {
    return inner_->relevant_context_length();
  }
  std::vector<double> next_log_probs(
      std::span<const relm::model::TokenId> context) const override;
  std::shared_ptr<const std::vector<double>> next_log_probs_shared(
      std::span<const relm::model::TokenId> context) const override;
  std::vector<std::vector<double>> next_log_probs_batch(
      std::span<const std::vector<relm::model::TokenId>> contexts)
      const override;
  std::optional<CacheStats> cache_stats() const override {
    return inner_->cache_stats();
  }

 private:
  std::shared_ptr<const relm::model::LanguageModel> inner_;
  const char* span_name_;
};

// Per-span self time: the span's duration minus the union of its direct
// children's intervals (clipped to the span), children on any thread.
// Returned in the order of `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// Writes spans as tab-separated lines (name, id, parent, request, thread,
// start_ns, end_ns, items) under a header line. Returns false on I/O error.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
