#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

// One per thread that ever opened a span. Only its own thread touches it
// while recording; drain_spans() reads it while no pool task runs.
struct ThreadBuffer {
  std::uint32_t index = 0;
  std::uint64_t next_local = 0;
  std::vector<std::uint64_t> open;  // ids of the spans open on this thread
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<ThreadBuffer*> g_client{nullptr};
std::atomic<std::uint64_t> g_client_top{0};
std::atomic<std::uint64_t> g_request{0};
std::atomic<std::uint64_t> g_next_request{0};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by the mutex

thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    tl_buffer = g_buffers.back().get();
    tl_buffer->index = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *tl_buffer;
}

}  // namespace

void set_tracing(bool on) {
  g_client.store(on ? &local_buffer() : nullptr);
  g_client_top.store(0);
  g_enabled.store(on);
}

void begin_request() { g_request.store(g_next_request.fetch_add(1) + 1); }

std::vector<Span> drain_spans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

ScopedSpan::ScopedSpan(const char* name, Kind kind, std::uint64_t items)
    : name_(name), items_(items) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = local_buffer();
  id_ = (static_cast<std::uint64_t>(buffer.index + 1) << 40) |
        ++buffer.next_local;
  parent_ = buffer.open.empty() ? g_client_top.load(std::memory_order_acquire)
                                : buffer.open.back();
  request_ = g_request.load(std::memory_order_relaxed);
  buffer.open.push_back(id_);
  client_scope_ = kind == Kind::kCall &&
                  &buffer == g_client.load(std::memory_order_relaxed);
  if (client_scope_) g_client_top.store(id_, std::memory_order_release);
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end_ns = now_ns();
  ThreadBuffer& buffer = local_buffer();
  buffer.open.pop_back();
  // Call spans nest strictly, so the enclosing call span is the parent.
  if (client_scope_) g_client_top.store(parent_, std::memory_order_release);
  buffer.spans.push_back(Span{name_, id_, parent_, request_, buffer.index,
                              start_ns_, end_ns, items_});
}

TracedModel::TracedModel(
    std::shared_ptr<const relm::model::LanguageModel> inner,
    const char* span_name)
    : inner_(std::move(inner)), span_name_(span_name) {}

std::vector<double> TracedModel::next_log_probs(
    std::span<const relm::model::TokenId> context) const {
  ScopedSpan span(span_name_, ScopedSpan::Kind::kModel, 1);
  return inner_->next_log_probs(context);
}

std::shared_ptr<const std::vector<double>> TracedModel::next_log_probs_shared(
    std::span<const relm::model::TokenId> context) const {
  ScopedSpan span(span_name_, ScopedSpan::Kind::kModel, 1);
  return inner_->next_log_probs_shared(context);
}

std::vector<std::vector<double>> TracedModel::next_log_probs_batch(
    std::span<const std::vector<relm::model::TokenId>> contexts) const {
  ScopedSpan span(span_name_, ScopedSpan::Kind::kModel, contexts.size());
  return inner_->next_log_probs_batch(contexts);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = index_of.find(spans[i].parent);
    if (it != index_of.end()) children[it->second].push_back(i);
  }

  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    intervals.clear();
    for (std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (lo < hi) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name\tid\tparent\trequest\tthread\tstart_ns\tend_ns\titems\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.request
        << '\t' << s.thread << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.items << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
