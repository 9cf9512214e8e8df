#include "core/generate/gen_stream.hpp"

#include "util/logging.hpp"

namespace relm::core::generate {

using tokenizer::TokenId;

const char* to_string(StreamState state) {
  switch (state) {
    case StreamState::kPending:
      return "pending";
    case StreamState::kRunning:
      return "running";
    case StreamState::kSuspended:
      return "suspended";
    case StreamState::kDone:
      return "done";
    case StreamState::kDeadEnd:
      return "dead_end";
    case StreamState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

GenStream::GenStream(const model::LanguageModel& model,
                     const CompiledQuery& compiled,
                     const SimpleSearchQuery& query,
                     const automata::WalkCounts& prefix_walks, StreamSpec spec,
                     util::Pcg32 rng)
    : model_(&model),
      compiled_(&compiled),
      query_(&query),
      prefix_walks_(&prefix_walks),
      spec_(std::move(spec)),
      rng_(rng) {}

std::size_t GenStream::sequence_limit() const {
  return std::min(query_->sequence_length.value_or(model_->max_sequence_length()),
                  model_->max_sequence_length());
}

bool GenStream::budget_spent() const {
  return context_.size() >= sequence_limit() ||
         body_tokens_.size() >= spec_.max_new_tokens;
}

void GenStream::activate(GenerateStats& stats) {
  state_ = StreamState::kRunning;
  activated_ = true;
  // Empty-language fast path, before any RNG draw: the sampler skips the
  // attempt entirely, so the stream's RNG sequence stays aligned with it.
  if (compiled_->empty_language()) {
    dead_end(stats);
    return;
  }

  // Prefix phase: uniform over prefix walks (bypasses decoding rules),
  // byte-for-byte RandomSampler::sample_prefix_tokens.
  std::vector<TokenId> prefix;
  const automata::Dfa& pa = compiled_->prefix_automaton();
  if (query_->walk_normalized_sampling) {
    std::vector<automata::Symbol> walk;
    if (!prefix_walks_->sample_uniform_walk(pa, rng_, walk)) {
      dead_end(stats);
      return;
    }
    prefix.assign(walk.begin(), walk.end());
  } else {
    // Unnormalized ablation: each stop-or-edge decision is uniform.
    automata::StateId state = pa.start();
    const std::size_t limit = prefix_walks_->max_len();
    bool ok = false;
    for (std::size_t step = 0; step <= limit; ++step) {
      auto edges = pa.edges(state);
      bool can_stop = pa.is_final(state);
      std::size_t options = edges.size() + (can_stop ? 1 : 0);
      if (options == 0) break;
      std::size_t pick = rng_.bounded(static_cast<std::uint32_t>(options));
      if (can_stop && pick == edges.size()) {
        ok = true;
        break;
      }
      const automata::Edge& e = edges[pick];
      prefix.push_back(static_cast<TokenId>(e.symbol));
      state = e.to;
    }
    if (!ok) ok = pa.is_final(state);
    if (!ok) {
      dead_end(stats);
      return;
    }
  }

  context_ = std::move(prefix);
  prefix_len_ = context_.size();
  body_state_ = compiled_->body_automaton().start();
}

bool GenStream::needs_model() const {
  if (state_ != StreamState::kRunning || !activated_) return false;
  if (budget_spent()) return false;
  const automata::Dfa& ba = compiled_->body_automaton();
  // An unambiguous stop (final state, no way to continue) ends a plain
  // stream for free; a terminated query still owes p(EOS | string) and must
  // pay for a distribution.
  return !(ba.edges(body_state_).empty() && ba.is_final(body_state_) &&
           !query_->require_eos);
}

std::span<const TokenId> GenStream::context() const {
  return model::relevant_suffix(*model_, context_);
}

void GenStream::advance_no_model(GenerateStats& stats) {
  const automata::Dfa& ba = compiled_->body_automaton();
  const bool at_final = ba.is_final(body_state_);
  if (budget_spent()) {
    // Budget exhausted: a plain query accepts whatever the automaton
    // accepts; a terminated query cannot — the EOS it still owes would
    // exceed the budget. Exactly the sampler's budget semantics.
    if (at_final && !query_->require_eos) {
      accept(stats);
    } else {
      dead_end(stats);
    }
    return;
  }
  accept(stats);  // free stop: final state with no outgoing edge
}

void GenStream::advance(const std::vector<double>& lp, GenerateStats& stats) {
  RELM_DCHECK(lp.size() == model_->vocab_size(),
              "model distribution size must equal the vocabulary");
  const std::size_t pick = sample_body_step(
      *compiled_, *query_, rules(), model_->eos(), body_state_, body_tokens_,
      body_text_, lp, rng_, scratch_, stats);
  if (pick == kBodyStepDeadEnd) {
    dead_end(stats);
    return;
  }
  if (pick == kBodyStepEos) {
    body_log_prob_ += lp[model_->eos()];
    accept(stats);
    return;
  }

  const automata::Edge& e = compiled_->body_automaton().edges(body_state_)[pick];
  TokenId t = static_cast<TokenId>(e.symbol);
  body_log_prob_ += lp[t];
  context_.push_back(t);
  body_tokens_.push_back(t);
  body_text_ += compiled_->tokenizer().token_string(t);
  body_state_ = e.to;
  ++stats.tokens_emitted;
}

void GenStream::accept(GenerateStats& stats) {
  // Final canonicality gate for dynamic-canonical queries: the completed
  // body must be exactly its canonical encoding.
  if (compiled_->dynamic_canonical()) {
    std::vector<TokenId> canonical = compiled_->tokenizer().encode(body_text_);
    if (canonical != body_tokens_) {
      ++stats.pruned_non_canonical;
      dead_end(stats);
      return;
    }
  }
  std::span<const TokenId> prefix(context_.data(), prefix_len_);
  std::string text = compiled_->tokenizer().decode(prefix) + body_text_;
  result_ = SearchResult{context_, std::move(text), body_log_prob_,
                         stats.llm_calls, stats.elapsed_seconds};
  state_ = StreamState::kDone;
  ++stats.streams_retired;
  ++stats.streams_done;
}

void GenStream::dead_end(GenerateStats& stats) {
  state_ = StreamState::kDeadEnd;
  ++stats.streams_retired;
  ++stats.streams_dead_end;
}

void GenStream::suspend() {
  if (state_ == StreamState::kRunning || state_ == StreamState::kPending) {
    state_ = StreamState::kSuspended;
  }
}

void GenStream::resume() {
  if (state_ == StreamState::kSuspended) state_ = StreamState::kRunning;
}

void GenStream::cancel(GenerateStats& stats) {
  if (state_ == StreamState::kDone || state_ == StreamState::kDeadEnd ||
      state_ == StreamState::kCancelled) {
    return;
  }
  state_ = StreamState::kCancelled;
  ++stats.streams_retired;
  ++stats.streams_cancelled;
}

}  // namespace relm::core::generate
