#include "core/executor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "core/token_masks.hpp"
#include "model/decoding.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace relm::core {

using tokenizer::TokenId;

namespace {

// Registry-backed executor metrics (docs/OBSERVABILITY.md catalogue). The
// per-search SearchStats counters stay the per-query attribution surface;
// these accumulate the same events process-wide so --metrics and the bench
// snapshots can attribute cost without a search handle.
struct ExecutorMetrics {
  obs::Counter& llm_calls;
  obs::Counter& expansions;
  obs::Counter& pruned_rules;
  obs::Counter& pruned_non_canonical;
  obs::Counter& mask_words_scanned;
  obs::Counter& mask_pruned;
  obs::Counter& results;
  obs::Histogram& batch_size;
  // Async-pipeline surface (docs/OBSERVABILITY.md): evaluations per pipeline
  // round (the occupancy the controller achieved), nodes popped ahead of
  // settlement, nodes deferred by the budget clamp, evaluations that never
  // beat the last emission, and selections cut by the cost horizon.
  obs::Histogram& batch_occupancy;
  obs::Counter& speculative_expanded;
  obs::Counter& speculative_cancelled;
  obs::Counter& speculative_wasted;
  obs::Counter& horizon_clips;

  static ExecutorMetrics& get() {
    static ExecutorMetrics m{
        obs::Registry::instance().counter("executor.llm_calls"),
        obs::Registry::instance().counter("executor.expansions"),
        obs::Registry::instance().counter("executor.pruned_by_rules"),
        obs::Registry::instance().counter("executor.pruned_non_canonical"),
        obs::Registry::instance().counter("executor.mask_words_scanned"),
        obs::Registry::instance().counter("executor.mask_pruned"),
        obs::Registry::instance().counter("executor.results"),
        obs::Registry::instance().histogram(
            "executor.batch.size", obs::Histogram::default_size_bounds()),
        obs::Registry::instance().histogram(
            "executor.batch_occupancy", obs::Histogram::default_size_bounds()),
        obs::Registry::instance().counter("executor.speculative_expanded"),
        obs::Registry::instance().counter("executor.speculative_cancelled"),
        obs::Registry::instance().counter("executor.speculative_wasted"),
        obs::Registry::instance().counter("executor.speculative_horizon_clips")};
    return m;
  }
};

// Snapshot of the model's cache counters at search start; deltas against it
// attribute cache work to this search in SearchStats.
model::LanguageModel::CacheStats cache_baseline_of(
    const model::LanguageModel& model, bool& has_cache) {
  if (auto stats = model.cache_stats()) {
    has_cache = true;
    return *stats;
  }
  has_cache = false;
  return {};
}

void fill_cache_stats(const model::LanguageModel& model,
                      const model::LanguageModel::CacheStats& baseline,
                      bool has_cache, SearchStats& stats) {
  if (!has_cache) return;
  auto current = model.cache_stats();
  if (!current) return;
  stats.cache_hits = current->hits - baseline.hits;
  stats.cache_misses = current->misses - baseline.misses;
  stats.cache_evictions = current->evictions - baseline.evictions;
}

// Fingerprint of everything a memoized decoding mask depends on besides the
// context suffix: the rules and the vocabulary size.
std::uint64_t mask_memo_tag(const model::DecodingRules& rules,
                            std::size_t vocab) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  std::uint64_t tag = mix(0x726c6d5f6d61736bULL, vocab);
  tag = mix(tag, rules.top_k ? static_cast<std::uint64_t>(*rules.top_k) + 1
                             : 0);
  tag = mix(tag, rules.top_p ? std::bit_cast<std::uint64_t>(*rules.top_p) + 1
                             : 0);
  tag = mix(tag, std::bit_cast<std::uint64_t>(rules.temperature));
  return tag;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShortestPathSearch
// ---------------------------------------------------------------------------

ShortestPathSearch::ShortestPathSearch(const model::LanguageModel& model,
                                       const CompiledQuery& compiled,
                                       const SimpleSearchQuery& query)
    : model_(model),
      compiled_(compiled),
      query_(query),
      pipeline_(query.speculative_expansion) {
  cache_baseline_ = cache_baseline_of(model_, model_has_cache_);
  if (pipeline_ && !query_.decoding.admits_all(model_.vocab_size())) {
    // Masks are only valid for one (rules, vocabulary) combination; the tag
    // lets a run share one memo across its queries while a mismatched memo
    // silently degrades to a private (cold but correct) one.
    const std::uint64_t tag = mask_memo_tag(query_.decoding,
                                            model_.vocab_size());
    if (query_.mask_memo && query_.mask_memo->bind_tag(tag)) {
      mask_memo_ = query_.mask_memo;
    } else {
      mask_memo_ = std::make_shared<MaskMemo>();
      mask_memo_->bind_tag(tag);
    }
  }
  Node root;
  root.set = compiled_.initial();
  root.parent = -1;
  root.token = 0;
  root.cost = 0.0;
  root.depth = 0;
  root.body_len = 0;
  root.terminal = false;
  // The node arena grows to roughly branching × expansions; pre-sizing it
  // keeps retirement from stalling on arena reallocation mid-round.
  nodes_.reserve(std::min<std::size_t>(
      std::max<std::size_t>(query_.max_expansions, 1024), 1u << 16));
  nodes_.push_back(root);
  if (pipeline_) {
    pipe_frontier_.push(0.0, 0);
  } else {
    frontier_.push(QueueEntry{0.0, 0});
  }
}

std::vector<TokenId> ShortestPathSearch::path_of(std::int32_t node) const {
  std::vector<TokenId> path;
  for (std::int32_t cur = node; cur > 0; cur = nodes_[cur].parent) {
    path.push_back(nodes_[cur].token);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<TokenId> ShortestPathSearch::context_of(std::int32_t node) const {
  std::vector<TokenId> context;
  context_into(node, context);
  return context;
}

void ShortestPathSearch::context_into(std::int32_t node,
                                      std::vector<TokenId>& out) const {
  const std::size_t depth = nodes_[node].depth;
  const std::size_t len = std::min<std::size_t>(
      depth, model_.relevant_context_length());
  out.resize(len);
  std::int32_t cur = node;
  for (std::size_t i = len; i > 0; --i) {
    out[i - 1] = nodes_[cur].token;
    cur = nodes_[cur].parent;
  }
}

void ShortestPathSearch::refresh_cache_stats() {
  fill_cache_stats(model_, cache_baseline_, model_has_cache_, stats_);
}

void ShortestPathSearch::expand(std::int32_t node_id,
                                const std::vector<double>& lp) {
  RELM_DCHECK(lp.size() == model_.vocab_size(),
              "model distribution size must equal the vocabulary");
  const std::size_t seq_limit = std::min(
      query_.sequence_length.value_or(model_.max_sequence_length()),
      model_.max_sequence_length());
  Node node = nodes_[node_id];  // copy: nodes_ may reallocate below
  if (node.depth >= seq_limit) return;

  model::allowed_tokens(lp, query_.decoding, rule_mask_, rule_scratch_);
  const util::TokenBitset& mask = rule_mask_;

  // Dynamic canonical pruning needs the body token subsequence, which is the
  // last `body_len` tokens of the path (tracked per node across the
  // prefix->body hand-off).
  auto body_path_ok = [&](TokenId next_token, const CompiledQuery::Step& step) {
    if (!compiled_.dynamic_canonical() || !step.body_advanced) return true;
    std::vector<TokenId> body_tokens;
    body_tokens.push_back(next_token);
    std::int32_t cur = node_id;
    for (std::uint32_t i = 0; i < node.body_len; ++i) {
      body_tokens.push_back(nodes_[cur].token);
      cur = nodes_[cur].parent;
    }
    std::reverse(body_tokens.begin(), body_tokens.end());
    std::string body_text = compiled_.tokenizer().decode(body_tokens);
    bool ok = compiled_.canonical_prefix_ok(body_tokens, body_text);
    if (!ok) ++stats_.pruned_non_canonical;
    return ok;
  };

  // Mask-and-scan fast path: the rule filter happens inside expand_masked
  // as a word-wise bitset intersection, so the per-edge probe loop (and its
  // O(vocab) worst case per expansion) disappears entirely.
  const bool fast = query_.use_token_masks && compiled_.has_masks();
  std::vector<CompiledQuery::Step>& steps = scratch_steps_;
  if (fast) {
    CompiledQuery::MaskExpandStats ms;
    compiled_.expand_masked(node.set, mask.empty() ? nullptr : &mask, steps, ms);
    stats_.mask_words_scanned += ms.words_scanned;
    stats_.mask_pruned += ms.pruned;
  } else {
    steps = compiled_.expand(node.set);
  }

  for (const CompiledQuery::Step& step : steps) {
    if (!fast && !step.prefix_only && !mask.empty() && !mask[step.token]) {
      ++stats_.pruned_by_rules;
      continue;  // pruned, and transitively all its extensions (§3.3)
    }
    if (!body_path_ok(step.token, step)) continue;
    RELM_DCHECK(step.token < lp.size(),
                "compiled query emitted a token outside the vocabulary");
    Node child;
    child.set = step.next;
    child.parent = node_id;
    child.token = step.token;
    child.cost = node.cost - lp[step.token];
    RELM_DCHECK(!std::isnan(child.cost) && child.cost >= node.cost - 1e-9,
                "Dijkstra edge costs must be non-negative (-log p)");
    child.depth = node.depth + 1;
    child.body_len = step.body_advanced ? node.body_len + 1 : 0;
    child.terminal = false;
    nodes_.push_back(child);
    frontier_.push(QueueEntry{child.cost, static_cast<std::int32_t>(nodes_.size() - 1)});
  }

  // EOS closure for terminated queries: a match becomes a result only after
  // paying for EOS.
  if (query_.require_eos && compiled_.is_match(node.set)) {
    TokenId eos = model_.eos();
    bool eos_allowed = mask.empty() || mask[eos];
    if (eos_allowed) {
      Node child = node;
      child.parent = node_id;
      child.token = eos;
      child.cost = node.cost - lp[eos];
      child.depth = node.depth + 1;
      child.terminal = true;
      child.expanded = false;
      nodes_.push_back(child);
      frontier_.push(
          QueueEntry{child.cost, static_cast<std::int32_t>(nodes_.size() - 1)});
    } else {
      ++stats_.pruned_by_rules;
    }
  }
}

// Queues `node_id` onto pending_results_ when it is a match (shared by the
// lockstep and pipeline retirement paths; both call it for every settled
// node, in deterministic order).
void ShortestPathSearch::emit_if_result(std::int32_t id) {
  const bool is_result =
      nodes_[id].terminal ||
      (!query_.require_eos && compiled_.is_match(nodes_[id].set));
  if (!is_result) return;

  // Only result nodes pay for a full path reconstruction.
  std::vector<TokenId> tokens = path_of(id);
  if (nodes_[id].terminal) tokens.pop_back();  // drop EOS from the tuple
  std::string text = compiled_.tokenizer().decode(tokens);
  // Final canonicality gate (§3.2 option 2): the incremental check can
  // only reject *settled* deviations; at emission the string is complete,
  // so the body tokens must equal the canonical encoding exactly.
  if (compiled_.dynamic_canonical()) {
    const std::uint32_t body_len = nodes_[id].body_len;
    std::span<const TokenId> body(tokens.data() + (tokens.size() - body_len),
                                  body_len);
    // The body text is the tail of the already-decoded result text; the
    // settled boundary carried on the node (default/empty for the lockstep
    // path) lets the finalizer walk only the unsettled suffix.
    std::size_t body_bytes = 0;
    for (TokenId t : body) {
      body_bytes += compiled_.tokenizer().token_string(t).size();
    }
    std::string_view body_text(text.data() + (text.size() - body_bytes),
                               body_bytes);
    if (!compiled_.canonical_body(body, body_text, nodes_[id].canon)) {
      ++stats_.pruned_non_canonical;
      return;
    }
  }
  // No dedup here: a costlier encoding of a text can reach this point
  // before a cheaper one is discovered (batched rounds pop ahead of
  // discovery). Dedup happens at release time in next(), once the result
  // is provably optimal.
  stats_.elapsed_seconds = timer_.seconds();
  pending_results_.push(PendingResult{
      nodes_[id].cost,
      SearchResult{std::move(tokens), std::move(text), -nodes_[id].cost,
                   stats_.llm_calls, stats_.elapsed_seconds}});
}

void ShortestPathSearch::pump() {
  // Pop the best frontier nodes; evaluate their contexts in one model batch
  // (default batch size 1 = strict Dijkstra); expand; queue any matches.
  RELM_TRACE_SPAN("executor.pump");
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  const std::size_t pruned_rules_before = stats_.pruned_by_rules;
  const std::size_t pruned_non_canonical_before = stats_.pruned_non_canonical;
  const std::size_t mask_words_before = stats_.mask_words_scanned;
  const std::size_t mask_pruned_before = stats_.mask_pruned;
  const std::size_t results_before = pending_results_.size();
  const std::size_t batch = std::max<std::size_t>(query_.expansion_batch_size, 1);
  std::vector<std::int32_t> popped;
  while (popped.size() < batch && !frontier_.empty()) {
    QueueEntry entry = frontier_.top();
    frontier_.pop();
    if (nodes_[entry.node].expanded) continue;
    nodes_[entry.node].expanded = true;
    popped.push_back(entry.node);
  }
  if (popped.empty()) return;

  // Terminal nodes need no model call; the others evaluate in one parallel
  // batch over their model-relevant context suffixes (context_of walks only
  // the suffix, not the whole root-to-node path).
  std::vector<std::vector<TokenId>> eval_contexts;
  std::vector<std::size_t> eval_index(popped.size(), SIZE_MAX);
  for (std::size_t i = 0; i < popped.size(); ++i) {
    if (!nodes_[popped[i]].terminal) {
      eval_index[i] = eval_contexts.size();
      eval_contexts.push_back(context_of(popped[i]));
    }
  }
  std::vector<std::vector<double>> lps =
      model_.next_log_probs_batch(eval_contexts);
  RELM_DCHECK(lps.size() == eval_contexts.size(),
              "batched model evaluation must return one row per context");
  stats_.llm_calls += eval_contexts.size();
  stats_.expansions += eval_contexts.size();

  for (std::size_t i = 0; i < popped.size(); ++i) {
    std::int32_t id = popped[i];
    if (!nodes_[id].terminal) expand(id, lps[eval_index[i]]);
    emit_if_result(id);
  }
  refresh_cache_stats();
  metrics.llm_calls.add(eval_contexts.size());
  metrics.expansions.add(eval_contexts.size());
  metrics.pruned_rules.add(stats_.pruned_by_rules - pruned_rules_before);
  metrics.pruned_non_canonical.add(stats_.pruned_non_canonical -
                                   pruned_non_canonical_before);
  metrics.mask_words_scanned.add(stats_.mask_words_scanned - mask_words_before);
  metrics.mask_pruned.add(stats_.mask_pruned - mask_pruned_before);
  metrics.results.add(pending_results_.size() - results_before);
  metrics.batch_size.observe(static_cast<double>(popped.size()));
}

// ---------------------------------------------------------------------------
// Async pipeline (speculative_expansion)
// ---------------------------------------------------------------------------

void ShortestPathSearch::make_task(std::int32_t node_id,
                                   SlotTask& task) const {
  const Node& node = nodes_[node_id];
  task.set = node.set;
  task.cost = node.cost;
  context_into(node_id, task.context);
  task.body_prefix.clear();
  task.body_text.clear();
  task.canon = node.canon;
  if (compiled_.dynamic_canonical()) {
    // The body token subsequence is the last body_len tokens of the path;
    // captured here because workers must not walk nodes_ (the coordinator
    // reallocates it while they run).
    task.body_prefix.resize(node.body_len);
    std::int32_t cur = node_id;
    for (std::size_t i = node.body_len; i > 0; --i) {
      task.body_prefix[i - 1] = nodes_[cur].token;
      cur = nodes_[cur].parent;
    }
    const tokenizer::BpeTokenizer& tok = compiled_.tokenizer();
    for (TokenId id : task.body_prefix) {
      task.body_text.append(tok.token_string(id));
    }
  }
  task.suffix_hash = 0;
  task.memo_mask = nullptr;
  if (mask_memo_) {
    task.suffix_hash = model::hash_tokens(task.context);
    task.memo_mask = mask_memo_->probe(task.suffix_hash, task.context);
  }
}

void ShortestPathSearch::evaluate_slot(const SlotTask& task,
                                       SlotOutput& out) const {
  out.mask.reset();
  out.mask_from_memo = false;
  out.has_eos = false;
  out.eos_cost = 0.0;
  out.mask_words = 0;
  out.mask_pruned = 0;
  out.pruned_rules = 0;
  out.pruned_non_canonical = 0;
  out.lp = model_.next_log_probs_shared(task.context);
  const std::vector<double>& lp = *out.lp;
  RELM_DCHECK(lp.size() == model_.vocab_size(),
              "model distribution size must equal the vocabulary");

  // A memo exists exactly when the rules restrict this vocabulary; without
  // one the rules admit every token and the kernel is not called at all.
  if (task.memo_mask) {
    out.mask = task.memo_mask;
    out.mask_from_memo = true;
  } else if (mask_memo_) {
    // Freshly allocated because the memo publishes it to later searches.
    auto fresh = std::make_shared<util::TokenBitset>();
    model::allowed_tokens(lp, query_.decoding, *fresh, out.rule_scratch);
    out.mask = std::move(fresh);
  }
  const util::TokenBitset* mask = out.mask.get();

  const bool fast = query_.use_token_masks && compiled_.has_masks();
  if (fast) {
    CompiledQuery::MaskExpandStats ms;
    compiled_.expand_masked(task.set, mask, out.steps, ms);
    out.mask_words = ms.words_scanned;
    out.mask_pruned = ms.pruned;
  } else {
    out.steps = compiled_.expand(task.set);
  }

  std::size_t kept = 0;
  out.canon_states.clear();
  const bool check_canon = compiled_.dynamic_canonical();
  if (check_canon) {
    // Scratch = parent body + one placeholder slot, rewritten per step below
    // (cheaper than re-assembling the prefix for every candidate token).
    out.body_scratch.assign(task.body_prefix.begin(), task.body_prefix.end());
    out.body_scratch.push_back(0);
    out.text_scratch.assign(task.body_text);
  }
  const std::size_t text_base = task.body_text.size();
  for (const CompiledQuery::Step& step : out.steps) {
    if (!fast && !step.prefix_only && mask && !(*mask)[step.token]) {
      ++out.pruned_rules;
      continue;  // pruned, and transitively all its extensions (§3.3)
    }
    CompiledQuery::CanonState canon;  // default: body run resets
    if (check_canon && step.body_advanced) {
      // Child body = task body + this token; resume the settled-boundary
      // check from the parent's state instead of re-walking the body
      // (canonical_prefix_advance), on reused scratch buffers.
      out.body_scratch.back() = step.token;
      out.text_scratch.resize(text_base);
      out.text_scratch.append(compiled_.tokenizer().token_string(step.token));
      canon = task.canon;
      const bool ok = compiled_.canonical_prefix_advance(
          out.body_scratch, out.text_scratch, canon);
      if (!ok) {
        ++out.pruned_non_canonical;
        continue;
      }
    }
    RELM_DCHECK(step.token < lp.size(),
                "compiled query emitted a token outside the vocabulary");
    out.steps[kept] = step;
    out.canon_states.push_back(canon);
    ++kept;
  }
  out.steps.resize(kept);

  if (query_.require_eos && compiled_.is_match(task.set)) {
    const TokenId eos = model_.eos();
    if (!mask || (*mask)[eos]) {
      out.has_eos = true;
      out.eos_cost = task.cost - lp[eos];
    } else {
      ++out.pruned_rules;
    }
  }
}

void ShortestPathSearch::pump_pipeline() {
  RELM_TRACE_SPAN("executor.pump");
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  const std::size_t pruned_rules_before = stats_.pruned_by_rules;
  const std::size_t pruned_non_canonical_before = stats_.pruned_non_canonical;
  const std::size_t mask_words_before = stats_.mask_words_scanned;
  const std::size_t mask_pruned_before = stats_.mask_pruned;
  const std::size_t results_before = pending_results_.size();
  const std::size_t seq_limit = std::min(
      query_.sequence_length.value_or(model_.max_sequence_length()),
      model_.max_sequence_length());

  // ---- Selection: a pure function of (frontier, budget, knobs) — never of
  // thread count or timing, which is what keeps outputs byte-identical
  // across 1/2/4/8 threads.
  const std::size_t target = std::max<std::size_t>(query_.target_occupancy, 1);
  const std::size_t cap = std::max<std::size_t>(query_.max_in_flight, 1);
  const std::size_t budget_left =
      query_.max_expansions > stats_.expansions
          ? query_.max_expansions - stats_.expansions
          : 0;
  // Occupancy controller: track frontier depth toward 2x the target (the
  // classic keep-the-pipe-full setpoint), floor 1, ceiling max_in_flight.
  const std::size_t want = std::min(
      cap, std::max<std::size_t>(
               1, std::min(pipe_frontier_.size(), 2 * target)));

  round_slots_.clear();
  round_tasks_.clear();
  double round_min = 0.0;
  bool have_min = false;
  while (round_slots_.size() < want && !pipe_frontier_.empty()) {
    const ShardedFrontier::Entry top = pipe_frontier_.min();
    const std::int32_t id = static_cast<std::int32_t>(top.node);
    if (nodes_[id].expanded) {  // defensive: ids are pushed exactly once
      pipe_frontier_.pop();
      continue;
    }
    if (!have_min) {
      round_min = top.cost;
      have_min = true;
    } else if (top.cost > round_min + query_.speculation_horizon) {
      // Speculating past the horizon is nearly always wasted: this node's
      // children cannot settle before everything cheaper drains.
      ++stats_.horizon_clips;
      break;
    }
    const bool needs_eval =
        !nodes_[id].terminal && nodes_[id].depth < seq_limit;
    if (needs_eval && round_tasks_.size() >= budget_left) {
      // Budget clamp mid-selection: defer the node (the first eval of a
      // round is always admitted — next() only pumps with budget left — so
      // this cannot stall the search).
      ++stats_.speculative_cancelled;
      break;
    }
    pipe_frontier_.pop();
    nodes_[id].expanded = true;
    std::size_t eval = SIZE_MAX;
    if (needs_eval) {
      eval = round_tasks_.size();
      // Grow-and-fill instead of push_back: slots past the high-water mark
      // are constructed once, then refilled in place every round.
      if (round_tasks_.size() == eval) round_tasks_.resize(eval + 1);
      make_task(id, round_tasks_[eval]);
      nodes_[id].evaluated = true;
    }
    round_slots_.push_back(PipeSlot{id, eval});
  }
  if (round_slots_.empty()) return;
  if (round_slots_.size() > 1) {
    stats_.speculative_expanded += round_slots_.size() - 1;
  }
  const std::size_t n_tasks = round_tasks_.size();

  // ---- Submission: one async batch, no barrier. Each task is a pure
  // function of its SlotTask writing only its own output slot (the
  // resize happens before submission; workers never touch the vectors
  // themselves).
  if (round_outputs_.size() < n_tasks) round_outputs_.resize(n_tasks);
  util::ThreadPool::AsyncBatch batch;
  if (n_tasks > 0) {
    batch = util::ThreadPool::shared().submit(
        n_tasks, [this](std::size_t i) {
          evaluate_slot(round_tasks_[i], round_outputs_[i]);
        });
  }

  // ---- Retirement, in submission order: slot i's children/match land
  // while slots > i are still evaluating. All shared-state mutation (node
  // allocation, frontier pushes, stats) happens here, on the coordinator.
  for (const PipeSlot& slot : round_slots_) {
    if (slot.eval == SIZE_MAX) {
      emit_if_result(slot.node);
      continue;
    }
    batch.wait(slot.eval);
    batch.rethrow_if_error();
    ++stats_.llm_calls;
    ++stats_.expansions;
    SlotOutput& out = round_outputs_[slot.eval];
    stats_.mask_words_scanned += out.mask_words;
    stats_.mask_pruned += out.mask_pruned;
    stats_.pruned_by_rules += out.pruned_rules;
    stats_.pruned_non_canonical += out.pruned_non_canonical;
    if (out.mask) {
      if (out.mask_from_memo) {
        ++stats_.mask_memo_hits;
      } else {
        ++stats_.mask_memo_misses;
        // The suffix is copied (not moved) into the memo so the reused
        // task slot keeps its buffer capacity.
        mask_memo_->insert(round_tasks_[slot.eval].suffix_hash,
                           round_tasks_[slot.eval].context, out.mask);
      }
    }

    const Node parent = nodes_[slot.node];  // copy: nodes_ reallocates below
    for (std::size_t s = 0; s < out.steps.size(); ++s) {
      const CompiledQuery::Step& step = out.steps[s];
      Node child;
      child.set = step.next;
      child.parent = slot.node;
      child.token = step.token;
      child.cost = parent.cost - (*out.lp)[step.token];
      RELM_DCHECK(!std::isnan(child.cost) && child.cost >= parent.cost - 1e-9,
                  "Dijkstra edge costs must be non-negative (-log p)");
      child.depth = parent.depth + 1;
      child.body_len = step.body_advanced ? parent.body_len + 1 : 0;
      child.canon = out.canon_states[s];
      child.terminal = false;
      nodes_.push_back(child);
      pipe_frontier_.push(child.cost,
                          static_cast<std::uint32_t>(nodes_.size() - 1));
    }
    if (out.has_eos) {
      Node child = parent;
      child.parent = slot.node;
      child.token = model_.eos();
      child.cost = out.eos_cost;
      child.depth = parent.depth + 1;
      child.terminal = true;
      child.expanded = false;
      child.evaluated = false;
      nodes_.push_back(child);
      pipe_frontier_.push(child.cost,
                          static_cast<std::uint32_t>(nodes_.size() - 1));
    }
    emit_if_result(slot.node);
  }
  batch.wait_all();
  batch.rethrow_if_error();

  ++stats_.pump_rounds;
  stats_.frontier_shard_steals = pipe_frontier_.shard_steals();
  refresh_cache_stats();
  metrics.llm_calls.add(n_tasks);
  metrics.expansions.add(n_tasks);
  metrics.pruned_rules.add(stats_.pruned_by_rules - pruned_rules_before);
  metrics.pruned_non_canonical.add(stats_.pruned_non_canonical -
                                   pruned_non_canonical_before);
  metrics.mask_words_scanned.add(stats_.mask_words_scanned - mask_words_before);
  metrics.mask_pruned.add(stats_.mask_pruned - mask_pruned_before);
  metrics.results.add(pending_results_.size() - results_before);
  metrics.batch_size.observe(static_cast<double>(round_slots_.size()));
  if (n_tasks > 0) {
    metrics.batch_occupancy.observe(static_cast<double>(n_tasks));
  }
  if (round_slots_.size() > 1) {
    metrics.speculative_expanded.add(round_slots_.size() - 1);
  }
}

bool ShortestPathSearch::frontier_empty() const {
  return pipeline_ ? pipe_frontier_.empty() : frontier_.empty();
}

double ShortestPathSearch::frontier_min_cost() const {
  return pipeline_ ? pipe_frontier_.min().cost : frontier_.top().cost;
}

void ShortestPathSearch::count_speculative_waste() {
  if (!pipeline_ || waste_counted_) return;
  waste_counted_ = true;
  std::size_t wasted = 0;
  for (const Node& node : nodes_) {
    if (node.evaluated && (!any_emitted_ || node.cost > last_emitted_cost_)) {
      ++wasted;
    }
  }
  stats_.speculative_wasted = wasted;
  ExecutorMetrics::get().speculative_wasted.add(wasted);
}

std::optional<SearchResult> ShortestPathSearch::next() {
  // Empty-language fast path: a vacuous query (`a & !a`) has no frontier
  // worth expanding — return exhausted with zero model calls.
  if (compiled_.empty_language()) {
    stats_.elapsed_seconds = timer_.seconds();
    return std::nullopt;
  }
  for (;;) {
    // A pending match is settled once no frontier node could still tie it:
    // every undiscovered path must extend some frontier node, so it can only
    // cost more. The comparison is STRICT — an equal-cost frontier node may
    // itself be an undiscovered member of the same tie class, and holding the
    // release until the whole class is pending makes tie emission follow the
    // heap's canonical (cost, token-path) order instead of discovery order.
    // Discovery order differs between the lockstep and speculative pipelines
    // (and is why they would otherwise disagree on exact-cost ties); the
    // settled class is identical in both, so draining it from the heap is
    // what keeps their outputs byte-identical. When the expansion budget is
    // spent the frontier is dead and the held-back matches drain in cost
    // order.
    const bool budget_spent = stats_.expansions >= query_.max_expansions;
    while (!pending_results_.empty() &&
           (budget_spent || frontier_empty() ||
            pending_results_.top().cost < frontier_min_cost())) {
      if (emitted_ >= query_.max_results) {
        count_speculative_waste();
        return std::nullopt;
      }
      SearchResult result =
          std::move(const_cast<PendingResult&>(pending_results_.top()).result);
      pending_results_.pop();
      if (dedup_text_ && !emitted_texts_.insert(result.text).second) continue;
      ++emitted_;
      last_emitted_cost_ = -result.log_prob;
      any_emitted_ = true;
      return result;
    }
    if (emitted_ >= query_.max_results) {
      count_speculative_waste();
      return std::nullopt;
    }
    if (budget_spent) {
      count_speculative_waste();
      return std::nullopt;
    }
    if (frontier_empty()) {
      stats_.elapsed_seconds = timer_.seconds();
      count_speculative_waste();
      return std::nullopt;
    }
    if (pipeline_) {
      pump_pipeline();
    } else {
      pump();
    }
  }
}

std::vector<SearchResult> ShortestPathSearch::all() {
  std::vector<SearchResult> out;
  while (auto result = next()) out.push_back(std::move(*result));
  return out;
}

// ---------------------------------------------------------------------------
// RandomSampler
// ---------------------------------------------------------------------------

RandomSampler::RandomSampler(const model::LanguageModel& model,
                             const CompiledQuery& compiled,
                             const SimpleSearchQuery& query, std::uint64_t seed)
    : model_(model),
      compiled_(compiled),
      query_(query),
      prefix_walks_(compiled.prefix_automaton(),
                    std::min(query.sequence_length.value_or(model.max_sequence_length()),
                             model.max_sequence_length())),
      // Stream 0 of the counter-based scheme is Pcg32(seed) exactly, so the
      // sampler's draw sequence is unchanged by the StreamRng extraction
      // (pinned bit-for-bit by a regression test). The generate engine seeds
      // stream i of the same scheme for its i-th concurrent stream.
      rng_(util::StreamRng::stream(seed, 0)) {
  cache_baseline_ = cache_baseline_of(model_, model_has_cache_);
}

void RandomSampler::refresh_cache_stats() {
  fill_cache_stats(model_, cache_baseline_, model_has_cache_, stats_);
}

std::optional<SearchResult> RandomSampler::sample_once() {
  RELM_TRACE_SPAN("executor.sample");
  // Empty-language fast path: every attempt would dead-end; skip the model.
  if (compiled_.empty_language()) return std::nullopt;
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  const std::size_t llm_calls_before = stats_.llm_calls;
  const std::size_t pruned_rules_before = stats_.pruned_by_rules;
  const std::size_t pruned_non_canonical_before = stats_.pruned_non_canonical;
  const std::size_t mask_words_before = stats_.mask_words_scanned;
  const std::size_t mask_pruned_before = stats_.mask_pruned;
  std::optional<SearchResult> result = sample_once_impl();
  refresh_cache_stats();
  metrics.llm_calls.add(stats_.llm_calls - llm_calls_before);
  metrics.pruned_rules.add(stats_.pruned_by_rules - pruned_rules_before);
  metrics.pruned_non_canonical.add(stats_.pruned_non_canonical -
                                   pruned_non_canonical_before);
  metrics.mask_words_scanned.add(stats_.mask_words_scanned - mask_words_before);
  metrics.mask_pruned.add(stats_.mask_pruned - mask_pruned_before);
  if (result) metrics.results.add(1);
  return result;
}

bool RandomSampler::sample_prefix_tokens(std::vector<TokenId>& out) {
  out.clear();
  const automata::Dfa& pa = compiled_.prefix_automaton();
  if (query_.walk_normalized_sampling) {
    std::vector<automata::Symbol> walk;
    if (!prefix_walks_.sample_uniform_walk(pa, rng_, walk)) return false;
    out.assign(walk.begin(), walk.end());
    return true;
  }
  // Unnormalized ablation (Appendix C / Figure 9): each decision — stop here
  // (if final) or take an outgoing edge — is uniform, which biases toward
  // early edits.
  automata::StateId state = pa.start();
  const std::size_t limit = prefix_walks_.max_len();
  for (std::size_t step = 0; step <= limit; ++step) {
    auto edges = pa.edges(state);
    bool can_stop = pa.is_final(state);
    std::size_t options = edges.size() + (can_stop ? 1 : 0);
    if (options == 0) return false;
    std::size_t pick = rng_.bounded(static_cast<std::uint32_t>(options));
    if (can_stop && pick == edges.size()) return true;
    const automata::Edge& e = edges[pick];
    out.push_back(static_cast<TokenId>(e.symbol));
    state = e.to;
  }
  return pa.is_final(state);
}

std::size_t sample_body_step(const CompiledQuery& compiled,
                             const SimpleSearchQuery& query,
                             const model::DecodingRules& rules, TokenId eos,
                             automata::StateId state,
                             std::span<const TokenId> body_tokens,
                             const std::string& body_text,
                             std::span<const double> lp, util::Pcg32& rng,
                             BodyStepScratch& scratch, PruneStats& stats) {
  const automata::Dfa& ba = compiled.body_automaton();
  auto edges = ba.edges(state);
  model::allowed_tokens(lp, rules, scratch.rule_mask, scratch.rule);
  const util::TokenBitset& mask = scratch.rule_mask;

  // Candidate weights: surviving automaton edges (plus EOS-as-stop at final
  // states), renormalized over true model probabilities (§3.3).
  scratch.candidate_edges.clear();
  scratch.weights.clear();
  auto offer = [&](std::size_t i) {
    const TokenId t = static_cast<TokenId>(edges[i].symbol);
    if (compiled.dynamic_canonical()) {
      std::vector<TokenId> candidate(body_tokens.begin(), body_tokens.end());
      candidate.push_back(t);
      std::string text = body_text + compiled.tokenizer().token_string(t);
      if (!compiled.canonical_prefix_ok(candidate, text)) {
        ++stats.pruned_non_canonical;
        return;
      }
    }
    scratch.candidate_edges.push_back(i);
    scratch.weights.push_back(std::exp(lp[t]));
  };

  // Edges surviving the decoding rules. The mask fast path intersects the
  // state's bitmask with the rule mask word-wise; a surviving bit's rank
  // within the state row *is* its edge index (edges are token-sorted, and
  // the CSR index was built in that order).
  if (query.use_token_masks && compiled.has_masks()) {
    const TokenMaskTable& bm = compiled.artifact().body.masks;
    const std::uint64_t* row = bm.state_words(state);
    const std::uint64_t* rule_words =
        mask.empty() ? nullptr : mask.words().data();
    std::size_t rank_base = 0;
    for (std::uint32_t w = 0; w < bm.words_per_state; ++w) {
      const std::uint64_t word = row[w];
      const std::uint64_t surv = rule_words ? (word & rule_words[w]) : word;
      ++stats.mask_words_scanned;
      stats.mask_pruned += std::size_t(std::popcount(word)) -
                            std::size_t(std::popcount(surv));
      std::uint64_t bits = surv;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        offer(rank_base + std::size_t(std::popcount(word & ((1ull << b) - 1))));
      }
      rank_base += std::size_t(std::popcount(word));
    }
  } else {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!mask.empty() && !mask[edges[i].symbol]) {
        ++stats.pruned_by_rules;
        continue;
      }
      offer(i);
    }
  }

  const bool eos_stop = ba.is_final(state) && (mask.empty() || mask[eos]);
  if (eos_stop) scratch.weights.push_back(std::exp(lp[eos]));
  if (scratch.weights.empty()) return kBodyStepDeadEnd;
  const std::size_t pick = rng.weighted(scratch.weights);
  if (pick >= scratch.weights.size()) return kBodyStepDeadEnd;
  if (eos_stop && pick == scratch.weights.size() - 1) return kBodyStepEos;
  return scratch.candidate_edges[pick];
}

std::optional<SearchResult> RandomSampler::sample_once_impl() {
  ++stats_.sample_attempts;
  const std::size_t seq_limit = std::min(
      query_.sequence_length.value_or(model_.max_sequence_length()),
      model_.max_sequence_length());

  // Phase 1: prefix, uniform over prefix walks (bypasses decoding rules).
  std::vector<TokenId> prefix_tokens;
  if (!sample_prefix_tokens(prefix_tokens)) {
    ++stats_.sample_dead_ends;
    return std::nullopt;
  }

  // Phase 2: body, LLM-weighted within the automaton.
  std::vector<TokenId> context(prefix_tokens);
  std::vector<TokenId> body_tokens;
  std::string body_text;
  double body_log_prob = 0.0;
  automata::StateId body_state = compiled_.body_automaton().start();
  const automata::Dfa& ba = compiled_.body_automaton();

  for (;;) {
    if (context.size() >= seq_limit) {
      // Budget exhausted. A plain query accepts whatever the automaton
      // accepts; a terminated (require_eos) query cannot accept here — the
      // EOS token it still owes would exceed the sequence budget.
      if (ba.is_final(body_state) && !query_.require_eos) break;
      ++stats_.sample_dead_ends;
      return std::nullopt;
    }
    auto edges = ba.edges(body_state);
    bool at_final = ba.is_final(body_state);
    // An unambiguous stop (final state, no way to continue) ends a plain
    // sample for free. A terminated query still owes p(EOS | string): fall
    // through so the candidate loop below offers EOS as the only option —
    // paying its probability and respecting the decoding mask.
    if (edges.empty() && at_final && !query_.require_eos) break;

    std::vector<double> lp = model_.next_log_probs(context);
    ++stats_.llm_calls;
    RELM_DCHECK(lp.size() == model_.vocab_size(),
                "model distribution size must equal the vocabulary");
    const std::size_t pick =
        sample_body_step(compiled_, query_, query_.decoding, model_.eos(),
                         body_state, body_tokens, body_text, lp, rng_,
                         step_scratch_, stats_);
    if (pick == kBodyStepDeadEnd) {
      ++stats_.sample_dead_ends;
      return std::nullopt;
    }
    if (pick == kBodyStepEos) {
      body_log_prob += lp[model_.eos()];
      break;  // EOS: accept
    }

    const automata::Edge& e = edges[pick];
    TokenId t = static_cast<TokenId>(e.symbol);
    body_log_prob += lp[t];
    context.push_back(t);
    body_tokens.push_back(t);
    body_text += compiled_.tokenizer().token_string(t);
    body_state = e.to;
  }

  // Final canonicality gate for dynamic-canonical queries: the completed
  // body must be exactly its canonical encoding.
  if (compiled_.dynamic_canonical()) {
    std::vector<TokenId> canonical = compiled_.tokenizer().encode(body_text);
    if (canonical != body_tokens) {
      ++stats_.pruned_non_canonical;
      ++stats_.sample_dead_ends;
      return std::nullopt;
    }
  }

  last_prefix_text_ = compiled_.tokenizer().decode(prefix_tokens);
  std::string text = last_prefix_text_ + body_text;
  stats_.elapsed_seconds = timer_.seconds();
  // log_prob covers the body given the prefix (the prefix is uniform by
  // construction, not model-weighted).
  return SearchResult{std::move(context), std::move(text), body_log_prob,
                      stats_.llm_calls, stats_.elapsed_seconds};
}

std::vector<SearchResult> RandomSampler::sample_all() {
  std::vector<SearchResult> out;
  // Empty-language fast path: nothing to sample, zero model calls.
  if (compiled_.empty_language()) {
    stats_.elapsed_seconds = timer_.seconds();
    return out;
  }
  const std::size_t max_attempts =
      query_.num_samples * query_.max_sample_attempts_factor;
  std::size_t attempts = 0;
  while (out.size() < query_.num_samples && attempts < max_attempts) {
    ++attempts;
    if (auto result = sample_once()) out.push_back(std::move(*result));
  }
  stats_.elapsed_seconds = timer_.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// BeamSearch
// ---------------------------------------------------------------------------

BeamSearch::BeamSearch(const model::LanguageModel& model,
                       const CompiledQuery& compiled,
                       const SimpleSearchQuery& query)
    : model_(model), compiled_(compiled), query_(query) {
  cache_baseline_ = cache_baseline_of(model_, model_has_cache_);
}

void BeamSearch::refresh_cache_stats() {
  fill_cache_stats(model_, cache_baseline_, model_has_cache_, stats_);
}

std::vector<SearchResult> BeamSearch::run() {
  RELM_TRACE_SPAN("executor.beam");
  // Empty-language fast path: no beam can ever reach a match.
  if (compiled_.empty_language()) {
    stats_.elapsed_seconds = timer_.seconds();
    return {};
  }
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  const std::size_t seq_limit = std::min(
      query_.sequence_length.value_or(model_.max_sequence_length()),
      model_.max_sequence_length());
  const std::size_t width = std::max<std::size_t>(query_.beam_width, 1);

  std::vector<Beam> beams{Beam{{}, compiled_.initial(), 0.0, 0}};
  std::vector<SearchResult> matches;
  std::unordered_map<std::string, std::size_t> emitted;  // text -> match index

  auto record_match = [&](const Beam& beam, double final_log_prob) {
    if (compiled_.dynamic_canonical()) {
      // Final canonicality gate, as in the other traversals.
      std::span<const TokenId> body(
          beam.tokens.data() + (beam.tokens.size() - beam.body_len),
          beam.body_len);
      std::string body_text = compiled_.tokenizer().decode(body);
      std::vector<TokenId> canonical = compiled_.tokenizer().encode(body_text);
      if (canonical.size() != body.size() ||
          !std::equal(canonical.begin(), canonical.end(), body.begin())) {
        ++stats_.pruned_non_canonical;
        return;
      }
    }
    std::string text = compiled_.tokenizer().decode(beam.tokens);
    // Text dedup keeps the most probable token path for each string —
    // matching ShortestPathSearch, whose cheapest-first pops make its
    // first-wins dedup equivalent. Beam matches are recorded in depth
    // order, not cost order, so first-wins here would keep an arbitrary
    // (possibly worse) encoding of the same string.
    auto [it, inserted] = emitted.emplace(text, matches.size());
    if (!inserted) {
      if (final_log_prob > matches[it->second].log_prob) {
        stats_.elapsed_seconds = timer_.seconds();
        matches[it->second] =
            SearchResult{beam.tokens, std::move(text), final_log_prob,
                         stats_.llm_calls, stats_.elapsed_seconds};
      }
      return;
    }
    stats_.elapsed_seconds = timer_.seconds();
    matches.push_back(SearchResult{beam.tokens, std::move(text), final_log_prob,
                                   stats_.llm_calls, stats_.elapsed_seconds});
  };

  // Each step evaluates every live beam in one batched (parallel) model
  // call instead of a per-beam serial loop; contexts are trimmed to the
  // model's relevant suffix, which lets a CachingModel share entries across
  // beams with a common tail.
  auto beam_contexts = [&](const std::vector<Beam>& live) {
    std::vector<std::vector<TokenId>> contexts;
    contexts.reserve(live.size());
    for (const Beam& beam : live) {
      std::span<const TokenId> suffix = model::relevant_suffix(model_, beam.tokens);
      contexts.emplace_back(suffix.begin(), suffix.end());
    }
    return contexts;
  };

  // Per-beam-step buffers, reused across every beam and step of the run.
  util::TokenBitset mask;
  model::RuleMaskScratch rule_scratch;
  std::vector<CompiledQuery::Step> scratch_steps;
  for (std::size_t step = 0; step < seq_limit && !beams.empty(); ++step) {
    RELM_TRACE_SPAN("executor.beam_step");
    std::vector<std::vector<double>> lps =
        model_.next_log_probs_batch(beam_contexts(beams));
    RELM_DCHECK(lps.size() == beams.size(),
                "batched model evaluation must return one row per beam");
    stats_.llm_calls += beams.size();
    stats_.expansions += beams.size();
    metrics.llm_calls.add(beams.size());
    metrics.expansions.add(beams.size());
    metrics.batch_size.observe(static_cast<double>(beams.size()));

    std::vector<Beam> candidates;
    const bool fast = query_.use_token_masks && compiled_.has_masks();
    for (std::size_t b = 0; b < beams.size(); ++b) {
      const Beam& beam = beams[b];
      const std::vector<double>& lp = lps[b];
      model::allowed_tokens(lp, query_.decoding, mask, rule_scratch);

      // A match at this beam is recorded now (it may fall out of the beam).
      if (compiled_.is_match(beam.set)) {
        if (query_.require_eos) {
          TokenId eos = model_.eos();
          if (mask.empty() || mask[eos]) {
            record_match(beam, beam.log_prob + lp[eos]);
          }
        } else {
          record_match(beam, beam.log_prob);
        }
      }

      // Mask-and-scan fast path, as in ShortestPathSearch::expand: the rule
      // filter runs as a word-wise intersection inside expand_masked.
      std::vector<CompiledQuery::Step>& steps = scratch_steps;
      if (fast) {
        CompiledQuery::MaskExpandStats ms;
        compiled_.expand_masked(beam.set, mask.empty() ? nullptr : &mask,
                                steps, ms);
        stats_.mask_words_scanned += ms.words_scanned;
        stats_.mask_pruned += ms.pruned;
      } else {
        steps = compiled_.expand(beam.set);
      }
      for (const CompiledQuery::Step& next : steps) {
        if (!fast && !next.prefix_only && !mask.empty() && !mask[next.token]) {
          ++stats_.pruned_by_rules;
          continue;
        }
        Beam child;
        child.tokens = beam.tokens;
        child.tokens.push_back(next.token);
        child.set = next.next;
        child.log_prob = beam.log_prob + lp[next.token];
        child.body_len = next.body_advanced ? beam.body_len + 1 : 0;
        if (compiled_.dynamic_canonical() && next.body_advanced) {
          std::span<const TokenId> body(
              child.tokens.data() + (child.tokens.size() - child.body_len),
              child.body_len);
          std::string body_text = compiled_.tokenizer().decode(body);
          if (!compiled_.canonical_prefix_ok(body, body_text)) {
            ++stats_.pruned_non_canonical;
            continue;
          }
        }
        candidates.push_back(std::move(child));
      }
    }

    if (candidates.size() > width) {
      std::partial_sort(candidates.begin(),
                        candidates.begin() + static_cast<std::ptrdiff_t>(width),
                        candidates.end(), [](const Beam& a, const Beam& b) {
                          return a.log_prob > b.log_prob;
                        });
      candidates.resize(width);
    }
    beams = std::move(candidates);
  }

  // Sequence limit reached: surviving beams that sit on a match state are
  // still results — unless the query requires EOS termination, in which case
  // the EOS token itself would exceed the sequence budget. That mirrors
  // ShortestPathSearch, whose EOS closure refuses to extend a path already
  // at the limit: a terminated match needs room for its EOS.
  if (!query_.require_eos) {
    for (const Beam& beam : beams) {
      if (compiled_.is_match(beam.set)) record_match(beam, beam.log_prob);
    }
  }

  std::sort(matches.begin(), matches.end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.log_prob > b.log_prob;
            });
  if (matches.size() > query_.max_results) matches.resize(query_.max_results);
  stats_.elapsed_seconds = timer_.seconds();
  refresh_cache_stats();
  metrics.pruned_rules.add(stats_.pruned_by_rules);
  metrics.pruned_non_canonical.add(stats_.pruned_non_canonical);
  metrics.mask_words_scanned.add(stats_.mask_words_scanned);
  metrics.mask_pruned.add(stats_.mask_pruned);
  metrics.results.add(matches.size());
  return matches;
}

}  // namespace relm::core
