#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "automata/walks.hpp"
#include "core/compiled_query.hpp"
#include "core/frontier.hpp"
#include "core/mask_memo.hpp"
#include "model/decoding.hpp"
#include "model/language_model.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/token_bitset.hpp"

namespace relm::core {

// One matching tuple from a query, streamed to the user program (§3.1).
struct SearchResult {
  std::vector<tokenizer::TokenId> tokens;  // full token path (EOS excluded)
  std::string text;                        // decoded string
  double log_prob;                         // log p of the path (incl. EOS when required)
  std::size_t llm_calls_at_emission;       // cumulative model invocations
  double seconds_at_emission;              // since search start
};

// Pruning counters of a decoder step, shared by SearchStats and
// GenerateStats so that one body-step implementation feeds both.
struct PruneStats {
  std::size_t pruned_by_rules = 0;     // edges cut by top-k/top-p (probe path)
  std::size_t pruned_non_canonical = 0;
  // Mask fast-path counters (use_token_masks): words examined by the
  // word-wise state∩rule intersection, and tokens it eliminated. On the
  // fast path mask_pruned carries exactly the prunes the probe path would
  // have counted in pruned_by_rules (EOS-closure prunes stay there).
  std::size_t mask_words_scanned = 0;
  std::size_t mask_pruned = 0;
};

struct SearchStats : PruneStats {
  std::size_t llm_calls = 0;
  std::size_t expansions = 0;          // shortest path: nodes expanded
  std::size_t sample_attempts = 0;     // random: attempts incl. dead ends
  std::size_t sample_dead_ends = 0;
  // Async-pipeline counters (speculative_expansion; all zero in lockstep
  // mode). pump_rounds counts pipeline rounds; speculative_expanded the
  // nodes popped beyond the first per round (work done ahead of
  // settlement); speculative_cancelled nodes deferred by the mid-selection
  // expansion-budget clamp; horizon_clips selections cut by the cost
  // horizon; speculative_wasted evaluations whose node cost exceeded the
  // last emitted result (counted once, when the search ends).
  std::size_t pump_rounds = 0;
  std::size_t speculative_expanded = 0;
  std::size_t speculative_cancelled = 0;
  std::size_t speculative_wasted = 0;
  std::size_t horizon_clips = 0;
  std::size_t frontier_shard_steals = 0;
  // Rule-mask memo activity (pipeline + restricting rules): a hit reuses
  // the decoding mask of a suffix-equal node instead of recomputing it.
  std::size_t mask_memo_hits = 0;
  std::size_t mask_memo_misses = 0;
  // Logit-cache activity attributed to this search (deltas against the
  // model's counters at construction). All zero when the model does not
  // memoize (LanguageModel::cache_stats() returns nullopt).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  double elapsed_seconds = 0;

  double cache_hit_rate() const {
    const std::size_t total = cache_hits + cache_misses;
    return total ? static_cast<double>(cache_hits) / static_cast<double>(total)
                 : 0.0;
  }

  // Mean model evaluations per pipeline round — the occupancy the
  // target-occupancy controller actually achieved (gated by bench_compare).
  double mean_batch_occupancy() const {
    return pump_rounds ? static_cast<double>(expansions) /
                             static_cast<double>(pump_rounds)
                       : 0.0;
  }
};

// Dijkstra / shortest-path traversal (§3.3): yields matches in decreasing
// probability order. Costs are -log p, non-negative, so the first pop of a
// match is globally optimal and subsequent pops enumerate the language in
// order. Prefix edges are never pruned by decoding rules but carry their
// true costs (the startup-latency heuristic).
class ShortestPathSearch {
 public:
  ShortestPathSearch(const model::LanguageModel& model, const CompiledQuery& compiled,
                     const SimpleSearchQuery& query);

  // Next match, or nullopt when the language (or a budget) is exhausted.
  // Matches with identical decoded text are emitted once (first = cheapest);
  // set dedup_text=false in the constructor-time query via
  // `SimpleSearchQuery` extensions if token-tuple granularity is wanted.
  std::optional<SearchResult> next();

  const SearchStats& stats() const { return stats_; }

  // Emit every result up to the query's max_results.
  std::vector<SearchResult> all();

  // When false, distinct token tuples decoding to the same text are all
  // reported (used by the unprompted-toxicity volume measurements, §4.3).
  void set_dedup_text(bool dedup) { dedup_text_ = dedup; }

 private:
  struct Node {
    CompiledQuery::StateSet set;
    std::int32_t parent;
    tokenizer::TokenId token;   // token on the edge from parent
    double cost;                // cumulative -log p
    std::uint32_t depth;
    std::uint32_t body_len;     // tokens consumed by the body machine
    // Settled canonicality boundary of this node's body run (pipeline only):
    // children resume the greedy-deviation check here instead of re-walking
    // the whole body, keeping per-child verification O(newly settled).
    CompiledQuery::CanonState canon;
    bool terminal;              // EOS attached; emit on pop
    bool expanded = false;
    bool evaluated = false;     // consumed a model call (waste accounting)
  };
  struct QueueEntry {
    double cost;
    std::int32_t node;
    // Ties break on node id — the same (cost, node_id) total order the
    // pipeline's ShardedFrontier pops in, so lockstep and pipeline visit
    // equal-cost nodes in the same sequence instead of heap-shape order.
    bool operator>(const QueueEntry& other) const {
      if (cost != other.cost) return cost > other.cost;
      return node > other.node;
    }
  };

  // A match held back until it is provably optimal. With expansion_batch > 1
  // a round pops the k cheapest *discovered* nodes, so a popped match can be
  // costlier than a not-yet-discovered encoding of the same text (its parent
  // may sit in the same batch). Matches therefore wait in a cost-ordered
  // heap and are released only once no frontier node could still beat them;
  // text dedup happens at release time, keeping the most probable path.
  struct PendingResult {
    double cost;
    SearchResult result;
    // Equal-cost results release in token-lexicographic order: a canonical
    // tie-break that is a pure function of the result itself, so release
    // order never depends on heap insertion order.
    bool operator>(const PendingResult& other) const {
      if (cost != other.cost) return cost > other.cost;
      return result.tokens > other.result.tokens;
    }
  };

  // Per-slot input/output of the async pipeline. A task is captured fully at
  // selection time (coordinator) and evaluated by an arbitrary pool thread:
  // it must not read nodes_ (which the coordinator reallocates while tasks
  // run) or touch stats_; everything it needs travels by value and every
  // side effect comes back in the SlotOutput.
  struct SlotTask {
    CompiledQuery::StateSet set;
    double cost = 0.0;
    std::vector<tokenizer::TokenId> context;      // model-relevant suffix
    std::vector<tokenizer::TokenId> body_prefix;  // dynamic-canonical only
    std::string body_text;  // decoded body_prefix (dynamic-canonical only)
    CompiledQuery::CanonState canon;  // parent's settled boundary
    std::uint64_t suffix_hash = 0;
    std::shared_ptr<const util::TokenBitset> memo_mask;  // rule-mask memo hit
  };
  struct SlotOutput {
    std::shared_ptr<const std::vector<double>> lp;
    std::shared_ptr<const util::TokenBitset> mask;  // null: admits all
    bool mask_from_memo = false;
    std::vector<CompiledQuery::Step> steps;  // transitions surviving all rules
    // canon_states[i] is the settled boundary for steps[i] after filtering
    // (default for body resets); children inherit it at retirement.
    std::vector<CompiledQuery::CanonState> canon_states;
    bool has_eos = false;   // EOS closure fires for this node
    double eos_cost = 0.0;
    std::size_t mask_words = 0;
    std::size_t mask_pruned = 0;
    std::size_t pruned_rules = 0;
    std::size_t pruned_non_canonical = 0;
    std::vector<tokenizer::TokenId> body_scratch;  // reused per-step buffers
    std::string text_scratch;
    model::RuleMaskScratch rule_scratch;
  };

  std::vector<tokenizer::TokenId> path_of(std::int32_t node) const;
  // The model-visible context for a node: the last
  // model_.relevant_context_length() tokens of its path (the full path when
  // the model's dependence is unbounded). Walking only the relevant suffix
  // keeps per-pop cost O(window) instead of O(depth). context_into writes
  // into a caller-owned buffer so hot paths can reuse its capacity.
  std::vector<tokenizer::TokenId> context_of(std::int32_t node) const;
  void context_into(std::int32_t node,
                    std::vector<tokenizer::TokenId>& out) const;
  void expand(std::int32_t node_id, const std::vector<double>& lp);
  // Pops up to expansion_batch_size nodes, batch-evaluates their contexts,
  // expands them, and pushes any matches onto pending_results_. The lockstep
  // path (speculative_expansion = false).
  void pump();
  // The async pipeline round (speculative_expansion = true): deterministic
  // selection up to the cost horizon / occupancy target, async submission,
  // in-order retirement overlapping later slots' evaluation.
  void pump_pipeline();
  // Fill-in-place forms: the pipeline reuses one SlotTask/SlotOutput per
  // round slot across rounds, so steady-state rounds allocate nothing.
  void make_task(std::int32_t node_id, SlotTask& task) const;
  void evaluate_slot(const SlotTask& task, SlotOutput& out) const;
  void emit_if_result(std::int32_t node_id);
  bool frontier_empty() const;
  double frontier_min_cost() const;
  void count_speculative_waste();
  void refresh_cache_stats();

  const model::LanguageModel& model_;
  const CompiledQuery& compiled_;
  const SimpleSearchQuery& query_;
  const bool pipeline_;  // speculative_expansion: async pipeline vs lockstep
  std::vector<Node> nodes_;
  std::vector<CompiledQuery::Step> scratch_steps_;  // reused across expansions
  util::TokenBitset rule_mask_;  // lockstep expand's rule mask and its scratch
  model::RuleMaskScratch rule_scratch_;
  // Lockstep mode's frontier; the pipeline uses the sharded one below.
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> frontier_;
  ShardedFrontier pipe_frontier_;
  // Rule-mask memo (pipeline + rules that restrict the vocabulary only). The
  // query's shared memo when its tag matches our rules + vocabulary, else a
  // private one; null when the rules admit every token or in lockstep (see
  // core/mask_memo.hpp).
  std::shared_ptr<MaskMemo> mask_memo_;
  // Per-round pipeline scratch, reused across rounds (kept capacity is what
  // makes steady-state rounds allocation-free). round_outputs_ slots are
  // written by pool workers during a round — one writer per slot, joined by
  // AsyncBatch::wait before the coordinator reads them.
  struct PipeSlot {
    std::int32_t node;
    std::size_t eval;  // index into round_tasks_, or SIZE_MAX (no model call)
  };
  std::vector<PipeSlot> round_slots_;
  std::vector<SlotTask> round_tasks_;
  std::vector<SlotOutput> round_outputs_;
  std::unordered_set<std::string> emitted_texts_;
  std::priority_queue<PendingResult, std::vector<PendingResult>, std::greater<>>
      pending_results_;
  std::size_t emitted_ = 0;
  bool dedup_text_ = true;
  double last_emitted_cost_ = 0.0;
  bool any_emitted_ = false;
  bool waste_counted_ = false;
  SearchStats stats_;
  model::LanguageModel::CacheStats cache_baseline_;
  bool model_has_cache_ = false;
  util::Timer timer_;
};

// Reusable buffers of one sampled body step: the decoding-rule mask and the
// candidate edges with their weights. RandomSampler owns one and every
// GenStream owns its own, so a step allocates nothing once warm and streams
// stepping in parallel never share one.
struct BodyStepScratch {
  util::TokenBitset rule_mask;
  model::RuleMaskScratch rule;
  std::vector<std::size_t> candidate_edges;
  std::vector<double> weights;
};

inline constexpr std::size_t kBodyStepDeadEnd = SIZE_MAX;  // nothing to draw
inline constexpr std::size_t kBodyStepEos = SIZE_MAX - 1;  // drew EOS-as-stop

// One body step of random sampling, shared by RandomSampler and GenStream:
// the decoding-rule mask (model::allowed_tokens) intersected with the body
// state's token mask, dynamic canonicality pruning of each candidate, EOS as
// the stop option at final states, then one draw from `rng` weighted by the
// true model probabilities (§3.3). Returns the drawn edge's index into the
// state's edges, kBodyStepEos, or kBodyStepDeadEnd.
std::size_t sample_body_step(const CompiledQuery& compiled,
                             const SimpleSearchQuery& query,
                             const model::DecodingRules& rules,
                             tokenizer::TokenId eos, automata::StateId state,
                             std::span<const tokenizer::TokenId> body_tokens,
                             const std::string& body_text,
                             std::span<const double> lp, util::Pcg32& rng,
                             BodyStepScratch& scratch, PruneStats& stats);

// Randomized traversal (§3.3): unbiased sampling from the query language.
// The prefix is drawn uniformly over prefix walks using walk-count edge
// normalization (Appendix C) — or uniformly over edges when the query
// disables normalization (the Figure 9 ablation) — and the suffix is drawn
// from the LLM restricted to the automaton and decoding rules, with EOS
// disambiguating stop-vs-continue at final states.
class RandomSampler {
 public:
  RandomSampler(const model::LanguageModel& model, const CompiledQuery& compiled,
                const SimpleSearchQuery& query, std::uint64_t seed);

  // One sample; nullopt if the attempt dead-ended (caller may retry).
  std::optional<SearchResult> sample_once();

  // Draws query.num_samples samples (with retries bounded by
  // query.max_sample_attempts_factor).
  std::vector<SearchResult> sample_all();

  const SearchStats& stats() const { return stats_; }

  // Decoded text of the prefix portion of the last successful sample
  // (empty for unconditional queries). Used by the edit-position analysis.
  const std::string& last_prefix_text() const { return last_prefix_text_; }

 private:
  bool sample_prefix_tokens(std::vector<tokenizer::TokenId>& out);
  std::optional<SearchResult> sample_once_impl();
  void refresh_cache_stats();

  const model::LanguageModel& model_;
  const CompiledQuery& compiled_;
  const SimpleSearchQuery& query_;
  automata::WalkCounts prefix_walks_;
  util::Pcg32 rng_;
  SearchStats stats_;
  model::LanguageModel::CacheStats cache_baseline_;
  bool model_has_cache_ = false;
  util::Timer timer_;
  std::string last_prefix_text_;
  BodyStepScratch step_scratch_;
};

// Constrained beam search: the trie/automaton-constrained beam decoding the
// paper relates to (De Cao et al., 2021; §5). Keeps the `beam_width` most
// probable partial paths per step. Compared to Dijkstra it is approximate —
// a path outside the beam is gone for good — but its cost is bounded:
// at most beam_width LLM calls per step for at most sequence_length steps.
// Matches found along the way are collected and returned most probable
// first. Prefix edges bypass decoding rules exactly as in the other
// traversals; the prefix consumes beam slots like any other path.
class BeamSearch {
 public:
  BeamSearch(const model::LanguageModel& model, const CompiledQuery& compiled,
             const SimpleSearchQuery& query);

  // Runs to completion (all beams dead or sequence limit reached).
  std::vector<SearchResult> run();

  const SearchStats& stats() const { return stats_; }

 private:
  struct Beam {
    std::vector<tokenizer::TokenId> tokens;
    CompiledQuery::StateSet set;
    double log_prob = 0.0;
    std::uint32_t body_len = 0;
  };

  void refresh_cache_stats();

  const model::LanguageModel& model_;
  const CompiledQuery& compiled_;
  const SimpleSearchQuery& query_;
  SearchStats stats_;
  model::LanguageModel::CacheStats cache_baseline_;
  bool model_has_cache_ = false;
  util::Timer timer_;
};

}  // namespace relm::core
