// Microbenchmarks (google-benchmark) for ReLM's executor: model inference,
// shortest-path expansion throughput with and without top-k pruning, and
// randomized traversal sampling rates. The top-k comparison quantifies the
// §3.3 observation that decision rules transitively prune large parts of the
// search space. The *_Threads/*_Batched benchmarks measure the parallel
// batch API and the suffix-keyed logit cache on the same workloads.

#include <benchmark/benchmark.h>

#include <bit>
#include <cmath>
#include <mutex>

#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/token_masks.hpp"
#include "experiments/setup.hpp"
#include "model/decoding.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/token_bitset.hpp"

namespace {

using namespace relm;

const experiments::World& world() {
  static experiments::World w = experiments::build_world(
      experiments::WorldConfig::scaled(0.25));
  return w;
}

void BM_NgramNextLogProbs(benchmark::State& state) {
  auto ctx = world().tokenizer->encode("The man was trained in computer");
  for (auto _ : state) {
    benchmark::DoNotOptimize(world().xl->next_log_probs(ctx));
  }
}
BENCHMARK(BM_NgramNextLogProbs);

void BM_CachedNextLogProbs(benchmark::State& state) {
  model::CachingModel cached(world().xl);
  auto ctx = world().tokenizer->encode("The man was trained in computer");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.next_log_probs(ctx));
  }
}
BENCHMARK(BM_CachedNextLogProbs);

// Parallel fan-out of next_log_probs_batch across the shared pool. Arg(0) is
// the thread count (1 = serial fast path). 32 distinct contexts per call —
// more than the pool size, so work-queue draining is exercised.
void BM_BatchNextLogProbsThreads(benchmark::State& state) {
  util::ThreadPool::set_shared_threads(static_cast<std::size_t>(state.range(0)));
  std::vector<std::vector<tokenizer::TokenId>> contexts;
  const char* seeds[] = {"The man was trained in", "https://www.", "science",
                         "The woman went to the"};
  for (std::size_t i = 0; i < 32; ++i) {
    auto ctx = world().tokenizer->encode(seeds[i % 4]);
    ctx.push_back(static_cast<tokenizer::TokenId>(i % world().xl->vocab_size()));
    contexts.push_back(std::move(ctx));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(world().xl->next_log_probs_batch(contexts));
  }
  util::ThreadPool::set_shared_threads(1);
}
BENCHMARK(BM_BatchNextLogProbsThreads)->Arg(1)->Arg(2)->Arg(4);

// Suffix-keyed cache under batch evaluation: all 32 contexts share their
// last (order-1) tokens with a previously seen context, so after warmup
// every lookup is a hit regardless of full-context diversity.
void BM_CachedBatchSuffixHits(benchmark::State& state) {
  model::CachingModel cached(world().xl);
  std::vector<std::vector<tokenizer::TokenId>> contexts;
  auto suffix = world().tokenizer->encode("trained in computer");
  for (std::size_t i = 0; i < 32; ++i) {
    // Distinct long prefixes, identical relevant suffix.
    std::vector<tokenizer::TokenId> ctx(
        i + 1, static_cast<tokenizer::TokenId>(i % world().xl->vocab_size()));
    ctx.insert(ctx.end(), suffix.begin(), suffix.end());
    contexts.push_back(std::move(ctx));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.next_log_probs_batch(contexts));
  }
  state.counters["hit_rate"] =
      cached.hits() + cached.misses() > 0
          ? static_cast<double>(cached.hits()) /
                static_cast<double>(cached.hits() + cached.misses())
          : 0.0;
}
BENCHMARK(BM_CachedBatchSuffixHits);

core::SimpleSearchQuery url_query(std::optional<int> top_k) {
  core::SimpleSearchQuery query;
  query.query_string.query_str = experiments::url_pattern();
  query.query_string.prefix_str = "https://www.";
  query.decoding.top_k = top_k;
  query.max_results = 50;
  query.max_expansions = 400;
  query.sequence_length = 20;
  // The BM_ShortestPath* benchmarks measure the lockstep paths their names
  // promise (and the bench-gate pins BM_ShortestPath at 3%); the async
  // pipeline is priced separately by BM_ShortestPathPipeline.
  query.speculative_expansion = false;
  return query;
}

void BM_ShortestPathTopK40(benchmark::State& state) {
  core::SimpleSearchQuery query = url_query(40);
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  std::size_t expansions = 0;
  for (auto _ : state) {
    core::ShortestPathSearch search(*world().xl, compiled, query);
    benchmark::DoNotOptimize(search.all());
    expansions += search.stats().expansions;
  }
  state.counters["expansions/iter"] =
      static_cast<double>(expansions) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ShortestPathTopK40);

// The same URL query through the batched frontier + suffix-keyed cache.
// Arg(0) is the thread count. Compare against BM_ShortestPathTopK40 (strict
// serial Dijkstra, no cache) for the end-to-end engine speedup.
void BM_ShortestPathBatchedCached(benchmark::State& state) {
  util::ThreadPool::set_shared_threads(static_cast<std::size_t>(state.range(0)));
  core::SimpleSearchQuery query = url_query(40);
  query.expansion_batch_size = 16;
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  model::CachingModel cached(world().xl, 1 << 16);
  std::size_t hits = 0, misses = 0;
  for (auto _ : state) {
    core::ShortestPathSearch search(cached, compiled, query);
    benchmark::DoNotOptimize(search.all());
    hits += search.stats().cache_hits;
    misses += search.stats().cache_misses;
  }
  state.counters["hit_rate"] =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  util::ThreadPool::set_shared_threads(1);
}
BENCHMARK(BM_ShortestPathBatchedCached)->Arg(1)->Arg(2)->Arg(4);

// The async frontier pipeline on the same URL query: speculative expansion
// with the target-occupancy controller, suffix-keyed cache, and the rule-mask
// memo. Arg(0) is the thread count. Compare against BM_ShortestPathTopK40
// (strict serial) and BM_ShortestPathBatchedCached (lockstep batching).
void BM_ShortestPathPipeline(benchmark::State& state) {
  util::ThreadPool::set_shared_threads(static_cast<std::size_t>(state.range(0)));
  core::SimpleSearchQuery query = url_query(40);
  query.speculative_expansion = true;
  // Shared across iterations like the logit cache below: suffixes repeat
  // across searches far more than within one, and a run reuses one memo the
  // same way (SimpleSearchQuery::mask_memo).
  query.mask_memo = std::make_shared<core::MaskMemo>();
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  model::CachingModel cached(world().xl, 1 << 16);
  std::size_t rounds = 0, expansions = 0, memo_hits = 0, memo_misses = 0;
  for (auto _ : state) {
    core::ShortestPathSearch search(cached, compiled, query);
    benchmark::DoNotOptimize(search.all());
    rounds += search.stats().pump_rounds;
    expansions += search.stats().expansions;
    memo_hits += search.stats().mask_memo_hits;
    memo_misses += search.stats().mask_memo_misses;
  }
  state.counters["occupancy"] =
      rounds > 0 ? static_cast<double>(expansions) / static_cast<double>(rounds)
                 : 0.0;
  state.counters["memo_hit_rate"] =
      memo_hits + memo_misses > 0
          ? static_cast<double>(memo_hits) /
                static_cast<double>(memo_hits + memo_misses)
          : 0.0;
  util::ThreadPool::set_shared_threads(1);
}
BENCHMARK(BM_ShortestPathPipeline)->Arg(1)->Arg(2)->Arg(4);

// The same query with the precompiled-bitmask fast path disabled: every
// expansion returns to probing each automaton edge against the rule mask.
// Compare against BM_ShortestPathTopK40 (masks on by default) for the
// end-to-end hot-loop saving.
void BM_ShortestPathTopK40MasksOff(benchmark::State& state) {
  core::SimpleSearchQuery query = url_query(40);
  query.use_token_masks = false;
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  for (auto _ : state) {
    core::ShortestPathSearch search(*world().xl, compiled, query);
    benchmark::DoNotOptimize(search.all());
  }
}
BENCHMARK(BM_ShortestPathTopK40MasksOff);

// Isolated expansion primitives on a synthetic dense token automaton, away
// from model-inference noise. Arg(0) is the vocabulary size; the state under
// measurement carries vocab/2 outgoing edges (URL- and word-class states in
// real queries are this dense) and the decoding rule keeps ~1/16 of the
// vocabulary, the regime top-k=40 style rules put the executor in.
struct MaskBenchFixture {
  std::size_t vocab;
  core::TokenMaskTable table;
  util::TokenBitset rule;

  explicit MaskBenchFixture(std::size_t v) : vocab(v), rule(v) {
    automata::Dfa dfa(static_cast<automata::Symbol>(v));
    automata::StateId s0 = dfa.add_state(false);
    automata::StateId s1 = dfa.add_state(true);
    dfa.set_start(s0);
    for (std::size_t t = 0; t < v; t += 2) {
      dfa.add_edge(s0, static_cast<automata::Symbol>(t), s1);
    }
    table = core::build_token_masks(dfa);
    util::Pcg32 rng(17);
    for (std::size_t t = 0; t < v; ++t) {
      if (rng.bounded(16) == 0) rule.set(t);
    }
  }
};

// Mask-and-scan: intersect the state bitmask with the rule mask word by word
// and recover each survivor's CSR target by rank (running popcount). This is
// exactly the loop CompiledQuery::expand_masked runs per live automaton.
void BM_MaskExpand(benchmark::State& state) {
  MaskBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  const std::uint64_t* row = fx.table.state_words(0);
  const std::uint64_t* rule_words = fx.rule.words().data();
  const std::uint32_t* targets =
      fx.table.edge_targets.data() + fx.table.edge_offsets[0];
  const std::size_t words = fx.table.words_per_state;
  std::uint64_t survivors = 0;
  for (auto _ : state) {
    std::uint64_t sink = 0;
    std::uint32_t base_rank = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t word = row[w];
      std::uint64_t bits = word & rule_words[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const std::uint32_t rank =
            base_rank +
            static_cast<std::uint32_t>(std::popcount(word & ((1ull << b) - 1)));
        sink += targets[rank];
        ++survivors;
      }
      base_rank += static_cast<std::uint32_t>(std::popcount(word));
    }
    benchmark::DoNotOptimize(sink);
  }
  state.counters["survivors/iter"] =
      static_cast<double>(survivors) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MaskExpand)->Arg(1024)->Arg(8192);

// The pre-mask hot loop: visit every outgoing edge and probe the rule mask
// per edge. Cost scales with edge count instead of vocab/64 + survivors.
void BM_MaskExpandProbe(benchmark::State& state) {
  MaskBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  const std::uint32_t begin = fx.table.edge_offsets[0];
  const std::uint32_t end = fx.table.edge_offsets[1];
  for (auto _ : state) {
    std::uint64_t sink = 0;
    for (std::uint32_t e = begin; e < end; ++e) {
      if (fx.rule[fx.table.edge_tokens[e]]) sink += fx.table.edge_targets[e];
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_MaskExpandProbe)->Arg(1024)->Arg(8192);

// Building the rule mask itself (top-k + top-p over a full distribution):
// the per-step cost that the per-state masks let the executor amortize
// across every candidate edge at once.
void BM_AllowedTokensBitset(benchmark::State& state) {
  const std::size_t vocab = static_cast<std::size_t>(state.range(0));
  util::Pcg32 rng(29);
  std::vector<double> log_probs(vocab);
  double total = 0.0;
  for (double& lp : log_probs) {
    lp = 0.05 + rng.uniform();
    total += lp;
  }
  for (double& lp : log_probs) lp = std::log(lp / total);
  model::DecodingRules rules;
  rules.top_k = 40;
  rules.top_p = 0.9;
  util::TokenBitset mask;
  model::RuleMaskScratch scratch;
  for (auto _ : state) {
    model::allowed_tokens(log_probs, rules, mask, scratch);
    benchmark::DoNotOptimize(mask.words().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AllowedTokensBitset)->Arg(1024)->Arg(8192);

void BM_ShortestPathUnrestricted(benchmark::State& state) {
  core::SimpleSearchQuery query = url_query(std::nullopt);
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  for (auto _ : state) {
    core::ShortestPathSearch search(*world().xl, compiled, query);
    benchmark::DoNotOptimize(search.all());
  }
}
BENCHMARK(BM_ShortestPathUnrestricted);

void BM_RandomSampling(benchmark::State& state) {
  core::SimpleSearchQuery query;
  query.query_string.query_str =
      "The ((man)|(woman)) was trained in ((art)|(science)|(engineering))";
  query.query_string.prefix_str = "The ((man)|(woman)) was trained in";
  query.search_strategy = core::SearchStrategy::kRandomSampling;
  query.num_samples = 1;
  core::CompiledQuery compiled =
      core::CompiledQuery::compile(query, *world().tokenizer);
  core::RandomSampler sampler(*world().xl, compiled, query, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample_once());
  }
}
BENCHMARK(BM_RandomSampling);

// Observability overhead floor: the cost of an RELM_TRACE_SPAN at a site
// when tracing is disabled (the default for every production run). This is
// the per-span tax paid by the instrumented hot paths — it must stay at a
// single relaxed atomic load (sub-nanosecond-ish), which the bench-gate's
// shortest-path budget indirectly enforces end to end.
void BM_ObsSpanDisabled(benchmark::State& state) {
  if (obs::Trace::enabled()) obs::Trace::stop();
  for (auto _ : state) {
    RELM_TRACE_SPAN("bench.disabled_span");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

// Span cost with tracing on: clock reads plus one per-thread buffered event
// and one histogram observe.
void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Trace::start();
  for (auto _ : state) {
    RELM_TRACE_SPAN("bench.enabled_span");
    benchmark::DoNotOptimize(&state);
  }
  obs::Trace::stop();
}
BENCHMARK(BM_ObsSpanEnabled);

// Striped counter add — the fast path used by every executor/cache metric.
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter& c = obs::Registry::instance().counter("bench.counter");
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterAdd);

// Histogram observe: bucket search plus two striped adds.
void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram& h = obs::Registry::instance().histogram(
      "bench.histogram", obs::Histogram::default_size_bounds());
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v = v < 4096.0 ? v + 1.0 : 0.0;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramObserve);

// Sync-layer overhead floor: a raw std::mutex lock/unlock against the
// annotated relm::Mutex wrapper. Bench builds are Release (NDEBUG), so the
// rank detector and contention counters compile out and the two must be
// indistinguishable — the wrapper's lock() IS std::mutex::lock(). Debug-only
// machinery is priced separately by the test suite, not here.
void BM_SyncStdMutexBaseline(benchmark::State& state) {
  std::mutex m;  // relm-lint exemption does not apply: bench/ is out of scope
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
  benchmark::DoNotOptimize(&m);
}
BENCHMARK(BM_SyncStdMutexBaseline);

void BM_SyncRelmMutex(benchmark::State& state) {
  util::Mutex m(util::LockRank::kPoolJob);
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
  benchmark::DoNotOptimize(&m);
}
BENCHMARK(BM_SyncRelmMutex);

void BM_SyncRelmScopedLock(benchmark::State& state) {
  util::Mutex m(util::LockRank::kPoolJob);
  for (auto _ : state) {
    util::ScopedLock lock(m);
    benchmark::DoNotOptimize(&lock);
  }
}
BENCHMARK(BM_SyncRelmScopedLock);

void BM_QueryCompilation(benchmark::State& state) {
  core::SimpleSearchQuery query = url_query(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CompiledQuery::compile(query, *world().tokenizer));
  }
}
BENCHMARK(BM_QueryCompilation);

}  // namespace

BENCHMARK_MAIN();
