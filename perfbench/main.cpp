// relm_perfbench: the repository benchmark. It drives the library's public
// API as one closed-loop client on a 2-thread pool and prints, as its last
// line, one JSON object with the run's verdict and metrics. perfbench/run.py
// builds and runs it; perfbench/README.md describes the workloads, the
// metrics and the layer each metric belongs to.
//
//   relm_perfbench --workload url_enum|cloze_suite|gen_streams --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE]
//
// Every run executes all three phases (enumeration, cloze queries,
// generation), because every run reports every end-to-end metric; the phase
// the workload names gets half of the rounds (see the schedule in main()).
// A round is a fixed amount of one phase's work on one world with fresh
// caches, so rounds are comparable, and all rounds of a phase on one world
// must produce the same output digest. With --trace 1 the named phase
// alternates untraced and traced rounds (the difference is the tracing
// overhead) and the per-layer metrics come from the traced rounds.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <regex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/generate/generate_engine.hpp"
#include "core/pipeline/cache.hpp"
#include "core/pipeline/pipeline.hpp"
#include "experiments/setup.hpp"
#include "model/ngram_model.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

#ifndef RELM_PERFBENCH_BUILD_TYPE
#define RELM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace relm;
using core::SearchResult;
using core::generate::GenerateEngine;
using core::generate::StreamState;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::TracedModel;

// --- sizes ----------------------------------------------------------------

constexpr std::size_t kPoolThreads = 2;  // total, counting the caller
// Every run builds kWorlds worlds from its seed and spreads each phase's
// work over all of them: the cost of a query differs a lot from one world
// to the next, and a run's figures should not hang on one draw.
constexpr std::size_t kWorlds = 16;
constexpr std::size_t kLogitCacheEntries = 1 << 16;

// Work per world in one round of each phase.
constexpr std::size_t kEnumExpansions = 12000;  // url_enum model-call budget
constexpr std::size_t kClozeQueries = 32;       // cloze_suite, per pass
constexpr int kClozeTopK = 1000;
constexpr std::size_t kClozeExpansions = 400;
constexpr std::size_t kCohorts = 6;             // gen_streams phase A
constexpr std::size_t kCohortStreams = 64;
constexpr std::size_t kSamples = 48;            // gen_streams phase B

// Output checks per round, outside the timed region.
constexpr std::size_t kRescoredMatches = 16;  // URL matches re-scored
constexpr std::size_t kSoloReruns = 2;        // streams re-run alone

constexpr const char* kUrlPrefix = "https://www.";
// The URL pattern of experiments::url_pattern() in ECMAScript syntax, for
// checking matches with a regex engine that is not the one under test.
constexpr const char* kUrlRegex =
    "https://www.([a-zA-Z0-9]|-|_|#|%)+.([a-zA-Z0-9]|-|_|#|%|/)+";
// What a cloze answer may add to its context.
constexpr const char* kClozeAnswerRegex = " [a-zA-Z]+[.!?]?\"?";

enum class Phase { kEnum, kCloze, kGen };
constexpr std::array<Phase, 3> kPhases = {Phase::kEnum, Phase::kCloze,
                                          Phase::kGen};

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kEnum: return "url_enum";
    case Phase::kCloze: return "cloze_suite";
    case Phase::kGen: return "gen_streams";
  }
  return "?";
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// --- options --------------------------------------------------------------

struct Options {
  Phase workload = Phase::kEnum;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      bool found = false;
      for (Phase p : kPhases) {
        if (value == phase_name(p)) {
          opt.workload = p;
          found = true;
        }
      }
      if (!found) return std::nullopt;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return std::nullopt;
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0)) {
        return std::nullopt;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return opt;
}

// --- host context ---------------------------------------------------------

struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

// Aggregate "cpu" line of /proc/stat; zeros when unavailable.
CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return t;
  for (int field = 0; field < 8; ++field) {  // user .. steal
    unsigned long long v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string read_loadavg() {
  std::ifstream in("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  if (!(in >> a >> b >> c)) return "null";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%.2f,%.2f,%.2f]", a, b, c);
  return buf;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- output digests -------------------------------------------------------

class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void real(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void result(const SearchResult& r) {
    text(r.text);
    u64(r.tokens.size());
    for (tokenizer::TokenId t : r.tokens) u64(t);
    real(r.log_prob);
  }
  void maybe_result(const std::optional<SearchResult>& r) {
    u64(r.has_value());
    if (r) result(*r);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

bool same_result(const std::optional<SearchResult>& a,
                 const std::optional<SearchResult>& b) {
  Digest da, db;
  da.maybe_result(a);
  db.maybe_result(b);
  return da.value() == db.value();
}

// Full output checks are expensive, and every round of a phase is meant to
// produce the same output; a round whose digest was already checked reuses
// that verdict.
class Verifier {
 public:
  std::size_t failures(std::uint64_t digest,
                       const std::function<std::size_t()>& check) {
    auto it = known_.find(digest);
    if (it != known_.end()) return it->second;
    const std::size_t failed = check();
    known_.emplace(digest, failed);
    return failed;
  }

 private:
  std::map<std::uint64_t, std::size_t> known_;
};

// --- per-layer accumulation -----------------------------------------------

// What the traced rounds did, layer by layer, as counted by the benchmark
// from the values the library hands back.
struct Layers {
  std::map<std::string, double> pass_seconds;
  std::size_t fresh_compiles = 0;
  double fresh_compile_seconds = 0.0;
  std::size_t token_states = 0;
  std::size_t lookups = 0;
  double lookup_seconds = 0.0;
  std::size_t artifact_hits = 0;
  std::size_t artifact_misses = 0;

  std::size_t logit_hits = 0;
  std::size_t logit_misses = 0;
  std::size_t logit_evictions = 0;

  core::SearchStats search;  // shortest-path searches, summed
  std::size_t sample_attempts = 0;
  std::size_t sample_dead_ends = 0;
  core::generate::GenerateStats gen;  // cohorts, summed
  std::size_t streams = 0;

  void add_search(const core::SearchStats& s) {
    search.expansions += s.expansions;
    search.pruned_non_canonical += s.pruned_non_canonical;
    search.mask_words_scanned += s.mask_words_scanned;
    search.mask_pruned += s.mask_pruned;
    search.pump_rounds += s.pump_rounds;
    search.speculative_wasted += s.speculative_wasted;
    search.frontier_shard_steals += s.frontier_shard_steals;
    search.mask_memo_hits += s.mask_memo_hits;
    search.mask_memo_misses += s.mask_memo_misses;
  }
  void add_generate(const core::generate::GenerateStats& s) {
    gen.ticks += s.ticks;
    gen.llm_calls += s.llm_calls;
    gen.batch_dedup_hits += s.batch_dedup_hits;
    gen.tokens_emitted += s.tokens_emitted;
    gen.streams_done += s.streams_done;
    gen.mask_words_scanned += s.mask_words_scanned;
  }
};

// --- models ---------------------------------------------------------------

// The model stack a round's executor calls: the n-gram model, optionally
// behind a logit cache. Traced rounds put a forwarding decorator under the
// cache ("model.eval", real evaluations) and one on top ("model.call",
// every call the executor makes).
struct Models {
  std::shared_ptr<const model::CachingModel> cache;  // null = no logit cache
  std::shared_ptr<const model::LanguageModel> top;

  void account(Layers& layers) const {
    if (!cache) return;
    layers.logit_hits += cache->hits();
    layers.logit_misses += cache->misses();
    layers.logit_evictions += cache->evictions();
  }
};

Models make_models(const experiments::World& world, bool logit_cache,
                   bool traced) {
  Models models;
  std::shared_ptr<const model::LanguageModel> m = world.xl;
  if (traced) m = std::make_shared<TracedModel>(m, "model.eval");
  if (logit_cache) {
    models.cache = std::make_shared<model::CachingModel>(m, kLogitCacheEntries);
    m = models.cache;
  }
  if (traced) m = std::make_shared<TracedModel>(m, "model.call");
  models.top = m;
  return models;
}

// --- compilation ----------------------------------------------------------

std::shared_ptr<const core::pipeline::QueryArtifact> compile_artifact(
    const core::SimpleSearchQuery& query, const tokenizer::BpeTokenizer& tok,
    Layers& layers) {
  util::Timer timer;
  core::pipeline::CompileResult result =
      core::pipeline::Pipeline::standard().run(query, tok);
  layers.fresh_compile_seconds += timer.seconds();
  ++layers.fresh_compiles;
  for (const auto& pass : result.passes) {
    layers.pass_seconds[pass.name] += pass.seconds;
  }
  layers.token_states += result.artifact.prefix.dfa.num_states() +
                         result.artifact.body.dfa.num_states();
  return std::make_shared<const core::pipeline::QueryArtifact>(
      std::move(result.artifact));
}

core::CompiledQuery compile_fresh(const core::SimpleSearchQuery& query,
                                  const tokenizer::BpeTokenizer& tok,
                                  Layers& layers) {
  ScopedSpan span("compile");
  return core::CompiledQuery::from_artifact(
      compile_artifact(query, tok, layers), tok);
}

// Cold pass: derive the content address, miss, compile, insert.
core::CompiledQuery compile_cold(const core::SimpleSearchQuery& query,
                                 const tokenizer::BpeTokenizer& tok,
                                 core::pipeline::ArtifactCache& cache,
                                 Layers& layers) {
  ScopedSpan span("compile");
  util::Timer lookup;
  const auto key = core::pipeline::derive_artifact_key(query, tok);
  auto artifact = key ? cache.lookup(*key) : nullptr;
  layers.lookup_seconds += lookup.seconds();
  ++layers.lookups;
  if (!artifact) {
    artifact = compile_artifact(query, tok, layers);
    if (key) cache.insert(*key, artifact);
  }
  return core::CompiledQuery::from_artifact(std::move(artifact), tok);
}

// Warm pass: the library's compile-through-cache entry point, which hits.
core::CompiledQuery compile_warm(const core::SimpleSearchQuery& query,
                                 const tokenizer::BpeTokenizer& tok,
                                 core::pipeline::ArtifactCache& cache,
                                 Layers& layers) {
  ScopedSpan span("compile");
  util::Timer lookup;
  auto artifact = core::pipeline::compile_cached(query, tok, &cache);
  layers.lookup_seconds += lookup.seconds();
  ++layers.lookups;
  return core::CompiledQuery::from_artifact(std::move(artifact), tok);
}

// --- rounds ---------------------------------------------------------------

struct Round {
  const experiments::World& world;
  std::uint64_t seed;
  bool traced;
  Layers& layers;
  Verifier& verifier;
};

struct RoundOut {
  double seconds = 0.0;         // the round (phase A for generation)
  std::size_t items = 0;        // matches, or generated tokens
  double seconds_b = 0.0;       // sampler phase
  std::size_t items_b = 0;      // samples
  std::vector<double> cold_ms;  // cloze latencies, query order
  std::vector<double> warm_ms;
  std::uint64_t digest = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

core::SimpleSearchQuery url_query(core::SearchStrategy strategy) {
  core::SimpleSearchQuery query;
  query.query_string.prefix_str = kUrlPrefix;
  query.query_string.query_str = experiments::url_pattern();
  query.search_strategy = strategy;
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  query.decoding.top_k = 40;
  query.sequence_length = 24;
  return query;
}

const std::regex& url_regex() {
  static const std::regex re(kUrlRegex,
                             std::regex::ECMAScript | std::regex::optimize);
  return re;
}

// A match's tokens must be the canonical encoding of its text (prefix and
// body are encoded separately), and its log-probability the raw model's.
bool rescored_ok(const experiments::World& world, const SearchResult& match) {
  const std::string_view prefix(kUrlPrefix);
  if (!std::string_view(match.text).starts_with(prefix)) return false;
  std::vector<tokenizer::TokenId> expected = world.tokenizer->encode(prefix);
  const auto body =
      world.tokenizer->encode(std::string_view(match.text).substr(prefix.size()));
  expected.insert(expected.end(), body.begin(), body.end());
  if (expected != match.tokens) return false;
  const double lp = world.xl->sequence_log_prob({}, match.tokens);
  return std::abs(lp - match.log_prob) <= 1e-9 * std::max(1.0, std::abs(lp));
}

std::size_t check_enum(const experiments::World& world,
                       const std::vector<SearchResult>& matches) {
  std::unordered_set<std::string> seen;
  const std::size_t stride =
      std::max<std::size_t>(1, matches.size() / kRescoredMatches);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < matches.size(); ++i) {
    const SearchResult& m = matches[i];
    bool ok = std::regex_match(m.text, url_regex());
    ok = seen.insert(m.text).second && ok;
    if (i > 0 && m.log_prob > matches[i - 1].log_prob) ok = false;
    if (i % stride == 0 && ok) ok = rescored_ok(world, m);
    failed += ok ? 0 : 1;
  }
  return failed;
}

// url_enum: the §4.1 URL query enumerated most-probable-first under a fixed
// model-call budget, through a fresh logit cache.
RoundOut enum_round(const Round& r) {
  const tokenizer::BpeTokenizer& tok = *r.world.tokenizer;
  core::SimpleSearchQuery query = url_query(core::SearchStrategy::kShortestPath);
  query.max_expansions = kEnumExpansions;
  query.max_results = std::numeric_limits<std::size_t>::max();
  const Models models = make_models(r.world, /*logit_cache=*/true, r.traced);

  std::vector<SearchResult> matches;
  RoundOut out;
  {
    ScopedSpan workload("workload");
    perfbench::begin_request();
    util::Timer timer;
    ScopedSpan request("query");
    const core::CompiledQuery compiled = compile_fresh(query, tok, r.layers);
    {
      ScopedSpan search_span("search");
      core::ShortestPathSearch search(*models.top, compiled, query);
      while (auto m = search.next()) matches.push_back(std::move(*m));
      r.layers.add_search(search.stats());
    }
    out.seconds = timer.seconds();
  }
  models.account(r.layers);

  Digest digest;
  for (const SearchResult& m : matches) digest.result(m);
  out.digest = digest.value();
  out.items = matches.size();
  out.attempted = matches.size();
  out.failed = r.verifier.failures(
      out.digest, [&] { return check_enum(r.world, matches); });
  return out;
}

core::SimpleSearchQuery cloze_query(const std::string& context) {
  core::SimpleSearchQuery query;
  query.query_string.prefix_str = util::regex_escape(context);
  query.query_string.query_str =
      query.query_string.prefix_str + " ([a-zA-Z]+)(\\.|\\!|\\?)?(\")?";
  query.search_strategy = core::SearchStrategy::kShortestPath;
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  query.decoding.top_k = kClozeTopK;
  query.max_results = 1;
  query.max_expansions = kClozeExpansions;
  return query;
}

bool cloze_answer_ok(const std::optional<SearchResult>& answer,
                     const std::string& context) {
  static const std::regex re(kClozeAnswerRegex, std::regex::ECMAScript);
  return answer && answer->text.starts_with(context) &&
         std::regex_match(answer->text.substr(context.size()), re);
}

// cloze_suite: cloze contexts as separate queries, first match only, on the
// raw model. A cold pass compiles each query into an empty artifact cache;
// a warm pass repeats the queries against that cache.
RoundOut cloze_round(const Round& r) {
  const tokenizer::BpeTokenizer& tok = *r.world.tokenizer;
  // Passages that share a context are one query, so a cold pass compiles
  // every query exactly once. A seeded draw picks the queries and their
  // order.
  std::vector<std::string> contexts;
  {
    std::unordered_set<std::string> seen;
    for (const auto& passage : r.world.corpus.cloze_passages) {
      if (seen.insert(passage.context).second) {
        contexts.push_back(passage.context);
      }
    }
  }
  util::Pcg32 rng(mix64(r.seed ^ 0xC102E));
  for (std::size_t i = contexts.size(); i > 1; --i) {
    std::swap(contexts[i - 1],
              contexts[rng.bounded(static_cast<std::uint32_t>(i))]);
  }
  contexts.resize(std::min(contexts.size(), kClozeQueries));
  const std::size_t n = contexts.size();

  const Models models = make_models(r.world, /*logit_cache=*/false, r.traced);
  core::pipeline::ArtifactCache cache(
      core::pipeline::ArtifactCacheConfig{.capacity = 2 * n, .disk_dir = ""});
  std::vector<std::optional<SearchResult>> cold(n), warm(n);
  RoundOut out;
  out.cold_ms.resize(n);
  out.warm_ms.resize(n);
  {
    ScopedSpan workload("workload");
    util::Timer round_timer;
    for (const bool is_cold : {true, false}) {
      for (std::size_t i = 0; i < n; ++i) {
        const core::SimpleSearchQuery query = cloze_query(contexts[i]);
        perfbench::begin_request();
        ScopedSpan request("query");
        util::Timer timer;
        const core::CompiledQuery compiled =
            is_cold ? compile_cold(query, tok, cache, r.layers)
                    : compile_warm(query, tok, cache, r.layers);
        ScopedSpan search_span("search");
        core::ShortestPathSearch search(*models.top, compiled, query);
        auto answer = search.next();
        (is_cold ? out.cold_ms : out.warm_ms)[i] = 1000.0 * timer.seconds();
        (is_cold ? cold : warm)[i] = std::move(answer);
        r.layers.add_search(search.stats());
      }
    }
    out.seconds = round_timer.seconds();
  }
  const auto cache_stats = cache.stats();
  r.layers.artifact_hits += cache_stats.hits;
  r.layers.artifact_misses += cache_stats.misses;

  Digest digest;
  for (const auto& answer : cold) digest.maybe_result(answer);
  for (const auto& answer : warm) digest.maybe_result(answer);
  out.digest = digest.value();
  out.attempted = 2 * n;
  out.failed = r.verifier.failures(out.digest, [&] {
    std::size_t failed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      failed += cloze_answer_ok(cold[i], contexts[i]) ? 0 : 1;
      failed += cloze_answer_ok(warm[i], contexts[i]) &&
                        same_result(cold[i], warm[i])
                    ? 0
                    : 1;
    }
    return failed;
  });
  return out;
}

// Co-tenant streams alternate between two decoding rules, so one tick mixes
// a top-k mask with a top-k + top-p mask.
core::generate::StreamSpec stream_spec(std::size_t index) {
  core::generate::StreamSpec spec;
  model::DecodingRules rules;
  rules.top_k = 40;
  if (index % 2 == 1) rules.top_p = 0.9;
  spec.decoding = rules;
  spec.rng_stream = index;
  return spec;
}

std::uint64_t cohort_seed(std::uint64_t seed, std::size_t cohort) {
  return mix64(seed * 0x100000001B3ULL + cohort);
}

struct StreamOutcome {
  StreamState state;
  std::optional<SearchResult> result;
};

// gen_streams: the URL query as random sampling. Phase A runs 64-stream
// GenerateEngine cohorts over one shared logit cache; phase B draws samples
// with RandomSampler through a fresh cache.
RoundOut gen_round(const Round& r) {
  const tokenizer::BpeTokenizer& tok = *r.world.tokenizer;
  core::SimpleSearchQuery query =
      url_query(core::SearchStrategy::kRandomSampling);
  query.num_samples = kSamples;
  const Models models_a = make_models(r.world, /*logit_cache=*/true, r.traced);
  const Models models_b = make_models(r.world, /*logit_cache=*/true, r.traced);

  std::vector<StreamOutcome> streams;
  streams.reserve(kCohorts * kCohortStreams);
  std::vector<SearchResult> samples;
  RoundOut out;
  std::optional<core::CompiledQuery> compiled;
  {
    ScopedSpan workload("workload");
    {
      perfbench::begin_request();
      ScopedSpan request("query");
      compiled.emplace(compile_fresh(query, tok, r.layers));
    }
    util::Timer timer_a;
    for (std::size_t c = 0; c < kCohorts; ++c) {
      perfbench::begin_request();
      ScopedSpan request("query");
      GenerateEngine engine(*models_a.top, *compiled, query,
                            cohort_seed(r.seed, c));
      for (std::size_t s = 0; s < kCohortStreams; ++s) {
        engine.add_stream(stream_spec(s));
      }
      for (bool more = true; more;) {
        ScopedSpan tick("tick");
        more = engine.tick();
      }
      for (GenerateEngine::StreamId id = 0; id < engine.num_streams(); ++id) {
        streams.push_back({engine.state(id), engine.result(id)});
      }
      out.items += engine.stats().tokens_emitted;
      r.layers.add_generate(engine.stats());
      r.layers.streams += engine.num_streams();
    }
    out.seconds = timer_a.seconds();

    util::Timer timer_b;
    {
      perfbench::begin_request();
      ScopedSpan request("query");
      ScopedSpan sample_span("sample");
      core::RandomSampler sampler(*models_b.top, *compiled, query,
                                  mix64(r.seed ^ 0x5A3B1E));
      samples = sampler.sample_all();
      r.layers.sample_attempts += sampler.stats().sample_attempts;
      r.layers.sample_dead_ends += sampler.stats().sample_dead_ends;
    }
    out.seconds_b = timer_b.seconds();
  }
  models_a.account(r.layers);
  models_b.account(r.layers);

  Digest digest;
  for (const StreamOutcome& s : streams) {
    digest.u64(static_cast<std::uint64_t>(s.state));
    digest.maybe_result(s.result);
  }
  for (const SearchResult& s : samples) digest.result(s);
  out.digest = digest.value();
  out.items_b = samples.size();
  out.attempted = streams.size() + kSamples;
  out.failed = r.verifier.failures(out.digest, [&] {
    std::size_t failed = 0;
    for (const StreamOutcome& s : streams) {
      const bool ok =
          s.state == StreamState::kDeadEnd ||
          (s.state == StreamState::kDone && s.result &&
           std::regex_match(s.result->text, url_regex()));
      failed += ok ? 0 : 1;
    }
    for (const SearchResult& s : samples) {
      failed += std::regex_match(s.text, url_regex()) ? 0 : 1;
    }
    failed += kSamples - std::min(kSamples, samples.size());
    // A stream's output depends only on (query, seed, stream index): re-run
    // a spread of streams alone on the raw model and compare.
    for (std::size_t k = 0; k < kSoloReruns; ++k) {
      const std::size_t index = k * streams.size() / kSoloReruns;
      const std::size_t cohort = index / kCohortStreams;
      const std::size_t stream = index % kCohortStreams;
      GenerateEngine solo(*r.world.xl, *compiled, query,
                          cohort_seed(r.seed, cohort));
      solo.add_stream(stream_spec(stream));
      solo.run();
      if (solo.state(0) != streams[index].state ||
          !same_result(solo.result(0), streams[index].result)) {
        ++failed;
      }
    }
    return failed;
  });
  return out;
}

RoundOut run_round(Phase phase, const Round& r) {
  switch (phase) {
    case Phase::kEnum: return enum_round(r);
    case Phase::kCloze: return cloze_round(r);
    case Phase::kGen: return gen_round(r);
  }
  return {};
}

// Warm-up rounds are checked but not timed; plain rounds are timed;
// traced rounds feed the per-layer metrics.
enum class Kind { kWarmup, kPlain, kTraced };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kWarmup: return "warmup";
    case Kind::kPlain: return "plain";
    case Kind::kTraced: return "traced";
  }
  return "?";
}

struct Record {
  Phase phase;
  Kind kind;
  std::size_t world;
  RoundOut out;
};

// --- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Registry counters the util layer keeps process-wide; the traced rounds'
// share is the difference of two snapshots.
struct RegistryDelta {
  std::map<std::string, double> totals;

  static std::map<std::string, double> read() {
    std::map<std::string, double> values;
    const obs::Snapshot snap = obs::Registry::instance().snapshot();
    for (const char* name :
         {"pool.async_batches", "pool.async_tasks", "pool.steals",
          "sync.lock.contended", "model.cache.inflight_dedup"}) {
      auto it = snap.metrics.find(name);
      values[name] = it == snap.metrics.end()
                         ? 0.0
                         : static_cast<double>(it->second.counter);
    }
    return values;
  }
  void add(const std::map<std::string, double>& before,
           const std::map<std::string, double>& after) {
    for (const auto& [name, v] : after) totals[name] += v - before.at(name);
  }
};

std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  const Layers& layers,
                                  const RegistryDelta& registry,
                                  double overhead_pct) {
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  double call_ns = 0, calls = 0, eval_ns = 0, evals = 0;
  std::map<std::string, double> self_ns;      // by span name
  std::map<std::string, double> calls_under;  // model.call items by parent name
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    self_ns[s.name] += static_cast<double>(self[i]);
    if (std::strcmp(s.name, "model.call") == 0) {
      call_ns += dur;
      calls += static_cast<double>(s.items);
      auto parent = index_of.find(s.parent);
      if (parent != index_of.end()) {
        calls_under[spans[parent->second].name] += static_cast<double>(s.items);
      }
    } else if (std::strcmp(s.name, "model.eval") == 0) {
      eval_ns += dur;
      evals += static_cast<double>(s.items);
    }
  }

  std::vector<Metric> m;
  const double compiles = static_cast<double>(layers.fresh_compiles);
  for (const char* pass : {"parse", "thompson", "determinize", "minimize",
                           "preprocess", "token_lift", "token_masks",
                           "assemble"}) {
    auto it = layers.pass_seconds.find(pass);
    const double s = it == layers.pass_seconds.end() ? 0.0 : it->second;
    m.push_back({std::string("compile.pass.") + pass + "_ms",
                 1000.0 * ratio(s, compiles), "ms"});
  }
  m.push_back({"compile.query_ms",
               1000.0 * ratio(layers.fresh_compile_seconds, compiles), "ms"});
  m.push_back({"compile.token_states",
               ratio(static_cast<double>(layers.token_states), compiles),
               "count"});
  m.push_back({"compile_cache.hit_ratio",
               ratio(static_cast<double>(layers.artifact_hits),
                     static_cast<double>(layers.artifact_hits +
                                         layers.artifact_misses)),
               "ratio"});
  m.push_back({"compile_cache.lookup_us",
               1e6 * ratio(layers.lookup_seconds,
                           static_cast<double>(layers.lookups)),
               "us"});

  m.push_back({"model.calls", calls, "count"});
  m.push_back({"model.call_us", 1e-3 * ratio(call_ns, calls), "us"});
  m.push_back({"model.eval.count", evals, "count"});
  m.push_back({"model.eval_us", 1e-3 * ratio(eval_ns, evals), "us"});
  m.push_back({"model.cache.hit_ratio",
               ratio(static_cast<double>(layers.logit_hits),
                     static_cast<double>(layers.logit_hits +
                                         layers.logit_misses)),
               "ratio"});
  m.push_back({"model.cache.evictions",
               static_cast<double>(layers.logit_evictions), "count"});
  m.push_back({"model.cache.inflight_dedup",
               registry.totals.at("model.cache.inflight_dedup"), "count"});

  const core::SearchStats& s = layers.search;
  m.push_back({"executor.engine_ns_per_call",
               ratio(self_ns["search"], calls_under["search"]), "ns"});
  m.push_back({"executor.expansions", static_cast<double>(s.expansions),
               "count"});
  m.push_back({"executor.pump_rounds", static_cast<double>(s.pump_rounds),
               "count"});
  m.push_back({"executor.batch_occupancy_mean", s.mean_batch_occupancy(),
               "count"});
  m.push_back({"executor.speculative_waste_ratio",
               ratio(static_cast<double>(s.speculative_wasted),
                     static_cast<double>(s.expansions)),
               "ratio"});
  m.push_back({"executor.mask_words_scanned",
               static_cast<double>(s.mask_words_scanned), "count"});
  m.push_back({"executor.mask_pruned", static_cast<double>(s.mask_pruned),
               "count"});
  m.push_back({"executor.pruned_non_canonical",
               static_cast<double>(s.pruned_non_canonical), "count"});
  m.push_back({"executor.mask_memo_hit_ratio",
               ratio(static_cast<double>(s.mask_memo_hits),
                     static_cast<double>(s.mask_memo_hits + s.mask_memo_misses)),
               "ratio"});
  m.push_back({"executor.frontier_shard_steals",
               static_cast<double>(s.frontier_shard_steals), "count"});
  m.push_back({"sampler.engine_ns_per_call",
               ratio(self_ns["sample"], calls_under["sample"]), "ns"});
  m.push_back({"sampler.dead_end_ratio",
               ratio(static_cast<double>(layers.sample_dead_ends),
                     static_cast<double>(layers.sample_attempts)),
               "ratio"});

  const core::generate::GenerateStats& g = layers.gen;
  m.push_back({"generate.engine_ns_per_token",
               ratio(self_ns["tick"], static_cast<double>(g.tokens_emitted)),
               "ns"});
  m.push_back({"generate.tick_occupancy_mean", g.mean_tick_occupancy(),
               "count"});
  m.push_back({"generate.ticks", static_cast<double>(g.ticks), "count"});
  m.push_back({"generate.batch_dedup_hits",
               static_cast<double>(g.batch_dedup_hits), "count"});
  m.push_back({"generate.stream_done_ratio",
               ratio(static_cast<double>(g.streams_done),
                     static_cast<double>(layers.streams)),
               "ratio"});
  m.push_back({"generate.mask_words_scanned",
               static_cast<double>(g.mask_words_scanned), "count"});

  m.push_back({"pool.async_batches", registry.totals.at("pool.async_batches"),
               "count"});
  m.push_back({"pool.async_tasks", registry.totals.at("pool.async_tasks"),
               "count"});
  m.push_back({"pool.steals", registry.totals.at("pool.steals"), "count"});
  m.push_back({"sync.lock.contended", registry.totals.at("sync.lock.contended"),
               "count"});
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse_options(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: relm_perfbench --workload url_enum|cloze_suite|"
                 "gen_streams --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const Options& opt = *parsed;
  util::set_log_level(util::LogLevel::kWarn);
  const std::string loadavg_start = read_loadavg();
  const CpuTicks ticks_start = read_cpu_ticks();
  util::Timer wall;
  util::ThreadPool::set_shared_threads(kPoolThreads);

  // Set-up: kWorlds scale-1.0 worlds whose corpora are drawn from the
  // workload seed. setup_s is the median build time.
  std::vector<experiments::World> worlds;
  std::vector<std::uint64_t> world_seeds;
  std::vector<double> setup_seconds;
  for (std::size_t i = 0; i < kWorlds; ++i) {
    experiments::WorldConfig config = experiments::WorldConfig::scaled(1.0);
    config.corpus.seed = mix64(opt.seed * kWorlds + i);
    util::Timer timer;
    worlds.push_back(experiments::build_world(config));
    setup_seconds.push_back(timer.seconds());
    world_seeds.push_back(config.corpus.seed);
    // Keep only what the phases read, so sixteen worlds stay small.
    experiments::World& w = worlds.back();
    w.small.reset();
    w.corpus.documents = {};
    w.corpus.pile_only_documents = {};
    w.corpus.art_overlap_documents = {};
  }

  Layers layers;    // traced rounds only
  Layers untraced;  // discarded
  Verifier verifier;
  RegistryDelta registry;

  std::vector<Record> records;
  auto round = [&](Phase phase, Kind kind, std::size_t w) {
    const bool trace = kind == Kind::kTraced;
    const Round r{worlds[w], world_seeds[w], trace, trace ? layers : untraced,
                  verifier};
    const auto before = RegistryDelta::read();
    perfbench::set_tracing(trace);
    records.push_back({phase, kind, w, run_round(phase, r)});
    perfbench::set_tracing(false);
    if (trace) registry.add(before, RegistryDelta::read());
  };
  // A pass runs, world after world, one round of `first` and then one of
  // `second`, so the two phases sample the same stretch of time.
  auto pass = [&](Phase first, Kind first_kind, Phase second,
                  Kind second_kind) {
    util::Timer timer;
    for (std::size_t w = 0; w < kWorlds; ++w) {
      round(first, first_kind, w);
      round(second, second_kind, w);
    }
    std::fprintf(stderr, "perfbench: pass %s/%s + %s/%s over %zu worlds: %.3fs\n",
                 phase_name(first), kind_name(first_kind), phase_name(second),
                 kind_name(second_kind), kWorlds, timer.seconds());
  };

  // Schedule. A warm-up round of every phase pays heap growth and lazy
  // initialisation before anything is timed. Untraced runs then repeat
  // passes that pair the named phase with each other phase in turn until
  // --seconds have passed: the named phase gets half of the rounds, and
  // every phase samples the whole measuring time, so host drift hits all
  // metrics alike. Traced runs pair untraced with traced rounds of the named
  // phase (their ratio is the tracing overhead), then trace one round of
  // each other phase per world.
  const Phase own = opt.workload;
  std::vector<Phase> others;
  for (Phase p : kPhases) {
    if (p != own) others.push_back(p);
  }
  for (Phase p : kPhases) round(p, Kind::kWarmup, 0);
  util::Timer budget;
  if (!opt.trace) {
    std::size_t n = 0;
    do {
      pass(own, Kind::kPlain, others[n++ % others.size()], Kind::kPlain);
    } while (n < others.size() || budget.seconds() < opt.seconds);
  } else {
    do {
      pass(own, Kind::kPlain, own, Kind::kTraced);
    } while (budget.seconds() < opt.seconds);
    pass(others[0], Kind::kTraced, others[1], Kind::kTraced);
  }

  // Every round of one phase on one world, traced or not, must produce the
  // same output.
  std::size_t attempted = 0, failed = 0;
  bool consistent = true;
  std::map<std::pair<Phase, std::size_t>, std::uint64_t> first_digest;
  for (const Record& rec : records) {
    const RoundOut& out = rec.out;
    const auto first =
        first_digest.emplace(std::pair(rec.phase, rec.world), out.digest).first;
    attempted += out.attempted;
    if (first->second != out.digest) {
      consistent = false;
      failed += out.attempted;
    } else {
      failed += out.failed;
    }
  }
  std::string digests;
  for (Phase p : kPhases) {
    Digest d;
    for (std::size_t w = 0; w < kWorlds; ++w) {
      auto it = first_digest.find(std::pair(p, w));
      if (it != first_digest.end()) d.u64(it->second);
    }
    digests += std::string(digests.empty() ? "" : ",") + "\"" +
               phase_name(p) + "\":\"" + hex64(d.value()) + "\"";
  }

  // Rates are totals over the measured rounds, so every world weighs in by
  // the time its work took; latencies pool every measured query.
  auto totals = [&](Phase phase, Kind kind) {
    RoundOut sum;
    for (const Record& rec : records) {
      if (rec.phase != phase || rec.kind != kind) continue;
      const RoundOut& out = rec.out;
      sum.seconds += out.seconds;
      sum.items += out.items;
      sum.seconds_b += out.seconds_b;
      sum.items_b += out.items_b;
      sum.cold_ms.insert(sum.cold_ms.end(), out.cold_ms.begin(),
                         out.cold_ms.end());
      sum.warm_ms.insert(sum.warm_ms.end(), out.warm_ms.begin(),
                         out.warm_ms.end());
    }
    return sum;
  };

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const RoundOut url = totals(Phase::kEnum, Kind::kPlain);
    const RoundOut cloze = totals(Phase::kCloze, Kind::kPlain);
    const RoundOut gen = totals(Phase::kGen, Kind::kPlain);
    metrics = {
        {"setup_s", median(setup_seconds), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"url_matches_per_s", ratio(url.items, url.seconds), "1/s"},
        {"cloze_cold_p50_ms", percentile(cloze.cold_ms, 0.50), "ms"},
        {"cloze_cold_p97_ms", percentile(cloze.cold_ms, 0.97), "ms"},
        {"cloze_warm_p50_ms", percentile(cloze.warm_ms, 0.50), "ms"},
        {"gen_tokens_per_s", ratio(gen.items, gen.seconds), "1/s"},
        {"sampler_samples_per_s", ratio(gen.items_b, gen.seconds_b), "1/s"},
    };
  } else {
    const RoundOut plain = totals(own, Kind::kPlain);
    const RoundOut traced = totals(own, Kind::kTraced);
    const double overhead_pct =
        100.0 * (ratio(traced.seconds + traced.seconds_b,
                       plain.seconds + plain.seconds_b) -
                 1.0);
    const std::vector<Span> spans = perfbench::drain_spans();
    metrics = layer_metrics(spans, layers, registry, overhead_pct);
    if (!opt.trace_out.empty() && !perfbench::write_spans(spans, opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   opt.trace_out.c_str());
    }
  }

  const CpuTicks ticks_end = read_cpu_ticks();
  const unsigned long long cpu_delta = ticks_end.total - ticks_start.total;
  const unsigned long long steal_delta = ticks_end.steal - ticks_start.steal;
  std::map<std::string, std::size_t> round_counts;
  for (const Record& rec : records) {
    ++round_counts[std::string(phase_name(rec.phase)) + "." +
                   kind_name(rec.kind)];
  }
  std::string rounds;
  for (const auto& [name, count] : round_counts) {
    rounds += std::string(rounds.empty() ? "" : ",") + "\"" + name +
              "\":" + std::to_string(count);
  }
  std::printf(
      "perfbench-context {\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"seconds\":%s,\"trace\":%d,\"nproc\":%u,\"pool_threads\":%zu,"
      "\"build_type\":\"%s\",\"loadavg_start\":%s,\"loadavg_end\":%s,"
      "\"cpu_ticks\":%llu,\"steal_ticks\":%llu,\"steal_share\":%s,"
      "\"worlds\":%zu,\"rounds\":{%s},\"digests\":{%s},\"wall_s\":%s}\n",
      phase_name(own), opt.seed, json_number(opt.seconds).c_str(),
      opt.trace ? 1 : 0, std::thread::hardware_concurrency(), kPoolThreads,
      RELM_PERFBENCH_BUILD_TYPE, loadavg_start.c_str(), read_loadavg().c_str(),
      cpu_delta, steal_delta,
      json_number(ratio(static_cast<double>(steal_delta),
                        static_cast<double>(cpu_delta)))
          .c_str(),
      kWorlds, rounds.c_str(), digests.c_str(),
      json_number(wall.seconds()).c_str());

  std::string json = "{\"correct\": ";
  json += consistent && failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
