// Tests for the precomputed per-state token bitmask fast path: the
// util::TokenBitset currency, the token_masks compile pass and its
// TokenMaskTable, the expand_masked executor primitive (vs the per-edge
// reference path), the v2 artifact container with its v1 back-compat, the
// decoding-rule membership test, and the `relm verify` mask invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "core/compiled_query.hpp"
#include "core/executor.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/pipeline/cache.hpp"
#include "core/pipeline/pipeline.hpp"
#include "core/token_masks.hpp"
#include "model/decoding.hpp"
#include "model/ngram_model.hpp"
#include "testing/fuzz_targets.hpp"
#include "tokenizer/bpe.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/token_bitset.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: replaces the global allocator for this binary so
// TokenAllowed.NoAllocation can pin the "no allocation" contract, not just
// eyeball it. Counting is the only side effect.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}

// GCC inlines these and then flags free() against the malloc inside the
// replaced new as a mismatched pair; the pair is internally consistent.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace relm {
namespace {

using core::CompiledQuery;
using core::SimpleSearchQuery;
using core::TokenizationStrategy;
using core::TokenMaskTable;
using model::DecodingRules;
using tokenizer::BpeTokenizer;
using tokenizer::TokenId;
using util::TokenBitset;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

const BpeTokenizer& fixture_tokenizer() {
  static const BpeTokenizer tok = [] {
    std::string text;
    for (int i = 0; i < 60; ++i) {
      text += "The cat sat on the mat. The dog ran far. ";
      text += "abe acde abbbe fine dine. ";
    }
    BpeTokenizer::TrainConfig config;
    config.vocab_size = 400;
    return BpeTokenizer::train(text, config);
  }();
  return tok;
}

std::shared_ptr<model::NgramModel> fixture_model() {
  static const std::shared_ptr<model::NgramModel> model = [] {
    model::NgramModel::Config config;
    config.order = 4;
    config.alpha = 0.3;
    config.max_sequence_length = 48;
    std::vector<std::string> docs;
    for (int i = 0; i < 30; ++i) {
      docs.push_back("The cat sat on the mat.");
      docs.push_back("The dog ran far.");
      docs.push_back("abe acde abbbe.");
    }
    return model::NgramModel::train(fixture_tokenizer(), docs, config);
  }();
  return model;
}

// The stable tiny vocabulary the checked-in v1 fixture artifact was compiled
// against (see tests/fuzz_corpus/README-like comment in the fixture
// generator test below). from_vocab is exact — no training randomness — so
// the vocab fingerprint is reproducible forever.
BpeTokenizer tiny_tokenizer() {
  return BpeTokenizer::from_vocab({"", "a", "b", "c", "ab", "bc", "abc"});
}

SimpleSearchQuery make_query(const std::string& pattern,
                             TokenizationStrategy strategy,
                             const std::string& prefix = "") {
  SimpleSearchQuery query;
  query.query_string.query_str = pattern;
  query.query_string.prefix_str = prefix;
  query.tokenization_strategy = strategy;
  query.max_results = 20;
  return query;
}

SimpleSearchQuery tiny_fixture_query() {
  SimpleSearchQuery query = make_query("(ab|c)(a|bc)",
                                       TokenizationStrategy::kCanonicalTokens);
  return query;
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("relm_token_masks_test_" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// TokenBitset
// ---------------------------------------------------------------------------

TEST(TokenBitset, SetTestResetAcrossWordBoundaries) {
  TokenBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.num_words(), 3u);
  EXPECT_TRUE(bits.none());
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits[0] && bits[63] && bits[64] && bits[129]);
  EXPECT_FALSE(bits[1] || bits[65] || bits[128]);
  EXPECT_EQ(bits.count(), 4u);
  bits.reset(64);
  EXPECT_FALSE(bits[64]);
  EXPECT_EQ(bits.count(), 3u);
}

TEST(TokenBitset, TrailingBitsStayZero) {
  TokenBitset bits(70, true);
  EXPECT_EQ(bits.count(), 70u);  // not 128: bits past size() must be clear
  bits.set_all();
  EXPECT_EQ(bits.count(), 70u);
  EXPECT_EQ(bits.word(1) >> 6, 0ull);  // only the low 6 bits of word 1 used
}

TEST(TokenBitset, ForEachSetAscending) {
  TokenBitset bits(200);
  std::vector<std::size_t> want{0, 5, 63, 64, 127, 128, 199};
  for (std::size_t i : want) bits.set(i);
  std::vector<std::size_t> got;
  bits.for_each_set([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(TokenBitset, DefaultConstructedIsEmpty) {
  TokenBitset bits;
  EXPECT_TRUE(bits.empty());
  EXPECT_EQ(bits.num_words(), 0u);
}

// ---------------------------------------------------------------------------
// TokenMaskTable: build + mismatch detection
// ---------------------------------------------------------------------------

automata::Dfa tiny_dfa() {
  // 3 states over a 70-symbol alphabet (so masks straddle a word boundary).
  automata::Dfa dfa(70);
  automata::StateId s0 = dfa.add_state(false);
  automata::StateId s1 = dfa.add_state(false);
  automata::StateId s2 = dfa.add_state(true);
  dfa.set_start(s0);
  dfa.add_edge(s0, 2, s1);
  dfa.add_edge(s0, 65, s2);
  dfa.add_edge(s1, 0, s2);
  dfa.add_edge(s1, 69, s1);
  return dfa;
}

TEST(TokenMasks, BuildMatchesEdges) {
  automata::Dfa dfa = tiny_dfa();
  TokenMaskTable table = core::build_token_masks(dfa);
  EXPECT_EQ(table.num_states, 3u);
  EXPECT_EQ(table.words_per_state, 2u);
  EXPECT_EQ(table.num_edges(), 4u);
  EXPECT_EQ(table.memory_bytes(), core::token_mask_table_bytes(dfa));
  // State 0: tokens 2 and 65.
  EXPECT_EQ(table.state_words(0)[0], 1ull << 2);
  EXPECT_EQ(table.state_words(0)[1], 1ull << 1);
  // State 1: tokens 0 and 69.
  EXPECT_EQ(table.state_words(1)[0], 1ull << 0);
  EXPECT_EQ(table.state_words(1)[1], 1ull << 5);
  // State 2: nothing.
  EXPECT_EQ(table.state_words(2)[0], 0ull);
  EXPECT_EQ(table.state_words(2)[1], 0ull);
  // CSR slices in token order.
  EXPECT_EQ(table.edge_offsets, (std::vector<std::uint32_t>{0, 2, 4, 4}));
  EXPECT_EQ(table.edge_tokens, (std::vector<std::uint32_t>{2, 65, 0, 69}));
  EXPECT_EQ(table.edge_targets, (std::vector<std::uint32_t>{1, 2, 2, 1}));
  EXPECT_EQ(core::masks_mismatch(dfa, table), std::nullopt);
}

TEST(TokenMasks, MismatchDetectsEveryCorruption) {
  automata::Dfa dfa = tiny_dfa();
  const TokenMaskTable good = core::build_token_masks(dfa);

  TokenMaskTable bad = good;
  bad.words[0] |= 1ull << 10;  // phantom token bit
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.words[0] &= ~(1ull << 2);  // dropped token bit
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.edge_targets[1] = 0;  // edge rerouted
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.edge_tokens[2] = 7;  // wrong token label
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.edge_offsets[1] = 1;  // broken CSR slicing
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());

  bad = good;
  bad.num_states = 2;  // wrong dimensions
  ASSERT_TRUE(core::masks_mismatch(dfa, bad).has_value());
}

TEST(TokenMasks, PipelineBuildsMasksForBothAutomata) {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))",
                                       TokenizationStrategy::kCanonicalTokens,
                                       "The ");
  auto artifact =
      core::pipeline::Pipeline::standard().run(query, fixture_tokenizer())
          .artifact;
  ASSERT_FALSE(artifact.prefix.masks.empty());
  ASSERT_FALSE(artifact.body.masks.empty());
  EXPECT_EQ(core::masks_mismatch(artifact.prefix.dfa, artifact.prefix.masks),
            std::nullopt);
  EXPECT_EQ(core::masks_mismatch(artifact.body.dfa, artifact.body.masks),
            std::nullopt);
}

// ---------------------------------------------------------------------------
// expand_masked == expand + rule filter, on every reachable state set
// ---------------------------------------------------------------------------

std::vector<CompiledQuery::Step> reference_expand(const CompiledQuery& cq,
                                                  const CompiledQuery::StateSet& set,
                                                  const TokenBitset* rule_mask) {
  std::vector<CompiledQuery::Step> out;
  for (const CompiledQuery::Step& step : cq.expand(set)) {
    if (!step.prefix_only && rule_mask && !(*rule_mask)[step.token]) continue;
    out.push_back(step);
  }
  return out;
}

void expect_steps_equal(const std::vector<CompiledQuery::Step>& got,
                        const std::vector<CompiledQuery::Step>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].token, want[i].token) << i;
    EXPECT_EQ(got[i].next, want[i].next) << i;
    EXPECT_EQ(got[i].prefix_only, want[i].prefix_only) << i;
    EXPECT_EQ(got[i].body_advanced, want[i].body_advanced) << i;
  }
}

void check_expand_equivalence(const SimpleSearchQuery& query) {
  CompiledQuery cq = CompiledQuery::compile(query, fixture_tokenizer());
  ASSERT_TRUE(cq.has_masks());
  const std::size_t vocab = fixture_tokenizer().vocab_size();
  util::Pcg32 rng(99);

  // BFS the reachable state sets (unmasked) and test each against the
  // reference on several rule masks plus the unrestricted case.
  std::vector<CompiledQuery::StateSet> frontier{cq.initial()};
  std::vector<CompiledQuery::StateSet> seen{cq.initial()};
  std::size_t tested = 0;
  std::vector<CompiledQuery::Step> fast;
  while (!frontier.empty() && tested < 200) {
    CompiledQuery::StateSet set = frontier.back();
    frontier.pop_back();
    ++tested;

    for (int variant = 0; variant < 4; ++variant) {
      TokenBitset mask(vocab);
      const TokenBitset* rule = nullptr;
      if (variant > 0) {
        // Densities 1/2, 1/8, and ~0 cover merge, heavy-prune, and
        // everything-pruned behavior.
        const std::uint32_t keep = variant == 1 ? 2 : variant == 2 ? 8 : 997;
        for (std::size_t t = 0; t < vocab; ++t) {
          if (rng.bounded(keep) == 0) mask.set(t);
        }
        rule = &mask;
      }
      CompiledQuery::MaskExpandStats stats;
      cq.expand_masked(set, rule, fast, stats);
      expect_steps_equal(fast, reference_expand(cq, set, rule));
      EXPECT_GT(stats.words_scanned, 0u);

      // mask_pruned must equal the rule-filtered non-prefix-only step count.
      std::size_t want_pruned = 0;
      for (const CompiledQuery::Step& step : cq.expand(set)) {
        if (!step.prefix_only && rule && !(*rule)[step.token]) ++want_pruned;
      }
      EXPECT_EQ(stats.pruned, want_pruned);
    }

    for (const CompiledQuery::Step& step : cq.expand(set)) {
      if (std::find(seen.begin(), seen.end(), step.next) == seen.end()) {
        seen.push_back(step.next);
        frontier.push_back(step.next);
      }
    }
  }
  EXPECT_GT(tested, 1u);
}

TEST(ExpandMasked, MatchesReferenceCanonical) {
  check_expand_equivalence(make_query("The ((cat)|(dog))",
                                      TokenizationStrategy::kCanonicalTokens,
                                      "The "));
}

TEST(ExpandMasked, MatchesReferenceAllTokens) {
  check_expand_equivalence(
      make_query("The ((cat)|(dog))", TokenizationStrategy::kAllTokens, "The "));
}

TEST(ExpandMasked, MatchesReferenceDynamicCanonical) {
  SimpleSearchQuery query =
      make_query("ab+e", TokenizationStrategy::kCanonicalTokens);
  query.canonical_enumeration_budget = 1;  // force dynamic canonicality
  check_expand_equivalence(query);
}

TEST(ExpandMasked, MatchesReferenceNoPrefix) {
  check_expand_equivalence(
      make_query("(cat)|(dog)", TokenizationStrategy::kCanonicalTokens));
}

// ---------------------------------------------------------------------------
// Executors: masks on vs off must be byte-identical; counters move
// ---------------------------------------------------------------------------

TEST(Executors, MaskFastPathIsByteIdenticalAndCounted) {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))",
                                       TokenizationStrategy::kCanonicalTokens,
                                       "The ");
  query.decoding.top_k = 200;  // prunes plenty of the 400-token vocab while
                               // leaving the query's language reachable
  CompiledQuery cq = CompiledQuery::compile(query, fixture_tokenizer());
  ASSERT_TRUE(cq.has_masks());

  SimpleSearchQuery off = query;
  off.use_token_masks = false;

  core::ShortestPathSearch on_search(*fixture_model(), cq, query);
  core::ShortestPathSearch off_search(*fixture_model(), cq, off);
  auto on_results = on_search.all();
  auto off_results = off_search.all();
  ASSERT_EQ(on_results.size(), off_results.size());
  ASSERT_FALSE(on_results.empty());
  for (std::size_t i = 0; i < on_results.size(); ++i) {
    EXPECT_EQ(on_results[i].tokens, off_results[i].tokens);
    EXPECT_EQ(on_results[i].text, off_results[i].text);
    EXPECT_EQ(on_results[i].log_prob, off_results[i].log_prob);  // exact
  }

  // The probe path's per-edge rule prunes move wholesale to mask_pruned;
  // EOS-closure prunes (if any) are the only pruned_by_rules left.
  const core::SearchStats& on_stats = on_search.stats();
  const core::SearchStats& off_stats = off_search.stats();
  EXPECT_GT(on_stats.mask_words_scanned, 0u);
  EXPECT_EQ(off_stats.mask_words_scanned, 0u);
  EXPECT_EQ(on_stats.mask_pruned + on_stats.pruned_by_rules,
            off_stats.pruned_by_rules);

  // Beam: same comparison.
  core::BeamSearch on_beam(*fixture_model(), cq, query);
  core::BeamSearch off_beam(*fixture_model(), cq, off);
  auto beam_on = on_beam.run();
  auto beam_off = off_beam.run();
  ASSERT_EQ(beam_on.size(), beam_off.size());
  for (std::size_t i = 0; i < beam_on.size(); ++i) {
    EXPECT_EQ(beam_on[i].tokens, beam_off[i].tokens);
    EXPECT_EQ(beam_on[i].log_prob, beam_off[i].log_prob);
  }
  EXPECT_GT(on_beam.stats().mask_words_scanned, 0u);

  // Sampler: identical draws from identical seeds.
  core::RandomSampler on_sampler(*fixture_model(), cq, query, 42);
  core::RandomSampler off_sampler(*fixture_model(), cq, off, 42);
  auto samples_on = on_sampler.sample_all();
  auto samples_off = off_sampler.sample_all();
  ASSERT_EQ(samples_on.size(), samples_off.size());
  for (std::size_t i = 0; i < samples_on.size(); ++i) {
    EXPECT_EQ(samples_on[i].tokens, samples_off[i].tokens);
    EXPECT_EQ(samples_on[i].log_prob, samples_off[i].log_prob);
  }
  EXPECT_GT(on_sampler.stats().mask_words_scanned, 0u);
}

// ---------------------------------------------------------------------------
// The allowed_tokens kernel against the independent token_allowed
// ---------------------------------------------------------------------------

enum class Shape { kUniform, kFlat, kPeaked };

// kUniform ties every token (the worst case for rank-order agreement), kFlat
// spreads the mass so the nucleus is most of the vocabulary, kPeaked puts it
// on a few tokens so the nucleus closes early.
std::vector<double> random_log_probs(util::Pcg32& rng, std::size_t vocab,
                                     Shape shape) {
  std::vector<double> p(vocab);
  double total = 0.0;
  for (double& v : p) {
    v = shape == Shape::kUniform ? 1.0
        : shape == Shape::kFlat  ? 0.05 + rng.uniform()
                                 : std::exp(12.0 * rng.uniform());
    total += v;
  }
  std::vector<double> lp(vocab);
  for (std::size_t i = 0; i < vocab; ++i) lp[i] = std::log(p[i] / total);
  return lp;
}

// Rule sets reaching every branch of the kernel at vocabulary `vocab`.
std::vector<DecodingRules> kernel_rule_sets(std::size_t vocab) {
  std::vector<DecodingRules> sets;
  auto add = [&](std::optional<int> k, std::optional<double> p, double t) {
    DecodingRules rules;
    rules.top_k = k;
    rules.top_p = p;
    rules.temperature = t;
    sets.push_back(rules);
  };
  const int v = static_cast<int>(vocab);
  add(std::nullopt, std::nullopt, 1.0);  // unrestricted
  add(1, std::nullopt, 1.0);             // k = 1
  add(40, std::nullopt, 1.3);            // top-k alone, T != 1
  add(v, std::nullopt, 1.0);             // k >= V: admits all
  add(std::nullopt, 0.7, 1.0);           // top-p alone: growing heads
  add(std::nullopt, 1.0, 1.0);           // p = 1
  add(40, 0.9, 1.0);                     // the combined rule of generation
  add(100, 0.95, 1.0);                   // k beyond the first head
  add(9, 0.85, 0.6);                     // combined, T != 1
  add(std::nullopt, 0.5, 1.7);           // top-p alone, T != 1
  add(v + 5, 0.9, 1.3);                  // k >= V with top-p
  return sets;
}

// Every token's kernel verdict equals token_allowed's; an empty mask admits
// every token, and only rules that admit all may leave it empty.
void expect_kernel_matches(const std::vector<double>& lp,
                           const DecodingRules& rules, TokenBitset& mask,
                           model::RuleMaskScratch& scratch,
                           const std::string& where) {
  model::allowed_tokens(lp, rules, mask, scratch);
  EXPECT_EQ(mask.empty(), rules.admits_all(lp.size())) << where;
  if (!mask.empty()) {
    ASSERT_EQ(mask.size(), lp.size()) << where;
  }
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < lp.size(); ++t) {
    const bool kernel = mask.empty() || mask[t];
    if (kernel != model::token_allowed(lp, rules, static_cast<TokenId>(t))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << where;
}

std::string describe(std::size_t vocab, Shape shape, const DecodingRules& r) {
  std::ostringstream os;
  os << "V=" << vocab << " shape=" << static_cast<int>(shape)
     << " k=" << (r.top_k ? *r.top_k : 0) << " p=" << r.top_p.value_or(0.0)
     << " T=" << r.temperature;
  return os.str();
}

TEST(TokenAllowed, AgreesWithAllowedTokensIncludingTies) {
  util::Pcg32 rng(7);
  TokenBitset mask;
  model::RuleMaskScratch scratch;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t vocab = 50 + static_cast<std::size_t>(trial) * 13;
    const Shape shape = static_cast<Shape>(trial % 3);
    std::vector<double> lp = random_log_probs(rng, vocab, shape);
    for (const DecodingRules& rules : kernel_rule_sets(vocab)) {
      expect_kernel_matches(lp, rules, mask, scratch,
                            describe(vocab, shape, rules));
    }
  }
}

TEST(RuleMaskKernel, MatchesTokenAllowedAtBenchmarkVocabulary) {
  util::Pcg32 rng(31);
  TokenBitset mask;
  model::RuleMaskScratch scratch;
  for (Shape shape : {Shape::kUniform, Shape::kFlat, Shape::kPeaked}) {
    std::vector<double> lp = random_log_probs(rng, 774, shape);
    for (const DecodingRules& rules : kernel_rule_sets(774)) {
      expect_kernel_matches(lp, rules, mask, scratch,
                            describe(774, shape, rules));
    }
  }
}

// token_allowed costs O(V) per token, so at V = 8192 the check keeps to
// k = 1, k >= V, p = 1, the combined rule and a combined rule at T != 1.
TEST(RuleMaskKernel, MatchesTokenAllowedAtLargeVocabulary) {
  const std::size_t vocab = 8192;
  util::Pcg32 rng(37);
  TokenBitset mask;
  model::RuleMaskScratch scratch;
  const std::vector<DecodingRules> all = kernel_rule_sets(vocab);
  const std::vector<DecodingRules> rule_sets{all[1], all[3], all[5], all[6],
                                             all[8]};
  for (Shape shape : {Shape::kUniform, Shape::kFlat}) {
    std::vector<double> lp = random_log_probs(rng, vocab, shape);
    for (const DecodingRules& rules : rule_sets) {
      expect_kernel_matches(lp, rules, mask, scratch,
                            describe(vocab, shape, rules));
    }
  }
}

// Dividing by T can round two distinct log-probs to one value. Ranking on
// the adjusted values then broke the tie by token id and admitted token 0;
// the raw values rank token 1 first, as token_allowed always did.
TEST(RuleMaskKernel, RanksOnRawLogProbsUnderTemperature) {
  const std::vector<double> lp{-1.0, std::nextafter(-1.0, 0.0)};
  TokenBitset mask;
  model::RuleMaskScratch scratch;
  for (double temperature : {1.3, 1.5, 3.0}) {
    DecodingRules rules;
    rules.top_k = 1;
    rules.temperature = temperature;
    model::allowed_tokens(lp, rules, mask, scratch);
    ASSERT_EQ(mask.size(), 2u);
    EXPECT_FALSE(mask[0]) << "T=" << temperature;
    EXPECT_TRUE(mask[1]) << "T=" << temperature;
    EXPECT_FALSE(model::token_allowed(lp, rules, 0));
    EXPECT_TRUE(model::token_allowed(lp, rules, 1));
  }
}

TEST(RuleMaskKernel, NoAllocationOnceWarm) {
  util::Pcg32 rng(17);
  std::vector<std::vector<double>> dists;
  for (Shape shape : {Shape::kUniform, Shape::kFlat, Shape::kPeaked}) {
    dists.push_back(random_log_probs(rng, 774, shape));
  }
  const std::vector<DecodingRules> rule_sets = kernel_rule_sets(774);
  TokenBitset mask;
  model::RuleMaskScratch scratch;
  auto run_all = [&] {
    std::size_t admitted = 0;
    for (const std::vector<double>& lp : dists) {
      for (const DecodingRules& rules : rule_sets) {
        model::allowed_tokens(lp, rules, mask, scratch);
        admitted += mask.count();
      }
    }
    return admitted;
  };
  const std::size_t warm = run_all();  // grows the scratch to its peak

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const std::size_t again = run_all();
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "allowed_tokens allocated with warm scratch";
  EXPECT_EQ(again, warm);
}

TEST(TokenAllowed, NoAllocation) {
  util::Pcg32 rng(13);
  std::vector<double> lp = random_log_probs(rng, 512, Shape::kFlat);
  DecodingRules rules;
  rules.top_k = 7;
  rules.top_p = 0.9;
  rules.temperature = 0.7;
  (void)model::token_allowed(lp, rules, 3);  // warm-up (lazy runtime state)

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  bool any = false;
  for (std::size_t t = 0; t < lp.size(); ++t) {
    any |= model::token_allowed(lp, rules, static_cast<TokenId>(t));
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "token_allowed allocated on a membership test";
  EXPECT_TRUE(any);
}

// ---------------------------------------------------------------------------
// Artifact container: v2 round-trip, corruption rejection, v1 back-compat
// ---------------------------------------------------------------------------

TEST(ArtifactV2, RoundTripPreservesMasks) {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))",
                                       TokenizationStrategy::kCanonicalTokens,
                                       "The ");
  auto artifact =
      core::pipeline::Pipeline::standard().run(query, fixture_tokenizer())
          .artifact;
  std::ostringstream sink;
  core::pipeline::save_artifact(artifact, sink);
  EXPECT_NE(sink.str().find("RELM_ARTIFACT v2"), std::string::npos);
  EXPECT_NE(sink.str().find("RELM_MASKS v1"), std::string::npos);

  std::istringstream source(sink.str());
  core::pipeline::QueryArtifact reloaded = core::pipeline::load_artifact(source);
  EXPECT_EQ(reloaded.prefix.masks, artifact.prefix.masks);
  EXPECT_EQ(reloaded.body.masks, artifact.body.masks);
  EXPECT_EQ(core::pipeline::artifact_checksum(reloaded),
            core::pipeline::artifact_checksum(artifact));
}

std::string v2_container_text() {
  SimpleSearchQuery query = make_query("The ((cat)|(dog))",
                                       TokenizationStrategy::kCanonicalTokens,
                                       "The ");
  auto artifact =
      core::pipeline::Pipeline::standard().run(query, fixture_tokenizer())
          .artifact;
  std::ostringstream sink;
  core::pipeline::save_artifact(artifact, sink);
  return sink.str();
}

void expect_load_fails_with(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  try {
    (void)core::pipeline::load_artifact(in);
    FAIL() << "corrupt container loaded cleanly (wanted \"" << needle << "\")";
  } catch (const relm::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(ArtifactV2, BitFlippedMaskWordRejected) {
  std::string text = v2_container_text();
  // Flip one hex digit inside the first "bits" payload line.
  std::size_t bits_pos = text.find("\nbits ");
  ASSERT_NE(bits_pos, std::string::npos);
  std::size_t digit = bits_pos + 6;
  text[digit] = text[digit] == '0' ? '1' : '0';
  expect_load_fails_with(text, "masks_checksum mismatch");
}

TEST(ArtifactV2, TruncatedMaskSectionRejectedWithLocation) {
  std::string text = v2_container_text();
  std::size_t bits_pos = text.find("\nbits ");
  ASSERT_NE(bits_pos, std::string::npos);
  expect_load_fails_with(text.substr(0, bits_pos + 8), "masks");
}

TEST(ArtifactV2, MaskDimensionForgeryRejectedBeforeAllocation) {
  std::string text = v2_container_text();
  // Forge an absurd state count in the first RELM_MASKS header (the DFA
  // section's own dimensions line carries no field labels, so anchor on the
  // masks section). The loader must refuse by comparing against the
  // already-loaded DFA instead of allocating what the header claims.
  std::size_t masks_pos = text.find("RELM_MASKS");
  ASSERT_NE(masks_pos, std::string::npos);
  std::size_t pos = text.find("states ", masks_pos);
  ASSERT_NE(pos, std::string::npos);
  std::size_t digits = pos + 7;
  std::size_t digits_end = text.find(' ', digits);
  ASSERT_NE(digits_end, std::string::npos);
  text.replace(digits, digits_end - digits, "99999999");
  expect_load_fails_with(text, "states");
}

TEST(ArtifactV2, UnsupportedVersionNamesReadableRange) {
  expect_load_fails_with("RELM_ARTIFACT v3\nkey junk\n", "v1-v2");
}

TEST(ArtifactV1, LegacyWriterOutputReloadsWithRecomputedMasks) {
  for (auto strategy : {TokenizationStrategy::kCanonicalTokens,
                        TokenizationStrategy::kAllTokens}) {
    SimpleSearchQuery query =
        make_query("The ((cat)|(dog))", strategy, "The ");
    auto artifact =
        core::pipeline::Pipeline::standard().run(query, fixture_tokenizer())
            .artifact;
    std::ostringstream sink;
    core::pipeline::save_artifact_v1(artifact, sink);
    EXPECT_NE(sink.str().find("RELM_ARTIFACT v1"), std::string::npos);
    EXPECT_EQ(sink.str().find("RELM_MASKS"), std::string::npos);

    std::istringstream source(sink.str());
    core::pipeline::QueryArtifact reloaded =
        core::pipeline::load_artifact(source);
    // Masks were not in the file; the loader recomputes them, bit-identical
    // to the fresh compile's token_masks pass.
    EXPECT_EQ(reloaded.prefix.masks, artifact.prefix.masks);
    EXPECT_EQ(reloaded.body.masks, artifact.body.masks);
  }
}

TEST(ArtifactV1, DynamicCanonicalReloadDrivesExecutorsIdentically) {
  SimpleSearchQuery query =
      make_query("ab+e", TokenizationStrategy::kCanonicalTokens);
  query.canonical_enumeration_budget = 1;  // force dynamic canonicality
  query.require_eos = false;
  auto fresh =
      core::pipeline::Pipeline::standard().run(query, fixture_tokenizer())
          .artifact;
  ASSERT_TRUE(fresh.body.dynamic_canonical);

  std::ostringstream sink;
  core::pipeline::save_artifact_v1(fresh, sink);
  std::istringstream source(sink.str());
  auto reloaded = std::make_shared<core::pipeline::QueryArtifact>(
      core::pipeline::load_artifact(source));

  CompiledQuery from_fresh = CompiledQuery::from_artifact(
      std::make_shared<core::pipeline::QueryArtifact>(fresh),
      fixture_tokenizer());
  CompiledQuery from_v1 =
      CompiledQuery::from_artifact(reloaded, fixture_tokenizer());

  core::ShortestPathSearch fresh_search(*fixture_model(), from_fresh, query);
  core::ShortestPathSearch v1_search(*fixture_model(), from_v1, query);
  auto fresh_results = fresh_search.all();
  auto v1_results = v1_search.all();
  ASSERT_FALSE(fresh_results.empty());
  ASSERT_EQ(fresh_results.size(), v1_results.size());
  for (std::size_t i = 0; i < fresh_results.size(); ++i) {
    EXPECT_EQ(fresh_results[i].tokens, v1_results[i].tokens);
    EXPECT_EQ(fresh_results[i].log_prob, v1_results[i].log_prob);  // bitwise
  }
}

// The checked-in fixture: a v1 container written by the legacy writer against
// the stable tiny_tokenizer() vocabulary. It must keep loading forever, and
// drive the executors exactly like a fresh v2 compile of the same query.
TEST(ArtifactV1, CheckedInFixtureMatchesFreshCompile) {
  const std::string path =
      std::string(RELM_FUZZ_CORPUS_DIR) + "/artifact-v1-tiny.relmq";
  BpeTokenizer tok = tiny_tokenizer();
  std::string text = slurp(path);
  ASSERT_NE(text.find("RELM_ARTIFACT v1"), std::string::npos);

  std::istringstream in(text);
  auto reloaded = std::make_shared<core::pipeline::QueryArtifact>(
      core::pipeline::load_artifact(in));
  ASSERT_FALSE(reloaded->prefix.masks.empty());
  ASSERT_FALSE(reloaded->body.masks.empty());

  SimpleSearchQuery query = tiny_fixture_query();
  auto fresh = core::pipeline::Pipeline::standard().run(query, tok).artifact;
  EXPECT_EQ(reloaded->key, fresh.key) << "fixture was built for another query";
  EXPECT_EQ(reloaded->prefix.masks, fresh.prefix.masks);
  EXPECT_EQ(reloaded->body.masks, fresh.body.masks);

  model::NgramModel::Config config;
  config.order = 2;
  config.max_sequence_length = 16;
  auto model = model::NgramModel::train(tok, {"aba", "cbc", "abc"}, config);

  CompiledQuery from_fixture = CompiledQuery::from_artifact(reloaded, tok);
  CompiledQuery from_fresh = CompiledQuery::from_artifact(
      std::make_shared<core::pipeline::QueryArtifact>(fresh), tok);
  core::ShortestPathSearch fixture_search(*model, from_fixture, query);
  core::ShortestPathSearch fresh_search(*model, from_fresh, query);
  auto fixture_results = fixture_search.all();
  auto fresh_results = fresh_search.all();
  ASSERT_FALSE(fresh_results.empty());
  ASSERT_EQ(fixture_results.size(), fresh_results.size());
  for (std::size_t i = 0; i < fresh_results.size(); ++i) {
    EXPECT_EQ(fixture_results[i].tokens, fresh_results[i].tokens);
    EXPECT_EQ(fixture_results[i].log_prob, fresh_results[i].log_prob);
  }
}

// ---------------------------------------------------------------------------
// Fuzz corpus: corrupt v2 containers must be rejected, never crash
// ---------------------------------------------------------------------------

TEST(FuzzCorpus, CorruptV2ArtifactsRejectedWithDiagnostics) {
  for (const char* name :
       {"artifact-v2-truncated-masks.relmq", "artifact-v2-mask-bitflip.relmq"}) {
    SCOPED_TRACE(name);
    std::string text = slurp(std::string(RELM_FUZZ_CORPUS_DIR) + "/" + name);
    ASSERT_FALSE(text.empty());
    // The fuzz entry point must treat the input as a clean rejection (return
    // 0 without aborting) ...
    EXPECT_EQ(testing::fuzz_artifact_loader(
                  reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()),
              0);
    // ... and the loader must say *where* it gave up.
    std::istringstream in(text);
    try {
      (void)core::pipeline::load_artifact(in);
      FAIL() << "corrupt corpus file loaded cleanly";
    } catch (const relm::Error& e) {
      EXPECT_NE(std::string(e.what()).find("masks"), std::string::npos)
          << "diagnostic was: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Compile cache: a disk entry with a corrupted mask section falls back to
// recompilation (counted), never crashes or serves wrong masks
// ---------------------------------------------------------------------------

TEST(ArtifactCache, CorruptMaskSectionFallsBackToRecompile) {
  using core::pipeline::ArtifactCache;
  using core::pipeline::ArtifactCacheConfig;
  using core::pipeline::ArtifactKey;

  TempDir dir("corrupt_masks");
  SimpleSearchQuery query = make_query("(cat)|(dog)",
                                       TokenizationStrategy::kCanonicalTokens);
  ArtifactCacheConfig config;
  config.disk_dir = dir.str();

  ArtifactKey key;
  {
    ArtifactCache warm(config);
    key = core::pipeline::compile_cached(query, fixture_tokenizer(), &warm)->key;
  }
  const std::string path = dir.str() + "/" + key.hex() + ".relmq";
  {
    std::string contents = slurp(path);
    std::size_t bits_pos = contents.find("\nbits ");
    ASSERT_NE(bits_pos, std::string::npos);
    std::size_t digit = bits_pos + 6;
    contents[digit] = contents[digit] == '0' ? '1' : '0';
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << contents;
  }

  ArtifactCache cold(config);
  EXPECT_EQ(cold.lookup(key), nullptr);  // corrupt = miss, never a crash
  EXPECT_EQ(cold.stats().disk_errors, 1u);

  auto artifact = core::pipeline::compile_cached(query, fixture_tokenizer(), &cold);
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(core::masks_mismatch(artifact->body.dfa, artifact->body.masks),
            std::nullopt);
}

// ---------------------------------------------------------------------------
// relm verify: persisted masks are audited against the automata
// ---------------------------------------------------------------------------

TEST(CheckQueryArtifact, FlagsMaskMismatchAndHalfPresence) {
  SimpleSearchQuery query = make_query("(cat)|(dog)",
                                       TokenizationStrategy::kCanonicalTokens);
  auto artifact =
      core::pipeline::Pipeline::standard().run(query, fixture_tokenizer())
          .artifact;

  {
    analysis::InvariantReport report;
    analysis::check_query_artifact(artifact, nullptr, report);
    EXPECT_FALSE(report.has("artifact.token-masks")) << report.to_string();
  }
  {
    core::pipeline::QueryArtifact bad = artifact;
    bad.body.masks.words[0] ^= 1;  // one flipped mask bit
    analysis::InvariantReport report;
    analysis::check_query_artifact(bad, nullptr, report);
    EXPECT_TRUE(report.has("artifact.token-masks")) << report.to_string();
  }
  {
    core::pipeline::QueryArtifact bad = artifact;
    bad.prefix.masks = core::TokenMaskTable{};  // half-present pair
    analysis::InvariantReport report;
    analysis::check_query_artifact(bad, nullptr, report);
    EXPECT_TRUE(report.has("artifact.token-masks")) << report.to_string();
  }
}

}  // namespace
}  // namespace relm
