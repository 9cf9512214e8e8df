#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "model/decoding.hpp"
#include "model/ngram_model.hpp"
#include "tokenizer/bpe.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/token_bitset.hpp"

namespace relm::model {
namespace {

std::string training_corpus() {
  std::string corpus;
  for (int i = 0; i < 40; ++i) {
    corpus += "The cat sat on the mat. ";
    corpus += "The dog ran to the park. ";
    corpus += "https://www.example.com/path ";
  }
  return corpus;
}

struct Fixture {
  tokenizer::BpeTokenizer tok;
  std::shared_ptr<NgramModel> model;

  Fixture() : tok(tokenizer::BpeTokenizer::train(training_corpus(), {})) {
    NgramModel::Config config;
    config.order = 4;
    config.alpha = 0.3;
    std::vector<std::string> docs;
    for (int i = 0; i < 20; ++i) {
      docs.push_back("The cat sat on the mat.");
      docs.push_back("The dog ran to the park.");
      docs.push_back("https://www.example.com/path");
    }
    model = NgramModel::train(tok, docs, config);
  }
};

double logsumexp(std::span<const double> v) {
  double m = *std::max_element(v.begin(), v.end());
  double z = 0;
  for (double x : v) z += std::exp(x - m);
  return m + std::log(z);
}

TEST(NgramModel, LogProbsNormalize) {
  Fixture f;
  std::vector<tokenizer::TokenId> ctx = f.tok.encode("The cat");
  auto lp = f.model->next_log_probs(ctx);
  ASSERT_EQ(lp.size(), f.tok.vocab_size());
  EXPECT_NEAR(logsumexp(lp), 0.0, 1e-9);
}

TEST(NgramModel, EmptyContextNormalizes) {
  Fixture f;
  auto lp = f.model->next_log_probs({});
  EXPECT_NEAR(logsumexp(lp), 0.0, 1e-9);
}

TEST(NgramModel, TrainedContinuationPreferred) {
  Fixture f;
  // After "The cat sat on the" the next canonical token should be that of
  // " mat" (or its first sub-token), far more likely than a random token.
  auto ctx = f.tok.encode("The cat sat on the");
  auto lp = f.model->next_log_probs(ctx);
  auto continuation = f.tok.encode(" mat");
  ASSERT_FALSE(continuation.empty());
  double trained = lp[continuation[0]];
  double uniform = -std::log(static_cast<double>(f.tok.vocab_size()));
  EXPECT_GT(trained, uniform + 2.0);  // much more likely than chance
}

TEST(NgramModel, MemorizationOfTrainingSpans) {
  Fixture f;
  // Whole-sequence log prob of a memorized string beats a novel permutation.
  auto ctx = f.tok.encode("The cat");
  double memorized = f.model->sequence_log_prob(ctx, f.tok.encode(" sat on the mat."));
  double novel = f.model->sequence_log_prob(ctx, f.tok.encode(" ran on the park."));
  EXPECT_GT(memorized, novel);
}

TEST(NgramModel, HigherOrderMemorizesHarder) {
  Fixture f;
  NgramModel::Config small_config;
  small_config.order = 2;
  small_config.alpha = 1.5;
  std::vector<std::string> docs(20, "The cat sat on the mat.");
  auto small = NgramModel::train(f.tok, docs, small_config);

  NgramModel::Config xl_config;
  xl_config.order = 5;
  xl_config.alpha = 0.1;
  auto xl = NgramModel::train(f.tok, docs, xl_config);

  auto ctx = f.tok.encode("The cat sat on");
  auto target = f.tok.encode(" the mat.");
  EXPECT_GT(xl->sequence_log_prob(ctx, target), small->sequence_log_prob(ctx, target));
}

TEST(NgramModel, EosLikelyAtDocumentEnd) {
  Fixture f;
  auto ctx = f.tok.encode("The cat sat on the mat.");
  auto lp = f.model->next_log_probs(ctx);
  double uniform = -std::log(static_cast<double>(f.tok.vocab_size()));
  EXPECT_GT(lp[f.model->eos()], uniform);
}

TEST(NgramModel, RejectsZeroOrder) {
  NgramModel::Config config;
  config.order = 0;
  EXPECT_THROW(
      NgramModel::train_on_tokens(10, 0, {{1, 2, 3}}, config), relm::Error);
}

TEST(UniformModel, AllTokensEqual) {
  UniformModel model(10, 9);
  auto lp = model.next_log_probs({});
  for (double v : lp) EXPECT_DOUBLE_EQ(v, -std::log(10.0));
  EXPECT_NEAR(logsumexp(lp), 0.0, 1e-12);
}

TEST(CachingModel, HitsAfterRepeats) {
  Fixture f;
  CachingModel cached(f.model);
  auto ctx = f.tok.encode("The cat");
  auto a = cached.next_log_probs(ctx);
  auto b = cached.next_log_probs(ctx);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
}

TEST(CachingModel, DistinguishesContexts) {
  Fixture f;
  CachingModel cached(f.model);
  auto a = cached.next_log_probs(f.tok.encode("The cat"));
  auto b = cached.next_log_probs(f.tok.encode("The dog"));
  EXPECT_NE(a, b);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST(NgramModel, SuffixEquivalence) {
  // The model's distribution depends on at most order-1 trailing tokens:
  // next_log_probs(ctx) must equal next_log_probs(suffix) exactly. This is
  // the contract relevant_context_length() advertises and the suffix-keyed
  // cache relies on.
  Fixture f;
  ASSERT_EQ(f.model->relevant_context_length(), f.model->config().order - 1);
  auto ctx = f.tok.encode("The dog ran to the park. The cat sat on the");
  ASSERT_GT(ctx.size(), f.model->relevant_context_length());
  std::vector<tokenizer::TokenId> suffix(
      ctx.end() - static_cast<std::ptrdiff_t>(f.model->relevant_context_length()),
      ctx.end());
  EXPECT_EQ(f.model->next_log_probs(ctx), f.model->next_log_probs(suffix));

  // relevant_suffix() computes exactly that view.
  auto view = relevant_suffix(*f.model, ctx);
  EXPECT_EQ(std::vector<tokenizer::TokenId>(view.begin(), view.end()), suffix);
}

TEST(CachingModel, SuffixKeyedHits) {
  // Distinct full contexts sharing their last order-1 tokens map to one
  // cache entry: the second lookup is a hit, not a second miss.
  Fixture f;
  CachingModel cached(f.model);
  auto a = cached.next_log_probs(
      f.tok.encode("The dog ran to the park. The cat sat on the"));
  auto b = cached.next_log_probs(f.tok.encode("The dog sat on the"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.entries(), 1u);
}

TEST(CachingModel, EntryCountNeverExceedsCapacity) {
  // Regression: the old half-table purge keyed on hash buckets, so the
  // table could hold up to 2x capacity entries. The LRU bounds *entries*.
  Fixture f;
  const std::size_t capacity = 10;
  CachingModel cached(f.model, capacity);
  EXPECT_EQ(cached.capacity(), capacity);
  for (tokenizer::TokenId t = 0; t < 100; ++t) {
    std::vector<tokenizer::TokenId> ctx = {
        t, static_cast<tokenizer::TokenId>(t + 1)};
    cached.next_log_probs(ctx);
    EXPECT_LE(cached.entries(), capacity);
  }
  EXPECT_EQ(cached.misses(), 100u);
  // Every eviction and every resident entry came from a miss (with a
  // capacity below the shard count, some inserts are dropped outright, so
  // this is an inequality).
  EXPECT_LE(cached.evictions() + cached.entries(), cached.misses());
  EXPECT_GT(cached.evictions(), 0u);
}

TEST(CachingModel, BatchDeduplicatesMisses) {
  // A batch with repeated (suffix-equivalent) contexts evaluates each
  // distinct suffix once; duplicates count as hits.
  Fixture f;
  CachingModel cached(f.model);
  auto ctx_a = f.tok.encode("The cat sat on the");
  auto ctx_b = f.tok.encode("The dog ran to the");
  std::vector<std::vector<tokenizer::TokenId>> batch = {ctx_a, ctx_b, ctx_a,
                                                        ctx_b, ctx_a};
  auto out = cached.next_log_probs_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  EXPECT_EQ(out[0], out[2]);
  EXPECT_EQ(out[0], out[4]);
  EXPECT_EQ(out[1], out[3]);
  EXPECT_EQ(out[0], f.model->next_log_probs(ctx_a));
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.hits(), 3u);

  auto stats = cached.cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->hits, 3u);
  EXPECT_EQ(stats->misses, 2u);
  EXPECT_EQ(stats->entries, 2u);
  EXPECT_EQ(stats->evictions, 0u);

  // The inner model reports no cache.
  EXPECT_FALSE(f.model->cache_stats().has_value());
}

// ---------------------------------------------------------------------------
// Decoding rules
// ---------------------------------------------------------------------------

// The kernel's verdict per token; an empty mask admits every token.
std::vector<bool> admitted(std::span<const double> lp,
                           const DecodingRules& rules) {
  util::TokenBitset mask;
  RuleMaskScratch scratch;
  allowed_tokens(lp, rules, mask, scratch);
  std::vector<bool> out(lp.size(), true);
  if (!mask.empty()) {
    for (std::size_t t = 0; t < lp.size(); ++t) out[t] = mask[t];
  }
  return out;
}

TEST(Decoding, TopKKeepsExactlyK) {
  std::vector<double> lp{std::log(0.4), std::log(0.3), std::log(0.2), std::log(0.1)};
  DecodingRules rules;
  rules.top_k = 2;
  auto mask = admitted(lp, rules);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_FALSE(mask[2]);
  EXPECT_FALSE(mask[3]);
}

TEST(Decoding, TopKLargerThanVocabAllowsAll) {
  std::vector<double> lp{std::log(0.5), std::log(0.5)};
  DecodingRules rules;
  rules.top_k = 40;
  auto mask = admitted(lp, rules);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
}

TEST(Decoding, TopPNucleus) {
  std::vector<double> lp{std::log(0.5), std::log(0.3), std::log(0.15), std::log(0.05)};
  DecodingRules rules;
  rules.top_p = 0.8;
  auto mask = admitted(lp, rules);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);  // cumulative hits 0.8 here
  EXPECT_FALSE(mask[2]);
  EXPECT_FALSE(mask[3]);
}

TEST(Decoding, UnrestrictedAllowsEverything) {
  std::vector<double> lp{std::log(0.999), std::log(0.001)};
  DecodingRules rules;
  auto mask = admitted(lp, rules);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_TRUE(rules.unrestricted());
}

TEST(Decoding, RulesAdmittingAllLeaveTheMaskEmpty) {
  std::vector<double> lp{std::log(0.5), std::log(0.3), std::log(0.2)};
  util::TokenBitset mask(3, true);
  RuleMaskScratch scratch;
  DecodingRules wide;
  wide.top_k = 3;
  allowed_tokens(lp, wide, mask, scratch);
  EXPECT_TRUE(mask.empty());  // "no restriction"
  EXPECT_TRUE(wide.admits_all(3));
  wide.top_k = 2;
  allowed_tokens(lp, wide, mask, scratch);
  EXPECT_EQ(mask.size(), 3u);
  EXPECT_EQ(mask.count(), 2u);
  EXPECT_FALSE(wide.admits_all(3));
  // p = 1 still restricts: the nucleus may close before the tail.
  DecodingRules full_p;
  full_p.top_p = 1.0;
  EXPECT_FALSE(full_p.admits_all(3));
  DecodingRules bad_k;
  bad_k.top_k = 0;
  EXPECT_FALSE(bad_k.admits_all(3));
}

TEST(Decoding, InvalidParamsThrow) {
  std::vector<double> lp{0.0};
  DecodingRules bad_k;
  bad_k.top_k = 0;
  EXPECT_THROW(admitted(lp, bad_k), relm::Error);
  DecodingRules bad_p;
  bad_p.top_p = 1.5;
  EXPECT_THROW(admitted(lp, bad_p), relm::Error);
  EXPECT_THROW(apply_temperature(lp, 0.0), relm::Error);
}

TEST(Decoding, TemperatureSharpens) {
  std::vector<double> lp{std::log(0.6), std::log(0.4)};
  auto cold = apply_temperature(lp, 0.5);
  EXPECT_GT(cold[0], lp[0]);  // more peaked
  EXPECT_NEAR(logsumexp(cold), 0.0, 1e-9);
  auto hot = apply_temperature(lp, 2.0);
  EXPECT_LT(hot[0], lp[0]);  // flatter
}

TEST(Decoding, SampleTokenHonorsMask) {
  util::Pcg32 rng(11);
  std::vector<double> lp{std::log(0.9), std::log(0.05), std::log(0.05)};
  util::TokenBitset mask(3, true);
  mask.reset(0);
  for (int i = 0; i < 200; ++i) {
    tokenizer::TokenId t = sample_token(lp, mask, rng);
    EXPECT_NE(t, 0u);
    EXPECT_LT(t, 3u);
  }
}

TEST(Decoding, SampleTokenZeroMass) {
  util::Pcg32 rng(11);
  std::vector<double> lp{std::log(1.0)};
  util::TokenBitset mask(1, false);
  EXPECT_EQ(sample_token(lp, mask, rng), 1u);
}

TEST(Decoding, SamplingFollowsDistribution) {
  util::Pcg32 rng(17);
  std::vector<double> lp{std::log(0.75), std::log(0.25)};
  int zero = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (sample_token(lp, {}, rng) == 0) ++zero;
  }
  EXPECT_NEAR(static_cast<double>(zero) / kTrials, 0.75, 0.02);
}

TEST(Decoding, GenerateStopsAtEos) {
  Fixture f;
  util::Pcg32 rng(23);
  DecodingRules rules;
  rules.top_k = 5;
  auto ctx = f.tok.encode("The cat sat on the mat.");
  bool saw_eos_stop = false;
  for (int i = 0; i < 50 && !saw_eos_stop; ++i) {
    auto out = generate(*f.model, ctx, 32, rules, rng);
    if (!out.empty() && out.back() == f.model->eos() && out.size() < 32) {
      saw_eos_stop = true;
    }
  }
  EXPECT_TRUE(saw_eos_stop);
}

TEST(Decoding, GenerateRespectsLengthBudget) {
  Fixture f;
  util::Pcg32 rng(29);
  DecodingRules rules;
  auto out = generate(*f.model, {}, 7, rules, rng, /*stop_at_eos=*/false);
  EXPECT_LE(out.size(), 7u);
}

TEST(Decoding, GeneratedTextOftenEchoesTraining) {
  // Sanity link between model and decoding: with a sharp model and greedy-ish
  // top-k, generations starting from a training prefix reproduce corpus text.
  Fixture f;
  util::Pcg32 rng(31);
  DecodingRules rules;
  rules.top_k = 1;
  auto ctx = f.tok.encode("The cat sat");
  auto out = generate(*f.model, ctx, 8, rules, rng);
  std::vector<tokenizer::TokenId> text_tokens;
  for (auto t : out) {
    if (t != f.model->eos()) text_tokens.push_back(t);
  }
  std::string text = f.tok.decode(text_tokens);
  EXPECT_EQ(text.substr(0, 11), " on the mat");
}

}  // namespace
}  // namespace relm::model

namespace relm::model {
namespace {

TEST(NgramModel, NonCanonicalTrainingGivesAlternativeEncodingsMass) {
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::train(
          [] {
            std::string s;
            for (int i = 0; i < 60; ++i) s += "The cat sat on the mat. ";
            return s;
          }(),
          {});
  std::vector<std::string> docs(40, "The cat sat on the mat.");

  NgramModel::Config canonical_only;
  canonical_only.order = 3;
  auto plain = NgramModel::train(tok, docs, canonical_only);

  NgramModel::Config mixed = canonical_only;
  mixed.non_canonical_document_rate = 0.5;
  auto noisy = NgramModel::train(tok, docs, mixed);

  // Probability of a non-canonical spelling of "The": byte "T" then "h"...
  auto t_tok = *tok.find("T");
  auto ctx = std::vector<tokenizer::TokenId>{};
  double plain_p = plain->next_log_probs(ctx)[t_tok];
  double noisy_p = noisy->next_log_probs(ctx)[t_tok];
  EXPECT_GT(noisy_p, plain_p);
}

TEST(NgramModel, SubwordPriorDocumentsAlwaysRandomized) {
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::train(
          [] {
            std::string s;
            for (int i = 0; i < 60; ++i) s += "The cat sat on the mat. ";
            return s;
          }(),
          {});
  NgramModel::Config config;
  config.order = 3;
  auto model = NgramModel::train(tok, {}, config,
                                 std::vector<std::string>(40, "The cat sat."));
  // The model has contexts (it trained on something).
  EXPECT_GT(model->num_contexts(), 0u);
}

TEST(NgramModel, EmptyContextAnchorsToDocumentStart) {
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::train(
          [] {
            std::string s;
            for (int i = 0; i < 60; ++i) s += "Zebras run far. The cat sat. ";
            return s;
          }(),
          {});
  NgramModel::Config config;
  config.order = 3;
  // Documents always START with "Zebras" but contain "The" more often overall.
  std::vector<std::string> docs(30, "Zebras eat. The cat. The dog. The mat.");
  auto model = NgramModel::train(tok, docs, config);
  auto lp = model->next_log_probs({});
  auto zeb = tok.encode("Zebras")[0];
  auto the = tok.encode("The")[0];
  // Document-anchored: the document-initial token dominates the globally
  // frequent one.
  EXPECT_GT(lp[zeb], lp[the]);
}

}  // namespace
}  // namespace relm::model
