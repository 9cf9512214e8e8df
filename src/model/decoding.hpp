#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "model/language_model.hpp"
#include "util/rng.hpp"
#include "util/token_bitset.hpp"

namespace relm::model {

// Decoding/decision rules (§2.4): the rule that converts next-token
// probabilities into the set of tokens the model "can emit". A token outside
// the allowed set is rejected, and — the key executor property (§3.3) — every
// string sharing the rejected prefix is transitively rejected with it.
struct DecodingRules {
  std::optional<int> top_k;      // keep only the k most likely tokens
  std::optional<double> top_p;   // nucleus: smallest set with mass >= p
  double temperature = 1.0;      // applied before top_p mass computation

  bool unrestricted() const { return !top_k && !top_p; }
  // True when the rules admit every token of a `vocab`-token vocabulary:
  // no top-p and no top-k below the vocabulary.
  bool admits_all(std::size_t vocab) const {
    return !top_p && (!top_k || (*top_k > 0 &&
                                 static_cast<std::size_t>(*top_k) >= vocab));
  }
};

// Reusable buffers of allowed_tokens. A decoder keeps one per stream (per
// sampler, per pipeline slot), so once warm the kernel allocates nothing. It
// holds the ranked head of the distribution: at most k entries under top-k,
// the nucleus rounded up to a power-of-two multiple of 64 under top-p alone.
struct RuleMaskScratch {
  std::vector<std::pair<double, TokenId>> ranked;  // (log-prob, token)
};

// The decoding-rule mask kernel: writes into `mask` the tokens the rules
// admit, given full-vocabulary natural-log probabilities. Every decoder
// calls it and intersects the result with the compiled per-state token
// masks word-wise (the mask-and-scan fast path).
//
// - Rank order: token u precedes token t iff lp_u > lp_t, or lp_u == lp_t
//   and u < t, always on the raw log-probs. Temperature divides by T > 0
//   and subtracts a normalizer, both monotone, so it never changes which
//   tokens a rule keeps except by rounding two values together; ranking on
//   raw values keeps the order a pure function of the distribution, shared
//   exactly with token_allowed().
// - top-k keeps the first k tokens of that order, selected in one scan of
//   the vocabulary into a k-entry heap; no O(V) scratch, no full sort.
// - top-p keeps the shortest prefix of that order whose mass reaches p,
//   mass taken under the temperature-adjusted distribution with the same
//   arithmetic as apply_temperature and summed in rank order as the
//   survivors pop off the heap best first. With top-k
//   set it is applied to the k survivors only. That is exact: the top-k set
//   and the nucleus are both prefixes of one order, so their intersection
//   is the shorter prefix, and the mass of a prefix is summed over the same
//   values in the same order either way — the cutoff is bit-identical to
//   ranking the whole vocabulary. Top-p alone ranks a head of 64 tokens,
//   doubling it until the mass is reached.
// - When the rules admit every token (no top-p, no top-k below the
//   vocabulary; see DecodingRules::admits_all) the mask is left EMPTY,
//   meaning "no restriction", and no O(V) work is done.
void allowed_tokens(std::span<const double> log_probs,
                    const DecodingRules& rules, util::TokenBitset& mask,
                    RuleMaskScratch& scratch);

// True iff `token` survives the rules: a single-membership test in O(vocab)
// time with NO allocation, written independently of the allowed_tokens
// kernel (it counts the tokens ranked before `token` and their mass) so the
// oracle, which builds its masks from it, can catch a kernel bug instead of
// copying it. Agrees with allowed_tokens via the shared rank order above;
// its mass is summed in token order, so the two could differ only where a
// prefix's mass lies within rounding of p.
bool token_allowed(std::span<const double> log_probs, const DecodingRules& rules,
                   TokenId token);

// Applies temperature to log-probs and renormalizes.
std::vector<double> apply_temperature(std::span<const double> log_probs,
                                      double temperature);

// Samples a token from the distribution restricted to `mask` (renormalized).
// An empty (default-constructed) bitset means "no restriction". Returns
// vocab_size if the masked distribution has zero mass.
TokenId sample_token(std::span<const double> log_probs,
                     const util::TokenBitset& mask, util::Pcg32& rng);

// Free-running generation: extends `context` by up to `max_new_tokens`
// tokens sampled under the rules, stopping early on EOS. Returns only the
// newly generated tokens. This is the HuggingFace run_generation-style
// loop that the paper's baselines use (§4.1).
std::vector<TokenId> generate(const LanguageModel& model,
                              std::span<const TokenId> context,
                              std::size_t max_new_tokens,
                              const DecodingRules& rules, util::Pcg32& rng,
                              bool stop_at_eos = true);

}  // namespace relm::model
