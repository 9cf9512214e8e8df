#include "model/decoding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/errors.hpp"

namespace relm::model {

namespace {

// The shared rank order for decoding rules: u precedes t on higher
// probability, ties on lower token id. Both allowed_tokens and token_allowed
// use exactly this order, so the two always agree on set membership — even on
// distributions full of exact ties (uniform models), where an unspecified
// partition would make them diverge.
inline bool rank_before(std::span<const double> lp, std::size_t a,
                        std::size_t b) {
  return lp[a] > lp[b] || (lp[a] == lp[b] && a < b);
}

using Ranked = std::pair<double, TokenId>;

inline bool ranked_before(const Ranked& a, const Ranked& b) {
  return a.first > b.first || (a.first == b.first && a.second < b.second);
}

void validate_top_k(int k) {
  if (k <= 0) throw relm::Error("top_k must be positive");
}

void validate_top_p(double p) {
  if (p <= 0.0 || p > 1.0) throw relm::Error("top_p must be in (0, 1]");
}

// Fills `ranked` with the first m tokens of the rank order (m <= V), in
// heap order under ranked_before, so its root is the worst survivor. The
// scan runs in ascending token id: a later token displaces the root only
// with a strictly greater log-prob (an equal one ranks after it), and then
// sifts down from the root in one pass.
void select_head(std::span<const double> lp, std::size_t m,
                 std::vector<Ranked>& ranked) {
  ranked.clear();
  if (m == 0) return;
  std::size_t t = 0;
  for (; t < m; ++t) ranked.emplace_back(lp[t], static_cast<TokenId>(t));
  std::make_heap(ranked.begin(), ranked.end(), ranked_before);
  double worst = ranked.front().first;
  for (; t < lp.size(); ++t) {
    if (!(lp[t] > worst)) continue;
    const Ranked incoming{lp[t], static_cast<TokenId>(t)};
    std::size_t i = 0;
    for (std::size_t c = 1; c < m; i = c, c = 2 * c + 1) {
      if (c + 1 < m && ranked_before(ranked[c], ranked[c + 1])) ++c;
      if (ranked_before(ranked[c], incoming)) break;  // worse than both
      ranked[i] = ranked[c];
    }
    ranked[i] = incoming;
    worst = ranked.front().first;
  }
}

// log Z of the temperature-adjusted distribution lp / T (max-subtracted,
// summed in token order): the one normalizer of apply_temperature, the
// kernel's top-p mass and token_allowed's, so all three agree bit for bit.
double temperature_log_z(std::span<const double> lp, double temperature) {
  if (temperature <= 0.0) throw relm::Error("temperature must be positive");
  double max_lp = -std::numeric_limits<double>::infinity();
  for (double v : lp) max_lp = std::max(max_lp, v / temperature);
  double z = 0.0;
  for (double v : lp) z += std::exp(v / temperature - max_lp);
  return max_lp + std::log(z);
}

constexpr std::size_t kNucleusHead = 64;

}  // namespace

void allowed_tokens(std::span<const double> log_probs,
                    const DecodingRules& rules, util::TokenBitset& mask,
                    RuleMaskScratch& scratch) {
  if (rules.top_k) validate_top_k(*rules.top_k);
  if (rules.top_p) validate_top_p(*rules.top_p);
  const std::size_t V = log_probs.size();
  if (rules.admits_all(V)) {
    mask.assign(0);
    return;
  }

  const std::size_t limit =
      rules.top_k ? std::min(static_cast<std::size_t>(*rules.top_k), V) : V;
  std::vector<Ranked>& ranked = scratch.ranked;
  std::size_t first = 0;  // ranked[first, end) is admitted
  if (!rules.top_p) {
    select_head(log_probs, limit, ranked);
  } else {
    const double p = *rules.top_p;
    const double T = rules.temperature;
    const double log_z = T != 1.0 ? temperature_log_z(log_probs, T) : 0.0;
    auto ranked_after = [](const Ranked& a, const Ranked& b) {
      return ranked_before(b, a);
    };
    // Each head is a prefix of the rank order, popped best first and its
    // mass summed in that order, so the cutoff does not depend on the head.
    for (std::size_t m = std::min(limit, kNucleusHead);;
         m = std::min(2 * m, limit)) {
      select_head(log_probs, m, ranked);
      std::make_heap(ranked.begin(), ranked.end(), ranked_after);
      double mass = 0.0;
      first = ranked.size();
      while (first > 0 && mass < p) {
        std::pop_heap(ranked.begin(), ranked.begin() + first, ranked_after);
        const double lp = ranked[--first].first;
        mass += std::exp(T != 1.0 ? lp / T - log_z : lp);
      }
      if (mass >= p || m == limit) break;
    }
  }
  mask.assign(V);
  for (std::size_t i = first; i < ranked.size(); ++i) mask.set(ranked[i].second);
}

bool token_allowed(std::span<const double> log_probs, const DecodingRules& rules,
                   TokenId token) {
  if (rules.unrestricted()) return true;
  const std::size_t V = log_probs.size();
  const std::size_t t = token;

  // Temperature is a monotone transform (divide by T > 0, subtract a
  // constant normalizer), so the rank order — and with it the top-k set — is
  // decided on the raw log-probs; only the top-p mass needs the adjusted
  // distribution.
  if (rules.top_k) {
    int k = *rules.top_k;
    validate_top_k(k);
    if (static_cast<std::size_t>(k) < V) {
      std::size_t better = 0;
      for (std::size_t u = 0; u < V; ++u) {
        if (u != t && rank_before(log_probs, u, t)) ++better;
      }
      if (better >= static_cast<std::size_t>(k)) return false;
    }
  }

  if (rules.top_p) {
    double p = *rules.top_p;
    validate_top_p(p);
    // The nucleus admits a token iff the mass of strictly-better tokens,
    // under the temperature-adjusted distribution, is below p.
    const double T = rules.temperature;
    const double log_z = T != 1.0 ? temperature_log_z(log_probs, T) : 0.0;
    double mass_before = 0.0;
    for (std::size_t u = 0; u < V; ++u) {
      if (u != t && rank_before(log_probs, u, t)) {
        mass_before +=
            std::exp(T != 1.0 ? log_probs[u] / T - log_z : log_probs[u]);
      }
    }
    if (mass_before >= p) return false;
  }

  return true;
}

std::vector<double> apply_temperature(std::span<const double> log_probs,
                                      double temperature) {
  const double log_z = temperature_log_z(log_probs, temperature);
  std::vector<double> out(log_probs.size());
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t] = log_probs[t] / temperature - log_z;
  }
  return out;
}

TokenId sample_token(std::span<const double> log_probs,
                     const util::TokenBitset& mask, util::Pcg32& rng) {
  std::vector<double> weights(log_probs.size(), 0.0);
  for (std::size_t t = 0; t < log_probs.size(); ++t) {
    if (mask.empty() || mask[t]) weights[t] = std::exp(log_probs[t]);
  }
  std::size_t pick = rng.weighted(weights);
  return static_cast<TokenId>(pick);  // == vocab_size on zero mass
}

std::vector<TokenId> generate(const LanguageModel& model,
                              std::span<const TokenId> context,
                              std::size_t max_new_tokens,
                              const DecodingRules& rules, util::Pcg32& rng,
                              bool stop_at_eos) {
  std::vector<TokenId> running(context.begin(), context.end());
  std::vector<TokenId> fresh;
  util::TokenBitset mask;
  RuleMaskScratch scratch;
  for (std::size_t step = 0; step < max_new_tokens; ++step) {
    if (running.size() >= model.max_sequence_length()) break;
    std::vector<double> lp = model.next_log_probs(running);
    allowed_tokens(lp, rules, mask, scratch);
    TokenId t = sample_token(lp, mask, rng);
    if (t >= model.vocab_size()) break;  // degenerate distribution
    running.push_back(t);
    fresh.push_back(t);
    if (stop_at_eos && t == model.eos()) break;
  }
  return fresh;
}

}  // namespace relm::model
