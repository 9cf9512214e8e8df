#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "tokenizer/bpe.hpp"
#include "util/token_bitset.hpp"

namespace relm::core {

// Memo of decoding-rule masks keyed by the model-relevant context suffix.
// The mask admitted by a DecodingRules instance is a pure function of the
// model distribution, which is itself a pure function of the suffix — so
// suffix-equal expansions share one mask instead of re-scanning the full
// vocabulary in model::allowed_tokens. Suffixes repeat mostly ACROSS the
// searches of a run (the same repetition the logit cache exploits), which is
// why the memo is a standalone object: hand the same instance to every query
// of a run via SimpleSearchQuery::mask_memo and the hit rate tracks the
// logit cache's instead of the near-zero within-search rate.
//
// A memo is only valid for one (decoding rules, model) combination.
// bind_tag() enforces this: the executor fingerprints its rules + vocabulary
// and falls back to a private memo when the tag does not match, so an
// accidentally shared memo degrades to correct-but-cold instead of serving
// masks computed under different rules.
//
// Not thread-safe. All access happens on the search coordinator thread, and
// a shared memo must only be used by searches that run sequentially.
class MaskMemo {
 public:
  using Mask = std::shared_ptr<const util::TokenBitset>;

  // Binds the memo to `tag` on first call; afterwards returns whether `tag`
  // is the bound one.
  bool bind_tag(std::uint64_t tag);

  // The memoized mask for `suffix` (whose hash is `hash`), or null. The full
  // suffix is compared to rule out hash collisions.
  Mask probe(std::uint64_t hash,
             std::span<const tokenizer::TokenId> suffix) const;

  // Memoizes `mask` for `suffix`. Duplicate inserts are ignored; on
  // overflow the memo is cleared wholesale, which keeps the policy a pure
  // function of the insertion sequence (an LRU would be too, but clearing is
  // simpler and overflow is rare).
  void insert(std::uint64_t hash, std::vector<tokenizer::TokenId> suffix,
              Mask mask);

  std::size_t size() const { return entries_; }

 private:
  struct Entry {
    std::vector<tokenizer::TokenId> suffix;
    Mask mask;
  };

  std::unordered_map<std::uint64_t, std::vector<Entry>> map_;
  std::size_t entries_ = 0;
  std::optional<std::uint64_t> tag_;
};

}  // namespace relm::core
