#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace relm::util {

// Dense bitset over token ids, stored as 64-bit words. This is the shared
// currency of the mask-and-scan fast path (Willard & Louf): decoding rules
// produce one (model::allowed_tokens), the compile pipeline persists one per
// token-automaton state, and the executors intersect the two word-wise and
// iterate only the surviving bits — O(vocab/64) per step instead of a probe
// per automaton edge.
//
// Invariant: bits at positions >= size() in the last word are zero, so
// popcounts and word-wise ANDs over whole words never see phantom tokens.
class TokenBitset {
 public:
  static constexpr std::size_t kWordBits = 64;

  TokenBitset() = default;
  explicit TokenBitset(std::size_t size, bool value = false)
      : size_(size), words_(words_for(size), value ? ~0ull : 0ull) {
    clear_trailing();
  }

  static constexpr std::size_t words_for(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t num_words() const { return words_.size(); }

  bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  bool operator[](std::size_t i) const { return test(i); }

  void set(std::size_t i) { words_[i / kWordBits] |= 1ull << (i % kWordBits); }
  void reset(std::size_t i) {
    words_[i / kWordBits] &= ~(1ull << (i % kWordBits));
  }
  // Resizes to `size` cleared bits, reusing the word storage: no
  // allocation once it has grown to the size.
  void assign(std::size_t size) {
    size_ = size;
    words_.assign(words_for(size), 0);
  }
  void set_all() {
    words_.assign(words_.size(), ~0ull);
    clear_trailing();
  }

  std::uint64_t word(std::size_t w) const { return words_[w]; }
  void set_word(std::size_t w, std::uint64_t bits) { words_[w] = bits; }
  std::span<const std::uint64_t> words() const { return words_; }

  std::size_t count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }
  bool any() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  bool none() const { return !any(); }

  // Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        fn(w * kWordBits + b);
        bits &= bits - 1;
      }
    }
  }

  friend bool operator==(const TokenBitset&, const TokenBitset&) = default;

 private:
  void clear_trailing() {
    if (size_ % kWordBits != 0 && !words_.empty()) {
      words_.back() &= (1ull << (size_ % kWordBits)) - 1;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace relm::util
