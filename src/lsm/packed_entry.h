// Packed (key -> vLog reference) entries: the one fixed-width form in which
// the device LSM-tree keeps entries in DRAM — MemTable slots, resident
// SSTables, decoded cached pages and iterator snapshots.
//
// A key (at most kMaxKeySize = 16 bytes) is stored zero-padded as two
// 64-bit words in memory order, so key() is a string_view over the entry
// itself, next to its ValueRef and its length. Key order reads the padded
// words as big-endian integers and breaks ties on length: comparing
// (hi, lo, len) that way is exactly std::string (memcmp) order, because
// padding with NULs only makes two keys equal when one is a NUL-extension
// of the other, and then the shorter one sorts first.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/types.h"
#include "vlog/address.h"

namespace bandslim::lsm {

struct ValueRef {
  vlog::VlogAddr addr = 0;
  std::uint32_t size = 0;
  bool tombstone = false;
};

// The key zero-padded to kMaxKeySize bytes, as two words in memory order.
// On little-endian hosts the words are assembled from whole-word loads
// inside the key (overlapping where the key is not a multiple of the
// load): a byte-wise copy into a zeroed buffer followed by word loads
// stalls store-to-load forwarding and costs more than a hash probe.
inline std::array<std::uint64_t, 2> PaddedWords(std::string_view key) {
  const auto load64 = [](const char* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };
  const auto load32 = [](const char* p) -> std::uint64_t {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };
  const char* p = key.data();
  const std::size_t n = key.size();
  std::array<std::uint64_t, 2> words{};
  if constexpr (std::endian::native != std::endian::little) {
    if (n != 0) std::memcpy(words.data(), p, n);
  } else if (n >= 8) {
    words[0] = load64(p);
    if (n > 8) words[1] = load64(p + n - 8) >> (8 * (16 - n));
  } else if (n >= 4) {
    words[0] = load32(p) | load32(p + n - 4) << (8 * (n - 4));
  } else if (n != 0) {
    const auto byte = [p](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    };
    words[0] = byte(0) | byte(n / 2) | byte(n - 1);
  }
  return words;
}

// A padded word as a big-endian integer, the form key order compares.
inline std::uint64_t OrderWord(std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(word);
  }
  return word;
}

// A key's place in key order (see the file comment).
struct KeyOrder {
  std::uint64_t hi;
  std::uint64_t lo;
  std::uint32_t len;

  friend bool operator==(const KeyOrder&, const KeyOrder&) = default;
  friend bool operator<(const KeyOrder& a, const KeyOrder& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.len < b.len;
  }
};

struct PackedEntry {
  std::array<std::uint64_t, 2> words;  // Key bytes, zero-padded.
  ValueRef ref;
  std::uint8_t len;

  // `key` is at most kMaxKeySize bytes.
  static PackedEntry Make(std::string_view key, const ValueRef& ref) {
    return {PaddedWords(key), ref, static_cast<std::uint8_t>(key.size())};
  }
  std::string_view key() const {
    return {reinterpret_cast<const char*>(words.data()), len};
  }
  KeyOrder order() const {
    return {OrderWord(words[0]), OrderWord(words[1]), len};
  }
};
static_assert(sizeof(PackedEntry::words) == kMaxKeySize);

// Order of a key that may not fit an entry: one longer than kMaxKeySize
// sorts after every stored key sharing its first kMaxKeySize bytes, which
// a length past any stored one gives.
inline KeyOrder OrderOf(std::string_view key) {
  const std::size_t n = key.size() < kMaxKeySize ? key.size() : kMaxKeySize;
  const std::array<std::uint64_t, 2> words = PaddedWords(key.substr(0, n));
  return {OrderWord(words[0]), OrderWord(words[1]),
          static_cast<std::uint32_t>(key.size())};
}

}  // namespace bandslim::lsm
