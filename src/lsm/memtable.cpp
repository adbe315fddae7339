#include "lsm/memtable.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <string>
#include <tuple>

namespace bandslim::lsm {
namespace {

constexpr std::size_t kInitialSlots = 16;
// Tower cap of the modelled skiplist node (see RandomHeight).
constexpr int kModelMaxHeight = 12;

std::uint64_t Load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t Load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// The key zero-padded to kMaxKeySize bytes, as two words in memory order.
// On little-endian hosts the words are assembled from whole-word loads
// inside the key (overlapping where the key is not a multiple of the
// load): a byte-wise copy into a zeroed buffer followed by word loads
// stalls store-to-load forwarding and costs more than the probe itself.
std::array<std::uint64_t, 2> PaddedWords(std::string_view key) {
  const char* p = key.data();
  const std::size_t n = key.size();
  std::array<std::uint64_t, 2> words{};
  if constexpr (std::endian::native != std::endian::little) {
    if (n != 0) std::memcpy(words.data(), p, n);
  } else if (n >= 8) {
    words[0] = Load64(p);
    if (n > 8) words[1] = Load64(p + n - 8) >> (8 * (16 - n));
  } else if (n >= 4) {
    words[0] = Load32(p) | Load32(p + n - 4) << (8 * (n - 4));
  } else if (n != 0) {
    const auto byte = [p](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    };
    words[0] = byte(0) | byte(n / 2) | byte(n - 1);
  }
  return words;
}

// Word `i` of a padded key as a big-endian integer: comparing (word 0,
// word 1, length) in that order is memcmp order on the unpadded keys.
std::uint64_t OrderWord(const std::array<std::uint64_t, 2>& words,
                        std::size_t i) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(words[i]);
  }
  return words[i];
}

// splitmix64's finalizer: a fixed bijective mix, so runs place keys alike.
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t Hash(const std::array<std::uint64_t, 2>& words,
                   std::size_t len) {
  return Mix((words[0] * 0x9e3779b97f4a7c15ULL + words[1]) ^ len);
}

}  // namespace

MemTable::MemTable(std::uint64_t seed)
    : slots_(kInitialSlots, kEmptySlot), rng_(seed) {}

int MemTable::RandomHeight() {
  // Geometric heights with p = 1/4, as in LevelDB.
  int height = 1;
  while (height < kModelMaxHeight && rng_.Below(4) == 0) ++height;
  return height;
}

std::size_t MemTable::FindSlot(const std::array<std::uint64_t, 2>& words,
                               std::size_t len) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = Hash(words, len) & mask;
  while (slots_[slot] != kEmptySlot) {
    const Entry& e = entries_[slots_[slot]];
    if (e.words == words && e.len == len) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void MemTable::Grow() {
  slots_.assign(slots_.size() * 2, kEmptySlot);
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    slots_[FindSlot(entries_[i].words, entries_[i].len)] = i;
  }
}

void MemTable::Put(std::string_view key, const ValueRef& ref) {
  assert(key.size() <= kMaxKeySize);
  if ((entries_.size() + 1) * 2 > slots_.size()) Grow();
  const std::array<std::uint64_t, 2> words = PaddedWords(key);
  const std::size_t slot = FindSlot(words, key.size());
  if (slots_[slot] != kEmptySlot) {
    entries_[slots_[slot]].ref = ref;
    return;
  }
  slots_[slot] = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({words, ref, static_cast<std::uint8_t>(key.size())});
  // Footprint model: the skiplist node this key once cost — a node header
  // (std::string key, ValueRef, heap tower vector), the key bytes, the
  // ValueRef and a tower of `height` pointers.
  static constexpr std::size_t kAccountedNodeBytes =
      sizeof(std::string) + sizeof(ValueRef) + sizeof(std::vector<void*>);
  approx_bytes_ += key.size() + sizeof(ValueRef) +
                   static_cast<std::size_t>(RandomHeight()) * sizeof(void*) +
                   kAccountedNodeBytes;
}

const ValueRef* MemTable::Get(std::string_view key) const {
  if (key.size() > kMaxKeySize) return nullptr;
  const std::size_t slot = FindSlot(PaddedWords(key), key.size());
  if (slots_[slot] == kEmptySlot) return nullptr;
  return &entries_[slots_[slot]].ref;
}

void MemTable::Clear() {
  entries_.clear();
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  order_.clear();
  approx_bytes_ = 0;
}

MemTable::Iterator MemTable::Begin() {
  if (order_.size() != entries_.size()) {
    order_.resize(entries_.size());
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      order_[i] = {OrderWord(e.words, 0), OrderWord(e.words, 1), e.len, i};
    }
    std::sort(order_.begin(), order_.end(),
              [](const OrderKey& a, const OrderKey& b) {
                return std::tie(a.hi, a.lo, a.len) <
                       std::tie(b.hi, b.lo, b.len);
              });
  }
  return Iterator(entries_.data(), order_.data(),
                  order_.data() + order_.size());
}

}  // namespace bandslim::lsm
