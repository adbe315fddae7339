#include "lsm/memtable.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace bandslim::lsm {
namespace {

constexpr std::size_t kInitialSlots = 16;
// Tower cap of the modelled skiplist node (see RandomHeight).
constexpr int kModelMaxHeight = 12;

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
    const PackedEntry& e = entries_[slots_[slot]];
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

void MemTable::SortOrder() {
  const std::size_t n = entries_.size();
  order_.resize(n);
  // Which bits differ from the first key anywhere: a byte column that is
  // zero here holds one value in every record and needs no pass.
  std::uint64_t hi_diff = 0;
  std::uint64_t lo_diff = 0;
  std::uint32_t len_diff = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const KeyOrder o = entries_[i].order();
    order_[i] = {o.hi, o.lo, o.len, i};
    hi_diff |= o.hi ^ order_[0].hi;
    lo_diff |= o.lo ^ order_[0].lo;
    len_diff |= o.len ^ order_[0].len;
  }
  // The varying byte columns, least significant first: length, then lo's
  // bytes, then hi's.
  struct Column {
    int word;  // 0: len, 1: lo, 2: hi.
    int shift;
  };
  std::array<Column, 1 + 2 * 8> columns;
  std::size_t num_columns = 0;
  if (len_diff != 0) columns[num_columns++] = {0, 0};  // len <= 16.
  for (const auto& [word, diff] : {std::pair{1, lo_diff}, std::pair{2, hi_diff}}) {
    for (int shift = 0; shift < 64; shift += 8) {
      if ((diff >> shift & 0xff) != 0) columns[num_columns++] = {word, shift};
    }
  }
  const auto digit = [](const OrderKey& k, const Column& c) -> std::size_t {
    const std::uint64_t w = c.word == 2 ? k.hi : c.word == 1 ? k.lo : k.len;
    return w >> c.shift & 0xff;
  };
  std::array<std::array<std::uint32_t, 256>, 1 + 2 * 8> counts;
  for (std::size_t c = 0; c < num_columns; ++c) counts[c].fill(0);
  for (const OrderKey& k : order_) {
    for (std::size_t c = 0; c < num_columns; ++c) ++counts[c][digit(k, columns[c])];
  }
  sort_scratch_.resize(n);
  for (std::size_t c = 0; c < num_columns; ++c) {
    std::uint32_t start = 0;
    for (std::uint32_t& count : counts[c]) {
      const std::uint32_t bucket = count;
      count = start;
      start += bucket;
    }
    for (const OrderKey& k : order_) {
      sort_scratch_[counts[c][digit(k, columns[c])]++] = k;
    }
    order_.swap(sort_scratch_);
  }
}

MemTable::Iterator MemTable::Begin() {
  if (order_.size() != entries_.size()) SortOrder();
  return Iterator(entries_.data(), order_.data(),
                  order_.data() + order_.size());
}

}  // namespace bandslim::lsm
