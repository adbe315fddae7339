// MemTable: the in-memory component of the device LSM-tree (Figure 2),
// mapping keys to vLog value references. Entries are (key -> address, size)
// — values themselves live in the vLog; this is the key-value separation the
// paper builds on (Section 2.1).
//
// Layout: a packed entry array plus an open-addressing hash index. Each key
// (at most kMaxKeySize = 16 bytes) is stored zero-padded as two 64-bit words
// next to its ValueRef; a power-of-two table of u32 entry numbers (load
// factor <= 1/2, linear probing, a fixed hash) finds it with one hash and
// one or two probes. Key order is built only when iterated: Begin() sorts
// one record per entry by the padded key read as two big-endian words, then
// by length — exactly std::string (memcmp) order — and reuses that order
// until the next new key.
//
// Footprint model: approximate_bytes() models a skiplist node per key (key
// bytes, ValueRef, node header and a tower of seeded geometric height), the
// table's original layout. Tower heights are drawn from the seeded stream
// once per new key — none on overwrite, one on a tombstone insert — because
// approximate_bytes() sets when LsmTree flushes and hence every simulated
// time downstream: the representation may change, the numbers feeding the
// clock may not.
//
// Clear() keeps every capacity, so once the table has grown to its working
// size, inserts allocate nothing.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "vlog/address.h"

namespace bandslim::lsm {

struct ValueRef {
  vlog::VlogAddr addr = 0;
  std::uint32_t size = 0;
  bool tombstone = false;
};

class MemTable {
 private:
  struct Entry {
    // The key's bytes, zero-padded to kMaxKeySize, in memory order.
    std::array<std::uint64_t, 2> words;
    ValueRef ref;
    std::uint8_t len;
    std::string_view key() const {
      return {reinterpret_cast<const char*>(words.data()), len};
    }
  };
  static_assert(sizeof(Entry::words) == kMaxKeySize);
  // One entry's place in key order: its padded key as big-endian words, so
  // the sort compares contiguous integers rather than chasing entries.
  struct OrderKey {
    std::uint64_t hi;
    std::uint64_t lo;
    std::uint32_t len;
    std::uint32_t entry;
  };

 public:
  explicit MemTable(std::uint64_t seed = 0x5eed);

  // Inserts or overwrites. `key` is at most kMaxKeySize bytes.
  void Put(std::string_view key, const ValueRef& ref);
  void Delete(std::string_view key) { Put(key, ValueRef{0, 0, true}); }

  // Returns the entry (including tombstones) or nullptr. The pointer is
  // valid only until the next Put, Delete or Clear.
  const ValueRef* Get(std::string_view key) const;

  std::size_t entry_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  // Modelled DRAM footprint: a skiplist node per key (see above).
  std::size_t approximate_bytes() const { return approx_bytes_; }

  void Clear();

  // Forward iteration in key order; valid until the next Put, Delete or
  // Clear.
  class Iterator {
   public:
    bool Valid() const { return pos_ != end_; }
    std::string_view key() const { return entries_[pos_->entry].key(); }
    const ValueRef& ref() const { return entries_[pos_->entry].ref; }
    void Next() { ++pos_; }

   private:
    friend class MemTable;
    Iterator(const Entry* entries, const OrderKey* pos, const OrderKey* end)
        : entries_(entries), pos_(pos), end_(end) {}
    const Entry* entries_;
    const OrderKey* pos_;
    const OrderKey* end_;
  };
  // Sorts the entries unless no key was added since the last call.
  Iterator Begin();

 private:
  static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

  int RandomHeight();
  // Index of the slot holding `words`/`len`, or of the empty slot that ends
  // its probe sequence.
  std::size_t FindSlot(const std::array<std::uint64_t, 2>& words,
                       std::size_t len) const;
  void Grow();

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;  // Entry numbers; kEmptySlot if free.
  // Entries in key order; stale when shorter than entries_ (entries are
  // only appended between Clears).
  std::vector<OrderKey> order_;
  std::size_t approx_bytes_ = 0;
  Xoshiro256 rng_;
};

}  // namespace bandslim::lsm
