// MemTable: the in-memory component of the device LSM-tree (Figure 2),
// mapping keys to vLog value references. Entries are (key -> address, size)
// — values themselves live in the vLog; this is the key-value separation the
// paper builds on (Section 2.1).
//
// Layout: an array of PackedEntry (packed_entry.h: the key zero-padded to
// two 64-bit words plus its length, next to its ValueRef) behind an
// open-addressing hash index: a power-of-two table of u32 entry numbers
// (load factor <= 1/2, linear probing, a fixed hash) finds a key with one
// hash and one or two probes. Key order is built only when iterated:
// Begin() LSD-radix-sorts one (hi, lo, len, entry) record per entry on the
// big-endian key words and the length — std::string (memcmp) order — one
// byte column per pass, skipping the columns in which no two keys differ
// (4-byte keys take about 4 passes), and reuses that order until the next
// new key. A flush feeds that order straight into a TableBuilder.
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
// size, inserts and sorts allocate nothing.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "lsm/packed_entry.h"

namespace bandslim::lsm {

class MemTable {
 private:
  // One entry's place in key order: its padded key as big-endian words, so
  // the sort moves contiguous integers rather than chasing entries.
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
    const PackedEntry& entry() const { return entries_[pos_->entry]; }
    std::string_view key() const { return entry().key(); }
    const ValueRef& ref() const { return entry().ref; }
    void Next() { ++pos_; }

   private:
    friend class MemTable;
    Iterator(const PackedEntry* entries, const OrderKey* pos,
             const OrderKey* end)
        : entries_(entries), pos_(pos), end_(end) {}
    const PackedEntry* entries_;
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
  // Rebuilds order_ over every entry (the radix sort above).
  void SortOrder();

  std::vector<PackedEntry> entries_;
  std::vector<std::uint32_t> slots_;  // Entry numbers; kEmptySlot if free.
  // Entries in key order; stale when shorter than entries_ (entries are
  // only appended between Clears).
  std::vector<OrderKey> order_;
  std::vector<OrderKey> sort_scratch_;  // The radix sort's other buffer.
  std::size_t approx_bytes_ = 0;
  Xoshiro256 rng_;
};

}  // namespace bandslim::lsm
