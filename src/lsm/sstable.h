// SSTable: an immutable sorted run of (key -> vLog reference) entries,
// serialized across 16 KiB logical NAND pages through the FTL's LSM stream.
// With key-value separation the tables hold only references, so compaction
// never rewrites values (Section 2.1).
//
// On-NAND format is page-aligned (PinK-style): every 16 KiB page is
// self-contained, so a point lookup reads exactly one page. The table meta
// (kept in device DRAM and in the manifest) carries one fence key per page.
//
//   per page: [u32 magic][u32 entry_count]
//             entry*: [u8 key_len][key][u64 vlog_addr][u32 vsize][u8 flags]
//             (a page is programmed as long as its entries; reads see the
//              rest of the 16 KiB as zeros)
//
// Tables are written by one TableBuilder, fed sorted entries one at a time
// (from the MemTable's order on a flush, from a MergeCursor on a
// compaction). It encodes each entry straight into a page buffer, programs
// each page as it fills, collects fence keys and splits at a target size,
// so no run is ever materialised between the merge and NAND. Each finished
// table comes back with its entries as a flat PackedEntry array — the
// table's resident form (packed_entry.h), which point lookups binary-search
// without touching NAND.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ftl/ftl.h"
#include "lsm/bloom.h"
#include "lsm/packed_entry.h"

namespace bandslim::lsm {

struct SSTableMeta {
  std::uint64_t id = 0;
  std::uint64_t first_lpn = 0;
  std::uint32_t page_count = 0;
  std::uint32_t entry_count = 0;
  std::uint64_t encoded_bytes = 0;  // Serialized size (level-sizing metric).
  std::string min_key;
  std::string max_key;
  // DRAM-resident key filter: GETs for absent keys skip the table load.
  BloomFilter bloom;
  // First key of each page: a point lookup binary-searches these and reads
  // exactly one page.
  std::vector<std::string> fence_keys;

  bool Overlaps(const std::string& lo, const std::string& hi) const {
    return !(max_key < lo || hi < min_key);
  }

  // Index of the unique page that may hold `key`, or -1 when key < min_key.
  int PageForKey(const std::string& key) const;
};

inline constexpr std::uint32_t kSSTableMagic = 0x42534C4D;  // "BSLM"

// Serialized size of one entry (key length byte + key + addr + size + flag).
inline std::uint64_t EncodedEntrySize(const PackedEntry& e) {
  return 1 + std::uint64_t{e.len} + 8 + 4 + 1;
}

// Writes sorted, unique-key entries as a sequence of SSTables. A table
// opens at the first entry after the previous one finished, taking the next
// table id and starting at the next free lpn; it finishes when the next
// entry would take its encoded size past `target_bytes`, or at Finish().
// A finished table is handed to `on_table` — meta and resident entries —
// before any page of the next one is programmed. The Bloom filter is sized
// from the table's final entry count, from key hashes buffered as entries
// arrive.
class TableBuilder {
 public:
  using TableSink =
      std::function<void(SSTableMeta meta, std::vector<PackedEntry> entries)>;
  // No split: every entry goes into one table.
  static constexpr std::uint64_t kNoSplit = ~std::uint64_t{0};

  // `expected_entries` bounds the entries to be added; it sizes each
  // table's resident array so it is allocated once. `next_id` and
  // `next_lpn` are the caller's allocation cursors, advanced as tables open
  // (id) and finish (lpn).
  TableBuilder(ftl::PageFtl* ftl, std::uint64_t target_bytes,
               std::size_t expected_entries, std::uint64_t* next_id,
               std::uint64_t* next_lpn, TableSink on_table);

  // `e` must sort after every entry added before it. Programs the page it
  // fills, and first finishes the open table if `e` is past its target.
  Status Add(const PackedEntry& e);

  // Whether a table is open (some entry was added since the last finish).
  bool open() const { return !entries_.empty(); }

  // Programs the open table's last page and hands the table over.
  // InvalidArgument when no table is open.
  Status Finish();

 private:
  void Open(const PackedEntry& first);
  Status ProgramPage();

  ftl::PageFtl* ftl_;
  std::uint64_t target_bytes_;
  std::size_t expected_;  // Entries still to come, at most.
  std::uint64_t* next_id_;
  std::uint64_t* next_lpn_;
  TableSink on_table_;
  // The open table.
  SSTableMeta meta_;
  std::vector<PackedEntry> entries_;
  std::vector<std::uint64_t> key_hashes_;
  // The open page: bytes used and entries encoded so far (0: none open).
  Bytes page_;
  std::size_t page_used_ = 0;
  std::uint32_t page_entries_ = 0;
};

// Reads a table back, charging one NAND read per page.
Result<std::vector<PackedEntry>> ReadSSTable(ftl::PageFtl* ftl,
                                             const SSTableMeta& meta);

// Reads and decodes one page of a table (one NAND read).
Result<std::vector<PackedEntry>> ReadSSTablePage(ftl::PageFtl* ftl,
                                                 const SSTableMeta& meta,
                                                 std::uint32_t page_index);

// Little-endian integer helpers used across LSM serialization.
void PutU32(Bytes* out, std::uint32_t v);
void PutU64(Bytes* out, std::uint64_t v);
Status GetU32(ByteSpan data, std::size_t* offset, std::uint32_t* v);
Status GetU64(ByteSpan data, std::size_t* offset, std::uint64_t* v);
void PutLengthPrefixed(Bytes* out, std::string_view s);
Status GetLengthPrefixed(ByteSpan data, std::size_t* offset, std::string* s);

}  // namespace bandslim::lsm
