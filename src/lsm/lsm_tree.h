// The in-device LSM-tree with key-value separation (Sections 2.1, 3.4):
// a MemTable over (key -> vLog reference) entries, flushed to leveled
// SSTables stored on NAND through the FTL. Compactions merge reference
// entries only — values stay in the vLog — but their NAND I/O is real and
// shows up in the write-amplification figures (Section 2.4).
//
// The MemTable (memtable.h) is a hash index over packed entries: Put and Get
// cost one hash and a probe or two, and key order is built by a sort only
// when a flush or NewIterator walks it. Its approximate_bytes() models a
// skiplist node per key, with tower heights drawn from the seeded stream
// once per new key, and sets when a flush happens; a ValueRef pointer from
// MemTable::Get lives only until the next MemTable write, so Get copies it
// out at once.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "ftl/ftl.h"
#include "lsm/compaction.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "stats/metrics.h"
#include "telemetry/event_log.h"

namespace bandslim::lsm {

// Logical-page namespace partitions the LSM-tree writes (ftl/lpn_space.h).
using ftl::kLsmLpnBase;
using ftl::kManifestLpn;

struct LsmConfig {
  std::size_t memtable_limit_bytes = 1 << 20;
  int l0_compaction_trigger = 4;
  std::uint64_t level_base_bytes = 4ULL << 20;  // L1 target size.
  double level_size_ratio = 10.0;
  std::uint64_t sstable_target_bytes = 1ULL << 20;
  int max_levels = 7;
  std::uint64_t seed = 0x5eed;
  // Device-DRAM cache of decoded SSTable pages serving point lookups.
  std::size_t page_cache_pages = 128;
};

class LsmTree {
 public:
  // `event_log` may be null (telemetry disabled): every emit site is a
  // single pointer test and no simulated state depends on it.
  LsmTree(ftl::PageFtl* ftl, stats::MetricsRegistry* metrics,
          LsmConfig config = {}, telemetry::EventLog* event_log = nullptr);

  Status Put(const std::string& key, const ValueRef& ref);
  Status Delete(const std::string& key);
  // NotFound covers both absent and tombstoned keys.
  Result<ValueRef> Get(const std::string& key);

  // Flushes the MemTable to an L0 SSTable (no-op when empty) and runs any
  // due compactions.
  Status FlushMemTable();

  // Persists the manifest (level layout + allocation cursors + an opaque
  // caller cookie, used for the vLog tail) after flushing the MemTable.
  Status Checkpoint(std::uint64_t cookie);
  // Rebuilds the level layout from the manifest; returns the cookie.
  Result<std::uint64_t> Restore();

  // Snapshot iterator over live entries in key order (tombstones and
  // shadowed versions elided) — the device side of SEEK/NEXT.
  class Iterator {
   public:
    bool Valid() const { return pos_ < entries_.size(); }
    const std::string& key() const { return entries_[pos_].key; }
    const ValueRef& ref() const { return entries_[pos_].ref; }
    void Next() { ++pos_; }
    void Seek(const std::string& target);

   private:
    friend class LsmTree;
    std::vector<SSTableEntry> entries_;
    std::size_t pos_ = 0;
  };
  Result<std::unique_ptr<Iterator>> NewIterator();

  // Visits every live entry (vLog GC liveness scan).
  Status ForEachLive(
      const std::function<void(const std::string&, const ValueRef&)>& fn);

  // --- introspection ---------------------------------------------------
  std::size_t memtable_entries() const { return mem_.entry_count(); }
  std::size_t memtable_bytes() const { return mem_.approximate_bytes(); }
  int level_count() const { return static_cast<int>(levels_.size()); }
  std::size_t TableCount(int level) const { return levels_[static_cast<std::size_t>(level)].size(); }
  std::uint64_t LevelBytes(int level) const;
  std::uint64_t compactions_run() const { return compactions_run_; }
  std::uint64_t memtable_flushes() const { return memtable_flushes_; }
  // Tables dropped from the live set still awaiting trim at the next
  // Checkpoint() — the device's immutable-table queue depth.
  std::size_t pending_trim_tables() const { return pending_drops_.size(); }
  // Bytes the compactor still owes, mirroring MaybeCompact()'s triggers
  // exactly: all of L0 once it reaches the compaction trigger, plus each
  // deeper level's overage past its target size. Nonzero after a flush only
  // when the 64-pass bounded-effort budget was exhausted (or mid-command,
  // which the sampler never observes on the synchronous path).
  std::uint64_t CompactionDebtBytes() const;
  std::uint64_t memtable_stalls() const { return memtable_stalls_; }
  std::uint64_t compaction_bytes_written() const {
    return compaction_bytes_written_;
  }
  // True while the corresponding synchronous operation is on the stack
  // (visible to samplers invoked from inside it, e.g. via GC polling).
  bool flush_in_progress() const { return flush_in_progress_; }
  bool compaction_in_progress() const { return compaction_in_progress_; }

  // --- closed-loop control hooks ---------------------------------------
  // Flush admission: extra MemTable headroom past the configured limit.
  // While nonzero, Put/Delete defer the inline flush until the MemTable
  // reaches limit + extra — the controller trades bounded extra device
  // DRAM for not stacking a flush (and its inline compaction cascade) onto
  // a tree that is already behind. 0 restores the configured behaviour.
  void SetFlushDeferralBytes(std::size_t extra) {
    flush_deferral_bytes_ = extra;
  }
  std::size_t flush_deferral_bytes() const { return flush_deferral_bytes_; }

  // One increment of paced background compaction: merges all L0 runs once
  // L0 holds at least `l0_min_runs` of them, else relieves the first level
  // above its target size. Returns whether any merge actually ran. Issued
  // from the controller between ops so the inline MaybeCompact() cascade
  // inside a flush finds the tree already tidy.
  Result<bool> CompactStep(std::size_t l0_min_runs);

 private:
  struct Table {
    SSTableMeta meta;
    // Whole-table cache: present for freshly written tables (still in
    // DRAM) and for compaction inputs; point lookups otherwise go through
    // the page cache.
    std::shared_ptr<const std::vector<SSTableEntry>> cache;
  };

  Result<std::shared_ptr<const std::vector<SSTableEntry>>> Load(Table& table);
  // Point lookup within one table: bloom -> fence keys -> one page read
  // (served from the page cache when possible). nullptr = not in table.
  Result<const ValueRef*> FindInTable(Table& table, const std::string& key,
                                      ValueRef* storage);
  Result<std::shared_ptr<const std::vector<SSTableEntry>>> LoadPage(
      const SSTableMeta& meta, std::uint32_t page_index);
  void InvalidatePages(const SSTableMeta& meta);
  // Physically trims pages of dropped tables. Deferred until the next
  // Checkpoint(): the last durable manifest may still reference them, and
  // trimming earlier would break power-cycle recovery.
  Status TrimPendingDrops();
  Status MaybeCompact();
  Status CompactL0();
  Status CompactLevel(int level);
  // Merges `runs` (newest first) into `target_level`, replacing the tables
  // listed in `consumed` (level, index pairs sorted for removal).
  // `bytes_written` (optional) accumulates the encoded bytes of every
  // SSTable produced.
  Status WriteMerged(std::vector<SSTableEntry> merged, int target_level,
                     std::uint64_t* bytes_written = nullptr);
  bool TargetIsBottomMost(int target_level) const;
  Status DropTable(const Table& table);
  std::uint64_t TargetBytes(int level) const;

  ftl::PageFtl* ftl_;
  LsmConfig config_;
  MemTable mem_;
  std::vector<std::vector<Table>> levels_;  // levels_[0]: oldest..newest runs.
  // Tables removed from the live set whose pages await the next checkpoint.
  std::vector<SSTableMeta> pending_drops_;
  // Decoded-page cache (FIFO eviction), keyed by logical page number.
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const std::vector<SSTableEntry>>>
      page_cache_;
  std::deque<std::uint64_t> page_cache_fifo_;
  std::uint64_t next_table_id_ = 1;
  std::uint64_t next_lpn_ = kLsmLpnBase;
  std::uint64_t compactions_run_ = 0;
  std::uint64_t memtable_flushes_ = 0;
  std::uint64_t memtable_stalls_ = 0;
  std::uint64_t compaction_bytes_written_ = 0;
  bool flush_in_progress_ = false;
  bool compaction_in_progress_ = false;
  std::size_t flush_deferral_bytes_ = 0;

  stats::Counter* compaction_counter_;
  stats::Counter* flush_counter_;
  stats::Counter* bloom_skip_counter_;
  stats::Counter* stall_counter_;
  stats::Counter* compaction_bytes_counter_;
  telemetry::EventLog* event_log_;
};

}  // namespace bandslim::lsm
