// Page-mapped Flash Translation Layer. The vLog and the LSM-tree address
// *logical* NAND pages (Section 2.1: "it fills logical NAND pages which are
// mapped to physical NAND pages by the FTL"); this FTL provides the mapping
// with out-of-place updates, per-stream active blocks (vLog appends, LSM
// SSTables and GC relocations go to separate blocks), and greedy garbage
// collection over fully-programmed blocks.
//
// The maps are flat arrays (FEMU's maptbl/rmap shape): the forward map is one
// dense u32 ppn vector per logical-page partition (ftl/lpn_space.h), grown on
// demand from the partition base; the reverse map holds one packed u32
// (partition, index) per physical page. A read, a write's map update and a
// GC relocation are array indexing, never a hash probe. The contract the map
// relies on: every lpn lies inside a partition (Write rejects others), and
// each owner allocates upwards from its partition base, because a partition's
// map is as long as the highest lpn written to it and never shrinks.
// Physical page numbers are 32-bit, so a geometry must stay within
// kMaxPhysicalPages.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ftl/lpn_space.h"
#include "nand/nand_flash.h"
#include "stats/metrics.h"
#include "telemetry/event_log.h"
#include "trace/trace.h"

namespace bandslim::ftl {

enum class Stream : int {
  kVlog = 0,  // Value-log page appends.
  kLsm = 1,   // SSTable / manifest pages.
  kGc = 2,    // Relocations during garbage collection.
};
inline constexpr int kNumStreams = 3;

struct FtlConfig {
  // GC starts when the free-block pool drops to this many blocks.
  std::uint32_t gc_low_watermark = 4;
  // Wear-aware victim selection: score = valid_pages + wear_weight *
  // (erase_count - min_erase_count). 0 = pure greedy; >0 spreads erases.
  double wear_weight = 0.0;
  // Fraction of blocks factory-marked bad (excluded from allocation).
  double bad_block_rate = 0.0;
  std::uint64_t bad_block_seed = 0xBADB10C;
  // Good blocks withheld from the free pool at init (highest-numbered
  // first). A block that grows bad at runtime is retired and replaced from
  // this reserve — classic bad-block remapping. 0 = no reserve; retirement
  // then shrinks usable capacity until allocation returns kOutOfSpace.
  std::uint32_t reserved_blocks = 0;
  // Re-allocation attempts after a program reports a media failure (each
  // attempt retires the failed block and lands on a fresh one).
  std::uint32_t max_program_retries = 4;
  // Geometry-aware dispatch: each stream keeps one active block per die and
  // round-robins page allocations across them, so consecutive logical page
  // writes land on different channels/ways and the parallel NAND scheduler
  // (CostModel::nand_async_program) can overlap them. Off by default: the
  // sequential allocator matches the paper's firmware and keeps the figure
  // anchors bit-identical.
  bool stripe_across_dies = false;
};

class PageFtl {
 public:
  // Largest geometry the 32-bit maps can address (~0u marks a map hole).
  static constexpr std::uint64_t kMaxPhysicalPages = 0xFFFFFFFFULL;

  // Requires nand->geometry().total_pages() <= kMaxPhysicalPages
  // (KvSsd::Open rejects larger geometries).
  PageFtl(nand::NandFlash* nand, stats::MetricsRegistry* metrics,
          FtlConfig config = {}, trace::Tracer* tracer = nullptr,
          telemetry::EventLog* event_log = nullptr);

  // Writes one logical page (out-of-place; remaps if already mapped). A
  // program media failure retires the block — surviving co-located pages
  // are replayed onto fresh blocks byte-for-byte — and retries on a new
  // allocation up to FtlConfig::max_program_retries times. An lpn outside
  // the partitions of ftl/lpn_space.h is InvalidArgument, before any program.
  [[nodiscard]] Status Write(std::uint64_t lpn, ByteSpan data, Stream stream,
                             bool retain);

  // NotFound for an unmapped lpn, including one outside the partitions.
  [[nodiscard]] Status Read(std::uint64_t lpn, MutByteSpan out);

  // Zero-copy variant of Read: see NandFlash::ReadView. Same mapping
  // lookup, fault behaviour, and timing charges as Read.
  [[nodiscard]] Status ReadView(std::uint64_t lpn,
                                std::shared_ptr<const Bytes>* out);

  bool IsMapped(std::uint64_t lpn) const { return Lookup(lpn) != kNoPpn; }

  // Drops the mapping; the physical page becomes garbage for GC. Ok (a
  // no-op) for an unmapped lpn.
  [[nodiscard]] Status Trim(std::uint64_t lpn);

  std::uint64_t free_blocks() const {
    return config_.stripe_across_dies ? free_count_ : free_blocks_.size();
  }
  std::uint64_t gc_relocated_pages() const { return gc_relocated_pages_; }
  std::uint64_t gc_runs() const { return gc_runs_; }
  std::uint64_t mapped_pages() const { return mapped_pages_; }
  std::uint64_t bad_blocks() const { return bad_block_count_; }
  bool IsBad(std::uint64_t block) const { return bad_[block]; }
  // Fault-handling outcomes (zero on a perfect device).
  std::uint64_t program_failures() const { return program_failures_; }
  std::uint64_t bad_block_remaps() const { return bad_block_remaps_; }
  std::uint64_t erase_retirements() const { return erase_retirements_; }
  std::uint64_t reserve_remaining() const { return reserve_blocks_.size(); }

  // Grown bad block (fault injection): relocates any valid pages, then
  // permanently excludes the block. Rejected for stream-active blocks.
  [[nodiscard]] Status MarkBad(std::uint64_t block);

  // Paced background GC (closed-loop control): reclaims up to `max_blocks`
  // victims, stopping early once the free pool reaches `target_free`.
  // Opportunistic — "no reclaimable victim" is not an error here (the pool
  // simply holds no fully-garbage-enough block yet), unlike the foreground
  // allocation path where it means the device is truly full. Returns the
  // number of blocks actually reclaimed.
  Result<std::uint32_t> CollectBudgeted(std::uint32_t max_blocks,
                                        std::uint64_t target_free);

 private:
  static constexpr std::uint64_t kUnmapped = ~0ULL;
  static constexpr std::uint32_t kNoPpn = ~0u;  // Forward-map hole.
  static constexpr std::uint32_t kNoLpn = ~0u;  // Reverse-map hole.
  static constexpr std::uint32_t kIndexMask = (1u << kLpnIndexBits) - 1;

  // Packed reverse-map entry of `lpn`: partition in the top two bits, index
  // within the partition below. False when the lpn lies outside the
  // partitions or past kMaxPartitionPages.
  static bool Pack(std::uint64_t lpn, std::uint32_t* packed);
  // Forward-map entry of a packed lpn (must lie inside the map).
  std::uint32_t& Entry(std::uint32_t packed) {
    return map_[packed >> kLpnIndexBits][packed & kIndexMask];
  }
  // The ppn `lpn` maps to; kNoPpn when it is unmapped or lies outside the
  // partitions.
  std::uint32_t Lookup(std::uint64_t lpn) const;

  struct ActiveBlock {
    std::uint64_t block = kUnmapped;
    std::uint32_t next_page = 0;
  };

  // Returns the next free physical page for `stream`, running GC if the
  // free pool is low. Fails with kOutOfSpace when GC cannot reclaim.
  Result<std::uint64_t> AllocatePage(Stream stream);
  // Refills `active` from the free pool (GC first for foreground streams),
  // preferring a block on `want_die` when striping.
  Status OpenActiveBlock(ActiveBlock* active, Stream stream,
                         std::uint64_t want_die);
  // Free-pool primitives valid in both layouts (global list / per-die lists).
  void PushFree(std::uint64_t block);
  bool PopFree(std::uint64_t want_die, std::uint64_t* out);
  void RemoveFree(std::uint64_t block);
  Status MaybeCollect();
  Status CollectOneBlock();
  // Moves every valid page of `block` to the GC stream's active block.
  Status RelocateValidPages(std::uint64_t block);
  bool IsActive(std::uint64_t block) const;
  void Invalidate(std::uint64_t ppn);
  // Bad-block retirement: closes any stream pointer at `block`, relocates
  // its surviving valid pages (the packed-layout replay), excludes it, and
  // refills the free pool from the reserve when one is configured.
  Status RetireBlock(std::uint64_t block);
  void CloseActive(std::uint64_t block);
  bool RefillFromReserve();

  nand::NandFlash* nand_;
  trace::Tracer* tracer_;              // Optional; null = untraced.
  telemetry::EventLog* event_log_;     // Optional; null = no event stream.
  FtlConfig config_;
  // Latched while the free pool sits below gc_low_watermark, so the event
  // log records one kWatermarkLow/kWatermarkCleared pair per excursion.
  bool below_watermark_ = false;

  // lpn -> ppn, one vector per partition indexed from its base.
  std::vector<std::uint32_t> map_[kNumLpnPartitions];
  std::uint64_t mapped_pages_ = 0;   // Non-hole entries across map_.
  std::vector<std::uint32_t> rmap_;  // ppn -> packed lpn, or kNoLpn.
  std::vector<std::uint32_t> valid_pages_;                // Per block.
  std::vector<bool> block_full_;                          // Per block.
  std::vector<bool> bad_;                                 // Per block.
  // Free pool. Non-striped: one global stack popped lowest-block-first
  // (exactly the paper-faithful allocator). Striped: one stack per die plus
  // a count, so OpenActiveBlock can target a die directly.
  std::vector<std::uint64_t> free_blocks_;
  std::vector<std::vector<std::uint64_t>> free_by_die_;
  std::uint64_t free_count_ = 0;
  ActiveBlock active_[kNumStreams];
  // Striped mode: per-stream per-die active blocks and rotation cursor.
  std::vector<std::vector<ActiveBlock>> active_by_die_;
  std::uint64_t stripe_cursor_[kNumStreams] = {0, 0, 0};
  std::uint64_t bad_block_count_ = 0;
  std::vector<std::uint64_t> reserve_blocks_;  // Bad-block remap pool.

  std::uint64_t gc_relocated_pages_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t program_failures_ = 0;
  std::uint64_t bad_block_remaps_ = 0;
  std::uint64_t erase_retirements_ = 0;

  stats::Counter* stream_programs_[kNumStreams];
  stats::Counter* gc_relocations_;
  stats::Counter* remaps_counter_;
};

}  // namespace bandslim::ftl
