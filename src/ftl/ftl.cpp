#include "ftl/ftl.h"

#include <algorithm>
#include <cassert>

#include "common/random.h"

namespace bandslim::ftl {

PageFtl::PageFtl(nand::NandFlash* nand, stats::MetricsRegistry* metrics,
                 FtlConfig config, trace::Tracer* tracer,
                 telemetry::EventLog* event_log)
    : nand_(nand),
      tracer_(tracer),
      event_log_(event_log),
      config_(config),
      rmap_(nand->geometry().total_pages(), kNoLpn),
      valid_pages_(nand->geometry().total_blocks(), 0),
      block_full_(nand->geometry().total_blocks(), false),
      bad_(nand->geometry().total_blocks(), false),
      gc_relocations_(metrics->RegisterCounter("ftl.gc_relocated_pages")),
      remaps_counter_(metrics->RegisterCounter("ftl.bad_block_remaps")) {
  assert(nand->geometry().total_pages() <= kMaxPhysicalPages);
  const std::uint64_t blocks = nand->geometry().total_blocks();
  if (config_.bad_block_rate > 0.0) {
    Xoshiro256 rng(config_.bad_block_seed);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      if (rng.NextDouble() < config_.bad_block_rate) {
        bad_[b] = true;
        ++bad_block_count_;
      }
    }
  }
  if (config_.stripe_across_dies) {
    const std::uint64_t dies = nand->geometry().dies();
    free_by_die_.resize(dies);
    // Same lowest-block-first discipline as the global list, per die.
    for (std::uint64_t b = blocks; b > 0; --b) {
      if (!bad_[b - 1]) {
        free_by_die_[nand->DieOf(b - 1)].push_back(b - 1);
        ++free_count_;
      }
    }
    active_by_die_.assign(kNumStreams, std::vector<ActiveBlock>(dies));
  } else {
    free_blocks_.reserve(blocks);
    // Pop from the back; filling lowest-numbered blocks first keeps runs
    // reproducible and easy to inspect.
    for (std::uint64_t b = blocks; b > 0; --b) {
      if (!bad_[b - 1]) free_blocks_.push_back(b - 1);
    }
  }
  // Withhold the remap reserve: highest-numbered good blocks, which sit at
  // the *front* of the lowest-block-first free lists and would be allocated
  // last anyway.
  for (std::uint32_t r = 0; r < config_.reserved_blocks; ++r) {
    std::vector<std::uint64_t>* list = &free_blocks_;
    if (config_.stripe_across_dies) {
      // Round-robin across dies so the reserve drains evenly.
      std::vector<std::uint64_t>* best = nullptr;
      for (auto& per_die : free_by_die_) {
        if (per_die.empty()) continue;
        if (best == nullptr || per_die.size() > best->size()) best = &per_die;
      }
      if (best == nullptr) break;
      list = best;
      --free_count_;
    } else {
      if (list->empty()) break;
    }
    reserve_blocks_.push_back(list->front());
    list->erase(list->begin());
  }
  stream_programs_[0] = metrics->RegisterCounter("ftl.programs.vlog");
  stream_programs_[1] = metrics->RegisterCounter("ftl.programs.lsm");
  stream_programs_[2] = metrics->RegisterCounter("ftl.programs.gc");
}

bool PageFtl::Pack(std::uint64_t lpn, std::uint32_t* packed) {
  if (lpn >= kLpnSpaceEnd) return false;
  const std::uint32_t part = lpn < kLsmLpnBase ? 0 : lpn < kManifestLpn ? 1 : 2;
  const std::uint64_t index = lpn - kLpnPartitionBase[part];
  if (index >= kMaxPartitionPages) return false;
  *packed = (part << kLpnIndexBits) | static_cast<std::uint32_t>(index);
  return true;
}

std::uint32_t PageFtl::Lookup(std::uint64_t lpn) const {
  std::uint32_t packed;
  if (!Pack(lpn, &packed)) return kNoPpn;
  const std::vector<std::uint32_t>& map = map_[packed >> kLpnIndexBits];
  const std::uint32_t index = packed & kIndexMask;
  return index < map.size() ? map[index] : kNoPpn;
}

void PageFtl::Invalidate(std::uint64_t ppn) {
  if (rmap_[ppn] == kNoLpn) return;
  rmap_[ppn] = kNoLpn;
  const std::uint64_t block = nand_->geometry().BlockOf(ppn);
  assert(valid_pages_[block] > 0);
  --valid_pages_[block];
}

void PageFtl::PushFree(std::uint64_t block) {
  if (config_.stripe_across_dies) {
    free_by_die_[nand_->DieOf(block)].push_back(block);
    ++free_count_;
  } else {
    free_blocks_.push_back(block);
  }
}

bool PageFtl::PopFree(std::uint64_t want_die, std::uint64_t* out) {
  if (!config_.stripe_across_dies) {
    if (free_blocks_.empty()) return false;
    *out = free_blocks_.back();
    free_blocks_.pop_back();
    return true;
  }
  // Prefer the requested die; fall back round-robin so a die whose pool
  // drained does not wedge the stream.
  const std::uint64_t dies = free_by_die_.size();
  for (std::uint64_t i = 0; i < dies; ++i) {
    std::vector<std::uint64_t>& list = free_by_die_[(want_die + i) % dies];
    if (list.empty()) continue;
    *out = list.back();
    list.pop_back();
    --free_count_;
    return true;
  }
  return false;
}

void PageFtl::RemoveFree(std::uint64_t block) {
  std::vector<std::uint64_t>* list = &free_blocks_;
  if (config_.stripe_across_dies) list = &free_by_die_[nand_->DieOf(block)];
  for (auto it = list->begin(); it != list->end(); ++it) {
    if (*it == block) {
      list->erase(it);
      if (config_.stripe_across_dies) --free_count_;
      break;
    }
  }
}

Status PageFtl::OpenActiveBlock(ActiveBlock* active, Stream stream,
                                std::uint64_t want_die) {
  if (active->block != kUnmapped) block_full_[active->block] = true;
  // GC only when allocating for foreground streams; the GC stream draws
  // from the reserve directly to avoid re-entry.
  if (stream != Stream::kGc) {
    BANDSLIM_RETURN_IF_ERROR(MaybeCollect());
  }
  std::uint64_t block;
  if (!PopFree(want_die, &block)) {
    return Status::OutOfSpace("no free NAND blocks");
  }
  active->block = block;
  active->next_page = 0;
  return Status::Ok();
}

Result<std::uint64_t> PageFtl::AllocatePage(Stream stream) {
  const auto& geom = nand_->geometry();
  const int s = static_cast<int>(stream);
  if (config_.stripe_across_dies) {
    // Rotate dies per page so consecutive appends land on different
    // channels/ways and the parallel NAND scheduler can overlap them.
    const std::uint64_t dies = geom.dies();
    const std::uint64_t die = stripe_cursor_[s] % dies;
    stripe_cursor_[s] = (stripe_cursor_[s] + 1) % dies;
    ActiveBlock& active = active_by_die_[s][die];
    if (active.block == kUnmapped || active.next_page == geom.pages_per_block) {
      BANDSLIM_RETURN_IF_ERROR(OpenActiveBlock(&active, stream, die));
    }
    return geom.PageIndex(active.block, active.next_page++);
  }
  ActiveBlock& active = active_[s];
  if (active.block == kUnmapped || active.next_page == geom.pages_per_block) {
    BANDSLIM_RETURN_IF_ERROR(OpenActiveBlock(&active, stream, 0));
  }
  return geom.PageIndex(active.block, active.next_page++);
}

Status PageFtl::MaybeCollect() {
  if (!below_watermark_ && free_blocks() < config_.gc_low_watermark) {
    below_watermark_ = true;
    if (event_log_ != nullptr) {
      event_log_->Emit(telemetry::EventType::kWatermarkLow, free_blocks(),
                       config_.gc_low_watermark);
    }
  }
  while (free_blocks() < config_.gc_low_watermark) {
    BANDSLIM_RETURN_IF_ERROR(CollectOneBlock());
  }
  if (below_watermark_) {
    below_watermark_ = false;
    if (event_log_ != nullptr) {
      event_log_->Emit(telemetry::EventType::kWatermarkCleared, free_blocks(),
                       config_.gc_low_watermark);
    }
  }
  return Status::Ok();
}

Result<std::uint32_t> PageFtl::CollectBudgeted(std::uint32_t max_blocks,
                                               std::uint64_t target_free) {
  std::uint32_t collected = 0;
  while (collected < max_blocks && free_blocks() < target_free) {
    const Status st = CollectOneBlock();
    if (!st.ok()) {
      // No reclaimable victim: every full block is still all-valid. That is
      // the normal idle state for paced background GC, not exhaustion —
      // foreground writes will age blocks into victims.
      if (st.code() == StatusCode::kOutOfSpace) break;
      return st;
    }
    ++collected;
  }
  return collected;
}

Status PageFtl::RelocateValidPages(std::uint64_t block) {
  trace::SpanScope span(tracer_, trace::Category::kFtlGc);
  const auto& geom = nand_->geometry();
  Bytes tmp(geom.page_size);
  const std::uint64_t first = geom.PageIndex(block, 0);
  for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
    const std::uint64_t ppn = first + p;
    const std::uint32_t packed = rmap_[ppn];
    if (packed == kNoLpn) continue;
    BANDSLIM_RETURN_IF_ERROR(nand_->Read(ppn, MutByteSpan(tmp)));
    const bool retain = nand_->HasRetainedData(ppn);
    // A media failure while replaying the page retries on a fresh GC
    // allocation (bounded). The failed destination page was never mapped, so
    // it simply stays garbage until its block is erased — retiring the
    // destination here would recurse into another relocation.
    std::uint64_t new_ppn = kUnmapped;
    for (std::uint32_t tries = 0;; ++tries) {
      auto dest = AllocatePage(Stream::kGc);
      if (!dest.ok()) return dest.status();
      const Status programmed = nand_->Program(dest.value(), ByteSpan(tmp), retain);
      if (programmed.ok()) {
        new_ppn = dest.value();
        break;
      }
      if (!programmed.IsMediaError()) return programmed;
      ++program_failures_;
      if (tries >= config_.max_program_retries) return programmed;
    }
    rmap_[ppn] = kNoLpn;
    rmap_[new_ppn] = packed;
    Entry(packed) = static_cast<std::uint32_t>(new_ppn);
    ++valid_pages_[geom.BlockOf(new_ppn)];
    --valid_pages_[block];
    ++gc_relocated_pages_;
    gc_relocations_->Increment();
    stream_programs_[static_cast<int>(Stream::kGc)]->Increment();
  }
  assert(valid_pages_[block] == 0);
  return Status::Ok();
}

bool PageFtl::IsActive(std::uint64_t block) const {
  for (const ActiveBlock& a : active_) {
    if (a.block == block) return true;
  }
  for (const auto& per_die : active_by_die_) {
    for (const ActiveBlock& a : per_die) {
      if (a.block == block) return true;
    }
  }
  return false;
}

Status PageFtl::CollectOneBlock() {
  trace::SpanScope span(tracer_, trace::Category::kFtlGc);
  const auto& geom = nand_->geometry();
  // Victim selection: greedy on valid pages, optionally penalizing worn
  // blocks (static wear leveling, FtlConfig::wear_weight).
  std::uint32_t min_erase = ~0u;
  if (config_.wear_weight > 0.0) {
    for (std::uint64_t b = 0; b < geom.total_blocks(); ++b) {
      if (!bad_[b]) min_erase = std::min(min_erase, nand_->EraseCount(b));
    }
  }
  std::uint64_t victim = kUnmapped;
  double best_score = 1e300;
  for (std::uint64_t b = 0; b < geom.total_blocks(); ++b) {
    if (!block_full_[b] || bad_[b]) continue;
    if (valid_pages_[b] >= geom.pages_per_block) continue;  // Nothing to gain.
    double score = static_cast<double>(valid_pages_[b]);
    if (config_.wear_weight > 0.0) {
      score += config_.wear_weight *
               static_cast<double>(nand_->EraseCount(b) - min_erase);
    }
    if (score < best_score) {
      best_score = score;
      victim = b;
    }
  }
  if (victim == kUnmapped) {
    return Status::OutOfSpace("GC found no reclaimable block");
  }

  if (event_log_ != nullptr) {
    event_log_->Emit(telemetry::EventType::kGcStart, victim,
                     valid_pages_[victim]);
  }
  const std::uint64_t relocated_before = gc_relocated_pages_;
  BANDSLIM_RETURN_IF_ERROR(RelocateValidPages(victim));
  const Status erased = nand_->Erase(victim);
  if (erased.IsMediaError()) {
    // Erase failure retires the block; the reserve (if any) replaces it.
    // Either way the victim leaves the candidate set, so the GC loop makes
    // progress and terminates at kOutOfSpace when nothing is reclaimable.
    ++erase_retirements_;
    BANDSLIM_RETURN_IF_ERROR(RetireBlock(victim));
    ++gc_runs_;
    if (event_log_ != nullptr) {
      event_log_->Emit(telemetry::EventType::kGcEnd, victim,
                       gc_relocated_pages_ - relocated_before);
    }
    return Status::Ok();
  }
  BANDSLIM_RETURN_IF_ERROR(erased);
  block_full_[victim] = false;
  PushFree(victim);
  ++gc_runs_;
  if (event_log_ != nullptr) {
    event_log_->Emit(telemetry::EventType::kGcEnd, victim,
                     gc_relocated_pages_ - relocated_before);
  }
  return Status::Ok();
}

void PageFtl::CloseActive(std::uint64_t block) {
  for (ActiveBlock& a : active_) {
    if (a.block == block) a = ActiveBlock{};
  }
  for (auto& per_die : active_by_die_) {
    for (ActiveBlock& a : per_die) {
      if (a.block == block) a = ActiveBlock{};
    }
  }
}

bool PageFtl::RefillFromReserve() {
  if (reserve_blocks_.empty()) return false;
  PushFree(reserve_blocks_.back());
  reserve_blocks_.pop_back();
  return true;
}

Status PageFtl::RetireBlock(std::uint64_t block) {
  CloseActive(block);
  BANDSLIM_RETURN_IF_ERROR(MarkBad(block));
  ++bad_block_remaps_;
  remaps_counter_->Increment();
  // With the reserve exhausted, usable capacity just shrinks; allocation
  // reports kOutOfSpace when the free pool eventually drains.
  const bool replaced = RefillFromReserve();
  if (event_log_ != nullptr) {
    event_log_->Emit(telemetry::EventType::kBlockRetired, block,
                     replaced ? 1 : 0);
  }
  return Status::Ok();
}

Status PageFtl::MarkBad(std::uint64_t block) {
  if (block >= nand_->geometry().total_blocks()) {
    return Status::InvalidArgument("block out of range");
  }
  if (bad_[block]) return Status::Ok();
  if (IsActive(block)) {
    return Status::InvalidArgument("cannot mark a stream-active block bad");
  }
  BANDSLIM_RETURN_IF_ERROR(RelocateValidPages(block));
  bad_[block] = true;
  ++bad_block_count_;
  block_full_[block] = false;
  // Drop it from the free pool if it was free.
  RemoveFree(block);
  return Status::Ok();
}

Status PageFtl::Write(std::uint64_t lpn, ByteSpan data, Stream stream,
                      bool retain) {
  std::uint32_t packed;
  if (!Pack(lpn, &packed)) {
    return Status::InvalidArgument("lpn outside the logical page partitions");
  }
  Status last = Status::Ok();
  for (std::uint32_t attempt = 0; attempt <= config_.max_program_retries;
       ++attempt) {
    auto ppn = AllocatePage(stream);
    if (!ppn.ok()) return ppn.status();  // Clean kOutOfSpace, never retried.
    last = nand_->Program(ppn.value(), data, retain);
    if (last.ok()) {
      // Looked up only now: GC during AllocatePage may have moved the page.
      std::vector<std::uint32_t>& map = map_[packed >> kLpnIndexBits];
      const std::uint32_t index = packed & kIndexMask;
      if (index >= map.size()) map.resize(index + 1, kNoPpn);
      if (map[index] == kNoPpn) {
        ++mapped_pages_;
      } else {
        Invalidate(map[index]);
      }
      map[index] = static_cast<std::uint32_t>(ppn.value());
      rmap_[ppn.value()] = packed;
      ++valid_pages_[nand_->geometry().BlockOf(ppn.value())];
      stream_programs_[static_cast<int>(stream)]->Increment();
      return Status::Ok();
    }
    // Only media failures are worth a retry elsewhere; power loss or
    // argument errors propagate untouched.
    if (!last.IsMediaError()) return last;
    ++program_failures_;
    // The failed page was never mapped, so retirement replays exactly the
    // surviving co-located pages of the block onto fresh blocks.
    BANDSLIM_RETURN_IF_ERROR(
        RetireBlock(nand_->geometry().BlockOf(ppn.value())));
  }
  return last;
}

Status PageFtl::Read(std::uint64_t lpn, MutByteSpan out) {
  const std::uint32_t ppn = Lookup(lpn);
  if (ppn == kNoPpn) return Status::NotFound("unmapped logical NAND page");
  return nand_->Read(ppn, out);
}

Status PageFtl::ReadView(std::uint64_t lpn, std::shared_ptr<const Bytes>* out) {
  const std::uint32_t ppn = Lookup(lpn);
  if (ppn == kNoPpn) return Status::NotFound("unmapped logical NAND page");
  return nand_->ReadView(ppn, out);
}

Status PageFtl::Trim(std::uint64_t lpn) {
  const std::uint32_t ppn = Lookup(lpn);
  if (ppn == kNoPpn) return Status::Ok();
  Entry(rmap_[ppn]) = kNoPpn;
  Invalidate(ppn);
  --mapped_pages_;
  return Status::Ok();
}

}  // namespace bandslim::ftl
