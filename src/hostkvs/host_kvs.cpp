#include "hostkvs/host_kvs.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "lsm/sstable.h"

namespace bandslim::hostkvs {

namespace {
// vLog record: [u8 klen][key][u32 vsize][value]; vsize kTombstone marks a
// durable delete record carrying no value bytes.
constexpr std::uint32_t kTombstoneSize = 0xFFFFFFFFu;
}  // namespace

HostKvs::HostKvs(blockdev::BlockSsd* ssd, sim::VirtualClock* clock,
                 const sim::CostModel* cost, stats::MetricsRegistry* metrics,
                 HostKvsConfig config)
    : ssd_(ssd),
      clock_(clock),
      cost_(cost),
      metrics_(metrics),
      config_(config),
      kernel_crossings_(metrics->GetCounter("hostkvs.kernel_crossings")),
      block_ios_(metrics->GetCounter("hostkvs.block_ios")) {}

void HostKvs::ChargeKernelPath() {
  clock_->Advance(cost_->host_syscall_ns);
  kernel_crossings_->Increment();
}

Status HostKvs::SyncTail() {
  const std::uint64_t staging_base = RoundDownPow2(synced_until_, kMemPageSize);
  if (vlog_tail_ == synced_until_) return Status::Ok();
  // pwrite() of the dirty tail block range, then fsync().
  ChargeKernelPath();
  const std::uint64_t begin = staging_base;
  const std::uint64_t end = RoundUpPow2(vlog_tail_, kMemPageSize);
  Bytes io(end - begin, 0);
  // staging_ holds vLog bytes from `begin` onward.
  std::copy_n(staging_.begin(),
              std::min<std::uint64_t>(staging_.size(), vlog_tail_ - begin),
              io.begin());
  clock_->Advance(cost_->host_fs_block_ns);
  block_ios_->Increment();
  BANDSLIM_RETURN_IF_ERROR(ssd_->Write(begin / kMemPageSize, ByteSpan(io)));
  ChargeKernelPath();  // fsync().
  synced_until_ = vlog_tail_;
  // Keep only the partial last block in the page cache image.
  const std::uint64_t new_base = RoundDownPow2(vlog_tail_, kMemPageSize);
  if (new_base > begin) {
    const std::uint64_t drop = new_base - begin;
    staging_.erase(staging_.begin(),
                   staging_.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  return Status::Ok();
}

Status HostKvs::Put(std::string_view key, ByteSpan value) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key must be 1..16 bytes");
  }
  if (value.empty()) {
    return Status::InvalidArgument("empty values are not supported");
  }
  if (value.size() > kMaxValueSize) {
    return Status::InvalidArgument("value larger than kMaxValueSize");
  }
  // write() into the page cache: one kernel crossing + user-copy.
  ChargeKernelPath();
  const std::uint64_t staging_base = RoundDownPow2(synced_until_, kMemPageSize);
  Bytes record;
  record.push_back(static_cast<std::uint8_t>(key.size()));
  record.insert(record.end(), key.begin(), key.end());
  const auto vsize = static_cast<std::uint32_t>(value.size());
  for (int i = 0; i < 4; ++i) {
    record.push_back(static_cast<std::uint8_t>(vsize >> (8 * i)));
  }
  const std::uint64_t value_addr = vlog_tail_ + record.size();
  record.insert(record.end(), value.begin(), value.end());
  staging_.insert(staging_.end(), record.begin(), record.end());
  vlog_tail_ += record.size();
  index_.Put(key, lsm::ValueRef{value_addr, vsize, false});
  ++puts_issued_;
  value_bytes_written_ += value.size();

  if (config_.fsync_each_put) {
    return SyncTail();
  }
  // Page-cache mode: write back only once whole blocks have accumulated.
  if (vlog_tail_ - staging_base >= 4 * kMemPageSize) {
    // Write the full blocks; fsync is NOT issued (volatile window).
    const std::uint64_t end = RoundDownPow2(vlog_tail_, kMemPageSize);
    Bytes io(end - staging_base);
    std::copy_n(staging_.begin(), io.size(), io.begin());
    clock_->Advance(cost_->host_fs_block_ns);
    block_ios_->Increment();
    BANDSLIM_RETURN_IF_ERROR(
        ssd_->Write(staging_base / kMemPageSize, ByteSpan(io)));
    synced_until_ = end;
    staging_.erase(staging_.begin(),
                   staging_.begin() + static_cast<std::ptrdiff_t>(io.size()));
  }
  return Status::Ok();
}

Result<Bytes> HostKvs::Get(std::string_view key) {
  const lsm::ValueRef* found = index_.Get(key);
  if (found == nullptr || found->tombstone) return Status::NotFound();
  const lsm::ValueRef ref = *found;
  Bytes out(ref.size);
  const std::uint64_t staging_base = RoundDownPow2(synced_until_, kMemPageSize);
  std::uint64_t addr = ref.addr;
  std::size_t done = 0;
  // Device-resident prefix (below the page-cache image).
  if (addr < staging_base) {
    const std::uint64_t dev_end = std::min<std::uint64_t>(
        staging_base, addr + ref.size);
    const std::uint64_t lba = addr / kMemPageSize;
    const std::uint64_t lba_end = CeilDiv(dev_end, kMemPageSize);
    Bytes blocks((lba_end - lba) * kMemPageSize);
    ChargeKernelPath();  // pread().
    clock_->Advance(cost_->host_fs_block_ns);
    block_ios_->Increment();
    BANDSLIM_RETURN_IF_ERROR(ssd_->Read(lba, MutByteSpan(blocks)));
    const std::uint64_t off = addr - lba * kMemPageSize;
    const std::size_t n = static_cast<std::size_t>(dev_end - addr);
    std::memcpy(out.data(), blocks.data() + off, n);
    done = n;
    addr = dev_end;
  }
  // Page-cache-resident suffix.
  if (done < out.size()) {
    const std::uint64_t off = addr - staging_base;
    std::memcpy(out.data() + done, staging_.data() + off, out.size() - done);
  }
  return out;
}

Status HostKvs::Delete(std::string_view key) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key must be 1..16 bytes");
  }
  ChargeKernelPath();
  Bytes record;
  record.push_back(static_cast<std::uint8_t>(key.size()));
  record.insert(record.end(), key.begin(), key.end());
  for (int i = 0; i < 4; ++i) {
    record.push_back(static_cast<std::uint8_t>(kTombstoneSize >> (8 * i)));
  }
  staging_.insert(staging_.end(), record.begin(), record.end());
  vlog_tail_ += record.size();
  index_.Delete(key);
  if (config_.fsync_each_put) return SyncTail();
  return Status::Ok();
}

Status HostKvs::Flush() {
  BANDSLIM_RETURN_IF_ERROR(SyncTail());
  // Serialize the index snapshot to the "index file" region (second half of
  // the LBA space) — one buffered write + fsync.
  Bytes snapshot;
  lsm::PutU32(&snapshot, static_cast<std::uint32_t>(index_.entry_count()));
  for (auto it = index_.Begin(); it.Valid(); it.Next()) {
    lsm::PutLengthPrefixed(&snapshot, it.key());
    lsm::PutU64(&snapshot, it.ref().addr);
    lsm::PutU32(&snapshot, it.ref().size);
    snapshot.push_back(it.ref().tombstone ? 1 : 0);
  }
  snapshot.resize(RoundUpPow2(snapshot.size(), kMemPageSize));
  const std::uint64_t index_lba =
      ssd_->nand().geometry().capacity_bytes() / kMemPageSize / 2;
  ChargeKernelPath();
  clock_->Advance(cost_->host_fs_block_ns);
  block_ios_->Increment();
  BANDSLIM_RETURN_IF_ERROR(ssd_->Write(index_lba, ByteSpan(snapshot)));
  ChargeKernelPath();
  return ssd_->FlushCache();
}

Status HostKvs::GetInto(std::string_view key, Bytes* value) {
  auto got = Get(key);
  if (!got.ok()) return got.status();
  *value = std::move(got).value();
  return Status::Ok();
}

// Each batch record walks the full kernel path on its own — there is no
// bulk command a block SSD understands. That per-record syscall tax is the
// conventional-stack baseline the KV-SSD batch ops are measured against.
Status HostKvs::PutBatch(std::span<const KvPair> batch) {
  for (const KvPair& kv : batch) {
    BANDSLIM_RETURN_IF_ERROR(Put(kv.key, ByteSpan(kv.value)));
  }
  return Status::Ok();
}

Result<std::vector<HostKvs::BatchGetResult>> HostKvs::GetBatch(
    std::span<const std::string> keys) {
  std::vector<BatchGetResult> results(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto got = Get(keys[i]);
    if (got.ok()) {
      results[i].found = true;
      results[i].value = std::move(got).value();
    } else if (!got.status().IsNotFound()) {
      return got.status();
    }
  }
  return results;
}

Result<std::uint32_t> HostKvs::DeleteBatch(std::span<const std::string> keys) {
  std::uint32_t removed = 0;
  for (const std::string& key : keys) {
    const lsm::ValueRef* ref = index_.Get(key);
    if (ref == nullptr || ref->tombstone) continue;  // Absent: skipped.
    BANDSLIM_RETURN_IF_ERROR(Delete(key));
    ++removed;
  }
  return removed;
}

KvSsdStats HostKvs::GetStats() const {
  KvSsdStats s;
  s.elapsed_ns = clock_->Now();
  s.values_written = puts_issued_;
  s.value_bytes_written = value_bytes_written_;
  return s;
}

StoreSnapshot HostKvs::Inspect() const {
  StoreSnapshot store;
  InspectInto(&store);
  return store;
}

void HostKvs::InspectInto(StoreSnapshot* out) const {
  out->stats = GetStats();
  out->shards.resize(1);
  DeviceSnapshot& dev = out->shards[0];
  dev.stats = out->stats;
  dev.queues.clear();
  dev.buffer_window_base = 0;
  dev.vlog_tail = vlog_tail_;
  dev.buffer_dma_frontier = 0;
  dev.buffer_resident_bytes = 0;
  dev.ftl_mapped_pages = 0;
  dev.ftl_free_blocks = 0;
  dev.ftl_reserve_blocks = 0;
  dev.ftl_bad_blocks = 0;
  dev.lsm_memtable_entries = 0;
  dev.lsm_memtable_bytes = 0;
  dev.lsm_pending_trim_tables = 0;
  dev.lsm_compaction_debt_bytes = 0;
  dev.lsm_levels.clear();
  metrics_->SnapshotCountersInto(&dev.counters);
  dev.alerts.clear();
  dev.telemetry_samples = 0;
  dev.telemetry_events = 0;
  out->batch_subops = 0;
  out->cross_shard_batches = 0;
  out->qos_refill_windows = 0;
  out->alerts.clear();
  out->fleet_samples = 0;
  out->fleet_events = 0;
}

}  // namespace bandslim::hostkvs
