#include "workload/runner.h"

#include <algorithm>
#include <cstdio>

#include "sim/event_engine.h"
#include "workload/key_gen.h"

namespace bandslim::workload {

KvSsdStats StatsDelta(const KvSsdStats& after, const KvSsdStats& before) {
  KvSsdStats d;
  d.elapsed_ns = after.elapsed_ns - before.elapsed_ns;
  d.commands_submitted = after.commands_submitted - before.commands_submitted;
  d.pcie_h2d_bytes = after.pcie_h2d_bytes - before.pcie_h2d_bytes;
  d.pcie_d2h_bytes = after.pcie_d2h_bytes - before.pcie_d2h_bytes;
  d.mmio_bytes = after.mmio_bytes - before.mmio_bytes;
  d.dma_h2d_bytes = after.dma_h2d_bytes - before.dma_h2d_bytes;
  d.nand_pages_programmed =
      after.nand_pages_programmed - before.nand_pages_programmed;
  d.nand_pages_read = after.nand_pages_read - before.nand_pages_read;
  d.nand_blocks_erased = after.nand_blocks_erased - before.nand_blocks_erased;
  d.vlog_pages_flushed = after.vlog_pages_flushed - before.vlog_pages_flushed;
  d.lsm_pages_programmed =
      after.lsm_pages_programmed - before.lsm_pages_programmed;
  d.gc_pages_programmed = after.gc_pages_programmed - before.gc_pages_programmed;
  d.device_memcpy_bytes = after.device_memcpy_bytes - before.device_memcpy_bytes;
  d.buffer_wasted_bytes = after.buffer_wasted_bytes - before.buffer_wasted_bytes;
  d.dlt_forced_evictions =
      after.dlt_forced_evictions - before.dlt_forced_evictions;
  d.values_written = after.values_written - before.values_written;
  d.value_bytes_written =
      after.value_bytes_written - before.value_bytes_written;
  d.lsm_compactions = after.lsm_compactions - before.lsm_compactions;
  d.memtable_flushes = after.memtable_flushes - before.memtable_flushes;
  return d;
}

// --- Sources ----------------------------------------------------------------

namespace {

constexpr std::uint8_t kMixedFill = 0x5A;

// Writes the low min(8, size) bytes of `stamp` into the value head.
void Stamp(std::uint8_t* value, std::size_t size, std::uint64_t stamp) {
  for (std::size_t b = 0; b < 8 && b < size; ++b) {
    value[b] = static_cast<std::uint8_t>(stamp >> (8 * b));
  }
}

// spec.key_prefix + canonical name; the default "" prefix concatenates to
// the historical key byte-for-byte.
std::string SpecKeyName(const MixedWorkloadSpec& spec, std::uint64_t index) {
  return spec.key_prefix + MixedKeyName(index);
}

}  // namespace

OpList PutOps(const WorkloadSpec& spec) {
  OpList ops;
  ops.reserve(spec.ops);
  Xoshiro256 rng(spec.seed);
  spec.keys->Reset();
  for (std::uint64_t i = 0; i < spec.ops; ++i) {
    Op& op = ops.emplace_back();
    op.key = spec.keys->Next();
    op.value_size = static_cast<std::uint32_t>(spec.sizes->Next(rng));
    op.stamp = i;
  }
  return ops;
}

std::string MixedKeyName(std::uint64_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08llx",
                static_cast<unsigned long long>(index));
  return buf;
}

Status PreloadMixedKeys(KvStore& store, const MixedWorkloadSpec& spec) {
  Bytes value(spec.value_size, kMixedFill);
  for (std::uint64_t i = 0; i < spec.num_keys; ++i) {
    Stamp(value.data(), value.size(), i);
    BANDSLIM_RETURN_IF_ERROR(store.Put(SpecKeyName(spec, i), ByteSpan(value)));
  }
  return store.Flush();
}

OpList MixedOps(const MixedWorkloadSpec& spec) {
  OpList ops;
  ops.reserve(spec.ops);
  Xoshiro256 rng(spec.seed);
  ZipfianKeyChooser zipf(spec.num_keys, spec.zipf_theta, spec.seed + 1);
  for (std::uint64_t i = 0; i < spec.ops; ++i) {
    Op& op = ops.emplace_back();
    const bool is_get = (rng() % 1000) < spec.get_permille;
    op.stamp = spec.zipfian ? zipf.NextIndex() : rng() % spec.num_keys;
    op.key = SpecKeyName(spec, op.stamp);
    op.kind = is_get ? OpKind::kGet : OpKind::kPut;
    op.value_size = is_get ? 0 : static_cast<std::uint32_t>(spec.value_size);
    op.fill = kMixedFill;
  }
  return ops;
}

std::vector<std::uint16_t> DrawTenantInterleave(const TenantBlendSpec& spec) {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> remaining(spec.tenants.size(), 0);
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    remaining[t] = spec.tenants[t].ops;
    total += remaining[t];
  }
  std::vector<std::uint16_t> order;
  order.reserve(total);
  Xoshiro256 rng(spec.seed);
  while (total > 0) {
    // Weighted draw over REMAINING budgets: pick the tenant owning the
    // `pick`-th undrawn op. Keeps the blend's mix ratio steady through the
    // whole run instead of front-loading the heavy tenant.
    std::uint64_t pick = rng() % total;
    for (std::uint16_t t = 0; t < remaining.size(); ++t) {
      if (pick < remaining[t]) {
        order.push_back(t);
        --remaining[t];
        --total;
        break;
      }
      pick -= remaining[t];
    }
  }
  return order;
}

Status PreloadTenantBlend(cluster::KvCluster& cluster,
                          const TenantBlendSpec& spec) {
  // Harness-driven direct shard traffic: PUT each key on its owner shard,
  // bypassing the router, so the preload is NOT charged to any tenant — it
  // lands in the attribution plane's untagged residual, exactly like any
  // other background/setup work.
  for (const MixedWorkloadSpec& tenant : spec.tenants) {
    Bytes value(tenant.value_size, kMixedFill);
    for (std::uint64_t i = 0; i < tenant.num_keys; ++i) {
      Stamp(value.data(), value.size(), i);
      const std::string key = SpecKeyName(tenant, i);
      BANDSLIM_RETURN_IF_ERROR(
          cluster.shard(cluster.ShardOf(key)).Put(key, ByteSpan(value)));
    }
  }
  cluster.SyncClockToShards();
  return cluster.Flush();
}

OpList BlendOps(const TenantBlendSpec& spec) {
  std::vector<OpList> per_tenant(spec.tenants.size());
  std::vector<std::size_t> cursor(spec.tenants.size(), 0);
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    per_tenant[t] = MixedOps(spec.tenants[t]);
    for (Op& op : per_tenant[t]) op.tenant = static_cast<std::uint16_t>(t);
  }
  const std::vector<std::uint16_t> order = DrawTenantInterleave(spec);
  OpList ops;
  ops.reserve(order.size());
  for (const std::uint16_t t : order) {
    ops.push_back(std::move(per_tenant[t][cursor[t]++]));
  }
  return ops;
}

// --- Executors --------------------------------------------------------------

namespace {

// One issuer's value bytes, rebuilt per PUT from the op's stamp and fill.
class ValueBuffer {
 public:
  ByteSpan For(const Op& op) {
    if (op.fill != fill_ || op.value_size > bytes_.size()) {
      bytes_.assign(std::max<std::size_t>(bytes_.size(), op.value_size),
                    op.fill);
      fill_ = op.fill;
    }
    Stamp(bytes_.data(), op.value_size, op.stamp);
    return ByteSpan(bytes_).subspan(0, op.value_size);
  }

 private:
  Bytes bytes_;
  int fill_ = -1;  // No fill yet.
};

// Works on a KvStore (serial) and on a driver::KvDriver (lanes) alike.
template <typename Target>
Status Issue(Target& target, const Op& op, ValueBuffer* value, Bytes* got) {
  switch (op.kind) {
    case OpKind::kPut:
      return target.Put(op.key, value->For(op));
    case OpKind::kGet:
      return target.GetInto(op.key, got);
    case OpKind::kDelete:
      return target.Delete(op.key);
  }
  return Status::InvalidArgument("unknown op kind");
}

void MarkFailed(RunResult* r, const Status& st) {
  r->workload += " [FAILED: " + st.ToString() + "]";
}

// The one failure rule: a shed (kBusy) or a GET miss is booked and the run
// goes on; any other error marks the run failed and returns false.
bool Book(const Op& op, const Status& st, sim::Nanoseconds latency,
          RunResult* r) {
  if (!st.ok() && !st.IsBusy() &&
      !(op.kind == OpKind::kGet && st.IsNotFound())) {
    MarkFailed(r, st);
    return false;
  }
  const std::uint64_t bytes = op.kind == OpKind::kPut ? op.value_size : 0;
  const bool shed = st.IsBusy();
  r->ops += 1;
  r->requested_value_bytes += bytes;
  r->latency_ns.Record(latency);
  r->puts += op.kind == OpKind::kPut;
  r->gets += op.kind == OpKind::kGet;
  r->deletes += op.kind == OpKind::kDelete;
  r->get_misses += st.IsNotFound();
  r->shed += shed;
  if (!r->tenants.empty()) {
    TenantRunResult& row = r->tenants[op.tenant];
    row.ops += 1;
    row.shed += shed;
    row.requested_value_bytes += bytes;
    row.latency_ns.Record(latency);
  }
  return true;
}

RunResult Named(const std::string& workload, const std::string& config) {
  RunResult result;
  result.workload = workload;
  result.config = config;
  return result;
}

// One closed-loop lane: its ops (indices into the canonical list, in
// order), the driver it issues on and the clock of its time frame.
struct Lane {
  driver::KvDriver* driver = nullptr;
  const sim::VirtualClock* clock = nullptr;
  std::vector<std::uint32_t> ops;
  std::size_t next = 0;
  ValueBuffer value;
  Bytes got;
};

// Interleaves the lanes on `engine_clock`, starting every lane at `start`:
// each lane's turn runs one op in the lane's time frame, then books the
// lane's next turn at its new local time. The engine always picks the lane
// with the smallest local time (ties by schedule order), so the
// interleaving is deterministic. Returns the latest lane finish.
class LaneRun {
 public:
  LaneRun(const OpList& ops, std::vector<Lane>* lanes,
          sim::VirtualClock* engine_clock, RunResult* result)
      : ops_(ops), lanes_(*lanes), engine_(engine_clock), result_(result) {}

  sim::Nanoseconds Run(sim::Nanoseconds start) {
    latest_ = start;
    // At most one pending turn per lane: pre-size the heap and the callback
    // arena (plus slack for the drain buffer) so the loop never grows them.
    engine_.Reserve(2 * lanes_.size() + 4);
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      if (lanes_[l].ops.empty()) continue;
      engine_.Schedule(start, [this, l] { Turn(l); });
    }
    engine_.RunUntilIdle();
    return latest_;
  }

 private:
  void Turn(std::size_t l) {
    if (failed_) return;
    Lane& lane = lanes_[l];
    const Op& op = ops_[lane.ops[lane.next]];
    const sim::Nanoseconds op_start = lane.clock->Now();
    const Status st = Issue(*lane.driver, op, &lane.value, &lane.got);
    if (!Book(op, st, lane.clock->Now() - op_start, result_)) {
      failed_ = true;
      return;
    }
    latest_ = std::max(latest_, lane.clock->Now());
    if (++lane.next < lane.ops.size()) {
      engine_.Schedule(lane.clock->Now(), [this, l] { Turn(l); });
    }
  }

  const OpList& ops_;
  std::vector<Lane>& lanes_;
  sim::EventEngine engine_;
  RunResult* result_;
  sim::Nanoseconds latest_ = 0;
  bool failed_ = false;
};

}  // namespace

RunResult RunSerial(KvStore& store, const OpList& ops,
                    const std::string& workload, const std::string& config) {
  KvStore* const surface = &store;
  return RunSerial(std::span<KvStore* const>(&surface, 1), ops, workload,
                   config);
}

RunResult RunSerial(std::span<KvStore* const> tenants, const OpList& ops,
                    const std::string& workload, const std::string& config) {
  RunResult result = Named(workload, config);
  if (tenants.size() > 1) result.tenants.resize(tenants.size());
  KvStore& store = *tenants[0];
  ValueBuffer value;
  Bytes got;

  const KvSsdStats before = store.GetStats();
  const sim::Nanoseconds start = store.Now();
  for (const Op& op : ops) {
    if (op.tenant >= tenants.size()) {
      MarkFailed(&result, Status::InvalidArgument("op tenant has no surface"));
      break;
    }
    KvStore& surface = *tenants[op.tenant];
    const sim::Nanoseconds op_start = surface.Now();
    const Status st = Issue(surface, op, &value, &got);
    if (!Book(op, st, surface.Now() - op_start, &result)) break;
  }
  result.elapsed_ns = store.Now() - start;
  result.delta = StatsDelta(store.GetStats(), before);
  return result;
}

std::vector<KvStore*> TenantSurfaces(cluster::KvCluster& cluster) {
  std::vector<KvStore*> surfaces;
  for (std::size_t t = 0; t < cluster.num_tenants(); ++t) {
    surfaces.push_back(&cluster.Tenant(t));
  }
  return surfaces;
}

RunResult RunQueueLanes(KvSsd& ssd, const OpList& ops, std::uint16_t num_lanes,
                        const std::string& workload,
                        const std::string& config) {
  RunResult result = Named(workload, config);
  if (num_lanes == 0 || num_lanes > ssd.options().num_queues) {
    MarkFailed(&result, Status::InvalidArgument(
                            "queue lanes must be 1..num_queues, got " +
                            std::to_string(num_lanes)));
    return result;
  }
  KvSsd::TestHooks hooks = ssd.Hooks();
  sim::VirtualClock& clock = *hooks.clock;
  // Lane l gets ops l, l+S, l+2S, ... (S = num_lanes) and its own
  // driver/queue pair; lane 0 rides the device's built-in queue-0 driver.
  // One value buffer per lane: it must stay intact while other lanes
  // interleave between its fragments' submissions.
  std::vector<Lane> lanes;
  lanes.reserve(num_lanes);
  for (std::uint16_t l = 0; l < num_lanes; ++l) {
    Lane& lane = lanes.emplace_back();
    lane.driver = l == 0
                      ? hooks.driver
                      : ssd.CreateQueueDriver(l, ssd.options().driver).value();
    lane.clock = &clock;
    lane.ops.reserve(ops.size() / num_lanes + 1);
  }
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    lanes[i % num_lanes].ops.push_back(i);
  }

  const bool was_parallel = hooks.transport->parallel_arbitration();
  hooks.transport->SetParallelArbitration(true);
  const KvSsdStats before = ssd.GetStats();
  const sim::Nanoseconds start = clock.Now();
  // The engine runs on the device clock: each turn enters its lane's frame.
  const sim::Nanoseconds finish =
      LaneRun(ops, &lanes, &clock, &result).Run(start);
  // Leave the clock at the run's end (the last event may have been an
  // earlier-finishing lane's frame).
  clock.SetTime(std::max(clock.Now(), finish));
  hooks.transport->SetParallelArbitration(was_parallel);

  result.elapsed_ns = finish - start;
  result.delta = StatsDelta(ssd.GetStats(), before);
  return result;
}

RunResult RunShardLanes(cluster::KvCluster& cluster, const OpList& ops,
                        const std::string& workload,
                        const std::string& config) {
  RunResult result = Named(workload, config);
  const std::uint32_t num_shards = cluster.num_shards();
  std::vector<std::uint32_t> owner(ops.size());
  std::vector<std::size_t> count(num_shards, 0);
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    owner[i] = cluster.ShardOf(ops[i].key);
    ++count[owner[i]];
  }
  std::vector<Lane> lanes;
  lanes.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    Lane& lane = lanes.emplace_back();
    lane.driver = cluster.shard(s).Hooks().driver;
    lane.clock = &cluster.shard(s).clock();
    lane.ops.reserve(count[s]);
  }
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    lanes[owner[i]].ops.push_back(i);
  }

  // Common dispatch barrier: every shard starts in the router's frame.
  const sim::Nanoseconds start = cluster.Now();
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    cluster.shard(s).Hooks().clock->AdvanceTo(start);
  }
  const KvSsdStats before = cluster.GetStats();
  // The engine orders lane turns by each shard's LOCAL time on a scratch
  // clock; the shards themselves keep their own clocks. Shards share no
  // simulated resources, so the interleaving affects only host-side append
  // order (deterministic either way) — but it mirrors how a real multi-
  // device host drains completions in global time order.
  sim::VirtualClock scratch;
  scratch.SetTime(start);
  const sim::Nanoseconds finish =
      LaneRun(ops, &lanes, &scratch, &result).Run(start);
  // Hand the router a consistent timeline: the run ends when the slowest
  // shard finishes.
  cluster.SyncClockToShards();

  result.elapsed_ns = finish - start;
  result.delta = StatsDelta(cluster.GetStats(), before);
  result.delta.elapsed_ns = result.elapsed_ns;
  return result;
}

RunResult RunClusterMixedWorkload(cluster::KvCluster& cluster,
                                  const MixedWorkloadSpec& spec,
                                  const std::string& config_label) {
  return RunShardLanes(cluster, MixedOps(spec), spec.name, config_label);
}

}  // namespace bandslim::workload
