// Workload front end: op sources feeding two executors.
//
// Every op stream the benches run is first built as one OpList in canonical
// order. Sources: a put WorkloadSpec (PutOps), a MixedWorkloadSpec
// (MixedOps), a TenantBlendSpec (BlendOps) and a trace file
// (workload/trace.h, ReadTrace). Executors:
//   * RunSerial   — ops issue back-to-back on any KvStore (bare KvSsd,
//                   sharded KvCluster, or the conventional HostKvs stack);
//                   a blend issues tenant t's ops through cluster.Tenant(t).
//   * RunQueueLanes / RunShardLanes — closed-loop lanes (one queue driver of
//                   a KvSsd, or one shard of a KvCluster) interleaved by the
//                   event engine on each lane's local time.
// Both collect the per-op latency histogram and the counter deltas the
// paper's figures are built from into one RunResult, under one failure
// rule: kBusy is a shed and NotFound on a GET a miss, and the run goes on;
// any other error stops it with a " [FAILED: ...]" marker on `workload`.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cluster/kv_cluster.h"
#include "core/kv_store.h"
#include "core/kvssd.h"
#include "stats/histogram.h"
#include "workload/workloads.h"

namespace bandslim::workload {

enum class OpKind : std::uint8_t { kPut, kGet, kDelete };

// One client op. A PUT's value is `value_size` bytes: `stamp` little-endian
// in the first min(8, value_size) bytes and `fill` in the rest, so payloads
// differ without a full refill.
struct Op {
  OpKind kind = OpKind::kPut;
  std::string key;
  std::uint32_t value_size = 0;  // PUT only.
  std::uint64_t stamp = 0;
  std::uint16_t tenant = 0;  // Index into RunSerial's tenant surfaces.
  std::uint8_t fill = 0xA5;
};

using OpList = std::vector<Op>;

// Per-tenant outcome of a serial run over several tenant surfaces. `ops`
// counts client ops issued (including shed ones); `shed` counts the kBusy
// rejections among them — sheds are the QoS mechanism working, not a
// workload failure.
struct TenantRunResult {
  std::uint64_t ops = 0;
  std::uint64_t shed = 0;
  std::uint64_t requested_value_bytes = 0;
  stats::Histogram latency_ns;
};

struct RunResult {
  std::string workload;  // Carries " [FAILED: ...]" on a stopping error.
  std::string config;
  std::uint64_t ops = 0;  // Ops issued, sheds and misses included.
  std::uint64_t requested_value_bytes = 0;
  sim::Nanoseconds elapsed_ns = 0;
  stats::Histogram latency_ns;

  // Counter deltas across the run.
  KvSsdStats delta;

  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t get_misses = 0;  // GETs answered NotFound.
  std::uint64_t shed = 0;        // Ops rejected with kBusy.
  // One row per tenant surface when RunSerial is given more than one.
  std::vector<TenantRunResult> tenants;

  double MeanResponseUs() const { return latency_ns.Mean() / 1000.0; }
  double P99ResponseUs() const { return latency_ns.Percentile(99) / 1000.0; }
  double KopsPerSec() const {
    if (elapsed_ns == 0) return 0.0;
    return static_cast<double>(ops) / (static_cast<double>(elapsed_ns) / 1e9) /
           1000.0;
  }
  // Host-to-device traffic per op / amplification factor.
  double TrafficPerOpBytes() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(delta.pcie_h2d_bytes) /
                          static_cast<double>(ops);
  }
  double TrafficAmplification() const {
    return requested_value_bytes == 0
               ? 0.0
               : static_cast<double>(delta.pcie_h2d_bytes) /
                     static_cast<double>(requested_value_bytes);
  }
  double WriteAmplification() const {
    return requested_value_bytes == 0
               ? 0.0
               : static_cast<double>(delta.nand_pages_programmed) *
                     static_cast<double>(kNandPageSize) /
                     static_cast<double>(requested_value_bytes);
  }
};

// Subtracts counters (after - before).
KvSsdStats StatsDelta(const KvSsdStats& after, const KvSsdStats& before);

// --- Sources ---------------------------------------------------------------

// `spec.ops` PUTs; op i is stamped i over 0xA5 (benches measure transfer
// and packing, not data entropy).
OpList PutOps(const WorkloadSpec& spec);

// A GET/PUT mix over `num_keys` preloaded keys; the knob set the shard
// scaling ablation sweeps. Key popularity is either uniform or Zipfian
// (YCSB request distribution). Fully deterministic for a given spec.
struct MixedWorkloadSpec {
  std::string name = "mixed";
  std::uint64_t ops = 0;
  std::uint64_t num_keys = 4096;   // Preloaded key-space size.
  std::size_t value_size = 128;
  std::uint32_t get_permille = 500;  // GET share per mille; the rest update.
  bool zipfian = false;
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
  // Prepended to every MixedKeyName — disjoint prefixes give tenants in a
  // blend disjoint key spaces (and steer which hash ranges they heat up).
  // "" (the default) reproduces the historical key names byte-for-byte.
  std::string key_prefix;
};

// The canonical key name for key-space index `i` ("k" + 8 hex digits).
std::string MixedKeyName(std::uint64_t index);

// PUTs every key of the spec's key space once (serially, through the
// store's normal path) so the mixed run's GETs always hit.
Status PreloadMixedKeys(KvStore& store, const MixedWorkloadSpec& spec);

// The spec's ops. An update of key index k is stamped k over 0x5A, the
// bytes PreloadMixedKeys wrote.
OpList MixedOps(const MixedWorkloadSpec& spec);

// One mixed spec per cluster tenant (index-paired with ClusterConfig's
// tenants). Give the specs disjoint key_prefix values so tenants own
// disjoint key spaces.
struct TenantBlendSpec {
  std::vector<MixedWorkloadSpec> tenants;
  // Seed for the interleaving draw (which tenant issues the next op) —
  // independent of each tenant's own op-sequence seed.
  std::uint64_t seed = 7;
};

// The serial interleaving order: element i names the tenant that issues the
// i-th client op. Drawn weighted by each tenant's REMAINING op budget, so a
// 10:1 blend stays 10:1 throughout the run, deterministically for a given
// seed. Exposed so the pinned-seed regression test can assert blends stay
// reproducible across refactors.
std::vector<std::uint16_t> DrawTenantInterleave(const TenantBlendSpec& spec);

// Preloads every tenant's key space by PUTting each key directly on its
// owner shard (bypassing the router, so the setup work stays UNTAGGED in
// the attribution plane rather than charged to tenant 0), then syncs the
// router clock and flushes.
Status PreloadTenantBlend(cluster::KvCluster& cluster,
                          const TenantBlendSpec& spec);

// Each tenant's MixedOps, tagged with its tenant index and consumed in its
// own canonical order at the slots DrawTenantInterleave gives it.
OpList BlendOps(const TenantBlendSpec& spec);

// --- Executors -------------------------------------------------------------

// Serial run: ops issue back-to-back on the store's own timeline. On a
// KvCluster this is the router's serial path (each op waits for its owner
// shard) — the closed-loop single-client view.
RunResult RunSerial(KvStore& store, const OpList& ops,
                    const std::string& workload, const std::string& config);

// Serial run over tenant surfaces: op.tenant issues through tenants[t], so
// QoS credits, tracer tenant stamps, and the attribution plane all see the
// real tenant. Timing and counters are read on tenants[0]; `tenants` rows
// are filled when there is more than one surface.
RunResult RunSerial(std::span<KvStore* const> tenants, const OpList& ops,
                    const std::string& workload, const std::string& config);

// cluster.Tenant(t) for every configured tenant, in index order.
std::vector<KvStore*> TenantSurfaces(cluster::KvCluster& cluster);

// Queue lanes: op i issues on lane i % num_lanes, lane l on NVMe queue pair
// l (lane 0 rides the device's built-in queue-0 driver; the device must be
// opened with num_queues >= num_lanes). Each lane advances in its own time
// frame; the transport's parallel arbitration (on for the run, restored
// after) plus the NAND channel/way scheduler decide how much of the work
// overlaps. elapsed_ns is the latest lane finish time. With one lane the
// run is op-for-op identical to RunSerial (see tests/figure_anchor_test).
RunResult RunQueueLanes(KvSsd& ssd, const OpList& ops, std::uint16_t num_lanes,
                        const std::string& workload,
                        const std::string& config);

// Shard lanes: the ops are partitioned by owner shard, and each shard
// executes its sub-sequence as an independent closed-loop lane in its own
// time frame, bypassing the router. Every lane starts at the router's time
// (the common dispatch barrier); elapsed_ns is the latest shard finish
// minus that time — the open-loop N-client view the shard scaling ablation
// measures. With num_shards == 1 the run is op-for-op identical to
// RunSerial on the same cluster (one lane, no interleaving).
RunResult RunShardLanes(cluster::KvCluster& cluster, const OpList& ops,
                        const std::string& workload,
                        const std::string& config);

// RunShardLanes over MixedOps(spec), named after the spec.
RunResult RunClusterMixedWorkload(cluster::KvCluster& cluster,
                                  const MixedWorkloadSpec& spec,
                                  const std::string& config_label);

}  // namespace bandslim::workload
