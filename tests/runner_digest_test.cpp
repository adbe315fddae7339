// Pinned runner digests: fixed-seed runs of every op source through both
// executors hash their RunResult (FNV-1a 64 over ops, requested bytes,
// elapsed time, latency buckets and sum, every KvSsdStats delta field, and
// the per-tenant rows) and compare against recorded constants.
//
// The constants were recorded with the per-workload runners this front end
// replaced (RunPutWorkload, RunShardedPutWorkload, RunMixedWorkload,
// RunClusterMixedWorkload, RunTenantBlendWorkload, ReplayTrace; the blend's
// and the replay's totals and deltas were summed and read by the test
// there), so they pin that folding the loops moved no simulated number:
// op order, keys, sizes, turn order and clock handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "cluster/kv_cluster.h"
#include "core/kvssd.h"
#include "workload/runner.h"
#include "workload/trace.h"
#include "workload/workloads.h"

namespace bandslim::workload {
namespace {

using cluster::ClusterConfig;
using cluster::KvCluster;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void Add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint8_t>(v >> (8 * b));
      h *= 0x100000001b3ull;
    }
  }
  void Add(const stats::Histogram& lat) {
    for (const std::uint64_t b : lat.bucket_counts()) Add(b);
    Add(lat.sum());
  }
  void Add(const KvSsdStats& d) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(d.elapsed_ns), d.commands_submitted,
          d.pcie_h2d_bytes, d.pcie_d2h_bytes, d.mmio_bytes, d.dma_h2d_bytes,
          d.nand_pages_programmed, d.nand_pages_read, d.nand_blocks_erased,
          d.vlog_pages_flushed, d.lsm_pages_programmed, d.gc_pages_programmed,
          d.device_memcpy_bytes, d.buffer_wasted_bytes,
          d.dlt_forced_evictions, d.values_written, d.value_bytes_written,
          d.lsm_compactions, d.memtable_flushes}) {
      Add(v);
    }
  }
};

std::uint64_t Digest(const RunResult& r) {
  EXPECT_EQ(r.workload.find("FAILED"), std::string::npos) << r.workload;
  Fnv f;
  f.Add(r.ops);
  f.Add(r.requested_value_bytes);
  f.Add(static_cast<std::uint64_t>(r.elapsed_ns));
  f.Add(r.latency_ns);
  f.Add(r.delta);
  return f.h;
}

KvSsdOptions SmallDevice() {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 4;
  o.geometry.blocks_per_die = 128;
  o.geometry.pages_per_block = 32;
  o.lsm.memtable_limit_bytes = 16 * 1024;
  o.num_queues = 4;
  return o;
}

MixedWorkloadSpec Mixed() {
  MixedWorkloadSpec spec;
  spec.ops = 1500;
  spec.num_keys = 256;
  spec.value_size = 160;
  spec.get_permille = 400;
  spec.zipfian = true;
  spec.seed = 19;
  return spec;
}

ClusterConfig Fleet(std::uint32_t shards) {
  ClusterConfig cc;
  cc.num_shards = shards;
  cc.shard = SmallDevice();
  return cc;
}

std::uint64_t PutSerial() {
  auto ssd = KvSsd::Open(SmallDevice()).value();
  return Digest(RunSerial(*ssd, PutOps(MakeWorkloadM(2000, 5)), "M", "serial"));
}

std::uint64_t QueueLanes(std::uint16_t lanes) {
  auto ssd = KvSsd::Open(SmallDevice()).value();
  return Digest(
      RunQueueLanes(*ssd, PutOps(MakeWorkloadB(2000, 3)), lanes, "B", "lanes"));
}

std::uint64_t MixedSerialDevice() {
  auto ssd = KvSsd::Open(SmallDevice()).value();
  EXPECT_TRUE(PreloadMixedKeys(*ssd, Mixed()).ok());
  return Digest(RunSerial(*ssd, MixedOps(Mixed()), "mixed", "serial"));
}

std::uint64_t MixedSerialCluster() {
  auto fleet = KvCluster::Open(Fleet(4)).value();
  EXPECT_TRUE(PreloadMixedKeys(*fleet, Mixed()).ok());
  return Digest(RunSerial(*fleet, MixedOps(Mixed()), "mixed", "serial"));
}

std::uint64_t ShardLanes(std::uint32_t shards) {
  auto fleet = KvCluster::Open(Fleet(shards)).value();
  EXPECT_TRUE(PreloadMixedKeys(*fleet, Mixed()).ok());
  return Digest(RunClusterMixedWorkload(*fleet, Mixed(), "lanes"));
}

// A 4-shard blend whose hog tenant outruns its admission credits.
std::uint64_t Blend() {
  ClusterConfig cc = Fleet(4);
  cc.tenants.resize(2);
  cc.tenants[1].queue_id = 1;
  cc.tenants[1].credits_per_window = 4;
  cc.qos_refill_window_ns = 500 * sim::kMicrosecond;
  auto fleet = KvCluster::Open(cc).value();
  TenantBlendSpec blend;
  blend.seed = 5;
  blend.tenants.resize(2);
  blend.tenants[0] = Mixed();
  blend.tenants[0].ops = 900;
  blend.tenants[0].key_prefix = "v:";
  blend.tenants[1].ops = 600;
  blend.tenants[1].num_keys = 4;
  blend.tenants[1].value_size = 1024;
  blend.tenants[1].get_permille = 100;
  blend.tenants[1].seed = 23;
  blend.tenants[1].key_prefix = "h:";
  EXPECT_TRUE(PreloadTenantBlend(*fleet, blend).ok());
  const RunResult r =
      RunSerial(TenantSurfaces(*fleet), BlendOps(blend), "blend", "blend");
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.tenants.size(), 2u);
  Fnv f;
  f.h = Digest(r);
  for (const TenantRunResult& t : r.tenants) {
    f.Add(t.ops);
    f.Add(t.shed);
    f.Add(t.requested_value_bytes);
    f.Add(t.latency_ns);
  }
  return f.h;
}

std::uint64_t Replay() {
  auto ssd = KvSsd::Open(SmallDevice()).value();
  std::stringstream trace;
  WriteTrace(PutOps(MakeWorkloadM(2000, 8)), trace);
  const RunResult r = RunSerial(*ssd, ReadTrace(trace).value(), "trace", "");
  Fnv f;
  f.Add(r.ops);
  f.Add(r.requested_value_bytes);
  f.Add(static_cast<std::uint64_t>(r.elapsed_ns));
  f.Add(r.delta);
  f.Add(r.puts);
  f.Add(r.gets);
  f.Add(r.deletes);
  f.Add(r.get_misses);
  return f.h;
}

TEST(RunnerDigestTest, PutSerial) {
  EXPECT_EQ(PutSerial(), 0x8647f3249d6d7f9eull);
}

TEST(RunnerDigestTest, QueueLanes) {
  EXPECT_EQ(QueueLanes(1), 0x591fd5b477a403d8ull);
  EXPECT_EQ(QueueLanes(4), 0xa8091f810320e462ull);
}

TEST(RunnerDigestTest, MixedSerial) {
  EXPECT_EQ(MixedSerialDevice(), 0xdb3f921c98cf3aafull);
  EXPECT_EQ(MixedSerialCluster(), 0xeec6987782d6a034ull);
}

TEST(RunnerDigestTest, ShardLanes) {
  // One shard lane is the serial run on a bare device, digest for digest.
  EXPECT_EQ(ShardLanes(1), 0xdb3f921c98cf3aafull);
  EXPECT_EQ(ShardLanes(4), 0x66acdb79dd305564ull);
}

TEST(RunnerDigestTest, TenantBlendWithSheds) {
  EXPECT_EQ(Blend(), 0x3b9587bb2df2df85ull);
}

TEST(RunnerDigestTest, SpecTraceReplay) {
  EXPECT_EQ(Replay(), 0x21c76fbe9c7b2afaull);
}

}  // namespace
}  // namespace bandslim::workload
