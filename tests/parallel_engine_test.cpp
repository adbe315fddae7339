// Multi-queue parallel execution: two runs with the same seed and options
// must be byte-identical (the engine's (time, seq) ordering is the only
// arbiter), and sharding Workload B across 4 queue pairs with the parallel
// NAND scheduler must deliver the modeled speedup the device's channel/way
// parallelism makes available.
#include <gtest/gtest.h>

#include "core/kvssd.h"
#include "workload/runner.h"
#include "workload/workloads.h"

namespace bandslim {
namespace {

constexpr std::uint64_t kOps = 20000;

KvSsdOptions ParallelOptions(std::uint16_t num_queues) {
  KvSsdOptions o;
  o.geometry.channels = 4;
  o.geometry.ways = 8;
  o.geometry.blocks_per_die = 64;
  o.geometry.pages_per_block = 64;
  o.retain_payloads = false;
  o.num_queues = num_queues;
  o.cost.nand_async_program = true;
  o.ftl.stripe_across_dies = true;
  return o;
}

workload::RunResult RunSharded(std::uint16_t streams) {
  auto ssd = KvSsd::Open(ParallelOptions(streams)).value();
  return workload::RunQueueLanes(
      *ssd, workload::PutOps(workload::MakeWorkloadB(kOps)), streams, "B",
      "parallel");
}

void ExpectIdentical(const KvSsdStats& a, const KvSsdStats& b) {
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.commands_submitted, b.commands_submitted);
  EXPECT_EQ(a.pcie_h2d_bytes, b.pcie_h2d_bytes);
  EXPECT_EQ(a.pcie_d2h_bytes, b.pcie_d2h_bytes);
  EXPECT_EQ(a.mmio_bytes, b.mmio_bytes);
  EXPECT_EQ(a.dma_h2d_bytes, b.dma_h2d_bytes);
  EXPECT_EQ(a.nand_pages_programmed, b.nand_pages_programmed);
  EXPECT_EQ(a.nand_pages_read, b.nand_pages_read);
  EXPECT_EQ(a.nand_blocks_erased, b.nand_blocks_erased);
  EXPECT_EQ(a.vlog_pages_flushed, b.vlog_pages_flushed);
  EXPECT_EQ(a.lsm_pages_programmed, b.lsm_pages_programmed);
  EXPECT_EQ(a.gc_pages_programmed, b.gc_pages_programmed);
  EXPECT_EQ(a.device_memcpy_bytes, b.device_memcpy_bytes);
  EXPECT_EQ(a.buffer_wasted_bytes, b.buffer_wasted_bytes);
  EXPECT_EQ(a.values_written, b.values_written);
  EXPECT_EQ(a.value_bytes_written, b.value_bytes_written);
  EXPECT_EQ(a.lsm_compactions, b.lsm_compactions);
  EXPECT_EQ(a.memtable_flushes, b.memtable_flushes);
}

TEST(ParallelEngineTest, FourQueueRunsAreDeterministic) {
  const workload::RunResult a = RunSharded(4);
  const workload::RunResult b = RunSharded(4);
  ASSERT_EQ(a.workload, b.workload);  // No silent [FAILED] divergence.
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.requested_value_bytes, b.requested_value_bytes);
  EXPECT_EQ(a.latency_ns.count(), b.latency_ns.count());
  EXPECT_EQ(a.latency_ns.sum(), b.latency_ns.sum());
  EXPECT_EQ(a.latency_ns.min(), b.latency_ns.min());
  EXPECT_EQ(a.latency_ns.max(), b.latency_ns.max());
  ExpectIdentical(a.delta, b.delta);
}

TEST(ParallelEngineTest, FourQueuesBeatSyncSingleQueueBy2_5x) {
  // The acceptance gate: queue scaling must actually buy modeled
  // throughput, not just reshuffle virtual time.
  KvSsdOptions sync;
  sync.geometry.channels = 4;
  sync.geometry.ways = 8;
  sync.geometry.blocks_per_die = 64;
  sync.geometry.pages_per_block = 64;
  sync.retain_payloads = false;
  auto sync_ssd = KvSsd::Open(sync).value();
  const workload::RunResult base = workload::RunSerial(
      *sync_ssd, workload::PutOps(workload::MakeWorkloadB(kOps)), "B", "sync");

  const workload::RunResult parallel = RunSharded(4);
  ASSERT_EQ(parallel.ops, base.ops);
  EXPECT_GE(parallel.KopsPerSec(), 2.5 * base.KopsPerSec())
      << "sync " << base.KopsPerSec() << " Kops/s vs parallel "
      << parallel.KopsPerSec() << " Kops/s";
}

TEST(ParallelEngineTest, BadLaneCountFailsCleanly) {
  // Zero lanes, or more lanes than queue pairs, is a [FAILED] run that
  // never touches the device — in release builds too, where asserts are
  // compiled out.
  auto ssd = KvSsd::Open(ParallelOptions(2)).value();
  const workload::OpList ops = workload::PutOps(workload::MakeWorkloadB(100));
  for (const std::uint16_t lanes : {0, 3}) {
    const workload::RunResult r =
        workload::RunQueueLanes(*ssd, ops, lanes, "B", "bad");
    EXPECT_NE(r.workload.find("[FAILED: InvalidArgument"), std::string::npos)
        << r.workload;
    EXPECT_EQ(r.ops, 0u);
  }
  EXPECT_EQ(ssd->GetStats().commands_submitted, 0u);
  // The device still runs a valid lane count afterwards.
  const workload::RunResult ok =
      workload::RunQueueLanes(*ssd, ops, 2, "B", "ok");
  EXPECT_EQ(ok.workload, "B");
  EXPECT_EQ(ok.ops, 100u);
}

}  // namespace
}  // namespace bandslim
