#include <gtest/gtest.h>

#include <sstream>

#include "cluster/kv_cluster.h"
#include "workload/runner.h"
#include "workload/trace.h"
#include "workload/workloads.h"

namespace bandslim::workload {
namespace {

TEST(HexTest, RoundTrip) {
  const std::string raw("\x00\xff""abc\x7f", 6);
  auto back = HexDecode(HexEncode(raw));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").ok());   // Odd length.
  EXPECT_FALSE(HexDecode("zz").ok());    // Bad digit.
  EXPECT_TRUE(HexDecode("").ok());       // Empty is fine.
}

KvSsdOptions SmallDevice() {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 128;
  o.geometry.pages_per_block = 32;
  return o;
}

// Every field of two runs, histogram buckets included.
void ExpectSameRun(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.requested_value_bytes, b.requested_value_bytes);
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.latency_ns.bucket_counts(), b.latency_ns.bucket_counts());
  EXPECT_EQ(a.latency_ns.sum(), b.latency_ns.sum());
  EXPECT_EQ(a.latency_ns.min(), b.latency_ns.min());
  EXPECT_EQ(a.latency_ns.max(), b.latency_ns.max());
  const KvSsdStats& x = a.delta;
  const KvSsdStats& y = b.delta;
  EXPECT_EQ(x.elapsed_ns, y.elapsed_ns);
  EXPECT_EQ(x.commands_submitted, y.commands_submitted);
  EXPECT_EQ(x.pcie_h2d_bytes, y.pcie_h2d_bytes);
  EXPECT_EQ(x.pcie_d2h_bytes, y.pcie_d2h_bytes);
  EXPECT_EQ(x.mmio_bytes, y.mmio_bytes);
  EXPECT_EQ(x.dma_h2d_bytes, y.dma_h2d_bytes);
  EXPECT_EQ(x.nand_pages_programmed, y.nand_pages_programmed);
  EXPECT_EQ(x.nand_pages_read, y.nand_pages_read);
  EXPECT_EQ(x.nand_blocks_erased, y.nand_blocks_erased);
  EXPECT_EQ(x.vlog_pages_flushed, y.vlog_pages_flushed);
  EXPECT_EQ(x.lsm_pages_programmed, y.lsm_pages_programmed);
  EXPECT_EQ(x.gc_pages_programmed, y.gc_pages_programmed);
  EXPECT_EQ(x.device_memcpy_bytes, y.device_memcpy_bytes);
  EXPECT_EQ(x.buffer_wasted_bytes, y.buffer_wasted_bytes);
  EXPECT_EQ(x.dlt_forced_evictions, y.dlt_forced_evictions);
  EXPECT_EQ(x.values_written, y.values_written);
  EXPECT_EQ(x.value_bytes_written, y.value_bytes_written);
  EXPECT_EQ(x.lsm_compactions, y.lsm_compactions);
  EXPECT_EQ(x.memtable_flushes, y.memtable_flushes);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.get_misses, b.get_misses);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.tenants.size(), b.tenants.size());
}

TEST(TraceTest, WriteReadRoundTrip) {
  OpList trace = {
      {OpKind::kPut, std::string("\x01\x02", 2), 100},
      {OpKind::kGet, "key2", 0},
      {OpKind::kDelete, "key3", 0},
      {OpKind::kPut, "key4", 8192},
  };
  std::stringstream ss;
  WriteTrace(trace, ss);
  auto back = ReadTrace(ss);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 4u);
  EXPECT_EQ(back.value()[0].kind, OpKind::kPut);
  EXPECT_EQ(back.value()[0].key, trace[0].key);
  EXPECT_EQ(back.value()[0].value_size, 100u);
  EXPECT_EQ(back.value()[1].kind, OpKind::kGet);
  EXPECT_EQ(back.value()[2].kind, OpKind::kDelete);
  EXPECT_EQ(back.value()[3].value_size, 8192u);
  EXPECT_EQ(back.value()[3].stamp, 3u);  // Stamped with its op index.
}

TEST(TraceTest, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# header\n\nput 6162 10\n");
  auto trace = ReadTrace(ss);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.value().size(), 1u);
  EXPECT_EQ(trace.value()[0].key, "ab");
}

TEST(TraceTest, RejectsMalformedLines) {
  for (const char* line : {
           "frobnicate 6162\n",
           "put 6162 0\n",    // Zero-size put.
           "put 616 10\n",    // Odd hex key.
           "put 6b -1\n",     // Signed size.
           "put 6b 12abc\n",  // Size with a suffix.
           "get 6b extra\n",  // Trailing token.
       }) {
    std::stringstream ss(line);
    EXPECT_FALSE(ReadTrace(ss).ok()) << line;
  }
}

TEST(TraceTest, RejectsOversizePutBeforeAllocating) {
  std::stringstream ss("put 6b 100000000\n");
  const auto trace = ReadTrace(ss);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
  std::stringstream at_bound("put 6b " + std::to_string(kMaxValueSize) + "\n");
  ASSERT_TRUE(ReadTrace(at_bound).ok());
}

TEST(TraceTest, TraceFromSpecIsDeterministic) {
  // A put spec's op list is reproducible, and its trace reads back to the
  // same keys, sizes and value stamps.
  const OpList t1 = PutOps(MakeWorkloadM(100, 9));
  const OpList t2 = PutOps(MakeWorkloadM(100, 9));
  ASSERT_EQ(t1.size(), 100u);
  std::stringstream ss;
  WriteTrace(t1, ss);
  const OpList back = ReadTrace(ss).value();
  ASSERT_EQ(back.size(), 100u);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].key, t2[i].key);
    EXPECT_EQ(t1[i].value_size, t2[i].value_size);
    EXPECT_EQ(back[i].key, t1[i].key);
    EXPECT_EQ(back[i].value_size, t1[i].value_size);
    EXPECT_EQ(back[i].stamp, t1[i].stamp);
    EXPECT_EQ(back[i].fill, t1[i].fill);
  }
}

TEST(TraceTest, ReplayAgainstDevice) {
  auto ssd = KvSsd::Open(SmallDevice()).value();

  OpList trace = {
      {OpKind::kPut, "alpha", 64},
      {OpKind::kPut, "beta", 2048},
      {OpKind::kGet, "alpha", 0},
      {OpKind::kGet, "missing", 0},
      {OpKind::kDelete, "alpha", 0},
      {OpKind::kGet, "alpha", 0},
  };
  const RunResult result = RunSerial(*ssd, trace, "trace", "replay");
  EXPECT_EQ(result.workload, "trace");
  EXPECT_EQ(result.puts, 2u);
  EXPECT_EQ(result.gets, 3u);
  EXPECT_EQ(result.get_misses, 2u);  // "missing" + deleted "alpha".
  EXPECT_EQ(result.deletes, 1u);
  EXPECT_EQ(result.ops, 6u);
  EXPECT_GT(result.elapsed_ns, 0u);
  // Device state reflects the trace.
  EXPECT_TRUE(ssd->Get("beta").ok());
  EXPECT_TRUE(ssd->Get("alpha").status().IsNotFound());
}

TEST(TraceTest, SpecTraceReplayMatchesRunner) {
  // Replaying a captured spec is the same run as the generator's op list:
  // every RunResult field, counters and latency buckets included.
  auto run = [](const OpList& ops) {
    KvSsdOptions o;
    o.retain_payloads = false;
    auto ssd = KvSsd::Open(o).value();
    return RunSerial(*ssd, ops, "M", "x");
  };
  const OpList ops = PutOps(MakeWorkloadM(500, 4));
  std::stringstream ss;
  WriteTrace(ops, ss);
  const RunResult direct = run(ops);
  const RunResult replay = run(ReadTrace(ss).value());
  EXPECT_EQ(direct.ops, 500u);
  EXPECT_EQ(direct.puts, 500u);
  ExpectSameRun(direct, replay);
}

TEST(TraceTest, ReplayOnOneShardClusterMatchesDevice) {
  OpList trace = PutOps(MakeWorkloadB(300, 6));
  for (std::size_t i = 0; i < 300; i += 3) {
    trace.push_back({OpKind::kGet, trace[i].key, 0});
    if (i % 2 == 0) trace.push_back({OpKind::kDelete, trace[i].key, 0});
  }
  trace.push_back({OpKind::kGet, "absent", 0});

  auto ssd = KvSsd::Open(SmallDevice()).value();
  cluster::ClusterConfig cc;
  cc.num_shards = 1;
  cc.shard = SmallDevice();
  auto fleet = cluster::KvCluster::Open(cc).value();
  const RunResult device = RunSerial(*ssd, trace, "trace", "replay");
  const RunResult routed = RunSerial(*fleet, trace, "trace", "replay");
  EXPECT_EQ(device.get_misses, 1u);
  EXPECT_EQ(device.deletes, 50u);
  EXPECT_EQ(ssd->Now(), fleet->Now());
  ExpectSameRun(device, routed);
}

TEST(TraceTest, GetMissIsCountedAndRunContinues) {
  auto ssd = KvSsd::Open(SmallDevice()).value();
  const OpList trace = {
      {OpKind::kPut, "a", 32},
      {OpKind::kGet, "nope", 0},
      {OpKind::kPut, "b", 32},
      {OpKind::kGet, "b", 0},
  };
  const RunResult result = RunSerial(*ssd, trace, "trace", "replay");
  EXPECT_EQ(result.workload, "trace");  // No [FAILED] marker.
  EXPECT_EQ(result.ops, 4u);
  EXPECT_EQ(result.gets, 2u);
  EXPECT_EQ(result.get_misses, 1u);
  EXPECT_EQ(result.latency_ns.count(), 4u);
  EXPECT_TRUE(ssd->Get("b").ok());  // The op after the miss ran.
}

}  // namespace
}  // namespace bandslim::workload
