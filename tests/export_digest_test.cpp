// Pinned export digests: fixed-seed device, 4-shard fleet and attribution
// scenarios, each run with per-command tracing off and on, hash their
// rendered exports (FNV-1a 64) and compare against recorded constants.
//
// The double-run tests elsewhere only prove that two runs of the SAME build
// agree; these digests pin the bytes across builds. Series ids are assigned
// in first-appearance order and every export renders in id order, so any
// change to the order in which a plane interns its series — a counter
// created mid-run, a histogram that first records mid-run, a queue or LSM
// level that appears, a PowerCycle rebind — changes a digest here even when
// every value is still right.
//
// Every scenario exercises those mid-run appearances on purpose: counters
// created on a live registry (sorting before and after the existing names),
// admission control switched on mid-run (its busy counter is created
// lazily), GET histograms that first record after a PUT-only phase, LSM
// levels that fill as the run goes, and a PowerCycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "cluster/kv_cluster.h"
#include "common/random.h"
#include "core/kvssd.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/telemetry.h"
#include "telemetry/fleet.h"

namespace bandslim::telemetry {
namespace {

using cluster::ClusterConfig;
using cluster::KvCluster;
using cluster::TenantConfig;

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

KvSsdOptions SmallDevice(bool traced) {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 256;
  o.geometry.pages_per_block = 32;
  o.buffer.num_entries = 32;
  o.buffer.dlt_entries = 32;
  o.lsm.memtable_limit_bytes = 8 * 1024;
  o.trace.enabled = traced;
  return o;
}

Bytes ValueOf(std::uint64_t i, std::size_t size) {
  Bytes v(size, static_cast<std::uint8_t>(0x30 + i % 61));
  for (std::size_t b = 0; b < 8 && b < size; ++b) {
    v[b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  return v;
}

std::size_t SizeOf(Xoshiro256& rng) {
  static constexpr std::size_t kSizes[] = {24, 64, 200, 700, 2048, 5000};
  return kSizes[rng() % (sizeof(kSizes) / sizeof(kSizes[0]))];
}

// --- Device ------------------------------------------------------------------

struct DeviceDigests {
  std::uint64_t jsonl;
  std::uint64_t prometheus;
};

DeviceDigests RunDevice(bool traced) {
  KvSsdOptions o = SmallDevice(traced);
  o.num_queues = 2;
  o.telemetry.enabled = true;
  o.telemetry.sample_interval_ns = 20 * sim::kMicrosecond;
  o.telemetry.rules = {ZeroOpStallRule(4),
                       TafBudgetRule(/*taf_milli=*/3000, /*n=*/2),
                       L0PileupRule(/*tables=*/2, /*n=*/1),
                       CompactionDebtRule(/*budget_bytes=*/1024, /*n=*/1),
                       MemtableStallRule(/*stalls=*/1, /*n=*/1),
                       QueueSaturationRule(1, 1, 1)};
  // A rule on a series that only exists once GET traces record.
  WatchdogRule get_p99{"get_p99_high", "trace.op.get.p99",
                       WatchdogRule::Cmp::kAtLeast, 1, 1};
  o.telemetry.rules.push_back(get_p99);
  auto ssd = KvSsd::Open(o).value();
  Xoshiro256 rng(0xD16E57);

  for (std::uint64_t i = 0; i < 240; ++i) {
    const Bytes value = ValueOf(i, SizeOf(rng));
    EXPECT_TRUE(ssd->Put("d" + std::to_string(i), ByteSpan(value)).ok());
  }
  // Counters that appear mid-run: one sorting before every existing name,
  // one after, and the lazily created admission-control counter.
  KvSsd::TestHooks hooks = ssd->Hooks();
  hooks.metrics->GetCounter("aaa.mid_run")->Add(7);
  hooks.metrics->GetCounter("zzz.mid_run")->Add(9);
  hooks.transport->SetAdmissionControl(1, 4, 1000);

  Bytes out;
  for (std::uint64_t i = 0; i < 160; ++i) {
    const std::string key = "d" + std::to_string(rng() % 260);
    const Status st = ssd->GetInto(key, &out);
    EXPECT_TRUE(st.ok() || st.IsNotFound());
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(ssd->Delete("d" + std::to_string(i * 3)).ok());
  }
  EXPECT_TRUE(ssd->Flush().ok());
  EXPECT_TRUE(ssd->PowerCycle().ok());
  hooks = ssd->Hooks();
  hooks.metrics->GetCounter("mmm.after_cycle")->Increment();
  for (std::uint64_t i = 240; i < 400; ++i) {
    const Bytes value = ValueOf(i, SizeOf(rng));
    EXPECT_TRUE(ssd->Put("d" + std::to_string(i), ByteSpan(value)).ok());
    if (i % 4 == 0) {
      const Status st = ssd->GetInto("d" + std::to_string(rng() % 400), &out);
      EXPECT_TRUE(st.ok() || st.IsNotFound());
    }
  }
  EXPECT_TRUE(ssd->Flush().ok());
  hooks.sampler->Finalize();
  EXPECT_GT(ssd->telemetry().samples_emitted(), 20u);
  return {Fnv1a64(ssd->telemetry().ToJsonl()),
          Fnv1a64(ssd->telemetry().ToPrometheusText())};
}

// --- Fleet -------------------------------------------------------------------

struct FleetDigests {
  std::uint64_t jsonl;
  std::uint64_t prometheus;
  std::uint64_t shards;
  std::uint64_t shard0_jsonl;  // Device sampler of shard 0.
};

FleetDigests RunFleet(bool traced) {
  ClusterConfig cc;
  cc.num_shards = 4;
  cc.shard = SmallDevice(traced);
  cc.shard.telemetry.enabled = true;
  cc.shard.telemetry.sample_interval_ns = 20 * sim::kMicrosecond;
  cc.shard.telemetry.rules = {ZeroOpStallRule(4), L0PileupRule(2, 1)};
  cc.fleet.enabled = true;
  cc.fleet.sample_interval_ns = 20 * sim::kMicrosecond;
  cc.fleet.rules = {ShardImbalanceRule(/*ratio_milli=*/2000, /*n=*/2),
                    HotShardP99SkewRule(/*ratio_milli=*/2000, /*n=*/2),
                    RingSkewRule(/*skew_permille=*/100, /*n=*/2),
                    StragglerShardRule(/*n=*/2)};
  auto fleet = KvCluster::Open(cc).value();
  Xoshiro256 rng(0xF1EE7);

  for (std::uint64_t i = 0; i < 320; ++i) {
    EXPECT_TRUE(
        fleet->Put("f" + std::to_string(i), ByteSpan(ValueOf(i, SizeOf(rng))))
            .ok());
  }
  // A counter only shard 2 has, created mid-run.
  fleet->shard(2).Hooks().metrics->GetCounter("aaa.shard2_only")->Add(5);
  Bytes out;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Status st = fleet->GetInto("f" + std::to_string(rng() % 340), &out);
    EXPECT_TRUE(st.ok() || st.IsNotFound());
  }
  // A hot-shard phase: keys drawn from a narrow range.
  for (std::uint64_t i = 0; i < 160; ++i) {
    EXPECT_TRUE(fleet->Put("f" + std::to_string(rng() % 8),
                           ByteSpan(ValueOf(i, SizeOf(rng))))
                    .ok());
  }
  EXPECT_TRUE(fleet->Flush().ok());
  fleet->fleet().Finalize();
  fleet->shard(0).Hooks().sampler->Finalize();
  EXPECT_GT(fleet->fleet().samples_emitted(), 20u);
  return {Fnv1a64(fleet->fleet().ToJsonl()),
          Fnv1a64(fleet->fleet().ToPrometheusText()),
          Fnv1a64(fleet->fleet().ShardsJsonl()),
          Fnv1a64(fleet->shard(0).telemetry().ToJsonl())};
}

// --- Attribution -------------------------------------------------------------

struct AttributionDigests {
  std::uint64_t jsonl;
  std::uint64_t prometheus;
  std::uint64_t shards;
  std::uint64_t slo;
};

AttributionDigests RunAttribution(bool traced) {
  ClusterConfig cc;
  cc.num_shards = 4;
  cc.shard = SmallDevice(traced);
  cc.tenants = {TenantConfig{"frontend", 0, 0, 2000},
                TenantConfig{"batch", 1, 6, 2000}};
  cc.fleet.enabled = true;
  cc.fleet.sample_interval_ns = 20 * sim::kMicrosecond;
  cc.fleet.rules = {ShardImbalanceRule(2000, 2),
                    attribution::TenantBurnRateFastRule(0),
                    attribution::TenantBurnRateSlowRule(0),
                    attribution::TenantBurnRateFastRule(1),
                    attribution::TenantBurnRateSlowRule(1),
                    attribution::HotRangeRule(/*share_permille=*/300, 2)};
  cc.attribution.enabled = true;
  cc.attribution.heat_fanout = 16;
  cc.attribution.slo.resize(2);
  cc.attribution.slo[0].latency_target_ns = 30 * sim::kMicrosecond;
  cc.attribution.slo[1].availability_target_permille = 950;
  auto fleet = KvCluster::Open(cc).value();
  Xoshiro256 rng(0xA77B);

  // Untagged background traffic straight to the shards.
  for (std::uint64_t i = 0; i < 48; ++i) {
    const std::string key = "bg" + std::to_string(i);
    EXPECT_TRUE(fleet->shard(fleet->ShardOf(key))
                    .Put(key, ByteSpan(ValueOf(i, SizeOf(rng))))
                    .ok());
  }
  fleet->SyncClockToShards();

  KvStore& frontend = fleet->Tenant(0);
  KvStore& batch = fleet->Tenant(1);
  Bytes out;
  for (std::uint64_t i = 0; i < 360; ++i) {
    if (rng() % 3 == 0) {
      const std::string key = "b" + std::to_string(rng() % 64);
      const Status st = batch.Put(key, ByteSpan(ValueOf(i, 2048)));
      EXPECT_TRUE(st.ok() || st.code() == StatusCode::kBusy);
    } else if (rng() % 2 == 0) {
      EXPECT_TRUE(frontend
                      .Put("t" + std::to_string(rng() % 200),
                           ByteSpan(ValueOf(i, SizeOf(rng))))
                      .ok());
    } else {
      const std::string key = "t" + std::to_string(rng() % 220);
      const Status st = frontend.GetInto(key, &out);
      EXPECT_TRUE(st.ok() || st.IsNotFound());
    }
  }
  EXPECT_TRUE(fleet->Flush().ok());
  fleet->fleet().Finalize();
  EXPECT_GT(fleet->fleet().samples_emitted(), 20u);
  return {Fnv1a64(fleet->fleet().ToJsonl()),
          Fnv1a64(fleet->fleet().ToPrometheusText()),
          Fnv1a64(fleet->fleet().ShardsJsonl()),
          Fnv1a64(fleet->attribution().SloJsonl())};
}

// Recorded constants. A deliberate change to what a plane exports updates
// these in the same commit, with the reason; an accidental one fails here.
TEST(ExportDigestTest, DeviceUntraced) {
  const DeviceDigests d = RunDevice(false);
  EXPECT_EQ(d.jsonl, 0x78c421b3b467f53aull);
  EXPECT_EQ(d.prometheus, 0x65dc50abab1ed455ull);
}

TEST(ExportDigestTest, DeviceTraced) {
  const DeviceDigests d = RunDevice(true);
  EXPECT_EQ(d.jsonl, 0x6a5765503702244aull);
  EXPECT_EQ(d.prometheus, 0x79f25d450463ef17ull);
}

TEST(ExportDigestTest, FleetUntraced) {
  const FleetDigests d = RunFleet(false);
  EXPECT_EQ(d.jsonl, 0xa2ad4c01e7b54856ull);
  EXPECT_EQ(d.prometheus, 0x3be7b254445df28bull);
  EXPECT_EQ(d.shards, 0x965d249730bdf6baull);
  EXPECT_EQ(d.shard0_jsonl, 0x79b6ce184892afb8ull);
}

TEST(ExportDigestTest, FleetTraced) {
  const FleetDigests d = RunFleet(true);
  EXPECT_EQ(d.jsonl, 0x2723667ad9052a70ull);
  EXPECT_EQ(d.prometheus, 0x3f5811d21b0b5110ull);
  EXPECT_EQ(d.shards, 0x965d249730bdf6baull);
  EXPECT_EQ(d.shard0_jsonl, 0x6db3f41c0869004cull);
}

TEST(ExportDigestTest, AttributionUntraced) {
  const AttributionDigests d = RunAttribution(false);
  EXPECT_EQ(d.jsonl, 0x310d7f66a051caccull);
  EXPECT_EQ(d.prometheus, 0x9539ec0cdde02b1aull);
  EXPECT_EQ(d.shards, 0xc5cbf07af6251e2bull);
  EXPECT_EQ(d.slo, 0xe0ce1579f6ad8c86ull);
}

TEST(ExportDigestTest, AttributionTraced) {
  const AttributionDigests d = RunAttribution(true);
  EXPECT_EQ(d.jsonl, 0x959fe64e185603c4ull);
  EXPECT_EQ(d.prometheus, 0xab7ee3c9154294c5ull);
  EXPECT_EQ(d.shards, 0xc5cbf07af6251e2bull);
  EXPECT_EQ(d.slo, 0xe0ce1579f6ad8c86ull);
}

}  // namespace
}  // namespace bandslim::telemetry
