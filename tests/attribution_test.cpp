// Attribution-plane tests (telemetry/attribution, DESIGN.md 2.10): the
// hand-computable unit arithmetic of the SLO ledger / charge bracketing /
// key-space heat decay, plus the cluster-level invariants — exact
// per-interval reconciliation of tenant + untagged deltas against the fleet
// timeline, burn-rate alerts riding the fleet watchdog with tenant-stamped
// events, observation-only neutrality when disabled, byte-identical
// double-run exports, and tenant stamps in the per-shard trace CSV.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/kv_cluster.h"
#include "core/kvssd.h"
#include "stats/metrics.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/fleet.h"
#include "telemetry/sample.h"
#include "telemetry/watchdog.h"
#include "trace/trace.h"

namespace bandslim::telemetry::attribution {
namespace {

using cluster::ClusterConfig;
using cluster::KvCluster;
using cluster::TenantConfig;

std::uint64_t V(const SeriesTable& table, const Sample& s,
                const std::string& name) {
  const std::int64_t id = table.Find(name);
  return id < 0 ? 0 : s.Value(static_cast<std::uint32_t>(id));
}

// Folds one fleet sample's attribution series the way
// FleetAggregator::TakeSample does, over a 1 ms interval.
Sample Fold(AttributionPlane& plane, SeriesSlots* slots,
            const AttributionPlane::FleetTotals& totals) {
  Sample s;
  s.interval_ns = sim::kMillisecond;
  slots->Begin();
  plane.OnFleetSample(s.interval_ns, slots, totals);
  slots->Finish(&s);
  return s;
}

std::uint64_t FleetValue(const FleetAggregator& fleet, const Sample& s,
                         const std::string& name) {
  return V(fleet.series(), s, name);
}

// --- Unit level: the plane driven directly ----------------------------------

TEST(AttributionPlaneTest, SloLedgerHandComputed) {
  AttributionConfig cfg;
  cfg.enabled = true;
  cfg.heat_fanout = 4;
  SloConfig slo;
  slo.latency_target_ns = 1000;
  slo.availability_target_permille = 990;  // Allowed bad: 10 permille.
  slo.fast_windows = 1;
  slo.slow_windows = 2;
  cfg.slo = {slo};
  AttributionPlane plane(cfg);
  stats::MetricsRegistry reg;
  plane.Bind({&reg}, {"t0"});

  // Five ops: two good, one answered-but-slow, one shed, one error.
  plane.RecordOp(0, 500, StatusCode::kOk, 64);
  plane.RecordOp(0, 500, StatusCode::kNotFound, 0);  // Answered = not bad.
  plane.RecordOp(0, 2000, StatusCode::kOk, 0);       // Over latency target.
  plane.RecordOp(0, 700, StatusCode::kBusy, 0);      // Admission shed.
  plane.RecordOp(0, 900, StatusCode::kIoError, 0);

  const AttributionPlane::TenantCharges& t = plane.tenant_charges(0);
  EXPECT_EQ(t.ops, 5u);
  EXPECT_EQ(t.ok_ops, 3u);  // kOk, kNotFound, and the slow kOk all answered.
  EXPECT_EQ(t.shed_ops, 1u);
  EXPECT_EQ(t.error_ops, 1u);
  EXPECT_EQ(t.good_ops, 2u);
  EXPECT_EQ(t.bad_ops, 3u);
  EXPECT_EQ(t.requested_bytes, 64u);
  EXPECT_EQ(plane.tenant_latency(0).count(), 5u);

  SeriesSlots slots;
  const SeriesTable& table = slots.table();
  AttributionPlane::FleetTotals totals;
  const Sample s1 = Fold(plane, &slots, totals);

  // Burn = bad-share / allowed-share x1000: 3 bad of 5 ops = 600 permille
  // bad over a 10-permille allowance -> 60000 milli on both windows; the
  // lifetime budget spend is the same ratio in permille of the budget.
  EXPECT_EQ(V(table, s1, "tenant0.slo.good"), 2u);
  EXPECT_EQ(V(table, s1, "tenant0.slo.bad"), 3u);
  EXPECT_EQ(V(table, s1, "tenant0.slo.delta.bad"), 3u);
  EXPECT_EQ(V(table, s1, "tenant0.slo.burn_fast_milli"), 60000u);
  EXPECT_EQ(V(table, s1, "tenant0.slo.burn_slow_milli"), 60000u);
  EXPECT_EQ(V(table, s1, "tenant0.slo.budget_spent_permille"), 60000u);
  EXPECT_EQ(V(table, s1, "tenant0.ops"), 5u);
  EXPECT_EQ(V(table, s1, "tenant0.delta.ops"), 5u);
  EXPECT_EQ(V(table, s1, "tenant0.shed"), 1u);
  EXPECT_EQ(V(table, s1, "tenant0.errors"), 1u);
  EXPECT_EQ(plane.slo_state(0).burn_fast_milli, 60000u);

  // A quiet interval: the fast window (1 interval) empties and reads 0, the
  // slow window (2 intervals) still holds the bad burst; lifetime budget
  // spend does not decay.
  const Sample s2 = Fold(plane, &slots, totals);
  EXPECT_EQ(V(table, s2, "tenant0.slo.delta.bad"), 0u);
  EXPECT_EQ(V(table, s2, "tenant0.slo.burn_fast_milli"), 0u);
  EXPECT_EQ(V(table, s2, "tenant0.slo.burn_slow_milli"), 60000u);
  EXPECT_EQ(V(table, s2, "tenant0.slo.budget_spent_permille"), 60000u);

  // One more quiet interval rolls the burst out of the slow window too.
  const Sample s3 = Fold(plane, &slots, totals);
  EXPECT_EQ(V(table, s3, "tenant0.slo.burn_slow_milli"), 0u);
  EXPECT_EQ(V(table, s3, "tenant0.slo.budget_spent_permille"), 60000u);
}

TEST(AttributionPlaneTest, ChargeBracketingAndUntaggedResidual) {
  AttributionConfig cfg;
  cfg.enabled = true;
  AttributionPlane plane(cfg);
  stats::MetricsRegistry reg;
  plane.Bind({&reg}, {"t0"});

  // Bind cached these counters via the registry's find-or-create path; the
  // test mutates the same objects the way a shard op would.
  stats::Counter* ops = reg.GetCounter("nvme.commands_submitted");
  stats::Counter* value_bytes = reg.GetCounter("controller.value_bytes_written");
  stats::Counter* mmio = reg.GetCounter("pcie.mmio.h2d_bytes");
  stats::Counter* dma = reg.GetCounter("pcie.dma_data.h2d_bytes");
  stats::Counter* nand = reg.GetCounter("nand.pages_programmed");

  plane.ChargeBegin(0);
  ops->Add(3);
  value_bytes->Add(100);
  mmio->Add(10);
  dma->Add(30);
  nand->Add(2);
  plane.ChargeEnd(0, 0);
  // Background (unbracketed) work: charged to nobody, lands in the residual.
  ops->Add(5);
  value_bytes->Add(7);

  const AttributionPlane::TenantCharges& t = plane.tenant_charges(0);
  EXPECT_EQ(t.dev_ops, 3u);
  EXPECT_EQ(t.value_bytes, 100u);
  EXPECT_EQ(t.pcie_h2d_bytes, 40u);
  EXPECT_EQ(t.nand_pages, 2u);

  SeriesSlots slots;
  const SeriesTable& table = slots.table();
  AttributionPlane::FleetTotals totals;
  totals.ops = 8;
  totals.value_bytes = 107;
  totals.pcie_h2d_bytes = 40;
  totals.nand_pages = 2;
  const Sample s1 = Fold(plane, &slots, totals);

  EXPECT_EQ(plane.untagged().dev_ops, 5u);
  EXPECT_EQ(plane.untagged().value_bytes, 7u);
  EXPECT_EQ(plane.untagged().pcie_h2d_bytes, 0u);
  EXPECT_EQ(V(table, s1, "tenant0.dev.ops"), 3u);
  EXPECT_EQ(V(table, s1, "tenant0.delta.dev.ops"), 3u);
  EXPECT_EQ(V(table, s1, "untagged.dev.ops"), 5u);
  EXPECT_EQ(V(table, s1, "untagged.delta.dev.ops"), 5u);
  EXPECT_EQ(V(table, s1, "untagged.delta.value_bytes"), 7u);

  // No traffic since: cumulatives hold, every delta reads 0.
  const Sample s2 = Fold(plane, &slots, totals);
  EXPECT_EQ(V(table, s2, "tenant0.dev.ops"), 3u);
  EXPECT_EQ(V(table, s2, "tenant0.delta.dev.ops"), 0u);
  EXPECT_EQ(V(table, s2, "untagged.delta.dev.ops"), 0u);
  EXPECT_EQ(V(table, s2, "untagged.delta.value_bytes"), 0u);
}

TEST(AttributionPlaneTest, HeatSharesComputeBeforeDecay) {
  AttributionConfig cfg;
  cfg.enabled = true;
  cfg.heat_fanout = 4;              // Bucket i covers [i, i+1) * 2^62.
  cfg.heat_decay_keep_permille = 500;  // Half-life of one interval.
  AttributionPlane plane(cfg);
  stats::MetricsRegistry reg;
  plane.Bind({&reg}, {"t0"});

  const std::uint64_t bucket3_hash = 0xC000000000000000ull;  // 3 * 2^62.
  for (int i = 0; i < 8; ++i) plane.TouchKey(bucket3_hash);
  plane.TouchKey(0);
  plane.TouchKey(0);

  SeriesSlots slots;
  const SeriesTable& table = slots.table();
  AttributionPlane::FleetTotals totals;
  const Sample s1 = Fold(plane, &slots, totals);
  // Shares are computed on the PRE-decay weights (8 of 10 in bucket 3),
  // then every bucket keeps 500 permille.
  EXPECT_EQ(V(table, s1, "heat.touches"), 10u);
  EXPECT_EQ(V(table, s1, "heat.weight"), 10u);
  EXPECT_EQ(V(table, s1, "heat.max_share_permille"), 800u);
  EXPECT_EQ(V(table, s1, "heat.hot_range"), 3u);
  EXPECT_EQ(plane.heat()[3], 4u);
  EXPECT_EQ(plane.heat()[0], 1u);

  // No touches: the trailing-window gauge decays toward zero but the share
  // stays pinned on the same hot range until it fully evaporates.
  const Sample s2 = Fold(plane, &slots, totals);
  EXPECT_EQ(V(table, s2, "heat.touches"), 10u);  // Lifetime, no decay.
  EXPECT_EQ(V(table, s2, "heat.weight"), 5u);
  EXPECT_EQ(V(table, s2, "heat.max_share_permille"), 800u);
  EXPECT_EQ(plane.heat()[3], 2u);
  EXPECT_EQ(plane.heat()[0], 0u);
}

TEST(AttributionRulesTest, CannedRuleShapes) {
  const WatchdogRule fast = TenantBurnRateFastRule(1);
  EXPECT_EQ(fast.name, "slo_burn_fast_t1");
  EXPECT_EQ(fast.series, "tenant1.slo.burn_fast_milli");
  EXPECT_EQ(fast.cmp, WatchdogRule::Cmp::kAtLeast);
  EXPECT_EQ(fast.threshold, 4000u);  // Default: 4x the allowed burn rate.
  EXPECT_EQ(fast.tenant, 2u);        // Event stamp = tenant index + 1.

  const WatchdogRule slow = TenantBurnRateSlowRule(0);
  EXPECT_EQ(slow.name, "slo_burn_slow_t0");
  EXPECT_EQ(slow.series, "tenant0.slo.burn_slow_milli");
  EXPECT_EQ(slow.threshold, 1000u);  // Default: spending faster than accrual.
  EXPECT_EQ(slow.for_intervals, 4u);
  EXPECT_EQ(slow.tenant, 1u);

  const WatchdogRule hot = HotRangeRule(300, 2);
  EXPECT_EQ(hot.name, "hot_key_range");
  EXPECT_EQ(hot.series, "heat.max_share_permille");
  EXPECT_EQ(hot.threshold, 300u);
  EXPECT_EQ(hot.tenant, 0u);  // Key-space heat is not tenant-attributed.
}

// --- Cluster level -----------------------------------------------------------

KvSsdOptions ShardOptions() {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 256;
  o.geometry.pages_per_block = 32;
  o.buffer.num_entries = 32;
  o.buffer.dlt_entries = 32;
  o.lsm.memtable_limit_bytes = 16 * 1024;
  return o;
}

ClusterConfig AttrCluster(std::uint32_t shards) {
  ClusterConfig c;
  c.num_shards = shards;
  c.shard = ShardOptions();
  c.tenants = {TenantConfig{"frontend", 0, 0, 2000},
               TenantConfig{"batch", 1, 0, 2000}};
  c.fleet.enabled = true;
  c.fleet.sample_interval_ns = 20 * sim::kMicrosecond;
  c.attribution.enabled = true;
  return c;
}

Bytes ValueFor(std::uint64_t i, std::size_t size = 64) {
  Bytes v(size, 0x5A);
  for (int b = 0; b < 8; ++b) {
    v[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  return v;
}

TEST(AttributionClusterTest, OpenRequiresFleetTelemetryAndMatchingSlos) {
  ClusterConfig no_fleet = AttrCluster(2);
  no_fleet.fleet.enabled = false;
  const auto r1 = KvCluster::Open(no_fleet);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("requires fleet telemetry"),
            std::string::npos);

  ClusterConfig extra_slo = AttrCluster(2);
  extra_slo.attribution.slo.resize(3);  // Only two tenants configured.
  const auto r2 = KvCluster::Open(extra_slo);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("more entries than tenants"),
            std::string::npos);
}

TEST(AttributionClusterTest, ChargesReconcileExactlyAndTelescope) {
  auto fleet = KvCluster::Open(AttrCluster(3)).value();

  // Untagged preload: harness-driven direct shard traffic the router never
  // sees — must land in the residual, not a tenant ledger.
  for (std::uint64_t i = 0; i < 24; ++i) {
    const std::string key = "bg" + std::to_string(i);
    ASSERT_TRUE(fleet->shard(fleet->ShardOf(key))
                    .Put(key, ByteSpan(ValueFor(i, 96)))
                    .ok());
  }
  fleet->SyncClockToShards();

  // Tenant traffic through the facades: serial ops only, so the ledger op
  // counts are exactly the issued counts.
  KvStore& frontend = fleet->Tenant(0);
  KvStore& batch = fleet->Tenant(1);
  std::uint64_t frontend_ops = 0, batch_ops = 0;
  for (std::uint64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        frontend.Put("f" + std::to_string(i), ByteSpan(ValueFor(i, 128))).ok());
    ++frontend_ops;
  }
  Bytes out;
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(frontend.GetInto("f" + std::to_string(i), &out).ok());
    ++frontend_ops;
  }
  EXPECT_TRUE(frontend.GetInto("missing-key", &out).IsNotFound());
  ++frontend_ops;  // kNotFound is still a routed, charged op.
  for (std::uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        batch.Put("b" + std::to_string(i), ByteSpan(ValueFor(i, 256))).ok());
    ++batch_ops;
  }
  ASSERT_TRUE(fleet->Flush().ok());  // Background: flushes join the residual.
  fleet->fleet().Finalize();

  const AttributionPlane& plane = fleet->attribution();
  EXPECT_EQ(plane.tenant_charges(0).ops, frontend_ops);
  EXPECT_EQ(plane.tenant_charges(1).ops, batch_ops);
  EXPECT_GT(plane.tenant_charges(0).dev_ops, 0u);
  EXPECT_GT(plane.untagged().dev_ops, 0u);  // Preload + flush are residual.
  EXPECT_GT(plane.heat_touches(), 0u);

  // Exact reconciliation, every interval, all four charge dimensions:
  // tenant deltas + untagged delta == the fleet delta.
  const FleetAggregator& agg = fleet->fleet();
  ASSERT_GE(agg.samples().size(), 3u);
  struct Dim {
    const char* fleet_delta;
    const char* tenant_suffix;
    const char* untagged_delta;
  };
  const Dim dims[] = {
      {"delta.ops", ".delta.dev.ops", "untagged.delta.dev.ops"},
      {"delta.value_bytes", ".delta.value_bytes",
       "untagged.delta.value_bytes"},
      {"delta.pcie.h2d_bytes", ".delta.pcie.h2d_bytes",
       "untagged.delta.pcie.h2d_bytes"},
      {"delta.nand.pages_programmed", ".delta.nand.pages_programmed",
       "untagged.delta.nand.pages_programmed"},
  };
  for (const Sample& s : agg.samples()) {
    for (const Dim& d : dims) {
      std::uint64_t attributed = FleetValue(agg, s, d.untagged_delta);
      for (std::size_t t = 0; t < plane.num_tenants(); ++t) {
        attributed += FleetValue(
            agg, s, "tenant" + std::to_string(t) + d.tenant_suffix);
      }
      EXPECT_EQ(attributed, FleetValue(agg, s, d.fleet_delta))
          << d.fleet_delta << " seq " << s.seq;
    }
  }

  // And the ledgers telescope to the summed final GetStats() counters.
  const KvSsdStats stats = fleet->GetStats();
  EXPECT_EQ(plane.tenant_charges(0).dev_ops + plane.tenant_charges(1).dev_ops +
                plane.untagged().dev_ops,
            stats.commands_submitted);
  EXPECT_EQ(plane.tenant_charges(0).value_bytes +
                plane.tenant_charges(1).value_bytes +
                plane.untagged().value_bytes,
            stats.value_bytes_written);
  EXPECT_EQ(plane.tenant_charges(0).pcie_h2d_bytes +
                plane.tenant_charges(1).pcie_h2d_bytes +
                plane.untagged().pcie_h2d_bytes,
            stats.pcie_h2d_bytes);
  EXPECT_EQ(plane.tenant_charges(0).nand_pages +
                plane.tenant_charges(1).nand_pages +
                plane.untagged().nand_pages,
            stats.nand_pages_programmed);
}

TEST(AttributionClusterTest, BurnAlertFiresWithTenantStampedEvent) {
  ClusterConfig cc = AttrCluster(1);
  // Tenant 1 gets 2 admission credits and a refill window longer than the
  // run: everything past the first two ops sheds with kBusy.
  cc.tenants[1].credits_per_window = 2;
  cc.qos_refill_window_ns = 10 * sim::kMillisecond;
  cc.fleet.rules = {TenantBurnRateFastRule(1, 1000, 1, 1)};
  auto fleet = KvCluster::Open(cc).value();

  KvStore& batch = fleet->Tenant(1);
  std::uint64_t sheds = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const Status st = batch.Put("s" + std::to_string(i), ByteSpan(ValueFor(i)));
    if (st.IsBusy()) {
      ++sheds;
    } else {
      ASSERT_TRUE(st.ok());
    }
  }
  ASSERT_TRUE(fleet->Flush().ok());
  fleet->fleet().Finalize();

  EXPECT_GT(sheds, 0u);
  EXPECT_EQ(fleet->attribution().tenant_charges(1).shed_ops, sheds);
  EXPECT_GE(fleet->attribution().slo_state(1).burn_fast_milli, 1000u);

  // The burn-rate rule fires through the fleet watchdog and surfaces in the
  // aggregated snapshot's alerts.
  bool found = false;
  for (const auto& alert : fleet->Inspect().alerts) {
    if (alert.rule == "slo_burn_fast_t1") {
      found = true;
      EXPECT_GE(alert.fired, 1u);
    }
  }
  EXPECT_TRUE(found);

  // The kAlert event in the merged timeline carries the rule name and the
  // tenant stamp (index 1 -> stamp 2), so pages are attributable.
  const std::string jsonl = fleet->fleet().ToJsonl();
  const std::size_t pos = jsonl.find("\"rule\":\"slo_burn_fast_t1\"");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = jsonl.find('\n', pos);
  const std::string line =
      jsonl.substr(jsonl.rfind('\n', pos) + 1, eol - jsonl.rfind('\n', pos) - 1);
  EXPECT_NE(line.find("\"tenant\":2"), std::string::npos) << line;
}

// Drives identical traffic against a cluster with attribution on/off and
// returns the outcome fingerprint that must not move: virtual time plus the
// summed device counters.
struct RunFingerprint {
  sim::Nanoseconds now = 0;
  KvSsdStats stats;
  std::string slo_jsonl;
  std::string prometheus;
  std::string timeline;
};

RunFingerprint RunBlend(bool attribution_enabled) {
  ClusterConfig cc = AttrCluster(2);
  cc.attribution.enabled = attribution_enabled;
  cc.attribution.slo = {SloConfig{100 * sim::kMicrosecond, 990, 2, 4},
                        SloConfig{}};
  auto fleet = KvCluster::Open(cc).value();
  KvStore& frontend = fleet->Tenant(0);
  KvStore& batch = fleet->Tenant(1);
  Bytes out;
  for (std::uint64_t i = 0; i < 80; ++i) {
    EXPECT_TRUE(
        frontend.Put("f" + std::to_string(i), ByteSpan(ValueFor(i, 128))).ok());
    if (i % 2 == 0) {
      EXPECT_TRUE(
          batch.Put("b" + std::to_string(i), ByteSpan(ValueFor(i, 512))).ok());
    }
    if (i % 5 == 0) {
      EXPECT_TRUE(frontend.GetInto("f" + std::to_string(i), &out).ok());
    }
  }
  EXPECT_TRUE(fleet->Flush().ok());
  fleet->fleet().Finalize();
  RunFingerprint fp;
  fp.now = fleet->Now();
  fp.stats = fleet->GetStats();
  fp.slo_jsonl = fleet->attribution().SloJsonl();
  fp.prometheus = fleet->fleet().ToPrometheusText();
  fp.timeline = fleet->fleet().ToJsonl();
  return fp;
}

TEST(AttributionClusterTest, DisabledAttributionIsObservationNeutral) {
  const RunFingerprint on = RunBlend(true);
  const RunFingerprint off = RunBlend(false);
  EXPECT_EQ(on.now, off.now);
  EXPECT_EQ(on.stats.commands_submitted, off.stats.commands_submitted);
  EXPECT_EQ(on.stats.value_bytes_written, off.stats.value_bytes_written);
  EXPECT_EQ(on.stats.pcie_h2d_bytes, off.stats.pcie_h2d_bytes);
  EXPECT_EQ(on.stats.nand_pages_programmed, off.stats.nand_pages_programmed);
  // Disabled attribution exports nothing (the HTTP route answers 404).
  EXPECT_TRUE(off.slo_jsonl.empty());
  EXPECT_FALSE(on.slo_jsonl.empty());
  EXPECT_EQ(off.prometheus.find("bandslim_tenant_"), std::string::npos);
}

TEST(AttributionClusterTest, ExportsAreByteIdenticalAndTenantLabeled) {
  const RunFingerprint a = RunBlend(true);
  const RunFingerprint b = RunBlend(true);
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.slo_jsonl, b.slo_jsonl);
  // Families are labeled with the configured tenant NAMES, and the SLO
  // document carries the budget key the CI schema check requires.
  EXPECT_NE(a.prometheus.find("bandslim_tenant_ops_total{tenant=\"frontend\"}"),
            std::string::npos);
  EXPECT_NE(a.prometheus.find("bandslim_tenant_ops_total{tenant=\"batch\"}"),
            std::string::npos);
  EXPECT_NE(a.prometheus.find("bandslim_keyspace_heat"), std::string::npos);
  EXPECT_NE(a.slo_jsonl.find("\"budget_spent_permille\":"), std::string::npos);
  EXPECT_NE(a.timeline.find("\"tenant0.slo.burn_fast_milli\":"),
            std::string::npos);
}

TEST(AttributionClusterTest, TraceCsvStampsTenantColumn) {
  ClusterConfig cc = AttrCluster(1);
  cc.shard.trace.enabled = true;
  auto fleet = KvCluster::Open(cc).value();
  ASSERT_TRUE(fleet->Put("d0", ByteSpan(ValueFor(0))).ok());  // Default = t0.
  ASSERT_TRUE(fleet->Tenant(1).Put("t1", ByteSpan(ValueFor(1))).ok());

  const std::string csv = trace::ToBreakdownCsv(fleet->shard(0).tracer());
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find(",shard,client_op,tenant"), std::string::npos);
  std::set<std::string> tenant_cols;
  while (std::getline(lines, line)) {
    tenant_cols.insert(line.substr(line.rfind(',') + 1));
  }
  // Both tenants' ops landed in the same shard trace, distinguishable by
  // the stamp column (rendered as the cluster tenant index).
  EXPECT_TRUE(tenant_cols.count("0"));
  EXPECT_TRUE(tenant_cols.count("1"));
}

}  // namespace
}  // namespace bandslim::telemetry::attribution
