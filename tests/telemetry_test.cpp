// Telemetry tests: sampler boundary stamping and delta/rate arithmetic
// against hand-computed values, watchdog edge-trigger semantics, full-device
// reconciliation (telescoping deltas == final counters), byte-identical
// exports across runs, alert behavior under fault storms vs clean runs, and
// the disabled-telemetry invariance guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/kvssd.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "workload/value_gen.h"

namespace bandslim::telemetry {
namespace {

// --- Sampler unit tests (no device, hand-driven clock) ---------------------

class SamplerUnitTest : public ::testing::Test {
 protected:
  Sampler MakeSampler(TelemetryConfig cfg) {
    cfg.enabled = true;
    cfg.sample_interval_ns = sim::kMillisecond;
    Sampler sampler(&clock_, cfg);
    Sampler::Sources src;
    src.metrics = &metrics_;
    sampler.Bind(src);
    return sampler;
  }

  sim::VirtualClock clock_;
  stats::MetricsRegistry metrics_;
};

TEST_F(SamplerUnitTest, StampsAtIntervalBoundaries) {
  Sampler sampler = MakeSampler({});
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  // Inside the first interval: no boundary crossed, no sample.
  clock_.Advance(500'000);
  sampler.Poll();
  EXPECT_TRUE(sampler.samples().empty());

  // Crossing 1 ms: one sample stamped exactly at the boundary.
  ops->Add(3);
  clock_.Advance(1'000'000);  // now = 1.5 ms
  sampler.Poll();
  ASSERT_EQ(sampler.samples().size(), 1u);
  EXPECT_EQ(sampler.samples().back().t_ns, 1'000'000u);
  EXPECT_EQ(sampler.samples().back().interval_ns, 1'000'000u);
  EXPECT_EQ(sampler.Latest("delta.ops"), 3u);
  // 3 ops over exactly 1 ms = 3000 ops/s = 3'000'000 milli-ops/s.
  EXPECT_EQ(sampler.Latest("rate.ops_per_sec_milli"), 3'000'000u);

  // A burst crossing three boundaries yields ONE sample stamped at the last
  // crossed boundary, with rates divided by the true 3 ms span.
  ops->Add(10);
  clock_.Advance(3'200'000);  // now = 4.7 ms
  sampler.Poll();
  ASSERT_EQ(sampler.samples().size(), 2u);
  EXPECT_EQ(sampler.samples().back().t_ns, 4'000'000u);
  EXPECT_EQ(sampler.samples().back().interval_ns, 3'000'000u);
  EXPECT_EQ(sampler.Latest("delta.ops"), 10u);
  // floor(10e9/3e6)*1000 + (10e9 mod 3e6)*1000/3e6 = 3'333'333.
  EXPECT_EQ(sampler.Latest("rate.ops_per_sec_milli"), 3'333'333u);

  // No boundary since the last sample: Poll is a no-op.
  sampler.Poll();
  EXPECT_EQ(sampler.samples().size(), 2u);
}

TEST_F(SamplerUnitTest, FinalizeClosesAtExactNowAndIsIdempotent) {
  Sampler sampler = MakeSampler({});
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  ops->Add(4);
  clock_.Advance(1'100'000);
  sampler.Poll();
  ASSERT_EQ(sampler.samples().size(), 1u);

  // Finalize stamps off-grid at the current time so the closing sample's
  // cumulative series match the final counters.
  ops->Add(1);
  clock_.Advance(600'000);  // now = 1.7 ms, 0.7 ms past the 1 ms stamp
  sampler.Finalize();
  ASSERT_EQ(sampler.samples().size(), 2u);
  EXPECT_EQ(sampler.samples().back().t_ns, 1'700'000u);
  EXPECT_EQ(sampler.samples().back().interval_ns, 700'000u);
  EXPECT_EQ(sampler.Latest("delta.ops"), 1u);
  // floor(1e9/7e5)*1000 + (1e9 mod 7e5)*1000/7e5 = 1'428'571.
  EXPECT_EQ(sampler.Latest("rate.ops_per_sec_milli"), 1'428'571u);
  EXPECT_EQ(sampler.Latest("nvme.commands_submitted"), 5u);

  // Same time, nothing new: no duplicate closing sample.
  sampler.Finalize();
  EXPECT_EQ(sampler.samples().size(), 2u);
  EXPECT_EQ(sampler.samples_emitted(), 2u);
  EXPECT_EQ(sampler.dropped_samples(), 0u);
}

TEST_F(SamplerUnitTest, WatchdogEdgeTriggersAndRearms) {
  TelemetryConfig cfg;
  cfg.rules = {ZeroOpStallRule(/*n=*/2)};
  Sampler sampler = MakeSampler(cfg);
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  const auto step = [&](std::uint64_t add_ops) {
    ops->Add(add_ops);
    clock_.Advance(sim::kMillisecond);
    sampler.Poll();
  };

  step(0);  // holding = 1: below for_intervals, silent.
  EXPECT_EQ(sampler.watchdog().states()[0].fired, 0u);
  step(0);  // holding = 2: FIRES.
  EXPECT_EQ(sampler.watchdog().states()[0].fired, 1u);
  EXPECT_TRUE(sampler.watchdog().states()[0].active);
  step(0);  // Still holding: stays active, no re-fire.
  EXPECT_EQ(sampler.watchdog().states()[0].fired, 1u);
  step(5);  // Condition breaks: re-arms.
  EXPECT_FALSE(sampler.watchdog().states()[0].active);
  step(0);
  step(0);  // Held twice again: second fire.
  EXPECT_EQ(sampler.watchdog().states()[0].fired, 2u);
  EXPECT_EQ(sampler.watchdog().total_fired(), 2u);

  // Each fire appended one alert record carrying the rule index.
  EXPECT_EQ(sampler.event_log().count(EventType::kAlert), 2u);
  EXPECT_EQ(sampler.event_log().records().back().a, 0u);
}

// --- Full-device tests ------------------------------------------------------

KvSsdOptions TelemetryOptions() {
  KvSsdOptions o;
  o.telemetry.enabled = true;
  // Short interval so a few-hundred-op run resolves into many samples.
  o.telemetry.sample_interval_ns = 20 * sim::kMicrosecond;
  return o;
}

void RunSmallWorkload(KvSsd& ssd, int ops) {
  for (int i = 0; i < ops; ++i) {
    // Mix of single-command and multi-fragment piggyback sizes.
    const std::size_t size = (i % 3 == 0) ? 300 : 48;
    Bytes value = workload::MakeValue(size, 1, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd.Put("key" + std::to_string(i), ByteSpan(value)).ok());
  }
  ASSERT_TRUE(ssd.Flush().ok());
}

std::uint64_t SumSeries(const Sampler& sampler, const std::string& name) {
  const std::int64_t id = sampler.series().Find(name);
  if (id < 0) return 0;
  std::uint64_t sum = 0;
  for (const Sample& s : sampler.samples()) {
    sum += s.Value(static_cast<std::uint32_t>(id));
  }
  return sum;
}

TEST(TelemetryDeviceTest, DeltasTelescopeToFinalCounters) {
  auto ssd = KvSsd::Open(TelemetryOptions()).value();
  RunSmallWorkload(*ssd, 300);
  ssd->Hooks().sampler->Finalize();

  const Sampler& t = ssd->telemetry();
  EXPECT_GT(t.samples().size(), 5u);
  EXPECT_EQ(t.dropped_samples(), 0u);

  // Per-interval deltas must telescope exactly to the run's final counters:
  // the closing sample is stamped at `now`, so nothing falls off the end.
  const KvSsdStats stats = ssd->GetStats();
  EXPECT_EQ(SumSeries(t, "delta.ops"), stats.commands_submitted);
  EXPECT_EQ(SumSeries(t, "delta.pcie.h2d_bytes"), stats.pcie_h2d_bytes);
  EXPECT_EQ(SumSeries(t, "delta.pcie.d2h_bytes"), stats.pcie_d2h_bytes);
  EXPECT_EQ(SumSeries(t, "delta.nand.pages_programmed"),
            stats.nand_pages_programmed);
  EXPECT_EQ(SumSeries(t, "delta.value_bytes"), stats.value_bytes_written);

  // The last sample's cumulative series equal the final counters verbatim.
  EXPECT_EQ(t.Latest("nvme.commands_submitted"), stats.commands_submitted);
  EXPECT_EQ(t.Latest("pcie.h2d_bytes"), stats.pcie_h2d_bytes);
  EXPECT_EQ(t.Latest("nand.pages_programmed"), stats.nand_pages_programmed);

  // Snapshot surfaces the stream sizes.
  const DeviceSnapshot snap = ssd->InspectDevice();
  EXPECT_EQ(snap.telemetry_samples, t.samples().size());
}

TEST(TelemetryDeviceTest, ExportsAreByteIdenticalAcrossRuns) {
  const std::vector<std::string> csv_series = {
      "delta.ops", "rate.ops_per_sec_milli", "rate.pcie.h2d_bytes_per_sec",
      "rate.taf_milli", "rate.waf_milli"};
  std::string prom[2], jsonl[2], csv[2];
  std::size_t sample_count = 0;
  for (int run = 0; run < 2; ++run) {
    KvSsdOptions o = TelemetryOptions();
    o.telemetry.rules = {RetryStormRule(1, 1)};
    auto ssd = KvSsd::Open(o).value();
    RunSmallWorkload(*ssd, 200);
    ssd->Hooks().sampler->Finalize();
    prom[run] = ToPrometheusText(ssd->telemetry());
    jsonl[run] = ToJsonl(ssd->telemetry());
    csv[run] = ToTimeSeriesCsv(ssd->telemetry(), csv_series);
    sample_count = ssd->telemetry().samples().size();
  }
  EXPECT_EQ(prom[0], prom[1]);
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(csv[0], csv[1]);

  // Shape: Prometheus exposition carries the sample counter, per-series
  // gauges, and one alert-total per configured rule.
  EXPECT_NE(prom[0].find("# TYPE bandslim_telemetry_samples_total counter"),
            std::string::npos);
  EXPECT_NE(prom[0].find("# TYPE bandslim_delta_ops gauge"),
            std::string::npos);
  EXPECT_NE(
      prom[0].find("bandslim_watchdog_alerts_total{rule=\"retry_storm\"} 0"),
      std::string::npos);
  // CSV: header plus one row per sample.
  const auto rows = std::count(csv[0].begin(), csv[0].end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(rows), 1u + sample_count);
  EXPECT_EQ(csv[0].rfind("t_ns,interval_ns,delta.ops,", 0), 0u);
}

TEST(TelemetryDeviceTest, WatchdogFiresUnderFaultStormOnly) {
  // Clean run: the retry-storm rule must stay silent.
  KvSsdOptions clean = TelemetryOptions();
  clean.telemetry.rules = {RetryStormRule(1, 1)};
  auto clean_ssd = KvSsd::Open(clean).value();
  RunSmallWorkload(*clean_ssd, 150);
  clean_ssd->Hooks().sampler->Finalize();
  const DeviceSnapshot clean_snap = clean_ssd->InspectDevice();
  ASSERT_EQ(clean_snap.alerts.size(), 1u);
  EXPECT_EQ(clean_snap.alerts[0].rule, "retry_storm");
  EXPECT_EQ(clean_snap.alerts[0].fired, 0u);
  EXPECT_EQ(clean_ssd->telemetry().event_log().count(EventType::kTimeout), 0u);

  // Fault storm: dropped commands force retries; the rule must fire and the
  // event log must carry the timeout/backoff records behind the alert.
  KvSsdOptions faulty = clean;
  faulty.fault.command_drop_rate = 0.2;
  auto faulty_ssd = KvSsd::Open(faulty).value();
  RunSmallWorkload(*faulty_ssd, 150);
  faulty_ssd->Hooks().sampler->Finalize();
  const DeviceSnapshot snap = faulty_ssd->InspectDevice();
  ASSERT_EQ(snap.alerts.size(), 1u);
  EXPECT_GE(snap.alerts[0].fired, 1u);
  EXPECT_GT(snap.alerts[0].last_fire_ns, 0u);
  const EventLog& log = faulty_ssd->telemetry().event_log();
  EXPECT_GE(log.count(EventType::kTimeout), 1u);
  EXPECT_GE(log.count(EventType::kRetryBackoff), 1u);
  EXPECT_GE(log.count(EventType::kAlert), 1u);
  // The alert is attributed to its rule in the JSONL stream.
  EXPECT_NE(ToJsonl(faulty_ssd->telemetry()).find("\"rule\":\"retry_storm\""),
            std::string::npos);
}

TEST(TelemetryDeviceTest, DisabledTelemetryChangesNoSimulatedOutcome) {
  KvSsdOptions off;  // Default: telemetry disabled.
  auto off_ssd = KvSsd::Open(off).value();
  RunSmallWorkload(*off_ssd, 200);

  KvSsdOptions on = TelemetryOptions();
  on.telemetry.rules = {RetryStormRule(1, 1), ZeroOpStallRule(50)};
  auto on_ssd = KvSsd::Open(on).value();
  RunSmallWorkload(*on_ssd, 200);
  on_ssd->Hooks().sampler->Finalize();

  // Identical simulated outcomes, to the nanosecond and byte.
  const KvSsdStats a = off_ssd->GetStats();
  const KvSsdStats b = on_ssd->GetStats();
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.commands_submitted, b.commands_submitted);
  EXPECT_EQ(a.pcie_h2d_bytes, b.pcie_h2d_bytes);
  EXPECT_EQ(a.pcie_d2h_bytes, b.pcie_d2h_bytes);
  EXPECT_EQ(a.nand_pages_programmed, b.nand_pages_programmed);
  EXPECT_EQ(a.value_bytes_written, b.value_bytes_written);

  // The disabled sampler records nothing.
  const DeviceSnapshot snap = off_ssd->InspectDevice();
  EXPECT_EQ(snap.telemetry_samples, 0u);
  EXPECT_EQ(snap.telemetry_events, 0u);
  EXPECT_FALSE(off_ssd->telemetry().enabled());
}

TEST(TelemetryDeviceTest, PowerCycleEmitsEventAndSamplingContinues) {
  auto ssd = KvSsd::Open(TelemetryOptions()).value();
  RunSmallWorkload(*ssd, 100);
  const std::uint64_t before = ssd->telemetry().samples_emitted();
  ASSERT_TRUE(ssd->PowerCycle().ok());
  RunSmallWorkload(*ssd, 100);
  ssd->Hooks().sampler->Finalize();

  const EventLog& log = ssd->telemetry().event_log();
  EXPECT_EQ(log.count(EventType::kPowerCycle), 1u);
  // The sampler keeps running across the rebuilt device (rebound sources).
  EXPECT_GT(ssd->telemetry().samples_emitted(), before);
  EXPECT_NE(ToJsonl(ssd->telemetry()).find("\"type\":\"power_cycle\""),
            std::string::npos);
}

// --------------------- Percentile pipeline (sampler) ------------------------

TEST_F(SamplerUnitTest, PercentileSeriesFromHistogramDeltas) {
  Sampler sampler = MakeSampler({});
  stats::Histogram* h = metrics_.GetHistogram("trace.op.put.latency_ns");

  // Interval 1: three values of 100 ns, all in bucket [64,128).
  for (int i = 0; i < 3; ++i) h->Record(100);
  clock_.Advance(sim::kMillisecond);
  sampler.Poll();
  // p50: rank ceil(3*0.5) = 2, position 2 of 3 -> 64 + 64*1/3 = 85.
  EXPECT_EQ(sampler.Latest("trace.op.put.p50"), 85u);
  // p95/p99: rank 3, position 3 of 3 -> 64 + 64*2/3 = 106.
  EXPECT_EQ(sampler.Latest("trace.op.put.p95"), 106u);
  EXPECT_EQ(sampler.Latest("trace.op.put.p99"), 106u);
  EXPECT_EQ(sampler.Latest("delta.trace.op.put.count"), 3u);
  EXPECT_EQ(sampler.Latest("delta.trace.op.put.sum"), 300u);
  EXPECT_EQ(sampler.Latest("hist.trace.op.put.count"), 3u);

  // Interval 2: no records. Empty-interval percentiles are 0, never NaN or
  // a stale carry-over; the cumulative count holds.
  clock_.Advance(sim::kMillisecond);
  sampler.Poll();
  EXPECT_EQ(sampler.Latest("trace.op.put.p50"), 0u);
  EXPECT_EQ(sampler.Latest("trace.op.put.p99"), 0u);
  EXPECT_EQ(sampler.Latest("delta.trace.op.put.count"), 0u);
  EXPECT_EQ(sampler.Latest("delta.trace.op.put.sum"), 0u);
  EXPECT_EQ(sampler.Latest("hist.trace.op.put.count"), 3u);

  // Interval 3: one value of 7 ns (bucket [4,8)) — the interval quantile
  // reflects only this interval, not the lifetime distribution.
  h->Record(7);
  clock_.Advance(sim::kMillisecond);
  sampler.Poll();
  EXPECT_EQ(sampler.Latest("trace.op.put.p50"), 4u);
  EXPECT_EQ(sampler.Latest("trace.op.put.p99"), 4u);
  EXPECT_EQ(sampler.Latest("delta.trace.op.put.sum"), 7u);
  EXPECT_EQ(sampler.Latest("hist.trace.op.put.count"), 4u);

  // Telescoping: interval delta counts/sums add up to the lifetime.
  std::uint64_t dcount = 0, dsum = 0;
  const auto cid = sampler.series().Find("delta.trace.op.put.count");
  const auto sid = sampler.series().Find("delta.trace.op.put.sum");
  ASSERT_GE(cid, 0);
  ASSERT_GE(sid, 0);
  for (const Sample& s : sampler.samples()) {
    dcount += s.Value(static_cast<std::uint32_t>(cid));
    dsum += s.Value(static_cast<std::uint32_t>(sid));
  }
  EXPECT_EQ(dcount, h->count());
  EXPECT_EQ(dsum, h->sum());
}

// A rule whose series does not exist yet reads 0 until the series is first
// interned, then tracks it from that very sample: the watchdog must not
// settle on "absent" when it first looks. The put-latency percentile series
// only appears once the histogram records, here in the fourth interval.
TEST_F(SamplerUnitTest, WatchdogRuleOnLateSeriesFiresOnFirstSampleItHolds) {
  TelemetryConfig cfg;
  cfg.rules = {WatchdogRule{"put_p99_high", "trace.op.put.p99",
                            WatchdogRule::Cmp::kAtLeast, 1000, 1},
               WatchdogRule{"put_p99_quiet", "trace.op.put.p99",
                            WatchdogRule::Cmp::kEqual, 0, 2}};
  Sampler sampler = MakeSampler(cfg);
  stats::Histogram* h = metrics_.GetHistogram("trace.op.put.latency_ns");
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  for (int i = 0; i < 3; ++i) {
    ops->Increment();
    clock_.Advance(sim::kMillisecond);
    sampler.Poll();
  }
  ASSERT_EQ(sampler.samples().size(), 3u);
  EXPECT_LT(sampler.series().Find("trace.op.put.p99"), 0);
  // The absent series reads 0: the "quiet" rule fired at its second sample.
  EXPECT_EQ(sampler.watchdog().states()[1].fired, 1u);
  EXPECT_EQ(sampler.watchdog().states()[1].last_fire_ns, 2'000'000u);
  EXPECT_EQ(sampler.watchdog().states()[0].fired, 0u);

  h->Record(5000);
  h->Record(6000);
  clock_.Advance(sim::kMillisecond);
  sampler.Poll();
  EXPECT_GE(sampler.series().Find("trace.op.put.p99"), 0);
  EXPECT_EQ(sampler.Latest("trace.op.put.p99"), 6144u);
  const AlertState& high = sampler.watchdog().states()[0];
  EXPECT_EQ(high.fired, 1u);
  EXPECT_EQ(high.last_fire_ns, 4'000'000u);
  EXPECT_EQ(high.last_value, 6144u);
  // The quiet rule clears on the same sample.
  EXPECT_EQ(sampler.watchdog().states()[1].cleared, 1u);
  EXPECT_EQ(sampler.watchdog().states()[1].last_clear_ns, 4'000'000u);

  // An interval with no recordings reads 0 again: the high rule clears.
  clock_.Advance(sim::kMillisecond);
  sampler.Poll();
  EXPECT_EQ(sampler.Latest("trace.op.put.p99"), 0u);
  EXPECT_EQ(sampler.watchdog().states()[0].cleared, 1u);
  EXPECT_EQ(sampler.watchdog().states()[0].last_clear_ns, 5'000'000u);
}

TEST_F(SamplerUnitTest, HistogramWithNoRecordsEmitsNoSeries) {
  Sampler sampler = MakeSampler({});
  metrics_.GetHistogram("trace.op.get.latency_ns");  // Never recorded into.
  clock_.Advance(sim::kMillisecond);
  sampler.Poll();
  EXPECT_LT(sampler.series().Find("trace.op.get.p50"), 0);
  EXPECT_LT(sampler.series().Find("hist.trace.op.get.count"), 0);
}

// ------------------- Export ordering and snapshot publishing ----------------

TEST_F(SamplerUnitTest, EventAtSampleBoundaryOrdersBeforeSampleAlertAfter) {
  TelemetryConfig cfg;
  cfg.rules = {ZeroOpStallRule(/*n=*/1)};  // Fires on the first 0-op sample.
  Sampler sampler = MakeSampler(cfg);
  metrics_.GetCounter("nvme.commands_submitted");  // delta.ops = 0.

  // An event emitted at exactly the boundary timestamp, before the sample
  // is taken, must serialize BEFORE the sample line; the watchdog alert the
  // sample raises (same timestamp again) must serialize AFTER it.
  clock_.Advance(sim::kMillisecond);
  sampler.event_log().Emit(EventType::kTimeout, 7, 0);
  sampler.Poll();
  ASSERT_EQ(sampler.samples().size(), 1u);
  ASSERT_EQ(sampler.event_log().records().size(), 2u);  // timeout + alert.
  EXPECT_EQ(sampler.samples().back().events_before, 1u);

  const std::string jsonl = ToJsonl(sampler);
  const std::size_t timeout_at = jsonl.find("\"type\":\"timeout\"");
  const std::size_t sample_at = jsonl.find("\"kind\":\"sample\"");
  const std::size_t alert_at = jsonl.find("\"type\":\"alert\"");
  ASSERT_NE(timeout_at, std::string::npos);
  ASSERT_NE(sample_at, std::string::npos);
  ASSERT_NE(alert_at, std::string::npos);
  EXPECT_LT(timeout_at, sample_at);
  EXPECT_LT(sample_at, alert_at);
}

class RecordingSink : public SnapshotSink {
 public:
  void Publish(std::shared_ptr<const PublishedSnapshot> snapshot) override {
    published.push_back(std::move(snapshot));
  }
  std::vector<std::shared_ptr<const PublishedSnapshot>> published;
};

TEST_F(SamplerUnitTest, PublishCadenceAndFinalizeAlwaysPublish) {
  TelemetryConfig cfg;
  cfg.publish_every = 2;
  Sampler sampler = MakeSampler(cfg);
  RecordingSink sink;
  sampler.SetSink(&sink);
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  for (int i = 0; i < 5; ++i) {
    ops->Add(1);
    clock_.Advance(sim::kMillisecond);
    sampler.Poll();
  }
  // Samples seq 0..4; cadence 2 publishes seq 0, 2, 4.
  ASSERT_EQ(sink.published.size(), 3u);
  EXPECT_EQ(sink.published[0]->sample_seq, 0u);
  EXPECT_EQ(sink.published[1]->sample_seq, 2u);
  EXPECT_EQ(sink.published[2]->sample_seq, 4u);

  // Finalize publishes its off-cadence closing sample exactly once, and the
  // published bytes equal the exports rendered at the same point.
  ops->Add(1);
  clock_.Advance(sim::kMillisecond / 2);
  sampler.Finalize();
  ASSERT_EQ(sink.published.size(), 4u);
  EXPECT_EQ(sink.published.back()->sample_seq, 5u);
  EXPECT_EQ(sink.published.back()->metrics_text, ToPrometheusText(sampler));
  EXPECT_EQ(sink.published.back()->timeline_jsonl, ToJsonl(sampler));
  EXPECT_NE(sink.published.back()->healthz_json.find("\"status\":\"ok\""),
            std::string::npos);

  // Repeated Finalize: no duplicate closing sample AND no duplicate publish.
  sampler.Finalize();
  EXPECT_EQ(sampler.samples().size(), 6u);
  EXPECT_EQ(sink.published.size(), 4u);
}

// --------------------- LSM series and compaction alerts ---------------------

TEST(TelemetryDeviceTest, LsmGaugesMatchIntrospection) {
  KvSsdOptions o = TelemetryOptions();
  o.trace.enabled = true;
  auto ssd = KvSsd::Open(o).value();
  RunSmallWorkload(*ssd, 250);
  ssd->Hooks().sampler->Finalize();

  // The closing sample's LSM gauges are the same numbers Inspect() reports.
  const Sampler& t = ssd->telemetry();
  const DeviceSnapshot snap = ssd->InspectDevice();
  EXPECT_EQ(t.Latest("gauge.lsm.memtable_bytes"), snap.lsm_memtable_bytes);
  EXPECT_EQ(t.Latest("gauge.lsm.memtable_entries"),
            snap.lsm_memtable_entries);
  EXPECT_EQ(t.Latest("gauge.lsm.compaction_debt_bytes"),
            snap.lsm_compaction_debt_bytes);
  EXPECT_EQ(t.Latest("gauge.lsm.pending_trim_tables"),
            snap.lsm_pending_trim_tables);
  ASSERT_FALSE(snap.lsm_levels.empty());
  EXPECT_EQ(t.Latest("gauge.lsm.l0.tables"), snap.lsm_levels[0].tables);
  EXPECT_EQ(t.Latest("gauge.lsm.l0.bytes"), snap.lsm_levels[0].bytes);
  // In-flight gauges are 0 between ops (flush/compaction are synchronous).
  EXPECT_EQ(t.Latest("gauge.lsm.flush_in_progress"), 0u);
  EXPECT_EQ(t.Latest("gauge.lsm.compaction_in_progress"), 0u);

  // The device-level percentile series reconcile with the lifetime
  // histogram the tracer recorded.
  const auto hists = ssd->metrics().SnapshotHistograms();
  const auto put = hists.find("trace.op.put.latency_ns");
  ASSERT_NE(put, hists.end());
  EXPECT_EQ(t.Latest("hist.trace.op.put.count"), put->second.count);
  EXPECT_EQ(SumSeries(t, "delta.trace.op.put.count"), put->second.count);
  EXPECT_EQ(SumSeries(t, "delta.trace.op.put.sum"), put->second.sum);
}

KvSsdOptions CompactionStormOptions() {
  KvSsdOptions o = TelemetryOptions();
  // An LSM sized far below the workload: tiny MemTable, L0 trigger past 100
  // runs, 128-byte output tables — one L0 flood exceeds the 64-pass
  // MaybeCompact budget, leaving debt standing at sample points.
  o.lsm.memtable_limit_bytes = 512;
  o.lsm.l0_compaction_trigger = 128;
  o.lsm.level_base_bytes = 1024;
  o.lsm.sstable_target_bytes = 128;
  o.lsm.max_levels = 3;
  o.telemetry.rules = {CompactionDebtRule(/*budget_bytes=*/2048, /*n=*/1),
                       L0PileupRule(/*tables=*/4, /*n=*/1),
                       MemtableStallRule(/*stalls=*/1, /*n=*/1)};
  return o;
}

TEST(TelemetryDeviceTest, CompactionStormFiresLsmRulesCleanRunSilent) {
  // Clean run: same rules, normally-sized LSM — all three stay silent.
  KvSsdOptions clean = TelemetryOptions();
  clean.telemetry.rules = CompactionStormOptions().telemetry.rules;
  auto clean_ssd = KvSsd::Open(clean).value();
  RunSmallWorkload(*clean_ssd, 200);
  clean_ssd->Hooks().sampler->Finalize();
  for (const auto& alert : clean_ssd->InspectDevice().alerts) {
    EXPECT_EQ(alert.fired, 0u) << alert.rule;
  }
  EXPECT_EQ(
      clean_ssd->telemetry().event_log().count(EventType::kMemtableStall),
      0u);

  // Storm: the undersized LSM must fire all three rules and log the
  // compaction/stall events that explain them.
  auto ssd = KvSsd::Open(CompactionStormOptions()).value();
  for (int i = 0; i < 800; ++i) {
    Bytes value = workload::MakeValue(64, 2, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put("storm" + std::to_string(i), ByteSpan(value)).ok());
  }
  ASSERT_TRUE(ssd->Flush().ok());
  ssd->Hooks().sampler->Finalize();

  const DeviceSnapshot snap = ssd->InspectDevice();
  ASSERT_EQ(snap.alerts.size(), 3u);
  for (const auto& alert : snap.alerts) {
    EXPECT_GE(alert.fired, 1u) << alert.rule;
  }
  const EventLog& log = ssd->telemetry().event_log();
  EXPECT_GE(log.count(EventType::kCompactionStart), 1u);
  EXPECT_GE(log.count(EventType::kCompactionEnd), 1u);
  EXPECT_GE(log.count(EventType::kMemtableStall), 1u);
  // Start/end pair up (synchronous compactions).
  EXPECT_EQ(log.count(EventType::kCompactionStart),
            log.count(EventType::kCompactionEnd));
  // The new event types serialize with their names.
  const std::string jsonl = ToJsonl(ssd->telemetry());
  EXPECT_NE(jsonl.find("\"type\":\"compaction_start\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"memtable_stall\""), std::string::npos);
}

}  // namespace
}  // namespace bandslim::telemetry
