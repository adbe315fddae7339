// Observation report: one driver for the simulator's observation gates.
// Each --scenario replays a fixed workload with an observation plane on,
// prints its timeline, and cross-checks the plane against the run's final
// counters. Any violation prints CHECK FAILED and exits nonzero, making
// every scenario a CI gate (ci/verify.sh scrape_gate).
//
//   device  — the paper's rates-over-time view from the device Sampler: a
//             fig08/fig11-style PUT run (piggyback, All packing) whose value
//             size steps mid-run. Per-interval deltas telescope to
//             GetStats() exactly, latency-histogram deltas telescope to the
//             lifetime histogram, a double run is byte-identical, the clean
//             run raises no alert, a command-drop storm fires retry-storm,
//             and an undersized-LSM compaction storm fires the three LSM
//             rules with their events logged.
//   control — device, plus the closed-loop control storm: the same
//             undersized LSM uncontrolled, under the null policy (exports
//             byte-identical to uncontrolled) and controlled (stall streak
//             <= 2 intervals, lower worst-interval p99, no free-blocks-low,
//             byte-identical actuation log across a double run).
//   fleet   — a 4-shard KvCluster and its FleetAggregator on the router
//             clock. Every interval sums its per-shard deltas, the deltas
//             telescope to the summed final counters, merged lifetime
//             percentiles equal a replayed union histogram, uniform routing
//             is silent while a hot shard fires shard_imbalance, ring_skew
//             and straggler_shard, a double run is byte-identical, and a
//             disabled aggregator is bit-identical in virtual time and
//             counters.
//   tenant  — two tenants on a 4-shard cluster with the attribution plane.
//             In every interval the tenant + untagged deltas equal the fleet
//             delta in all four charged dimensions, the ledger matches the
//             runner, a noisy-neighbor storm fires the hog's burn-rate and
//             the hot key-range alerts and drains the victim's budget while
//             the clean blend is silent and shed-free, a double run is
//             byte-identical, and a disabled plane is bit-identical.
//
// Flags: --scenario=device|control|fleet|tenant (default device), --ops=N.
// --export=PREFIX writes the first run's PREFIX.prom and PREFIX.jsonl, plus
// PREFIX.csv (device, control), PREFIX.shards.jsonl (fleet) or
// PREFIX.slo.jsonl (tenant); control adds PREFIX.control.csv and
// PREFIX.actuations.csv. --serve=PORT (0 = ephemeral) attaches the HTTP
// exporter to the first run, whose served documents must byte-match the
// in-process exports; with --export the resolved port is written to
// PREFIX.port, and --serve-hold=MS keeps the server up until that file is
// deleted (or MS elapses) so an external scraper can hit it.
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/kv_cluster.h"
#include "stats/histogram.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/fleet.h"
#include "telemetry/http_exporter.h"
#include "workload/runner.h"
#include "workload/value_gen.h"

using namespace bandslim;
using namespace bandslim::bench;

namespace {

int failures = 0;

void Check(bool ok, const std::string& what, std::uint64_t got,
           std::uint64_t want) {
  if (ok) {
    std::printf("CHECK ok: %-52s %llu\n", what.c_str(),
                static_cast<unsigned long long>(got));
  } else {
    std::fprintf(stderr, "CHECK FAILED: %s: got %llu want %llu\n",
                 what.c_str(), static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ++failures;
  }
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failures;
}

// --- Series reads over any plane --------------------------------------------

std::uint64_t SampleValue(const telemetry::Timeline& t,
                          const telemetry::Sample& s, const std::string& name) {
  const std::int64_t id = t.series().Find(name);
  return id < 0 ? 0 : s.Value(static_cast<std::uint32_t>(id));
}

std::vector<std::uint64_t> SeriesVec(const telemetry::Timeline& t,
                                     const std::string& name) {
  std::vector<std::uint64_t> out;
  out.reserve(t.samples().size());
  for (const telemetry::Sample& s : t.samples()) {
    out.push_back(SampleValue(t, s, name));
  }
  return out;
}

std::uint64_t SumSeries(const telemetry::Timeline& t, const std::string& name) {
  std::uint64_t sum = 0;
  for (std::uint64_t v : SeriesVec(t, name)) sum += v;
  return sum;
}

std::uint64_t MaxSeries(const telemetry::Timeline& t, const std::string& name) {
  std::uint64_t max = 0;
  for (std::uint64_t v : SeriesVec(t, name)) max = std::max(max, v);
  return max;
}

// Each series' per-interval deltas telescope to the final counter `want`.
struct Telescope {
  const char* series;
  std::uint64_t want;
  const char* what;
};
void CheckTelescopes(const telemetry::Timeline& t,
                     std::initializer_list<Telescope> sums) {
  for (const Telescope& c : sums) {
    Check(SumSeries(t, c.series) == c.want, c.what, SumSeries(t, c.series),
          c.want);
  }
}

std::uint64_t AlertFires(const std::vector<DeviceSnapshot::AlertInfo>& alerts,
                         const char* rule) {
  for (const auto& alert : alerts) {
    if (alert.rule == rule) return alert.fired;
  }
  return 0;
}

std::uint64_t TotalFires(const std::vector<DeviceSnapshot::AlertInfo>& alerts) {
  std::uint64_t fires = 0;
  for (const auto& alert : alerts) fires += alert.fired;
  return fires;
}

// Prints about a dozen evenly spaced samples (always the last) via `row`.
template <typename Row>
void PrintRows(const telemetry::Timeline& t, Row row) {
  const auto& samples = t.samples();
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 12);
  for (std::size_t i = 0; i < samples.size();
       i = (i + stride < samples.size() || i + 1 == samples.size())
               ? i + stride
               : samples.size() - 1) {
    row(samples[i]);
    if (i + 1 == samples.size()) break;
  }
  std::printf("samples=%zu events=%llu\n\n", samples.size(),
              static_cast<unsigned long long>(t.event_log().total_emitted()));
}

// --- Export documents -------------------------------------------------------

// One document of a run: its --export file suffix, its name in the
// determinism checks, and the HTTP route serving it (nullptr = file only)
// with the in-process renderer the scrape check names.
struct Export {
  const char* suffix;
  const char* what;
  const char* route;
  const char* renderer;
  std::string body;
};
using Exports = std::vector<Export>;

// "<prefix> <what> byte-identical" for every document of two runs.
void CheckIdentical(const std::string& prefix, const Exports& a,
                    const Exports& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    Check(a[i].body == b[i].body, prefix + " " + a[i].what + " byte-identical",
          a[i].body.size(), b[i].body.size());
  }
}

// The bytes served over the wire at the final published sample equal the
// in-process export taken at the same point.
void CheckScrape(const telemetry::HttpExporter& server,
                 const Exports& exports) {
  for (const Export& e : exports) {
    if (e.route == nullptr) continue;
    const auto got = telemetry::HttpGet(server.port(), e.route);
    Check(got.ok() && got.value() == e.body,
          std::string("GET ") + e.route + " byte-matches " + e.renderer,
          got.ok() ? got.value().size() : 0, e.body.size());
  }
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    Fail("cannot write " + path);
    return;
  }
  out << content;
}

// ============================== device ======================================

// Per-channel busy permille columns are the heatmap's raw data (the bench
// geometry has 4 channels).
const std::vector<std::string> kCsvSeries = {
    "delta.ops",
    "rate.ops_per_sec_milli",
    "rate.pcie.h2d_bytes_per_sec",
    "rate.taf_milli",
    "rate.waf_milli",
    "total.taf_milli",
    "gauge.ftl.free_blocks",
    "gauge.buffer.resident_bytes",
    "gauge.lsm.memtable_bytes",
    "gauge.lsm.compaction_debt_bytes",
    "trace.op.put.p50",
    "trace.op.put.p99",
    "gauge.nand.ch0.busy_permille",
    "gauge.nand.ch1.busy_permille",
    "gauge.nand.ch2.busy_permille",
    "gauge.nand.ch3.busy_permille",
};

Exports DeviceExports(const telemetry::Sampler& t) {
  return {{".prom", "Prometheus", "/metrics", "ToPrometheusText",
           t.ToPrometheusText()},
          {".jsonl", "JSONL", "/timeline.jsonl", "ToJsonl", t.ToJsonl()},
          {".csv", "CSV", nullptr, nullptr,
           telemetry::ToTimeSeriesCsv(t, kCsvSeries)}};
}

KvSsdOptions ReportOptions(bool faults) {
  KvSsdOptions o = DefaultBenchOptions();
  o.driver.method = driver::TransferMethod::kPiggyback;
  o.buffer.policy = buffer::PackingPolicy::kAll;
  o.trace.enabled = true;  // Feeds the per-op latency percentile series.
  o.telemetry.enabled = true;
  o.telemetry.sample_interval_ns = 50 * sim::kMicrosecond;
  // Clean runs must stay silent on every rule; the fault storm trips the
  // retry rule on the first interval containing a resubmission, and the
  // compaction storm (separate, undersized config) trips the LSM rules.
  o.telemetry.rules = {
      telemetry::RetryStormRule(/*retries=*/1, /*n=*/1),
      telemetry::ZeroOpStallRule(/*n=*/10),
      telemetry::CompactionDebtRule(/*budget_bytes=*/2048, /*n=*/1),
      telemetry::L0PileupRule(/*tables=*/4, /*n=*/1),
      telemetry::MemtableStallRule(/*stalls=*/1, /*n=*/1),
  };
  if (faults) o.fault.command_drop_rate = 0.1;
  return o;
}

// An LSM sized far below the workload (tiny MemTable, L1 target of 1 KiB)
// with the given L0 trigger. Encoded reference entries are ~20 B, so an L0
// flood splits into ~100 output tables — more than one 64-pass MaybeCompact
// can drain, which is what leaves compaction debt standing at sample points.
KvSsdOptions StormOptions(int l0_trigger) {
  KvSsdOptions o = ReportOptions(/*faults=*/false);
  o.lsm.memtable_limit_bytes = 512;
  o.lsm.l0_compaction_trigger = l0_trigger;
  o.lsm.level_base_bytes = 1024;
  o.lsm.sstable_target_bytes = 128;
  o.lsm.max_levels = 3;
  return o;
}

struct DeviceRun {
  Exports exports;
  std::uint64_t alerts_fired = 0;
  std::uint64_t timeout_events = 0;
};

// The workload: ops/2 small values (fig08's fine-grained regime), then ops/2
// at 2 KiB (approaching the crossover), so every over-time curve has a step.
DeviceRun RunTimeline(std::uint64_t ops, bool faults,
                      telemetry::HttpExporter* server = nullptr) {
  auto ssd = KvSsd::Open(ReportOptions(faults)).value();
  if (server != nullptr) ssd->Hooks().sampler->SetSink(server);
  std::uint64_t put_errors = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::size_t size = i < ops / 2 ? 64 : 2048;
    Bytes value = workload::MakeValue(size, 11, i);
    // Under the drop storm a command can exhaust its retries; that surfaced
    // timeout IS the scenario the watchdog watches, not a harness failure.
    if (!ssd->Put("tl" + std::to_string(i), ByteSpan(value)).ok()) {
      ++put_errors;
    }
  }
  const bool flushed = ssd->Flush().ok();
  if (!faults && (put_errors != 0 || !flushed)) {
    Fail("clean run rejected " + std::to_string(put_errors) + " PUT(s)" +
         (flushed ? "" : " and the flush"));
  }
  if (faults && put_errors != 0) {
    std::printf("fault storm surfaced %llu host-visible PUT timeout(s)\n",
                static_cast<unsigned long long>(put_errors));
  }
  ssd->Hooks().sampler->Finalize();

  DeviceRun out;
  const telemetry::Sampler& t = ssd->telemetry();
  out.exports = DeviceExports(t);
  const KvSsdStats stats = ssd->GetStats();
  out.timeout_events = t.event_log().count(telemetry::EventType::kTimeout);
  out.alerts_fired = TotalFires(ssd->InspectDevice().alerts);

  // Reconciliation: deltas telescope to the final counters (the closing
  // sample is stamped at run end, so nothing falls off either edge).
  Check(t.dropped_samples() == 0, "no samples dropped", t.dropped_samples(),
        0);
  CheckTelescopes(
      t, {{"delta.ops", stats.commands_submitted,
           "sum(delta.ops) == commands_submitted"},
          {"delta.pcie.h2d_bytes", stats.pcie_h2d_bytes,
           "sum(delta.pcie.h2d_bytes) == pcie_h2d_bytes"},
          {"delta.pcie.d2h_bytes", stats.pcie_d2h_bytes,
           "sum(delta.pcie.d2h_bytes) == pcie_d2h_bytes"},
          {"delta.nand.pages_programmed", stats.nand_pages_programmed,
           "sum(delta.nand.pages) == nand_pages_programmed"},
          {"delta.value_bytes", stats.value_bytes_written,
           "sum(delta.value_bytes) == value_bytes_written"}});
  Check(t.Latest("pcie.h2d_bytes") == stats.pcie_h2d_bytes,
        "last sample cumulative == pcie_h2d_bytes", t.Latest("pcie.h2d_bytes"),
        stats.pcie_h2d_bytes);

  // Percentile pipeline reconciliation: the per-interval histogram deltas
  // must telescope to the lifetime PUT-latency histogram, and the cumulative
  // hist.* series must land on the same lifetime count.
  const auto hists = ssd->metrics().SnapshotHistograms();
  const auto put_hist = hists.find("trace.op.put.latency_ns");
  if (put_hist == hists.end()) {
    Fail("trace.op.put.latency_ns histogram missing");
  } else {
    const auto& h = put_hist->second;
    CheckTelescopes(t, {{"delta.trace.op.put.count", h.count,
                         "sum(delta.put.count) == lifetime hist count"},
                        {"delta.trace.op.put.sum", h.sum,
                         "sum(delta.put.sum) == lifetime hist sum"}});
    Check(t.Latest("hist.trace.op.put.count") == h.count,
          "last hist.put.count == lifetime hist count",
          t.Latest("hist.trace.op.put.count"), h.count);
    // The closing interval can contain zero PUTs (the trailing Flush), in
    // which case its percentile is legitimately 0 — assert over the run.
    Check(MaxSeries(t, "trace.op.put.p50") > 0, "some interval put p50 nonzero",
          MaxSeries(t, "trace.op.put.p50"), 1);
  }

  if (server != nullptr) {
    CheckScrape(*server, out.exports);
    const auto health = telemetry::HttpGet(server->port(), "/healthz");
    Check(health.ok() &&
              health.value().find("\"status\":\"ok\"") != std::string::npos,
          "GET /healthz reports ok", health.ok() ? 1 : 0, 1);
    const auto missing = telemetry::HttpGet(server->port(), "/nope");
    Check(!missing.ok(), "GET /nope returns an HTTP error", missing.ok(), 0);
    Check(server->requests_served() >= 4, "server counted the scrapes",
          server->requests_served(), 4);
  }

  // The timeline table, printed from the samples alone.
  if (!faults) {
    std::printf("\n%9s %9s %10s %8s %8s %9s %9s %10s\n", "t_ms", "kops/s",
                "H2D MB/s", "TAF", "WAF", "p50 us", "p99 us", "free_blk");
    PrintRows(t, [&](const telemetry::Sample& s) {
      const auto val = [&](const char* name) {
        return static_cast<double>(SampleValue(t, s, name));
      };
      std::printf("%9.2f %9.1f %10.1f %8.2f %8.2f %9.2f %9.2f %10.0f\n",
                  static_cast<double>(s.t_ns) / 1e6,
                  val("rate.ops_per_sec_milli") / 1e6,
                  val("rate.pcie.h2d_bytes_per_sec") / 1e6,
                  val("rate.taf_milli") / 1e3, val("rate.waf_milli") / 1e3,
                  val("trace.op.put.p50") / 1e3, val("trace.op.put.p99") / 1e3,
                  val("gauge.ftl.free_blocks"));
    });
  }
  return out;
}

// Compaction storm: flushes stall behind an L0 past 100 runs, the eventual
// L0 compaction floods L1 well past its target, and the bounded compactor
// leaves visible debt at sample points. All three LSM watchdog rules must
// fire, with the compaction and stall events in the log to explain them.
void RunCompactionStorm(std::uint64_t ops) {
  auto ssd = KvSsd::Open(StormOptions(/*l0_trigger=*/128)).value();
  for (std::uint64_t i = 0; i < ops; ++i) {
    Bytes value = workload::MakeValue(64, 13, i);
    if (!ssd->Put("cs" + std::to_string(i), ByteSpan(value)).ok()) {
      Fail("storm PUT " + std::to_string(i) + " rejected");
      return;
    }
  }
  if (!ssd->Flush().ok()) Fail("storm flush rejected");
  ssd->Hooks().sampler->Finalize();

  const DeviceSnapshot snap = ssd->InspectDevice();
  const telemetry::Sampler& t = ssd->telemetry();
  for (const auto& [rule, what] :
       {std::pair{"compaction_debt_over_budget",
                  "storm fires compaction-debt-budget rule"},
        std::pair{"l0_pileup", "storm fires level-0-pileup rule"},
        std::pair{"memtable_stall", "storm fires memtable-stall rule"}}) {
    Check(AlertFires(snap.alerts, rule) >= 1, what,
          AlertFires(snap.alerts, rule), 1);
  }
  const telemetry::EventLog& log = t.event_log();
  for (const auto& [type, what] :
       {std::pair{telemetry::EventType::kCompactionStart,
                  "compaction_start events logged"},
        std::pair{telemetry::EventType::kCompactionEnd,
                  "compaction_end events logged"},
        std::pair{telemetry::EventType::kMemtableStall,
                  "memtable_stall events logged"}}) {
    Check(log.count(type) >= 1, what, log.count(type), 1);
  }
  // Reconciliation against introspection: the closing sample's L0 gauge is
  // the same table count Inspect() reports, and the telescoped stall deltas
  // equal the stall events (one event per stall).
  const std::uint64_t l0 =
      snap.lsm_levels.empty() ? 0 : snap.lsm_levels[0].tables;
  Check(!snap.lsm_levels.empty() && t.Latest("gauge.lsm.l0.tables") == l0,
        "last gauge.lsm.l0.tables == Inspect()",
        t.Latest("gauge.lsm.l0.tables"), l0);
  CheckTelescopes(t, {{"delta.lsm.memtable_stalls",
                       log.count(telemetry::EventType::kMemtableStall),
                       "sum(delta.memtable_stalls) == stall events"}});
}

Exports DeviceScenario(const BenchArgs& args,
                       telemetry::HttpExporter* server) {
  const std::uint64_t ops = args.ops;
  PrintPlatform("Observation report: device telemetry over virtual time",
                ReportOptions(false), args);
  std::printf("\n--- clean run (pass 1%s) ---\n",
              server != nullptr ? ", live scrape attached" : "");
  DeviceRun a = RunTimeline(ops, /*faults=*/false, server);
  std::printf("--- clean run (pass 2: determinism, no server) ---\n");
  DeviceRun b = RunTimeline(ops, /*faults=*/false);
  CheckIdentical("double-run", a.exports, b.exports);
  Check(a.alerts_fired == 0, "clean run raises no alerts", a.alerts_fired, 0);

  std::printf("--- fault storm (command drops) ---\n");
  DeviceRun f = RunTimeline(ops / 4, /*faults=*/true);
  Check(f.alerts_fired >= 1, "fault storm fires the retry-storm rule",
        f.alerts_fired, 1);
  Check(f.timeout_events >= 1, "timeout events logged under faults",
        f.timeout_events, 1);

  std::printf("--- compaction storm (undersized LSM) ---\n");
  RunCompactionStorm(std::max<std::uint64_t>(ops, 2000));
  return a.exports;
}

// ============================== control =====================================
// The same undersized LSM with an L0 trigger of 2, so a flush landing on ANY
// standing L0 run stalls: uncontrolled, nearly every flush stalls and the
// inline merge cascade spikes per-interval p99; controlled, the per-tick
// CompactStep keeps L0 drained and flush deferral spaces the flushes out,
// so stalls never persist and the worst interval stays bounded.

control::ControlPolicy StormControlPolicy() {
  control::ControlPolicy p;
  p.enabled = true;
  p.gc.enabled = true;  // Defaults: pace below 8 free, escalate at 5.
  p.flush.enabled = true;
  p.flush.l0_pace_runs = 1;  // Drain every standing L0 run each tick.
  p.admission.enabled = true;
  p.admission.credits_per_tick = 256;  // Sheds only under gross overload.
  return p;
}

struct StormRun {
  Exports exports;
  std::vector<std::uint64_t> t_ns, p50, p95, p99, stalls;
  std::uint64_t max_stall_streak = 0;
  std::uint64_t worst_p99 = 0;
  std::uint64_t free_low_fires = 0;
  std::uint64_t stall_fires = 0;
  std::uint64_t busy_sheds = 0;
  std::uint64_t actuation_count = 0;
  std::string actuations_csv;
  // t_ns -> actuations recorded at that control tick.
  std::map<std::uint64_t, std::uint64_t> actuations_at;
};

StormRun RunControlStorm(std::uint64_t ops,
                         const control::ControlPolicy& policy) {
  KvSsdOptions o = StormOptions(/*l0_trigger=*/2);
  o.telemetry.rules.push_back(
      telemetry::FreeBlocksLowRule(/*blocks=*/4, /*n=*/1));
  o.control = policy;
  auto ssd = KvSsd::Open(o).value();
  for (std::uint64_t i = 0; i < ops; ++i) {
    Bytes value = workload::MakeValue(64, 13, i);
    Status st = ssd->Put("st" + std::to_string(i), ByteSpan(value));
    // Admission control may shed under overload; kBusy is retryable by
    // contract (the shed already charged the backoff wait).
    while (st.IsBusy()) {
      st = ssd->Put("st" + std::to_string(i), ByteSpan(value));
    }
    if (!st.ok()) {
      Fail("control storm PUT " + std::to_string(i) + ": " + st.ToString());
      break;
    }
  }
  if (!ssd->Flush().ok()) Fail("control storm flush rejected");
  ssd->Hooks().sampler->Finalize();

  StormRun run;
  const telemetry::Sampler& t = ssd->telemetry();
  run.exports = DeviceExports(t);
  for (const telemetry::Sample& s : t.samples()) run.t_ns.push_back(s.t_ns);
  run.p50 = SeriesVec(t, "trace.op.put.p50");
  run.p95 = SeriesVec(t, "trace.op.put.p95");
  run.p99 = SeriesVec(t, "trace.op.put.p99");
  run.stalls = SeriesVec(t, "delta.lsm.memtable_stalls");
  std::uint64_t streak = 0;
  for (std::uint64_t x : run.stalls) {
    streak = x > 0 ? streak + 1 : 0;
    run.max_stall_streak = std::max(run.max_stall_streak, streak);
  }
  run.worst_p99 = MaxSeries(t, "trace.op.put.p99");
  const DeviceSnapshot snap = ssd->InspectDevice();
  run.free_low_fires = AlertFires(snap.alerts, "free_blocks_low");
  run.stall_fires = AlertFires(snap.alerts, "memtable_stall");
  run.busy_sheds = ssd->Hooks().transport->busy_rejections();
  if (ssd->control() != nullptr) {
    run.actuation_count = ssd->control()->actuation_count();
    run.actuations_csv = ssd->control()->ActuationsCsv();
    for (const auto& rec : ssd->control()->actuations()) {
      ++run.actuations_at[static_cast<std::uint64_t>(rec.t_ns)];
    }
  }
  return run;
}

// Side-by-side per-interval percentiles (aligned by sample index; each side
// keeps its own timestamps — the runs advance virtual time differently).
std::string SideBySideCsv(const StormRun& unc, const StormRun& ctl) {
  std::string out =
      "idx,unc_t_ns,unc_p50,unc_p95,unc_p99,unc_stalls,"
      "ctl_t_ns,ctl_p50,ctl_p95,ctl_p99,ctl_stalls,ctl_actuations\n";
  const std::size_t rows = std::max(unc.t_ns.size(), ctl.t_ns.size());
  const auto cell = [](const std::vector<std::uint64_t>& v, std::size_t i) {
    return i < v.size() ? std::to_string(v[i]) : std::string();
  };
  for (std::size_t i = 0; i < rows; ++i) {
    out += std::to_string(i);
    for (const auto* v : {&unc.t_ns, &unc.p50, &unc.p95, &unc.p99,
                          &unc.stalls, &ctl.t_ns, &ctl.p50, &ctl.p95,
                          &ctl.p99, &ctl.stalls}) {
      out += ',';
      out += cell(*v, i);
    }
    out += ',';
    if (i < ctl.t_ns.size()) {
      const auto it = ctl.actuations_at.find(ctl.t_ns[i]);
      out += std::to_string(it == ctl.actuations_at.end() ? 0 : it->second);
    }
    out += '\n';
  }
  return out;
}

void ControlStorm(std::uint64_t ops, const std::string& export_prefix) {
  const std::uint64_t storm_ops = std::max<std::uint64_t>(ops, 2000);
  std::printf("\n--- control storm: uncontrolled baseline ---\n");
  StormRun unc = RunControlStorm(storm_ops, control::ControlPolicy{});

  std::printf("--- control storm: null policy (every knob off) ---\n");
  control::ControlPolicy null_policy;
  null_policy.enabled = true;  // Controller built and ticked, zero knobs.
  StormRun nul = RunControlStorm(storm_ops, null_policy);
  CheckIdentical("null policy", nul.exports, unc.exports);
  Check(nul.actuation_count == 0, "null policy actuates nothing",
        nul.actuation_count, 0);

  std::printf("--- control storm: controlled (paced GC + flush admission) "
              "---\n");
  StormRun ctl = RunControlStorm(storm_ops, StormControlPolicy());
  StormRun ctl2 = RunControlStorm(storm_ops, StormControlPolicy());
  Check(ctl.actuations_csv == ctl2.actuations_csv,
        "double-run actuation log byte-identical", ctl.actuations_csv.size(),
        ctl2.actuations_csv.size());
  Check(ctl.actuation_count >= 1, "controller actuated at least once",
        ctl.actuation_count, 1);
  // The trigger-2 LSM makes nearly every uncontrolled flush a stall (the
  // memtable-stall rule re-fires all run long); controlled, stalls must
  // never persist past 2 consecutive intervals.
  Check(unc.stall_fires > 2, "uncontrolled memtable-stall fires repeatedly",
        unc.stall_fires, 3);
  Check(ctl.max_stall_streak <= 2,
        "controlled stall streak bounded (<=2 intervals)",
        ctl.max_stall_streak, 2);
  Check(ctl.worst_p99 < unc.worst_p99,
        "controlled worst-interval p99 below uncontrolled", ctl.worst_p99,
        unc.worst_p99);
  Check(ctl.free_low_fires == 0, "controlled run keeps free-block headroom",
        ctl.free_low_fires, 0);
  std::printf(
      "control storm: worst p99 %llu -> %llu ns, stall streak %llu -> %llu "
      "intervals, stall fires %llu -> %llu, %llu actuations, %llu sheds\n",
      static_cast<unsigned long long>(unc.worst_p99),
      static_cast<unsigned long long>(ctl.worst_p99),
      static_cast<unsigned long long>(unc.max_stall_streak),
      static_cast<unsigned long long>(ctl.max_stall_streak),
      static_cast<unsigned long long>(unc.stall_fires),
      static_cast<unsigned long long>(ctl.stall_fires),
      static_cast<unsigned long long>(ctl.actuation_count),
      static_cast<unsigned long long>(ctl.busy_sheds));
  if (!export_prefix.empty()) {
    WriteFile(export_prefix + ".control.csv", SideBySideCsv(unc, ctl));
    WriteFile(export_prefix + ".actuations.csv", ctl.actuations_csv);
  }
}

// ========================== fleet and tenant ================================

constexpr std::uint32_t kShards = 4;
constexpr std::size_t kVictim = 0;  // Tenant indices in the blend roster.
constexpr std::size_t kHog = 1;

// Everything one cluster campaign leaves behind.
struct ClusterRun {
  Exports exports;
  KvSsdStats stats;
  sim::Nanoseconds now_ns = 0;
  std::vector<std::map<std::string, std::uint64_t>> counters;  // Per shard.
  StoreSnapshot snap;
  // Tenant scenario only.
  workload::BlendRunResult result;
  telemetry::attribution::AttributionPlane::SloState victim_slo;
  std::uint64_t victim_bad = 0;
};

// Finalizes the fleet plane and collects the run. The tenant scenario's
// documents are the timeline plus /slo.jsonl, the fleet's the timeline plus
// /shards.jsonl.
ClusterRun Collect(cluster::KvCluster& fleet, bool tenant) {
  fleet.fleet().Finalize();
  ClusterRun out;
  const telemetry::FleetAggregator& agg = fleet.fleet();
  out.exports = {
      {".prom", "Prometheus", "/metrics", "ToPrometheusText",
       agg.ToPrometheusText()},
      tenant ? Export{".jsonl", "timeline JSONL", nullptr, nullptr,
                      agg.ToJsonl()}
             : Export{".jsonl", "JSONL", "/timeline.jsonl", "ToJsonl",
                      agg.ToJsonl()},
      tenant ? Export{".slo.jsonl", "slo.jsonl", "/slo.jsonl", "SloJsonl",
                      fleet.attribution().SloJsonl()}
             : Export{".shards.jsonl", "shards.jsonl", "/shards.jsonl",
                      "ShardsJsonl", agg.ShardsJsonl()}};
  out.stats = fleet.GetStats();
  out.now_ns = fleet.Now();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    out.counters.push_back(fleet.shard(s).metrics().SnapshotCounters());
  }
  out.snap = fleet.Inspect();
  return out;
}

// Observation only: a run with the plane disabled is bit-identical to the
// enabled run in virtual time and every per-shard counter.
void CheckDisabledIdentical(const std::string& plane, const ClusterRun& off,
                            const ClusterRun& on) {
  Check(off.now_ns == on.now_ns,
        "disabled " + plane + ": virtual time identical", off.now_ns,
        on.now_ns);
  std::uint64_t mismatches = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (off.counters[s] != on.counters[s]) ++mismatches;
  }
  Check(mismatches == 0, "disabled " + plane + ": shard counters identical",
        mismatches, 0);
}

cluster::ClusterConfig FleetOptions(bool enabled) {
  cluster::ClusterConfig cc;
  cc.num_shards = kShards;
  cc.shard = DefaultBenchOptions();
  cc.shard.trace.enabled = true;  // Feeds the per-shard / merged percentiles.
  cc.fleet.enabled = enabled;
  // Dozens of routed commands per interval even in the slow 1 KiB phase of
  // the workload: enough signal that uniform routing stays below every
  // threshold (a shard never idles six 2 ms intervals in a row) while a hot
  // shard pins the imbalance ratio at its 4-shard ceiling.
  cc.fleet.sample_interval_ns = 2 * sim::kMillisecond;
  cc.fleet.rules = {telemetry::ShardImbalanceRule(/*ratio_milli=*/3000,
                                                  /*n=*/3),
                    telemetry::RingSkewRule(/*skew_permille=*/500, /*n=*/3),
                    telemetry::StragglerShardRule(/*n=*/6)};
  return cc;
}

// Uniform: hashed keys with a value-size step at ops/2 (so the fleet's
// TAF/throughput curves move) plus one cross-shard batch. Hot: every key
// owned by shard 0 — the sharpest imbalance a router can see.
void DriveFleet(cluster::KvCluster& fleet, std::uint64_t ops, bool hot) {
  std::uint64_t put_errors = 0;
  if (hot) {
    std::uint64_t done = 0;
    for (std::uint64_t i = 0; done < ops; ++i) {
      const std::string key = "hot" + std::to_string(i);
      if (fleet.ShardOf(key) != 0) continue;
      Bytes value = workload::MakeValue(64, 19, done);
      if (!fleet.Put(key, ByteSpan(value)).ok()) ++put_errors;
      ++done;
    }
  } else {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::size_t size = i < ops / 2 ? 64 : 1024;
      Bytes value = workload::MakeValue(size, 19, i);
      if (!fleet.Put("fl" + std::to_string(i), ByteSpan(value)).ok()) {
        ++put_errors;
      }
    }
    std::vector<KvStore::KvPair> batch;
    for (std::uint64_t i = 0; i < 32; ++i) {
      batch.push_back({"flb" + std::to_string(i),
                       workload::MakeValue(256, 19, i)});
    }
    if (!fleet.PutBatch(batch).ok()) ++put_errors;
  }
  const bool flushed = fleet.Flush().ok();
  if (put_errors != 0 || !flushed) {
    Fail("workload rejected " + std::to_string(put_errors) + " PUT(s)" +
         (flushed ? "" : " and the flush"));
  }
}

// Exact reconciliation and mergeable percentiles, checked against the live
// aggregator before teardown.
void CheckFleetReconciliation(const cluster::KvCluster& fleet,
                              const KvSsdStats& stats) {
  const telemetry::FleetAggregator& agg = fleet.fleet();
  Check(agg.dropped_samples() == 0, "no fleet samples dropped",
        agg.dropped_samples(), 0);
  Check(agg.samples_emitted() >= 3, "fleet emitted multiple samples",
        agg.samples_emitted(), 3);

  // Every interval: the fleet delta is the sum of the per-shard deltas, and
  // the fleet cumulative is the sum of the per-shard cumulatives.
  std::uint64_t skewed_intervals = 0;
  for (const telemetry::Sample& s : agg.samples()) {
    std::uint64_t shard_delta = 0, shard_cum = 0;
    for (std::uint32_t i = 0; i < kShards; ++i) {
      const std::string base = "shard" + std::to_string(i);
      shard_delta += SampleValue(agg, s, base + ".delta.ops");
      shard_cum += SampleValue(agg, s, base + ".ops");
    }
    if (SampleValue(agg, s, "delta.ops") != shard_delta ||
        SampleValue(agg, s, "nvme.commands_submitted") != shard_cum) {
      ++skewed_intervals;
    }
  }
  Check(skewed_intervals == 0, "every interval sums its shard deltas",
        skewed_intervals, 0);

  CheckTelescopes(agg, {{"delta.ops", stats.commands_submitted,
                         "sum(delta.ops) == commands_submitted"},
                        {"delta.value_bytes", stats.value_bytes_written,
                         "sum(delta.value_bytes) == value_bytes_written"},
                        {"delta.nand.pages_programmed",
                         stats.nand_pages_programmed,
                         "sum(delta.nand.pages) == nand_pages_programmed"}});
  Check(agg.Latest("nvme.commands_submitted") == stats.commands_submitted,
        "last cumulative == commands_submitted",
        agg.Latest("nvme.commands_submitted"), stats.commands_submitted);
  const std::uint64_t h2d = agg.Latest("pcie.mmio.h2d_bytes") +
                            agg.Latest("pcie.cmd_fetch.h2d_bytes") +
                            agg.Latest("pcie.dma_data.h2d_bytes") +
                            agg.Latest("pcie.completion.h2d_bytes");
  Check(h2d == stats.pcie_h2d_bytes, "last cumulative h2d == pcie_h2d_bytes",
        h2d, stats.pcie_h2d_bytes);

  // Mergeable percentiles: the fleet's lifetime quantiles must equal the
  // quantiles of the union histogram rebuilt from the shard buckets.
  stats::Histogram union_hist;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto hists = fleet.shard(s).metrics().SnapshotHistogramBuckets();
    const auto it = hists.find("trace.op.latency_ns");
    if (it == hists.end()) continue;
    union_hist.MergeFrom(it->second.buckets, it->second.count, it->second.sum);
  }
  Check(agg.Latest("hist.trace.op.count") == union_hist.count(),
        "fleet hist count == union of shard histograms",
        agg.Latest("hist.trace.op.count"), union_hist.count());
  for (const std::uint32_t q : {500u, 950u, 990u}) {
    const std::string p = "p" + std::to_string(q / 10);
    const std::uint64_t got = agg.Latest("lifetime.trace.op." + p);
    Check(got == union_hist.QuantilePermille(q),
          "fleet lifetime " + p + " == union quantile", got,
          union_hist.QuantilePermille(q));
  }
  Check(agg.Latest("lifetime.trace.op.p99") > 0, "fleet lifetime p99 nonzero",
        agg.Latest("lifetime.trace.op.p99"), 1);
}

void PrintFleetTimeline(const telemetry::FleetAggregator& agg) {
  std::printf("\n%9s %9s %7s %8s %8s %8s  %s\n", "t_ms", "kops/s", "d.ops",
              "max/mean", "skew", "stalled", "shard delta ops");
  PrintRows(agg, [&](const telemetry::Sample& s) {
    const auto val = [&](const std::string& name) {
      return SampleValue(agg, s, name);
    };
    std::printf(
        "%9.2f %9.1f %7llu %8.3f %7llu%% %8llu  [",
        static_cast<double>(s.t_ns) / 1e6,
        static_cast<double>(val("rate.ops_per_sec_milli")) / 1e6,
        static_cast<unsigned long long>(val("delta.ops")),
        static_cast<double>(val("fleet.imbalance.ops_max_over_mean_milli")) /
            1e3,
        static_cast<unsigned long long>(val("fleet.ring.skew_permille") / 10),
        static_cast<unsigned long long>(
            val("fleet.straggler.stalled_shards")));
    for (std::uint32_t sh = 0; sh < kShards; ++sh) {
      std::printf("%s%llu", sh == 0 ? "" : " ",
                  static_cast<unsigned long long>(
                      val("shard" + std::to_string(sh) + ".delta.ops")));
    }
    std::printf("]\n");
  });
}

ClusterRun RunFleet(std::uint64_t ops, bool hot, bool enabled,
                    telemetry::HttpExporter* server = nullptr,
                    bool print = false) {
  auto fleet = cluster::KvCluster::Open(FleetOptions(enabled)).value();
  if (server != nullptr) fleet->fleet().SetSink(server);
  DriveFleet(*fleet, ops, hot);
  ClusterRun out = Collect(*fleet, /*tenant=*/false);
  const telemetry::FleetAggregator& agg = fleet->fleet();
  if (enabled && hot) {
    // All traffic on one of four shards: max/mean pins at exactly 4.000 in
    // every interval with traffic — the ratio's ceiling for this fleet.
    const std::uint64_t ratio =
        MaxSeries(agg, "fleet.imbalance.ops_max_over_mean_milli");
    Check(ratio == 4000, "hot run pins max/mean ops ratio at 4.000", ratio,
          4000);
  }
  if (enabled) {
    CheckFleetReconciliation(*fleet, out.stats);
    Check(out.snap.fleet_samples == agg.samples_emitted(),
          "snapshot surfaces the fleet sample count", out.snap.fleet_samples,
          agg.samples_emitted());
    if (print) PrintFleetTimeline(agg);
  }
  if (server != nullptr) {
    CheckScrape(*server, out.exports);
    const auto health = telemetry::HttpGet(server->port(), "/healthz");
    Check(health.ok() &&
              health.value().find("\"shards\":4") != std::string::npos,
          "GET /healthz reports 4 shards", health.ok() ? 1 : 0, 1);
  }
  return out;
}

Exports FleetScenario(const BenchArgs& args,
                      telemetry::HttpExporter* server) {
  const std::uint64_t ops = args.ops;
  PrintPlatform("Observation report: fleet telemetry over virtual time",
                FleetOptions(true).shard, args);
  std::printf("  fleet   : %u shards, 2 ms sample interval, rules "
              "{shard_imbalance, ring_skew, straggler_shard}\n\n", kShards);

  std::printf("--- uniform run (pass 1%s) ---\n",
              server != nullptr ? ", live scrape attached" : "");
  ClusterRun a = RunFleet(ops, /*hot=*/false, /*enabled=*/true, server,
                          /*print=*/true);
  Check(TotalFires(a.snap.alerts) == 0,
        "uniform routing raises no fleet alerts", TotalFires(a.snap.alerts),
        0);

  std::printf("--- uniform run (pass 2: determinism, no server) ---\n");
  ClusterRun b = RunFleet(ops, /*hot=*/false, /*enabled=*/true);
  CheckIdentical("double-run", a.exports, b.exports);
  Check(a.exports[0].body.find("bandslim_shard_ops_total{shard=\"3\"}") !=
            std::string::npos,
        "scrape carries shard-labeled families", 1, 1);

  std::printf("--- uniform run (pass 3: aggregator disabled) ---\n");
  ClusterRun c = RunFleet(ops, /*hot=*/false, /*enabled=*/false);
  CheckDisabledIdentical("aggregator", c, b);
  Check(c.snap.fleet_samples == 0, "disabled aggregator emits no samples",
        c.snap.fleet_samples, 0);

  std::printf("--- hot-shard storm (every PUT owned by shard 0) ---\n");
  ClusterRun h = RunFleet(std::max<std::uint64_t>(ops / 3, 1000),
                          /*hot=*/true, /*enabled=*/true);
  for (const auto& [rule, what] :
       {std::pair{"shard_imbalance", "hot shard fires shard_imbalance"},
        std::pair{"ring_skew", "hot shard fires ring_skew"},
        std::pair{"straggler_shard", "hot shard fires straggler_shard"}}) {
    Check(AlertFires(h.snap.alerts, rule) >= 1, what,
          AlertFires(h.snap.alerts, rule), 1);
  }
  return a.exports;
}

// The cluster every tenant run uses: identical tenants, credits, SLOs and
// rules — only the workload differs between the clean and the storm pass,
// so "the clean run is silent" is a statement about the rules, not about a
// defanged config.
cluster::ClusterConfig BlendOptions(bool attribution_enabled) {
  cluster::ClusterConfig cc;
  cc.num_shards = kShards;
  cc.shard = DefaultBenchOptions();
  // Small memtables: flush stalls land INSIDE the run, so a hog flooding a
  // shard with 2 KiB values degrades the victim's ops on that shard — the
  // cross-tenant interference the attribution plane exists to expose.
  cc.shard.lsm.memtable_limit_bytes = 64 << 10;
  cc.tenants.resize(2);
  cc.tenants[kVictim].name = "frontend";
  cc.tenants[kVictim].queue_id = 0;
  cc.tenants[kHog].name = "batch";
  cc.tenants[kHog].queue_id = 1;
  // 8 admitted commands per 2 ms window per shard = 4k admitted ops/s. The
  // clean batch blend issues an order of magnitude below that (even its
  // burstiest window stays under credit); the storm's closed-loop flood on
  // shard 0 runs far above it and sheds.
  cc.tenants[kHog].credits_per_window = 8;
  cc.qos_refill_window_ns = 2 * sim::kMillisecond;

  cc.fleet.enabled = true;
  cc.fleet.sample_interval_ns = 2 * sim::kMillisecond;
  cc.fleet.rules = {
      telemetry::attribution::TenantBurnRateFastRule(kHog),
      telemetry::attribution::TenantBurnRateSlowRule(kHog),
      telemetry::attribution::HotRangeRule(/*share_permille=*/300, /*n=*/2),
  };

  cc.attribution.enabled = attribution_enabled;
  cc.attribution.heat_fanout = 64;
  cc.attribution.slo.resize(2);
  // Victim: latency SLO on the router timeline. The target sits above the
  // bulk of the clean run's ops but below a hog-induced flush stall, so the
  // budget drains visibly faster when the neighbor misbehaves.
  cc.attribution.slo[kVictim].latency_target_ns = 200 * sim::kMicrosecond;
  cc.attribution.slo[kVictim].availability_target_permille = 990;
  // Hog: availability-only SLO — admission sheds are its bad ops.
  cc.attribution.slo[kHog].latency_target_ns = 0;
  cc.attribution.slo[kHog].availability_target_permille = 990;
  return cc;
}

// A key prefix whose first `num_keys` MixedKeyNames are ALL owned by shard
// 0 under this cluster's ring — the hot key set for the storm.
std::string FindShard0Prefix(const cluster::KvCluster& fleet,
                             std::uint64_t num_keys) {
  for (std::uint64_t j = 0;; ++j) {
    const std::string prefix = "h" + std::to_string(j) + ":";
    bool all_on_0 = true;
    for (std::uint64_t i = 0; i < num_keys && all_on_0; ++i) {
      all_on_0 = fleet.ShardOf(prefix + workload::MixedKeyName(i)) == 0;
    }
    if (all_on_0) return prefix;
  }
}

// The victim's traffic is IDENTICAL in both scenarios; only the neighbor
// changes. Clean: batch runs a modest uniform mix over its own key space,
// well under its admission credits. Storm: batch floods ONE shard-0-owned
// hot key with 2 KiB PUTs at the victim's own rate — a single heat bucket
// soaks up the hog's half of all touches.
workload::TenantBlendSpec BlendFor(const cluster::KvCluster& fleet,
                                   std::uint64_t ops, bool storm) {
  workload::TenantBlendSpec blend;
  blend.seed = 7;
  blend.tenants.resize(2);
  workload::MixedWorkloadSpec& victim = blend.tenants[kVictim];
  victim.name = "frontend";
  victim.ops = ops;
  victim.num_keys = 512;
  victim.value_size = 128;
  victim.get_permille = 500;
  victim.seed = 11;
  victim.key_prefix = "v:";
  workload::MixedWorkloadSpec& hog = blend.tenants[kHog];
  hog.name = "batch";
  hog.seed = 23;
  if (storm) {
    hog.ops = ops;
    hog.num_keys = 1;
    hog.value_size = 2048;
    hog.get_permille = 0;  // All PUTs: maximum bytes, maximum interference.
    hog.key_prefix = FindShard0Prefix(fleet, hog.num_keys);
  } else {
    hog.ops = ops / 8;  // Modest share: stays under the credit rate.
    hog.num_keys = 512;
    hog.value_size = 128;
    hog.get_permille = 500;
    hog.key_prefix = "b:";
  }
  return blend;
}

// Tenant deltas + untagged residual == fleet delta, per interval and per
// charged dimension, telescoping to the final summed counters.
void CheckTenantReconciliation(const cluster::KvCluster& fleet,
                               const KvSsdStats& stats) {
  const telemetry::FleetAggregator& agg = fleet.fleet();
  const struct {
    const char* what;
    const char* fleet_delta;
    const char* part;  // tenant<i>.delta.<part> / untagged.delta.<part>
    std::uint64_t final_total;
  } dims[] = {
      {"dev.ops", "delta.ops", "dev.ops", stats.commands_submitted},
      {"value_bytes", "delta.value_bytes", "value_bytes",
       stats.value_bytes_written},
      {"pcie.h2d", "delta.pcie.h2d_bytes", "pcie.h2d_bytes",
       stats.pcie_h2d_bytes},
      {"nand.pages", "delta.nand.pages_programmed", "nand.pages_programmed",
       stats.nand_pages_programmed},
  };
  for (const auto& dim : dims) {
    std::uint64_t skewed = 0, telescoped = 0;
    for (const telemetry::Sample& s : agg.samples()) {
      std::uint64_t attributed =
          SampleValue(agg, s, std::string("untagged.delta.") + dim.part);
      for (std::size_t t = 0; t < fleet.num_tenants(); ++t) {
        attributed += SampleValue(
            agg, s, "tenant" + std::to_string(t) + ".delta." + dim.part);
      }
      if (attributed != SampleValue(agg, s, dim.fleet_delta)) ++skewed;
      telescoped += attributed;
    }
    Check(skewed == 0,
          std::string("every interval attributes ") + dim.what + " exactly",
          skewed, 0);
    Check(telescoped == dim.final_total,
          std::string("attributed ") + dim.what + " telescopes to GetStats",
          telescoped, dim.final_total);
  }
  Check(agg.dropped_samples() == 0, "no fleet samples dropped",
        agg.dropped_samples(), 0);
}

void PrintTenantReport(const cluster::KvCluster& fleet) {
  const auto& plane = fleet.attribution();
  std::printf("\n%-10s %8s %6s %10s %12s %10s %10s %8s\n", "tenant", "ops",
              "shed", "p99_us", "dev_bytes", "burn_fast", "burn_slow",
              "budget");
  // "budget" is lifetime error-budget spend in permille (1000 = exhausted).
  for (std::size_t t = 0; t < plane.num_tenants(); ++t) {
    const auto& c = plane.tenant_charges(t);
    const auto& s = plane.slo_state(t);
    std::printf("%-10s %8llu %6llu %10.1f %12llu %9.2fx %9.2fx %6llupm\n",
                plane.tenant_name(t).c_str(),
                static_cast<unsigned long long>(c.ops),
                static_cast<unsigned long long>(c.shed_ops),
                static_cast<double>(
                    plane.tenant_latency(t).QuantilePermille(990)) /
                    1e3,
                static_cast<unsigned long long>(c.pcie_h2d_bytes),
                static_cast<double>(s.burn_fast_milli) / 1e3,
                static_cast<double>(s.burn_slow_milli) / 1e3,
                static_cast<unsigned long long>(s.budget_spent_permille));
  }
  std::printf("%-10s %8s %6s %10s %12llu\n\n", "untagged", "-", "-", "-",
              static_cast<unsigned long long>(
                  plane.untagged().pcie_h2d_bytes));
}

// One campaign: open the blend cluster, preload shard-direct (untagged),
// run the interleaved blend, finalize, collect everything.
ClusterRun RunBlend(std::uint64_t ops, bool storm, bool enabled,
                    telemetry::HttpExporter* server = nullptr,
                    bool print = false) {
  auto fleet = cluster::KvCluster::Open(BlendOptions(enabled)).value();
  if (server != nullptr) fleet->fleet().SetSink(server);
  const workload::TenantBlendSpec blend = BlendFor(*fleet, ops, storm);

  const Status preloaded = workload::PreloadTenantBlend(*fleet, blend);
  if (!preloaded.ok()) {
    Fail("preload: " + preloaded.ToString());
    return Collect(*fleet, /*tenant=*/true);
  }
  const workload::BlendRunResult result =
      workload::RunTenantBlendWorkload(*fleet, blend, "blend");
  if (result.workload.find("FAILED") != std::string::npos) {
    Fail("blend: " + result.workload);
  }
  if (!fleet->Flush().ok()) Fail("final flush rejected");

  ClusterRun out = Collect(*fleet, /*tenant=*/true);
  out.result = result;
  if (enabled) {
    const auto& plane = fleet->attribution();
    out.victim_slo = plane.slo_state(kVictim);
    out.victim_bad = plane.tenant_charges(kVictim).bad_ops;
    CheckTenantReconciliation(*fleet, out.stats);
    // The plane's ledger matches what the runner issued.
    for (std::size_t t = 0; t < blend.tenants.size(); ++t) {
      const auto& charges = plane.tenant_charges(t);
      const std::string who = " (" + plane.tenant_name(t) + ")";
      Check(charges.ops == result.tenants[t].ops,
            "ledger ops match runner" + who, charges.ops,
            result.tenants[t].ops);
      Check(charges.shed_ops == result.tenants[t].shed,
            "ledger sheds match runner" + who, charges.shed_ops,
            result.tenants[t].shed);
    }
    if (print) PrintTenantReport(*fleet);
  }
  if (server != nullptr) CheckScrape(*server, out.exports);
  return out;
}

Exports TenantScenario(const BenchArgs& args,
                       telemetry::HttpExporter* server) {
  const std::uint64_t ops = args.ops;
  PrintPlatform("Observation report: per-tenant attribution over virtual time",
                BlendOptions(true).shard, args);
  std::printf("  tenants : frontend (victim, 200 us / 99.0%% SLO) + batch "
              "(8 credits / 2 ms window)\n");
  std::printf("  rules   : {slo_burn_fast_t1, slo_burn_slow_t1, "
              "hot_key_range >= 30%%}\n\n");

  std::printf("--- clean blend (pass 1%s) ---\n",
              server != nullptr ? ", live scrape attached" : "");
  ClusterRun a = RunBlend(ops, /*storm=*/false, /*enabled=*/true, server,
                          /*print=*/true);
  Check(TotalFires(a.snap.alerts) == 0, "clean blend raises no alerts",
        TotalFires(a.snap.alerts), 0);
  std::uint64_t clean_sheds = 0;
  for (const auto& t : a.result.tenants) clean_sheds += t.shed;
  Check(clean_sheds == 0, "clean blend sheds nothing", clean_sheds, 0);

  std::printf("--- clean blend (pass 2: determinism, no server) ---\n");
  ClusterRun b = RunBlend(ops, /*storm=*/false, /*enabled=*/true);
  CheckIdentical("double-run", a.exports, b.exports);
  Check(a.exports[0].body.find("bandslim_tenant_ops_total{tenant=\"batch\"}") !=
            std::string::npos,
        "scrape carries tenant-labeled families", 1, 1);
  Check(a.exports[2].body.find("\"budget_spent_permille\":") !=
            std::string::npos,
        "slo.jsonl carries the budget ledger", 1, 1);

  std::printf("--- clean blend (pass 3: attribution disabled) ---\n");
  ClusterRun c = RunBlend(ops, /*storm=*/false, /*enabled=*/false);
  CheckDisabledIdentical("attribution", c, b);
  Check(c.exports[2].body.empty(), "disabled attribution exports no slo.jsonl",
        c.exports[2].body.size(), 0);

  std::printf("--- noisy-neighbor storm (batch floods a hot shard-0 key) "
              "---\n");
  ClusterRun h = RunBlend(ops, /*storm=*/true, /*enabled=*/true, nullptr,
                          /*print=*/true);
  const std::uint64_t hog_sheds = h.result.tenants[kHog].shed;
  Check(hog_sheds > 0, "storm sheds the hog's overdraft", hog_sheds, 1);
  Check(AlertFires(h.snap.alerts, "slo_burn_fast_t1") >= 1,
        "storm fires the hog's fast burn-rate alert",
        AlertFires(h.snap.alerts, "slo_burn_fast_t1"), 1);
  Check(AlertFires(h.snap.alerts, "hot_key_range") >= 1,
        "storm fires the hot key-range alert",
        AlertFires(h.snap.alerts, "hot_key_range"), 1);
  Check(h.victim_bad > a.victim_bad, "storm drains the victim's error budget",
        h.victim_bad, a.victim_bad + 1);
  Check(h.victim_slo.budget_spent_permille > a.victim_slo.budget_spent_permille,
        "victim budget spend exceeds the clean run",
        h.victim_slo.budget_spent_permille,
        a.victim_slo.budget_spent_permille + 1);
  return a.exports;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "device";
  std::string export_prefix;
  bool serve = false;
  std::uint16_t serve_port = 0;
  std::uint64_t serve_hold_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
      scenario = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--export=", 9) == 0) {
      export_prefix = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve = true;
      serve_port =
          static_cast<std::uint16_t>(std::strtoul(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--serve-hold=", 13) == 0) {
      serve_hold_ms = std::strtoull(argv[i] + 13, nullptr, 10);
    }
  }
  const bool device = scenario == "device" || scenario == "control";
  if (!device && scenario != "fleet" && scenario != "tenant") {
    std::fprintf(stderr,
                 "unknown --scenario=%s (device|control|fleet|tenant)\n",
                 scenario.c_str());
    return 2;
  }
  const BenchArgs args = ParseArgs(
      argc, argv, device ? 20000 : scenario == "fleet" ? 6000 : 3000);

  telemetry::HttpExporter server;
  if (serve) {
    const Status started = server.Start(serve_port);
    if (!started.ok()) {
      Fail("--serve: " + started.message());
      return 1;
    }
    std::printf("serving /metrics on http://127.0.0.1:%u\n", server.port());
  }
  telemetry::HttpExporter* sink = serve ? &server : nullptr;

  Exports exports = device ? DeviceScenario(args, sink)
                    : scenario == "fleet" ? FleetScenario(args, sink)
                                          : TenantScenario(args, sink);
  if (scenario == "control") ControlStorm(args.ops, export_prefix);

  if (!export_prefix.empty()) {
    for (const Export& e : exports) WriteFile(export_prefix + e.suffix, e.body);
    std::printf("exported %s.*\n", export_prefix.c_str());
  }

  // Hold the server up for an external scraper: publish the resolved port,
  // then wait (wall-clock; virtual time is finished) until the scraper
  // deletes the port file or the hold expires.
  if (serve && serve_hold_ms > 0 && !export_prefix.empty()) {
    const std::string port_path = export_prefix + ".port";
    WriteFile(port_path, std::to_string(server.port()) + "\n");
    std::printf("holding server up to %llu ms (delete %s to release)\n",
                static_cast<unsigned long long>(serve_hold_ms),
                port_path.c_str());
    std::fflush(stdout);
    std::uint64_t waited_ms = 0;
    while (waited_ms < serve_hold_ms &&
           ::access(port_path.c_str(), F_OK) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      waited_ms += 50;
    }
    std::remove(port_path.c_str());
  }
  server.Stop();

  if (failures != 0) {
    std::fprintf(stderr, "\nobserve_report --scenario=%s: %d check(s) FAILED\n",
                 scenario.c_str(), failures);
    return 1;
  }
  std::printf("\nobserve_report --scenario=%s: all checks passed\n",
              scenario.c_str());
  return 0;
}
