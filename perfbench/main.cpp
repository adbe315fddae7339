// perfbench: the repository benchmark. One process runs one workload on one
// thread (closed loop, one client) and prints every metric by name with its
// unit and sample count, then one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 repeats untraced passes (fresh stores, same seed) for S host
// seconds and reports the end-to-end metrics. --trace 1 repeats groups of
// an untraced pass, a traced pass (program tracer + the benchmark's spans)
// and, on cluster_observed, a pass with the observation planes off; it
// reports the per-layer metrics and writes DIR/<workload>.layers.json and
// DIR/<workload>.trace.json (Chrome trace_event). Any correctness or
// determinism failure exits 1. See README.md for every metric's definition.
#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/types.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload {", msg);
  for (std::size_t i = 0; i < WorkloadNames().size(); ++i) {
    std::fprintf(stderr, "%s%s", i ? "," : "", WorkloadNames()[i].c_str());
  }
  std::fprintf(stderr,
               "} --seed N --seconds S --trace 0|1 [--out DIR]\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else if (flag == "--out") {
      a.out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

double PerOp(double value, std::uint64_t ops) {
  return ops == 0 ? 0.0 : value / static_cast<double>(ops);
}
double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::uint64_t SumMatching(const RegistryView& v, const char* prefix,
                          const char* suffix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : v.counters) {
    if (name.rfind(prefix, 0) == 0 && name.ends_with(suffix)) sum += value;
  }
  return sum;
}

double ErrorRatio(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 1.0 : Ratio(failed, attempted);
}

// host_kops_per_s is normalised to a host whose calibration probe
// (CalibrationMops) reads this rate: each slice's host time is scaled by
// the probe rate measured right after it over this reference.
constexpr double kReferenceCalibrationMops = 29.0;

// Host ns of the timed window with every slice at its median across
// passes: all passes replay the same op stream, so this is the median
// pass's cost slice by slice, robust to interference that hits a minority
// of passes in any one slice. With `normalise`, each slice's time is first
// scaled to the reference host by the probe that followed it.
double SteadyWindowNs(const std::vector<PassResult>& passes, bool normalise) {
  double total = 0.0;
  for (std::size_t c = 0; c < passes.front().chunk_host_ns.size(); ++c) {
    std::vector<double> slice;
    for (const PassResult& r : passes) {
      const double scale =
          normalise ? r.calibration_mops[c] / kReferenceCalibrationMops : 1.0;
      slice.push_back(static_cast<double>(r.chunk_host_ns[c]) * scale);
    }
    total += Median(slice);
  }
  return total;
}

double MedianCalibration(const std::vector<PassResult>& passes) {
  std::vector<double> all;
  for (const PassResult& r : passes) {
    all.insert(all.end(), r.calibration_mops.begin(), r.calibration_mops.end());
  }
  return Median(all);
}

double KopsPerS(const std::vector<PassResult>& passes, bool normalise) {
  return static_cast<double>(passes.front().ops) /
         SteadyWindowNs(passes, normalise) * 1e6;
}

// End-to-end metrics from the untraced passes of one run.
std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes) {
  const PassResult& p = passes.front();
  std::vector<double> setup;
  for (const PassResult& r : passes) setup.push_back(r.setup_s);
  const std::uint64_t n = passes.size();
  const RegistryView& d = p.delta;
  const bool reads_in_window = p.get_value_bytes > 0;
  const double read_taf =
      reads_in_window
          ? Ratio(SumMatching(d, "pcie.", ".d2h_bytes"), p.get_value_bytes)
          : Ratio(p.readback_d2h_bytes, p.readback_value_bytes);
  return {
      {"host_kops_per_s",
       KopsPerS(passes, /*normalise=*/true),
       "kops/s", n},
      {"setup_s", Median(setup), "s", n},
      // After the first pass: later passes only add allocator slack.
      {"peak_rss_mb", p.peak_rss_mb, "MiB", 1},
      {"sim_kops_per_s",
       static_cast<double>(p.ops) / (static_cast<double>(p.window_sim_ns) / 1e9) /
           1e3,
       "kops/s", p.ops},
      {"sim_lat_us_p50", p.sim_lat_p50_ns / 1e3, "us",
       p.lat_samples},
      {"sim_lat_us_p999", p.sim_lat_p999_ns / 1e3, "us",
       p.lat_samples},
      {"taf", Ratio(SumMatching(d, "pcie.", ".h2d_bytes"), p.put_value_bytes),
       "ratio", p.puts},
      {"read_taf", read_taf, "ratio",
       reads_in_window ? p.gets : p.readback_gets},
      {"waf",
       Ratio(d.Counter("nand.pages_programmed") * bandslim::kNandPageSize,
             p.put_value_bytes),
       "ratio", p.puts},
      {"space_amp", Ratio(p.mapped_bytes, p.live_user_bytes), "ratio", 1},
  };
}

// Per-layer metrics from groups of (untraced, traced[, planes-off]) passes.
std::vector<Metric> PerLayer(const std::vector<PassResult>& untraced,
                             const std::vector<PassResult>& traced,
                             const std::vector<PassResult>& planes_off,
                             bool is_cluster) {
  const PassResult& u = untraced.front();
  const PassResult& t = traced.front();
  const RegistryView& d = t.delta;  // Identical counts to `u` (checked).
  const std::uint64_t ops = u.ops;
  const double kops = static_cast<double>(ops) / 1e3;
  std::vector<double> overhead, host_share, us_per_sample;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    overhead.push_back(traced[i].window_host_s / untraced[i].window_host_s);
  }
  for (std::size_t i = 0; i < planes_off.size(); ++i) {
    const double on = untraced[i].window_host_s;
    const double off = planes_off[i].window_host_s;
    host_share.push_back(1.0 - off / on);
    us_per_sample.push_back(
        (on - off) * 1e6 /
        static_cast<double>(std::max<std::uint64_t>(1, untraced[i].telemetry_samples)));
  }
  std::uint64_t call_ns_sum = 0;
  for (const std::uint64_t v : u.call_host_ns) call_ns_sum += v;
  const double window_ns = u.window_host_s * 1e9;
  const bool has_calls = call_ns_sum > 0 && u.call_host_ns.size() == ops;
  std::uint64_t shard_max = 0, shard_sum = 0;
  for (const std::uint64_t v : u.shard_ops) {
    shard_max = std::max(shard_max, v);
    shard_sum += v;
  }
  const double shard_mean =
      u.shard_ops.empty() ? 0.0
                          : static_cast<double>(shard_sum) /
                                static_cast<double>(u.shard_ops.size());
  auto stage = [&](const char* name) {
    return PerOp(static_cast<double>(d.HistSum(std::string("trace.stage.") +
                                               name + "_ns")),
                 ops);
  };
  auto per_kop = [&](const char* counter) {
    return kops == 0 ? 0.0 : static_cast<double>(d.Counter(counter)) / kops;
  };
  const std::uint64_t flushed = d.Counter("buffer.flushed_pages");
  const std::uint64_t puts = u.puts;
  return {
      {"workload.gen_host_ns_per_op", u.gen_host_ns_per_op, "ns", 1},
      {"workload.executor_host_ns_per_op",
       has_calls ? PerOp(window_ns - static_cast<double>(call_ns_sum), ops)
                 : PerOp(window_ns, ops),
       "ns", ops},
      {"cluster.host_ns_per_op",
       !is_cluster ? 0.0
                   : (has_calls ? PerOp(static_cast<double>(call_ns_sum), ops)
                                : PerOp(window_ns, ops)),
       "ns", is_cluster ? ops : 0},
      {"cluster.route_host_ns", t.route_host_ns, "ns", is_cluster ? ops : 0},
      {"cluster.shard_ops_max_over_mean",
       is_cluster && shard_mean > 0 ? static_cast<double>(shard_max) / shard_mean
                                    : 0.0,
       "ratio", shard_sum},
      {"telemetry.host_share", Median(host_share), "ratio", host_share.size()},
      {"telemetry.host_us_per_sample", Median(us_per_sample), "us",
       u.telemetry_samples},
      {"telemetry.samples_per_kop",
       kops == 0 ? 0.0 : static_cast<double>(u.telemetry_samples) / kops,
       "count", u.telemetry_samples},
      {"trace.host_overhead_ratio", Median(overhead), "ratio", overhead.size()},
      {"trace.sim_residual_ns_per_op", stage("other"), "ns", ops},
      {"core.host_ns_p50", static_cast<double>(QuantileU64(u.call_host_ns, 0.5)),
       "ns", u.call_host_ns.size()},
      {"core.host_ns_p99", static_cast<double>(QuantileU64(u.call_host_ns, 0.99)),
       "ns", u.call_host_ns.size()},
      {"core.allocs_per_op", PerOp(static_cast<double>(u.allocs), ops), "count",
       ops},
      {"driver.piggyback_share", Ratio(u.piggyback, puts), "ratio", puts},
      {"driver.prp_share", Ratio(u.prp, puts), "ratio", puts},
      {"driver.hybrid_share", Ratio(u.hybrid, puts), "ratio", puts},
      {"nvme.cmds_per_op",
       PerOp(static_cast<double>(d.Counter("nvme.commands_submitted")), ops),
       "count", ops},
      {"nvme.sim_submission_ns_per_op", stage("submission"), "ns", ops},
      {"pcie.h2d_bytes_per_op",
       PerOp(static_cast<double>(SumMatching(d, "pcie.", ".h2d_bytes")), ops),
       "B", ops},
      {"pcie.d2h_bytes_per_op",
       PerOp(static_cast<double>(SumMatching(d, "pcie.", ".d2h_bytes")), ops),
       "B", ops},
      {"pcie.mmio_bytes_per_op",
       PerOp(static_cast<double>(d.Counter("pcie.mmio.h2d_bytes") +
                                 d.Counter("pcie.mmio.d2h_bytes")),
             ops),
       "B", ops},
      {"dma.transfers_per_op",
       PerOp(static_cast<double>(d.Counter("dma.transfers")), ops), "count",
       ops},
      {"dma.sim_ns_per_op", stage("dma"), "ns", ops},
      {"controller.sim_kvs_ns_per_op", stage("kvs"), "ns", ops},
      {"controller.read_memcpy_bytes_per_get",
       PerOp(static_cast<double>(d.Counter("controller.read_memcpy_bytes")),
             u.gets),
       "B", u.gets},
      {"buffer.page_fill_ratio",
       flushed == 0 ? 0.0
                    : 1.0 - Ratio(d.Counter("buffer.wasted_bytes"),
                                  flushed * bandslim::kNandPageSize),
       "ratio", flushed},
      {"buffer.memcpy_bytes_per_put",
       PerOp(static_cast<double>(d.Counter("buffer.memcpy_bytes")), puts), "B",
       puts},
      {"buffer.dlt_forced_evictions",
       static_cast<double>(d.Counter("buffer.dlt_forced_evictions")), "count",
       1},
      {"buffer.sim_copy_ns_per_op", stage("buffer_copy"), "ns", ops},
      {"vlog.pages_flushed_per_kop", per_kop("buffer.flushed_pages"), "count",
       flushed},
      {"vlog.sim_flush_ns_per_op", stage("vlog_flush"), "ns", ops},
      {"vlog.sim_read_ns_per_op", stage("vlog_read"), "ns", ops},
      {"lsm.memtable_put_host_ns", t.memtable_put_host_ns, "ns", ops},
      {"lsm.memtable_get_host_ns", t.memtable_get_host_ns, "ns", ops},
      {"lsm.flushes", static_cast<double>(d.Counter("lsm.memtable_flushes")),
       "count", 1},
      {"lsm.compactions", static_cast<double>(d.Counter("lsm.compactions")),
       "count", 1},
      {"lsm.compaction_bytes_per_put",
       PerOp(static_cast<double>(d.Counter("lsm.compaction_bytes_written")),
             puts),
       "B", puts},
      {"lsm.bloom_skips_per_get",
       PerOp(static_cast<double>(d.Counter("lsm.bloom_skips")), u.gets),
       "count", u.gets},
      {"ftl.programs_vlog_per_kop", per_kop("ftl.programs.vlog"), "count", ops},
      {"ftl.programs_lsm_per_kop", per_kop("ftl.programs.lsm"), "count", ops},
      {"ftl.programs_gc_per_kop", per_kop("ftl.programs.gc"), "count", ops},
      {"ftl.sim_gc_ns_per_op", stage("ftl_gc"), "ns", ops},
      {"nand.pages_programmed_per_kop", per_kop("nand.pages_programmed"),
       "count", ops},
      {"nand.pages_read_per_get",
       PerOp(static_cast<double>(d.Counter("nand.pages_read")), u.gets),
       "count", u.gets},
      {"nand.sim_program_ns_per_op", stage("nand_program"), "ns", ops},
      {"nand.sim_read_ns_per_op", stage("nand_read"), "ns", ops},
  };
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

std::string LayersJson(const std::string& workload, std::uint64_t seed,
                       const std::vector<Metric>& metrics,
                       const SpanRecorder& spans, double calib_mops) {
  std::string out = "{\"workload\": \"" + workload +
                    "\", \"seed\": " + std::to_string(seed) +
                    ", \"calibration_mops\": " + std::to_string(calib_mops) +
                    ",\n \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %" PRIu64 "}",
                  i ? "," : "", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    out += buf;
  }
  out += "},\n \"span_self_time\": {";
  bool first = true;
  for (const auto& [name, st] : spans.SelfTimes()) {
    std::snprintf(buf, sizeof buf,
                  "%s\n  \"%s\": {\"count\": %" PRIu64
                  ", \"total_ns\": %lld, \"self_ns\": %lld}",
                  first ? "" : ",", name.c_str(), st.count,
                  static_cast<long long>(st.total_ns),
                  static_cast<long long>(st.self_ns));
    out += buf;
    first = false;
  }
  out += "}}\n";
  return out;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const bool is_cluster = args.workload == "cluster_observed" ||
                          args.workload == "campaign_4shard";

  // Allocates the calibration probe's arrays before any workload memory.
  (void)CalibrationMops();
  const std::int64_t gen_start = HostNs();
  const std::uint64_t generated = wl->Generate(args.seed);
  const double gen_ns_per_op =
      PerOp(static_cast<double>(HostNs() - gen_start), generated);

  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%.0f trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);

  std::vector<PassResult> untraced, traced, planes_off;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  auto account = [&](const PassResult& r, const char* label) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed != 0) {
      problems.push_back(std::string(label) + ": " + std::to_string(r.failed) +
                         " failure(s), first: " + r.first_failure);
    }
    const std::uint64_t ref =
        untraced.empty() ? r.digest : untraced.front().digest;
    if (r.digest != ref) {
      problems.push_back(std::string("determinism: ") + label +
                         " pass differs from the first untraced pass");
    }
  };

  // campaign_4shard is placed but not pinned, so a shard-parallel executor
  // may one day spread its shards over every CPU.
  const CpuRotation cpus(/*keep_pinned=*/args.workload != "campaign_4shard");
  const std::int64_t start = HostNs();
  const double budget_ns = args.seconds * 1e9;
  const int min_groups = args.trace == 0 ? 3 : 1;
  for (int group = 0;; ++group) {
    if (group >= min_groups &&
        static_cast<double>(HostNs() - start) >= budget_ns) {
      break;
    }
    const std::size_t pass = static_cast<std::size_t>(group);
    cpus.Place(pass);
    untraced.push_back(wl->RunPass(PassOptions{false, true, &cpus, pass}));
    untraced.back().gen_host_ns_per_op = gen_ns_per_op;
    account(untraced.back(), "untraced");
    if (args.trace != 0) {
      traced.push_back(wl->RunPass(PassOptions{true, true, &cpus, pass}));
      account(traced.back(), "traced");
      if (wl->has_planes()) {
        planes_off.push_back(wl->RunPass(PassOptions{false, false, &cpus, pass}));
        account(planes_off.back(), "planes-off");
      }
    }
  }

  std::printf("passes: %zu untraced, %zu traced, %zu planes-off; "
              "gen %.1f ns/op over %" PRIu64 " ops\n",
              untraced.size(), traced.size(), planes_off.size(), gen_ns_per_op,
              generated);
  std::printf("per-pass host kops/s:");
  for (const PassResult& r : untraced) {
    std::printf(" %.1f", static_cast<double>(r.ops) / r.window_host_s / 1e3);
  }
  std::printf("\nraw host kops/s %.2f, median calibration %.2f Mops/s\n",
              KopsPerS(untraced, /*normalise=*/false),
              MedianCalibration(untraced));
  std::printf("op_error_ratio %.6g (%" PRIu64 " failed / %" PRIu64
              " attempted)\n",
              ErrorRatio(failed, attempted), failed, attempted);

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEnd(untraced);
    PrintMetrics("end-to-end (untraced passes):", metrics);
  } else {
    metrics = PerLayer(untraced, traced, planes_off, is_cluster);
    PrintMetrics("per-layer (traced run):", metrics);
    const SpanRecorder& spans = traced.front().spans;
    std::printf("tracer exactness: %" PRIu64 " retained commands checked, "
                "%" PRIu64 " violations, %" PRIu64 " tracer orphans, %" PRIu64
                " benchmark orphans\n",
                traced.front().commands_checked,
                traced.front().exactness_violations,
                traced.front().tracer_orphans, spans.Orphans());
    const std::string base = args.out + "/" + args.workload;
    if (!WriteFile(base + ".layers.json",
                   LayersJson(args.workload, args.seed, metrics, spans,
                              MedianCalibration(untraced))) ||
        !WriteFile(base + ".trace.json", spans.ToChromeJson(2000))) {
      problems.push_back("cannot write exports under " + args.out);
    }
    std::printf("exports: %s.layers.json %s.trace.json\n", base.c_str(),
                base.c_str());
  }

  for (const std::string& p : problems) std::fprintf(stderr, "FAIL %s\n", p.c_str());
  const bool correct = problems.empty();
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed allocator thresholds: freed pass memory is reused by the next
  // pass instead of being unmapped and faulted back in, so passes differ
  // only in the work they do.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  return perfbench::Run(perfbench::Parse(argc, argv));
}
