// perfbench harness: host timing, heap-allocation counting, registry
// snapshots, the benchmark's own spans, and result formatting. Everything
// here observes the simulator from outside, through public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats/metrics.h"

namespace perfbench {

// Host monotonic time in nanoseconds.
inline std::int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Heap allocations made by this process so far (alloc_count.cpp).
std::uint64_t HeapAllocs();

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
std::uint64_t QuantileU64(std::vector<std::uint64_t> values, double q);
double Median(std::vector<double> values);
// Mid-distribution quantile (Parzen) of integer samples: linear
// interpolation between adjacent distinct values placed at their mid-ranks
// (share of samples below the value plus half its own share). Simulated
// latencies are discrete: many ops share one exact value, so a plain order
// statistic sits on that value for every seed and jumps between values at a
// mix boundary; the mid-quantile is continuous in the shares. Beyond the
// largest value's mid-rank it rises by at most half of 1/128 of that
// value's octave.
double MidQuantile(std::vector<std::uint64_t> values, double p);

// Order-sensitive 64-bit digest (FNV-1a over 8-byte words and strings).
class Digest {
 public:
  void Add(std::uint64_t v);
  void Add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// Counters and histogram sums of one or more registries, summed by name.
// `hist_sum` holds every histogram's running sum (the trace.stage.*_ns
// histograms cover every command even when the tracer's rings wrap).
struct RegistryView {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> hist_sum;

  void AddFrom(const bandslim::stats::MetricsRegistry& registry);
  std::uint64_t Counter(const std::string& name) const;
  std::uint64_t HistSum(const std::string& name) const;
  // after - before, name by name (counters and histograms are monotone).
  static RegistryView Delta(const RegistryView& after,
                            const RegistryView& before);
};

// The benchmark's own spans: one per layer call the benchmark makes, with
// host and simulated timestamps, the parent span, and the client-op id
// every span of one request shares. Kept in memory, written at exit.
inline constexpr std::uint32_t kNoParent = ~0u;
inline constexpr std::uint64_t kNoClientOp = ~0ULL;

struct Span {
  const char* name = "";
  std::uint32_t parent = kNoParent;
  std::uint64_t client_op = kNoClientOp;
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
  std::uint64_t sim_start_ns = 0;
  std::uint64_t sim_end_ns = 0;
};

struct SelfTime {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  // Sum of span durations.
  std::int64_t self_ns = 0;   // Sum of durations minus direct children.
};

class SpanRecorder {
 public:
  // A disabled recorder records nothing and costs one branch per call.
  explicit SpanRecorder(bool enabled = false, std::size_t reserve = 0);

  bool enabled() const { return enabled_; }
  std::uint32_t Open(const char* name, std::uint32_t parent,
                     std::uint64_t client_op, std::uint64_t sim_now);
  void Close(std::uint32_t id, std::uint64_t sim_now);

  // Spans whose parent is missing, still open, or does not enclose them.
  std::uint64_t Orphans() const;
  // Per span name: count, total and self time (duration minus the
  // durations of its direct children; spans of one thread nest strictly).
  std::map<std::string, SelfTime> SelfTimes() const;
  // Chrome trace_event JSON ("X" events, ts/dur in host microseconds,
  // sim timestamps and self time in args) for spans of the first
  // `max_client_ops` client ops plus every span without a client op.
  std::string ToChromeJson(std::uint64_t max_client_ops) const;

 private:
  // Per span: summed durations of its direct children.
  std::vector<std::int64_t> ChildNs() const;

  bool enabled_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
};

// In-binary calibration probe, in millions of steps per second: the
// geometric mean of a dependent integer walk over a 16 KiB table (core
// speed) and random binary searches in a sorted 1 MiB array (L2). Each
// part first touches its data, so what ran before does not change it. It
// runs after every timed slice, outside the slice, and samples the
// host's speed on the CPU the slice ran on.
double CalibrationMops();

// Spreads the calling thread over the CPUs it may run on. Each vCPU of a
// shared host runs at its own contention level, and those levels differ by
// tens of percent for minutes at a time, so a pass that stays on one CPU
// reads that CPU's speed. Moving the thread to the next CPU before every
// timed slice gives every pass the same blend of all CPUs whatever the
// number of passes. With `keep_pinned` false the thread is released to
// every allowed CPU right after each move (it stays where it is unless the
// scheduler moves it), so threads it starts may still use every CPU.
class CpuRotation {
 public:
  explicit CpuRotation(bool keep_pinned);
  // Moves the calling thread to the step-th allowed CPU (cyclically).
  void Place(std::size_t step) const;

 private:
  std::vector<int> cpus_;
  bool keep_pinned_;
};

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // Measurements behind the value.
};

// Human-readable table (name, value, unit, samples) on stdout.
void PrintMetrics(const char* title, const std::vector<Metric>& metrics);
// The one-line result object the benchmark prints last.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
