// MetricsRegistry: a named collection of counters and histograms owned by a
// device instance. Components hold stable pointers obtained at construction
// (the registry never invalidates them), so hot-path updates are a single
// integer add with no map lookup.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"
#include "stats/counter.h"
#include "stats/histogram.h"

namespace bandslim::stats {

// Point-in-time summary of one histogram, detached from the live object.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  // Integer quantile estimates (Histogram::QuantilePermille) — the exact
  // fixed-point values the telemetry percentile series reconcile against.
  std::uint64_t q50 = 0;
  std::uint64_t q95 = 0;
  std::uint64_t q99 = 0;
};

// Full cumulative bucket contents of one histogram. Two snapshots taken at
// consecutive sample boundaries subtract element-wise into the histogram of
// that interval (counts are monotone, so the difference is well-formed).
struct HistogramBuckets {
  Histogram::BucketArray buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

class MetricsRegistry {
 public:
  // Returns the counter/histogram with `name`, creating it on first use.
  // Pointers remain valid for the registry's lifetime. Find-or-create is the
  // RE-ATTACH path: components that are rebuilt over the device's lifetime
  // (PowerCycle recreates the vLog/LSM/controller/buffer) use it to pick
  // their live counters back up. Components that exist once per registry
  // must use RegisterCounter/RegisterHistogram instead, so two writers
  // accidentally sharing a name fail loudly instead of silently summing
  // into one counter.
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Registration path for once-per-registry owners: creating a name that
  // already exists is an error. TryRegister* reports kAlreadyExists;
  // Register* asserts (and, with assertions compiled out, degrades to the
  // find-or-create alias rather than crashing a release binary).
  Result<Counter*> TryRegisterCounter(const std::string& name);
  Result<Histogram*> TryRegisterHistogram(const std::string& name);
  Counter* RegisterCounter(const std::string& name);
  Histogram* RegisterHistogram(const std::string& name);

  // Heterogeneous lookup: a string literal or string_view probes the map
  // without materializing a std::string, so stat assembly (KvSsd::GetStats)
  // stays allocation-free.
  std::uint64_t CounterValue(std::string_view name) const;

  // Copy-free reads for sampling loops. The observation planes (telemetry
  // Sampler, FleetAggregator, AttributionPlane) resolve their series against
  // the live objects once through these and re-resolve only when a size
  // grows; they never call the Snapshot* copies below.
  std::size_t counter_count() const { return counters_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }
  // nullptr when no such counter/histogram exists (never creates one).
  const Counter* FindCounter(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;
  // Visits every counter / histogram in name order: fn(name, object). The
  // name and object references stay valid for the registry's lifetime.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [name, c] : counters_) fn(name, c);
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, h);
  }

  // Flat snapshot of every counter (name -> value), sorted by name. Copies
  // every name: for tests, benches and one-off reports, not sampling loops.
  std::map<std::string, std::uint64_t> SnapshotCounters() const;

  // In-place variant for sampling loops: updates `*out` to mirror the
  // current counter set, reusing existing nodes. Steady state — when no
  // counter was created since the previous call — performs zero heap
  // allocations; new names are inserted and stale ones erased otherwise.
  void SnapshotCountersInto(std::map<std::string, std::uint64_t>* out) const;

  // Summary snapshot of every histogram (name -> summary), sorted by name.
  // Empty histograms are included (count = 0).
  std::map<std::string, HistogramSnapshot> SnapshotHistograms() const;

  // Full bucket snapshot of every histogram, sorted by name (528 B per
  // histogram, empty ones included). For tests and reports; the sampling
  // planes read the live histograms through ForEachHistogram instead.
  std::map<std::string, HistogramBuckets> SnapshotHistogramBuckets() const;

  void ResetAll();

  // Human-readable dump of all counters and histogram summaries.
  std::string ToString() const;

 private:
  // std::less<> enables find(string_view) without a temporary std::string.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace bandslim::stats
