// Resolve-once sampling shared by the three observation planes — the device
// Sampler, the FleetAggregator and the AttributionPlane (DESIGN.md 2.4).
//
// A plane binds each source it observes (a registry Counter* or Histogram*,
// a per-queue / per-channel / per-die / per-level / per-tenant field, a
// fixed derived series) to a series id ONCE, and a steady-state sample is a
// plain read-and-store: no name is built, no map is probed, and the only
// allocation is the sample's own `values` vector, reserved from the
// previous sample's size.
//
// Resolution contract:
//  * A slot's id is interned the first time the plane emits it, at the same
//    point of the plane's walk the series first appeared before slots
//    existed. Ids are assigned in first-appearance order, and every export
//    renders in id order, so exports stay byte-identical.
//  * Slots re-resolve only when something new appears: a registry gains a
//    counter or histogram (size check), a histogram records its first value,
//    a queue or LSM level appears, or the plane is re-bound (PowerCycle).
//    Interning an existing name returns its existing id, so re-resolution
//    never renumbers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/clock.h"
#include "stats/histogram.h"
#include "stats/metrics.h"
#include "telemetry/sample.h"

namespace bandslim::telemetry {

// --- Fixed-point helpers shared by every plane -------------------------------
// All quantities fit 64 bits comfortably: deltas are bounded by
// bytes-per-interval (<= GB) and intervals by the run length, so the largest
// intermediate (delta * 1e12) stays under 2^63 for any workload the benches
// run.
inline std::uint64_t PerSecond(std::uint64_t delta,
                               sim::Nanoseconds interval_ns) {
  if (interval_ns == 0) return 0;
  return delta * sim::kSecond / interval_ns;
}

inline std::uint64_t PerSecondMilli(std::uint64_t delta,
                                    sim::Nanoseconds interval_ns) {
  if (interval_ns == 0) return 0;
  return delta * sim::kSecond / interval_ns * kMilliScale +
         delta * sim::kSecond % interval_ns * kMilliScale / interval_ns;
}

inline std::uint64_t RatioMilli(std::uint64_t numer, std::uint64_t denom) {
  if (denom == 0) return 0;
  return numer * kMilliScale / denom;
}

// Histogram "trace.op.put.latency_ns" yields percentile series
// "trace.op.put.p50" etc.; a bare "..._ns" histogram just drops the unit
// suffix.
std::string PercentileBase(std::string_view hist_name);

// The series table of one plane plus the dense staging area a sample is
// written into. Set/Cumulative store by id; Finish emits the sample's values
// in id order, so no sort and no lookup is needed.
class SeriesSlots {
 public:
  // --- Resolution (Bind / first appearance only) ----------------------------
  std::uint32_t Resolve(std::string_view name);
  const SeriesTable& table() const { return table_; }

  // --- One sample ------------------------------------------------------------
  // Opens a sample; every Set until Finish belongs to it.
  void Begin() { ++epoch_; }
  void Set(std::uint32_t id, std::uint64_t value) {
    Cell& c = cells_[id];
    if (c.epoch != epoch_) {
      c.prev = c.epoch + 1 == epoch_ ? c.cur : 0;
      c.epoch = epoch_;
    }
    c.cur = value;
  }
  // Value of `id` in the previous sample; 0 when it was absent there.
  std::uint64_t Previous(std::uint32_t id) const {
    const Cell& c = cells_[id];
    if (c.epoch == epoch_) return c.prev;
    return c.epoch + 1 == epoch_ ? c.cur : 0;
  }
  // Records a cumulative series and returns its per-interval delta.
  std::uint64_t Cumulative(std::uint32_t id, std::uint64_t value) {
    const std::uint64_t prev = Previous(id);
    Set(id, value);
    return value - prev;
  }
  // Writes every series set since Begin into `s->values`, ascending by id.
  void Finish(Sample* s);

 private:
  struct Cell {
    std::uint64_t cur = 0;    // Value in sample `epoch`.
    std::uint64_t prev = 0;   // Value in the sample before `epoch` (or 0).
    std::uint64_t epoch = 0;  // Sample that last set this series.
  };
  SeriesTable table_;
  std::vector<Cell> cells_;  // Indexed by series id.
  std::uint64_t epoch_ = 0;
  std::size_t last_size_ = 0;
};

// Ids of a fixed list of series, interned together the first time the
// group is emitted (so in the order the list gives).
template <std::size_t N>
class SeriesGroup {
 public:
  // Interns `names` on the first call; a no-op afterwards.
  void Resolve(SeriesSlots* slots, const char* const (&names)[N]) {
    if (resolved_) return;
    for (std::size_t i = 0; i < N; ++i) ids_[i] = slots->Resolve(names[i]);
    resolved_ = true;
  }
  std::uint32_t operator[](std::size_t i) const { return ids_[i]; }

 private:
  std::array<std::uint32_t, N> ids_{};
  bool resolved_ = false;
};

// Ids of a per-index family of N series each ("queue<i>.submitted", ...),
// grown as indices appear: index i's series are interned the first time
// index i is emitted, in index order.
template <std::size_t N>
class IndexedSeries {
 public:
  // Makes sure indices [0, count) are resolved; `name(i, k)` builds the
  // k-th series name of index i and only runs for new indices.
  template <typename NameFn>
  void Resolve(SeriesSlots* slots, std::size_t count, NameFn name) {
    while (ids_.size() < count) {
      const std::size_t i = ids_.size();
      std::array<std::uint32_t, N> ids{};
      for (std::size_t k = 0; k < N; ++k) ids[k] = slots->Resolve(name(i, k));
      ids_.push_back(ids);
    }
  }
  const std::array<std::uint32_t, N>& operator[](std::size_t i) const {
    return ids_[i];
  }

 private:
  std::vector<std::array<std::uint32_t, N>> ids_;
};

// Counters of one or more registries, summed by name (one registry for a
// device, every shard's for the fleet), each bound to the series id of its
// name. Counter pointers are stable for a registry's lifetime, so the binding
// only changes when a registry gains a counter.
class CounterSlots {
 public:
  void Bind(std::vector<const stats::MetricsRegistry*> registries);

  // Re-resolves when a registry gained a counter since the last call,
  // interning new names in name order. Returns true when it re-resolved, so
  // the caller can refresh the IndexOf lookups it keeps.
  bool Refresh(SeriesSlots* slots);
  // Records every summed counter as a cumulative series; value() and
  // delta() then hold this sample's reads.
  void Sample(SeriesSlots* slots);

  // Slot index of counter `name`, or -1 (a resolution-time lookup).
  std::int64_t IndexOf(std::string_view name) const;
  std::size_t size() const { return slots_.size(); }
  std::string_view name(std::size_t i) const { return slots_[i].name; }
  std::uint64_t value(std::int64_t i) const {
    return i < 0 ? 0 : slots_[static_cast<std::size_t>(i)].value;
  }
  std::uint64_t delta(std::int64_t i) const {
    return i < 0 ? 0 : slots_[static_cast<std::size_t>(i)].delta;
  }

 private:
  struct Slot {
    std::string_view name;  // Key in the first registry holding it.
    std::uint32_t id = 0;
    std::uint32_t first = 0;  // Range in counters_.
    std::uint32_t count = 0;
    std::uint64_t value = 0;
    std::uint64_t delta = 0;
  };
  std::vector<const stats::MetricsRegistry*> registries_;
  std::vector<std::size_t> resolved_sizes_;  // counter_count() at Refresh.
  std::vector<Slot> slots_;                  // Name order.
  std::vector<const stats::Counter*> counters_;
};

// Histograms of one or more registries, merged by name, emitting per-interval
// percentile series from the bucket delta against the previous sample:
//   hist.<base>.count, delta.<base>.count, delta.<base>.sum,
//   <base>.p50, <base>.p95, <base>.p99
// plus, with `lifetime`, lifetime.<base>.p50/.p95/.p99 over the cumulative
// merged buckets. Only histograms holding a value emit; their ids are
// interned the first time they do.
class HistogramSlots {
 public:
  explicit HistogramSlots(bool lifetime) : lifetime_(lifetime) {}

  // Keeps each histogram's previous-sample buckets across re-binds (the
  // device re-binds the same registry after a PowerCycle).
  void Bind(std::vector<const stats::MetricsRegistry*> registries);
  // Emits every histogram holding a value. Returns true when a registry
  // gained a histogram and the slots were re-resolved, so the caller can
  // refresh the IndexOf lookups it keeps.
  bool Sample(SeriesSlots* slots);

  // Slot index of histogram `name`, or -1 (a resolution-time lookup).
  std::int64_t IndexOf(std::string_view name) const;
  // The slot's interval p99 from the latest Sample (0 when it did not emit).
  std::uint64_t interval_p99(std::int64_t i) const {
    return i < 0 ? 0 : slots_[static_cast<std::size_t>(i)].p99;
  }

 private:
  static constexpr std::size_t kMaxSeries = 9;
  struct Slot {
    std::string_view name;    // Key in the first registry holding it.
    std::uint32_t first = 0;  // Range in hists_.
    std::uint32_t count = 0;
    bool resolved = false;
    std::array<std::uint32_t, kMaxSeries> ids{};
    stats::HistogramBuckets last;  // Merged buckets at the previous emission.
    std::uint64_t p99 = 0;
  };
  void Refresh();
  void Resolve(Slot* slot, SeriesSlots* slots);

  bool lifetime_;
  std::vector<const stats::MetricsRegistry*> registries_;
  std::vector<std::size_t> resolved_sizes_;  // histogram_count() at Refresh.
  std::vector<Slot> slots_;                  // Name order.
  std::vector<const stats::Histogram*> hists_;
  stats::HistogramBuckets merged_;           // Scratch.
  stats::Histogram::BucketArray delta_{};    // Scratch.
};

}  // namespace bandslim::telemetry
