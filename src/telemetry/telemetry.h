// Continuous telemetry: a deterministic, virtual-time periodic sampler over
// the assembled device (DESIGN.md 2.4). Every `sample_interval_ns` of
// simulated time the sampler reads the metrics registry plus live
// component state — PCIe per-class byte/transaction counters, NAND
// per-channel/way busy time, FTL block accounting and GC activity, per-queue
// depth/inflight, page-buffer window occupancy, fault/retry/timeout
// counters — and derives per-interval deltas and fixed-point rate gauges
// (bytes/s, ops/s in milli-units, instantaneous TAF/WAF x1000), so the
// paper's rates-over-time curves can be produced from one run. Every source
// is resolved to its series id once (telemetry/series_slots.h), so a
// steady-state sample copies no registry and builds no series name.
//
// Determinism contract:
//  * Sampling is driven by Poll() calls at deterministic points (end of each
//    device command / host op); no wall clock, no threads. Samples are
//    stamped at interval boundaries of the virtual clock; a long operation
//    that crosses several boundaries yields ONE sample stamped at the last
//    crossed boundary whose rates divide by the true elapsed interval.
//  * All derived series are integer / fixed-point; exports (telemetry/
//    export.h) are byte-identical across runs and platforms.
//  * Telemetry never advances the clock or touches device state: enabling it
//    changes no simulated outcome, and the disabled sampler is a single
//    branch per Poll().
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "buffer/page_buffer.h"
#include "ftl/ftl.h"
#include "nand/nand_flash.h"
#include "nvme/transport.h"
#include "pcie/link.h"
#include "sim/clock.h"
#include "stats/metrics.h"
#include "telemetry/event_log.h"
#include "telemetry/sample.h"
#include "telemetry/series_slots.h"
#include "telemetry/watchdog.h"

namespace bandslim::lsm {
class LsmTree;
}

namespace bandslim::telemetry {

struct TelemetryConfig {
  bool enabled = false;
  // Virtual time between samples. 1 ms of simulated time resolves the
  // paper's second-scale runs into ~thousands of points.
  sim::Nanoseconds sample_interval_ns = sim::kMillisecond;
  // Ring capacities; the oldest record is dropped (and counted) on overflow.
  std::size_t sample_capacity = 1u << 16;
  std::size_t event_capacity = 1u << 14;
  // Declarative alert rules evaluated on every sample (telemetry/watchdog.h).
  std::vector<WatchdogRule> rules;
  // With a SnapshotSink attached, publish a rendered snapshot every Nth
  // sample (and always at Finalize). Rendering the timeline is O(samples),
  // so publishing every sample would make a run quadratic in its length; a
  // live scraper polls at wall-clock timescales and never notices the gap.
  std::uint64_t publish_every = 64;
};

// One fully-rendered observation of the run, published by the Sampler at
// every sample boundary. All fields are immutable after construction, so a
// snapshot can be handed to another thread (the HTTP exporter) as a
// shared_ptr<const> with no further synchronization.
struct PublishedSnapshot {
  std::uint64_t sample_seq = 0;   // Seq of the sample that triggered publish.
  sim::Nanoseconds t_ns = 0;      // That sample's virtual timestamp.
  std::string metrics_text;       // Prometheus 0.0.4, == ToPrometheusText().
  std::string timeline_jsonl;     // Full timeline so far, == ToJsonl().
  std::string healthz_json;       // Tiny liveness document for /healthz.
  // Per-shard snapshot stream for /shards.jsonl. Only the fleet aggregator
  // fills this; the single-device Sampler leaves it empty and the exporter
  // answers 404 for the route, keeping single-device serving unchanged.
  std::string shards_jsonl;
  // Per-tenant SLO ledger for /slo.jsonl. Filled only by a fleet aggregator
  // with an attribution plane attached; empty = route answers 404.
  std::string slo_jsonl;
};

// Consumer of published snapshots. Publish() is called on the simulation
// thread at each sample boundary; implementations must not block (the HTTP
// exporter just swaps a shared_ptr under a mutex).
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  virtual void Publish(std::shared_ptr<const PublishedSnapshot> snapshot) = 0;
};

// Observer of finalized samples, called synchronously from inside
// TakeSample after the watchdog has evaluated (so alert edges for this
// interval are visible) and before snapshot publication. The closed-loop
// controller implements this: ticking on the sample grid means control
// decisions always see completed interval deltas, never a torn mid-interval
// view. Unlike the Sampler itself, an observer MAY mutate device state
// (actuate knobs) — the sampler has already captured this interval.
class SampleObserver {
 public:
  virtual ~SampleObserver() = default;
  virtual void OnSample(const Sample& sample) = 0;
};

class Sampler {
 public:
  // What one sample reads. All pointers are observed, never mutated;
  // `buffer` is re-bound after PowerCycle() reassembles the device.
  struct Sources {
    const stats::MetricsRegistry* metrics = nullptr;
    const pcie::PcieLink* link = nullptr;
    const nvme::NvmeTransport* transport = nullptr;
    const nand::NandFlash* nand = nullptr;
    const ftl::PageFtl* ftl = nullptr;
    const buffer::NandPageBuffer* buffer = nullptr;
    const lsm::LsmTree* lsm = nullptr;
  };

  Sampler(const sim::VirtualClock* clock, const TelemetryConfig& config);

  bool enabled() const { return config_.enabled; }
  const TelemetryConfig& config() const { return config_; }

  // (Re)binds the observation points; the first bind anchors the interval
  // grid at the current virtual time.
  void Bind(const Sources& sources);

  // Emits one sample if at least one interval boundary has passed since the
  // last emission. Called after every device command and host-level op; a
  // disabled sampler returns after one branch.
  void Poll();

  // Emits a closing sample stamped at the current virtual time (regardless
  // of boundary alignment), so the last sample's cumulative series equal
  // the final registry counters exactly. Idempotent at a given time.
  void Finalize();

  const std::deque<Sample>& samples() const { return samples_; }
  const SeriesTable& series() const { return slots_.table(); }
  std::uint64_t samples_emitted() const { return next_seq_; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  EventLog& event_log() { return event_log_; }
  const EventLog& event_log() const { return event_log_; }
  Watchdog& watchdog() { return watchdog_; }
  const Watchdog& watchdog() const { return watchdog_; }

  // Convenience: value of `name` in the latest sample (0 when absent or no
  // samples yet).
  std::uint64_t Latest(const std::string& name) const;

  // Installs (or clears, with nullptr) the snapshot consumer. While set,
  // every `publish_every`th sample (and the Finalize closing sample) renders
  // the exports and calls sink->Publish(); the simulated outcome is
  // unchanged either way.
  void SetSink(SnapshotSink* sink) { sink_ = sink; }

  // Installs (or clears, with nullptr) the per-sample observer. Exactly one
  // observer is supported — the control loop; no simulated consumer beyond
  // it exists, and a list would cost an iteration on the hot path.
  void SetObserver(SampleObserver* observer) { observer_ = observer; }

 private:
  void TakeSample(sim::Nanoseconds stamp);
  // Renders the current state into a PublishedSnapshot and hands it to the
  // sink. No-op when no sink is set or the latest sample was already
  // published, so Finalize can call it unconditionally.
  void PublishSnapshot();

  const sim::VirtualClock* clock_;
  TelemetryConfig config_;
  Sources src_;
  EventLog event_log_;
  Watchdog watchdog_;

  std::deque<Sample> samples_;
  // Resolved (source -> series id) slots, in the order TakeSample first
  // emits them (series_slots.h). `roles_` are the slot indices of the
  // counters the derived series read (-1 while a counter does not exist);
  // `pcie_class_bytes_` the ids of the registry's per-class H2D byte
  // mirrors the class rates difference against (-1 until interned).
  SeriesSlots slots_;
  CounterSlots counters_;
  HistogramSlots hists_{/*lifetime=*/false};
  std::array<std::int64_t, 10> roles_;
  std::array<std::int64_t, pcie::kNumTrafficClasses> pcie_class_bytes_;
  SeriesGroup<2 + 2 * pcie::kNumTrafficClasses> pcie_ids_;
  IndexedSeries<3> queue_ids_;
  IndexedSeries<2> channel_ids_;
  IndexedSeries<1> die_ids_;
  SeriesGroup<5> ftl_ids_;
  SeriesGroup<5> buffer_ids_;
  SeriesGroup<6> lsm_ids_;
  IndexedSeries<2> level_ids_;
  SeriesGroup<19> derived_ids_;
  SnapshotSink* sink_ = nullptr;
  SampleObserver* observer_ = nullptr;
  std::uint64_t last_published_seq_ = ~0ULL;
  bool anchored_ = false;
  sim::Nanoseconds anchor_ns_ = 0;        // Interval grid origin.
  sim::Nanoseconds next_boundary_ns_ = 0;
  sim::Nanoseconds last_sample_ns_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_samples_ = 0;
};

}  // namespace bandslim::telemetry
