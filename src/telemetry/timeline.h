// The interval engine behind every observation plane (DESIGN.md 2.4): one
// virtual-time sample grid, sample ring, event log, watchdog, observer and
// snapshot publisher, shared by the device Sampler (telemetry/telemetry.h)
// and the FleetAggregator (telemetry/fleet.h). A plane derives from Timeline
// and supplies only its source reads: Fill() writes one sample's series into
// `slots_`; the engine owns everything around it — when a sample is due, how
// it is stamped and stored, which rules and observers see it, and how it is
// rendered and published.
//
// Determinism contract:
//  * Sampling is driven by Poll() calls at deterministic points (end of each
//    device command / routed op); no wall clock, no threads. Samples are
//    stamped at interval boundaries of the plane's clock; a long operation
//    that crosses several boundaries yields ONE sample stamped at the last
//    crossed boundary whose rates divide by the true elapsed interval.
//  * All series are integer / fixed-point and render in series-id order, so
//    exports are byte-identical across runs and platforms.
//  * The engine never advances the clock or touches device state. Poll() on
//    a disabled or not-yet-due plane is one compare, and Fill() — the only
//    virtual call — runs once per sample, never per op.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "telemetry/event_log.h"
#include "telemetry/sample.h"
#include "telemetry/series_slots.h"
#include "telemetry/watchdog.h"

namespace bandslim::telemetry {

// The one config every plane takes (KvSsdOptions::telemetry for a device,
// ClusterConfig::fleet for the cluster aggregator).
struct TelemetryConfig {
  bool enabled = false;
  // Virtual time between samples; Open() rejects 0 on an enabled plane.
  // 1 ms of simulated time resolves the paper's second-scale runs into
  // ~thousands of points.
  sim::Nanoseconds sample_interval_ns = sim::kMillisecond;
  // Declarative alert rules evaluated on every sample (telemetry/watchdog.h).
  std::vector<WatchdogRule> rules;
};

// Ring capacities; the oldest record is dropped (and counted) on overflow.
inline constexpr std::size_t kSampleCapacity = 1u << 16;
inline constexpr std::size_t kEventCapacity = 1u << 14;
// With a SnapshotSink attached, a snapshot is published every Nth sample
// (and always at Finalize). Rendering the timeline is O(samples), so
// publishing every sample would make a run quadratic in its length; a live
// scraper polls at wall-clock timescales and never notices the gap.
inline constexpr std::uint64_t kPublishEvery = 64;

// One fully-rendered observation of the run. All fields are immutable after
// construction, so a snapshot can be handed to another thread (the HTTP
// exporter) as a shared_ptr<const> with no further synchronization.
struct PublishedSnapshot {
  std::uint64_t sample_seq = 0;   // Seq of the sample that triggered publish.
  sim::Nanoseconds t_ns = 0;      // That sample's virtual timestamp.
  std::string metrics_text;       // Prometheus 0.0.4, == ToPrometheusText().
  std::string timeline_jsonl;     // Full timeline so far, == ToJsonl().
  std::string healthz_json;       // Tiny liveness document for /healthz.
  // Per-shard stream for /shards.jsonl and per-tenant SLO ledger for
  // /slo.jsonl; only the fleet aggregator fills them, and the exporter
  // answers 404 for an empty route.
  std::string shards_jsonl;
  std::string slo_jsonl;
};

// Consumer of published snapshots. Publish() is called on the simulation
// thread at each publish point; implementations must not block (the HTTP
// exporter just swaps a shared_ptr under a mutex).
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  virtual void Publish(std::shared_ptr<const PublishedSnapshot> snapshot) = 0;
};

// Observer of finalized samples, called after the watchdog has evaluated
// (so alert edges for this interval are visible) and before publication.
// The closed-loop controller implements this: ticking on the sample grid
// means control decisions always see completed interval deltas. Unlike the
// engine, an observer MAY mutate device state (actuate knobs) — the sample
// has already been captured.
class SampleObserver {
 public:
  virtual ~SampleObserver() = default;
  virtual void OnSample(const Sample& sample) = 0;
};

class Timeline {
 public:
  virtual ~Timeline() = default;
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;
  Timeline(Timeline&&) = default;
  Timeline& operator=(Timeline&&) = default;

  bool enabled() const { return config_.enabled; }
  const TelemetryConfig& config() const { return config_; }

  // Emits one sample if at least one interval boundary has passed since the
  // last emission. A disabled or unbound plane never becomes due.
  void Poll() {
    if (clock_->Now() < next_boundary_ns_) return;
    Cross();
  }

  // Emits a closing sample stamped at the current time (regardless of
  // boundary alignment), so the last sample's cumulative series equal the
  // final counters exactly, and publishes it. Idempotent at a given time.
  void Finalize();

  const std::deque<Sample>& samples() const { return samples_; }
  const SeriesTable& series() const { return slots_.table(); }
  std::uint64_t samples_emitted() const { return next_seq_; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  EventLog& event_log() { return event_log_; }
  const EventLog& event_log() const { return event_log_; }
  Watchdog& watchdog() { return watchdog_; }
  const Watchdog& watchdog() const { return watchdog_; }

  // Value of `name` in the latest sample (0 when absent or no samples yet).
  std::uint64_t Latest(const std::string& name) const;

  // Prometheus text exposition format (version 0.0.4): the samples-emitted
  // counter, a `# TYPE` header and `bandslim_<sanitized_series>` gauge line
  // per series of the latest sample (millisecond timestamps, name order),
  // `bandslim_watchdog_alerts_total{rule="..."}` counters, then the plane's
  // labeled families.
  std::string ToPrometheusText() const;
  // One JSON object per line, samples and events merged by timestamp:
  //   {"kind":"sample","t_ns":..,"seq":..,"interval_ns":..,"values":{..}}
  //   {"kind":"event","t_ns":..,"seq":..,"type":"gc_start","a":..,"b":..}
  // Alert events additionally carry "rule":"<name>".
  std::string ToJsonl() const;

  // Installs (or clears, with nullptr) the snapshot consumer. While set,
  // every kPublishEvery-th sample (and the Finalize closing sample) renders
  // the exports and calls sink->Publish(); the simulated outcome is
  // unchanged either way.
  void SetSink(SnapshotSink* sink) { sink_ = sink; }

  // Installs (or clears) the per-sample observer. Exactly one observer is
  // supported — the control loop; a list would cost an iteration per sample.
  void SetObserver(SampleObserver* observer) { observer_ = observer; }

 protected:
  // `samples_counter` names the leading Prometheus counter, e.g.
  // "bandslim_telemetry_samples_total"; `samples_help` is its HELP text.
  Timeline(const sim::VirtualClock* clock, const TelemetryConfig& config,
           const char* samples_counter, const char* samples_help);

  // Anchors the interval grid at the current time on the first call; later
  // calls (re-binds) keep the grid.
  void Anchor();

  // Reads every source into `slots_` for the sample closing an interval of
  // `interval_ns`, between the engine's slots_.Begin() and Finish().
  virtual void Fill(sim::Nanoseconds interval_ns) = 0;
  // Appends the plane's labeled families to a non-empty exposition;
  // `ts_ms` is the latest sample's timestamp.
  virtual void AppendPrometheus(std::string* /*out*/,
                                std::uint64_t /*ts_ms*/) const {}
  // Adds the plane's extra documents to a snapshot being published, and
  // fields to its still-open /healthz object.
  virtual void AddToSnapshot(PublishedSnapshot* /*snap*/,
                             std::string* /*health*/) const {}

  SeriesSlots slots_;

 private:
  void Cross();
  void TakeSample(sim::Nanoseconds stamp);
  // No-op when no sink is set or the latest sample was already published,
  // so Finalize can call it unconditionally.
  void PublishSnapshot();

  // Poll's due time; never reached while disabled or unbound.
  static constexpr sim::Nanoseconds kNever = ~sim::Nanoseconds{0};

  const sim::VirtualClock* clock_;
  TelemetryConfig config_;
  const char* samples_counter_;
  const char* samples_help_;
  EventLog event_log_;
  Watchdog watchdog_;
  std::deque<Sample> samples_;
  SnapshotSink* sink_ = nullptr;
  SampleObserver* observer_ = nullptr;
  std::uint64_t last_published_seq_ = ~0ULL;
  bool anchored_ = false;
  sim::Nanoseconds anchor_ns_ = 0;  // Interval grid origin.
  sim::Nanoseconds next_boundary_ns_ = kNever;
  sim::Nanoseconds last_sample_ns_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_samples_ = 0;
};

// Time-series CSV with the named series as columns (missing values print
// as 0), one row per sample — the shape the fig* plots consume. The first
// two columns are always t_ns and interval_ns.
std::string ToTimeSeriesCsv(const Timeline& timeline,
                            const std::vector<std::string>& series_names);

}  // namespace bandslim::telemetry
