// Fleet-level observability for a sharded KvCluster (DESIGN.md 2.9): one
// aggregator that samples every shard's metrics registry on the ROUTER
// clock's interval grid and renders a cluster-wide timeline next to the
// shards' own per-device samplers.
//
// Aggregation invariants (asserted by tests/fleet_test and enforced by
// bench/fleet_timeline exiting nonzero):
//  * Exact reconciliation. A cluster cumulative series is the plain sum of
//    the shard counters read at one instant, so every per-interval fleet
//    delta equals the sum of the per-shard deltas over the same interval,
//    and the deltas telescope to the summed final GetStats() counters — no
//    rounding, no sampling skew.
//  * Mergeable percentiles. Shard latency histograms share log-bucket
//    boundaries, so summing bucket arrays (Histogram::MergeFrom) and taking
//    a quantile equals taking the quantile over the union of the shards'
//    recordings. The fleet's trace.op.*.p50/.p95/.p99 series are computed
//    from merged buckets and are exact, not approximations.
//  * Observation only. The aggregator never advances any clock and never
//    touches device state: enabling it changes no simulated outcome, and a
//    disabled aggregator is one branch per Poll().
//
// Determinism: sampling happens at deterministic Poll() points (after each
// router-level op), stamps land on router-clock interval boundaries, all
// series are integral/fixed-point, and exports render byte-identically
// across runs.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "stats/metrics.h"
#include "telemetry/event_log.h"
#include "telemetry/sample.h"
#include "telemetry/series_slots.h"
#include "telemetry/telemetry.h"
#include "telemetry/watchdog.h"

namespace bandslim::telemetry {

namespace attribution {
class AttributionPlane;
}

struct FleetConfig {
  bool enabled = false;
  // Virtual time between fleet samples, on the router clock.
  sim::Nanoseconds sample_interval_ns = sim::kMillisecond;
  std::size_t sample_capacity = 1u << 16;
  std::size_t event_capacity = 1u << 14;
  // Fleet watchdog rules (see the canned constructors below); evaluated on
  // every fleet sample with the same assert/deassert hysteresis engine the
  // per-device sampler uses.
  std::vector<WatchdogRule> rules;
  // Snapshot publication cadence, as in TelemetryConfig::publish_every.
  std::uint64_t publish_every = 64;
};

// --- Canned fleet rules ----------------------------------------------------
// Rule table (all inputs are fleet series the aggregator derives; series
// read 0 before the first interval with traffic, so quiet runs stay silent):
//
//   series                                what it measures
//   fleet.imbalance.ops_max_over_mean_milli
//       busiest shard's interval ops over the fleet mean, x1000. Uniform
//       routing holds this near 1000; a Zipfian hot shard drives it up.
//   fleet.skew.p99_max_over_fleet_milli
//       worst shard's interval op p99 over the fleet-merged p99, x1000.
//   fleet.ring.skew_permille
//       max over shards of |actual routed-key share - expected share from
//       the hash ring's virtual-node arc weights|, in permille.
//   fleet.straggler.stalled_shards
//       number of shards with zero ops in an interval where the fleet as a
//       whole made progress.

// Busiest shard at least `ratio_milli` x the mean for `n` intervals.
WatchdogRule ShardImbalanceRule(std::uint64_t ratio_milli, std::uint32_t n,
                                std::uint32_t clear_n = 2);
// Worst shard p99 at least `ratio_milli` x the fleet p99 for `n` intervals.
WatchdogRule HotShardP99SkewRule(std::uint64_t ratio_milli, std::uint32_t n,
                                 std::uint32_t clear_n = 2);
// Routed-key share deviates from the ring's expected share by more than
// `skew_permille` for `n` intervals.
WatchdogRule RingSkewRule(std::uint64_t skew_permille, std::uint32_t n);
// At least one shard stalled (zero ops while the fleet progressed) for `n`
// consecutive intervals.
WatchdogRule StragglerShardRule(std::uint32_t n, std::uint32_t clear_n = 2);

class FleetAggregator {
 public:
  // One shard's observation points. Pointers are observed, never mutated.
  struct ShardSource {
    const stats::MetricsRegistry* metrics = nullptr;
    const sim::VirtualClock* clock = nullptr;
  };

  // Per-shard view of the latest fleet interval, also rendered to
  // /shards.jsonl. All cumulative fields are raw counter reads.
  struct ShardWindow {
    std::uint64_t ops = 0;         // nvme.commands_submitted, cumulative.
    std::uint64_t delta_ops = 0;   // Ops in the latest fleet interval.
    std::uint64_t value_bytes = 0;
    std::uint64_t pcie_h2d_bytes = 0;
    std::uint64_t nand_pages_programmed = 0;
    std::uint64_t routed_keys = 0;  // Router placement decisions, cumulative.
    std::uint64_t p99_ns = 0;       // Interval op-latency p99 (0 untraced).
    sim::Nanoseconds shard_now_ns = 0;  // The shard clock at the sample.
  };

  FleetAggregator(const sim::VirtualClock* router_clock,
                  const FleetConfig& config);

  bool enabled() const { return config_.enabled; }
  const FleetConfig& config() const { return config_; }

  // Binds the shard observation points; anchors the interval grid at the
  // router clock's current time on first call. `routed_keys` points at the
  // router's per-shard placement counters (one entry per shard, owned by
  // the cluster); `expected_share_permille` is the hash ring's arc-weight
  // baseline (HashRing::OwnershipWeightsPermille) the ring-skew rule
  // compares actual shares against.
  void Bind(std::vector<ShardSource> shards,
            const std::vector<std::uint64_t>* routed_keys,
            std::vector<std::uint64_t> expected_share_permille);

  // Emits one fleet sample if a router-clock interval boundary has passed;
  // called by the cluster after every routed op. Disabled = one branch.
  void Poll();
  // Closing sample at the current router time, so the last sample's
  // cumulative series equal the summed final shard counters exactly.
  // Idempotent at a given time.
  void Finalize();

  const std::deque<Sample>& samples() const { return samples_; }
  const SeriesTable& series() const { return slots_.table(); }
  std::uint64_t samples_emitted() const { return next_seq_; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }
  EventLog& event_log() { return event_log_; }
  const EventLog& event_log() const { return event_log_; }
  Watchdog& watchdog() { return watchdog_; }
  const Watchdog& watchdog() const { return watchdog_; }
  const std::vector<ShardWindow>& shard_windows() const { return windows_; }

  // Value of `name` in the latest fleet sample (0 when absent).
  std::uint64_t Latest(const std::string& name) const;

  // Federated exports. ToPrometheusText serves the cluster series plus a
  // `shard`-labeled per-shard block from one scrape; ShardsJsonl is one
  // JSON object per shard (the /shards.jsonl document).
  std::string ToPrometheusText() const;
  std::string ToJsonl() const;
  std::string ShardsJsonl() const;

  // Installs (or clears) the snapshot consumer, e.g. the HTTP exporter.
  void SetSink(SnapshotSink* sink) { sink_ = sink; }

  // Attaches (or clears) the tenant/key-space attribution plane. The plane
  // folds its per-tenant and heat series into THIS aggregator's samples —
  // there is no second sampler — so its burn-rate rules ride the fleet
  // watchdog and its exports share the fleet's publish cadence. Observed
  // convention: the cluster calls this once at assembly when
  // ClusterConfig::attribution.enabled.
  void SetAttribution(attribution::AttributionPlane* plane) {
    attribution_ = plane;
  }
  const attribution::AttributionPlane* attribution() const {
    return attribution_;
  }

 private:
  void TakeSample(sim::Nanoseconds stamp);
  void PublishSnapshot();

  const sim::VirtualClock* clock_;  // Router clock: the fleet time base.
  FleetConfig config_;
  EventLog event_log_;
  Watchdog watchdog_;

  // A shard's live objects behind its ShardWindow (nullptr while absent;
  // re-found when the shard's registry grows).
  struct ShardRefs {
    std::size_t counters_seen = ~std::size_t{0};
    std::size_t hists_seen = ~std::size_t{0};
    const stats::Counter* ops = nullptr;
    const stats::Counter* value_bytes = nullptr;
    std::array<const stats::Counter*, 4> h2d{};
    const stats::Counter* pages = nullptr;
    const stats::Histogram* op_latency = nullptr;
  };

  std::vector<ShardSource> shards_;
  std::vector<ShardRefs> refs_;
  const std::vector<std::uint64_t>* routed_keys_ = nullptr;
  std::vector<std::uint64_t> expected_share_permille_;

  std::deque<Sample> samples_;
  std::vector<ShardWindow> windows_;
  // Previous-sample cumulative state, for per-interval deltas.
  std::vector<std::uint64_t> prev_shard_ops_;
  std::vector<stats::HistogramBuckets> last_shard_op_hist_;
  // Resolved (source -> series id) slots (series_slots.h): shard counters
  // summed by name, shard histograms merged by name, per-shard and derived
  // series. `roles_` are counter slot indices the derived series read,
  // `h2d_slots_` those of the per-class PCIe H2D byte counters, `op_hist_`
  // the merged op-latency histogram's slot (-1 while absent).
  SeriesSlots slots_;
  CounterSlots counters_;
  HistogramSlots hists_{/*lifetime=*/true};
  std::array<std::int64_t, 3> roles_;
  std::vector<std::int64_t> h2d_slots_;
  std::int64_t op_hist_ = -1;
  IndexedSeries<4> shard_ids_;
  SeriesGroup<12> derived_ids_;

  SnapshotSink* sink_ = nullptr;
  attribution::AttributionPlane* attribution_ = nullptr;
  std::uint64_t last_published_seq_ = ~0ULL;
  bool anchored_ = false;
  sim::Nanoseconds anchor_ns_ = 0;
  sim::Nanoseconds next_boundary_ns_ = 0;
  sim::Nanoseconds last_sample_ns_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_samples_ = 0;
};

}  // namespace bandslim::telemetry
