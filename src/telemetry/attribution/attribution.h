// Per-tenant and key-space attribution plane (DESIGN.md 2.10): the layer
// that turns the fleet's "what is the cluster doing" telemetry into "who is
// doing it to whom". A KvCluster owns one AttributionPlane and brackets
// every routed client op with it:
//
//   TouchKey(hash)   key-space heat: which hash range this op landed in
//   ChargeBegin/End  device-counter deltas (commands, value bytes, PCIe
//                    H2D bytes, NAND pages) charged to the issuing tenant
//   RecordOp         router-observed latency + status (kBusy = shed) into
//                    the tenant's log-bucket histogram and SLO ledger
//
// The plane does not run its own sampler: FleetAggregator::TakeSample calls
// OnFleetSample so every tenant/heat/SLO series lands in the SAME interval
// grid, timeline, and watchdog pass as the fleet series (one merged
// /timeline.jsonl, burn-rate rules ride the existing hysteresis engine and
// surface in StoreSnapshot::alerts).
//
// Attribution invariants (asserted by tests/attribution_test and enforced
// by bench/tenant_slo_report exiting nonzero):
//  * Exact reconciliation. Tenant device charges are before/after reads of
//    the owner shard's live counters around each routed op; the untagged
//    bucket is the residual against the summed fleet counters at the sample
//    instant (background work: flushes, recovery, harness-driven direct
//    shard traffic). So for every interval
//        sum over tenants of tenant<t>.delta.dev.* + untagged.delta.*
//          == fleet delta.*                                      exactly,
//    and the deltas telescope to the summed final GetStats() counters —
//    the PR 9 invariant, sliced one level finer.
//  * Observation only. The plane never advances a clock and never touches
//    device state: every hook is reads + private accumulation, disabled
//    attribution is one branch per op, and an attribution-off run is
//    bit-identical in virtual time and device counters.
//  * Determinism. All series are integral/fixed-point (x1000 milli ratios,
//    permille shares); exports render byte-identically across runs.
//
// TenantId convention (shared with trace and event-log stamps): 0 means
// untagged/background; cluster tenant index t is stamped as t + 1. Series
// and export labels use the cluster tenant INDEX (tenant0 = first
// configured tenant); the untagged residual renders as "untagged".
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/clock.h"
#include "stats/histogram.h"
#include "stats/metrics.h"
#include "telemetry/sample.h"
#include "telemetry/series_slots.h"
#include "telemetry/watchdog.h"

namespace bandslim::telemetry::attribution {

// 0 = untagged/background; cluster tenant index t stamps as t + 1.
using TenantId = std::uint16_t;

// Declarative per-tenant service-level objective. An op is GOOD when it
// completed OK and (if latency_target_ns > 0) within the latency target;
// everything else — errors, kBusy admission sheds, too-slow ops — is BAD.
// The error budget is the allowed bad fraction, 1000 - availability target,
// in permille; burn rate is the bad fraction over a trailing window divided
// by that allowance (1000 milli = burning the budget exactly at the allowed
// rate; 4000 = 4x too fast).
struct SloConfig {
  // Per-op latency objective on the router timeline (virtual ns); 0
  // disables the latency criterion (availability-only SLO).
  sim::Nanoseconds latency_target_ns = 0;
  // Availability objective in permille: 990 = 99.0% of ops must be good.
  std::uint32_t availability_target_permille = 990;
  // Multi-window burn-rate horizons, in fleet sample intervals. The fast
  // window catches sharp regressions (page-now), the slow window catches
  // sustained slow burns (ticket); fast_windows is clamped to slow_windows.
  std::uint32_t fast_windows = 3;
  std::uint32_t slow_windows = 12;
};

struct AttributionConfig {
  bool enabled = false;
  // Fixed-fanout range histogram over the 64-bit key hash space: bucket i
  // covers hashes in [i, i+1) * 2^64 / heat_fanout. Contiguous ranges, so a
  // hot BUCKET names a hot slice of the hash ring.
  std::uint32_t heat_fanout = 64;
  // Exponential decay applied to every heat bucket at each sample boundary:
  // the bucket keeps keep_permille/1000 of its weight per interval, so heat
  // is a trailing-window gauge (500 = half-life of one interval), not a
  // lifetime counter.
  std::uint32_t heat_decay_keep_permille = 500;
  // Per-tenant SLOs, indexed by cluster tenant index; tenants beyond the
  // vector get the default SloConfig.
  std::vector<SloConfig> slo;
};

// --- Canned attribution rules ---------------------------------------------
// Rule table (inputs are series OnFleetSample folds into the fleet grid;
// all read 0 before the first sample, so quiet runs stay silent):
//
//   series                              what it measures
//   tenant<t>.slo.burn_fast_milli
//       bad-op share over the FAST window / allowed bad share, x1000.
//   tenant<t>.slo.burn_slow_milli
//       same over the SLOW window — the sustained-burn signal.
//   heat.max_share_permille
//       hottest key-range bucket's share of decayed heat, in permille.
//
// Burn-rate rules carry the tenant stamp (index + 1) so their kAlert /
// kAlertCleared events are attributable in /timeline.jsonl.

// Tenant's fast-window burn rate at least `burn_milli` (default 4x the
// allowed rate, the classic page-now threshold) for `n` intervals.
WatchdogRule TenantBurnRateFastRule(std::size_t tenant,
                                    std::uint64_t burn_milli = 4000,
                                    std::uint32_t n = 2,
                                    std::uint32_t clear_n = 2);
// Tenant's slow-window burn rate at least `burn_milli` (default 1x: the
// budget is being spent faster than it accrues) for `n` intervals.
WatchdogRule TenantBurnRateSlowRule(std::size_t tenant,
                                    std::uint64_t burn_milli = 1000,
                                    std::uint32_t n = 4,
                                    std::uint32_t clear_n = 4);
// Hottest key-range bucket holds at least `share_permille` of the decayed
// heat for `n` intervals — the "this shard-imbalance fire is a hot key
// range, not a bad ring" explainer.
WatchdogRule HotRangeRule(std::uint64_t share_permille, std::uint32_t n,
                          std::uint32_t clear_n = 2);

class AttributionPlane {
 public:
  // Cumulative attribution ledger for one tenant slot. Slot semantics: the
  // router-level fields (ops/ok/shed/error/requested_bytes, latency, SLO)
  // are counted at RecordOp; the dev.* fields are the device-counter deltas
  // charged by ChargeBegin/End bracketing.
  struct TenantCharges {
    std::uint64_t ops = 0;              // Routed client ops.
    std::uint64_t ok_ops = 0;
    std::uint64_t shed_ops = 0;         // kBusy admission sheds.
    std::uint64_t error_ops = 0;        // Non-OK, non-busy completions.
    std::uint64_t requested_bytes = 0;  // Client-requested value bytes.
    std::uint64_t dev_ops = 0;          // nvme.commands_submitted charged.
    std::uint64_t value_bytes = 0;      // controller.value_bytes_written.
    std::uint64_t pcie_h2d_bytes = 0;   // Sum of the four pcie.*.h2d_bytes.
    std::uint64_t nand_pages = 0;       // nand.pages_programmed.
    std::uint64_t good_ops = 0;         // SLO-good (ok and within target).
    std::uint64_t bad_ops = 0;          // SLO-bad (error, shed, or slow).
  };

  // Summed fleet cumulatives at a sample instant (the untagged residual's
  // minuend); FleetAggregator fills this from its per-shard reads.
  struct FleetTotals {
    std::uint64_t ops = 0;
    std::uint64_t value_bytes = 0;
    std::uint64_t pcie_h2d_bytes = 0;
    std::uint64_t nand_pages = 0;
  };

  // Per-tenant SLO state as of the latest sample (what /slo.jsonl renders).
  struct SloState {
    std::uint64_t burn_fast_milli = 0;
    std::uint64_t burn_slow_milli = 0;
    // Lifetime budget spent: bad share / allowed bad share, in permille of
    // the whole budget (1000 = budget exhausted; can exceed 1000).
    std::uint64_t budget_spent_permille = 0;
  };

  explicit AttributionPlane(const AttributionConfig& config);

  bool enabled() const { return config_.enabled; }
  const AttributionConfig& config() const { return config_; }

  // Binds the per-shard counter observation points (cached stable Counter*
  // via the registry's find-or-create re-attach path — reads only) and the
  // tenant roster. Must be called before any hot-path hook.
  void Bind(const std::vector<stats::MetricsRegistry*>& shard_metrics,
            std::vector<std::string> tenant_names);

  // --- Hot path (cluster router; call only when enabled()) ----------------
  // Snapshot the owner shard's counters before dispatch...
  void ChargeBegin(std::uint32_t shard);
  // ...and charge the deltas to `tenant` (cluster tenant index) after.
  void ChargeEnd(std::size_t tenant, std::uint32_t shard);
  // Record one routed client op's router-observed outcome.
  void RecordOp(std::size_t tenant, sim::Nanoseconds latency_ns,
                StatusCode code, std::uint64_t requested_bytes);
  // Count one routed key (batch members individually) into its heat bucket.
  void TouchKey(std::uint64_t key_hash);

  // --- Sample grid (FleetAggregator::TakeSample) --------------------------
  // Folds tenant/heat/SLO series into the fleet sample being built in
  // `slots` (between its Begin and Finish; `interval_ns` is the sample's
  // interval), updates the untagged residual against `totals`, advances
  // burn windows, and decays the heat buckets. Must run before the watchdog
  // evaluates the sample. Series ids are interned on the first call (and
  // for tenants added by a later Bind), so steady-state calls build no
  // names.
  void OnFleetSample(sim::Nanoseconds interval_ns, SeriesSlots* slots,
                     const FleetTotals& totals);

  // --- Exports -------------------------------------------------------------
  // Appends tenant-labeled Prometheus families (and key-space heat gauges)
  // to a /metrics exposition; `ts_ms` is the sample timestamp.
  void AppendPrometheus(std::string* out, std::uint64_t ts_ms) const;
  // The /slo.jsonl document: one JSON object per tenant with its SLO
  // config, ledger, burn rates, and budget state as of the latest sample.
  // Empty when disabled (the exporter answers 404).
  std::string SloJsonl() const;

  // --- Introspection (tests / benches) -------------------------------------
  std::size_t num_tenants() const { return tenants_.size(); }
  const std::string& tenant_name(std::size_t tenant) const {
    return tenant_names_[tenant];
  }
  const TenantCharges& tenant_charges(std::size_t tenant) const {
    return tenants_[tenant];
  }
  // Residual (fleet totals minus tenant charges) as of the latest sample.
  const TenantCharges& untagged() const { return untagged_; }
  const SloState& slo_state(std::size_t tenant) const { return slo_[tenant]; }
  const SloConfig& slo_config(std::size_t tenant) const {
    return slo_configs_[tenant];
  }
  const stats::Histogram& tenant_latency(std::size_t tenant) const {
    return latency_[tenant];
  }
  const std::vector<std::uint64_t>& heat() const { return heat_; }
  std::uint64_t heat_touches() const { return heat_touches_; }

 private:
  struct CounterRefs {
    stats::Counter* ops = nullptr;
    stats::Counter* value_bytes = nullptr;
    stats::Counter* h2d[4] = {nullptr, nullptr, nullptr, nullptr};
    stats::Counter* nand_pages = nullptr;
  };
  struct CounterRead {
    std::uint64_t ops = 0;
    std::uint64_t value_bytes = 0;
    std::uint64_t pcie_h2d_bytes = 0;
    std::uint64_t nand_pages = 0;
  };
  CounterRead ReadShard(std::uint32_t shard) const;

  AttributionConfig config_;
  std::vector<CounterRefs> shard_counters_;
  std::vector<std::string> tenant_names_;
  std::vector<SloConfig> slo_configs_;  // Padded to the tenant count.

  std::vector<TenantCharges> tenants_;
  TenantCharges untagged_;  // Residual, recomputed at each sample.
  CounterRead charge_base_;  // ChargeBegin snapshot (ops are serial).

  std::vector<stats::Histogram> latency_;  // Per-tenant router latency.
  // Previous-sample cumulative state, for per-interval series.
  std::vector<TenantCharges> prev_tenants_;
  TenantCharges prev_untagged_;
  std::vector<stats::Histogram::BucketArray> prev_latency_buckets_;
  std::vector<std::uint64_t> prev_latency_counts_;
  // Trailing good/bad interval deltas per tenant (ring of slow_windows).
  std::vector<std::deque<std::pair<std::uint64_t, std::uint64_t>>> windows_;
  std::vector<SloState> slo_;

  // Series ids, in the order OnFleetSample first emits them.
  SeriesGroup<8> untagged_ids_;
  IndexedSeries<27> tenant_ids_;
  SeriesGroup<4> heat_ids_;

  std::vector<std::uint64_t> heat_;  // Decayed per-range weight.
  std::uint64_t heat_touches_ = 0;   // Lifetime touch count (no decay).
  std::uint64_t heat_hot_range_ = 0;
  std::uint64_t heat_max_share_permille_ = 0;
};

}  // namespace bandslim::telemetry::attribution
