// Deterministic watchdog rule engine (DESIGN.md 2.4). Rules are declarative
// thresholds over the telemetry sample stream: "series S has been OP
// threshold for N consecutive samples". The watchdog is evaluated once per
// emitted sample, entirely in integer arithmetic on virtual-time data, so
// two runs of the same workload raise bit-identical alert streams.
//
// Alert semantics are edge-triggered on BOTH transitions: a rule FIRES when
// its condition has held for `for_intervals` consecutive samples, stays
// ACTIVE while it keeps holding (no re-fire), and CLEARS — the deassert
// (recovery) edge — once the recovery condition has held for
// `clear_for_intervals` consecutive samples. The recovery condition is the
// negation of the firing condition evaluated against `clear_threshold`
// (default: the firing threshold), so a rule can carry a deadband: e.g.
// fire above 2000, clear only below 1500. Fires append EventType::kAlert,
// clears append EventType::kAlertCleared (a = rule index, b = observed
// value), so consumers — the closed-loop controller foremost — see clean
// state transitions instead of re-deriving them. The defaults
// (clear_for_intervals = 1, clear_threshold = threshold) reproduce the
// historical clear-on-first-break behaviour exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/event_log.h"
#include "telemetry/sample.h"

namespace bandslim::telemetry {

struct WatchdogRule {
  std::string name;    // Alert name, e.g. "taf_over_budget".
  std::string series;  // Series the condition tests (absent reads as 0).

  enum class Cmp : std::uint8_t {
    kAbove,    // value >  threshold
    kAtLeast,  // value >= threshold
    kBelow,    // value <  threshold
    kAtMost,   // value <= threshold
    kEqual,    // value == threshold
  };
  Cmp cmp = Cmp::kAbove;
  std::uint64_t threshold = 0;
  // Consecutive samples the condition must hold before the rule fires.
  std::uint32_t for_intervals = 1;
  // Deassert hysteresis: consecutive samples the recovery condition (the
  // negated firing condition, tested against the clear threshold) must hold
  // before an active alert clears. 1 = clear on the first breaking sample.
  std::uint32_t clear_for_intervals = 1;
  // Clear-side deadband threshold; kInheritThreshold = reuse `threshold`.
  static constexpr std::uint64_t kInheritThreshold = ~0ULL;
  std::uint64_t clear_threshold = kInheritThreshold;
  // Tenant the rule attributes to (0 = untagged): stamped onto the
  // kAlert/kAlertCleared event records so alert edges in the timeline are
  // attributable. Last field — the canned rules aggregate-initialize.
  std::uint16_t tenant = 0;

  std::uint64_t effective_clear_threshold() const {
    return clear_threshold == kInheritThreshold ? threshold : clear_threshold;
  }
};

// --- Canned rules for the failure modes the paper's workloads exhibit ----

// No command completed for `n` consecutive intervals (zero-op stall).
WatchdogRule ZeroOpStallRule(std::uint32_t n);
// Instantaneous TAF above `taf_milli` (fixed-point x1000) for `n` intervals.
WatchdogRule TafBudgetRule(std::uint64_t taf_milli, std::uint32_t n);
// At least `retries` NVMe resubmissions within each of `n` intervals
// (fault-retry storm). A sustained drop storm is bursty at sample
// granularity — the watchdog-timeout wait spans intervals whose retry delta
// is 0 — so without deassert hysteresis the rule re-fired on every bursty
// interval; `clear_n` quiet intervals must pass before it re-arms.
WatchdogRule RetryStormRule(std::uint64_t retries, std::uint32_t n,
                            std::uint32_t clear_n = 4);
// Queue `q` has >= `inflight` commands outstanding at `n` consecutive
// sample points. (The synchronous passthrough path drains between ops, so
// this fires only under pipelined/multi-queue pressure.)
WatchdogRule QueueSaturationRule(std::uint16_t q, std::uint64_t inflight,
                                 std::uint32_t n);
// FTL free-block pool at or below `blocks` for `n` intervals (GC pressure).
WatchdogRule FreeBlocksLowRule(std::uint64_t blocks, std::uint32_t n);
// LSM compaction debt (bytes past each level's trigger) above `budget_bytes`
// at `n` consecutive sample points — the bounded-effort compactor is not
// keeping up with the ingest rate.
WatchdogRule CompactionDebtRule(std::uint64_t budget_bytes, std::uint32_t n);
// At least `tables` L0 runs at `n` consecutive sample points (read-path
// pileup: every L0 run is an extra overlapping probe per GET).
WatchdogRule L0PileupRule(std::uint64_t tables, std::uint32_t n);
// At least `stalls` MemTable flush stalls within each of `n` intervals
// (a flush landed while L0 was already at its compaction trigger).
WatchdogRule MemtableStallRule(std::uint64_t stalls, std::uint32_t n);

struct AlertState {
  std::uint64_t fired = 0;     // Edge-triggered fire count.
  std::uint64_t cleared = 0;   // Deassert (recovery) edge count.
  std::uint32_t holding = 0;   // Consecutive samples the condition held.
  // Consecutive samples the recovery condition held while active.
  std::uint32_t recovering = 0;
  bool active = false;         // Fired and not yet cleared.
  std::uint64_t last_value = 0;  // Series value at the most recent fire.
  sim::Nanoseconds last_fire_ns = 0;
  sim::Nanoseconds last_clear_ns = 0;
};

class Watchdog {
 public:
  explicit Watchdog(std::vector<WatchdogRule> rules)
      : rules_(std::move(rules)),
        states_(rules_.size()),
        series_ids_(rules_.size(), -1) {}

  // Evaluates every rule against `sample`; fires append to `log` (optional).
  // A watchdog is bound to the one plane that owns it, so `table` must be
  // the same table on every call: each rule's series id is looked up until
  // the series is first interned (only when the table has grown since the
  // last look) and cached from then on.
  void Evaluate(const Sample& sample, const SeriesTable& table,
                EventLog* log);

  const std::vector<WatchdogRule>& rules() const { return rules_; }
  const std::vector<AlertState>& states() const { return states_; }
  std::uint64_t total_fired() const { return total_fired_; }
  std::uint64_t total_cleared() const { return total_cleared_; }

  // Index of the rule named `name`, or -1 — the controller resolves the
  // alert edges it consumes once, by name.
  std::int64_t FindRule(const std::string& name) const;

 private:
  std::vector<WatchdogRule> rules_;
  std::vector<AlertState> states_;
  // Series id per rule; -1 until the series is first interned.
  std::vector<std::int64_t> series_ids_;
  std::size_t table_size_seen_ = 0;  // Table size at the last lookup.
  std::uint64_t total_fired_ = 0;
  std::uint64_t total_cleared_ = 0;
};

}  // namespace bandslim::telemetry
