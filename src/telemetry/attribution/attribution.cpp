#include "telemetry/attribution/attribution.h"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace bandslim::telemetry::attribution {

namespace {

// The counters a tenant op is charged against — the same four families the
// fleet's delta.* series track, so the residual reconciles exactly.
constexpr const char* kOpsCounter = "nvme.commands_submitted";
constexpr const char* kValueBytesCounter = "controller.value_bytes_written";
constexpr const char* kNandPagesCounter = "nand.pages_programmed";
constexpr const char* kH2dCounters[4] = {
    "pcie.mmio.h2d_bytes", "pcie.cmd_fetch.h2d_bytes",
    "pcie.dma_data.h2d_bytes", "pcie.completion.h2d_bytes"};

// Series names, in the order OnFleetSample emits them.
constexpr const char* kUntaggedSeries[] = {
    "untagged.dev.ops",
    "untagged.delta.dev.ops",
    "untagged.value_bytes",
    "untagged.delta.value_bytes",
    "untagged.pcie.h2d_bytes",
    "untagged.delta.pcie.h2d_bytes",
    "untagged.nand.pages_programmed",
    "untagged.delta.nand.pages_programmed"};
// Suffixes of the per-tenant "tenant<i>" series.
constexpr const char* kTenantSeries[] = {
    ".ops",
    ".delta.ops",
    ".shed",
    ".delta.shed",
    ".errors",
    ".requested_bytes",
    ".dev.ops",
    ".delta.dev.ops",
    ".value_bytes",
    ".delta.value_bytes",
    ".pcie.h2d_bytes",
    ".delta.pcie.h2d_bytes",
    ".nand.pages_programmed",
    ".delta.nand.pages_programmed",
    ".rate.ops_per_sec_milli",
    ".rate.taf_milli",
    ".total.taf_milli",
    ".p50",
    ".p95",
    ".p99",
    ".lifetime.p99",
    ".slo.good",
    ".slo.bad",
    ".slo.delta.bad",
    ".slo.burn_fast_milli",
    ".slo.burn_slow_milli",
    ".slo.budget_spent_permille"};
constexpr const char* kHeatSeries[] = {"heat.touches", "heat.weight",
                                       "heat.max_share_permille",
                                       "heat.hot_range"};

// Allowed bad share in permille; floored at 1 so the burn-rate quotient is
// always defined (a 100.0% availability target reads as 99.9%).
std::uint64_t AllowedBadPermille(const SloConfig& slo) {
  const std::uint32_t target =
      std::min<std::uint32_t>(slo.availability_target_permille, 1000);
  return std::max<std::uint64_t>(1, 1000 - target);
}

// bad / (good + bad) / (allowed/1000), x1000: fixed-point burn rate.
std::uint64_t BurnMilli(std::uint64_t good, std::uint64_t bad,
                        std::uint64_t allowed_permille) {
  const std::uint64_t total = good + bad;
  if (total == 0 || bad == 0) return 0;
  return bad * 1000 * kMilliScale / (total * allowed_permille);
}

}  // namespace

WatchdogRule TenantBurnRateFastRule(std::size_t tenant,
                                    std::uint64_t burn_milli, std::uint32_t n,
                                    std::uint32_t clear_n) {
  WatchdogRule r;
  r.name = "slo_burn_fast_t" + std::to_string(tenant);
  r.series = "tenant" + std::to_string(tenant) + ".slo.burn_fast_milli";
  r.cmp = WatchdogRule::Cmp::kAtLeast;
  r.threshold = burn_milli;
  r.for_intervals = n;
  r.clear_for_intervals = clear_n;
  r.tenant = static_cast<std::uint16_t>(tenant + 1);
  return r;
}

WatchdogRule TenantBurnRateSlowRule(std::size_t tenant,
                                    std::uint64_t burn_milli, std::uint32_t n,
                                    std::uint32_t clear_n) {
  WatchdogRule r;
  r.name = "slo_burn_slow_t" + std::to_string(tenant);
  r.series = "tenant" + std::to_string(tenant) + ".slo.burn_slow_milli";
  r.cmp = WatchdogRule::Cmp::kAtLeast;
  r.threshold = burn_milli;
  r.for_intervals = n;
  r.clear_for_intervals = clear_n;
  r.tenant = static_cast<std::uint16_t>(tenant + 1);
  return r;
}

WatchdogRule HotRangeRule(std::uint64_t share_permille, std::uint32_t n,
                          std::uint32_t clear_n) {
  WatchdogRule r;
  r.name = "hot_key_range";
  r.series = "heat.max_share_permille";
  r.cmp = WatchdogRule::Cmp::kAtLeast;
  r.threshold = share_permille;
  r.for_intervals = n;
  r.clear_for_intervals = clear_n;
  return r;
}

AttributionPlane::AttributionPlane(const AttributionConfig& config)
    : config_(config) {
  if (config_.heat_fanout == 0) config_.heat_fanout = 1;
  if (config_.heat_decay_keep_permille > 1000) {
    config_.heat_decay_keep_permille = 1000;
  }
  heat_.assign(config_.heat_fanout, 0);
}

void AttributionPlane::Bind(
    const std::vector<stats::MetricsRegistry*>& shard_metrics,
    std::vector<std::string> tenant_names) {
  shard_counters_.clear();
  shard_counters_.reserve(shard_metrics.size());
  for (stats::MetricsRegistry* metrics : shard_metrics) {
    CounterRefs refs;
    // GetCounter is the find-or-create RE-ATTACH path: these names are
    // registered by the device components at assembly, so this only looks
    // up stable pointers — the plane reads them, never writes.
    refs.ops = metrics->GetCounter(kOpsCounter);
    refs.value_bytes = metrics->GetCounter(kValueBytesCounter);
    for (int c = 0; c < 4; ++c) {
      refs.h2d[c] = metrics->GetCounter(kH2dCounters[c]);
    }
    refs.nand_pages = metrics->GetCounter(kNandPagesCounter);
    shard_counters_.push_back(refs);
  }

  tenant_names_ = std::move(tenant_names);
  const std::size_t n = tenant_names_.size();
  slo_configs_ = config_.slo;
  slo_configs_.resize(n);
  for (SloConfig& slo : slo_configs_) {
    slo.fast_windows = std::max<std::uint32_t>(1, slo.fast_windows);
    slo.slow_windows = std::max(slo.fast_windows, slo.slow_windows);
  }
  tenants_.assign(n, TenantCharges{});
  prev_tenants_.assign(n, TenantCharges{});
  latency_.assign(n, stats::Histogram{});
  prev_latency_buckets_.assign(n, stats::Histogram::BucketArray{});
  prev_latency_counts_.assign(n, 0);
  windows_.assign(n, {});
  slo_.assign(n, SloState{});
  untagged_ = TenantCharges{};
  prev_untagged_ = TenantCharges{};
}

AttributionPlane::CounterRead AttributionPlane::ReadShard(
    std::uint32_t shard) const {
  const CounterRefs& refs = shard_counters_[shard];
  CounterRead r;
  r.ops = refs.ops->value();
  r.value_bytes = refs.value_bytes->value();
  for (int c = 0; c < 4; ++c) r.pcie_h2d_bytes += refs.h2d[c]->value();
  r.nand_pages = refs.nand_pages->value();
  return r;
}

void AttributionPlane::ChargeBegin(std::uint32_t shard) {
  charge_base_ = ReadShard(shard);
}

void AttributionPlane::ChargeEnd(std::size_t tenant, std::uint32_t shard) {
  const CounterRead now = ReadShard(shard);
  TenantCharges& t = tenants_[tenant];
  t.dev_ops += now.ops - charge_base_.ops;
  t.value_bytes += now.value_bytes - charge_base_.value_bytes;
  t.pcie_h2d_bytes += now.pcie_h2d_bytes - charge_base_.pcie_h2d_bytes;
  t.nand_pages += now.nand_pages - charge_base_.nand_pages;
}

void AttributionPlane::RecordOp(std::size_t tenant,
                                sim::Nanoseconds latency_ns, StatusCode code,
                                std::uint64_t requested_bytes) {
  TenantCharges& t = tenants_[tenant];
  ++t.ops;
  t.requested_bytes += requested_bytes;
  latency_[tenant].Record(static_cast<std::uint64_t>(latency_ns));
  // SLO classification: kNotFound is a well-formed answer, not a failure.
  const bool answered = code == StatusCode::kOk || code == StatusCode::kNotFound;
  if (code == StatusCode::kBusy) {
    ++t.shed_ops;
  } else if (answered) {
    ++t.ok_ops;
  } else {
    ++t.error_ops;
  }
  const SloConfig& slo = slo_configs_[tenant];
  const bool within_target =
      slo.latency_target_ns == 0 || latency_ns <= slo.latency_target_ns;
  if (answered && within_target) {
    ++t.good_ops;
  } else {
    ++t.bad_ops;
  }
}

void AttributionPlane::TouchKey(std::uint64_t key_hash) {
  // Contiguous range bucket: floor(hash * fanout / 2^64).
  const std::size_t bucket = static_cast<std::size_t>(
      (static_cast<unsigned __int128>(key_hash) * config_.heat_fanout) >> 64);
  ++heat_[bucket];
  ++heat_touches_;
}

void AttributionPlane::OnFleetSample(sim::Nanoseconds interval_ns,
                                     SeriesSlots* slots,
                                     const FleetTotals& totals) {
  // --- Untagged residual: fleet totals minus the sum of tenant charges ----
  // Both sides are read at the same instant (inside FleetAggregator::Fill,
  // after the op that crossed the boundary fully completed), so the residual
  // is exact and every per-interval identity below holds by construction.
  TenantCharges sums;
  for (const TenantCharges& t : tenants_) {
    sums.dev_ops += t.dev_ops;
    sums.value_bytes += t.value_bytes;
    sums.pcie_h2d_bytes += t.pcie_h2d_bytes;
    sums.nand_pages += t.nand_pages;
  }
  untagged_.dev_ops = totals.ops - sums.dev_ops;
  untagged_.value_bytes = totals.value_bytes - sums.value_bytes;
  untagged_.pcie_h2d_bytes = totals.pcie_h2d_bytes - sums.pcie_h2d_bytes;
  untagged_.nand_pages = totals.nand_pages - sums.nand_pages;
  untagged_ids_.Resolve(slots, kUntaggedSeries);
  const std::uint64_t untagged[] = {
      untagged_.dev_ops,
      untagged_.dev_ops - prev_untagged_.dev_ops,
      untagged_.value_bytes,
      untagged_.value_bytes - prev_untagged_.value_bytes,
      untagged_.pcie_h2d_bytes,
      untagged_.pcie_h2d_bytes - prev_untagged_.pcie_h2d_bytes,
      untagged_.nand_pages,
      untagged_.nand_pages - prev_untagged_.nand_pages};
  for (std::size_t k = 0; k < std::size(untagged); ++k) {
    slots->Set(untagged_ids_[k], untagged[k]);
  }
  prev_untagged_ = untagged_;

  // --- Per-tenant series ---------------------------------------------------
  tenant_ids_.Resolve(slots, tenants_.size(), [](std::size_t i, std::size_t k) {
    return "tenant" + std::to_string(i) + kTenantSeries[k];
  });
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const TenantCharges& t = tenants_[i];
    const TenantCharges& p = prev_tenants_[i];
    const auto& ids = tenant_ids_[i];
    std::size_t k = 0;
    const auto set = [&](std::uint64_t value) { slots->Set(ids[k++], value); };
    set(t.ops);
    set(t.ops - p.ops);
    set(t.shed_ops);
    set(t.shed_ops - p.shed_ops);
    set(t.error_ops);
    set(t.requested_bytes);
    set(t.dev_ops);
    set(t.dev_ops - p.dev_ops);
    set(t.value_bytes);
    set(t.value_bytes - p.value_bytes);
    set(t.pcie_h2d_bytes);
    set(t.pcie_h2d_bytes - p.pcie_h2d_bytes);
    set(t.nand_pages);
    set(t.nand_pages - p.nand_pages);
    set(PerSecondMilli(t.ops - p.ops, interval_ns));
    set(RatioMilli(t.pcie_h2d_bytes - p.pcie_h2d_bytes,
                   t.value_bytes - p.value_bytes));
    set(RatioMilli(t.pcie_h2d_bytes, t.value_bytes));

    // Interval latency percentiles from the tenant histogram's bucket delta
    // — same shared-boundary exactness as the fleet's merged percentiles.
    const stats::Histogram::BucketArray& cur = latency_[i].bucket_counts();
    stats::Histogram::BucketArray delta{};
    for (int b = 0; b < stats::Histogram::kNumBuckets; ++b) {
      delta[static_cast<std::size_t>(b)] =
          cur[static_cast<std::size_t>(b)] -
          prev_latency_buckets_[i][static_cast<std::size_t>(b)];
    }
    const std::uint64_t d_count = latency_[i].count() - prev_latency_counts_[i];
    set(stats::Histogram::QuantileFromBuckets(delta, d_count, 500));
    set(stats::Histogram::QuantileFromBuckets(delta, d_count, 950));
    set(stats::Histogram::QuantileFromBuckets(delta, d_count, 990));
    set(latency_[i].QuantilePermille(990));
    prev_latency_buckets_[i] = cur;
    prev_latency_counts_[i] = latency_[i].count();

    // SLO ledger: advance the trailing windows by this interval's good/bad
    // deltas, then derive burn rates and lifetime budget spend.
    const SloConfig& slo = slo_configs_[i];
    const std::uint64_t allowed = AllowedBadPermille(slo);
    auto& win = windows_[i];
    win.emplace_back(t.good_ops - p.good_ops, t.bad_ops - p.bad_ops);
    while (win.size() > slo.slow_windows) win.pop_front();
    std::uint64_t fast_good = 0, fast_bad = 0, slow_good = 0, slow_bad = 0;
    const std::size_t fast_from =
        win.size() > slo.fast_windows ? win.size() - slo.fast_windows : 0;
    for (std::size_t w = 0; w < win.size(); ++w) {
      slow_good += win[w].first;
      slow_bad += win[w].second;
      if (w >= fast_from) {
        fast_good += win[w].first;
        fast_bad += win[w].second;
      }
    }
    SloState& state = slo_[i];
    state.burn_fast_milli = BurnMilli(fast_good, fast_bad, allowed);
    state.burn_slow_milli = BurnMilli(slow_good, slow_bad, allowed);
    // bad-share / allowed-share, in permille of the whole budget: spend is
    // (bad/ops) / (allowed/1000), rendered x1000 — so 1000 means the
    // lifetime budget is exactly exhausted.
    state.budget_spent_permille =
        t.ops == 0 ? 0 : t.bad_ops * 1000 * 1000 / (t.ops * allowed);
    set(t.good_ops);
    set(t.bad_ops);
    set(t.bad_ops - p.bad_ops);
    set(state.burn_fast_milli);
    set(state.burn_slow_milli);
    set(state.budget_spent_permille);
    prev_tenants_[i] = t;
  }

  // --- Key-space heat: shares over the decayed weights, then decay --------
  std::uint64_t total = 0, max_weight = 0;
  heat_hot_range_ = 0;
  for (std::size_t b = 0; b < heat_.size(); ++b) {
    total += heat_[b];
    if (heat_[b] > max_weight) {
      max_weight = heat_[b];
      heat_hot_range_ = b;
    }
  }
  heat_max_share_permille_ = total == 0 ? 0 : max_weight * 1000 / total;
  heat_ids_.Resolve(slots, kHeatSeries);
  slots->Set(heat_ids_[0], heat_touches_);
  slots->Set(heat_ids_[1], total);
  slots->Set(heat_ids_[2], heat_max_share_permille_);
  slots->Set(heat_ids_[3], heat_hot_range_);
  for (std::uint64_t& w : heat_) {
    w = w * config_.heat_decay_keep_permille / 1000;
  }
}

void AttributionPlane::AppendPrometheus(std::string* out,
                                        std::uint64_t ts_ms) const {
  std::ostringstream os;
  // Tenant-labeled block: one family per ledger column, every tenant plus
  // the untagged residual row where the column is a device charge.
  const auto family = [&](const char* name, const char* type,
                          bool with_untagged, auto getter) {
    os << "# TYPE " << name << " " << type << "\n";
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      os << name << "{tenant=\"" << tenant_names_[i] << "\"} "
         << getter(tenants_[i]) << " " << ts_ms << "\n";
    }
    if (with_untagged) {
      os << name << "{tenant=\"untagged\"} " << getter(untagged_) << " "
         << ts_ms << "\n";
    }
  };
  family("bandslim_tenant_ops_total", "counter", false,
         [](const TenantCharges& t) { return t.ops; });
  family("bandslim_tenant_shed_total", "counter", false,
         [](const TenantCharges& t) { return t.shed_ops; });
  family("bandslim_tenant_dev_ops_total", "counter", true,
         [](const TenantCharges& t) { return t.dev_ops; });
  family("bandslim_tenant_value_bytes_total", "counter", true,
         [](const TenantCharges& t) { return t.value_bytes; });
  family("bandslim_tenant_pcie_h2d_bytes_total", "counter", true,
         [](const TenantCharges& t) { return t.pcie_h2d_bytes; });
  family("bandslim_tenant_nand_pages_programmed_total", "counter", true,
         [](const TenantCharges& t) { return t.nand_pages; });
  family("bandslim_tenant_slo_bad_total", "counter", false,
         [](const TenantCharges& t) { return t.bad_ops; });
  const auto slo_family = [&](const char* name, auto getter) {
    os << "# TYPE " << name << " gauge\n";
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      os << name << "{tenant=\"" << tenant_names_[i] << "\"} "
         << getter(slo_[i]) << " " << ts_ms << "\n";
    }
  };
  slo_family("bandslim_tenant_slo_burn_fast_milli",
             [](const SloState& s) { return s.burn_fast_milli; });
  slo_family("bandslim_tenant_slo_burn_slow_milli",
             [](const SloState& s) { return s.burn_slow_milli; });
  slo_family("bandslim_tenant_slo_budget_spent_permille",
             [](const SloState& s) { return s.budget_spent_permille; });
  os << "# TYPE bandslim_tenant_p99_ns gauge\n";
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    os << "bandslim_tenant_p99_ns{tenant=\"" << tenant_names_[i] << "\"} "
       << latency_[i].QuantilePermille(990) << " " << ts_ms << "\n";
  }
  // Key-space heat: the decayed range histogram, one row per hash range.
  os << "# TYPE bandslim_keyspace_heat gauge\n";
  for (std::size_t b = 0; b < heat_.size(); ++b) {
    os << "bandslim_keyspace_heat{range=\"" << b << "\"} " << heat_[b] << " "
       << ts_ms << "\n";
  }
  os << "# TYPE bandslim_keyspace_heat_max_share_permille gauge\n";
  os << "bandslim_keyspace_heat_max_share_permille "
     << heat_max_share_permille_ << " " << ts_ms << "\n";
  os << "# TYPE bandslim_keyspace_hot_range gauge\n";
  os << "bandslim_keyspace_hot_range " << heat_hot_range_ << " " << ts_ms
     << "\n";
  *out += os.str();
}

std::string AttributionPlane::SloJsonl() const {
  if (!config_.enabled || tenants_.empty()) return "";
  std::ostringstream os;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const TenantCharges& t = tenants_[i];
    const SloConfig& slo = slo_configs_[i];
    os << "{\"tenant\":" << i << ",\"name\":\"" << tenant_names_[i]
       << "\",\"ops\":" << t.ops << ",\"good\":" << t.good_ops
       << ",\"bad\":" << t.bad_ops << ",\"shed\":" << t.shed_ops
       << ",\"errors\":" << t.error_ops
       << ",\"latency_target_ns\":" << slo.latency_target_ns
       << ",\"availability_target_permille\":"
       << slo.availability_target_permille
       << ",\"allowed_bad_permille\":" << AllowedBadPermille(slo)
       << ",\"budget_spent_permille\":" << slo_[i].budget_spent_permille
       << ",\"burn_fast_milli\":" << slo_[i].burn_fast_milli
       << ",\"burn_slow_milli\":" << slo_[i].burn_slow_milli
       << ",\"p99_ns\":" << latency_[i].QuantilePermille(990)
       << ",\"dev_ops\":" << t.dev_ops << ",\"value_bytes\":" << t.value_bytes
       << ",\"pcie_h2d_bytes\":" << t.pcie_h2d_bytes
       << ",\"nand_pages_programmed\":" << t.nand_pages
       << ",\"taf_milli\":" << RatioMilli(t.pcie_h2d_bytes, t.value_bytes)
       << "}\n";
  }
  return os.str();
}

}  // namespace bandslim::telemetry::attribution
