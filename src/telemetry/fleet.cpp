#include "telemetry/fleet.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "telemetry/attribution/attribution.h"
#include "telemetry/export.h"

namespace bandslim::telemetry {

namespace {

// The registry mirrors PCIe bytes as one counter per traffic class
// ("pcie.mmio.h2d_bytes" ... "pcie.completion.h2d_bytes"); their sum is the
// link's host-to-device byte total, exactly as KvSsd::GetStats computes it.
bool IsPcieH2dBytes(std::string_view name) {
  static constexpr std::string_view kPrefix = "pcie.";
  static constexpr std::string_view kSuffix = ".h2d_bytes";
  return name.size() > kPrefix.size() + kSuffix.size() &&
         name.compare(0, kPrefix.size(), kPrefix) == 0 &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) == 0;
}

constexpr char kOpLatencyHist[] = "trace.op.latency_ns";

// Summed shard counters the derived series read, by role.
enum CounterRole : std::size_t { kOps, kValueBytes, kPagesProgrammed };
constexpr const char* kRoleCounters[] = {"nvme.commands_submitted",
                                         "controller.value_bytes_written",
                                         "nand.pages_programmed"};
constexpr const char* kPcieH2dCounters[] = {
    "pcie.mmio.h2d_bytes", "pcie.cmd_fetch.h2d_bytes",
    "pcie.dma_data.h2d_bytes", "pcie.completion.h2d_bytes"};

// Fleet derived series, in the order TakeSample emits them.
constexpr const char* kDerivedSeries[] = {
    "fleet.shards",
    "delta.ops",
    "delta.value_bytes",
    "delta.pcie.h2d_bytes",
    "delta.nand.pages_programmed",
    "rate.ops_per_sec_milli",
    "rate.taf_milli",
    "total.taf_milli",
    "fleet.imbalance.ops_max_over_mean_milli",
    "fleet.skew.p99_max_over_fleet_milli",
    "fleet.ring.skew_permille",
    "fleet.straggler.stalled_shards"};

std::uint64_t ValueOf(const stats::Counter* c) {
  return c == nullptr ? 0 : c->value();
}

}  // namespace

WatchdogRule ShardImbalanceRule(std::uint64_t ratio_milli, std::uint32_t n,
                                std::uint32_t clear_n) {
  WatchdogRule r;
  r.name = "shard_imbalance";
  r.series = "fleet.imbalance.ops_max_over_mean_milli";
  r.cmp = WatchdogRule::Cmp::kAtLeast;
  r.threshold = ratio_milli;
  r.for_intervals = n;
  r.clear_for_intervals = clear_n;
  return r;
}

WatchdogRule HotShardP99SkewRule(std::uint64_t ratio_milli, std::uint32_t n,
                                 std::uint32_t clear_n) {
  WatchdogRule r;
  r.name = "hot_shard_p99_skew";
  r.series = "fleet.skew.p99_max_over_fleet_milli";
  r.cmp = WatchdogRule::Cmp::kAtLeast;
  r.threshold = ratio_milli;
  r.for_intervals = n;
  r.clear_for_intervals = clear_n;
  return r;
}

WatchdogRule RingSkewRule(std::uint64_t skew_permille, std::uint32_t n) {
  WatchdogRule r;
  r.name = "ring_skew";
  r.series = "fleet.ring.skew_permille";
  r.cmp = WatchdogRule::Cmp::kAbove;
  r.threshold = skew_permille;
  r.for_intervals = n;
  return r;
}

WatchdogRule StragglerShardRule(std::uint32_t n, std::uint32_t clear_n) {
  WatchdogRule r;
  r.name = "straggler_shard";
  r.series = "fleet.straggler.stalled_shards";
  r.cmp = WatchdogRule::Cmp::kAtLeast;
  r.threshold = 1;
  r.for_intervals = n;
  r.clear_for_intervals = clear_n;
  return r;
}

FleetAggregator::FleetAggregator(const sim::VirtualClock* router_clock,
                                 const FleetConfig& config)
    : clock_(router_clock),
      config_(config),
      event_log_(router_clock, config.event_capacity),
      watchdog_(config.rules) {
  static_assert(std::tuple_size_v<decltype(roles_)> ==
                std::size(kRoleCounters));
  roles_.fill(-1);
}

void FleetAggregator::Bind(std::vector<ShardSource> shards,
                           const std::vector<std::uint64_t>* routed_keys,
                           std::vector<std::uint64_t> expected_share_permille) {
  shards_ = std::move(shards);
  routed_keys_ = routed_keys;
  expected_share_permille_ = std::move(expected_share_permille);
  refs_.assign(shards_.size(), ShardRefs{});
  std::vector<const stats::MetricsRegistry*> registries;
  for (const ShardSource& src : shards_) {
    if (src.metrics != nullptr) registries.push_back(src.metrics);
  }
  counters_.Bind(registries);
  hists_.Bind(std::move(registries));
  windows_.assign(shards_.size(), ShardWindow{});
  prev_shard_ops_.assign(shards_.size(), 0);
  last_shard_op_hist_.assign(shards_.size(), stats::HistogramBuckets{});
  if (!anchored_) {
    anchored_ = true;
    anchor_ns_ = clock_->Now();
    last_sample_ns_ = anchor_ns_;
    next_boundary_ns_ = anchor_ns_ + config_.sample_interval_ns;
  }
}

void FleetAggregator::Poll() {
  if (!config_.enabled || !anchored_) return;
  const sim::Nanoseconds now = clock_->Now();
  if (now < next_boundary_ns_) return;
  const sim::Nanoseconds stamp =
      anchor_ns_ +
      (now - anchor_ns_) / config_.sample_interval_ns *
          config_.sample_interval_ns;
  TakeSample(stamp);
  next_boundary_ns_ = stamp + config_.sample_interval_ns;
}

void FleetAggregator::Finalize() {
  if (!config_.enabled || !anchored_) return;
  const sim::Nanoseconds now = clock_->Now();
  if (now <= last_sample_ns_ && next_seq_ > 0) {
    PublishSnapshot();
    return;
  }
  TakeSample(now);
  PublishSnapshot();
  if (next_boundary_ns_ <= now) {
    next_boundary_ns_ =
        anchor_ns_ +
        ((now - anchor_ns_) / config_.sample_interval_ns + 1) *
            config_.sample_interval_ns;
  }
}

std::uint64_t FleetAggregator::Latest(const std::string& name) const {
  if (samples_.empty()) return 0;
  const std::int64_t id = slots_.table().Find(name);
  if (id < 0) return 0;
  return samples_.back().Value(static_cast<std::uint32_t>(id));
}

void FleetAggregator::TakeSample(sim::Nanoseconds stamp) {
  Sample s;
  s.t_ns = stamp;
  s.interval_ns = stamp - last_sample_ns_;
  s.seq = next_seq_++;
  slots_.Begin();

  // --- Per-shard reads: one instant, one pass ----------------------------
  // Every shard's counters are read while the routed op that crossed the
  // boundary is complete on its device, so the summed cluster series and
  // the per-shard windows describe the same cut — the reconciliation
  // invariant (fleet delta == sum of shard deltas) is exact by construction.
  const std::size_t n = shards_.size();
  std::uint64_t max_shard_p99 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ShardSource& src = shards_[i];
    ShardWindow& w = windows_[i];
    w.p99_ns = 0;
    if (src.metrics != nullptr) {
      ShardRefs& r = refs_[i];
      if (r.counters_seen != src.metrics->counter_count()) {
        r.counters_seen = src.metrics->counter_count();
        r.ops = src.metrics->FindCounter(kRoleCounters[kOps]);
        r.value_bytes = src.metrics->FindCounter(kRoleCounters[kValueBytes]);
        for (std::size_t c = 0; c < r.h2d.size(); ++c) {
          r.h2d[c] = src.metrics->FindCounter(kPcieH2dCounters[c]);
        }
        r.pages = src.metrics->FindCounter(kRoleCounters[kPagesProgrammed]);
      }
      if (r.hists_seen != src.metrics->histogram_count()) {
        r.hists_seen = src.metrics->histogram_count();
        r.op_latency = src.metrics->FindHistogram(kOpLatencyHist);
      }
      if (r.op_latency != nullptr && r.op_latency->count() != 0) {
        const stats::Histogram& cur = *r.op_latency;
        stats::HistogramBuckets& last = last_shard_op_hist_[i];
        stats::Histogram::BucketArray delta{};
        for (std::size_t b = 0; b < delta.size(); ++b) {
          delta[b] = cur.bucket_counts()[b] - last.buckets[b];
        }
        w.p99_ns = stats::Histogram::QuantileFromBuckets(
            delta, cur.count() - last.count, 990);
        max_shard_p99 = std::max(max_shard_p99, w.p99_ns);
        last.buckets = cur.bucket_counts();
        last.count = cur.count();
        last.sum = cur.sum();
      }
      w.ops = ValueOf(r.ops);
      w.value_bytes = ValueOf(r.value_bytes);
      w.pcie_h2d_bytes = 0;
      for (const stats::Counter* c : r.h2d) w.pcie_h2d_bytes += ValueOf(c);
      w.nand_pages_programmed = ValueOf(r.pages);
    }
    w.delta_ops = w.ops - prev_shard_ops_[i];
    prev_shard_ops_[i] = w.ops;
    w.routed_keys = routed_keys_ != nullptr && i < routed_keys_->size()
                        ? (*routed_keys_)[i]
                        : 0;
    w.shard_now_ns = src.clock != nullptr ? src.clock->Now() : 0;
  }

  // --- Cluster cumulative series: summed shard counters, verbatim names --
  if (counters_.Refresh(&slots_)) {
    for (std::size_t r = 0; r < roles_.size(); ++r) {
      roles_[r] = counters_.IndexOf(kRoleCounters[r]);
    }
    h2d_slots_.clear();
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      if (IsPcieH2dBytes(counters_.name(i))) {
        h2d_slots_.push_back(static_cast<std::int64_t>(i));
      }
    }
  }
  counters_.Sample(&slots_);
  const std::uint64_t cum_ops = counters_.value(roles_[kOps]);
  const std::uint64_t cum_vb = counters_.value(roles_[kValueBytes]);
  const std::uint64_t cum_pages = counters_.value(roles_[kPagesProgrammed]);
  const std::uint64_t d_ops = counters_.delta(roles_[kOps]);
  const std::uint64_t d_vb = counters_.delta(roles_[kValueBytes]);
  const std::uint64_t d_pages = counters_.delta(roles_[kPagesProgrammed]);
  std::uint64_t cum_h2d = 0, d_h2d = 0;
  for (const std::int64_t i : h2d_slots_) {
    cum_h2d += counters_.value(i);
    d_h2d += counters_.delta(i);
  }

  // --- Merged-histogram percentiles ---------------------------------------
  // Interval series mirror the device sampler (<base>.p50/.p95/.p99 over
  // the bucket delta); the lifetime.* variants are quantiles over the full
  // merged cumulative buckets — by the shared-boundary argument these equal
  // the quantiles over the union of every shard's recordings, which the
  // fleet test asserts against a replayed union histogram.
  if (hists_.Sample(&slots_)) op_hist_ = hists_.IndexOf(kOpLatencyHist);
  const std::uint64_t fleet_p99 = hists_.interval_p99(op_hist_);

  // --- Per-shard series and imbalance inputs ------------------------------
  shard_ids_.Resolve(&slots_, n, [](std::size_t i, std::size_t k) {
    static constexpr const char* kSuffix[] = {".ops", ".delta.ops",
                                              ".routed_keys", ".p99_ns"};
    return "shard" + std::to_string(i) + kSuffix[k];
  });
  std::uint64_t max_delta_ops = 0, stalled = 0, total_routed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ShardWindow& w = windows_[i];
    slots_.Set(shard_ids_[i][0], w.ops);
    slots_.Set(shard_ids_[i][1], w.delta_ops);
    slots_.Set(shard_ids_[i][2], w.routed_keys);
    slots_.Set(shard_ids_[i][3], w.p99_ns);
    max_delta_ops = std::max(max_delta_ops, w.delta_ops);
    if (w.delta_ops == 0) ++stalled;
    total_routed += w.routed_keys;
  }
  std::uint64_t ring_skew = 0;
  if (total_routed > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t actual =
          windows_[i].routed_keys * 1000 / total_routed;
      const std::uint64_t expected =
          i < expected_share_permille_.size() ? expected_share_permille_[i]
                                              : 0;
      ring_skew = std::max(
          ring_skew, actual > expected ? actual - expected : expected - actual);
    }
  }

  // --- Fleet derived series and watchdog rule inputs ----------------------
  derived_ids_.Resolve(&slots_, kDerivedSeries);
  std::size_t k = 0;
  slots_.Set(derived_ids_[k++], n);
  slots_.Set(derived_ids_[k++], d_ops);
  slots_.Set(derived_ids_[k++], d_vb);
  slots_.Set(derived_ids_[k++], d_h2d);
  slots_.Set(derived_ids_[k++], d_pages);
  slots_.Set(derived_ids_[k++], PerSecondMilli(d_ops, s.interval_ns));
  slots_.Set(derived_ids_[k++], RatioMilli(d_h2d, d_vb));
  slots_.Set(derived_ids_[k++], RatioMilli(cum_h2d, cum_vb));
  // max/mean x1000 == max * N * 1000 / total; 0 on an idle interval so the
  // imbalance rule never fires while the fleet is quiet.
  slots_.Set(derived_ids_[k++],
             d_ops == 0 ? 0 : max_delta_ops * n * kMilliScale / d_ops);
  slots_.Set(derived_ids_[k++],
             fleet_p99 == 0 ? 0 : max_shard_p99 * kMilliScale / fleet_p99);
  slots_.Set(derived_ids_[k++], ring_skew);
  slots_.Set(derived_ids_[k++], d_ops > 0 ? stalled : 0);

  // --- Tenant/key-space attribution series --------------------------------
  // Folded into THIS sample before the watchdog pass, so the burn-rate and
  // hot-range rules evaluate against the same interval cut as every fleet
  // rule, and the untagged residual reconciles against the exact cumulative
  // counters captured above.
  if (attribution_ != nullptr && attribution_->enabled()) {
    attribution::AttributionPlane::FleetTotals totals;
    totals.ops = cum_ops;
    totals.value_bytes = cum_vb;
    totals.pcie_h2d_bytes = cum_h2d;
    totals.nand_pages = cum_pages;
    attribution_->OnFleetSample(s.interval_ns, &slots_, totals);
  }

  slots_.Finish(&s);
  s.events_before = event_log_.total_emitted();

  last_sample_ns_ = stamp;
  if (samples_.size() == config_.sample_capacity) {
    samples_.pop_front();
    ++dropped_samples_;
  }
  samples_.push_back(std::move(s));
  watchdog_.Evaluate(samples_.back(), slots_.table(), &event_log_);

  if (config_.publish_every != 0 &&
      samples_.back().seq % config_.publish_every == 0) {
    PublishSnapshot();
  }
}

std::string FleetAggregator::ToPrometheusText() const {
  std::string out = PrometheusTextCore(
      samples_, slots_.table(), watchdog_, next_seq_,
      "bandslim_fleet_samples_total",
      "Fleet samples emitted by the cluster aggregator.");
  if (samples_.empty() || windows_.empty()) return out;
  const std::uint64_t ts_ms = samples_.back().t_ns / sim::kMillisecond;
  std::ostringstream os;
  // Federated per-shard block: the same scrape carries every shard's view
  // under a `shard` label, so one endpoint serves the whole cluster.
  const auto family = [&](const char* name, const char* type, auto getter) {
    os << "# TYPE " << name << " " << type << "\n";
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      os << name << "{shard=\"" << i << "\"} " << getter(windows_[i]) << " "
         << ts_ms << "\n";
    }
  };
  family("bandslim_shard_ops_total", "counter",
         [](const ShardWindow& w) { return w.ops; });
  family("bandslim_shard_delta_ops", "gauge",
         [](const ShardWindow& w) { return w.delta_ops; });
  family("bandslim_shard_value_bytes_total", "counter",
         [](const ShardWindow& w) { return w.value_bytes; });
  family("bandslim_shard_pcie_h2d_bytes_total", "counter",
         [](const ShardWindow& w) { return w.pcie_h2d_bytes; });
  family("bandslim_shard_nand_pages_programmed_total", "counter",
         [](const ShardWindow& w) { return w.nand_pages_programmed; });
  family("bandslim_shard_routed_keys_total", "counter",
         [](const ShardWindow& w) { return w.routed_keys; });
  family("bandslim_shard_p99_ns", "gauge",
         [](const ShardWindow& w) { return w.p99_ns; });
  out += os.str();
  if (attribution_ != nullptr && attribution_->enabled()) {
    attribution_->AppendPrometheus(&out, ts_ms);
  }
  return out;
}

std::string FleetAggregator::ToJsonl() const {
  return TimelineJsonlCore(samples_, slots_.table(), event_log_, watchdog_);
}

std::string FleetAggregator::ShardsJsonl() const {
  std::ostringstream os;
  const sim::Nanoseconds t = samples_.empty() ? 0 : samples_.back().t_ns;
  std::uint64_t total_routed = 0;
  for (const ShardWindow& w : windows_) total_routed += w.routed_keys;
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const ShardWindow& w = windows_[i];
    const std::uint64_t expected =
        i < expected_share_permille_.size() ? expected_share_permille_[i] : 0;
    const std::uint64_t actual =
        total_routed == 0 ? 0 : w.routed_keys * 1000 / total_routed;
    os << "{\"shard\":" << i << ",\"t_ns\":" << t << ",\"shard_t_ns\":"
       << w.shard_now_ns << ",\"ops\":" << w.ops << ",\"delta_ops\":"
       << w.delta_ops << ",\"value_bytes\":" << w.value_bytes
       << ",\"pcie_h2d_bytes\":" << w.pcie_h2d_bytes
       << ",\"nand_pages_programmed\":" << w.nand_pages_programmed
       << ",\"routed_keys\":" << w.routed_keys << ",\"p99_ns\":" << w.p99_ns
       << ",\"expected_share_permille\":" << expected
       << ",\"actual_share_permille\":" << actual << "}\n";
  }
  return os.str();
}

void FleetAggregator::PublishSnapshot() {
  if (sink_ == nullptr || samples_.empty() ||
      samples_.back().seq == last_published_seq_) {
    return;
  }
  auto snap = std::make_shared<PublishedSnapshot>();
  snap->sample_seq = samples_.back().seq;
  snap->t_ns = samples_.back().t_ns;
  snap->metrics_text = ToPrometheusText();
  snap->timeline_jsonl = ToJsonl();
  snap->shards_jsonl = ShardsJsonl();
  if (attribution_ != nullptr && attribution_->enabled()) {
    snap->slo_jsonl = attribution_->SloJsonl();
  }
  std::string health = "{\"status\":\"ok\",\"sample_seq\":";
  health += std::to_string(snap->sample_seq);
  health += ",\"t_ns\":";
  health += std::to_string(snap->t_ns);
  health += ",\"samples\":";
  health += std::to_string(next_seq_);
  health += ",\"events\":";
  health += std::to_string(event_log_.total_emitted());
  health += ",\"alerts_fired\":";
  health += std::to_string(watchdog_.total_fired());
  health += ",\"shards\":";
  health += std::to_string(windows_.size());
  health += "}\n";
  snap->healthz_json = std::move(health);
  last_published_seq_ = snap->sample_seq;
  sink_->Publish(std::move(snap));
}

}  // namespace bandslim::telemetry
