#include "telemetry/telemetry.h"

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lsm/lsm_tree.h"
#include "telemetry/export.h"

namespace bandslim::telemetry {

namespace {

// Registry counters the derived series read, by role.
enum CounterRole : std::size_t {
  kOps,
  kValueBytes,
  kPagesProgrammed,
  kTimeouts,
  kRetries,
  kProgramFailures,
  kEccCorrections,
  kMemtableStalls,
  kCompactions,
  kCompactionBytes,
  kNumRoles,
};
constexpr const char* kRoleCounters[kNumRoles] = {
    "nvme.commands_submitted", "controller.value_bytes_written",
    "nand.pages_programmed",   "nvme.timeouts",
    "nvme.retries",            "nand.program_failures",
    "nand.ecc_corrections",    "lsm.memtable_stalls",
    "lsm.compactions",         "lsm.compaction_bytes_written"};

// Fixed series families, each listed in the order TakeSample emits it.
constexpr const char* kPcieSeries[] = {
    "pcie.h2d_bytes",
    "pcie.d2h_bytes",
    "pcie.mmio.h2d_txns",
    "rate.pcie.mmio.h2d_bytes_per_sec",
    "pcie.cmd_fetch.h2d_txns",
    "rate.pcie.cmd_fetch.h2d_bytes_per_sec",
    "pcie.dma_data.h2d_txns",
    "rate.pcie.dma_data.h2d_bytes_per_sec",
    "pcie.completion.h2d_txns",
    "rate.pcie.completion.h2d_bytes_per_sec"};
// The registry's per-class H2D byte mirrors, in TrafficClass order.
constexpr const char* kPcieClassBytes[] = {
    "pcie.mmio.h2d_bytes", "pcie.cmd_fetch.h2d_bytes",
    "pcie.dma_data.h2d_bytes", "pcie.completion.h2d_bytes"};
constexpr const char* kFtlSeries[] = {
    "gauge.ftl.free_blocks", "gauge.ftl.reserve_blocks",
    "gauge.ftl.bad_blocks", "gauge.ftl.mapped_pages", "ftl.gc_runs"};
constexpr const char* kBufferSeries[] = {
    "gauge.buffer.wp", "gauge.buffer.window_base",
    "gauge.buffer.resident_bytes", "gauge.buffer.dma_frontier",
    "gauge.buffer.dlt_pending"};
constexpr const char* kLsmSeries[] = {
    "gauge.lsm.memtable_bytes",        "gauge.lsm.memtable_entries",
    "gauge.lsm.pending_trim_tables",   "gauge.lsm.compaction_debt_bytes",
    "gauge.lsm.flush_in_progress",     "gauge.lsm.compaction_in_progress"};
constexpr const char* kDerivedSeries[] = {
    "delta.ops",
    "delta.pcie.h2d_bytes",
    "delta.pcie.d2h_bytes",
    "delta.value_bytes",
    "delta.nand.pages_programmed",
    "delta.nvme.timeouts",
    "delta.nvme.retries",
    "delta.nand.program_failures",
    "delta.nand.ecc_corrections",
    "delta.lsm.memtable_stalls",
    "delta.lsm.compactions",
    "delta.lsm.compaction_bytes_written",
    "rate.ops_per_sec_milli",
    "rate.pcie.h2d_bytes_per_sec",
    "rate.pcie.d2h_bytes_per_sec",
    "rate.taf_milli",
    "rate.waf_milli",
    "total.taf_milli",
    "total.waf_milli"};

}  // namespace

Sampler::Sampler(const sim::VirtualClock* clock, const TelemetryConfig& config)
    : clock_(clock),
      config_(config),
      event_log_(clock, config.event_capacity),
      watchdog_(config.rules) {
  static_assert(std::tuple_size_v<decltype(roles_)> == kNumRoles);
  roles_.fill(-1);
  pcie_class_bytes_.fill(-1);
}

void Sampler::Bind(const Sources& sources) {
  src_ = sources;
  std::vector<const stats::MetricsRegistry*> registries;
  if (sources.metrics != nullptr) registries.push_back(sources.metrics);
  counters_.Bind(registries);
  hists_.Bind(std::move(registries));
  if (!anchored_) {
    anchored_ = true;
    anchor_ns_ = clock_->Now();
    last_sample_ns_ = anchor_ns_;
    next_boundary_ns_ = anchor_ns_ + config_.sample_interval_ns;
  }
}

void Sampler::Poll() {
  if (!config_.enabled || !anchored_) return;
  const sim::Nanoseconds now = clock_->Now();
  if (now < next_boundary_ns_) return;
  // Stamp at the last boundary the clock has passed; everything since the
  // previous sample is attributed to the single interval ending there.
  const sim::Nanoseconds stamp =
      anchor_ns_ +
      (now - anchor_ns_) / config_.sample_interval_ns *
          config_.sample_interval_ns;
  TakeSample(stamp);
  next_boundary_ns_ = stamp + config_.sample_interval_ns;
}

void Sampler::Finalize() {
  if (!config_.enabled || !anchored_) return;
  const sim::Nanoseconds now = clock_->Now();
  // Idempotent: a repeated Finalize with no clock progress — or one landing
  // on a stamp Poll() already emitted — is a no-op, never a duplicate
  // closing sample. (Only the very first sample may be stamped at the
  // anchor itself, hence the next_seq_ guard.)
  if (now <= last_sample_ns_ && next_seq_ > 0) {
    // Still guarantee the final state is live: the last Poll() sample may
    // have fallen between publish cadence points.
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

std::uint64_t Sampler::Latest(const std::string& name) const {
  if (samples_.empty()) return 0;
  const std::int64_t id = slots_.table().Find(name);
  if (id < 0) return 0;
  return samples_.back().Value(static_cast<std::uint32_t>(id));
}

void Sampler::TakeSample(sim::Nanoseconds stamp) {
  Sample s;
  s.t_ns = stamp;
  s.interval_ns = stamp - last_sample_ns_;
  s.seq = next_seq_++;
  slots_.Begin();

  // --- Metrics registry: every named counter, verbatim -------------------
  if (counters_.Refresh(&slots_)) {
    for (std::size_t r = 0; r < kNumRoles; ++r) {
      roles_[r] = counters_.IndexOf(kRoleCounters[r]);
    }
    for (int c = 0; c < pcie::kNumTrafficClasses; ++c) {
      pcie_class_bytes_[static_cast<std::size_t>(c)] =
          slots_.table().Find(kPcieClassBytes[c]);
    }
  }
  counters_.Sample(&slots_);
  const auto delta_of = [&](CounterRole r) {
    return counters_.delta(roles_[r]);
  };

  // --- PCIe link: direction totals and per-class transaction counts ------
  std::uint64_t cum_h2d = 0, d_h2d = 0, d_d2h = 0;
  if (src_.link != nullptr) {
    pcie_ids_.Resolve(&slots_, kPcieSeries);
    cum_h2d = src_.link->HostToDeviceBytes();
    d_h2d = slots_.Cumulative(pcie_ids_[0], cum_h2d);
    d_d2h = slots_.Cumulative(pcie_ids_[1], src_.link->DeviceToHostBytes());
    for (int c = 0; c < pcie::kNumTrafficClasses; ++c) {
      const auto cls = static_cast<pcie::TrafficClass>(c);
      const std::size_t k = 2 + 2 * static_cast<std::size_t>(c);
      slots_.Cumulative(
          pcie_ids_[k],
          src_.link->TransactionsOf(cls, pcie::Direction::kHostToDevice));
      // Per-class byte rates: the cumulative series is the registry mirror
      // recorded above; the current value comes straight from the link
      // (identical by construction).
      const std::uint64_t cls_bytes =
          src_.link->BytesOf(cls, pcie::Direction::kHostToDevice);
      const std::int64_t id = pcie_class_bytes_[static_cast<std::size_t>(c)];
      const std::uint64_t prev_bytes =
          id < 0 ? 0 : slots_.Previous(static_cast<std::uint32_t>(id));
      slots_.Set(pcie_ids_[k + 1],
                 PerSecond(cls_bytes - prev_bytes, s.interval_ns));
    }
  }

  // --- NVMe queues --------------------------------------------------------
  if (src_.transport != nullptr) {
    const std::size_t queues = src_.transport->num_queue_pairs();
    queue_ids_.Resolve(&slots_, queues, [](std::size_t q, std::size_t k) {
      static constexpr const char* kSuffix[] = {".depth", ".inflight",
                                                ".submitted"};
      return (k < 2 ? "gauge.queue" : "queue") + std::to_string(q) + kSuffix[k];
    });
    for (std::size_t q = 0; q < queues; ++q) {
      const nvme::NvmeTransport::QueueInfo info =
          src_.transport->QueueInfoAt(static_cast<std::uint16_t>(q));
      slots_.Set(queue_ids_[q][0], info.depth);
      slots_.Set(queue_ids_[q][1], info.inflight);
      slots_.Cumulative(queue_ids_[q][2], info.submitted);
    }
  }

  // --- NAND channel/way busy time ----------------------------------------
  if (src_.nand != nullptr) {
    const nand::NandGeometry& g = src_.nand->geometry();
    channel_ids_.Resolve(&slots_, g.channels, [](std::size_t c, std::size_t k) {
      return (k == 0 ? "nand.ch" : "gauge.nand.ch") + std::to_string(c) +
             (k == 0 ? ".busy_ns" : ".busy_permille");
    });
    for (std::uint32_t c = 0; c < g.channels; ++c) {
      const std::uint64_t d_busy = slots_.Cumulative(
          channel_ids_[c][0],
          static_cast<std::uint64_t>(src_.nand->channel_busy_ns(c)));
      slots_.Set(channel_ids_[c][1],
                 s.interval_ns == 0 ? 0 : d_busy * kMilliScale / s.interval_ns);
    }
    die_ids_.Resolve(&slots_, g.dies(), [](std::size_t d, std::size_t) {
      return "nand.die" + std::to_string(d) + ".busy_ns";
    });
    for (std::uint64_t d = 0; d < g.dies(); ++d) {
      slots_.Cumulative(die_ids_[d][0],
                        static_cast<std::uint64_t>(src_.nand->die_busy_ns(d)));
    }
  }

  // --- FTL block accounting and GC activity ------------------------------
  if (src_.ftl != nullptr) {
    ftl_ids_.Resolve(&slots_, kFtlSeries);
    slots_.Set(ftl_ids_[0], src_.ftl->free_blocks());
    slots_.Set(ftl_ids_[1], src_.ftl->reserve_remaining());
    slots_.Set(ftl_ids_[2], src_.ftl->bad_blocks());
    slots_.Set(ftl_ids_[3], src_.ftl->mapped_pages());
    slots_.Cumulative(ftl_ids_[4], src_.ftl->gc_runs());
  }

  // --- Page buffer window -------------------------------------------------
  if (src_.buffer != nullptr) {
    buffer_ids_.Resolve(&slots_, kBufferSeries);
    slots_.Set(buffer_ids_[0], src_.buffer->wp());
    slots_.Set(buffer_ids_[1], src_.buffer->window_base_addr());
    slots_.Set(buffer_ids_[2],
               src_.buffer->wp() - src_.buffer->window_base_addr());
    slots_.Set(buffer_ids_[3], src_.buffer->dma_frontier());
    slots_.Set(buffer_ids_[4], src_.buffer->dlt().size());
  }

  // --- LSM / compaction state ---------------------------------------------
  if (src_.lsm != nullptr) {
    lsm_ids_.Resolve(&slots_, kLsmSeries);
    slots_.Set(lsm_ids_[0], src_.lsm->memtable_bytes());
    slots_.Set(lsm_ids_[1], src_.lsm->memtable_entries());
    slots_.Set(lsm_ids_[2], src_.lsm->pending_trim_tables());
    slots_.Set(lsm_ids_[3], src_.lsm->CompactionDebtBytes());
    slots_.Set(lsm_ids_[4], src_.lsm->flush_in_progress() ? 1 : 0);
    slots_.Set(lsm_ids_[5], src_.lsm->compaction_in_progress() ? 1 : 0);
    const auto levels = static_cast<std::size_t>(src_.lsm->level_count());
    level_ids_.Resolve(&slots_, levels, [](std::size_t l, std::size_t k) {
      return "gauge.lsm.l" + std::to_string(l) +
             (k == 0 ? ".tables" : ".bytes");
    });
    for (std::size_t l = 0; l < levels; ++l) {
      slots_.Set(level_ids_[l][0], src_.lsm->TableCount(static_cast<int>(l)));
      slots_.Set(level_ids_[l][1], src_.lsm->LevelBytes(static_cast<int>(l)));
    }
  }

  // --- Per-interval histogram percentiles ---------------------------------
  // Only histograms that have ever recorded a value emit series; an
  // interval with no recordings emits zeros consistently —
  // QuantileFromBuckets is 0 on an all-zero delta.
  hists_.Sample(&slots_);

  // --- Per-interval deltas and fixed-point rates --------------------------
  derived_ids_.Resolve(&slots_, kDerivedSeries);
  const std::uint64_t d_ops = delta_of(kOps);
  const std::uint64_t d_value_bytes = delta_of(kValueBytes);
  const std::uint64_t d_pages = delta_of(kPagesProgrammed);
  const std::uint64_t deltas[] = {d_ops,
                                  d_h2d,
                                  d_d2h,
                                  d_value_bytes,
                                  d_pages,
                                  delta_of(kTimeouts),
                                  delta_of(kRetries),
                                  delta_of(kProgramFailures),
                                  delta_of(kEccCorrections),
                                  delta_of(kMemtableStalls),
                                  delta_of(kCompactions),
                                  delta_of(kCompactionBytes)};
  std::size_t k = 0;
  for (const std::uint64_t d : deltas) slots_.Set(derived_ids_[k++], d);
  const std::size_t page_size =
      src_.nand != nullptr ? src_.nand->geometry().page_size : kNandPageSize;
  const std::uint64_t cum_value_bytes = counters_.value(roles_[kValueBytes]);
  const std::uint64_t cum_pages = counters_.value(roles_[kPagesProgrammed]);
  slots_.Set(derived_ids_[k++], PerSecondMilli(d_ops, s.interval_ns));
  slots_.Set(derived_ids_[k++], PerSecond(d_h2d, s.interval_ns));
  slots_.Set(derived_ids_[k++], PerSecond(d_d2h, s.interval_ns));
  slots_.Set(derived_ids_[k++], RatioMilli(d_h2d, d_value_bytes));
  slots_.Set(derived_ids_[k++], RatioMilli(d_pages * page_size, d_value_bytes));
  slots_.Set(derived_ids_[k++], RatioMilli(cum_h2d, cum_value_bytes));
  slots_.Set(derived_ids_[k++],
             RatioMilli(cum_pages * page_size, cum_value_bytes));

  slots_.Finish(&s);

  // Events emitted from here on (watchdog alerts) belong *after* this
  // sample in the timeline; the exporters use this to break timestamp ties.
  s.events_before = event_log_.total_emitted();

  last_sample_ns_ = stamp;
  if (samples_.size() == config_.sample_capacity) {
    samples_.pop_front();
    ++dropped_samples_;
  }
  samples_.push_back(std::move(s));
  watchdog_.Evaluate(samples_.back(), slots_.table(), &event_log_);

  // Control tick: the observer sees the finalized sample plus this
  // interval's watchdog edges, and may actuate device knobs. Any clock time
  // it spends is charged to the op whose Poll() crossed the boundary.
  if (observer_ != nullptr) observer_->OnSample(samples_.back());

  // Rendering is O(samples), so publish on a sample-count cadence only;
  // Finalize publishes the closing sample regardless.
  if (config_.publish_every != 0 &&
      samples_.back().seq % config_.publish_every == 0) {
    PublishSnapshot();
  }
}

void Sampler::PublishSnapshot() {
  if (sink_ == nullptr || samples_.empty() ||
      samples_.back().seq == last_published_seq_) {
    return;
  }
  auto snap = std::make_shared<PublishedSnapshot>();
  snap->sample_seq = samples_.back().seq;
  snap->t_ns = samples_.back().t_ns;
  snap->metrics_text = ToPrometheusText(*this);
  snap->timeline_jsonl = ToJsonl(*this);
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
  health += "}\n";
  snap->healthz_json = std::move(health);
  last_published_seq_ = snap->sample_seq;
  sink_->Publish(std::move(snap));
}

}  // namespace bandslim::telemetry
