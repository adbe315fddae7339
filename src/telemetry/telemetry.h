// Continuous telemetry: the device plane (DESIGN.md 2.4). Every
// `sample_interval_ns` of simulated time the Sampler reads the metrics
// registry plus live component state — PCIe per-class byte/transaction
// counters, NAND per-channel/way busy time, FTL block accounting and GC
// activity, per-queue depth/inflight, page-buffer window occupancy,
// fault/retry/timeout counters — and derives per-interval deltas and
// fixed-point rate gauges (bytes/s, ops/s in milli-units, instantaneous
// TAF/WAF x1000), so the paper's rates-over-time curves can be produced from
// one run. Every source is resolved to its series id once
// (telemetry/series_slots.h), so a steady-state sample copies no registry
// and builds no series name. The interval grid, sample ring, event log,
// watchdog, observer and publishing are the engine's (telemetry/timeline.h);
// Poll() runs after each device command and host-level op.
#pragma once

#include <array>
#include <cstdint>

#include "buffer/page_buffer.h"
#include "ftl/ftl.h"
#include "nand/nand_flash.h"
#include "nvme/transport.h"
#include "pcie/link.h"
#include "stats/metrics.h"
#include "telemetry/series_slots.h"
#include "telemetry/timeline.h"

namespace bandslim::lsm {
class LsmTree;
}

namespace bandslim::telemetry {

class Sampler : public Timeline {
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

  // (Re)binds the observation points; the first bind anchors the interval
  // grid at the current virtual time.
  void Bind(const Sources& sources);

 private:
  void Fill(sim::Nanoseconds interval_ns) override;

  Sources src_;
  // Resolved (source -> series id) slots, in the order Fill first emits
  // them (series_slots.h). `roles_` are the slot indices of the counters
  // the derived series read (-1 while a counter does not exist);
  // `pcie_class_bytes_` the ids of the registry's per-class H2D byte
  // mirrors the class rates difference against (-1 until interned).
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
};

}  // namespace bandslim::telemetry
