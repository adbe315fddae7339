// The benchmark workloads. Each one generates its inputs from a seed, then
// runs any number of passes; a pass opens fresh store(s), preloads, runs a
// warm-up, a timed steady-state window and its correctness checks, and
// reports what it measured. Passes of one workload and seed issue the same
// op stream, so their simulated results must be identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace perfbench {

struct PassOptions {
  // Program tracer on (trace.enabled) plus the benchmark's own spans.
  bool trace = false;
  // Observation planes (device telemetry, fleet aggregator, attribution);
  // only cluster_observed has them.
  bool planes = true;
  // Where timed slices run: slice i of the pass-th pass runs on CPU step
  // pass + i of the rotation (none when null).
  const CpuRotation* cpus = nullptr;
  std::size_t pass = 0;

  void PlaceSlice(std::size_t slice) const {
    if (cpus != nullptr) cpus->Place(pass + slice);
  }
};

struct PassResult {
  // --- Host cost.
  double setup_s = 0.0;        // Open the store(s) and preload.
  double window_host_s = 0.0;  // The timed steady-state window.
  // Host ns of consecutive fixed slices of the window. Every pass of a seed
  // replays the same stream, so slice i carries the same work in each pass
  // and main takes per-slice medians across passes.
  std::vector<std::int64_t> chunk_host_ns;
  // CalibrationMops() measured right after each slice.
  std::vector<double> calibration_mops;
  // Host ns of each KvStore call the benchmark issued in the window (the
  // read-back calls on campaign_4shard, whose window runs in the executor).
  std::vector<std::uint64_t> call_host_ns;
  std::uint64_t allocs = 0;  // Heap allocations inside the window.
  double peak_rss_mb = 0.0;  // Process peak RSS at the end of the pass.

  // --- Window ops and simulated time.
  std::uint64_t ops = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t put_value_bytes = 0;
  std::uint64_t get_value_bytes = 0;
  std::uint64_t window_sim_ns = 0;
  std::uint64_t lat_samples = 0;
  double sim_lat_p50_ns = 0.0;
  double sim_lat_p999_ns = 0.0;
  RegistryView delta;                    // Window deltas, summed over shards.
  std::vector<std::uint64_t> shard_ops;  // Client ops per shard (clusters).
  std::uint64_t telemetry_samples = 0;   // Device + fleet samples taken.
  // Transfer-path choice (driver::KvDriver::Decide) of the window's PUTs.
  std::uint64_t piggyback = 0;
  std::uint64_t prp = 0;
  std::uint64_t hybrid = 0;

  // --- Read-back after the window (put_paper_m, campaign_4shard).
  std::uint64_t readback_gets = 0;
  std::uint64_t readback_value_bytes = 0;
  std::uint64_t readback_d2h_bytes = 0;

  // --- End state.
  std::uint64_t mapped_bytes = 0;     // ftl_mapped_pages x 16 KiB, all shards.
  std::uint64_t live_user_bytes = 0;  // Key + value bytes of live keys.

  // --- Correctness and determinism.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::uint64_t digest = 0;  // Simulated outcomes + counter deltas.

  // --- Traced pass only.
  SpanRecorder spans;
  std::uint64_t commands_checked = 0;
  std::uint64_t exactness_violations = 0;
  std::uint64_t tracer_orphans = 0;
  double route_host_ns = 0.0;  // Mean KvCluster::ShardOf cost.
  double memtable_put_host_ns = 0.0;
  double memtable_get_host_ns = 0.0;
  double gen_host_ns_per_op = 0.0;  // Set by main from Generate's timing.
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool has_planes() const { return false; }
  // Builds every input from `seed`; nothing here is timed into a window.
  // Returns the number of ops generated.
  virtual std::uint64_t Generate(std::uint64_t seed) = 0;
  virtual PassResult RunPass(const PassOptions& options) = 0;
};

const std::vector<std::string>& WorkloadNames();
// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name);

}  // namespace perfbench
