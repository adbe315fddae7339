#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>

#include "cluster/kv_cluster.h"
#include "common/random.h"
#include "core/kvssd.h"
#include "lsm/memtable.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/fleet.h"
#include "telemetry/watchdog.h"
#include "workload/key_gen.h"
#include "workload/runner.h"
#include "workload/workloads.h"

namespace perfbench {
namespace {

namespace bs = bandslim;
using bs::ByteSpan;
using bs::Bytes;
using bs::Xoshiro256;

// --- Sizes. Op counts are fixed per workload (never scaled by host speed),
// so every pass of a seed issues the same stream and simulated results
// compare exactly across passes, runs and hosts.
constexpr std::uint64_t kPutWarmup = 20'000;
constexpr std::uint64_t kPutWindow = 300'000;  // ~29 flushes, ~11 compactions.
constexpr std::uint64_t kZipfKeys = 256 * 1024;
constexpr std::uint64_t kZipfWarmup = 20'000;
constexpr std::uint64_t kZipfWindow = 200'000;
constexpr std::uint32_t kObservedShards = 4;
constexpr std::uint64_t kObservedKeysPerTenant = 32 * 1024;  // 64 Ki total.
constexpr std::uint64_t kObservedWarmup = 5'000;
constexpr std::uint64_t kObservedWindow = 60'000;
constexpr std::uint32_t kCampaignShards = 4;
constexpr std::uint64_t kCampaignKeys = 4096;
constexpr std::uint64_t kCampaignWarmup = 50'000;
constexpr std::uint64_t kCampaignWindow = 400'000;
constexpr std::size_t kSmallValue = 128;
// Window ops per host-timing chunk (serial workloads) and executor calls
// per window (campaign_4shard); see PassResult::chunk_host_ns.
constexpr std::size_t kChunkOps = 2000;
constexpr std::uint64_t kCampaignChunks = 40;

constexpr std::size_t kPoolBytes = 1 << 20;
constexpr std::size_t kMaxValue = 4096;
constexpr std::uint64_t kPageBytes = bs::kNandPageSize;

// Expected state of one key in the benchmark's model.
struct Expect {
  const std::uint8_t* data = nullptr;  // Into the value pool.
  std::uint32_t size = 0;
  bool present = false;
};
// Key -> expected bytes. Map nodes are stable, so ops hold pointers.
using Model = std::map<std::string, Expect>;

struct Op {
  std::string_view key;  // Views the model node's key.
  Expect* slot = nullptr;
  ByteSpan value;  // PUT payload (a pool slice); empty for GET.
  bool is_get = false;
  std::uint16_t tenant = 0;
};

// Random bytes every PUT value is a slice of: distinct keys get distinct
// bytes without a per-value allocation.
class ValuePool {
 public:
  void Fill(std::uint64_t seed) {
    bytes_.resize(kPoolBytes + kMaxValue);
    Xoshiro256 rng(seed ^ 0x9E11E5EEDULL);
    for (std::uint8_t& b : bytes_) b = static_cast<std::uint8_t>(rng() >> 56);
  }
  ByteSpan Slice(Xoshiro256& rng, std::size_t size) const {
    return ByteSpan(bytes_.data() + rng() % kPoolBytes, size);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

// The store(s) of one pass and the surfaces the benchmark calls.
struct Target {
  std::unique_ptr<bs::KvSsd> ssd;
  std::unique_ptr<bs::cluster::KvCluster> cluster;
  bs::KvStore* timeline = nullptr;      // Client-visible clock.
  std::vector<bs::KvStore*> tenants;    // One KvStore surface per tenant.
  std::vector<bs::KvSsd*> devices;      // Shard-index order.
  const char* put_span = "core.put";
  const char* get_span = "core.get";

  void Bind() {
    if (cluster != nullptr) {
      timeline = cluster.get();
      for (std::size_t t = 0; t < cluster->num_tenants(); ++t) {
        tenants.push_back(&cluster->Tenant(t));
      }
      for (std::uint32_t s = 0; s < cluster->num_shards(); ++s) {
        devices.push_back(&cluster->shard(s));
      }
      put_span = "cluster.put";
      get_span = "cluster.get";
    } else {
      timeline = ssd.get();
      tenants.push_back(ssd.get());
      devices.push_back(ssd.get());
    }
  }
};

void Fail(PassResult* r, const std::string& what) {
  ++r->failed;
  if (r->first_failure.empty()) r->first_failure = what;
}

void ApplyTrace(bs::KvSsdOptions* o, bool on) {
  o->trace.enabled = on;
  // The rings only feed the per-command exactness check; the stage
  // histograms cover every command regardless of ring size.
  o->trace.op_capacity = 1u << 12;
  o->trace.command_capacity = 1u << 13;
  o->trace.span_capacity = 1u << 15;
}

RegistryView SnapAll(const Target& t) {
  RegistryView v;
  for (const bs::KvSsd* d : t.devices) v.AddFrom(d->metrics());
  return v;
}

std::vector<RegistryView> SnapEach(const Target& t) {
  std::vector<RegistryView> out(t.devices.size());
  for (std::size_t i = 0; i < t.devices.size(); ++i) {
    out[i].AddFrom(t.devices[i]->metrics());
  }
  return out;
}

std::uint64_t RoutedKeys(const Target& t) {
  if (t.cluster == nullptr) return 0;
  std::uint64_t sum = 0;
  for (const std::uint64_t n : t.cluster->routed_keys()) sum += n;
  return sum;
}

std::uint64_t TelemetrySamples(const Target& t) {
  if (t.cluster != nullptr) {
    const bs::StoreSnapshot snap = t.cluster->Inspect();
    std::uint64_t n = snap.fleet_samples;
    for (const bs::DeviceSnapshot& d : snap.shards) n += d.telemetry_samples;
    return n;
  }
  return t.ssd->InspectDevice().telemetry_samples;
}

// Window bookkeeping shared by every workload: counter deltas per shard and
// summed, shard op shares, routed-key and value-count reconciliation.
struct WindowProbe {
  std::vector<RegistryView> before;
  std::uint64_t routed_before = 0;
  std::uint64_t samples_before = 0;

  void Begin(const Target& t) {
    before = SnapEach(t);
    routed_before = RoutedKeys(t);
    samples_before = TelemetrySamples(t);
  }

  // Fills the registry-derived fields and checks the reconciliations;
  // `router_ops` is how many client ops went through the router.
  void End(const Target& t, std::uint64_t router_ops, PassResult* r,
           Digest* digest) {
    const std::vector<RegistryView> after = SnapEach(t);
    r->delta = RegistryView{};
    r->shard_ops.assign(t.devices.size(), 0);
    for (std::size_t s = 0; s < after.size(); ++s) {
      const RegistryView d = RegistryView::Delta(after[s], before[s]);
      for (const auto& [name, v] : d.counters) {
        r->delta.counters[name] += v;
        if (v != 0) {
          digest->Add(name);
          digest->Add(v);
        }
      }
      for (const auto& [name, v] : d.hist_sum) r->delta.hist_sum[name] += v;
      r->shard_ops[s] = d.Counter("controller.values_written") +
                        d.Counter("controller.values_read");
    }
    r->telemetry_samples = TelemetrySamples(t) - samples_before;
    const std::uint64_t written = r->delta.Counter("controller.values_written");
    if (written != r->puts) {
      Fail(r, "controller.values_written delta " + std::to_string(written) +
                  " != PUTs issued " + std::to_string(r->puts));
    }
    const std::uint64_t routed = RoutedKeys(t) - routed_before;
    if (t.cluster != nullptr && routed != router_ops) {
      Fail(r, "routed-key delta " + std::to_string(routed) +
                  " != router ops " + std::to_string(router_ops));
    }
  }
};

// Per-command exactness of the program tracer over the retained records,
// the histogram-level identity over every command in the window (stage ns
// sum to the command windows), and zero orphan spans.
void CheckTracer(const Target& t, PassResult* r) {
  for (const bs::KvSsd* d : t.devices) {
    const bs::trace::Tracer& tracer = d->tracer();
    for (const auto& cmd : tracer.commands()) {
      ++r->commands_checked;
      if (cmd.stages.TotalNs() != cmd.end_ns - cmd.start_ns) {
        ++r->exactness_violations;
      }
    }
    r->tracer_orphans += tracer.orphan_spans();
  }
  std::uint64_t stage_sum = 0;
  for (const auto& [name, v] : r->delta.hist_sum) {
    if (name.rfind("trace.stage.", 0) == 0) stage_sum += v;
  }
  if (stage_sum != r->delta.HistSum("trace.cmd.latency_ns")) {
    ++r->exactness_violations;
  }
  if (r->exactness_violations != 0) {
    Fail(r, "tracer exactness violated (" +
                std::to_string(r->exactness_violations) + ")");
  }
  if (r->tracer_orphans != 0) {
    Fail(r, "tracer orphan spans: " + std::to_string(r->tracer_orphans));
  }
}

// Adds `puts` PUTs of `size` bytes to the transfer path the driver picks.
void CountDecision(const Target& t, std::size_t size, std::uint64_t puts,
                   PassResult* r) {
  using Decision = bs::driver::KvDriver::Decision;
  switch (t.devices[0]->Hooks().driver->Decide(size)) {
    case Decision::kPiggyback: r->piggyback += puts; break;
    case Decision::kPrp: r->prp += puts; break;
    case Decision::kHybrid: r->hybrid += puts; break;
  }
}

void EndState(const Target& t, const Model& model, PassResult* r) {
  for (const bs::KvSsd* d : t.devices) {
    r->mapped_bytes += d->InspectDevice().ftl_mapped_pages * kPageBytes;
  }
  for (const auto& [key, e] : model) {
    if (e.present) r->live_user_bytes += key.size() + e.size;
  }
}

// Mean host ns of lsm::MemTable Put and Get over the window's key stream,
// replayed into a standalone memtable.
void ReplayMemTable(std::span<const Op> window, PassResult* r) {
  std::vector<std::string> keys;
  keys.reserve(window.size());
  for (const Op& op : window) keys.emplace_back(op.key);
  bs::lsm::MemTable table;
  std::int64_t start = HostNs();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.Put(keys[i], bs::lsm::ValueRef{i, 1, false});
  }
  r->memtable_put_host_ns =
      static_cast<double>(HostNs() - start) / static_cast<double>(keys.size());
  std::uint64_t found = 0;
  start = HostNs();
  for (const std::string& key : keys) found += table.Get(key) != nullptr;
  r->memtable_get_host_ns =
      static_cast<double>(HostNs() - start) / static_cast<double>(keys.size());
  if (found != keys.size()) Fail(r, "memtable replay lost keys");
}

// Mean host ns of KvCluster::ShardOf over the window's keys.
void TimeRouting(const Target& t, std::span<const std::string_view> keys,
                 PassResult* r) {
  std::uint64_t sink = 0;
  const std::int64_t start = HostNs();
  for (const std::string_view key : keys) sink += t.cluster->ShardOf(key);
  r->route_host_ns =
      static_cast<double>(HostNs() - start) / static_cast<double>(keys.size());
  if (sink == ~0ULL) std::fprintf(stderr, " ");
}

// One client, closed loop: each op is issued after the previous returns.
// When `sim_lat` / `host_ns` are given, op i's simulated latency and host
// call time land in sim_lat[i] / host_ns[i].
void Execute(const Target& t, std::span<const Op> ops,
             std::uint64_t first_client_op, Bytes* got, std::uint64_t* sim_lat,
             std::uint64_t* host_ns, PassResult* r) {
  // Only client ops with an id get per-op spans; the caller wraps id-less
  // phases (preload, warm-up) in one span each.
  SpanRecorder no_spans;
  SpanRecorder& spans = first_client_op == kNoClientOp ? no_spans : r->spans;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::uint64_t client_op = first_client_op + i;
    bs::KvStore& surface = *t.tenants[op.tenant];
    const std::uint32_t root =
        spans.Open("client_op", kNoParent, client_op, t.timeline->Now());
    if (t.cluster != nullptr && spans.enabled()) {
      const std::uint32_t route = spans.Open("cluster.route", root, client_op,
                                             t.timeline->Now());
      (void)t.cluster->ShardOf(op.key);
      spans.Close(route, t.timeline->Now());
    }
    const std::uint32_t call = spans.Open(op.is_get ? t.get_span : t.put_span,
                                          root, client_op, t.timeline->Now());
    const std::int64_t h0 = HostNs();
    const std::uint64_t s0 = t.timeline->Now();
    const bs::Status st = op.is_get ? surface.GetInto(op.key, got)
                                    : surface.Put(op.key, op.value);
    const std::uint64_t s1 = t.timeline->Now();
    const std::int64_t h1 = HostNs();
    spans.Close(call, s1);

    const Expect& e = *op.slot;
    if (!st.ok()) {
      Fail(r, std::string(op.is_get ? "GET " : "PUT ") + std::string(op.key) +
                  ": " + st.ToString());
    } else if (!op.is_get) {
      op.slot->data = op.value.data();
      op.slot->size = static_cast<std::uint32_t>(op.value.size());
      op.slot->present = true;
    } else if (!e.present || got->size() != e.size ||
               std::memcmp(got->data(), e.data, e.size) != 0) {
      Fail(r, "GET " + std::string(op.key) + " returned wrong bytes");
    } else if (sim_lat != nullptr) {
      r->get_value_bytes += got->size();
    }
    spans.Close(root, s1);
    if (sim_lat != nullptr) {
      sim_lat[i] = s1 - s0;
      host_ns[i] = static_cast<std::uint64_t>(h1 - h0);
    }
  }
}

// Reads every live model key back through the first tenant surface and
// compares bytes (or, with `length_only`, just the length).
void ReadBack(const Target& t, const Model& model, bool length_only,
              std::uint64_t first_client_op, Bytes* got, Digest* digest,
              PassResult* r, std::vector<std::uint64_t>* call_ns) {
  auto d2h = [&] {
    const RegistryView v = SnapAll(t);
    std::uint64_t sum = 0;
    for (const auto& [name, value] : v.counters) {
      if (name.rfind("pcie.", 0) == 0 && name.ends_with(".d2h_bytes")) {
        sum += value;
      }
    }
    return sum;
  };
  const std::uint64_t d2h_before = d2h();
  const std::uint64_t routed_before = RoutedKeys(t);
  const std::uint64_t sim_start = t.timeline->Now();
  std::uint64_t client_op = first_client_op;
  for (const auto& [key, e] : model) {
    if (!e.present) continue;
    const std::uint32_t root =
        r->spans.Open("client_op", kNoParent, client_op, t.timeline->Now());
    const std::uint32_t call =
        r->spans.Open(t.get_span, root, client_op, t.timeline->Now());
    const std::int64_t h0 = HostNs();
    const bs::Status st = t.tenants[0]->GetInto(key, got);
    const std::int64_t h1 = HostNs();
    r->spans.Close(call, t.timeline->Now());
    r->spans.Close(root, t.timeline->Now());
    if (call_ns != nullptr) call_ns->push_back(static_cast<std::uint64_t>(h1 - h0));
    ++client_op;
    ++r->readback_gets;
    ++r->attempted;
    if (!st.ok()) {
      Fail(r, "read-back GET " + key + ": " + st.ToString());
      continue;
    }
    r->readback_value_bytes += got->size();
    const bool same = got->size() == e.size &&
                      (length_only ||
                       std::memcmp(got->data(), e.data, e.size) == 0);
    if (!same) Fail(r, "read-back GET " + key + " returned wrong bytes");
  }
  r->readback_d2h_bytes = d2h() - d2h_before;
  if (t.cluster != nullptr &&
      RoutedKeys(t) - routed_before != r->readback_gets) {
    Fail(r, "read-back routed-key delta != read-back GETs");
  }
  digest->Add(t.timeline->Now() - sim_start);
  digest->Add(r->readback_d2h_bytes);
}

// --- Serial workloads: put_paper_m, get_zipf_large, cluster_observed. ------

class SerialWorkload : public Workload {
 public:
  std::uint64_t Generate(std::uint64_t seed) override {
    pool_.Fill(seed);
    Build(seed);
    return preload_.size() + ops_.size();
  }

  PassResult RunPass(const PassOptions& options) override {
    PassResult r;
    r.spans = SpanRecorder(options.trace, 4 * (ops_.size() + model_.size()));
    for (auto& [key, e] : model_) e = Expect{};
    Bytes got;
    got.reserve(kMaxValue);
    Digest digest;

    // Set-up: open and preload.
    const std::int64_t h0 = HostNs();
    Target t = Open(options);
    t.Bind();
    std::uint32_t phase =
        r.spans.Open("workload.preload", kNoParent, kNoClientOp, 0);
    Execute(t, preload_, kNoClientOp, &got, nullptr, nullptr, &r);
    r.spans.Close(phase, t.timeline->Now());
    if (!preload_.empty() && !t.timeline->Flush().ok()) {
      Fail(&r, "flush after preload failed");
    }
    r.setup_s = static_cast<double>(HostNs() - h0) / 1e9;

    // Warm-up, then the timed window.
    const std::span<const Op> all(ops_);
    const std::span<const Op> warmup = all.first(warmup_);
    const std::span<const Op> window = all.subspan(warmup_);
    phase = r.spans.Open("workload.warmup", kNoParent, kNoClientOp,
                         t.timeline->Now());
    Execute(t, warmup, kNoClientOp, &got, nullptr, nullptr, &r);
    r.spans.Close(phase, t.timeline->Now());
    std::vector<std::uint64_t> sim_lat(window.size());
    r.call_host_ns.assign(window.size(), 0);
    for (const Op& op : window) {
      if (op.is_get) {
        ++r.gets;
      } else {
        ++r.puts;
        r.put_value_bytes += op.value.size();
        CountDecision(t, op.value.size(), 1, &r);
      }
    }
    r.ops = window.size();
    r.attempted += r.ops;
    WindowProbe probe;
    probe.Begin(t);
    const std::uint64_t sim0 = t.timeline->Now();
    const std::uint64_t allocs0 = HeapAllocs();
    r.chunk_host_ns.reserve(window.size() / kChunkOps + 1);
    r.calibration_mops.reserve(window.size() / kChunkOps + 1);
    for (std::size_t i = 0; i < window.size(); i += kChunkOps) {
      const std::size_t n = std::min(kChunkOps, window.size() - i);
      options.PlaceSlice(i / kChunkOps);
      const std::int64_t chunk_start = HostNs();
      Execute(t, window.subspan(i, n), i, &got, &sim_lat[i],
              &r.call_host_ns[i], &r);
      r.chunk_host_ns.push_back(HostNs() - chunk_start);
      r.calibration_mops.push_back(CalibrationMops());
    }
    r.allocs = HeapAllocs() - allocs0;
    r.window_host_s = 0.0;
    for (const std::int64_t ns : r.chunk_host_ns) r.window_host_s += ns / 1e9;
    r.window_sim_ns = t.timeline->Now() - sim0;
    probe.End(t, t.cluster != nullptr ? r.ops : 0, &r, &digest);

    for (const std::uint64_t v : sim_lat) digest.Add(v);
    digest.Add(r.window_sim_ns);
    r.lat_samples = sim_lat.size();
    r.sim_lat_p50_ns = MidQuantile(sim_lat, 0.5);
    r.sim_lat_p999_ns = MidQuantile(sim_lat, 0.999);

    if (readback_) {
      ReadBack(t, model_, /*length_only=*/false, window.size(), &got, &digest,
               &r, nullptr);
    }
    EndState(t, model_, &r);
    digest.Add(t.timeline->Now());

    if (options.trace) {
      CheckTracer(t, &r);
      if (r.spans.Orphans() != 0) {
        Fail(&r, "benchmark orphan spans: " + std::to_string(r.spans.Orphans()));
      }
      ReplayMemTable(window, &r);
      if (t.cluster != nullptr) {
        std::vector<std::string_view> keys;
        keys.reserve(window.size());
        for (const Op& op : window) keys.push_back(op.key);
        TimeRouting(t, keys, &r);
      }
    }
    r.digest = digest.value();
    r.peak_rss_mb = PeakRssMb();
    return r;
  }

 protected:
  // Fills model_, preload_, ops_ and warmup_ from the seed.
  virtual void Build(std::uint64_t seed) = 0;
  virtual Target Open(const PassOptions& options) = 0;

  // Adds `key` to the model (absent until a PUT succeeds).
  Expect* Slot(const std::string& key, std::string_view* view) {
    auto it = model_.try_emplace(key).first;
    *view = it->first;
    return &it->second;
  }
  void AddPut(std::vector<Op>* out, const std::string& key, ByteSpan value,
              std::uint16_t tenant = 0) {
    Op op;
    op.slot = Slot(key, &op.key);
    op.value = value;
    op.tenant = tenant;
    out->push_back(op);
  }
  void AddGet(std::vector<Op>* out, const std::string& key,
              std::uint16_t tenant = 0) {
    Op op;
    op.slot = Slot(key, &op.key);
    op.is_get = true;
    op.tenant = tenant;
    out->push_back(op);
  }

  ValuePool pool_;
  Model model_;
  std::vector<Op> preload_;
  std::vector<Op> ops_;  // Warm-up first, then the window.
  std::size_t warmup_ = 0;
  bool readback_ = false;
};

bs::KvSsdOptions DeviceOptions(const PassOptions& options) {
  bs::KvSsdOptions o;  // BandSlim defaults: adaptive, selective backfill.
  o.retain_payloads = true;
  ApplyTrace(&o, options.trace);
  return o;
}

Target OpenDevice(const PassOptions& options) {
  Target t;
  auto opened = bs::KvSsd::Open(DeviceOptions(options));
  if (!opened.ok()) {
    std::fprintf(stderr, "KvSsd::Open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(2);
  }
  t.ssd = std::move(opened).value();
  return t;
}

Target OpenCluster(const bs::cluster::ClusterConfig& config) {
  Target t;
  auto opened = bs::cluster::KvCluster::Open(config);
  if (!opened.ok()) {
    std::fprintf(stderr, "KvCluster::Open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(2);
  }
  t.cluster = std::move(opened).value();
  return t;
}

// put_paper_m: paper Workload M PUTs into one KvSsd; the write path.
class PutPaperM : public SerialWorkload {
 protected:
  void Build(std::uint64_t seed) override {
    readback_ = true;
    warmup_ = kPutWarmup;
    bs::workload::WorkloadSpec spec =
        bs::workload::MakeWorkloadM(kPutWarmup + kPutWindow, seed);
    Xoshiro256 size_rng(spec.seed);
    Xoshiro256 value_rng(seed + 17);
    ops_.reserve(spec.ops);
    for (std::uint64_t i = 0; i < spec.ops; ++i) {
      const std::string key = spec.keys->Next();
      const std::size_t size = spec.sizes->Next(size_rng);
      AddPut(&ops_, key, pool_.Slice(value_rng, size));
    }
  }
  Target Open(const PassOptions& options) override {
    return OpenDevice(options);
  }
};

// get_zipf_large: 256 Ki preloaded keys (Workload D sizes), then 90% GET /
// 10% update with Zipfian key choice; the read path.
class GetZipfLarge : public SerialWorkload {
 protected:
  void Build(std::uint64_t seed) override {
    warmup_ = kZipfWarmup;
    // Workload D's size set. Preloaded key i gets size i mod 9, an exact
    // equal mix; the Zipfian scatter fixes which indices are hot, so the
    // hot keys' sizes (which dominate read_taf) do not change with the
    // seed. Updates draw their sizes at random.
    constexpr std::size_t kSizes[] = {8, 16, 32, 64, 128, 256, 512, 1024, 2048};
    constexpr std::size_t kNumSizes = std::size(kSizes);
    Xoshiro256 rng(seed);
    Xoshiro256 value_rng(seed + 17);
    std::vector<std::string> keys(kZipfKeys);
    preload_.reserve(kZipfKeys);
    for (std::uint64_t i = 0; i < kZipfKeys; ++i) {
      keys[i] = bs::workload::MixedKeyName(i);
      AddPut(&preload_, keys[i], pool_.Slice(value_rng, kSizes[i % kNumSizes]));
    }
    bs::workload::ZipfianKeyChooser zipf(kZipfKeys, 0.99, seed + 1);
    ops_.reserve(kZipfWarmup + kZipfWindow);
    for (std::uint64_t i = 0; i < kZipfWarmup + kZipfWindow; ++i) {
      const std::string& key = keys[zipf.NextIndex()];
      if (rng() % 10 == 0) {
        AddPut(&ops_, key, pool_.Slice(value_rng, kSizes[rng() % kNumSizes]));
      } else {
        AddGet(&ops_, key);
      }
    }
  }
  Target Open(const PassOptions& options) override {
    return OpenDevice(options);
  }
};

// cluster_observed: 4 shards, two tenants on separate queue pairs, every
// observation plane on with its canned rules; 50% GET, uniform, issued
// serially through KvCluster::Tenant(t).
class ClusterObserved : public SerialWorkload {
 public:
  bool has_planes() const override { return true; }

 protected:
  void Build(std::uint64_t seed) override {
    warmup_ = kObservedWarmup;
    Xoshiro256 rng(seed);
    Xoshiro256 value_rng(seed + 17);
    std::vector<std::string> keys[2];
    for (std::uint16_t t = 0; t < 2; ++t) {
      const std::string prefix = "t" + std::to_string(t) + ":";
      keys[t].resize(kObservedKeysPerTenant);
      for (std::uint64_t i = 0; i < kObservedKeysPerTenant; ++i) {
        keys[t][i] = prefix + bs::workload::MixedKeyName(i);
        AddPut(&preload_, keys[t][i], pool_.Slice(value_rng, kSmallValue), t);
      }
    }
    ops_.reserve(kObservedWarmup + kObservedWindow);
    for (std::uint64_t i = 0; i < kObservedWarmup + kObservedWindow; ++i) {
      const std::uint16_t t = static_cast<std::uint16_t>(rng() & 1);
      const std::string& key = keys[t][rng() % kObservedKeysPerTenant];
      if (rng() % 2 == 0) {
        AddGet(&ops_, key, t);
      } else {
        AddPut(&ops_, key, pool_.Slice(value_rng, kSmallValue), t);
      }
    }
  }

  Target Open(const PassOptions& options) override {
    namespace tel = bs::telemetry;
    bs::cluster::ClusterConfig cc;
    cc.num_shards = kObservedShards;
    cc.shard = DeviceOptions(options);
    cc.tenants.resize(2);
    cc.tenants[0].name = "t0";
    cc.tenants[0].queue_id = 0;
    cc.tenants[1].name = "t1";
    cc.tenants[1].queue_id = 1;
    if (options.planes) {
      cc.shard.telemetry.enabled = true;
      cc.shard.telemetry.rules = {
          tel::ZeroOpStallRule(10),
          tel::TafBudgetRule(/*taf_milli=*/8000, /*n=*/4),
          tel::RetryStormRule(/*retries=*/1, /*n=*/1),
          tel::FreeBlocksLowRule(/*blocks=*/16, /*n=*/4),
          tel::CompactionDebtRule(/*budget_bytes=*/2048, /*n=*/1),
          tel::L0PileupRule(/*tables=*/4, /*n=*/1),
          tel::MemtableStallRule(/*stalls=*/1, /*n=*/1),
      };
      cc.fleet.enabled = true;
      cc.fleet.rules = {
          tel::ShardImbalanceRule(/*ratio_milli=*/3000, /*n=*/3),
          tel::HotShardP99SkewRule(/*ratio_milli=*/3000, /*n=*/3),
          tel::RingSkewRule(/*skew_permille=*/500, /*n=*/3),
          tel::StragglerShardRule(/*n=*/6),
          tel::attribution::TenantBurnRateFastRule(0),
          tel::attribution::TenantBurnRateSlowRule(0),
          tel::attribution::TenantBurnRateFastRule(1),
          tel::attribution::TenantBurnRateSlowRule(1),
          tel::attribution::HotRangeRule(/*share_permille=*/300, /*n=*/2),
      };
      cc.attribution.enabled = true;
      cc.attribution.slo.resize(2);
      for (auto& slo : cc.attribution.slo) {
        slo.latency_target_ns = 200 * bs::sim::kMicrosecond;
        slo.availability_target_permille = 990;
      }
    }
    return OpenCluster(cc);
  }
};

// --- campaign_4shard: sim_speed's cluster_mixed_4shard definition run by
// the shard-interleaving campaign executor, planes off. --------------------

class Campaign4Shard : public Workload {
 public:
  std::uint64_t Generate(std::uint64_t seed) override {
    spec_.name = "campaign_4shard";
    spec_.ops = kCampaignWindow;
    spec_.num_keys = kCampaignKeys;
    spec_.value_size = kSmallValue;
    spec_.get_permille = 500;
    spec_.seed = seed;
    warmup_ = spec_;
    warmup_.ops = kCampaignWarmup;
    warmup_.seed = seed + 0x5A5A;
    // The window is kCampaignChunks executor calls, each its own draw.
    for (std::uint64_t c = 0; c < kCampaignChunks; ++c) {
      chunks_.push_back(spec_);
      chunks_.back().ops = kCampaignWindow / kCampaignChunks;
      chunks_.back().seed = seed * 1000 + c;
    }
    // The executor picks the bytes; the model keeps the expected length.
    for (std::uint64_t i = 0; i < kCampaignKeys; ++i) {
      Expect& e = model_[bs::workload::MixedKeyName(i)];
      e.size = kSmallValue;
      e.present = true;
    }
    return kCampaignKeys + kCampaignWarmup + kCampaignWindow;
  }

  PassResult RunPass(const PassOptions& options) override {
    PassResult r;
    r.spans = SpanRecorder(options.trace, 4 * model_.size() + 16);
    Digest digest;
    Bytes got;
    got.reserve(kMaxValue);

    const std::int64_t h0 = HostNs();
    bs::cluster::ClusterConfig cc;
    cc.num_shards = kCampaignShards;
    cc.shard = DeviceOptions(options);
    Target t = OpenCluster(cc);
    t.Bind();
    std::uint32_t phase =
        r.spans.Open("workload.preload", kNoParent, kNoClientOp, 0);
    if (!bs::workload::PreloadMixedKeys(*t.cluster, spec_).ok()) {
      Fail(&r, "campaign preload failed");
    }
    r.spans.Close(phase, t.timeline->Now());
    r.setup_s = static_cast<double>(HostNs() - h0) / 1e9;

    phase = r.spans.Open("workload.warmup", kNoParent, kNoClientOp,
                         t.timeline->Now());
    const bs::workload::RunResult warm =
        bs::workload::RunClusterMixedWorkload(*t.cluster, warmup_, "warmup");
    r.spans.Close(phase, t.timeline->Now());
    if (warm.workload.find("FAILED") != std::string::npos) {
      Fail(&r, "campaign warm-up: " + warm.workload);
    }

    WindowProbe probe;
    probe.Begin(t);
    const std::uint32_t span = r.spans.Open("workload.campaign_window",
                                            kNoParent, kNoClientOp,
                                            t.timeline->Now());
    const std::uint64_t allocs0 = HeapAllocs();
    bs::workload::RunResult run;
    r.chunk_host_ns.reserve(chunks_.size());
    r.calibration_mops.reserve(chunks_.size());
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      const bs::workload::MixedWorkloadSpec& chunk = chunks_[c];
      options.PlaceSlice(c);
      const std::int64_t c0 = HostNs();
      const bs::workload::RunResult part =
          bs::workload::RunClusterMixedWorkload(*t.cluster, chunk, "window");
      r.chunk_host_ns.push_back(HostNs() - c0);
      r.calibration_mops.push_back(CalibrationMops());
      run.ops += part.ops;
      run.elapsed_ns += part.elapsed_ns;
      run.requested_value_bytes += part.requested_value_bytes;
      run.latency_ns.Merge(part.latency_ns);
      if (part.workload.find("FAILED") != std::string::npos) {
        run.workload += part.workload;
      }
    }
    r.allocs = HeapAllocs() - allocs0;
    r.spans.Close(span, t.timeline->Now());
    r.window_host_s = 0.0;
    for (const std::int64_t ns : r.chunk_host_ns) r.window_host_s += ns / 1e9;
    r.window_sim_ns = run.elapsed_ns;
    r.ops = run.ops;
    r.attempted += r.ops;
    if (run.workload.find("FAILED") != std::string::npos) {
      Fail(&r, "campaign window: " + run.workload);
    }
    r.puts = run.requested_value_bytes / kSmallValue;
    r.gets = r.ops - r.puts;
    r.put_value_bytes = run.requested_value_bytes;
    r.get_value_bytes = r.gets * kSmallValue;
    CountDecision(t, kSmallValue, r.puts, &r);
    // The executor bypasses the router: zero routed keys in the window.
    probe.End(t, /*router_ops=*/0, &r, &digest);
    const std::uint64_t reads = r.delta.Counter("controller.values_read");
    if (reads != r.gets) {
      Fail(&r, "controller.values_read delta " + std::to_string(reads) +
                   " != GETs issued " + std::to_string(r.gets));
    }
    if (run.latency_ns.count() != r.ops) Fail(&r, "executor lost latencies");
    r.lat_samples = run.latency_ns.count();
    // The executor keeps only its log2-bucket histogram; these are that
    // histogram's interpolated percentiles.
    r.sim_lat_p50_ns = run.latency_ns.Percentile(50.0);
    r.sim_lat_p999_ns = run.latency_ns.Percentile(99.9);
    for (const std::uint64_t b : run.latency_ns.bucket_counts()) digest.Add(b);
    digest.Add(run.latency_ns.sum());
    digest.Add(r.window_sim_ns);

    ReadBack(t, model_, /*length_only=*/true, 0, &got, &digest, &r,
             &r.call_host_ns);
    EndState(t, model_, &r);
    digest.Add(t.timeline->Now());

    if (options.trace) {
      CheckTracer(t, &r);
      if (r.spans.Orphans() != 0) {
        Fail(&r, "benchmark orphan spans: " + std::to_string(r.spans.Orphans()));
      }
      std::vector<std::string> names;
      std::vector<Op> stream;
      for (const auto& [key, e] : model_) names.push_back(key);
      for (const std::string& key : names) {
        Op op;
        op.key = key;
        stream.push_back(op);
      }
      ReplayMemTable(stream, &r);
      std::vector<std::string_view> views(names.begin(), names.end());
      TimeRouting(t, views, &r);
    }
    r.digest = digest.value();
    r.peak_rss_mb = PeakRssMb();
    return r;
  }

 private:
  bs::workload::MixedWorkloadSpec spec_;
  bs::workload::MixedWorkloadSpec warmup_;
  std::vector<bs::workload::MixedWorkloadSpec> chunks_;
  Model model_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "put_paper_m", "get_zipf_large", "cluster_observed", "campaign_4shard"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "put_paper_m") return std::make_unique<PutPaperM>();
  if (name == "get_zipf_large") return std::make_unique<GetZipfLarge>();
  if (name == "cluster_observed") return std::make_unique<ClusterObserved>();
  if (name == "campaign_4shard") return std::make_unique<Campaign4Shard>();
  return nullptr;
}

}  // namespace perfbench
