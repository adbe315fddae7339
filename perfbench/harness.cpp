#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::uint64_t QuantileU64(std::vector<std::uint64_t> values, double q) {
  if (values.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MidQuantile(std::vector<std::uint64_t> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  double prev_x = 0.0;
  double prev_mid = 0.0;
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    const double x = static_cast<double>(values[i]);
    const double mid =
        (static_cast<double>(i) + 0.5 * static_cast<double>(j - i)) / n;
    if (mid >= p) {
      if (i == 0) return x;
      return prev_x + (p - prev_mid) / (mid - prev_mid) * (x - prev_x);
    }
    prev_x = x;
    prev_mid = mid;
    i = j;
  }
  // Past the top value's mid-rank: spread that value over its resolution
  // cell, half of 1/128 of its octave, reached at p = 1.
  const std::uint64_t top = values.back();
  const double half_cell =
      top < 256 ? 0.5 : std::ldexp(1.0, std::bit_width(top) - 9);
  return prev_x + (p - prev_mid) / (1.0 - prev_mid) * half_cell;
}

void Digest::Add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<std::uint8_t>(c);
    h_ *= 1099511628211ULL;
  }
  Add(s.size());
}

void RegistryView::AddFrom(const bandslim::stats::MetricsRegistry& registry) {
  for (const auto& [name, value] : registry.SnapshotCounters()) {
    counters[name] += value;
  }
  for (const auto& [name, h] : registry.SnapshotHistograms()) {
    hist_sum[name] += h.sum;
  }
}

std::uint64_t RegistryView::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t RegistryView::HistSum(const std::string& name) const {
  const auto it = hist_sum.find(name);
  return it == hist_sum.end() ? 0 : it->second;
}

RegistryView RegistryView::Delta(const RegistryView& after,
                                 const RegistryView& before) {
  auto diff = [](const std::map<std::string, std::uint64_t>& a,
                 const std::map<std::string, std::uint64_t>& b) {
    std::map<std::string, std::uint64_t> d;
    for (const auto& [name, value] : a) {
      const auto it = b.find(name);
      d[name] = value - (it == b.end() ? 0 : it->second);
    }
    return d;
  };
  RegistryView d;
  d.counters = diff(after.counters, before.counters);
  d.hist_sum = diff(after.hist_sum, before.hist_sum);
  return d;
}

SpanRecorder::SpanRecorder(bool enabled, std::size_t reserve)
    : enabled_(enabled), origin_ns_(HostNs()) {
  if (enabled_) spans_.reserve(reserve);
}

std::uint32_t SpanRecorder::Open(const char* name, std::uint32_t parent,
                                 std::uint64_t client_op,
                                 std::uint64_t sim_now) {
  if (!enabled_) return kNoParent;
  Span s;
  s.name = name;
  s.parent = parent;
  s.client_op = client_op;
  s.sim_start_ns = sim_now;
  s.host_start_ns = HostNs() - origin_ns_;
  s.host_end_ns = -1;  // Open.
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanRecorder::Close(std::uint32_t id, std::uint64_t sim_now) {
  if (!enabled_) return;
  Span& s = spans_[id];
  s.host_end_ns = HostNs() - origin_ns_;
  s.sim_end_ns = sim_now;
}

std::uint64_t SpanRecorder::Orphans() const {
  std::uint64_t orphans = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.host_end_ns < 0) {
      ++orphans;
      continue;
    }
    if (s.parent == kNoParent) continue;
    if (s.parent >= i) {
      ++orphans;
      continue;
    }
    const Span& p = spans_[s.parent];
    if (p.host_end_ns < 0 || s.host_start_ns < p.host_start_ns ||
        s.host_end_ns > p.host_end_ns || s.client_op != p.client_op) {
      ++orphans;
    }
  }
  return orphans;
}

std::vector<std::int64_t> SpanRecorder::ChildNs() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += s.host_end_ns - s.host_start_ns;
    }
  }
  return child_ns;
}

std::map<std::string, SelfTime> SpanRecorder::SelfTimes() const {
  const std::vector<std::int64_t> child_ns = ChildNs();
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTime& t = out[s.name];
    const std::int64_t duration = s.host_end_ns - s.host_start_ns;
    t.count += 1;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return out;
}

std::string SpanRecorder::ToChromeJson(std::uint64_t max_client_ops) const {
  const std::vector<std::int64_t> child_ns = ChildNs();
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.client_op != kNoClientOp && s.client_op >= max_client_ops) continue;
    const std::int64_t duration = s.host_end_ns - s.host_start_ns;
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
        "\"client_op\":%lld,\"self_ns\":%lld,\"sim_start_ns\":%" PRIu64
        ",\"sim_end_ns\":%" PRIu64 "}}",
        first ? "" : ",", s.name, static_cast<double>(s.host_start_ns) / 1e3,
        static_cast<double>(duration) / 1e3, i,
        s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
        s.client_op == kNoClientOp ? -1LL
                                   : static_cast<long long>(s.client_op),
        static_cast<long long>(duration - child_ns[i]), s.sim_start_ns,
        s.sim_end_ns);
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

namespace {

// Probe results land here, so the compiler cannot drop the loops.
volatile std::uint64_t probe_sink = 0;

// PRNG plus a dependent walk over a 16 KiB table: core speed.
double WalkMops() {
  constexpr std::uint64_t kIters = 20'000;
  constexpr std::uint32_t kMask = (1u << 12) - 1;  // 16 KiB table: in L1.
  static std::uint32_t table[kMask + 1];
  static std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint32_t idx = 0;
  for (const std::uint32_t v : table) idx ^= v;  // Bring the table in.
  const std::int64_t start = HostNs();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    idx = (table[idx & kMask] ^ static_cast<std::uint32_t>(x)) & kMask;
    table[idx] += static_cast<std::uint32_t>(i);
  }
  const std::int64_t elapsed = HostNs() - start;
  probe_sink = idx;
  return static_cast<double>(kIters) / (static_cast<double>(elapsed) / 1e3);
}

// Random binary searches in the sorted `keys`, after one pass over them
// that brings the whole array into the cache level it fits in.
double SearchMops(const std::vector<std::uint64_t>& keys, int lookups) {
  static std::uint64_t x = 0x2545F4914F6CDD1DULL;
  std::uint64_t found = 0;
  for (const std::uint64_t k : keys) found ^= k;  // Bring the array in.
  const std::int64_t start = HostNs();
  for (int i = 0; i < lookups; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // The next key depends on the last result: one search at a time.
    const std::uint64_t key = (x ^ found) % keys.back();
    found += static_cast<std::uint64_t>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
  }
  const std::int64_t elapsed = HostNs() - start;
  probe_sink = found;
  return static_cast<double>(lookups) / (static_cast<double>(elapsed) / 1e3);
}

// 1 MiB of evenly spaced sorted keys: fits in L2, not in L1.
std::vector<std::uint64_t> SearchKeys() {
  std::vector<std::uint64_t> keys(1 << 17);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 64 * i;
  return keys;
}

}  // namespace

double CalibrationMops() {
  static const std::vector<std::uint64_t> keys = SearchKeys();
  return std::sqrt(WalkMops() * SearchMops(keys, 2000));
}

CpuRotation::CpuRotation(bool keep_pinned) : keep_pinned_(keep_pinned) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotation::Place(std::size_t step) const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[step % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
  if (keep_pinned_) return;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  std::printf("  %-40s %16s  %-10s %10s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g  %-10s %10" PRIu64 "\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
