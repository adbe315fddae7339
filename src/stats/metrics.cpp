#include "stats/metrics.h"

#include <cassert>
#include <sstream>

namespace bandslim::stats {

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return &counters_[name];
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return &histograms_[name];
}

Result<Counter*> MetricsRegistry::TryRegisterCounter(const std::string& name) {
  auto [it, inserted] = counters_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists("counter '" + name +
                                 "' is already registered");
  }
  return &it->second;
}

Result<Histogram*> MetricsRegistry::TryRegisterHistogram(
    const std::string& name) {
  auto [it, inserted] = histograms_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists("histogram '" + name +
                                 "' is already registered");
  }
  return &it->second;
}

Counter* MetricsRegistry::RegisterCounter(const std::string& name) {
  auto result = TryRegisterCounter(name);
  assert(result.ok() && "duplicate counter registration");
  return result.ok() ? result.value() : GetCounter(name);
}

Histogram* MetricsRegistry::RegisterHistogram(const std::string& name) {
  auto result = TryRegisterHistogram(name);
  assert(result.ok() && "duplicate histogram registration");
  return result.ok() ? result.value() : GetHistogram(name);
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::map<std::string, std::uint64_t> MetricsRegistry::SnapshotCounters() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c.value());
  return out;
}

void MetricsRegistry::SnapshotCountersInto(
    std::map<std::string, std::uint64_t>* out) const {
  // Both maps iterate in name order, so one lockstep sweep updates matching
  // nodes in place; inserts (a counter created since the previous call) and
  // erases (only possible with a different registry) stay off the steady
  // state path.
  auto it = out->begin();
  for (const auto& [name, c] : counters_) {
    while (it != out->end() && it->first < name) it = out->erase(it);
    if (it != out->end() && it->first == name) {
      it->second = c.value();
      ++it;
    } else {
      it = out->emplace_hint(it, name, c.value());
      ++it;
    }
  }
  out->erase(it, out->end());
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::SnapshotHistograms()
    const {
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) {
    out.emplace(name,
                HistogramSnapshot{h.count(), h.sum(), h.min(), h.max(),
                                  h.Mean(), h.Percentile(50.0),
                                  h.Percentile(99.0), h.QuantilePermille(500),
                                  h.QuantilePermille(950),
                                  h.QuantilePermille(990)});
  }
  return out;
}

std::map<std::string, HistogramBuckets>
MetricsRegistry::SnapshotHistogramBuckets() const {
  std::map<std::string, HistogramBuckets> out;
  for (const auto& [name, h] : histograms_) {
    out.emplace(name, HistogramBuckets{h.bucket_counts(), h.count(), h.sum()});
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  for (auto& [name, c] : counters_) c.Reset();
  for (auto& [name, h] : histograms_) h.Reset();
}

std::string MetricsRegistry::ToString() const {
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << " = " << c.value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << name << " : " << h.ToString() << "\n";
  }
  return os.str();
}

}  // namespace bandslim::stats
