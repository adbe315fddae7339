#include "telemetry/series_slots.h"

#include <map>
#include <utility>

namespace bandslim::telemetry {

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() > suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Groups the objects of every registry by name, in name order: the order a
// sampling walk over the summed registries visits them. Each key views the
// name string of the first registry holding it, stable for its lifetime.
template <typename T, typename Visit>
std::map<std::string_view, std::vector<const T*>> GroupByName(
    const std::vector<const stats::MetricsRegistry*>& registries,
    Visit visit) {
  std::map<std::string_view, std::vector<const T*>> by_name;
  for (const stats::MetricsRegistry* r : registries) {
    if (r == nullptr) continue;
    visit(*r, [&](const std::string& name, const T& object) {
      by_name[name].push_back(&object);
    });
  }
  return by_name;
}

bool SizesChanged(const std::vector<const stats::MetricsRegistry*>& registries,
                  const std::vector<std::size_t>& resolved, bool counters) {
  if (resolved.size() != registries.size()) return true;
  for (std::size_t i = 0; i < registries.size(); ++i) {
    const stats::MetricsRegistry* r = registries[i];
    const std::size_t n = r == nullptr ? 0
                          : counters   ? r->counter_count()
                                       : r->histogram_count();
    if (n != resolved[i]) return true;
  }
  return false;
}

std::vector<std::size_t> Sizes(
    const std::vector<const stats::MetricsRegistry*>& registries,
    bool counters) {
  std::vector<std::size_t> sizes;
  sizes.reserve(registries.size());
  for (const stats::MetricsRegistry* r : registries) {
    sizes.push_back(r == nullptr ? 0
                                 : (counters ? r->counter_count()
                                             : r->histogram_count()));
  }
  return sizes;
}

}  // namespace

std::string PercentileBase(std::string_view hist_name) {
  static constexpr std::string_view kLatencySuffix = ".latency_ns";
  static constexpr std::string_view kNsSuffix = "_ns";
  if (EndsWith(hist_name, kLatencySuffix)) {
    hist_name.remove_suffix(kLatencySuffix.size());
  } else if (EndsWith(hist_name, kNsSuffix)) {
    hist_name.remove_suffix(kNsSuffix.size());
  }
  return std::string(hist_name);
}

// --- SeriesSlots -------------------------------------------------------------

std::uint32_t SeriesSlots::Resolve(std::string_view name) {
  const std::uint32_t id = table_.Intern(name);
  if (cells_.size() <= id) cells_.resize(id + 1);
  return id;
}

void SeriesSlots::Finish(Sample* s) {
  s->values.reserve(last_size_);
  for (std::size_t id = 0; id < cells_.size(); ++id) {
    if (cells_[id].epoch == epoch_) {
      s->Set(static_cast<std::uint32_t>(id), cells_[id].cur);
    }
  }
  last_size_ = s->values.size();
}

// --- CounterSlots ------------------------------------------------------------

void CounterSlots::Bind(std::vector<const stats::MetricsRegistry*> registries) {
  registries_ = std::move(registries);
  resolved_sizes_.clear();  // Forces the next Refresh.
}

bool CounterSlots::Refresh(SeriesSlots* slots) {
  if (!SizesChanged(registries_, resolved_sizes_, /*counters=*/true)) {
    return false;
  }
  const auto by_name = GroupByName<stats::Counter>(
      registries_, [](const stats::MetricsRegistry& r, auto fn) {
        r.ForEachCounter(fn);
      });
  slots_.clear();
  counters_.clear();
  for (const auto& [name, counters] : by_name) {
    Slot slot;
    slot.name = name;
    slot.id = slots->Resolve(name);
    slot.first = static_cast<std::uint32_t>(counters_.size());
    slot.count = static_cast<std::uint32_t>(counters.size());
    counters_.insert(counters_.end(), counters.begin(), counters.end());
    slots_.push_back(slot);
  }
  resolved_sizes_ = Sizes(registries_, /*counters=*/true);
  return true;
}

void CounterSlots::Sample(SeriesSlots* slots) {
  for (Slot& slot : slots_) {
    std::uint64_t sum = 0;
    for (std::uint32_t k = 0; k < slot.count; ++k) {
      sum += counters_[slot.first + k]->value();
    }
    slot.value = sum;
    slot.delta = slots->Cumulative(slot.id, sum);
  }
}

std::int64_t CounterSlots::IndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].name == name) return static_cast<std::int64_t>(i);
  }
  return -1;
}

// --- HistogramSlots ----------------------------------------------------------

void HistogramSlots::Bind(
    std::vector<const stats::MetricsRegistry*> registries) {
  registries_ = std::move(registries);
  resolved_sizes_.clear();
}

void HistogramSlots::Refresh() {
  const auto by_name = GroupByName<stats::Histogram>(
      registries_, [](const stats::MetricsRegistry& r, auto fn) {
        r.ForEachHistogram(fn);
      });
  // Carry each histogram's ids and previous buckets over by name; both
  // lists are in name order.
  std::vector<Slot> old = std::move(slots_);
  std::size_t o = 0;
  slots_.clear();
  hists_.clear();
  for (const auto& [name, hists] : by_name) {
    Slot slot;
    while (o < old.size() && old[o].name < name) ++o;
    if (o < old.size() && old[o].name == name) slot = old[o];
    slot.name = name;
    slot.first = static_cast<std::uint32_t>(hists_.size());
    slot.count = static_cast<std::uint32_t>(hists.size());
    hists_.insert(hists_.end(), hists.begin(), hists.end());
    slots_.push_back(slot);
  }
  resolved_sizes_ = Sizes(registries_, /*counters=*/false);
}

void HistogramSlots::Resolve(Slot* slot, SeriesSlots* slots) {
  const std::string base = PercentileBase(slot->name);
  static constexpr const char* kIntervalSuffixes[] = {".p50", ".p95", ".p99"};
  std::size_t k = 0;
  slot->ids[k++] = slots->Resolve("hist." + base + ".count");
  slot->ids[k++] = slots->Resolve("delta." + base + ".count");
  slot->ids[k++] = slots->Resolve("delta." + base + ".sum");
  for (const char* suffix : kIntervalSuffixes) {
    slot->ids[k++] = slots->Resolve(base + suffix);
  }
  if (lifetime_) {
    for (const char* suffix : kIntervalSuffixes) {
      slot->ids[k++] = slots->Resolve("lifetime." + base + suffix);
    }
  }
  slot->resolved = true;
}

bool HistogramSlots::Sample(SeriesSlots* slots) {
  const bool refreshed =
      SizesChanged(registries_, resolved_sizes_, /*counters=*/false);
  if (refreshed) Refresh();
  constexpr std::size_t kBuckets = stats::Histogram::kNumBuckets;
  for (Slot& slot : slots_) {
    slot.p99 = 0;
    std::uint64_t count = 0;
    for (std::uint32_t k = 0; k < slot.count; ++k) {
      count += hists_[slot.first + k]->count();
    }
    // Only histograms that hold a value emit (the tracer registers its full
    // taxonomy up front; exports stay compact when tracing is off).
    if (count == 0) continue;
    if (!slot.resolved) Resolve(&slot, slots);

    const stats::Histogram* h0 = hists_[slot.first];
    merged_.buckets = h0->bucket_counts();
    merged_.count = h0->count();
    merged_.sum = h0->sum();
    for (std::uint32_t k = 1; k < slot.count; ++k) {
      const stats::Histogram* h = hists_[slot.first + k];
      for (std::size_t b = 0; b < kBuckets; ++b) {
        merged_.buckets[b] += h->bucket_counts()[b];
      }
      merged_.count += h->count();
      merged_.sum += h->sum();
    }
    for (std::size_t b = 0; b < kBuckets; ++b) {
      delta_[b] = merged_.buckets[b] - slot.last.buckets[b];
    }
    const std::uint64_t d_count = merged_.count - slot.last.count;
    std::size_t k = 0;
    slots->Set(slot.ids[k++], merged_.count);
    slots->Set(slot.ids[k++], d_count);
    slots->Set(slot.ids[k++], merged_.sum - slot.last.sum);
    slots->Set(slot.ids[k++],
               stats::Histogram::QuantileFromBuckets(delta_, d_count, 500));
    slots->Set(slot.ids[k++],
               stats::Histogram::QuantileFromBuckets(delta_, d_count, 950));
    slot.p99 = stats::Histogram::QuantileFromBuckets(delta_, d_count, 990);
    slots->Set(slot.ids[k++], slot.p99);
    if (lifetime_) {
      for (const std::uint32_t permille : {500u, 950u, 990u}) {
        slots->Set(slot.ids[k++],
                   stats::Histogram::QuantileFromBuckets(
                       merged_.buckets, merged_.count, permille));
      }
    }
    slot.last = merged_;
  }
  return refreshed;
}

std::int64_t HistogramSlots::IndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].name == name) return static_cast<std::int64_t>(i);
  }
  return -1;
}

}  // namespace bandslim::telemetry
