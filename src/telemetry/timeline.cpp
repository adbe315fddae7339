#include "telemetry/timeline.h"

#include <map>
#include <sstream>
#include <utility>

namespace bandslim::telemetry {

namespace {

// "a.b-c" -> "a_b_c": Prometheus metric names admit [a-zA-Z0-9_:] only.
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

}  // namespace

Timeline::Timeline(const sim::VirtualClock* clock,
                   const TelemetryConfig& config, const char* samples_counter,
                   const char* samples_help)
    : clock_(clock),
      config_(config),
      samples_counter_(samples_counter),
      samples_help_(samples_help),
      event_log_(clock, kEventCapacity),
      watchdog_(config.rules) {}

void Timeline::Anchor() {
  if (anchored_) return;
  anchored_ = true;
  anchor_ns_ = clock_->Now();
  last_sample_ns_ = anchor_ns_;
  if (config_.enabled) {
    next_boundary_ns_ = anchor_ns_ + config_.sample_interval_ns;
  }
}

void Timeline::Cross() {
  // Stamp at the last boundary the clock has passed; everything since the
  // previous sample is attributed to the single interval ending there.
  const sim::Nanoseconds interval = config_.sample_interval_ns;
  const sim::Nanoseconds stamp =
      anchor_ns_ + (clock_->Now() - anchor_ns_) / interval * interval;
  TakeSample(stamp);
  next_boundary_ns_ = stamp + interval;
}

void Timeline::Finalize() {
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
    const sim::Nanoseconds interval = config_.sample_interval_ns;
    next_boundary_ns_ =
        anchor_ns_ + ((now - anchor_ns_) / interval + 1) * interval;
  }
}

std::uint64_t Timeline::Latest(const std::string& name) const {
  if (samples_.empty()) return 0;
  const std::int64_t id = slots_.table().Find(name);
  if (id < 0) return 0;
  return samples_.back().Value(static_cast<std::uint32_t>(id));
}

void Timeline::TakeSample(sim::Nanoseconds stamp) {
  Sample s;
  s.t_ns = stamp;
  s.interval_ns = stamp - last_sample_ns_;
  s.seq = next_seq_++;
  slots_.Begin();
  Fill(s.interval_ns);
  slots_.Finish(&s);

  // Events emitted from here on (watchdog alerts) belong *after* this
  // sample in the timeline; the exporters use this to break timestamp ties.
  s.events_before = event_log_.total_emitted();

  last_sample_ns_ = stamp;
  if (samples_.size() == kSampleCapacity) {
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
  if (samples_.back().seq % kPublishEvery == 0) PublishSnapshot();
}

void Timeline::PublishSnapshot() {
  if (sink_ == nullptr || samples_.empty() ||
      samples_.back().seq == last_published_seq_) {
    return;
  }
  auto snap = std::make_shared<PublishedSnapshot>();
  snap->sample_seq = samples_.back().seq;
  snap->t_ns = samples_.back().t_ns;
  snap->metrics_text = ToPrometheusText();
  snap->timeline_jsonl = ToJsonl();
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
  AddToSnapshot(snap.get(), &health);
  health += "}\n";
  snap->healthz_json = std::move(health);
  last_published_seq_ = snap->sample_seq;
  sink_->Publish(std::move(snap));
}

std::string Timeline::ToPrometheusText() const {
  std::ostringstream os;
  os << "# HELP " << samples_counter_ << " " << samples_help_ << "\n";
  os << "# TYPE " << samples_counter_ << " counter\n";
  os << samples_counter_ << " " << next_seq_ << "\n";
  const std::uint64_t ts_ms =
      samples_.empty() ? 0 : samples_.back().t_ns / sim::kMillisecond;
  if (!samples_.empty()) {
    const Sample& last = samples_.back();
    // Stable order: sort the latest sample's series by name.
    std::map<std::string, std::uint64_t> by_name;
    for (const auto& [id, value] : last.values) {
      by_name.emplace(SanitizeMetricName(series().NameOf(id)), value);
    }
    for (const auto& [name, value] : by_name) {
      os << "# TYPE bandslim_" << name << " gauge\n";
      os << "bandslim_" << name << " " << value << " " << ts_ms << "\n";
    }
  }
  const auto& rules = watchdog_.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i == 0) {
      os << "# HELP bandslim_watchdog_alerts_total Edge-triggered watchdog "
            "rule fires.\n";
      os << "# TYPE bandslim_watchdog_alerts_total counter\n";
    }
    os << "bandslim_watchdog_alerts_total{rule=\""
       << SanitizeMetricName(rules[i].name) << "\"} "
       << watchdog_.states()[i].fired << "\n";
  }
  std::string out = os.str();
  if (!samples_.empty()) AppendPrometheus(&out, ts_ms);
  return out;
}

std::string Timeline::ToJsonl() const {
  std::ostringstream os;
  const auto& events = event_log_.records();
  const auto& rules = watchdog_.rules();

  const auto emit_event = [&](const EventRecord& e) {
    os << "{\"kind\":\"event\",\"t_ns\":" << e.t_ns << ",\"seq\":" << e.seq
       << ",\"type\":\"" << EventTypeName(e.type) << "\"";
    if (e.type == EventType::kAlert && e.a < rules.size()) {
      os << ",\"rule\":\"" << rules[static_cast<std::size_t>(e.a)].name
         << "\"";
    }
    os << ",\"a\":" << e.a << ",\"b\":" << e.b
       << ",\"tenant\":" << e.tenant << "}\n";
  };
  const auto emit_sample = [&](const Sample& s) {
    os << "{\"kind\":\"sample\",\"t_ns\":" << s.t_ns << ",\"seq\":" << s.seq
       << ",\"interval_ns\":" << s.interval_ns << ",\"values\":{";
    bool first = true;
    for (const auto& [id, value] : s.values) {
      if (!first) os << ",";
      first = false;
      os << "\"" << series().NameOf(id) << "\":" << value;
    }
    os << "}}\n";
  };

  // Merge by timestamp. An event at t belongs to the interval that a sample
  // stamped >= t closes, so events sort before an equal-stamped sample —
  // except events the sample itself emitted (watchdog alerts, recognized by
  // seq >= events_before), which sort after it.
  std::size_t si = 0, ei = 0;
  while (si < samples_.size() || ei < events.size()) {
    const bool take_event =
        ei < events.size() &&
        (si >= samples_.size() || events[ei].t_ns < samples_[si].t_ns ||
         (events[ei].t_ns == samples_[si].t_ns &&
          events[ei].seq < samples_[si].events_before));
    if (take_event) {
      emit_event(events[ei++]);
    } else {
      emit_sample(samples_[si++]);
    }
  }
  return os.str();
}

std::string ToTimeSeriesCsv(const Timeline& timeline,
                            const std::vector<std::string>& series_names) {
  std::ostringstream os;
  os << "t_ns,interval_ns";
  std::vector<std::int64_t> ids;
  ids.reserve(series_names.size());
  for (const std::string& name : series_names) {
    os << "," << name;
    ids.push_back(timeline.series().Find(name));
  }
  os << "\n";
  for (const Sample& s : timeline.samples()) {
    os << s.t_ns << "," << s.interval_ns;
    for (std::int64_t id : ids) {
      os << "," << (id < 0 ? 0 : s.Value(static_cast<std::uint32_t>(id)));
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace bandslim::telemetry
