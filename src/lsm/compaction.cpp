#include "lsm/compaction.h"

namespace bandslim::lsm {

MergeCursor::MergeCursor(std::vector<MergeRun> runs, bool drop_tombstones)
    : runs_(std::move(runs)), drop_tombstones_(drop_tombstones) {
  sources_.reserve(runs_.size());
  for (const MergeRun& run : runs_) {
    Source s{run.data(), run.data() + run.size(), nullptr, nullptr, {}};
    if (Enter(s)) sources_.push_back(s);
  }
  Settle();
}

bool MergeCursor::Enter(Source& s) {
  for (; s.segment != s.last; ++s.segment) {
    if (!s.segment->empty()) {
      s.pos = s.segment->data();
      s.end = s.pos + s.segment->size();
      s.head = s.pos->order();
      return true;
    }
  }
  return false;
}

void MergeCursor::Advance(std::size_t i) {
  Source& s = sources_[i];
  if (++s.pos != s.end) {
    s.head = s.pos->order();
    return;
  }
  ++s.segment;
  if (!Enter(s)) sources_.erase(sources_.begin() + static_cast<std::ptrdiff_t>(i));
}

void MergeCursor::Settle() {
  current_ = nullptr;
  while (!sources_.empty()) {
    // The smallest head; on equal keys the first, i.e. newest, run.
    std::size_t top = 0;
    for (std::size_t i = 1; i < sources_.size(); ++i) {
      if (sources_[i].head < sources_[top].head) top = i;
    }
    const Source& s = sources_[top];
    if (have_last_ && s.head == last_) {
      Advance(top);  // An older version of the key just settled on.
      continue;
    }
    last_ = s.head;
    have_last_ = true;
    if (drop_tombstones_ && s.pos->ref.tombstone) {
      Advance(top);
      continue;
    }
    top_ = top;
    current_ = s.pos;
    return;
  }
}

void MergeCursor::Next() {
  Advance(top_);
  Settle();
}

}  // namespace bandslim::lsm
