// Merge machinery for LSM compaction and iteration: a k-way merge cursor
// over sorted runs of packed entries, read in place. Runs are given newest
// first; on equal keys the newest run's entry wins and older versions are
// skipped. Tombstones are elided only when asked — when merging into the
// bottom-most populated level (no older data can be resurrected) or for an
// iterator's snapshot. Thanks to key-value separation only references
// move; values stay put in the vLog (Section 2.1).
//
// A run may be chained from several segments whose key ranges ascend and
// are disjoint — one level's overlapping tables in order — so a level is
// merged as one run without concatenating its tables. A merge has a
// handful of runs (the L0 tables plus one level), so the cursor scans their
// cached heads for the smallest rather than keeping a heap.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "lsm/packed_entry.h"

namespace bandslim::lsm {

// One sorted run with unique keys: its segments, in key order.
using MergeRun = std::vector<std::span<const PackedEntry>>;

class MergeCursor {
 public:
  // `runs` are ordered newest first. The spans must outlive the cursor.
  MergeCursor(std::vector<MergeRun> runs, bool drop_tombstones);

  bool Valid() const { return current_ != nullptr; }
  // The newest version of the smallest key not yet visited.
  const PackedEntry& entry() const { return *current_; }
  void Next();

 private:
  // A run not yet exhausted, positioned at its next entry.
  struct Source {
    const std::span<const PackedEntry>* segment;  // Current segment.
    const std::span<const PackedEntry>* last;     // One past the last.
    const PackedEntry* pos;
    const PackedEntry* end;
    KeyOrder head;  // pos->order(), cached for the scan.
  };

  // Positions `s` at the first entry of its current segment or, past empty
  // ones, of the next non-empty segment; false when the run is exhausted.
  static bool Enter(Source& s);
  // Moves source `i` past its head entry, dropping it once exhausted.
  void Advance(std::size_t i);
  // Settles on the next entry to yield, skipping older versions of the
  // last key and (when dropping) tombstones.
  void Settle();

  std::vector<MergeRun> runs_;
  std::vector<Source> sources_;  // Newest first, as the runs.
  bool drop_tombstones_;
  KeyOrder last_{};  // The last key settled on.
  bool have_last_ = false;
  std::size_t top_ = 0;  // The source of current_.
  const PackedEntry* current_ = nullptr;
};

}  // namespace bandslim::lsm
