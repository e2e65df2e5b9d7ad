// Per-rank memory budget accounting.
//
// Lonestar nodes have 24 GB and 12 cores, i.e. ~2 GB per MPI process. The
// paper's Fig. 6/7 show OCIO failing at the 48 GB configuration because each
// process must hold its application data *plus* a combine buffer *plus* the
// two-phase aggregator buffer. We reproduce that as deterministic budget
// accounting: every simulated I/O-stack allocation is charged here, and
// exceeding the budget throws `OutOfMemoryBudget` (the simulated analogue of
// the job dying on the machine).
#pragma once

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/types.h"

namespace tcio {

/// Tracks one rank's simulated heap use against a budget.
/// Not thread-safe by design: each rank owns exactly one tracker and only
/// touches it from its own rank body.
class MemoryTracker {
 public:
  /// `budget` <= 0 means "unlimited" (used by correctness tests).
  explicit MemoryTracker(Bytes budget = 0) : budget_(budget) {}

  /// Charge an allocation of `n` bytes attributed to `what`.
  /// Throws OutOfMemoryBudget when the budget would be exceeded.
  void allocate(Bytes n, const std::string& what) {
    TCIO_CHECK(n >= 0);
    if (budget_ > 0 && used_ + n > budget_) {
      throw OutOfMemoryBudget(
          "memory budget exceeded allocating " + std::to_string(n) +
              " bytes for " + what + " (used " + std::to_string(used_) +
              " of " + std::to_string(budget_) + ")",
          n, budget_ - used_);
    }
    used_ += n;
    peak_ = std::max(peak_, used_);
  }

  /// Release `n` bytes previously charged with allocate().
  void release(Bytes n) {
    TCIO_CHECK(n >= 0 && n <= used_);
    used_ -= n;
  }

  Bytes used() const { return used_; }
  Bytes peak() const { return peak_; }
  Bytes budget() const { return budget_; }

  void setBudget(Bytes budget) { budget_ = budget; }
  void resetPeak() { peak_ = used_; }

 private:
  Bytes budget_;
  Bytes used_ = 0;
  Bytes peak_ = 0;
};

/// RAII charge against a tracker; releases on destruction.
class ScopedAllocation {
 public:
  ScopedAllocation(MemoryTracker& tracker, Bytes n, const std::string& what)
      : tracker_(&tracker), bytes_(n) {
    tracker_->allocate(n, what);
  }
  ~ScopedAllocation() {
    if (tracker_ != nullptr) tracker_->release(bytes_);
  }
  ScopedAllocation(ScopedAllocation&& other) noexcept
      : tracker_(other.tracker_), bytes_(other.bytes_) {
    other.tracker_ = nullptr;
  }
  ScopedAllocation& operator=(ScopedAllocation&&) = delete;
  ScopedAllocation(const ScopedAllocation&) = delete;
  ScopedAllocation& operator=(const ScopedAllocation&) = delete;

 private:
  MemoryTracker* tracker_;
  Bytes bytes_;
};

}  // namespace tcio
