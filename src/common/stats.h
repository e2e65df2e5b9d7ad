// Streaming statistics (Welford's running mean, plus min and max) used by
// benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace tcio {

/// Single-pass mean / min / max accumulator.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace tcio
