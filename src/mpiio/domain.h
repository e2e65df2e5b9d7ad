// Aggregator file-domain partitioning shared by the two-phase (OCIO) and
// view-based collective implementations: the aggregate file range [lo, hi)
// is split into equal regions, one per aggregator, with aggregators spread
// evenly across the communicator when collective buffering restricts their
// count.
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace tcio::io {

struct Domain {
  Offset lo = 0;
  Offset hi = 0;
  Bytes per_agg = 0;  // aggregator region size
  int num_agg = 0;    // number of aggregators
  int stride = 1;     // communicator-rank spacing between aggregators

  /// Builds the partition for [lo, hi) over P ranks with `cb_nodes`
  /// aggregators (0 = every rank aggregates).
  static Domain partition(Offset lo, Offset hi, int P, int cb_nodes) {
    TCIO_CHECK(hi > lo);
    Domain d;
    d.lo = lo;
    d.hi = hi;
    d.num_agg = (cb_nodes > 0 && cb_nodes < P) ? cb_nodes : P;
    d.stride = P / d.num_agg;
    d.per_agg = (hi - lo + d.num_agg - 1) / d.num_agg;
    return d;
  }

  /// Index of the aggregator owning `off`.
  int aggregatorOf(Offset off) const {
    return static_cast<int>((off - lo) / per_agg);
  }
  /// Communicator rank of aggregator index `i`.
  int aggRank(int i) const { return i * stride; }
  /// Aggregator index of rank `r`, or -1 when `r` does not aggregate.
  int aggIndexOf(int r) const {
    return (r % stride == 0 && r / stride < num_agg) ? r / stride : -1;
  }
  Extent regionOf(int agg_index) const {
    if (agg_index < 0) return {0, 0};
    const Offset b = lo + static_cast<Offset>(agg_index) * per_agg;
    return {std::min(b, hi), std::min(b + per_agg, hi)};
  }
};

/// Splits `extents` (ascending) at aggregator region boundaries, calling
/// fn(agg_index, piece) for each piece in payload order.
template <typename F>
void forEachPiece(const Domain& dom, const std::vector<Extent>& extents,
                  F&& fn) {
  for (const Extent& e : extents) {
    Offset cur = e.begin;
    while (cur < e.end) {
      const int agg = dom.aggregatorOf(cur);
      TCIO_CHECK(agg >= 0 && agg < dom.num_agg);
      const Offset piece_end = std::min(e.end, dom.regionOf(agg).end);
      fn(agg, Extent{cur, piece_end});
      cur = piece_end;
    }
  }
}

}  // namespace tcio::io
