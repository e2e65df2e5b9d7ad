// MPI derived datatypes with eager flattening.
//
// A `Datatype` describes a (possibly non-contiguous) byte layout. Internally
// every type is canonicalized at construction into a sorted, merged list of
// byte extents relative to offset 0 — the representation the I/O layers
// actually need (file views, request lists, RMA transfer plans). This keeps
// constructors honest MPI equivalents (contiguous / vector / indexed /
// hindexed / struct) while making `flatten()` a cheap copy.
//
// Conventions: lower bound is always 0 and extent is the last mapped byte
// (no LB/UB markers); `size()` is the payload byte count.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace tcio::mpi {

/// Immutable, cheaply copyable datatype handle (shared internals).
class Datatype {
 public:
  /// Default-constructed handle is invalid; assign from a factory.
  Datatype() = default;

  // -- Basic types ----------------------------------------------------------
  static Datatype byte() { return basic(1, "byte"); }
  static Datatype int16() { return basic(2, "int16"); }
  static Datatype int32() { return basic(4, "int32"); }
  static Datatype int64() { return basic(8, "int64"); }
  static Datatype float64() { return basic(8, "float64"); }

  // -- Constructors mirroring MPI_Type_* ------------------------------------

  /// `count` consecutive copies of `base` (MPI_Type_contiguous).
  static Datatype contiguous(std::int64_t count, const Datatype& base);

  /// `count` blocks of `blocklen` base elements, block starts separated by
  /// `stride` base *elements* (MPI_Type_vector).
  static Datatype vector(std::int64_t count, std::int64_t blocklen,
                         std::int64_t stride, const Datatype& base);

  /// Blocks of base elements at element displacements (MPI_Type_indexed).
  static Datatype indexed(std::span<const std::int64_t> blocklens,
                          std::span<const std::int64_t> displs,
                          const Datatype& base);

  /// Blocks of raw bytes at byte displacements (MPI_Type_create_hindexed
  /// over MPI_BYTE).
  static Datatype hindexed(std::span<const Bytes> blocklens,
                           std::span<const Offset> byte_displs);

  /// Heterogeneous struct: per-field block length (elements of types[i]) at
  /// byte displacements (MPI_Type_create_struct).
  static Datatype structType(std::span<const std::int64_t> blocklens,
                             std::span<const Offset> byte_displs,
                             std::span<const Datatype> types);

  /// Marks the type ready for use (MPI_Type_commit). Factories return
  /// uncommitted types; using an uncommitted type in a file view throws.
  Datatype& commit() {
    state_->committed = true;
    return *this;
  }

  bool valid() const { return state_ != nullptr; }
  bool committed() const { return state_ != nullptr && state_->committed; }

  /// Payload bytes per instance of the type.
  Bytes size() const { return state_->size; }

  /// Distance from byte 0 to one-past the last mapped byte.
  Bytes extent() const { return state_->extent; }

  /// True when the payload occupies one contiguous run starting at 0.
  bool isContiguous() const {
    return state_->segments.size() == 1 && state_->segments[0].begin == 0;
  }

  /// Number of maximal contiguous runs.
  std::size_t segmentCount() const { return state_->segments.size(); }

  /// The canonical layout: sorted, merged byte extents relative to 0.
  const std::vector<Extent>& segments() const { return state_->segments; }

  /// Appends this type's extents, for `count` consecutive instances placed
  /// at byte offset `base` (instance i at base + i*extent()), to `out`.
  /// Adjacent runs are merged with the tail of `out`.
  void flatten(Offset base, std::int64_t count, std::vector<Extent>& out) const;

  const std::string& name() const { return state_->name; }

 private:
  struct State {
    std::vector<Extent> segments;  // sorted, non-overlapping, merged
    Bytes size = 0;
    Bytes extent = 0;
    bool committed = false;
    std::string name;
  };

  static Datatype basic(Bytes n, const char* name);
  static Datatype fromSegments(std::vector<Extent> segs, std::string name);

  std::shared_ptr<State> state_;
};

/// Normalizes a list of extents: sorts by begin, merges adjacent runs,
/// rejects overlap (datatype layouts may not map a byte twice).
std::vector<Extent> normalizeExtents(std::vector<Extent> extents);

/// Coverage union: sorts and merges possibly-overlapping extents (rewriting
/// the same byte is legal for access-pattern bookkeeping).
std::vector<Extent> normalizeOverlapping(std::vector<Extent> extents);

/// Coverage union of several per-source lists laid back to back in `runs`:
/// source i is runs[source_ends[i-1], source_ends[i]) (source 0 starts at 0)
/// and must be ascending by begin — a source out of order throws. Returns
/// exactly normalizeOverlapping(runs), but merges the sources pairwise
/// instead of sorting, so a union whose sources interleave costs about
/// O(n log sources) and one whose runs coalesce as they merge about O(n).
std::vector<Extent> unionSortedSources(
    std::vector<Extent> runs, std::span<const std::size_t> source_ends);

}  // namespace tcio::mpi
