// Fully Threaded Tree (FTT) — the cell-based AMR structure of the ART
// cosmology code (Kravtsov et al. 1997; Khokhlov 1998).
//
// A tree starts from one root cell; any cell may refine into 8 children
// (octree). Refinement evolves during the run, so trees differ in depth and
// per-level cell counts — the dynamic, variable-size data that defeats
// OCIO's derived-datatype file views (paper §V.C).
//
// On disk a tree is self-describing (paper Fig. 8): a header, then per level
// the refinement-flag array and one value array per physics variable — many
// small arrays of different types and sizes, adjacent in the file.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace tcio::art {

/// One refinement level of a tree.
struct FttLevel {
  /// 1 = cell is refined (has 8 children on the next level), 0 = leaf.
  std::vector<std::int32_t> refine;
  /// Per-variable cell values: vars[v][cell].
  std::vector<std::vector<double>> vars;

  std::int64_t numCells() const {
    return static_cast<std::int64_t>(refine.size());
  }
  friend bool operator==(const FttLevel&, const FttLevel&) = default;
};

/// A fully threaded tree rooted at one root cell.
struct FttTree {
  std::int64_t id = 0;
  std::vector<FttLevel> levels;

  int depth() const { return static_cast<int>(levels.size()); }
  int numVars() const {
    return levels.empty() ? 0 : static_cast<int>(levels[0].vars.size());
  }
  std::int64_t totalCells() const {
    std::int64_t n = 0;
    for (const auto& l : levels) n += l.numCells();
    return n;
  }
  friend bool operator==(const FttTree&, const FttTree&) = default;
};

/// Parameters for random tree generation.
struct TreeGenConfig {
  int num_vars = 2;
  int max_depth = 6;
  /// Probability that a cell refines, multiplied by decay^level.
  double refine_prob = 0.5;
  double refine_decay = 0.7;
};

/// Deterministically generates tree `id` (same seed + id = same tree on any
/// rank — no communication needed to agree on tree shapes).
FttTree generateTree(std::uint64_t seed, std::int64_t id,
                     const TreeGenConfig& cfg);

/// Generates a tree with approximately `target_cells` total cells (levels
/// fill as 1, 8, 64, ... until the target is reached). Used by the Fig. 9/10
/// benchmark, which sizes segments from the paper's N(2048, 128) draw.
FttTree generateTreeWithCells(std::uint64_t seed, std::int64_t id,
                              int num_vars, std::int64_t target_cells);

/// One coarse "simulation step": diffuse variable values toward the parent's
/// value and occasionally re-refine leaves / coarsen refined cells. Keeps
/// the example app honest about trees changing between checkpoints.
void advanceTree(FttTree& tree, Rng& rng, const TreeGenConfig& cfg);

/// Serialized size of the tree in the on-disk format.
Bytes treeSerializedSize(const FttTree& tree);

/// Visits every on-disk array of the tree in file order:
/// fn(data, bytes) — first the header array, then per level the refinement
/// array and each variable array. Writers emit one I/O call per array.
void forEachArray(const FttTree& tree,
                  const std::function<void(const void*, Bytes)>& fn);

/// Parses a serialized tree (inverse of forEachArray's concatenation) and
/// sets `crc` to the CRC-32 of all `size` bytes, trailing bytes included,
/// taken inside the parser's own copies: the blob is read once. A blob that
/// does not hold a tree, including one whose cell count, depth or variable
/// count overruns its bytes, throws Error before allocating from that field.
FttTree parseTree(const std::byte* data, Bytes size, std::uint32_t& crc);

/// Total number of on-disk arrays:
/// 1 header + depth * (cell count + refinement flags + one per variable).
std::int64_t arrayCount(const FttTree& tree);

/// Structural invariants of a fully threaded tree:
///   * every level's cell count equals 8 x the refined cells above it;
///   * every level carries the same number of variables;
///   * the deepest level refines nothing.
/// Returns an empty string when valid, else a description of the violation.
std::string validateTree(const FttTree& tree);

}  // namespace tcio::art
