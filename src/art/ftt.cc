#include "art/ftt.h"

#include <algorithm>
#include <limits>

#include "common/crc32.h"
#include "common/error.h"

namespace tcio::art {

namespace {

/// On-disk header: magic, id, depth, num_vars.
struct TreeHeader {
  std::int64_t magic = 0x46545431;  // "FTT1"
  std::int64_t id = 0;
  std::int64_t depth = 0;
  std::int64_t num_vars = 0;
};

}  // namespace

FttTree generateTree(std::uint64_t seed, std::int64_t id,
                     const TreeGenConfig& cfg) {
  // Per-tree stream: mixing the id keeps trees independent and makes any
  // rank able to regenerate any tree.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id) + 17);
  FttTree tree;
  tree.id = id;
  std::int64_t cells = 1;
  double prob = cfg.refine_prob;
  for (int level = 0; level < cfg.max_depth && cells > 0; ++level) {
    FttLevel lvl;
    lvl.refine.resize(static_cast<std::size_t>(cells), 0);
    lvl.vars.assign(static_cast<std::size_t>(cfg.num_vars),
                    std::vector<double>(static_cast<std::size_t>(cells)));
    std::int64_t refined = 0;
    for (std::int64_t c = 0; c < cells; ++c) {
      const bool refine =
          level + 1 < cfg.max_depth && rng.uniform() < prob;
      lvl.refine[static_cast<std::size_t>(c)] = refine ? 1 : 0;
      refined += refine ? 1 : 0;
      for (int v = 0; v < cfg.num_vars; ++v) {
        lvl.vars[static_cast<std::size_t>(v)][static_cast<std::size_t>(c)] =
            rng.normal(static_cast<double>(v + 1), 0.25);
      }
    }
    tree.levels.push_back(std::move(lvl));
    cells = refined * 8;
    prob *= cfg.refine_decay;
  }
  return tree;
}

FttTree generateTreeWithCells(std::uint64_t seed, std::int64_t id,
                              int num_vars, std::int64_t target_cells) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id) + 31);
  FttTree tree;
  tree.id = id;
  auto appendLevel = [&](std::int64_t cells) {
    FttLevel lvl;
    lvl.refine.assign(static_cast<std::size_t>(cells), 0);
    lvl.vars.resize(static_cast<std::size_t>(num_vars));
    for (auto& var : lvl.vars) {
      var.resize(static_cast<std::size_t>(cells));
      for (double& x : var) x = rng.normal(1.0, 0.25);
    }
    tree.levels.push_back(std::move(lvl));
  };
  appendLevel(1);
  std::int64_t produced = 1;
  while (produced < target_cells) {
    FttLevel& prev = tree.levels.back();
    const std::int64_t remaining = target_cells - produced;
    // Children come in eights (octree invariant), so round the last level
    // up; the total lands within 7 cells of the target.
    const std::int64_t children =
        std::min(prev.numCells() * 8, (remaining + 7) / 8 * 8);
    const std::int64_t refined = children / 8;
    for (std::int64_t c = 0; c < refined; ++c) {
      prev.refine[static_cast<std::size_t>(c)] = 1;
    }
    appendLevel(children);
    produced += children;
  }
  return tree;
}

void advanceTree(FttTree& tree, Rng& rng, const TreeGenConfig& cfg) {
  // Diffuse values slightly and randomly flip a few refinement decisions on
  // the deepest populated level, rebuilding the levels below it.
  for (auto& lvl : tree.levels) {
    for (auto& var : lvl.vars) {
      for (double& x : var) x += rng.normal(0.0, 0.01);
    }
  }
  if (tree.levels.size() < 2) return;
  const std::size_t last = tree.levels.size() - 2;
  FttLevel& lvl = tree.levels[last];
  std::int64_t refined = 0;
  for (auto& flag : lvl.refine) {
    if (rng.uniform() < 0.05) flag ^= 1;
    refined += flag;
  }
  // Rebuild the final level to match the new refinement count.
  const std::int64_t cells = refined * 8;
  FttLevel& leaf = tree.levels[last + 1];
  leaf.refine.assign(static_cast<std::size_t>(cells), 0);
  for (int v = 0; v < cfg.num_vars && v < static_cast<int>(leaf.vars.size());
       ++v) {
    leaf.vars[static_cast<std::size_t>(v)].assign(
        static_cast<std::size_t>(cells), static_cast<double>(v + 1));
  }
  if (cells == 0) tree.levels.pop_back();
}

Bytes treeSerializedSize(const FttTree& tree) {
  Bytes n = sizeof(TreeHeader);
  for (const auto& lvl : tree.levels) {
    n += 8;                                    // int64 cell count
    n += lvl.numCells() * 4;                   // refine flags
    n += static_cast<Bytes>(lvl.vars.size()) * lvl.numCells() * 8;
  }
  return n;
}

void forEachArray(const FttTree& tree,
                  const std::function<void(const void*, Bytes)>& fn) {
  const TreeHeader hdr{0x46545431, tree.id, tree.depth(), tree.numVars()};
  fn(&hdr, sizeof(hdr));
  for (const auto& lvl : tree.levels) {
    const std::int64_t cells = lvl.numCells();
    fn(&cells, 8);
    fn(lvl.refine.data(), cells * 4);
    for (const auto& var : lvl.vars) {
      fn(var.data(), cells * 8);
    }
  }
}

FttTree parseTree(const std::byte* data, Bytes size, std::uint32_t& crc) {
  // Every byte of the blob is folded into the CRC: the arrays inside the
  // parser's copies, the bytes past the last array after it. Every length is
  // checked against the bytes left before anything is allocated from it, so
  // an unverified blob cannot ask for more memory than it could fill.
  const std::byte* p = data;
  const std::byte* const end = data + size;
  std::uint32_t c = 0;
  const auto left = [&] { return static_cast<Bytes>(end - p); };
  const auto take = [&](void* dst, Bytes n) {
    TCIO_CHECK_MSG(n <= left(), "truncated FTT record");
    const std::span<const std::byte> src{p, static_cast<std::size_t>(n)};
    c = crc32Copy(static_cast<std::byte*>(dst), src, c);
    p += n;
  };
  TreeHeader hdr;
  take(&hdr, sizeof(hdr));
  TCIO_CHECK_MSG(hdr.magic == 0x46545431, "bad FTT magic");
  // Each level starts with an 8-byte cell count and holds num_vars arrays;
  // a blob names no more levels than it has cell counts, and no more arrays
  // than it has bytes.
  TCIO_CHECK_MSG(hdr.depth >= 0 && hdr.depth <= left() / 8,
                 "FTT depth overruns its record");
  TCIO_CHECK_MSG(hdr.num_vars >= 0 &&
                     hdr.num_vars <= std::min<Bytes>(
                                         std::numeric_limits<int>::max(),
                                         left() / std::max<Bytes>(hdr.depth, 1)),
                 "FTT variable count overruns its record");
  FttTree tree;
  tree.id = hdr.id;
  tree.levels.reserve(static_cast<std::size_t>(hdr.depth));
  for (std::int64_t level = 0; level < hdr.depth; ++level) {
    std::int64_t cells = 0;
    take(&cells, 8);
    // A cell holds a 4-byte flag and one 8-byte value per variable.
    TCIO_CHECK_MSG(cells >= 0 && cells <= left() / (4 + 8 * hdr.num_vars),
                   "FTT level overruns its record");
    FttLevel lvl;
    lvl.refine.resize(static_cast<std::size_t>(cells));
    take(lvl.refine.data(), cells * 4);
    lvl.vars.resize(static_cast<std::size_t>(hdr.num_vars));
    for (auto& var : lvl.vars) {
      var.resize(static_cast<std::size_t>(cells));
      take(var.data(), cells * 8);
    }
    tree.levels.push_back(std::move(lvl));
  }
  crc = crc32({p, static_cast<std::size_t>(left())}, c);
  return tree;
}

std::string validateTree(const FttTree& tree) {
  if (tree.levels.empty()) return "tree has no levels";
  const auto vars = tree.levels.front().vars.size();
  for (std::size_t l = 0; l < tree.levels.size(); ++l) {
    const FttLevel& lvl = tree.levels[l];
    if (lvl.vars.size() != vars) {
      return "level " + std::to_string(l) + " has " +
             std::to_string(lvl.vars.size()) + " variables, expected " +
             std::to_string(vars);
    }
    for (const auto& var : lvl.vars) {
      if (static_cast<std::int64_t>(var.size()) != lvl.numCells()) {
        return "level " + std::to_string(l) +
               " variable array size mismatch";
      }
    }
    for (const auto flag : lvl.refine) {
      if (flag != 0 && flag != 1) {
        return "level " + std::to_string(l) + " has a non-boolean flag";
      }
    }
    if (l + 1 < tree.levels.size()) {
      std::int64_t refined = 0;
      for (const auto flag : lvl.refine) refined += flag;
      if (tree.levels[l + 1].numCells() != refined * 8) {
        return "level " + std::to_string(l + 1) + " has " +
               std::to_string(tree.levels[l + 1].numCells()) +
               " cells, expected " + std::to_string(refined * 8);
      }
    } else {
      for (const auto flag : lvl.refine) {
        if (flag != 0) return "deepest level refines a cell";
      }
    }
  }
  return {};
}

std::int64_t arrayCount(const FttTree& tree) {
  // Header + per level: cell count, refinement flags, one array per var.
  return 1 + static_cast<std::int64_t>(tree.depth()) * (2 + tree.numVars());
}

}  // namespace tcio::art
