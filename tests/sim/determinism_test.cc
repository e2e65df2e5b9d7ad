// Property test: the engine is bit-deterministic — the same program produces
// identical virtual times and event counts on every run, regardless of what
// else the host is doing.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/timeline.h"

namespace tcio::sim {
namespace {

struct Outcome {
  std::vector<SimTime> times;
  std::int64_t events;
  SimTime horizon;

  bool operator==(const Outcome&) const = default;
};

// A deliberately contention-heavy program: every rank races on a shared
// timeline and hands tokens down a ring.
Outcome runOnce(int P, std::uint64_t seed) {
  Engine::Config cfg;
  cfg.num_ranks = P;
  cfg.seed = seed;
  Engine eng(cfg);
  Timeline shared(1000.0, 0.001);
  std::vector<Event> round1(static_cast<std::size_t>(P));
  Outcome out;
  out.times.resize(static_cast<std::size_t>(P));
  eng.run([&](Proc& p) {
    const int r = p.rank();
    // Random local compute.
    p.advance(p.rng().uniform() * 0.01);
    // Contend on the shared resource.
    for (int i = 0; i < 20; ++i) {
      const Bytes n = 1 + p.rng().uniformInt(0, 99);
      p.atomic([&] { p.advanceTo(shared.serve(p.now(), n)); });
    }
    // Ring handoff: rank r completes r+1's event.
    if (r > 0) p.wait(round1[static_cast<std::size_t>(r)], "ring");
    p.atomic([&] {
      if (r + 1 < P) p.complete(round1[static_cast<std::size_t>(r) + 1], p.now());
      out.times[static_cast<std::size_t>(r)] = p.now();
    });
  });
  out.events = eng.eventCount();
  out.horizon = shared.horizon();
  return out;
}

TEST(DeterminismTest, IdenticalAcrossRepeatedRuns) {
  const Outcome first = runOnce(32, 7);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(runOnce(32, 7), first) << "repetition " << rep;
  }
}

TEST(DeterminismTest, DifferentSeedsChangeOutcome) {
  EXPECT_NE(runOnce(32, 7), runOnce(32, 8));
}

TEST(DeterminismTest, HoldsAtLargerScale) {
  const Outcome first = runOnce(128, 3);
  EXPECT_EQ(runOnce(128, 3), first);
}

}  // namespace
}  // namespace tcio::sim
