// The benchmark's four workloads. Each call runs one simulated job from
// scratch (inputs, file system, rank threads), verifies every output, and
// returns what it measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

struct JobOutput {
  // Wall clock (s).
  double setup_s = 0;     // job start to the first rank leaving the start barrier
  double wall_s = 0;      // from there until every rank thread has joined
  double user_s = 0;      // process CPU over wall_s
  double sys_s = 0;
  double generate_s = 0;  // input generation, summed over ranks
  double write_wall_s = 0, read_wall_s = 0;  // per phase, between barriers
  /// Deterministic results (virtual times, modelled bytes, counters). Two
  /// jobs with the same seed must agree on every entry bit for bit, traced
  /// or not.
  std::map<std::string, double> virt;
  /// Span-derived per-layer values; traced jobs only.
  std::map<std::string, double> traced;
  std::vector<LayerTime> layers;  // traced jobs only
  std::int64_t attempted = 0;     // verified operations
  std::int64_t failed = 0;
  std::vector<std::string> errors;
};

struct Workload {
  const char* name;
  /// Layer whose public calls carry the write / read phase ("tcio",
  /// "mpiio", "art", "delegate"); selects the tcio.*_wall_s metrics.
  const char* write_layer;
  const char* read_layer;
  /// Runs one job. With `trace`, records spans and, when `spans_path` is
  /// non-empty, writes them there as JSON.
  JobOutput (*run)(std::uint64_t seed, bool trace,
                   const std::string& spans_path);
};

const std::vector<Workload>& allWorkloads();

}  // namespace perfbench
