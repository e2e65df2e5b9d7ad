// Outside-in instrumentation for the benchmark runner.
//
// The benchmark measures the library only through its public calls: it
// reads each rank's virtual clock (`Proc::now`), the wall clock, and the
// counters the library already exposes. Nothing here calls into the
// simulated MPI layer, so a traced job runs exactly the virtual timeline of
// an untraced one (the runner checks this bit for bit).
//
// The engine runs one rank thread at a time, and a rank keeps that turn
// between engine calls, so the per-rank vectors below need no locking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/comm.h"

namespace perfbench {

namespace mpi = tcio::mpi;

/// Seconds on the monotonic wall clock.
double wallNow();

/// One timed call (or loop of calls) on one rank.
struct Span {
  const char* layer = "";
  const char* name = "";
  int parent = -1;  // index into the same rank's span list; -1 = top level
  double v0 = 0, v1 = 0;  // virtual start/end (s)
  double w0 = 0, w1 = 0;  // wall start/end (s, relative to the job start)
  std::int64_t calls = 1;
};

/// Per-rank marks of one measured phase. A phase starts when a rank leaves
/// the barrier that opens it and ends when the rank leaves the barrier that
/// closes it; `arrive` is when the rank reached that closing barrier.
struct PhaseMarks {
  explicit PhaseMarks(int P)
      : start(P), arrive(P), end(P), wall_start(P), wall_end(P) {}
  std::vector<double> start, arrive, end;  // virtual
  std::vector<double> wall_start, wall_end;

  /// Virtual makespan: the longest any rank spent inside the phase.
  double makespan() const;
  /// Virtual spread of arrivals at the closing barrier.
  double skew() const;
  /// Wall clock from the first rank entering to the last rank leaving.
  double wall() const;
};

enum Phase { kWritePhase = 0, kReadPhase = 1 };

/// Instruments one simulated job.
class Probe {
 public:
  Probe(int num_ranks, bool trace);

  bool tracing() const { return trace_; }
  int numRanks() const { return static_cast<int>(spans_.size()); }

  /// RAII span; a no-op unless tracing.
  class Scope {
   public:
    Scope(Probe& probe, mpi::Comm& comm, const char* layer, const char* name,
          std::int64_t calls);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe* probe_;
    mpi::Comm* comm_;
    int index_ = -1;
  };
  Scope span(mpi::Comm& comm, const char* layer, const char* name,
             std::int64_t calls = 1) {
    return Scope(*this, comm, layer, name, calls);
  }

  /// The first measured barrier: everything before it is set-up. Records
  /// when the first rank leaves it (wall clock and process CPU time).
  void startBarrier(mpi::Comm& comm);
  void beginPhase(mpi::Comm& comm, Phase p);
  /// Arrival mark, then the phase's closing barrier.
  void endPhase(mpi::Comm& comm, Phase p);

  const PhaseMarks& phase(Phase p) const { return phases_[p]; }
  const std::vector<std::vector<Span>>& spans() const { return spans_; }
  /// Per-rank virtual time at which the rank's body returned.
  std::vector<double>& rankEnd() { return rank_end_; }
  const std::vector<double>& rankEnd() const { return rank_end_; }

  /// Wall clock at construction (the job's set-up starts here).
  double jobStart() const { return job_start_; }
  /// Wall clock when the first rank left the start barrier.
  double measuredStart() const { return measured_start_; }
  /// Process CPU seconds (user, system) at that moment.
  double userAtStart() const { return user_at_start_; }
  double sysAtStart() const { return sys_at_start_; }

 private:
  bool trace_;
  double job_start_;
  double measured_start_ = -1;
  double user_at_start_ = 0, sys_at_start_ = 0;
  std::vector<std::vector<Span>> spans_;
  std::vector<std::vector<int>> stack_;
  std::vector<PhaseMarks> phases_;
  std::vector<double> rank_end_;
};

/// Process CPU time so far, in seconds (all threads).
void processCpu(double& user_s, double& sys_s);

/// Per-layer self time (span minus its children), summed per rank.
struct LayerTime {
  std::string layer;
  double self_max_s = 0;   // max over ranks
  double self_mean_s = 0;  // mean over ranks
  std::int64_t spans = 0;
};
std::vector<LayerTime> layerSelfTimes(const Probe& probe);

/// Max over ranks of the virtual time not covered by any top-level span.
double untracedSeconds(const Probe& probe);

/// Max over ranks of the summed virtual duration of spans `layer.name`.
double spanMaxSeconds(const Probe& probe, const std::string& layer,
                      const std::string& name);

/// Writes every span as JSON (one object per span).
void writeSpansJson(const Probe& probe, const std::string& workload,
                    std::uint64_t seed, const std::string& path);

}  // namespace perfbench
