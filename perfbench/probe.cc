#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void processCpu(double& user_s, double& sys_s) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  user_s = static_cast<double>(ru.ru_utime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
          static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

double PhaseMarks::makespan() const {
  double m = 0;
  for (std::size_t r = 0; r < start.size(); ++r) {
    m = std::max(m, end[r] - start[r]);
  }
  return m;
}

double PhaseMarks::skew() const {
  const auto [lo, hi] = std::minmax_element(arrive.begin(), arrive.end());
  return *hi - *lo;
}

double PhaseMarks::wall() const {
  return *std::max_element(wall_end.begin(), wall_end.end()) -
         *std::min_element(wall_start.begin(), wall_start.end());
}

Probe::Probe(int num_ranks, bool trace)
    : trace_(trace),
      job_start_(wallNow()),
      spans_(static_cast<std::size_t>(num_ranks)),
      stack_(static_cast<std::size_t>(num_ranks)),
      phases_(2, PhaseMarks(num_ranks)),
      rank_end_(static_cast<std::size_t>(num_ranks)) {}

Probe::Scope::Scope(Probe& probe, mpi::Comm& comm, const char* layer,
                    const char* name, std::int64_t calls)
    : probe_(&probe), comm_(&comm) {
  if (!probe.trace_) return;
  const auto r = static_cast<std::size_t>(comm.rank());
  auto& list = probe.spans_[r];
  auto& stack = probe.stack_[r];
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = stack.empty() ? -1 : stack.back();
  s.calls = calls;
  s.v0 = comm.proc().now();
  s.w0 = wallNow() - probe.job_start_;
  index_ = static_cast<int>(list.size());
  list.push_back(s);
  stack.push_back(index_);
}

Probe::Scope::~Scope() {
  if (index_ < 0) return;
  const auto r = static_cast<std::size_t>(comm_->rank());
  Span& s = probe_->spans_[r][static_cast<std::size_t>(index_)];
  s.v1 = comm_->proc().now();
  s.w1 = wallNow() - probe_->job_start_;
  probe_->stack_[r].pop_back();
}

void Probe::startBarrier(mpi::Comm& comm) {
  {
    auto s = span(comm, "mpi", "barrier");
    comm.barrier();
  }
  if (measured_start_ < 0) {
    measured_start_ = wallNow();
    processCpu(user_at_start_, sys_at_start_);
  }
}

void Probe::beginPhase(mpi::Comm& comm, Phase p) {
  const auto r = static_cast<std::size_t>(comm.rank());
  phases_[p].start[r] = comm.proc().now();
  phases_[p].wall_start[r] = wallNow();
}

void Probe::endPhase(mpi::Comm& comm, Phase p) {
  const auto r = static_cast<std::size_t>(comm.rank());
  phases_[p].arrive[r] = comm.proc().now();
  {
    auto s = span(comm, "mpi", "barrier");
    comm.barrier();
  }
  phases_[p].end[r] = comm.proc().now();
  phases_[p].wall_end[r] = wallNow();
}

std::vector<LayerTime> layerSelfTimes(const Probe& probe) {
  // per layer: per-rank self-time sums
  std::map<std::string, std::vector<double>> self;
  std::map<std::string, std::int64_t> count;
  const int P = probe.numRanks();
  for (int r = 0; r < P; ++r) {
    const auto& list = probe.spans()[static_cast<std::size_t>(r)];
    std::vector<double> children(list.size(), 0.0);
    for (const Span& s : list) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)] += s.v1 - s.v0;
      }
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      auto& v = self[list[i].layer];
      v.resize(static_cast<std::size_t>(P), 0.0);
      v[static_cast<std::size_t>(r)] += list[i].v1 - list[i].v0 - children[i];
      ++count[list[i].layer];
    }
  }
  std::vector<LayerTime> out;
  for (const auto& [layer, per_rank] : self) {
    LayerTime t;
    t.layer = layer;
    double sum = 0;
    for (double v : per_rank) {
      t.self_max_s = std::max(t.self_max_s, v);
      sum += v;
    }
    t.self_mean_s = sum / P;
    t.spans = count[layer];
    out.push_back(t);
  }
  return out;
}

double untracedSeconds(const Probe& probe) {
  double worst = 0;
  for (int r = 0; r < probe.numRanks(); ++r) {
    double covered = 0;
    for (const Span& s : probe.spans()[static_cast<std::size_t>(r)]) {
      if (s.parent < 0) covered += s.v1 - s.v0;
    }
    worst = std::max(
        worst, probe.rankEnd()[static_cast<std::size_t>(r)] - covered);
  }
  return worst;
}

double spanMaxSeconds(const Probe& probe, const std::string& layer,
                      const std::string& name) {
  double worst = 0;
  for (const auto& list : probe.spans()) {
    double sum = 0;
    for (const Span& s : list) {
      if (layer == s.layer && name == s.name) sum += s.v1 - s.v0;
    }
    worst = std::max(worst, sum);
  }
  return worst;
}

void writeSpansJson(const Probe& probe, const std::string& workload,
                    std::uint64_t seed, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  bool first = true;
  for (int r = 0; r < probe.numRanks(); ++r) {
    const auto& list = probe.spans()[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Span& s = list[i];
      std::fprintf(f,
                   "%s{\"rank\": %d, \"id\": %zu, \"parent\": %d, "
                   "\"layer\": \"%s\", \"name\": \"%s\", \"calls\": %lld, "
                   "\"v0\": %.17g, \"v1\": %.17g, \"w0\": %.9f, \"w1\": %.9f}",
                   first ? "" : ",\n", r, i, s.parent, s.layer, s.name,
                   static_cast<long long>(s.calls), s.v0, s.v1, s.w0, s.w1);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
