// perfbench_runner: runs one workload as a series of identical simulated
// jobs for a wall-clock budget, checks them, and writes one result file.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --out RESULT.json [--spans SPANS.json]
//
// Every job of a run uses the same seed, so all of them must report
// bit-identical virtual metrics; any difference is counted as a failure.
// With --trace 1, untraced and traced jobs alternate: the per-layer metrics
// come from the traced jobs, the wall-clock ones from the untraced jobs,
// and the two kinds must agree bit for bit on every virtual metric.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kMinJobs = 3;
constexpr std::size_t kMinTracedRunJobs = 4;
constexpr std::size_t kMaxJobs = 64;

struct Args {
  std::string workload, out, spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload NAME "
               "--seed N --seconds S --trace 0|1 --out FILE [--spans FILE]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || a.out.empty()) usage("--workload and --out are required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Names the first virtual metric on which two jobs differ ("" if none).
std::string firstDifference(const std::map<std::string, double>& a,
                            const std::map<std::string, double>& b) {
  if (a.size() != b.size()) return "metric set";
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first) return ia->first;
    if (std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s (%.17g vs %.17g)", ia->first.c_str(),
                    ia->second, ib->second);
      return buf;
    }
  }
  return "";
}

double peakRssMB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void writeResult(const Args& args, const std::vector<Metric>& metrics,
                 const std::vector<JobOutput>& jobs, std::int64_t attempted,
                 std::int64_t failed, const std::vector<std::string>& errors,
                 const std::vector<LayerTime>& layers) {
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                 args.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::fprintf(f, " \"build_type\": \"%s\", \"compiler\": \"%s\",\n",
               PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::fprintf(f, " \"jobs\": %zu, \"job_wall_s\": [", jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::fprintf(f, "%s%.9f", i ? ", " : "", jobs[i].wall_s);
  }
  std::fprintf(f, "],\n \"job_cpu_s\": [");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::fprintf(f, "%s%.6f", i ? ", " : "", jobs[i].user_s + jobs[i].sys_s);
  }
  std::fprintf(f, "],\n \"correct\": %s, \"attempted\": %lld, \"failed\": %lld,\n",
               failed == 0 ? "true" : "false",
               static_cast<long long>(attempted),
               static_cast<long long>(failed));
  std::fprintf(f, " \"errors\": [");
  for (std::size_t i = 0; i < errors.size() && i < 8; ++i) {
    std::string e;
    for (char c : errors[i]) {
      if (c == '"' || c == '\\') e += '\\';
      e += (c == '\n' ? ' ' : c);
    }
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", e.c_str());
  }
  std::fprintf(f, "],\n \"layers\": [");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::fprintf(f,
                 "%s{\"layer\": \"%s\", \"self_max_s\": %.17g, "
                 "\"self_mean_s\": %.17g, \"spans\": %lld}",
                 i ? ", " : "", layers[i].layer.c_str(), layers[i].self_max_s,
                 layers[i].self_mean_s,
                 static_cast<long long>(layers[i].spans));
  }
  std::fprintf(f, "],\n \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i ? "," : "", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit);
  }
  std::fprintf(f, "\n}}\n");
  std::fclose(f);
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : allWorkloads()) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload " + args.workload).c_str());

  // Run identical jobs until the budget is spent.
  std::vector<JobOutput> jobs;
  std::vector<bool> traced;
  const std::size_t min_jobs = args.trace ? kMinTracedRunJobs : kMinJobs;
  const double t0 = wallNow();
  while (jobs.size() < kMaxJobs &&
         (jobs.size() < min_jobs || wallNow() - t0 < args.seconds)) {
    const bool trace_this = args.trace && jobs.size() % 2 == 1;
    jobs.push_back(wl->run(args.seed, trace_this, args.spans));
    traced.push_back(trace_this);
  }

  std::int64_t attempted = 0, failed = 0;
  std::size_t identical = 1;
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    attempted += jobs[i].attempted;
    failed += jobs[i].failed;
    errors.insert(errors.end(), jobs[i].errors.begin(), jobs[i].errors.end());
    if (i == 0) continue;
    // Determinism self-check: same seed, traced or not, same virtual run.
    const std::string diff = firstDifference(jobs[0].virt, jobs[i].virt);
    ++attempted;
    if (diff.empty()) {
      ++identical;
    } else {
      ++failed;
      errors.push_back("job " + std::to_string(i) +
                       " is not bit-identical to job 0: " + diff);
    }
  }

  std::vector<double> wall, setup, user, sys, gen, wwall, rwall, traced_wall;
  const JobOutput* last_traced = nullptr;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOutput& j = jobs[i];
    gen.push_back(j.generate_s);
    if (traced[i]) {
      traced_wall.push_back(j.wall_s);
      last_traced = &j;
      continue;
    }
    wall.push_back(j.wall_s);
    setup.push_back(j.setup_s);
    user.push_back(j.user_s);
    sys.push_back(j.sys_s);
    wwall.push_back(j.write_wall_s);
    rwall.push_back(j.read_wall_s);
  }

  std::vector<Metric> metrics;
  const auto& v = jobs[0].virt;
  auto get = [&v](const char* key) {
    const auto it = v.find(key);
    return it == v.end() ? 0.0 : it->second;
  };
  // Metrics need one job that ran to completion (and, traced, one traced
  // job); a failed verification still reports them, with correct=false.
  const bool ok = !v.empty() && (!args.trace || (last_traced != nullptr &&
                                                 !last_traced->traced.empty()));
  if (ok && !args.trace) {
    metrics = {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_MB", peakRssMB(), "MB"},
        {"write_MBps", get("write_MBps"), "MB/s_virt"},
        {"read_MBps", get("read_MBps"), "MB/s_virt"},
        {"makespan_s", get("makespan_s"), "s_virt"},
        {"rank_mem_peak_MB", get("rank_mem_peak_MB"), "MB_model"},
    };
  } else if (ok) {
    const auto& t = last_traced->traced;
    auto span = [&t](const char* key) { return t.at(key); };
    const bool tcio_write = std::strcmp(wl->write_layer, "tcio") == 0;
    const bool tcio_read = std::strcmp(wl->read_layer, "tcio") == 0;
    const double submissions = get("delegate.submissions");
    metrics = {
        {"sim.events", get("sim.events"), "count"},
        {"sim.us_per_event", ratio(median(wall), get("sim.events")) * 1e6,
         "us"},
        {"sim.user_s", median(user), "s"},
        {"sim.sys_s", median(sys), "s"},
        {"sim.sys_frac", ratio(median(sys), median(wall)), "ratio"},
        {"net.messages", get("net.messages"), "count"},
        {"net.bytes", get("net.bytes"), "B"},
        {"net.internode_payload_msgs", get("net.internode_payload_msgs"),
         "count"},
        {"net.internode_control_msgs", get("net.internode_control_msgs"),
         "count"},
        {"net.intranode_bytes", get("net.intranode_bytes"), "B"},
        {"mpi.write_skew_s", get("mpi.write_skew_s"), "s_virt"},
        {"mpi.read_skew_s", get("mpi.read_skew_s"), "s_virt"},
        {"tcio.open_s", span("tcio.open_s"), "s_virt"},
        {"tcio.write_calls_s", span("tcio.write_calls_s"), "s_virt"},
        {"tcio.read_calls_s", span("tcio.read_calls_s"), "s_virt"},
        {"tcio.fetch_s", span("tcio.fetch_s"), "s_virt"},
        {"tcio.close_s", span("tcio.close_s"), "s_virt"},
        {"tcio.write_wall_s", tcio_write ? median(wwall) : 0.0, "s"},
        {"tcio.read_wall_s", tcio_read ? median(rwall) : 0.0, "s"},
        {"tcio.level1_flushes", get("tcio.level1_flushes"), "count"},
        {"tcio.writes_per_flush",
         ratio(get("tcio.writes"), get("tcio.level1_flushes")), "ratio"},
        {"tcio.collective_fetches", get("tcio.collective_fetches"), "count"},
        {"tcio.independent_fetches", get("tcio.independent_fetches"),
         "count"},
        {"mpiio.open_s", span("mpiio.open_s"), "s_virt"},
        {"mpiio.write_all_s", span("mpiio.write_all_s"), "s_virt"},
        {"mpiio.read_all_s", span("mpiio.read_all_s"), "s_virt"},
        {"mpiio.close_s", span("mpiio.close_s"), "s_virt"},
        {"fs.write_requests", get("fs.write_requests"), "count"},
        {"fs.read_requests", get("fs.read_requests"), "count"},
        {"fs.bytes_written", get("fs.bytes_written"), "B"},
        {"fs.lock_revocations", get("fs.lock_revocations"), "count"},
        {"fs.opens", get("fs.opens"), "count"},
        {"fs.cache_hit_frac",
         ratio(get("fs.bytes_read_from_cache"), get("fs.bytes_read")),
         "ratio"},
        {"fs.journal_writes", get("fs.journal_writes"), "count"},
        {"delegate.submissions", submissions, "count"},
        {"delegate.rejections", get("delegate.rejections"), "count"},
        {"delegate.admit_frac",
         ratio(submissions, submissions + get("delegate.rejections")),
         "ratio"},
        {"delegate.busy_retries", get("delegate.busy_retries"), "count"},
        {"delegate.queue_high_watermark", get("delegate.queue_high_watermark"),
         "count"},
        {"delegate.batches", get("delegate.batches"), "count"},
        {"delegate.service_s", get("delegate.service_s"), "s_virt"},
        {"art.dump_s", span("art.dump_s"), "s_virt"},
        {"art.restart_s", span("art.restart_s"), "s_virt"},
        {"art.file_bytes", get("art.file_bytes"), "B"},
        {"workload.generate_s", median(gen), "s"},
        {"trace.untraced_s", span("trace.untraced_s"), "s_virt"},
        {"trace.spans", span("trace.spans"), "count"},
        {"trace.wall_overhead_frac",
         ratio(median(traced_wall), median(wall)) - 1.0, "ratio"},
    };
  }

  std::printf("perfbench %s seed=%llu trace=%d jobs=%zu attempted=%lld "
              "failed=%lld failed_frac=%.3g\n",
              wl->name, static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, jobs.size(),
              static_cast<long long>(attempted),
              static_cast<long long>(failed),
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)));
  std::printf("  %zu of %zu jobs (%zu traced) bit-identical in every virtual "
              "metric\n",
              identical, jobs.size(), traced_wall.size());
  for (const std::string& e : errors) std::printf("  error: %s\n", e.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  const std::vector<LayerTime> layers =
      last_traced != nullptr ? last_traced->layers : std::vector<LayerTime>{};
  if (!layers.empty()) {
    std::printf("  %-10s %14s %14s %8s   (virtual self time: span minus "
                "children)\n",
                "layer", "max/rank s", "mean/rank s", "spans");
    for (const LayerTime& l : layers) {
      std::printf("  %-10s %14.6f %14.6f %8lld\n", l.layer.c_str(),
                  l.self_max_s, l.self_mean_s,
                  static_cast<long long>(l.spans));
    }
  }
  writeResult(args, metrics, jobs, attempted, failed, errors, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parseArgs(argc, argv));
}
