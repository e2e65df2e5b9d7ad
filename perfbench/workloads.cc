#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "art/checkpoint.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "fs/filesystem.h"
#include "mpi/runtime.h"
#include "mpiio/file.h"
#include "tcio/file.h"
#include "workload/churn.h"
#include "workload/synthetic.h"

namespace perfbench {

using namespace tcio;

namespace {

// -- System model ------------------------------------------------------------
// The figure benches' calibration (a 1/64 geometric model of the paper's
// Lonestar testbed), restated here so the benchmark's meaning does not move
// when a bench is retuned.

constexpr std::int64_t kScale = 64;
constexpr Bytes kStripe = 1_MiB / kScale;

fs::FsConfig modelFs() {
  fs::FsConfig c;
  c.num_osts = 30;
  c.stripe_size = kStripe;
  c.default_stripe_count = 1;
  c.ost_write_bandwidth = 1.2e9 / kScale;
  c.ost_read_bandwidth = 2.0e9 / kScale;
  c.cache_read_bandwidth = 8.0e9 / kScale;
  c.cache_capacity_per_ost = 8_GiB / kScale;
  c.ost_request_overhead = 0.7e-3;
  c.cache_hit_overhead = 0.1e-3;
  c.rpc_latency = 30.0e-6;
  c.mds_open = 0.1e-3;
  c.page_size = 4096;
  c.small_write_penalty = 1.5e-3;
  return c;
}

/// The seed drives the engine and the network's production-mode jitter.
mpi::JobConfig modelJob(int P, std::uint64_t seed) {
  mpi::JobConfig c;
  c.num_ranks = P;
  c.seed = seed;
  c.memory_budget_per_rank = 2_GiB / kScale;
  c.net.ranks_per_node = 12;
  c.net.nic_bandwidth = 5.0e9 / kScale;
  c.net.membus_bandwidth = 20.0e9 / kScale;
  c.mpi.memcpy_bandwidth = 6.0e9 / kScale;
  c.net.per_message_overhead = 0.1e-6;
  c.net.tx_queue_depth = 192;
  c.net.tx_overflow_penalty = 0.2e-3;
  c.net.jitter_mean = 0.5e-6;
  c.net.heavy_tail_prob = 1e-4;
  c.net.heavy_tail_mean = 0.8e-3;
  c.net.jitter_seed = seed * 7919 + 11;
  return c;
}

core::TcioConfig modelTcio() {
  core::TcioConfig c;
  c.segment_size = kStripe;
  c.segments_per_rank = 1;
  c.delegate_ranks = -1;
  c.integrity.enabled = -1;
  return c;
}

/// Level-2 buffer sized to the file domain / P, as the paper sets it.
core::TcioConfig sizedTcio(core::TcioConfig c, Bytes file_size, int P) {
  c.segments_per_rank = std::max<std::int64_t>(
      1, (file_size + c.segment_size * P - 1) / (c.segment_size * P));
  return c;
}

constexpr double kMB = 1e6;

// -- Job harness ---------------------------------------------------------------

/// Counters summed over every core::File the benchmark opens directly.
struct TcioCounters {
  std::int64_t writes = 0, reads = 0, level1_flushes = 0;
  std::int64_t collective_fetches = 0, independent_fetches = 0;
  void add(const core::TcioStats& s) {
    writes += s.writes;
    reads += s.reads;
    level1_flushes += s.level1_flushes;
    collective_fetches += s.collective_fetches;
    independent_fetches += s.independent_fetches;
  }
};

/// What the ranks of one job share with the benchmark.
struct JobContext {
  JobContext(int P, bool trace) : probe(P, trace) {}
  Probe probe;
  double generate_s = 0;
  Bytes mem_peak = 0;
  TcioCounters tcio;
  std::int64_t net_intranode_msgs = 0, net_internode_payload = 0,
               net_internode_control = 0;
  Bytes net_intranode_bytes = 0;
};

template <typename F>
void timedGenerate(JobContext& ctx, F&& generate) {
  const double t0 = wallNow();
  generate();
  ctx.generate_s += wallNow() - t0;
}

/// Runs `body` on every rank and records the job-level clocks and counters.
/// Exceptions escape to the caller, which counts them as failures.
template <typename Body>
void runMeasured(JobContext& ctx, const mpi::JobConfig& cfg, Body&& body,
                 JobOutput& out) {
  int finished = 0;
  const mpi::JobResult res =
      mpi::runJob(cfg, [&](mpi::Comm& comm, mpi::World& world) {
        body(comm);
        ctx.probe.rankEnd()[static_cast<std::size_t>(comm.rank())] =
            comm.proc().now();
        ctx.mem_peak = std::max(ctx.mem_peak, comm.memory().peak());
        // The last rank to finish sees every message the job sent.
        if (++finished == comm.size()) {
          const net::Network& n = world.network();
          ctx.net_intranode_msgs = n.intranodeMessageCount();
          ctx.net_intranode_bytes = n.intranodeBytes();
          ctx.net_internode_payload = n.internodePayloadMessages();
          ctx.net_internode_control = n.internodeControlMessages();
        }
      });
  const double t_end = wallNow();
  const Probe& probe = ctx.probe;
  out.setup_s = probe.measuredStart() - probe.jobStart();
  out.wall_s = t_end - probe.measuredStart();
  double user = 0, sys = 0;
  processCpu(user, sys);
  out.user_s = user - probe.userAtStart();
  out.sys_s = sys - probe.sysAtStart();
  out.generate_s = ctx.generate_s;
  out.write_wall_s = probe.phase(kWritePhase).wall();
  out.read_wall_s = probe.phase(kReadPhase).wall();

  auto& v = out.virt;
  v["makespan_s"] = res.makespan;
  v["rank_mem_peak_MB"] = static_cast<double>(ctx.mem_peak) / kMB;
  v["sim.events"] = static_cast<double>(res.engine_events);
  v["net.messages"] = static_cast<double>(res.network_messages);
  v["net.bytes"] = static_cast<double>(res.network_bytes);
  v["net.intranode_msgs"] = static_cast<double>(ctx.net_intranode_msgs);
  v["net.intranode_bytes"] = static_cast<double>(ctx.net_intranode_bytes);
  v["net.internode_payload_msgs"] =
      static_cast<double>(ctx.net_internode_payload);
  v["net.internode_control_msgs"] =
      static_cast<double>(ctx.net_internode_control);
  v["write_s"] = probe.phase(kWritePhase).makespan();
  v["read_s"] = probe.phase(kReadPhase).makespan();
  v["mpi.write_skew_s"] = probe.phase(kWritePhase).skew();
  v["mpi.read_skew_s"] = probe.phase(kReadPhase).skew();
  const TcioCounters& t = ctx.tcio;
  v["tcio.writes"] = static_cast<double>(t.writes);
  v["tcio.reads"] = static_cast<double>(t.reads);
  v["tcio.level1_flushes"] = static_cast<double>(t.level1_flushes);
  v["tcio.collective_fetches"] = static_cast<double>(t.collective_fetches);
  v["tcio.independent_fetches"] = static_cast<double>(t.independent_fetches);
}

/// Fills the file-system counters and the phase throughputs.
void finishJob(const fs::Filesystem& fsys, Bytes write_bytes, Bytes read_bytes,
               JobOutput& out) {
  auto& v = out.virt;
  const fs::FsStats s = fsys.stats();
  v["fs.write_requests"] = static_cast<double>(s.write_requests);
  v["fs.read_requests"] = static_cast<double>(s.read_requests);
  v["fs.bytes_written"] = static_cast<double>(s.bytes_written);
  v["fs.bytes_read"] = static_cast<double>(s.bytes_read);
  v["fs.bytes_read_from_cache"] = static_cast<double>(s.bytes_read_from_cache);
  v["fs.lock_revocations"] = static_cast<double>(s.lock_revocations);
  v["fs.opens"] = static_cast<double>(s.opens);
  v["fs.journal_writes"] = static_cast<double>(s.journal_writes);
  v["write_bytes"] = static_cast<double>(write_bytes);
  v["read_bytes"] = static_cast<double>(read_bytes);
  v["write_MBps"] = static_cast<double>(write_bytes) / v["write_s"] / kMB;
  v["read_MBps"] = static_cast<double>(read_bytes) / v["read_s"] / kMB;
}

/// Span-derived metrics of a traced job, plus its span JSON.
void finishTrace(const Probe& probe, const char* workload, std::uint64_t seed,
                 const std::string& spans_path, JobOutput& out) {
  if (!probe.tracing()) return;
  auto& t = out.traced;
  const struct {
    const char* metric;
    const char* layer;
    const char* name;
  } kSpanMetrics[] = {
      {"tcio.open_s", "tcio", "open"},
      {"tcio.write_calls_s", "tcio", "write_calls"},
      {"tcio.read_calls_s", "tcio", "read_calls"},
      {"tcio.fetch_s", "tcio", "fetch"},
      {"tcio.close_s", "tcio", "close"},
      {"mpiio.open_s", "mpiio", "open"},
      {"mpiio.write_all_s", "mpiio", "write_all"},
      {"mpiio.read_all_s", "mpiio", "read_all"},
      {"mpiio.close_s", "mpiio", "close"},
      {"art.dump_s", "art", "dump"},
      {"art.restart_s", "art", "restart"},
  };
  for (const auto& m : kSpanMetrics) {
    t[m.metric] = spanMaxSeconds(probe, m.layer, m.name);
  }
  t["trace.untraced_s"] = untracedSeconds(probe);
  std::int64_t spans = 0;
  for (const auto& list : probe.spans()) {
    spans += static_cast<std::int64_t>(list.size());
  }
  t["trace.spans"] = static_cast<double>(spans);
  out.layers = layerSelfTimes(probe);
  if (!spans_path.empty()) writeSpansJson(probe, workload, seed, spans_path);
}

/// Counts an exception that escaped the job as one failed operation.
void recordEscape(const std::exception& e, JobOutput& out) {
  const char* kind = "error";
  if (dynamic_cast<const OutOfMemoryBudget*>(&e) != nullptr) {
    kind = "OutOfMemoryBudget";
  } else if (dynamic_cast<const IntegrityError*>(&e) != nullptr) {
    kind = "IntegrityError";
  } else if (dynamic_cast<const DeadlockError*>(&e) != nullptr) {
    kind = "DeadlockError";
  }
  ++out.attempted;
  ++out.failed;
  out.errors.push_back(std::string(kind) + ": " + e.what());
}

// -- fig5_tcio / fig5_ocio: the Table II synthetic benchmark --------------------

constexpr int kFig5Ranks = 128;
constexpr std::int64_t kFig5Len = 4096;

workload::BenchmarkConfig fig5Config(workload::Method m) {
  workload::BenchmarkConfig c;
  c.method = m;
  c.array_elem_sizes = {4, 8};
  c.len_array = kFig5Len;
  c.size_access = 1;
  c.tcio = modelTcio();
  return c;
}

Bytes blockBytes(const workload::BenchmarkConfig& cfg) {
  Bytes sum = 0;
  for (Bytes s : cfg.array_elem_sizes) sum += s;
  return sum;
}

/// File offset of element `i` of array `j` on `rank` (SIZEaccess = 1).
Offset elementOffset(const workload::BenchmarkConfig& cfg, int P, int rank,
                     std::size_t j, std::int64_t i) {
  Offset off = (i * P + rank) * blockBytes(cfg);
  for (std::size_t k = 0; k < j; ++k) off += cfg.array_elem_sizes[k];
  return off;
}

using Arrays = std::vector<std::vector<std::byte>>;

/// A rank's input arrays, drawn from the workload generator.
Arrays makeArrays(const workload::BenchmarkConfig& cfg, int P, int rank) {
  Arrays arrays;
  for (std::size_t j = 0; j < cfg.array_elem_sizes.size(); ++j) {
    const Bytes esize = cfg.array_elem_sizes[j];
    std::vector<std::byte> a(static_cast<std::size_t>(cfg.len_array * esize));
    for (std::int64_t i = 0; i < cfg.len_array; ++i) {
      const Offset off = elementOffset(cfg, P, rank, j, i);
      for (Bytes b = 0; b < esize; ++b) {
        a[static_cast<std::size_t>(i * esize + b)] =
            workload::expectedByte(cfg, P, off + b);
      }
    }
    arrays.push_back(std::move(a));
  }
  return arrays;
}

Arrays emptyArrays(const workload::BenchmarkConfig& cfg) {
  Arrays arrays;
  for (Bytes esize : cfg.array_elem_sizes) {
    arrays.emplace_back(static_cast<std::size_t>(cfg.len_array * esize));
  }
  return arrays;
}

void tcioWrite(JobContext& ctx, mpi::Comm& comm, fs::Filesystem& fsys,
               const workload::BenchmarkConfig& cfg, const Arrays& arrays) {
  const int P = comm.size();
  std::optional<core::File> f;
  {
    auto s = ctx.probe.span(comm, "tcio", "open");
    f.emplace(comm, fsys, cfg.file_name, fs::kWrite | fs::kCreate,
              sizedTcio(cfg.tcio, workload::totalFileSize(cfg, P), P));
  }
  {
    auto s = ctx.probe.span(comm, "tcio", "write_calls",
                            cfg.len_array * std::ssize(arrays));
    for (std::int64_t i = 0; i < cfg.len_array; ++i) {
      for (std::size_t j = 0; j < arrays.size(); ++j) {
        const Bytes n = cfg.array_elem_sizes[j];
        f->writeAt(elementOffset(cfg, P, comm.rank(), j, i),
                   arrays[j].data() + i * n, n);
      }
    }
  }
  {
    auto s = ctx.probe.span(comm, "tcio", "close");
    f->close();
  }
  ctx.tcio.add(f->stats());
}

void tcioRead(JobContext& ctx, mpi::Comm& comm, fs::Filesystem& fsys,
              const workload::BenchmarkConfig& cfg, Arrays& arrays) {
  const int P = comm.size();
  std::optional<core::File> f;
  {
    auto s = ctx.probe.span(comm, "tcio", "open");
    f.emplace(comm, fsys, cfg.file_name, fs::kRead,
              sizedTcio(cfg.tcio, workload::totalFileSize(cfg, P), P));
  }
  {
    auto s = ctx.probe.span(comm, "tcio", "read_calls",
                            cfg.len_array * std::ssize(arrays));
    for (std::int64_t i = 0; i < cfg.len_array; ++i) {
      for (std::size_t j = 0; j < arrays.size(); ++j) {
        const Bytes n = cfg.array_elem_sizes[j];
        f->readAt(elementOffset(cfg, P, comm.rank(), j, i),
                  arrays[j].data() + i * n, n);
      }
    }
  }
  {
    auto s = ctx.probe.span(comm, "tcio", "fetch");
    f->fetch();
  }
  {
    auto s = ctx.probe.span(comm, "tcio", "close");
    f->close();
  }
  ctx.tcio.add(f->stats());
}

/// The OCIO view: one block per rank per round, strided by P blocks.
void setOcioView(JobContext& ctx, mpi::Comm& comm, io::MpioFile& f,
                 const workload::BenchmarkConfig& cfg) {
  auto s = ctx.probe.span(comm, "mpiio", "set_view");
  const Bytes block = blockBytes(cfg);
  auto etype = mpi::Datatype::contiguous(block, mpi::Datatype::byte()).commit();
  auto filetype =
      mpi::Datatype::vector(cfg.len_array, 1, comm.size(), etype).commit();
  f.setView(comm.rank() * block, etype, filetype);
}

void ocioWrite(JobContext& ctx, mpi::Comm& comm, fs::Filesystem& fsys,
               const workload::BenchmarkConfig& cfg, const Arrays& arrays) {
  const Bytes buf_bytes = blockBytes(cfg) * cfg.len_array;
  ScopedAllocation charge(comm.memory(), buf_bytes,
                          "OCIO application-level combine buffer");
  std::vector<std::byte> buffer(static_cast<std::size_t>(buf_bytes));
  {
    auto s = ctx.probe.span(comm, "workload", "pack");
    Bytes cursor = 0;
    for (std::int64_t i = 0; i < cfg.len_array; ++i) {
      for (std::size_t j = 0; j < arrays.size(); ++j) {
        const Bytes n = cfg.array_elem_sizes[j];
        std::memcpy(buffer.data() + cursor, arrays[j].data() + i * n,
                    static_cast<std::size_t>(n));
        cursor += n;
      }
    }
    comm.chargeCopy(buf_bytes);
  }
  std::optional<io::MpioFile> f;
  {
    auto s = ctx.probe.span(comm, "mpiio", "open");
    f.emplace(io::MpioFile::open(comm, fsys, cfg.file_name,
                                 fs::kWrite | fs::kCreate));
  }
  setOcioView(ctx, comm, *f, cfg);
  {
    auto s = ctx.probe.span(comm, "mpiio", "write_all");
    f->writeAtAll(0, buffer.data(), buf_bytes);
  }
  {
    auto s = ctx.probe.span(comm, "mpiio", "close");
    f->close();
  }
}

void ocioRead(JobContext& ctx, mpi::Comm& comm, fs::Filesystem& fsys,
              const workload::BenchmarkConfig& cfg, Arrays& arrays) {
  const Bytes buf_bytes = blockBytes(cfg) * cfg.len_array;
  ScopedAllocation charge(comm.memory(), buf_bytes,
                          "OCIO application-level combine buffer");
  std::vector<std::byte> buffer(static_cast<std::size_t>(buf_bytes));
  std::optional<io::MpioFile> f;
  {
    auto s = ctx.probe.span(comm, "mpiio", "open");
    f.emplace(io::MpioFile::open(comm, fsys, cfg.file_name, fs::kRead));
  }
  setOcioView(ctx, comm, *f, cfg);
  {
    auto s = ctx.probe.span(comm, "mpiio", "read_all");
    f->readAtAll(0, buffer.data(), buf_bytes);
  }
  {
    auto s = ctx.probe.span(comm, "mpiio", "close");
    f->close();
  }
  auto s = ctx.probe.span(comm, "workload", "unpack");
  Bytes cursor = 0;
  for (std::int64_t i = 0; i < cfg.len_array; ++i) {
    for (std::size_t j = 0; j < arrays.size(); ++j) {
      const Bytes n = cfg.array_elem_sizes[j];
      std::memcpy(arrays[j].data() + i * n, buffer.data() + cursor,
                  static_cast<std::size_t>(n));
      cursor += n;
    }
  }
  comm.chargeCopy(buf_bytes);
}

/// The whole expected file, built once per process (outside every clock).
const std::vector<std::byte>& fig5Image(const workload::BenchmarkConfig& cfg,
                                        int P) {
  static const std::vector<std::byte> image = [&] {
    std::vector<std::byte> img(
        static_cast<std::size_t>(workload::totalFileSize(cfg, P)));
    for (std::size_t off = 0; off < img.size(); ++off) {
      img[off] = workload::expectedByte(cfg, P, static_cast<Offset>(off));
    }
    return img;
  }();
  return image;
}

JobOutput runFig5(workload::Method method, const char* name,
                  std::uint64_t seed, bool trace,
                  const std::string& spans_path) {
  const int P = kFig5Ranks;
  const workload::BenchmarkConfig cfg = fig5Config(method);
  const std::vector<std::byte>& image = fig5Image(cfg, P);
  const Bytes file_bytes = workload::totalFileSize(cfg, P);
  const Bytes array_bytes = file_bytes / P;

  JobOutput out;
  JobContext ctx(P, trace);
  fs::Filesystem fsys(modelFs());
  std::vector<Arrays> readback(static_cast<std::size_t>(P));
  try {
    runMeasured(
        ctx, modelJob(P, seed),
        [&](mpi::Comm& comm) {
          Probe& probe = ctx.probe;
          Arrays arrays;
          timedGenerate(ctx, [&] { arrays = makeArrays(cfg, P, comm.rank()); });
          probe.startBarrier(comm);
          {
            ScopedAllocation app(comm.memory(), array_bytes,
                                 "application arrays");
            probe.beginPhase(comm, kWritePhase);
            if (method == workload::Method::kTcio) {
              tcioWrite(ctx, comm, fsys, cfg, arrays);
            } else {
              ocioWrite(ctx, comm, fsys, cfg, arrays);
            }
            probe.endPhase(comm, kWritePhase);
          }
          ScopedAllocation app(comm.memory(), array_bytes,
                               "application arrays");
          Arrays back = emptyArrays(cfg);
          probe.beginPhase(comm, kReadPhase);
          if (method == workload::Method::kTcio) {
            tcioRead(ctx, comm, fsys, cfg, back);
          } else {
            ocioRead(ctx, comm, fsys, cfg, back);
          }
          probe.endPhase(comm, kReadPhase);
          readback[static_cast<std::size_t>(comm.rank())] = std::move(back);
        },
        out);
  } catch (const std::exception& e) {
    recordEscape(e, out);
    return out;
  }
  finishJob(fsys, file_bytes, file_bytes, out);
  finishTrace(ctx.probe, name, seed, spans_path, out);

  // Every write call must have landed its element in the file, and every
  // read call must have returned it.
  std::vector<std::byte> file(static_cast<std::size_t>(file_bytes));
  if (fsys.peekSize(cfg.file_name) == file_bytes) {
    fsys.peek(cfg.file_name, 0, file);
  }
  for (int r = 0; r < P; ++r) {
    const Arrays& back = readback[static_cast<std::size_t>(r)];
    for (std::size_t j = 0; j < cfg.array_elem_sizes.size(); ++j) {
      const Bytes n = cfg.array_elem_sizes[j];
      for (std::int64_t i = 0; i < cfg.len_array; ++i) {
        const auto off =
            static_cast<std::size_t>(elementOffset(cfg, P, r, j, i));
        const auto sz = static_cast<std::size_t>(n);
        out.attempted += 2;
        if (std::memcmp(file.data() + off, image.data() + off, sz) != 0) {
          ++out.failed;
        }
        if (back.size() != cfg.array_elem_sizes.size() ||
            std::memcmp(back[j].data() + i * n, image.data() + off, sz) != 0) {
          ++out.failed;
        }
      }
    }
  }
  return out;
}

JobOutput runFig5Tcio(std::uint64_t seed, bool trace,
                      const std::string& spans_path) {
  return runFig5(workload::Method::kTcio, "fig5_tcio", seed, trace,
                 spans_path);
}

JobOutput runFig5Ocio(std::uint64_t seed, bool trace,
                      const std::string& spans_path) {
  return runFig5(workload::Method::kOcio, "fig5_ocio", seed, trace,
                 spans_path);
}

// -- art_ckpt: ART dump and verified restart -------------------------------------

constexpr int kArtRanks = 96;
constexpr std::int64_t kArtTrees = 1024;
constexpr int kArtVars = 2;
const char* const kArtFile = "art.chk";

JobOutput runArt(std::uint64_t seed, bool trace,
                 const std::string& spans_path) {
  const int P = kArtRanks;
  art::CheckpointConfig cfg;
  cfg.backend = art::Backend::kTcio;
  cfg.tcio = modelTcio();
  cfg.tcio.node_aggregation = true;
  cfg.tcio.integrity.enabled = 1;

  JobOutput out;
  JobContext ctx(P, trace);
  std::vector<std::int64_t> lens;
  timedGenerate(ctx, [&] {
    // Table IV: tree sizes ~ Normal(2048, 128) cells.
    Rng rng(seed);
    for (std::int64_t i = 0; i < kArtTrees; ++i) {
      lens.push_back(std::max<std::int64_t>(
          64, static_cast<std::int64_t>(rng.normal(2048.0, 128.0))));
    }
  });
  fs::Filesystem fsys(modelFs());
  std::vector<std::vector<art::FttTree>> originals(static_cast<std::size_t>(P));
  std::vector<std::vector<art::FttTree>> loaded(static_cast<std::size_t>(P));
  try {
    runMeasured(
        ctx, modelJob(P, seed),
        [&](mpi::Comm& comm) {
          Probe& probe = ctx.probe;
          auto& mine = originals[static_cast<std::size_t>(comm.rank())];
          timedGenerate(ctx, [&] {
            for (std::int64_t id :
                 art::treesOfRank(kArtTrees, comm.rank(), P)) {
              mine.push_back(art::generateTreeWithCells(
                  seed, id, kArtVars, lens[static_cast<std::size_t>(id)]));
            }
          });
          probe.startBarrier(comm);
          probe.beginPhase(comm, kWritePhase);
          {
            auto s = probe.span(comm, "art", "dump");
            art::dumpCheckpoint(comm, fsys, kArtFile, mine, kArtTrees, cfg);
          }
          probe.endPhase(comm, kWritePhase);
          probe.beginPhase(comm, kReadPhase);
          {
            auto s = probe.span(comm, "art", "restart");
            loaded[static_cast<std::size_t>(comm.rank())] =
                art::loadCheckpoint(comm, fsys, kArtFile, cfg);
          }
          probe.endPhase(comm, kReadPhase);
        },
        out);
  } catch (const std::exception& e) {
    recordEscape(e, out);
    return out;
  }
  const Bytes file_bytes = fsys.peekSize(kArtFile);
  finishJob(fsys, file_bytes, file_bytes, out);
  out.virt["art.file_bytes"] = static_cast<double>(file_bytes);
  finishTrace(ctx.probe, "art_ckpt", seed, spans_path, out);

  // Dump: each tree's table CRC matches both the original tree and the
  // stored blob. Restart: each rank got back exactly the trees it dumped.
  std::vector<std::byte> file(static_cast<std::size_t>(file_bytes));
  fsys.peek(kArtFile, 0, file);
  auto tableField = [&](std::int64_t id, int field) {
    std::int64_t v = 0;
    const auto at = static_cast<std::size_t>(16 + id * 24 + field * 8);
    if (at + 8 <= file.size()) std::memcpy(&v, file.data() + at, 8);
    return v;
  };
  for (int r = 0; r < P; ++r) {
    const auto& orig = originals[static_cast<std::size_t>(r)];
    const auto& back = loaded[static_cast<std::size_t>(r)];
    for (std::size_t k = 0; k < orig.size(); ++k) {
      const art::FttTree& t = orig[k];
      std::uint32_t want = 0;
      art::forEachArray(t, [&want](const void* data, Bytes len) {
        want = crc32({static_cast<const std::byte*>(data),
                      static_cast<std::size_t>(len)},
                     want);
      });
      const std::int64_t off = tableField(t.id, 0);
      const std::int64_t size = tableField(t.id, 1);
      const auto table_crc =
          static_cast<std::uint32_t>(tableField(t.id, 2) & 0xffffffff);
      const bool in_file = off >= 0 && size == art::treeSerializedSize(t) &&
                           static_cast<std::size_t>(off + size) <= file.size();
      out.attempted += 2;
      if (!in_file || table_crc != want ||
          crc32({file.data() + off, static_cast<std::size_t>(size)}) != want) {
        ++out.failed;
      }
      if (k >= back.size() || !(back[k] == t)) ++out.failed;
    }
  }
  return out;
}

// -- delegate_churn: open/write/close churn through I/O delegates ----------------

constexpr int kChurnRanks = 256;
constexpr int kChurnDelegates = 4;

workload::ChurnConfig churnConfig() {
  workload::ChurnConfig c;
  c.rounds = 4;
  c.block_bytes = 4096;
  c.blocks_per_round = 1;
  c.tcio = modelTcio();
  c.tcio.delegate_ranks = kChurnDelegates;
  c.tcio.delegate.queue_capacity = 16;
  return c;
}

JobOutput runChurn(std::uint64_t seed, bool trace,
                   const std::string& spans_path) {
  const int P = kChurnRanks;
  const int clients = P - kChurnDelegates;
  const workload::ChurnConfig cfg = churnConfig();
  const Bytes file_bytes = clients * cfg.block_bytes;
  mpi::JobConfig job = modelJob(P, seed);
  // Message-dominated: keep the NIC's per-message cost at testbed level.
  job.net.per_message_overhead_unscaled = 0.6e-6;

  JobOutput out;
  JobContext ctx(P, trace);
  fs::Filesystem fsys(modelFs());
  workload::ChurnResult churn;
  // readback[round][client]
  std::vector<std::vector<std::vector<std::byte>>> readback(
      static_cast<std::size_t>(cfg.rounds),
      std::vector<std::vector<std::byte>>(static_cast<std::size_t>(clients)));
  try {
    runMeasured(
        ctx, job,
        [&](mpi::Comm& comm) {
          Probe& probe = ctx.probe;
          probe.startBarrier(comm);
          probe.beginPhase(comm, kWritePhase);
          workload::ChurnResult res;
          {
            auto s = probe.span(comm, "delegate", "churn");
            res = workload::runChurn(comm, fsys, cfg);
          }
          if (comm.rank() == P - 1) churn = res;
          probe.endPhase(comm, kWritePhase);
          // Read every round file back through core::File.
          const int client = comm.rank() - kChurnDelegates;
          const core::TcioConfig rcfg = sizedTcio(modelTcio(), file_bytes, P);
          probe.beginPhase(comm, kReadPhase);
          for (int r = 0; r < cfg.rounds; ++r) {
            std::optional<core::File> f;
            {
              auto s = probe.span(comm, "tcio", "open");
              f.emplace(comm, fsys, workload::churnFileName(cfg, r), fs::kRead,
                        rcfg);
            }
            std::vector<std::byte> buf;
            if (client >= 0) {
              auto s = probe.span(comm, "tcio", "read_calls");
              buf.resize(static_cast<std::size_t>(cfg.block_bytes));
              f->readAt(client * cfg.block_bytes, buf.data(), cfg.block_bytes);
            }
            {
              auto s = probe.span(comm, "tcio", "fetch");
              f->fetch();
            }
            {
              auto s = probe.span(comm, "tcio", "close");
              f->close();
            }
            ctx.tcio.add(f->stats());
            if (client >= 0) {
              readback[static_cast<std::size_t>(r)]
                      [static_cast<std::size_t>(client)] = std::move(buf);
            }
          }
          probe.endPhase(comm, kReadPhase);
        },
        out);
  } catch (const std::exception& e) {
    recordEscape(e, out);
    return out;
  }
  const Bytes total = file_bytes * cfg.rounds;
  finishJob(fsys, total, total, out);
  auto& v = out.virt;
  const core::TcioDelegateStats& d = churn.delegate;
  v["delegate.submissions"] = static_cast<double>(d.submissions);
  v["delegate.rejections"] = static_cast<double>(d.rejections);
  v["delegate.busy_retries"] = static_cast<double>(d.busy_retries);
  v["delegate.queue_high_watermark"] =
      static_cast<double>(d.queue_high_watermark);
  v["delegate.batches"] = static_cast<double>(d.batches);
  v["delegate.service_s"] = d.service_time;
  v["churn.bytes_written"] = static_cast<double>(churn.bytes_written);
  finishTrace(ctx.probe, "delegate_churn", seed, spans_path, out);

  // Every block of every round file, as written and as read back.
  std::vector<std::byte> file(static_cast<std::size_t>(file_bytes));
  std::vector<std::byte> want(static_cast<std::size_t>(cfg.block_bytes));
  for (int r = 0; r < cfg.rounds; ++r) {
    const std::string name = workload::churnFileName(cfg, r);
    const bool sized = fsys.peekSize(name) == file_bytes;
    if (sized) fsys.peek(name, 0, file);
    for (int c = 0; c < clients; ++c) {
      for (std::int64_t i = 0; i < cfg.block_bytes; ++i) {
        want[static_cast<std::size_t>(i)] = workload::churnByte(r, c, 0, i);
      }
      const auto& back =
          readback[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
      out.attempted += 2;
      if (!sized || std::memcmp(file.data() + c * cfg.block_bytes, want.data(),
                                want.size()) != 0) {
        ++out.failed;
      }
      if (back != want) ++out.failed;
    }
  }
  if (churn.bytes_written != total) {
    ++out.failed;
    out.errors.push_back("churn reported a short write");
  }
  return out;
}

}  // namespace

const std::vector<Workload>& allWorkloads() {
  static const std::vector<Workload> kAll = {
      {"fig5_tcio", "tcio", "tcio", runFig5Tcio},
      {"fig5_ocio", "mpiio", "mpiio", runFig5Ocio},
      {"art_ckpt", "art", "art", runArt},
      {"delegate_churn", "delegate", "tcio", runChurn},
  };
  return kAll;
}

}  // namespace perfbench
