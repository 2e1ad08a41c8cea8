// servebench: the repository's serving benchmark. One process hosts the
// system under test through the public ServedDataset / QueryServer /
// Coordinator API (the same objects the mdsd and mdsc binaries run) and
// drives it over loopback TCP with closed-loop QueryClient threads.
//
//   servebench --workload engine_mix|cache_hot|sharded_fanout --seed N
//              [--seconds S] [--trace 0|1] [--data-seed N]
//              [--work-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// Set-up (dataset write, load, server start, warm-up) runs three times and
// its median is reported; the last set-up is the one measured. A seeded
// sample of requests is checked against brute force before and after the
// timed window, and any mismatch fails the run (exit 1). The last line of
// stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1 (an untraced window identical to the --trace 0
// run, then a traced window whose requests are replayed layer by layer).

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/access_path.h"
#include "core/query_engine.h"
#include "core/query_planner.h"
#include "core/simd_dist.h"
#include "geom/polyhedron.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/server.h"
#include "servebench/replay.h"
#include "servebench/trace.h"
#include "servebench/workload.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using mds::Status;

constexpr size_t kClients = 4;        // closed-loop connections / threads
constexpr unsigned kEngineWorkers = 4;  // per topology, split over shards
constexpr int kSetupReps = 3;
constexpr size_t kCacheBytes = 64u << 20;  // the mdsd binary default
constexpr size_t kSpansPerThread = 200000;
constexpr size_t kHealthProbes = 2000;
constexpr size_t kBatchQueries = 48;
constexpr int kBatchReps = 3;
constexpr int64_t kSliceNs = 500000000;  // throughput slices: 0.5 s

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t data_seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/servebench-work";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--data-seed") {
      args->data_seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

// --- host fingerprint ------------------------------------------------------

std::string Fingerprint(const Args& args, bool no_simd, bool simd_tier,
                        bool query_threads) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %u, \"simd_tier\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"source_digest\": "
      "\"%s\", \"env_set\": {\"MDS_NO_SIMD\": %s, \"MDS_SIMD_TIER\": %s, "
      "\"MDS_QUERY_THREADS\": %s}}",
      std::thread::hardware_concurrency(),
      mds::SimdTierName(mds::ActiveSimdTier()), compiler.c_str(),
      SERVEBENCH_BUILD_TYPE, args.git_sha.c_str(), args.source_digest.c_str(),
      no_simd ? "true" : "false", simd_tier ? "true" : "false",
      query_threads ? "true" : "false");
  return buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Starts a fresh peak-RSS window: returns the set-up phases' freed heap to
/// the kernel and resets VmHWM to the current RSS, so peak_rss_mb is the
/// serving footprint rather than an artefact of three set-ups.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
}

// --- the hosted topology ---------------------------------------------------

/// One served dataset generation and its pool counters right after load,
/// so load-time page reads never count as serving work. A generation a
/// reload replaced keeps only its final counters, so it can be freed.
struct Generation {
  std::shared_ptr<const mds::ServedDataset> dataset;  // null once retired
  mds::BufferPoolStats load_base;
  mds::BufferPoolStats retired;
};

/// One mdsd: its dataset file, every generation it has served (a kReload
/// appends one), and the server.
struct Backend {
  std::string path;
  mds::ServedDataset::LoadOptions load_options;
  std::mutex mu;
  std::vector<Generation> generations;  // guarded by mu
  std::unique_ptr<mds::QueryServer> server;

  std::shared_ptr<const mds::ServedDataset> current() {
    std::lock_guard<std::mutex> lock(mu);
    return generations.back().dataset;
  }
};

struct Topology {
  std::vector<std::unique_ptr<Backend>> backends;
  std::unique_ptr<mds::Coordinator> coordinator;
  uint16_t port = 0;

  Topology() = default;
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  ~Topology() {
    if (coordinator) coordinator->Shutdown();
    for (auto& b : backends) {
      if (b->server) b->server->Shutdown();
    }
  }
};

struct SetupTimes {
  double write_s = 0.0;
  double load_s = 0.0;
  double start_s = 0.0;
  double warmup_s = 0.0;
  double Total() const { return write_s + load_s + start_s + warmup_s; }
};

// --- closed loop -----------------------------------------------------------

struct LoopStats {
  uint64_t attempted = 0;  // queries and reloads sent
  uint64_t ok = 0;         // OK query replies
  uint64_t failed = 0;     // rejected, error or transport-failed
  uint64_t transport_failures = 0;
  uint64_t queries_by_kind[kNumKinds] = {};
  std::vector<double> latency_us[kNumKinds];  // OK replies only
  std::vector<double> reload_ms;
  uint64_t reloads_failed = 0;
  double elapsed_s = 0.0;
  std::vector<uint64_t> ok_per_slice;  // OK replies per kSliceNs of window

  void Add(LoopStats& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    transport_failures += o.transport_failures;
    for (size_t k = 0; k < kNumKinds; ++k) {
      queries_by_kind[k] += o.queries_by_kind[k];
      latency_us[k].insert(latency_us[k].end(), o.latency_us[k].begin(),
                           o.latency_us[k].end());
    }
    reload_ms.insert(reload_ms.end(), o.reload_ms.begin(), o.reload_ms.end());
    reloads_failed += o.reloads_failed;
    if (ok_per_slice.size() < o.ok_per_slice.size()) {
      ok_per_slice.resize(o.ok_per_slice.size());
    }
    for (size_t i = 0; i < o.ok_per_slice.size(); ++i) {
      ok_per_slice[i] += o.ok_per_slice[i];
    }
  }
  /// OK replies per second: the interquartile mean of the rates of the
  /// window's whole slices, so a short stall of the host moves it less
  /// than a plain mean over the window would.
  double Throughput() const {
    std::vector<double> rates;
    const size_t whole = static_cast<size_t>(elapsed_s * 1e9 / kSliceNs);
    for (size_t i = 0; i < std::min(whole, ok_per_slice.size()); ++i) {
      rates.push_back(static_cast<double>(ok_per_slice[i]) * 1e9 / kSliceNs);
    }
    if (rates.empty()) return 0.0;
    std::sort(rates.begin(), rates.end());
    const size_t lo = rates.size() / 4;
    const size_t hi = rates.size() - lo;
    double sum = 0.0;
    for (size_t i = lo; i < hi; ++i) sum += rates[i];
    return sum / static_cast<double>(hi - lo);
  }
  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (const auto& v : latency_us) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
};

/// Traced-window state: the replayer plus one span buffer and one set of
/// replay counters per client thread.
struct Tracing {
  Replayer* replayer = nullptr;
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  std::vector<ReplayCounters> counters;
  uint64_t seed = 0;
};

/// Next request for client `thread`; false when that client is done.
using NextFn = std::function<bool(size_t thread, Request* q)>;

std::optional<mds::QueryClient> Connect(uint16_t port, int64_t end_ns) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto client = mds::QueryClient::Connect("127.0.0.1", port);
    if (client.ok()) return std::move(*client);
    if (end_ns != 0 && NowNs() >= end_ns) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return std::nullopt;
}

/// Runs kClients closed-loop clients until `next` runs dry or `end_ns`
/// passes (0 = no deadline). Client 0 sends kReload("") after every
/// `reload_every` of its own requests (0 = never).
LoopStats RunLoop(uint16_t port, const NextFn& next, int64_t end_ns,
                  uint64_t reload_every, Tracing* tracing) {
  std::vector<LoopStats> per_thread(kClients);
  std::vector<std::thread> threads;
  const int64_t start_ns = NowNs();
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      LoopStats& st = per_thread[t];
      SpanBuffer* spans = tracing ? tracing->buffers[t].get() : nullptr;
      mds::Rng probe_rng(tracing ? tracing->seed * 1315423911u + t : 0);
      std::optional<mds::QueryClient> client = Connect(port, end_ns);
      if (!client) {
        st.attempted++;  // a refused connection is a failed request
        st.failed++;
        st.transport_failures++;
      }
      uint64_t issued = 0;
      Request q;
      while (client.has_value()) {
        if (end_ns != 0 && NowNs() >= end_ns) break;
        if (spans != nullptr && spans->full()) break;
        if (!next(t, &q)) break;
        const uint64_t id = ((uint64_t{t} + 1) << 40) | issued;
        ++issued;
        const auto kind = static_cast<size_t>(q.kind);
        ScopedSpan request_span(spans, "request", id);
        const int64_t t0 = NowNs();
        Reply reply;
        {
          ScopedSpan wire(spans, "wire.request", id);
          reply = Issue(&*client, q);
        }
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        st.attempted++;
        st.queries_by_kind[kind]++;
        if (reply.status.ok()) {
          st.ok++;
          const auto slice = static_cast<size_t>((NowNs() - start_ns) / kSliceNs);
          if (st.ok_per_slice.size() <= slice) st.ok_per_slice.resize(slice + 1);
          st.ok_per_slice[slice]++;
          st.latency_us[kind].push_back(us);
          if (tracing != nullptr) {
            tracing->replayer->Replay(q, id, spans, &tracing->counters[t],
                                      &probe_rng);
          }
        } else {
          st.failed++;
          if (!client->connected()) {
            st.transport_failures++;
            client = Connect(port, end_ns);
          }
        }
        if (reload_every != 0 && t == 0 && issued % reload_every == 0 &&
            client.has_value()) {
          ScopedSpan reload_span(spans, "reload", id);
          mds::QueryOptions slow;
          slow.deadline_ms = 60000;
          const int64_t r0 = NowNs();
          auto reloaded = client->Reload("", slow);
          st.reload_ms.push_back(static_cast<double>(NowNs() - r0) / 1e6);
          st.attempted++;
          if (!reloaded.ok()) {
            st.failed++;
            st.reloads_failed++;
            if (!client->connected()) client = Connect(port, end_ns);
          } else if (tracing != nullptr) {
            tracing->replayer->BumpEpoch();
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  LoopStats total;
  for (auto& st : per_thread) total.Add(st);
  total.elapsed_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return total;
}

// --- set-up ----------------------------------------------------------------

std::string DataPath(const Args& args, const WorkloadSpec& spec,
                     uint32_t shard) {
  return args.work_dir + "/" + spec.name + "-shard" + std::to_string(shard) +
         ".mds";
}

/// Flushes a freshly written dataset file to disk, so that its writeback
/// (which the kernel starts about 30 s after the write) does not land
/// inside the timed window.
void SyncFile(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  fdatasync(fd);
  close(fd);
}

mds::Result<std::unique_ptr<Topology>> SetUp(
    const WorkloadSpec& spec, const Args& args,
    std::vector<Request>* distinct, SetupTimes* times) {
  auto topo = std::make_unique<Topology>();
  int64_t t0 = NowNs();
  auto lap = [&t0]() {
    const int64_t now = NowNs();
    const double s = static_cast<double>(now - t0) / 1e9;
    t0 = now;
    return s;
  };

  // 1. Write the dataset file(s), as `mdsctl build` does.
  for (uint32_t s = 0; s < spec.shards; ++s) {
    auto backend = std::make_unique<Backend>();
    backend->path = DataPath(args, spec, s);
    mds::DatasetFileOptions file;
    file.dataset.num_rows = spec.rows;
    file.dataset.seed = args.data_seed;
    file.dataset.shard_index = s;
    file.dataset.shard_count = spec.shards;
    MDS_RETURN_NOT_OK(mds::WriteDatasetFile(file, backend->path));
    topo->backends.push_back(std::move(backend));
  }
  times->write_s = lap();

  // 2. Load them, mmap-served, as `mdsd --load` does.
  for (auto& b : topo->backends) {
    if (spec.pool_pages != 0) b->load_options.pool_pages = spec.pool_pages;
    auto loaded = mds::ServedDataset::Load(b->path, b->load_options);
    if (!loaded.ok()) return loaded.status();
    auto ds = std::make_shared<const mds::ServedDataset>(std::move(*loaded));
    b->generations.push_back({ds, ds->pool()->stats(), {}});
  }
  const mds::PointSet& points = topo->backends[0]->current()->points();
  if (spec.distinct != 0 && distinct->empty()) {
    *distinct = MakeDistinct(spec, points, args.seed);
  }
  times->load_s = lap();

  // 3. Start the servers (and the coordinator). Worker counts are explicit;
  //    everything else stays at the mdsd / mdsc binary defaults.
  for (auto& b : topo->backends) {
    mds::ServerConfig config;
    config.num_workers = kEngineWorkers / spec.shards;
    config.cache_bytes = kCacheBytes;
    b->server = std::make_unique<mds::QueryServer>(
        b->generations.back().dataset, config);
    Backend* raw = b.get();
    b->server->SetReloadHandler(
        [raw](const std::string& path)
            -> mds::Result<std::shared_ptr<mds::ServedDataset>> {
          auto next = mds::ServedDataset::Load(path.empty() ? raw->path : path,
                                               raw->load_options);
          if (!next.ok()) return next.status();
          auto ds = std::make_shared<mds::ServedDataset>(std::move(*next));
          std::lock_guard<std::mutex> lock(raw->mu);
          Generation& last = raw->generations.back();
          last.retired = last.dataset->pool()->stats();
          last.dataset.reset();
          raw->generations.push_back({ds, ds->pool()->stats(), {}});
          return ds;
        });
    MDS_RETURN_NOT_OK(b->server->Start());
  }
  if (spec.shards > 1) {
    mds::ShardMap map;
    for (auto& b : topo->backends) {
      map.shards.push_back({{"127.0.0.1", b->server->port()}});
    }
    topo->coordinator = std::make_unique<mds::Coordinator>(
        map, mds::CoordinatorConfig{});
    MDS_RETURN_NOT_OK(topo->coordinator->Start());
    topo->port = topo->coordinator->port();
  } else {
    topo->port = topo->backends[0]->server->port();
  }
  times->start_s = lap();

  // 4. Warm up: every distinct request once (fills the response cache), or
  //    a fixed count of fresh requests from separate warm-up streams.
  std::vector<RequestStream> warm;
  std::vector<size_t> warm_left(kClients, spec.warmup_requests / kClients);
  for (size_t t = 0; t < kClients; ++t) {
    warm.emplace_back(spec, points, nullptr, args.seed, 100 + t);
  }
  std::vector<size_t> cursor(kClients);
  for (size_t t = 0; t < kClients; ++t) cursor[t] = t;
  const NextFn next = [&](size_t t, Request* q) {
    if (!distinct->empty()) {
      if (cursor[t] >= distinct->size()) return false;
      *q = (*distinct)[cursor[t]];
      cursor[t] += kClients;
      return true;
    }
    if (warm_left[t] == 0) return false;
    --warm_left[t];
    *q = warm[t].Next();
    return true;
  };
  const LoopStats warmup = RunLoop(topo->port, next, 0, 0, nullptr);
  if (warmup.failed != 0) {
    return Status::Internal("warm-up saw " + std::to_string(warmup.failed) +
                            " failed requests");
  }
  times->warmup_s = lap();
  return topo;
}

// --- counters read from the running system ---------------------------------

struct Counters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t slab_allocations = 0;
  uint64_t slab_recycles = 0;
  uint64_t tail_copies = 0;
  uint64_t rejected_overload = 0;
  uint64_t in_flight_peak = 0;
  uint64_t shard_requests = 0;  // coordinator legs, summed over shards
  uint64_t leg_p50_us = 0;      // max over shards
  uint64_t leg_p99_us = 0;
  uint64_t pool_logical = 0;    // summed over backends and generations
  uint64_t pool_physical = 0;
  uint64_t pool_evictions = 0;
};

Counters ReadCounters(Topology* topo) {
  Counters c;
  for (auto& b : topo->backends) {
    const mds::protocol::ServerStatsSnapshot s = b->server->Stats();
    c.cache_hits += s.cache_hits;
    c.cache_misses += s.cache_misses;
    c.cache_evictions += s.cache_evictions;
    c.slab_allocations = s.slab_allocations;  // process-global slab pool
    c.slab_recycles = s.slab_recycles;
    c.tail_copies += s.reply_tail_copies;
    c.rejected_overload += s.rejected_overload;
    c.in_flight_peak = std::max(c.in_flight_peak, s.in_flight_peak);
    std::lock_guard<std::mutex> lock(b->mu);
    for (const Generation& g : b->generations) {
      const mds::BufferPoolStats now =
          g.dataset ? g.dataset->pool()->stats() : g.retired;
      c.pool_logical += now.logical_reads - g.load_base.logical_reads;
      c.pool_physical += now.physical_reads - g.load_base.physical_reads;
      c.pool_evictions += now.evictions - g.load_base.evictions;
    }
  }
  if (topo->coordinator) {
    const mds::protocol::ServerStatsSnapshot s = topo->coordinator->Stats();
    c.rejected_overload += s.rejected_overload;
    c.in_flight_peak = std::max(c.in_flight_peak, s.in_flight_peak);
    for (const auto& shard : s.shards) {
      c.shard_requests += shard.requests;
      c.leg_p50_us = std::max(c.leg_p50_us, shard.p50_us);
      c.leg_p99_us = std::max(c.leg_p99_us, shard.p99_us);
    }
  }
  return c;
}

// --- correctness -----------------------------------------------------------

bool SameAnswer(const Reply& a, const Reply& b) {
  if (a.row_count != b.row_count || a.objids != b.objids ||
      a.neighbors.size() != b.neighbors.size()) {
    return false;
  }
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    if (a.neighbors[i].id != b.neighbors[i].id ||
        std::memcmp(&a.neighbors[i].squared_distance,
                    &b.neighbors[i].squared_distance, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Checks `count` requests of `stream` through the topology: every reply
/// against the brute-force oracle; TABLESAMPLE replies exactly (a direct
/// server against a local TableSamplePath replay, a coordinator against
/// its shards' direct replies concatenated in shard order); and on a
/// sharded topology every other reply's answer fields against a direct
/// single-server reply.
Status RunChecks(Topology* topo, const Oracle& oracle,
                 uint16_t reference_port, RequestStream* stream,
                 size_t count) {
  auto client = Connect(topo->port, 0);
  if (!client) return Status::Unavailable("check client cannot connect");
  std::optional<mds::QueryClient> reference;
  std::vector<mds::QueryClient> shard_clients;
  if (topo->coordinator) {
    reference = Connect(reference_port, 0);
    if (!reference) return Status::Unavailable("reference server down");
    for (auto& b : topo->backends) {
      auto c = Connect(b->server->port(), 0);
      if (!c) return Status::Unavailable("shard server down");
      shard_clients.push_back(std::move(*c));
    }
  }
  for (size_t i = 0; i < count; ++i) {
    const Request q = stream->Next();
    const Reply reply = Issue(&*client, q);
    MDS_RETURN_NOT_OK(oracle.Check(q, reply));
    if (q.kind == Kind::kSample) {
      std::vector<int64_t> expect;
      if (topo->coordinator) {
        for (auto& sc : shard_clients) {
          const Reply part = Issue(&sc, q);
          if (!part.status.ok()) return part.status;
          expect.insert(expect.end(), part.objids.begin(), part.objids.end());
        }
        if (expect.size() > q.n) expect.resize(q.n);
      } else {
        auto ds = topo->backends[0]->current();
        mds::Rng rng(q.sample_seed);
        const mds::Box box(q.lo, q.hi);  // the path keeps a pointer to it
        mds::TableSamplePath path(ds->binding(), box, q.percent, q.n, &rng);
        auto local = mds::ExecuteAccessPath(&path);
        if (!local.ok()) return local.status();
        expect = local->objids;
      }
      if (expect != reply.objids) {
        return Status::Internal("TABLESAMPLE reply differs from its replay");
      }
    } else if (reference) {
      const Reply direct = Issue(&*reference, q);
      if (!direct.status.ok()) return direct.status;
      if (!SameAnswer(direct, reply)) {
        return Status::Internal(std::string("sharded ") + KindName(q.kind) +
                                " reply differs from the direct server's");
      }
    }
  }
  return Status::OK();
}

// --- probes for the traced run ---------------------------------------------

double HealthRttP50(uint16_t port) {
  auto client = Connect(port, 0);
  if (!client) return 0.0;
  std::vector<double> us;
  for (size_t i = 0; i < kHealthProbes; ++i) {
    const int64_t t0 = NowNs();
    if (!client->Health().ok()) continue;
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Percentile(&us, 50);
}

/// QueryEngine::ExecuteBatch wall time at 1 thread over wall time at 4
/// threads, over the planner-chosen paths of box-like requests on every
/// replay dataset (median of kBatchReps runs each, order alternated).
double BatchSpeedup(const Replayer& replayer, RequestStream* stream) {
  struct Item {
    const mds::ServedDataset* ds;
    mds::Box box;
    mds::Polyhedron poly;
    bool kd;
  };
  std::vector<Item> items;
  while (items.size() < kBatchQueries) {
    const Request q = stream->Next();
    if (q.kind != Kind::kCount && q.kind != Kind::kBox) continue;
    for (const auto& b : replayer.backends()) {
      const mds::ServedDataset* ds = b->dataset.get();
      mds::Box box(q.lo, q.hi);
      mds::Polyhedron poly = mds::Polyhedron::FromBox(box);
      mds::QueryPlanner planner;
      planner.AddPath(std::make_unique<mds::FullScanPath>(ds->binding(), box))
          .AddPath(std::make_unique<mds::KdTreePath>(ds->binding(), ds->tree(),
                                                     poly));
      auto best = planner.ChooseBest();
      items.push_back({ds, box, poly, best.ok() && *best == 1});
    }
  }
  auto run = [&](unsigned threads) {
    std::vector<std::unique_ptr<mds::AccessPath>> paths;
    for (const Item& it : items) {
      if (it.kd) {
        paths.push_back(std::make_unique<mds::KdTreePath>(
            it.ds->binding(), it.ds->tree(), it.poly));
      } else {
        paths.push_back(
            std::make_unique<mds::FullScanPath>(it.ds->binding(), it.box));
      }
    }
    mds::QueryEngine::BatchOptions options;
    options.num_threads = threads;
    const int64_t t0 = NowNs();
    auto results = mds::QueryEngine::ExecuteBatch(std::move(paths), options);
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    for (const auto& r : results) {
      if (!r.ok()) return -1.0;
    }
    return s;
  };
  std::vector<double> one, four;
  for (int rep = 0; rep < kBatchReps; ++rep) {
    if (rep % 2 == 0) {
      one.push_back(run(1));
      four.push_back(run(kEngineWorkers));
    } else {
      four.push_back(run(kEngineWorkers));
      one.push_back(run(1));
    }
  }
  const double t4 = Percentile(&four, 50);
  return t4 > 0.0 ? Percentile(&one, 50) / t4 : 0.0;
}

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("-- %s --\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

int Run(const Args& args, const std::string& fingerprint) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::printf("workload %s seed %llu data_seed %llu seconds %.3f trace %d "
              "clients %zu engine_workers %u\n",
              spec->name, (unsigned long long)args.seed,
              (unsigned long long)args.data_seed, args.seconds,
              args.trace ? 1 : 0, kClients, kEngineWorkers);

  // Set-up, three times; the last topology is kept and measured.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Topology> topo;
  std::vector<Request> distinct;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    topo.reset();
    SetupTimes times;
    auto built = SetUp(*spec, args, &distinct, &times);
    if (!built.ok()) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    topo = std::move(*built);
    std::printf("setup %d: write %.3f s load %.3f s start %.3f s warmup "
                "%.3f s total %.3f s\n",
                rep, times.write_s, times.load_s, times.start_s,
                times.warmup_s, times.Total());
    setups.push_back(times);
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& s : setups) totals.push_back(s.Total());
  const double setup_s = Median(totals);
  for (auto& b : topo->backends) SyncFile(b->path);

  auto served = topo->backends[0]->current();
  const mds::PointSet& points = served->points();
  const auto& table = *served->binding().table;
  std::printf("dataset: %llu rows, %llu table pages on backend 0, pool %zu "
              "pages, %u backend(s)\n",
              (unsigned long long)points.size(),
              (unsigned long long)table.num_pages(), served->pool()->capacity(),
              spec->shards);

  // The oracle's full catalog; a sharded topology also gets a direct
  // single server over it for reply-parity checks (neither is part of the
  // system under test, so neither counts in set-up time).
  std::shared_ptr<const mds::ServedDataset> full = served;
  std::unique_ptr<mds::QueryServer> reference;
  if (spec->shards > 1) {
    mds::DatasetConfig config;
    config.num_rows = spec->rows;
    config.seed = args.data_seed;
    auto built = mds::ServedDataset::Build(config);
    if (!built.ok()) return 1;
    full = std::make_shared<const mds::ServedDataset>(std::move(*built));
    mds::ServerConfig config_ref;
    config_ref.num_workers = kEngineWorkers;
    reference = std::make_unique<mds::QueryServer>(full, config_ref);
    if (!reference->Start().ok()) return 1;
  }
  const Oracle oracle(*full);
  const uint16_t reference_port = reference ? reference->port() : 0;

  // Stream digest: the first 1024 requests of every client stream.
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (size_t t = 0; t < kClients; ++t) {
    RequestStream s(*spec, points, &distinct, args.seed, t);
    for (int i = 0; i < 1024; ++i) digest = DigestRequest(s.Next(), digest);
  }
  std::printf("request stream digest %016llx\n", (unsigned long long)digest);

  bool correct = true;
  RequestStream check_before(*spec, points, &distinct, args.seed, 1000);
  Status checked =
      RunChecks(topo.get(), oracle, reference_port, &check_before,
                spec->check_requests);
  std::printf("checks before window: %s\n", checked.ToString().c_str());
  correct = correct && checked.ok();

  // The untraced window: the end-to-end metrics.
  std::vector<RequestStream> streams;
  for (size_t t = 0; t < kClients; ++t) {
    streams.emplace_back(*spec, points, &distinct, args.seed, t);
  }
  const NextFn next = [&](size_t t, Request* q) {
    *q = streams[t].Next();
    return true;
  };
  const int64_t window_ns = static_cast<int64_t>(args.seconds * 1e9);
  ResetPeakRss();
  const Counters before = ReadCounters(topo.get());
  const double cpu_before = CpuMs();
  LoopStats loop = RunLoop(topo->port, next, NowNs() + window_ns,
                           spec->reload_every, nullptr);
  const double cpu_ms = CpuMs() - cpu_before;
  const Counters after = ReadCounters(topo.get());

  std::vector<double> all_us = loop.AllLatencies();
  const double error_ratio =
      Ratio(static_cast<double>(loop.failed), static_cast<double>(loop.attempted));
  std::printf("window: %.3f s, %llu attempted, %llu ok, %llu failed "
              "(%llu transport), %zu reloads (%llu failed), error_ratio "
              "%.6f\n",
              loop.elapsed_s, (unsigned long long)loop.attempted,
              (unsigned long long)loop.ok, (unsigned long long)loop.failed,
              (unsigned long long)loop.transport_failures,
              loop.reload_ms.size(), (unsigned long long)loop.reloads_failed,
              error_ratio);
  std::printf("latency (us) over %zu OK replies: p90 %.1f p95 %.1f p99 %.1f "
              "p99.9 %.1f max %.1f\n",
              all_us.size(), Percentile(&all_us, 90), Percentile(&all_us, 95),
              Percentile(&all_us, 99), Percentile(&all_us, 99.9),
              Percentile(&all_us, 100));
  std::printf("ok per %.1f s slice:", kSliceNs / 1e9);
  for (uint64_t n : loop.ok_per_slice) std::printf(" %llu", (unsigned long long)n);
  std::printf("\n");
  std::printf("latency samples: all %zu", all_us.size());
  for (size_t k = 0; k < kNumKinds; ++k) {
    std::printf(", %s %zu", KindName(static_cast<Kind>(k)),
                loop.latency_us[k].size());
  }
  std::printf("\n");


  std::vector<Metric> layers;
  if (args.trace) {
    // The traced window continues the same client streams on the same
    // system; its requests are replayed layer by layer against replay
    // copies of the served datasets.
    std::vector<std::unique_ptr<ReplayBackend>> replay_backends;
    for (auto& b : topo->backends) {
      auto rb = std::make_unique<ReplayBackend>();
      auto copy = mds::ServedDataset::Load(b->path, b->load_options);
      if (!copy.ok()) return 1;
      rb->dataset = std::make_shared<const mds::ServedDataset>(std::move(*copy));
      rb->cache = std::make_unique<mds::ResponseCache>(kCacheBytes);
      replay_backends.push_back(std::move(rb));
    }
    Replayer replayer(std::move(replay_backends), spec->shards > 1);
    if (!distinct.empty()) {
      // Mirror the warm-up: the server's cache holds every distinct reply.
      ReplayCounters scratch;
      mds::Rng rng(args.seed);
      for (size_t i = 0; i < distinct.size(); ++i) {
        replayer.Replay(distinct[i], i, nullptr, &scratch, &rng);
      }
      // A reload happened in the untraced window on the server side; the
      // mirror starts the traced window warm at the server's epoch.
    }
    Tracing tracing;
    tracing.replayer = &replayer;
    tracing.seed = args.seed;
    tracing.counters.resize(kClients);
    for (size_t t = 0; t < kClients; ++t) {
      tracing.buffers.push_back(std::make_unique<SpanBuffer>(kSpansPerThread));
    }
    LoopStats traced = RunLoop(topo->port, next, NowNs() + window_ns,
                               spec->reload_every, &tracing);
    ReplayCounters rc;
    for (const ReplayCounters& c : tracing.counters) rc.Add(c);
    std::map<std::string, SpanSummary> summary = Summarise(tracing.buffers);
    auto median_of = [&](const char* name) {
      auto it = summary.find(name);
      return it == summary.end() ? 0.0 : Percentile(&it->second.durations_ns, 50);
    };
    // One file per workload: a later traced run replaces it.
    const std::string trace_path =
        args.work_dir + "/trace-" + spec->name + ".tsv";
    const bool written = WriteSpans(tracing.buffers, trace_path);
    std::printf("traced window: %.3f s, %llu requests, spans written to %s%s\n",
                traced.elapsed_s, (unsigned long long)traced.attempted,
                trace_path.c_str(), written ? "" : " (write failed)");
    double traced_total_self = 0.0;
    for (const auto& [name, s] : summary) traced_total_self += s.self_ns;
    std::printf("-- self time per layer (traced window) --\n");
    for (auto& [name, s] : summary) {
      std::printf("  %-20s n=%-8zu median %10.0f ns  self %10.3f ms  %5.1f%%\n",
                  name.c_str(), s.durations_ns.size(),
                  Percentile(&s.durations_ns, 50), s.self_ns / 1e6,
                  100.0 * Ratio(s.self_ns, traced_total_self));
    }

    // Probes after the traced window.
    const double health_us = HealthRttP50(topo->port);
    RequestStream batch_stream(*spec, points, &distinct, args.seed, 2000);
    const double speedup = BatchSpeedup(replayer, &batch_stream);
    std::vector<double> reload_ms = loop.reload_ms;
    if (reload_ms.empty()) {
      // No reloads in this workload's mix: time one hot swap after the
      // window so the reload path is measured everywhere.
      auto client = Connect(topo->port, 0);
      mds::QueryOptions slow;
      slow.deadline_ms = 60000;
      const int64_t r0 = NowNs();
      if (client && client->Reload("", slow).ok()) {
        reload_ms.push_back(static_cast<double>(NowNs() - r0) / 1e6);
      } else {
        correct = false;
      }
    }

    const double box_like_requests =
        static_cast<double>(loop.queries_by_kind[0] + loop.queries_by_kind[1] +
                            loop.queries_by_kind[3]);
    const double lookups =
        double(after.cache_hits - before.cache_hits) +
        double(after.cache_misses - before.cache_misses);
    const double queries = static_cast<double>(loop.attempted -
                                               loop.reload_ms.size());
    double leg_p50 = double(after.leg_p50_us);
    double leg_p99 = double(after.leg_p99_us);
    double legs_per_request = Ratio(
        double(after.shard_requests - before.shard_requests), queries);
    if (!topo->coordinator) {
      // A direct server is a one-leg topology: its leg is the request.
      auto it = summary.find("wire.request");
      std::vector<double> wire =
          it == summary.end() ? std::vector<double>{} : it->second.durations_ns;
      leg_p50 = Percentile(&wire, 50) / 1e3;
      leg_p99 = Percentile(&wire, 99) / 1e3;
      legs_per_request = 1.0;
    }
    const double untraced_p50 = Percentile(&all_us, 50);
    layers = {
        {"server.health_rtt_p50_us", health_us, "us"},
        {"slab.recycle_ratio",
         Ratio(double(after.slab_recycles - before.slab_recycles),
               double(after.slab_allocations - before.slab_allocations)),
         "ratio"},
        {"slab.allocations",
         double(after.slab_allocations - before.slab_allocations), "count"},
        {"server.tail_copies_per_miss",
         Ratio(double(after.tail_copies - before.tail_copies),
               double(after.cache_misses - before.cache_misses)),
         "ratio"},
        {"server.in_flight_peak", double(after.in_flight_peak), "count"},
        {"server.rejected_overload",
         double(after.rejected_overload - before.rejected_overload), "count"},
        {"protocol.decode_ns", median_of("protocol.decode"), "ns"},
        {"protocol.encode_ns", median_of("protocol.encode"), "ns"},
        {"protocol.reply_bytes_mean",
         Ratio(double(rc.reply_bytes), double(rc.replies)), "bytes"},
        {"crc32c.frame_ns", median_of("crc32c.frame"), "ns"},
        {"cache.hit_ratio",
         Ratio(double(after.cache_hits - before.cache_hits), lookups),
         "ratio"},
        {"cache.lookups", lookups, "count"},
        {"cache.lookup_ns", median_of("cache.lookup"), "ns"},
        {"cache.evictions",
         double(after.cache_evictions - before.cache_evictions), "count"},
        {"cache.repopulate_misses", double(rc.repopulate_misses), "count"},
        {"reload.ms", Median(reload_ms), "ms"},
        {"coord.legs_per_request", legs_per_request, "ratio"},
        {"coord.leg_p50_us", leg_p50, "us"},
        {"coord.leg_p99_us", leg_p99, "us"},
        {"coord.merge_ns", median_of("coord.merge"), "ns"},
        {"plan.choose_ns", median_of("plan.choose"), "ns"},
        {"plan.kd_share", Ratio(double(rc.kd_chosen), double(rc.planned)),
         "ratio"},
        {"plan.page_estimate_ratio",
         Ratio(rc.estimated_pages, double(rc.planned_pages_fetched)),
         "ratio"},
        {"scan.kd_us", median_of("scan.kd") / 1e3, "us"},
        {"scan.fullscan_us", median_of("scan.fullscan") / 1e3, "us"},
        {"scan.sample_us", median_of("scan.sample") / 1e3, "us"},
        {"scan.rows_scanned_per_row_returned",
         Ratio(double(rc.rows_scanned), double(rc.rows_returned)), "ratio"},
        {"scan.pages_fetched_per_query",
         Ratio(double(rc.pages_fetched), double(rc.scanned_queries)),
         "pages"},
        {"scan.rows_per_s", Ratio(double(rc.rows_scanned), rc.scan_ns / 1e9),
         "1/s"},
        {"knn.us", median_of("knn") / 1e3, "us"},
        {"knn.points_examined_per_query",
         Ratio(double(rc.knn_points), double(rc.knn_queries)), "count"},
        {"knn.leaves_examined_per_query",
         Ratio(double(rc.knn_leaves), double(rc.knn_queries)), "count"},
        {"engine.batch_speedup", speedup, "x"},
        {"pool.hit_ratio",
         1.0 - Ratio(double(after.pool_physical - before.pool_physical),
                     double(after.pool_logical - before.pool_logical)),
         "ratio"},
        {"pool.logical_reads",
         double(after.pool_logical - before.pool_logical), "count"},
        {"pool.misses_per_query",
         Ratio(double(after.pool_physical - before.pool_physical),
               box_like_requests),
         "count"},
        {"pool.fetch_hit_ns", median_of("pool.fetch_hit"), "ns"},
        {"pool.fetch_miss_ns", median_of("pool.fetch_miss"), "ns"},
        {"pool.evictions",
         double(after.pool_evictions - before.pool_evictions), "count"},
        {"crc.page_verify_ns", median_of("crc.page_verify"), "ns"},
        {"setup.write_s", setup_median(&SetupTimes::write_s), "s"},
        {"setup.load_s", setup_median(&SetupTimes::load_s), "s"},
        {"setup.warmup_s", setup_median(&SetupTimes::warmup_s), "s"},
        {"trace.overhead_ratio",
         Ratio(median_of("wire.request") / 1e3, untraced_p50), "ratio"},
    };
  }

  RequestStream check_after(*spec, points, &distinct, args.seed, 1001);
  checked = RunChecks(topo.get(), oracle, reference_port, &check_after,
                      spec->check_requests);
  std::printf("checks after window: %s\n", checked.ToString().c_str());
  correct = correct && checked.ok();

  topo.reset();
  if (reference) reference->Shutdown();
  for (uint32_t s = 0; s < spec->shards; ++s) {
    std::remove(DataPath(args, *spec, s).c_str());
  }

  std::vector<Metric> e2e = {
      {"throughput_rps", loop.Throughput(), "1/s"},
      {"latency_p50_us", Percentile(&all_us, 50), "us"},
      {"latency_p99_us", Percentile(&all_us, 99), "us"},
      {"count_p50_us", Percentile(&loop.latency_us[0], 50), "us"},
      {"box_p50_us", Percentile(&loop.latency_us[1], 50), "us"},
      {"knn_p50_us", Percentile(&loop.latency_us[2], 50), "us"},
      {"sample_p50_us", Percentile(&loop.latency_us[3], 50), "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"cpu_ms_per_kreq", Ratio(cpu_ms, double(loop.ok) / 1e3), "ms"},
  };
  PrintMetrics("end to end (untraced window)", e2e);
  std::printf("  %-36s %16.6f ratio (%llu of %llu attempted)\n", "error_ratio",
              error_ratio, (unsigned long long)loop.failed,
              (unsigned long long)loop.attempted);
  if (args.trace) PrintMetrics("per layer", layers);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", (unsigned long long)loop.attempted,
              (unsigned long long)loop.failed,
              MetricsJson(args.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N [--seconds S] "
                 "[--trace 0|1] [--data-seed N] [--work-dir DIR]\n");
    return 2;
  }
  const bool no_simd = std::getenv("MDS_NO_SIMD") != nullptr;
  const bool simd_tier = std::getenv("MDS_SIMD_TIER") != nullptr;
  const bool query_threads = std::getenv("MDS_QUERY_THREADS") != nullptr;
  // Worker counts are explicit below; pin the library default too, so the
  // environment cannot change the parallel kd-tree build in set-up.
  setenv("MDS_QUERY_THREADS", "4", 1);
  return servebench::Run(
      args, servebench::Fingerprint(args, no_simd, simd_tier, query_threads));
}
