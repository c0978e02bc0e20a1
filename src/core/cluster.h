#ifndef GTHINKER_CORE_CLUSTER_H_
#define GTHINKER_CORE_CLUSTER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/config.h"
#include "core/job_report.h"
#include "core/master.h"
#include "core/worker.h"
#include "graph/graph.h"
#include "graph/layout.h"
#include "graph/loader.h"
#include "net/comm_hub.h"
#include "net/transport_tcp.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/phase_profile.h"
#include "obs/sampler.h"
#include "obs/status_server.h"
#include "storage/mini_dfs.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker {

/// Declared here (not via apps/kernels.h — core does not include apps
/// headers); defined in apps/kernels.cc, which every job binary links.
void SetKernelBitsetMaxVertices(int n);

/// Builds a Worker's vertex value from the in-memory input graph. Overloads
/// cover the shipped value types; apps with custom values add their own.
inline void BuildVertexValue(const Graph& graph,
                             const std::vector<Label>* /*labels*/, VertexId v,
                             AdjList* out) {
  *out = graph.Neighbors(v);
}
inline void BuildVertexValue(const Graph& graph,
                             const std::vector<Label>* labels, VertexId v,
                             LabeledAdj* out) {
  GT_CHECK(labels != nullptr) << "LabeledAdj vertices need Job::labels";
  out->label = (*labels)[v];
  out->adj.clear();
  out->adj.reserve(graph.Neighbors(v).size());
  for (VertexId u : graph.Neighbors(v)) {
    out->adj.push_back(LabeledNbr{u, (*labels)[u]});
  }
}

/// A job description: configuration, the app (comper factory + optional
/// trimmer), and the input graph — either in memory or as adjacency-format
/// part files on a MiniDfs.
template <typename ComperT>
struct Job {
  using WorkerT = Worker<ComperT>;

  JobConfig config;
  typename WorkerT::ComperFactory comper_factory;
  typename WorkerT::TrimmerFn trimmer;  // optional

  // -- input: exactly one of --
  const Graph* graph = nullptr;
  const std::vector<Label>* labels = nullptr;  // with graph, for LabeledAdj
  MiniDfs* dfs = nullptr;          // with dfs_graph_dir
  std::string dfs_graph_dir;

  // -- fault tolerance --
  MiniDfs* checkpoint_dfs = nullptr;  // required when checkpointing/resuming
  int64_t resume_epoch = -1;          // >=0: restore this checkpoint first

  // -- output --
  /// Enables Comper::Output; every worker writes record-batch files here.
  /// Read them back with ReadOutputRecords().
  std::string output_dir;
};

/// Loads every record batch a job wrote under `dir` (any worker, any order).
inline Status ReadOutputRecords(const std::string& dir,
                                std::vector<std::string>* records) {
  records->clear();
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return Status::Ok();
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::vector<std::string> batch;
    GT_RETURN_IF_ERROR(SpillFile::ReadBatch(entry.path().string(), &batch));
    for (std::string& r : batch) records->push_back(std::move(r));
  }
  if (ec) return Status::IoError("list " + dir + ": " + ec.message());
  return Status::Ok();
}

/// Result of a run: stats plus the final global aggregate.
template <typename ComperT>
struct RunResult {
  JobStats stats;
  typename ComperT::AggT result;
};

/// Maps an app aggregate back to original vertex IDs after a hub-last
/// layout renumbering (JobConfig::layout.reorder). The generic overload is
/// a no-op: counts (triangles, k-cliques, maximal cliques, matches) are
/// invariant under any vertex relabeling. Vertex-set aggregates — the
/// maximum-clique and quasi-clique member lists — get each ID translated
/// through the old<->new map and are re-sorted, so callers always see
/// original input IDs regardless of the knob.
template <typename T>
inline void MapResultToOriginalIds(T* /*result*/, const VertexLayout&) {}
inline void MapResultToOriginalIds(std::vector<VertexId>* result,
                                   const VertexLayout& layout) {
  for (VertexId& v : *result) v = layout.ToOld(v);
  std::sort(result->begin(), result->end());
}

/// Runs jobs: one rank runtime over a pluggable hub. `Run` hosts every
/// worker plus the master (core/master.h) in this process over in-process
/// mailboxes; `RunDistributed` hosts one worker rank per OS process over
/// TCP, with the master on rank 0. Layout, loading, restore, the master
/// loop, the drain, observability and the artifacts are one code path; only
/// building the hub and the TCP entry checks differ.
template <typename ComperT>
class Cluster {
 public:
  using WorkerT = Worker<ComperT>;
  using TaskT = typename ComperT::TaskT;
  using AggT = typename ComperT::AggT;
  using VertexT = typename TaskT::VertexT;

  static RunResult<ComperT> Run(const Job<ComperT>& job) {
    return RunRank(job, kAllRanks);
  }

  /// One-rank-per-process execution over the TCP transport (paper §V-A run
  /// on real processes instead of threads). Every process calls this with
  /// the same Job — graph included; each rank keeps only its hash-owned
  /// slice — and its own `rank` in [0, num_workers). Rank 0 also hosts the
  /// master: it returns the aggregate and the counters folded from every
  /// final report, and alone runs the sampler and status server and writes
  /// the artifacts. Other ranks return ComperT::AggZero() and their local
  /// counters. Each rank's JobStats::metrics holds its own worker and hub.
  static RunResult<ComperT> RunDistributed(const Job<ComperT>& caller_job,
                                           int rank) {
    Job<ComperT> job = caller_job;
    job.config.comm.transport = CommConfig::Transport::kTcp;
    GT_CHECK_OK(job.config.comm.LoadHostfile());
    GT_CHECK(job.graph != nullptr)
        << "RunDistributed loads from an in-memory graph";
    GT_CHECK(job.resume_epoch < 0)
        << "checkpoint restore is in-process only (see JobConfig::Validate)";
    GT_CHECK(rank >= 0 && rank < job.config.num_workers)
        << "rank " << rank << " outside [0, num_workers)";
    return RunRank(std::move(job), rank);
  }

 private:
  /// `rank` of an in-process run: this process hosts every worker.
  static constexpr int kAllRanks = -1;
  /// Event-ring capacity each local worker adds with span tracing on.
  static constexpr size_t kSpanEventsPerWorker = size_t{1} << 16;

  /// The rank runtime: runs `rank`'s worker (every worker for kAllRanks)
  /// and, where worker 0 lives, the master.
  static RunResult<ComperT> RunRank(Job<ComperT> job, int rank) {
    GT_CHECK_OK(job.config.Validate());
    // Kernels are free functions without a config handle; the dense/sparse
    // switch is process-global (apps/kernels.h).
    SetKernelBitsetMaxVertices(job.config.kernel_bitset_max_vertices);
    GT_CHECK(job.comper_factory != nullptr);
    GT_CHECK(job.graph != nullptr || job.dfs != nullptr)
        << "job needs an input graph";
    if (job.config.checkpoint_interval_us > 0 || job.resume_epoch >= 0) {
      GT_CHECK(job.checkpoint_dfs != nullptr);
    }

    // Hub-last layout (JobConfig::layout): renumber once before any worker
    // exists. Everything downstream — OwnerOf placement, T_cache routing,
    // the wire — speaks new IDs; the map is kept to translate the final
    // aggregate back to original IDs. HubLast is deterministic, so every
    // TCP rank computes the identical map from the shared input graph.
    VertexLayout layout;
    Graph reordered_graph;
    std::vector<Label> reordered_labels;
    if (job.config.layout.reorder) {
      GT_CHECK(job.graph != nullptr)
          << "layout.reorder needs an in-memory input graph (DFS inputs "
             "pre-apply a layout via GraphIo::LoadAdjacency / "
             "WritePartitionedAdjacency overloads)";
      layout = VertexLayout::HubLast(*job.graph);
      reordered_graph = layout.Apply(*job.graph);
      if (job.labels != nullptr) {
        reordered_labels = layout.ApplyLabels(*job.labels);
        job.labels = &reordered_labels;
      }
      job.graph = &reordered_graph;
      job.config.layout.cache_segment_shift = DeriveCacheSegmentShift(
          reordered_graph, job.config.layout.llc_segment_bytes,
          job.config.cache_num_buckets);
    }
    const JobConfig& config = job.config;

    std::string spill_root = config.spill_root;
    const bool own_spill_root = spill_root.empty();
    if (own_spill_root) spill_root = MakeTempDir("spill");

    // Local workers are [first, first + count); the master endpoint lives
    // in the process that hosts worker 0.
    const int num_workers = config.num_workers;
    const int first = rank == kAllRanks ? 0 : rank;
    const int count = rank == kAllRanks ? num_workers : 1;
    const bool hosts_master = first == 0;
    CommHub hub = MakeHub(config, rank);
    GT_CHECK_OK(hub.Start());

    // The job's one event ring (obs/flight_recorder.h), shared by the local
    // workers and the master and declared before them so it outlives every
    // thread recording into it: `flight_recorder_events` for scheduler
    // transitions, plus kSpanEventsPerWorker per local worker for per-task
    // events when span tracing is on. Capacity 0 means no ring. The crash
    // handlers dump it on a fatal check or SIGTERM/SIGINT, the master on a
    // budget exit; JobStats::spans and the Chrome trace read it after.
    obs::FlightRecorder flight(
        static_cast<size_t>(config.flight_recorder_events) +
            (config.enable_span_tracing ? kSpanEventsPerWorker * count : 0),
        config.flight_dump_dir);
    if (flight.enabled()) obs::FlightRecorder::InstallCrashHandlers();

    const auto make_dir = [](const std::string& dir) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      GT_CHECK(!ec) << "cannot create " << dir << ": " << ec.message();
    };
    if (!job.output_dir.empty()) make_dir(job.output_dir);
    std::vector<std::unique_ptr<WorkerT>> workers;
    workers.reserve(count);
    for (int w = first; w < first + count; ++w) {
      const std::string spill_dir = spill_root + "/w" + std::to_string(w);
      make_dir(spill_dir);
      auto& worker = workers.emplace_back(std::make_unique<WorkerT>(
          w, config, &hub, job.comper_factory, job.trimmer, spill_dir));
      worker->SetFlightRecorder(&flight);
      worker->SetCheckpointDfs(job.checkpoint_dfs);
      worker->SetOutputDir(job.output_dir);
    }

    LoadInput(job, first, &workers);

    AggT global = ComperT::AggZero();
    uint64_t next_ckpt_epoch = 1;
    if (job.resume_epoch >= 0) {
      global = Restore(job, &workers);
      next_ckpt_epoch = static_cast<uint64_t>(job.resume_epoch) + 1;
    }

    for (auto& worker : workers) worker->Start();

    // Gauge sampler (JobConfig::metrics_sample_ms): a master-side thread
    // polling each local worker's cheap probes plus its inbox backlog into
    // bounded time-series (obs::kWorkerSampledGauges). Reads are single
    // relaxed atomics, so it perturbs nothing; joined before teardown.
    constexpr size_t kNumSeries = obs::kNumWorkerSampledGauges;
    std::vector<std::vector<obs::BoundedSeries>> sampled(count);
    std::atomic<bool> sampler_stop{false};
    std::thread sampler;
    if (hosts_master && config.metrics_sample_ms > 0) {
      for (int i = 0; i < count; ++i) {
        sampled[i].reserve(kNumSeries);
        for (size_t s = 0; s < kNumSeries; ++s) {
          sampled[i].emplace_back(obs::kWorkerSampledGauges[s], first + i);
        }
      }
      sampler = std::thread([&] {
        while (!sampler_stop.load(std::memory_order_acquire)) {
          const int64_t t = hub.NowUs();
          for (int i = 0; i < count; ++i) {
            // Probe order must match obs::kWorkerSampledGauges.
            const int64_t values[kNumSeries] = {
                workers[i]->SampleCacheSize(),
                workers[i]->SampleLiveTasks(),
                workers[i]->SampleQueueDepth(),
                workers[i]->SampleDiskTasks(),
                hub.InboxDepth(first + i),
            };
            for (size_t s = 0; s < kNumSeries; ++s) {
              sampled[i][s].Append(t, values[s]);
            }
          }
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config.metrics_sample_ms));
        }
      });
    }

    RunResult<ComperT> out;
    JobStats& stats = out.stats;
    Timer wall;

    // Live status endpoint (knob `status_port`; 0 = off, -1 = ephemeral) on
    // the master host, covering its local workers. Both callbacks read only
    // relaxed-atomic probes and mutex-frozen registry snapshots, so a scrape
    // never perturbs the run. Stopped before the workers are destroyed.
    obs::StatusServer status_server(
        [&]() {
          std::vector<obs::MetricsSnapshot> snaps;
          snaps.reserve(static_cast<size_t>(count) + 2);
          for (auto& worker : workers) {
            snaps.push_back(worker->MetricsSnapshot());
          }
          snaps.push_back(hub.MetricsSnapshot());
          // Synthesized job scope: the same cheap probes the gauge sampler
          // polls, exported live so dashboards get queue/cache/task depth
          // without deriving them from per-worker internals.
          obs::MetricsSnapshot job;
          job.scope = "job";
          job.gauges.emplace_back("uptime_us", wall.ElapsedMicros());
          for (int i = 0; i < count; ++i) {
            const auto s = workers[i]->SampleLiveStatus();
            const std::string l = "{worker=" + std::to_string(first + i) + "}";
            job.gauges.emplace_back("tasks_live" + l, s.live_tasks);
            job.gauges.emplace_back("queue_depth" + l, s.queue_depth);
            job.gauges.emplace_back("disk_tasks" + l, s.disk_tasks);
            job.gauges.emplace_back("cache_size" + l, s.cache_size);
            job.gauges.emplace_back("inbox_depth" + l,
                                    hub.InboxDepth(first + i));
          }
          snaps.push_back(std::move(job));
          return snaps;
        },
        [&]() {
          obs::JsonWriter w;
          const auto field = [&w](const char* key, int64_t value) {
            w.Key(key);
            w.Int(value);
          };
          w.BeginObject();
          w.Key("job");
          w.String("gthinker");
          w.Key("uptime_s");
          w.Double(wall.ElapsedSeconds());
          field("num_workers", num_workers);
          w.Key("transport");
          w.String(hub.TransportName());
          int64_t live = 0, pending = 0, disk = 0, cache_entries = 0;
          int64_t hits = 0, requests = 0;
          int64_t spawned = 0, finished = 0, spilled = 0, stolen = 0;
          int64_t splits = 0;
          w.Key("workers");
          w.BeginArray();
          for (int i = 0; i < count; ++i) {
            const auto s = workers[i]->SampleLiveStatus();
            live += s.live_tasks;
            pending += s.queue_depth;
            disk += s.disk_tasks;
            cache_entries += s.cache_size;
            hits += s.cache_hits;
            requests += s.cache_requests;
            spawned += s.tasks_spawned;
            finished += s.tasks_finished;
            spilled += s.spilled_batches;
            stolen += s.stolen_batches;
            splits += s.splits;
            w.BeginObject();
            field("worker", first + i);
            field("tasks_live", s.live_tasks);
            field("queue_depth", s.queue_depth);
            field("disk_tasks", s.disk_tasks);
            field("cache_size", s.cache_size);
            field("inbox_depth", hub.InboxDepth(first + i));
            field("peak_mem_bytes", s.peak_mem_bytes);
            w.Key("comper_utilization");
            w.Double(s.comper_rounds > 0
                         ? 1.0 - static_cast<double>(s.comper_idle_rounds) /
                                     static_cast<double>(s.comper_rounds)
                         : 0.0);
            w.EndObject();
          }
          w.EndArray();
          w.Key("tasks");
          w.BeginObject();
          field("live", live);
          field("pending", pending);
          field("spilled", disk);
          w.EndObject();
          w.Key("cache");
          w.BeginObject();
          field("entries", cache_entries);
          w.Key("hit_rate");
          w.Double(requests > 0 ? static_cast<double>(hits) /
                                      static_cast<double>(requests)
                                : 0.0);
          w.EndObject();
          w.Key("activity");
          w.BeginObject();
          field("tasks_spawned", spawned);
          field("tasks_finished", finished);
          field("spilled_batches", spilled);
          field("stolen_batches", stolen);
          field("splits", splits);
          field("steal_orders", hub.SentCount(MsgType::kStealOrder));
          w.EndObject();
          w.EndObject();
          return w.Take();
        });
    if (hosts_master && config.status_port != 0) {
      const Status bound = status_server.Start(config.status_port);
      if (bound.ok()) {
        stats.status_port = status_server.port();
        LOG_INFO << "status server listening on 127.0.0.1:"
                 << stats.status_port;
      } else {
        // A busy port must not kill the job; it just runs unobserved.
        LOG_ERROR << "status server: " << bound.ToString();
      }
    }

    // Off the master host the workers just follow the master's broadcasts;
    // their comm threads exit once the drain proved the wire empty.
    if (hosts_master) {
      Master<ComperT> master(config, &hub, &flight, job.checkpoint_dfs,
                             &stats);
      global = master.Run(std::move(global), next_ckpt_epoch, wall);
    }
    for (auto& worker : workers) worker->Join();

    if (sampler.joinable()) {
      sampler_stop.store(true, std::memory_order_release);
      sampler.join();
      for (auto& worker_series : sampled) {
        for (obs::BoundedSeries& series : worker_series) {
          stats.timeseries.push_back(series.Take());
        }
      }
    }
    stats.elapsed_s = wall.ElapsedSeconds();

    if (!stats.timed_out && stats.ledger.dropped == 0) {
      // Clean completion also means a provably empty wire. Over tcp every
      // rank certifies its own transport drained: both FLUSH rounds
      // completed, send queues flushed, inboxes empty, nothing unprocessed.
      Timer drain_wait;
      while (hub.InFlightCount() != 0 && drain_wait.ElapsedSeconds() < 30.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      GT_CHECK_EQ(hub.InFlightCount(), 0)
          << "clean termination left undrained messages on the wire";
    }

    stats.batches_sent = hub.TotalBatchesSent();
    stats.bytes_sent = hub.TotalBytesSent();
    // Per-scope metric snapshots: every local worker's registry (with the
    // cache / task roll-ups folded in) plus the hub's wire view, taken after
    // the transport stops so its teardown accounting (any
    // transport.batches_abandoned frames) reaches the job report.
    for (auto& worker : workers) worker->FinalizeObs();
    hub.Shutdown();
    for (auto& worker : workers) {
      stats.metrics.push_back(worker->MetricsSnapshot());
      stats.peak_mem_bytes.push_back(worker->PeakMemBytes());
      stats.max_peak_mem_bytes =
          std::max(stats.max_peak_mem_bytes, worker->PeakMemBytes());
      stats.records_output += worker->RecordsOutput();
      if (!hosts_master) {
        // No final reports reach this rank: report its own counters.
        const auto s = worker->SampleLiveStatus();
        stats.tasks_spawned += s.tasks_spawned;
        stats.tasks_finished += s.tasks_finished;
        stats.spilled_batches += s.spilled_batches;
        stats.stolen_batches += s.stolen_batches;
      }
    }
    stats.metrics.push_back(hub.MetricsSnapshot());

    // Split/lineage roll-up across the per-worker registries: how much
    // big-task splitting actually happened (absent counters read -1).
    for (const obs::MetricsSnapshot& snap : stats.metrics) {
      stats.splits += std::max<int64_t>(0, snap.CounterValue("split.count"));
      stats.split_children +=
          std::max<int64_t>(0, snap.CounterValue("split.children"));
      if (const obs::HistogramSnapshot* depth =
              snap.FindHistogram("split.depth")) {
        stats.split_depth_max = std::max(stats.split_depth_max, depth->max);
      }
    }

    if (config.enable_span_tracing) {
      // Hub-clock timestamps share one epoch across workers, so a sort
      // gives true job-wide ordering (execute events carry their start).
      for (const obs::Event& e : flight.Snapshot()) {
        if (obs::IsSpanKind(e.kind)) stats.spans.push_back(e);
      }
      std::stable_sort(stats.spans.begin(), stats.spans.end(),
                       [](const obs::Event& a, const obs::Event& b) {
                         return a.t_us < b.t_us;
                       });
      stats.span_events_total = flight.span_events_total();
    }

    // Phase-attribution profile: where every comper's wall time went, from
    // the disjoint loop timers, plus the straggler table mined from execute
    // spans (empty unless span tracing was on).
    if (config.enable_phase_profile) {
      stats.phases = obs::BuildPhaseProfile(stats.metrics, stats.spans);
    }

    status_server.Stop();
    workers.clear();
    if (own_spill_root) RemoveTree(spill_root);

    if (hosts_master) {
      const Status artifacts =
          WriteObservabilityArtifacts("gthinker", config, stats);
      if (!artifacts.ok()) {
        LOG_ERROR << "observability artifacts: " << artifacts.ToString();
      }
    }

    // A no-op off the master host, which returns AggZero().
    if (!layout.empty()) MapResultToOriginalIds(&global, layout);
    out.result = std::move(global);
    return out;
  }

  /// Builds the hub: in-process mailboxes for every endpoint, or this
  /// rank's endpoint of the TCP mesh.
  static CommHub MakeHub(const JobConfig& config, int rank) {
    const int endpoints = config.num_workers + 1;  // workers + master
    if (rank == kAllRanks) return CommHub(endpoints, config.comm.net);
    net::TcpTransportOptions topts;
    topts.rank = rank;
    topts.num_workers = config.num_workers;
    topts.hosts = config.comm.hosts;
    topts.send_buffer_max_bytes = config.comm.tcp_send_buffer_max_bytes;
    topts.connect_timeout_ms = config.comm.tcp_connect_timeout_ms;
    topts.backoff_initial_ms = config.comm.tcp_backoff_initial_ms;
    topts.backoff_max_ms = config.comm.tcp_backoff_max_ms;
    topts.io_threads = config.comm.tcp_io_threads;
    return CommHub(endpoints,
                   std::make_unique<net::TcpTransport>(std::move(topts)));
  }

  /// Walks the input once and hands each vertex to its hash owner when the
  /// owner is local, `workers` holding workers [first, first + size). Over
  /// TCP each rank so materializes only its own slice: per-rank memory
  /// stays O(|V|/p) for the vertex table, and the read-only input graph is
  /// shared copy-on-write when the launcher forks.
  static void LoadInput(const Job<ComperT>& job, int first,
                        std::vector<std::unique_ptr<WorkerT>>* workers) {
    const int num_workers = job.config.num_workers;
    // nullptr when v's owner runs in another process.
    const auto local_owner = [&](VertexId v) -> WorkerT* {
      const size_t slot =
          static_cast<size_t>(WorkerT::OwnerOf(v, num_workers) - first);
      return slot < workers->size() ? (*workers)[slot].get() : nullptr;
    };
    if (job.graph != nullptr) {
      const Graph& g = *job.graph;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        WorkerT* owner = local_owner(v);
        if (owner == nullptr) continue;
        VertexT vertex;
        vertex.id = v;
        BuildVertexValue(g, job.labels, v, &vertex.value);
        owner->AddLocalVertex(std::move(vertex));
      }
    } else {
      // Adjacency-format part files on the DFS; the driver parses lines and
      // routes each vertex to its hash owner (the shuffle a real HDFS load
      // performs). Only AdjList-valued vertices are supported on this path.
      std::vector<std::string> keys;
      GT_CHECK_OK(job.dfs->List(job.dfs_graph_dir, &keys));
      GT_CHECK(!keys.empty()) << "no part files under " << job.dfs_graph_dir;
      for (const std::string& key : keys) {
        std::string blob;
        GT_CHECK_OK(job.dfs->Get(key, &blob));
        std::istringstream lines(blob);
        for (std::string line; std::getline(lines, line);) {
          if (line.empty()) continue;
          VertexT vertex;
          GT_CHECK_OK(ParseDfsLine(line, &vertex));
          if (WorkerT* owner = local_owner(vertex.id)) {
            owner->AddLocalVertex(std::move(vertex));
          }
        }
      }
    }
    for (auto& worker : *workers) worker->FinalizeLoad();
  }

  static Status ParseDfsLine(const std::string& line,
                             Vertex<AdjList>* vertex) {
    return GraphIo::ParseAdjacencyLine(line, &vertex->id, &vertex->value);
  }
  template <typename V>
  static Status ParseDfsLine(const std::string&, V*) {
    return Status::InvalidArgument(
        "DFS loading supports AdjList vertex values only");
  }

  static AggT Restore(const Job<ComperT>& job,
                      std::vector<std::unique_ptr<WorkerT>>* workers) {
    const std::string prefix = "ckpt/" + std::to_string(job.resume_epoch);
    std::string meta;
    GT_CHECK_OK(job.checkpoint_dfs->Get(prefix + "/meta", &meta));
    Deserializer des(meta);
    uint64_t epoch = 0;
    int32_t nw = 0;
    GT_CHECK_OK(des.Read(&epoch));
    GT_CHECK_OK(des.Read(&nw));
    GT_CHECK_EQ(nw, job.config.num_workers)
        << "checkpoint taken with a different worker count";
    AggT global{};
    GT_CHECK_OK(Codec<AggT>::Decode(des, &global));
    for (int w = 0; w < job.config.num_workers; ++w) {
      std::string blob;
      GT_CHECK_OK(
          job.checkpoint_dfs->Get(prefix + "/worker_" + std::to_string(w),
                                  &blob));
      GT_CHECK_OK((*workers)[w]->RestoreFromCheckpoint(blob));
    }
    return global;
  }
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_CLUSTER_H_
