#ifndef GTHINKER_CORE_CONFIG_H_
#define GTHINKER_CORE_CONFIG_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "net/message.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "obs/sampler.h"
#include "util/status.h"

namespace gthinker {

/// Communication knobs, grouped under JobConfig::comm (DESIGN.md "Transport
/// layer"): which Transport backend moves batches, batching/flush policy for
/// the pull path, and the backend-specific tuning.
struct CommConfig {
  enum class Transport {
    kInProc,  // per-endpoint in-memory mailboxes; supports simulated latency
    kTcp,     // framed sockets, one process per rank (Cluster::RunDistributed)
  };
  Transport transport = Transport::kInProc;

  /// transport=tcp: file with one "host:port" line per rank (rank = line
  /// number; '#' comments and blank lines ignored). Ignored when `hosts` is
  /// already populated.
  std::string hostfile;
  /// Parsed hostfile (or set programmatically); size must equal num_workers.
  std::vector<std::string> hosts;

  /// Vertex IDs per request batch appended to the sending module.
  int request_batch_size = 256;
  /// Byte budget per open request batch: the pull coalescer flushes a
  /// destination when its encoded kVertexRequest (u64 count + 4 bytes/ID)
  /// reaches this, even below request_batch_size — keeps request payloads
  /// inside one pooled slab class and bounds latency under wide fan-out.
  int64_t request_flush_bytes = 2048;
  /// Byte cap for the responder-side Γ-sharing cache (memoized serialized
  /// vertex records; core/response_cache.h). 0 disables memoization; on
  /// overflow the cache resets wholesale and rebuilds from the hot set.
  int64_t response_cache_bytes = 4 << 20;
  /// Receive-wait slice while request batches are open (the comm thread
  /// otherwise waits event-driven up to the progress cadence).
  int64_t poll_us = 200;
  /// Simulated interconnect for transport=inproc (0/0 = instantaneous);
  /// rejected under tcp, where the wire is real.
  NetConfig net;

  // ---- tcp backend tuning (net/transport_tcp.h) ----
  /// Per-peer buffered-send cap; Send() blocks (backpressure) above it.
  int64_t tcp_send_buffer_max_bytes = 4 << 20;
  /// Start() fails if the full-mesh handshake is not done within this.
  int64_t tcp_connect_timeout_ms = 10'000;
  /// Reconnect backoff window on transient socket errors.
  int64_t tcp_backoff_initial_ms = 50;
  int64_t tcp_backoff_max_ms = 1'000;
  /// IO threads driving the peer sockets (peer rank q -> thread q % n).
  /// 1 = the classic single poll loop; raise on many-peer clusters so one
  /// hot link cannot serialize the others.
  int tcp_io_threads = 1;

  /// Fills `hosts` from `hostfile` (no-op when hosts is already set).
  Status LoadHostfile() {
    if (!hosts.empty() || hostfile.empty()) return Status::Ok();
    std::ifstream in(hostfile);
    if (!in) return Status::IoError("cannot open hostfile: " + hostfile);
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
        line.pop_back();
      }
      if (line.empty() || line[0] == '#') continue;
      hosts.push_back(line);
    }
    if (hosts.empty()) {
      return Status::InvalidArgument("hostfile has no host entries: " +
                                     hostfile);
    }
    return Status::Ok();
  }
};

/// All framework knobs, with the paper's defaults (§V, §VI "System
/// Parameters"). Capacities are scaled-down consistent with the laptop-scale
/// datasets; the benches sweep them exactly like Tables V(a)/V(b).
struct JobConfig {
  // ---- cluster shape ----
  int num_workers = 1;
  int compers_per_worker = 2;

  // ---- remote-vertex cache (paper §V-A) ----
  /// c_cache: capacity of T_cache in vertex entries (paper default 2M; our
  /// graphs are ~1000x smaller, so default 100K keeps the same ratio).
  int64_t cache_capacity = 100'000;
  /// α: GC overflow tolerance; eviction starts when s_cache > (1+α)·c_cache.
  double cache_overflow_alpha = 0.2;
  /// k: number of hash buckets in T_cache (paper: 10,000).
  int cache_num_buckets = 1024;
  /// δ: per-thread uncommitted delta bound for the approximate s_cache.
  int cache_counter_delta = 10;
  /// ABLATION ONLY (bench/ablation_ztable): disable the Z-table; GC then
  /// scans whole Γ-tables under the bucket lock to find evictable entries.
  bool cache_use_z_table = true;

  // ---- task management (paper §V-B) ----
  /// C: task-batch size; Q_task refills when |Q_task| <= C, back to 2C.
  int task_batch_size = 150;
  /// Q_task capacity in batches (paper: 3 => 3C tasks).
  int task_queue_capacity_batches = 3;
  /// D: cap on |T_task| + |B_task| per comper (paper default 8·C).
  int inflight_task_cap = 8 * 150;

  // ---- big-task decomposition (codesign follow-up, PAPERS.md) ----
  /// Master switch for task splitting. Off reproduces the pre-split engine
  /// exactly (the ablation baseline for bench/split_micro): no budget checks,
  /// no steal-aware splitting, bit-identical results and schedules.
  bool task_split_enabled = true;
  /// Per-iteration compute budget in microseconds (0 = off). When a
  /// Compute() call overruns it, the app's yield hook fires and the task is
  /// handed back to the scheduler as split children (divide-and-conquer
  /// timeout re-spawn).
  int64_t task_time_budget_us = 0;
  /// Candidate-set size threshold (0 = off): a task whose top-level
  /// candidate range is at least this large is split *before* mining, so one
  /// hub task never monopolizes a comper for a full budget period first.
  int64_t task_split_max_candidates = 0;
  /// Fan-out of one Split() call: the parent narrows to the first shard and
  /// emits fanout-1 new children (so the ledger registers fanout-1
  /// creations). Must be >= 2 when splitting is enabled.
  int task_split_fanout = 4;
  /// Steal-aware donation (0 = off): when a donor pops a pending task whose
  /// SplitWeight() is at least this many candidates, it splits the task in
  /// two and ships the halves (with their pulled Γ) instead of one monster.
  int64_t task_split_steal_weight = 0;

  // ---- graph layout & placement (DESIGN.md "Graph layout & placement") ----
  struct LayoutConfig {
    /// Hub-last (degree-ascending, ties by original ID ascending) vertex
    /// renumbering, applied once at load time. Under the Γ_> orientation
    /// this is the classic degeneracy ordering: every task's candidate set
    /// is bounded by the core number instead of the max degree, and a hub's
    /// trimmed row keeps only its higher-degree peers, so the
    /// constantly-pulled rows are tiny and stay cache-resident. Hub rows
    /// land contiguous at the highest IDs. App results are mapped back to
    /// original IDs before they reach the caller; counts are bit-identical
    /// with the knob on or off.
    bool reorder = false;
    /// Target bytes of cached adjacency data per renumbered-ID segment for
    /// the VertexCache bucket router. With reorder on, consecutive new IDs
    /// whose rows together span roughly this many bytes share one bucket
    /// (route = Mix64(id >> shift) & mask), so a hot segment stays within
    /// one bucket's lock and the LLC. Sized to a slice of the last-level
    /// cache; default 2 MiB.
    int64_t llc_segment_bytes = 2ll << 20;
    /// Derived by Cluster::Run from llc_segment_bytes and the loaded
    /// graph's average row size — not user-set (Validate rejects values
    /// outside [0, 30]). 0 = plain per-ID Mix64 routing, bit-identical to
    /// the unsegmented router.
    int cache_segment_shift = 0;
  };
  LayoutConfig layout;

  // ---- communication (grouped; see CommConfig above) ----
  CommConfig comm;

  // ---- compute kernels (apps/kernels.h dense/sparse switch) ----
  /// Largest compact-graph vertex count for which the serial mining kernels
  /// run in bitset row form (BBMC coloring, bitset Bron–Kerbosch P/X,
  /// word-parallel k-clique); bigger task subgraphs fall back to the CSR
  /// sorted-list path with identical results. Caps the O(n²/8)-byte
  /// adjacency matrix a task may allocate (default 2048 ≈ 512 KB); 0
  /// disables the bitset kernels. Cluster::Run installs the value
  /// process-wide via SetKernelBitsetMaxVertices().
  int kernel_bitset_max_vertices = 2048;

  // ---- scheduling / control ----
  /// Period of worker progress reports to the master (drives aggregator sync,
  /// stealing and termination detection; paper syncs aggregator at 1s).
  int64_t progress_interval_us = 2'000;
  /// GC wake-up period.
  int64_t gc_interval_us = 1'000;
  bool enable_stealing = true;
  /// Shutdown-drain safety deadline: after observing kTerminate and
  /// quiescing its compers, a worker keeps servicing the wire until it is
  /// provably empty (CommHub::InFlightCount()==0). This bounds that wait
  /// against a pathologically wedged peer; anything still undelivered at the
  /// deadline is counted in TaskLedger::dropped rather than silently lost.
  int64_t drain_timeout_us = 10'000'000;
  /// ABLATION ONLY (bench/ablation_refill): invert the refill priority to
  /// spawn-new-tasks-first instead of the paper's spilled-files-first rule,
  /// to measure how the rule bounds disk-resident tasks.
  bool refill_spawn_first = false;

  // ---- observability (docs/OBSERVABILITY.md) ----
  /// Period of the master's gauge sampler (0 = off): every metrics_sample_ms
  /// it snapshots per-worker cache occupancy, live tasks, queue depth, inbox
  /// backlog and disk-resident tasks into JobStats::timeseries.
  int64_t metrics_sample_ms = 0;
  /// Record per-task lifecycle spans (spawn/pending/ready/execute/finish
  /// with task IDs) into the job's event ring, returned in JobStats::spans
  /// and exportable as a Chrome trace (obs::WriteChromeTrace / trace_path).
  /// Adds 65536 events per local worker to the ring's capacity.
  bool enable_span_tracing = false;
  /// When non-empty, Cluster::Run writes the JSON run report here.
  std::string report_path;
  /// When non-empty (and enable_span_tracing), writes the Chrome trace here.
  std::string trace_path;
  /// Live status server (obs/status_server.h): 0 = off, > 0 = bind that
  /// port on 127.0.0.1, -1 = ephemeral port (tests; discover via
  /// JobStats::status_port or obs::StatusServer::Current()). Serves
  /// /metrics (Prometheus), /status.json and /healthz for the duration of
  /// Cluster::Run.
  int status_port = 0;
  /// Events per job the always-on flight recorder (the job's event ring,
  /// obs/flight_recorder.h) keeps for scheduler transitions. The ring's
  /// capacity is this plus 65536 per local worker with span tracing on; a
  /// capacity of 0 means no ring. It is dumped to JSON on fatal ledger
  /// violations, timeout exits and SIGTERM/SIGINT.
  int64_t flight_recorder_events = 4096;
  /// Directory for this job's flight-recorder dumps; empty = the
  /// GT_FLIGHT_DUMP_DIR environment variable, else stderr.
  std::string flight_dump_dir;
  /// Record per-comper phase timers (compute / pull-wait / queue-wait /
  /// spill / steal) and emit the post-run phase-attribution profile
  /// (JobStats::phases, report "phases" section). Costs one clock read per
  /// idle round; on by default.
  bool enable_phase_profile = true;

  // ---- durability ----
  /// Directory for task spill files; empty = fresh temp dir per job.
  std::string spill_root;
  /// Checkpoint period (0 = off) and target directory (MiniDfs root).
  int64_t checkpoint_interval_us = 0;
  std::string checkpoint_dir;

  // ---- limits ----
  /// Wall-clock budget in seconds; 0 = unlimited. When exceeded the master
  /// aborts the job and JobStats::timed_out is set (the paper's ">24 hr").
  double time_budget_s = 0.0;

  /// Checks internal consistency; Cluster::Run validates before starting.
  Status Validate() const {
    if (num_workers <= 0) {
      return Status::InvalidArgument("num_workers must be positive");
    }
    if (num_workers > (1 << 16)) {
      return Status::InvalidArgument("num_workers exceeds 65536");
    }
    if (compers_per_worker <= 0 || compers_per_worker > (1 << 16)) {
      // Comper IDs pack into 16 bits of the task ID (core/protocol.h).
      return Status::InvalidArgument("compers_per_worker out of [1, 65536]");
    }
    if (cache_capacity <= 0) {
      return Status::InvalidArgument("cache_capacity must be positive");
    }
    if (cache_overflow_alpha < 0.0) {
      return Status::InvalidArgument("cache_overflow_alpha must be >= 0");
    }
    if (cache_num_buckets <= 0) {
      return Status::InvalidArgument("cache_num_buckets must be positive");
    }
    if (cache_counter_delta <= 0) {
      return Status::InvalidArgument("cache_counter_delta must be positive");
    }
    if (task_batch_size <= 0) {
      return Status::InvalidArgument("task_batch_size must be positive");
    }
    if (task_queue_capacity_batches < 2) {
      // Spilling takes C tasks off the tail while keeping C in flight.
      return Status::InvalidArgument(
          "task_queue_capacity_batches must be >= 2");
    }
    if (inflight_task_cap < task_batch_size) {
      return Status::InvalidArgument(
          "inflight_task_cap must be >= task_batch_size");
    }
    if (task_time_budget_us < 0) {
      return Status::InvalidArgument("task_time_budget_us must be >= 0");
    }
    if (task_split_max_candidates < 0) {
      return Status::InvalidArgument(
          "task_split_max_candidates must be >= 0");
    }
    if (task_split_steal_weight < 0) {
      return Status::InvalidArgument("task_split_steal_weight must be >= 0");
    }
    if (task_split_enabled && task_split_fanout < 2) {
      return Status::InvalidArgument(
          "task_split_fanout must be >= 2 when task_split_enabled");
    }
    if (layout.llc_segment_bytes <= 0) {
      return Status::InvalidArgument(
          "layout.llc_segment_bytes must be positive");
    }
    if (layout.cache_segment_shift < 0 || layout.cache_segment_shift > 30) {
      return Status::InvalidArgument(
          "layout.cache_segment_shift out of [0, 30] (derived by "
          "Cluster::Run; do not set by hand)");
    }
    if (comm.request_batch_size <= 0) {
      return Status::InvalidArgument("request_batch_size must be positive");
    }
    if (comm.request_flush_bytes < 16) {
      // Must fit at least the u64 count header plus one VertexId.
      return Status::InvalidArgument("request_flush_bytes must be >= 16");
    }
    if (comm.response_cache_bytes < 0) {
      return Status::InvalidArgument("response_cache_bytes must be >= 0");
    }
    if (comm.poll_us <= 0) {
      return Status::InvalidArgument("comm poll_us must be positive");
    }
    if (kernel_bitset_max_vertices < 0) {
      return Status::InvalidArgument(
          "kernel_bitset_max_vertices must be >= 0");
    }
    if (comm.net.latency_us < 0 || comm.net.bandwidth_mbps < 0.0) {
      return Status::InvalidArgument("net parameters must be non-negative");
    }
    if (comm.transport == CommConfig::Transport::kTcp) {
      if (comm.hosts.empty() && comm.hostfile.empty()) {
        return Status::InvalidArgument(
            "transport=tcp requires a hostfile (or comm.hosts)");
      }
      if (!comm.hosts.empty() &&
          static_cast<int>(comm.hosts.size()) != num_workers) {
        return Status::InvalidArgument(
            "comm.hosts size must equal num_workers");
      }
      if (comm.net.latency_us != 0 || comm.net.bandwidth_mbps != 0.0) {
        return Status::InvalidArgument(
            "simulated-latency knobs (net.*) are an in-process transport "
            "feature; the tcp wire is real");
      }
      if (checkpoint_interval_us != 0) {
        return Status::InvalidArgument(
            "checkpointing is not supported under transport=tcp (the "
            "quiesce relies on cluster-global in-flight counts)");
      }
      if (comm.tcp_send_buffer_max_bytes < 4096) {
        return Status::InvalidArgument(
            "tcp_send_buffer_max_bytes must be >= 4096");
      }
      if (comm.tcp_connect_timeout_ms <= 0 ||
          comm.tcp_backoff_initial_ms <= 0 ||
          comm.tcp_backoff_max_ms < comm.tcp_backoff_initial_ms) {
        return Status::InvalidArgument(
            "tcp timeout/backoff knobs must be positive, with "
            "tcp_backoff_max_ms >= tcp_backoff_initial_ms");
      }
      if (comm.tcp_io_threads < 1 || comm.tcp_io_threads > 64) {
        return Status::InvalidArgument("tcp_io_threads out of [1, 64]");
      }
    }
    if (progress_interval_us <= 0) {
      return Status::InvalidArgument("progress_interval_us must be positive");
    }
    if (gc_interval_us <= 0) {
      return Status::InvalidArgument("gc_interval_us must be positive");
    }
    if (time_budget_s < 0.0 || checkpoint_interval_us < 0) {
      return Status::InvalidArgument("budgets must be non-negative");
    }
    if (drain_timeout_us <= 0) {
      return Status::InvalidArgument("drain_timeout_us must be positive");
    }
    if (metrics_sample_ms < 0) {
      return Status::InvalidArgument("metrics_sample_ms must be >= 0");
    }
    if (status_port < -1 || status_port > 65535) {
      return Status::InvalidArgument("status_port out of [-1, 65535]");
    }
    if (flight_recorder_events < 0) {
      return Status::InvalidArgument("flight_recorder_events must be >= 0");
    }
    if (!trace_path.empty() && !enable_span_tracing) {
      return Status::InvalidArgument(
          "trace_path needs enable_span_tracing");
    }
    return Status::Ok();
  }
};

/// Outcome of one job run.
struct JobStats {
  double elapsed_s = 0.0;
  bool timed_out = false;

  // Peak tracked bytes per worker and the max over workers (the paper's
  // "peak VM memory, taking the maximum over all machines").
  std::vector<int64_t> peak_mem_bytes;
  int64_t max_peak_mem_bytes = 0;

  // Throughput counters summed over workers.
  int64_t tasks_spawned = 0;
  int64_t task_iterations = 0;
  int64_t tasks_finished = 0;
  int64_t spilled_batches = 0;
  int64_t stolen_batches = 0;
  int64_t vertex_requests = 0;
  int64_t cache_hits = 0;
  int64_t cache_evictions = 0;
  /// Comper rounds that processed no task (push and pop both empty/blocked):
  /// the direct measure of the CPU idle time the design minimizes.
  int64_t comper_idle_rounds = 0;
  /// Total comper scheduling rounds (idle + busy), for ComperUtilization().
  int64_t comper_rounds = 0;
  /// Total VertexCache lookups (hits + misses), for CacheHitRate().
  int64_t cache_requests = 0;
  /// kStealOrder batches the master issued, for StealEfficiency().
  int64_t steal_orders = 0;

  // Big-task decomposition activity, summed over workers (PR 6 counters
  // split.count / split.children; max depth from the split.depth histogram).
  int64_t splits = 0;
  int64_t split_children = 0;
  int64_t split_depth_max = 0;

  // Wire totals from the hub.
  int64_t batches_sent = 0;
  int64_t bytes_sent = 0;

  // Number of checkpoints committed.
  int64_t checkpoints = 0;

  // Task-conservation accounting, summed over workers (see TaskLedger).
  // The master verifies at termination that the ledger balances — i.e.
  //   ledger.ExpectedLive() == tasks_live_at_exit
  // and on a clean (non-timeout) run that tasks_live_at_exit == 0, so
  // spawned + restored == finished. tasks_lost records the discrepancy and
  // is always 0 when Cluster::Run returns (a leak aborts the job).
  TaskLedger ledger;
  int64_t tasks_live_at_exit = 0;
  int64_t tasks_lost = 0;
  // Messages workers serviced after kTerminate (previously dropped).
  int64_t drained_messages = 0;

  // Records emitted through Comper::Output.
  int64_t records_output = 0;

  // ---- observability payloads ----
  /// Per-scope metric snapshots: one per worker ("worker<i>") plus the hub
  /// ("hub"). Always populated (recording is lock-free counters).
  std::vector<obs::MetricsSnapshot> metrics;
  /// Sampled gauge time-series (only when metrics_sample_ms > 0).
  std::vector<obs::TimeSeries> timeseries;
  /// Span-kind events of the job's ring from the local workers,
  /// hub-clock-ordered (only when enable_span_tracing); span_events_total
  /// counts all recorded.
  std::vector<obs::Event> spans;
  int64_t span_events_total = 0;
  /// Post-run phase-attribution profile (only when enable_phase_profile):
  /// per-worker / per-comper compute vs. wait decomposition plus straggler
  /// table; also serialized as the report's "phases" section.
  obs::PhaseProfile phases;
  /// Bound status-server port for this run (0 when the server was off or
  /// failed to bind); resolves the -1 ephemeral knob to the real port.
  int status_port = 0;

  // ---- derived health indicators ----
  /// Fraction of VertexCache lookups served from Γ-table, [0,1]; -1 when no
  /// lookups happened.
  double CacheHitRate() const {
    return cache_requests > 0
               ? static_cast<double>(cache_hits) / cache_requests
               : -1.0;
  }

  /// Donated task batches actually received per steal order the master
  /// issued; -1 when stealing never triggered. Below 1.0 means orders went
  /// out to workers that had nothing left to give.
  double StealEfficiency() const {
    return steal_orders > 0
               ? static_cast<double>(stolen_batches) / steal_orders
               : -1.0;
  }

  /// 1 − idle_rounds / rounds over all compers, [0,1]; -1 when no rounds
  /// were counted.
  double ComperUtilization() const {
    return comper_rounds > 0
               ? 1.0 - static_cast<double>(comper_idle_rounds) / comper_rounds
               : -1.0;
  }

  /// Human-readable one-screen digest (examples print this after a run).
  std::string Summary() const;
};

inline std::string JobStats::Summary() const {
  auto pct = [](double v) {
    if (v < 0.0) return std::string("n/a");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", v * 100.0);
    return std::string(buf);
  };
  auto ratio = [](double v) {
    if (v < 0.0) return std::string("n/a");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return std::string(buf);
  };
  std::string s;
  char line[160];
  std::snprintf(line, sizeof(line), "elapsed: %.3f s%s\n", elapsed_s,
                timed_out ? " (TIMED OUT)" : "");
  s += line;
  std::snprintf(line, sizeof(line),
                "tasks: %lld spawned, %lld finished, %lld iterations\n",
                static_cast<long long>(tasks_spawned),
                static_cast<long long>(tasks_finished),
                static_cast<long long>(task_iterations));
  s += line;
  std::snprintf(line, sizeof(line),
                "cache: hit rate %s (%lld hits / %lld requests), "
                "%lld evictions\n",
                pct(CacheHitRate()).c_str(),
                static_cast<long long>(cache_hits),
                static_cast<long long>(cache_requests),
                static_cast<long long>(cache_evictions));
  s += line;
  std::snprintf(line, sizeof(line),
                "compers: utilization %s (%lld idle / %lld rounds)\n",
                pct(ComperUtilization()).c_str(),
                static_cast<long long>(comper_idle_rounds),
                static_cast<long long>(comper_rounds));
  s += line;
  std::snprintf(line, sizeof(line),
                "stealing: efficiency %s (%lld batches / %lld orders)\n",
                ratio(StealEfficiency()).c_str(),
                static_cast<long long>(stolen_batches),
                static_cast<long long>(steal_orders));
  s += line;
  std::snprintf(line, sizeof(line),
                "wire: %lld batches, %lld bytes; spills: %lld batches\n",
                static_cast<long long>(batches_sent),
                static_cast<long long>(bytes_sent),
                static_cast<long long>(spilled_batches));
  s += line;
  std::snprintf(line, sizeof(line),
                "memory: peak %lld bytes (max over workers); output: %lld "
                "records\n",
                static_cast<long long>(max_peak_mem_bytes),
                static_cast<long long>(records_output));
  s += line;
  std::snprintf(line, sizeof(line),
                "splits: %lld (%lld children, max depth %lld); live at exit: "
                "%lld\n",
                static_cast<long long>(splits),
                static_cast<long long>(split_children),
                static_cast<long long>(split_depth_max),
                static_cast<long long>(tasks_live_at_exit));
  s += line;
  if (!phases.empty()) s += phases.HumanTable();
  return s;
}

}  // namespace gthinker

#endif  // GTHINKER_CORE_CONFIG_H_
