#ifndef GTHINKER_OBS_FLIGHT_RECORDER_H_
#define GTHINKER_OBS_FLIGHT_RECORDER_H_

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/sharded_ring.h"
#include "util/logging.h"

namespace gthinker::obs {

/// Everything a job records, in one vocabulary. The span kinds trace one
/// task through the paper's Fig. 7 state machine: a healthy task reads
/// spawn -> (pending -> ready)* -> execute* -> finish, and loaded marks a
/// task re-entering memory from a spill file (it gets a fresh span id — the
/// disk round-trip intentionally breaks the span). The remaining kinds are
/// batch-granularity scheduler transitions (one per spawn batch, spill
/// file, steal shipment, progress report or drain phase), cheap enough to
/// record always.
enum class EventKind : uint8_t {
  // Span kinds: recorded only with JobConfig::enable_span_tracing, except
  // kSplit, which is always recorded.
  kSpawn = 0,
  kPending = 1,
  kReady = 2,
  kExecute = 3,  // carries dur_us: one compute() iteration
  kFinish = 4,
  kLoaded = 5,
  kSplit = 6,  // task = parent span, a = children, b = child split depth
  // Job-structure kinds.
  kSpawnBatch = 7,    // a = tasks spawned in the batch
  kSpillWrite = 8,    // a = tasks written to one spill file
  kSpillLoad = 9,     // a = tasks loaded back from one spill file
  kStealDonate = 10,  // a = tasks donated, b = destination worker
  kStealReceive = 11,  // a = tasks received, b = source worker
  kLedger = 12,       // a = ExpectedLive(), b = live tasks (progress cadence)
  kDrain = 13,        // a = drain phase (see worker DrainAndReport)
  kCheckpoint = 14,   // a = checkpoint epoch
  kTimeout = 15,      // master hit the time budget; a = elapsed seconds
  kTerminate = 16,    // worker saw kTerminate
};

/// Per-task kinds, recorded only with JobConfig::enable_span_tracing.
inline bool IsTaskKind(EventKind kind) { return kind < EventKind::kSplit; }

/// Kinds that make up JobStats::spans and the Chrome trace: the per-task
/// kinds plus kSplit.
inline bool IsSpanKind(EventKind kind) { return kind <= EventKind::kSplit; }

inline const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSpawn:
      return "spawn";
    case EventKind::kPending:
      return "pending";
    case EventKind::kReady:
      return "ready";
    case EventKind::kExecute:
      return "execute";
    case EventKind::kFinish:
      return "finish";
    case EventKind::kLoaded:
      return "loaded";
    case EventKind::kSplit:
      return "split";
    case EventKind::kSpawnBatch:
      return "spawn_batch";
    case EventKind::kSpillWrite:
      return "spill_write";
    case EventKind::kSpillLoad:
      return "spill_load";
    case EventKind::kStealDonate:
      return "steal_donate";
    case EventKind::kStealReceive:
      return "steal_receive";
    case EventKind::kLedger:
      return "ledger";
    case EventKind::kDrain:
      return "drain";
    case EventKind::kCheckpoint:
      return "checkpoint";
    case EventKind::kTimeout:
      return "timeout";
    case EventKind::kTerminate:
      return "terminate";
  }
  return "unknown";
}

/// One recorded event. Timestamps come from the hub clock, so events from
/// every worker and the master share one epoch and interleave correctly.
struct Event {
  int64_t t_us = 0;
  int64_t dur_us = 0;  // only kExecute carries a duration
  uint64_t task_id = 0;  // span id (span kinds only)
  /// Span id of the task this one was split from (0 = not a split child):
  /// the kSpawn of a split child carries it, so a trace viewer can stitch
  /// the decomposition tree.
  uint64_t parent_task_id = 0;
  int32_t worker = -1;  // -1 for the master
  int32_t comper = -1;  // -1 for worker-level events
  EventKind kind = EventKind::kSpawn;
  int64_t a = 0;
  int64_t b = 0;
};

/// The job's one event ring: a bounded ShardedRing of Events that the
/// Chrome trace, JobStats::spans and the crash dump all read. Construction
/// registers the ring in a process-global registry so the crash paths —
/// which cannot reach the job's stack — can find every live job's ring;
/// destruction unregisters. Each ring dumps to its own job's directory.
///
/// Recording cost is one relaxed fetch_add plus a sharded spinlock push
/// (see ShardedRing); the batch-granularity job-structure kinds add one
/// more relaxed fetch_add.
class FlightRecorder {
 public:
  static constexpr int64_t kForever = std::numeric_limits<int64_t>::max();

  /// A capacity of 0 means no ring: Record is a no-op and nothing dumps.
  /// `dump_dir` empty means "GT_FLIGHT_DUMP_DIR, else stderr".
  explicit FlightRecorder(size_t capacity, std::string dump_dir = "")
      : enabled_(capacity > 0),
        dump_dir_(std::move(dump_dir)),
        ring_(capacity == 0 ? 1 : capacity) {
    if (enabled_) Register(this);
  }

  ~FlightRecorder() {
    if (enabled_) Unregister(this);
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Records `e`, which the caller stamped with hub time.
  void Record(const Event& e) {
    if (!enabled_) return;
    if (!IsSpanKind(e.kind)) {
      job_events_.fetch_add(1, std::memory_order_relaxed);
    }
    ring_.Record(e);
  }

  /// Total events ever recorded (including overwritten ones).
  int64_t total() const { return ring_.total(); }

  /// Span-kind events ever recorded (including overwritten ones).
  int64_t span_events_total() const {
    return ring_.total() - job_events_.load(std::memory_order_relaxed);
  }

  /// Retained events in arrival order, oldest first.
  std::vector<Event> Snapshot() const { return ring_.Snapshot(); }

  /// Writes this ring's state as one JSON object value, leaving out events
  /// stamped after `until_us`.
  void WriteJson(JsonWriter* w, int64_t until_us = kForever) const {
    std::vector<Event> events = ring_.Snapshot();
    std::erase_if(events,
                  [until_us](const Event& e) { return e.t_us > until_us; });
    w->BeginObject();
    w->Key("recorded_total");
    w->Int(ring_.total());
    w->Key("retained");
    w->Int(static_cast<int64_t>(events.size()));
    w->Key("events");
    w->BeginArray();
    for (const Event& e : events) {
      w->BeginObject();
      w->Key("t_us");
      w->Int(e.t_us);
      w->Key("kind");
      w->String(EventKindName(e.kind));
      w->Key("worker");
      w->Int(e.worker);
      if (e.comper >= 0) {
        w->Key("comper");
        w->Int(e.comper);
      }
      if (IsSpanKind(e.kind)) {
        w->Key("task");
        w->UInt(e.task_id);
      }
      if (e.kind == EventKind::kExecute) {
        w->Key("dur_us");
        w->Int(e.dur_us);
      }
      w->Key("a");
      w->Int(e.a);
      w->Key("b");
      w->Int(e.b);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }

  std::string DumpJson() const {
    JsonWriter w;
    WriteJson(&w);
    return w.Take();
  }

  /// Dumps this ring's events up to `until_us` as one JSON document:
  /// to `<dump dir>/gt_flight_<pid>_<n>.json` when the job (or
  /// GT_FLIGHT_DUMP_DIR) names a directory, else to stderr. Returns true
  /// when a file was written. Deliberately avoids the logging layer — this
  /// runs inside the fatal path.
  bool WriteDump(const char* reason, int64_t until_us = kForever) const {
    if (!enabled_) return false;
    if (reason == nullptr) reason = "";
    JsonWriter w;
    w.BeginObject();
    w.Key("reason");
    w.String(reason);
    w.Key("pid");
    w.Int(static_cast<int64_t>(::getpid()));
    w.Key("recorders");
    w.BeginArray();
    WriteJson(&w, until_us);
    w.EndArray();
    w.EndObject();
    const std::string body = w.Take();

    std::string dir = dump_dir_;
    if (dir.empty()) {
      const char* env = std::getenv("GT_FLIGHT_DUMP_DIR");
      if (env != nullptr) dir = env;
    }
    if (dir.empty()) {
      std::fprintf(stderr, "[flight-recorder] %s\n", body.c_str());
      std::fflush(stderr);
      return false;
    }
    static std::atomic<int> dump_seq{0};
    const std::string path =
        dir + "/gt_flight_" + std::to_string(::getpid()) + "_" +
        std::to_string(dump_seq.fetch_add(1, std::memory_order_relaxed)) +
        ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "[flight-recorder] cannot open %s; dump follows\n%s\n",
                   path.c_str(), body.c_str());
      std::fflush(stderr);
      return false;
    }
    out << body;
    out.close();
    std::fprintf(stderr, "[flight-recorder] wrote crash dump %s (reason: %s)\n",
                 path.c_str(), reason);
    std::fflush(stderr);
    return true;
  }

  /// Dumps every live ring, each to its own job's directory. Returns true
  /// when any file was written.
  static bool WriteCrashDump(const char* reason) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    bool wrote = false;
    for (const FlightRecorder* rec : Registry()) {
      if (rec->WriteDump(reason)) wrote = true;
    }
    return wrote;
  }

  /// Installs the fatal-log hook (GT_CHECK / LOG_FATAL) and SIGTERM/SIGINT
  /// handlers that dump all live rings before the process dies. The signal
  /// path re-raises with the default disposition after dumping, so exit
  /// codes are unchanged. Idempotent; called from Cluster::Run only when the
  /// job has a ring. (The handlers allocate and lock — not strictly
  /// async-signal-safe, a documented best-effort trade for a dependency-free
  /// dump on the way out.)
  static void InstallCrashHandlers() {
    static std::once_flag once;
    std::call_once(once, [] {
      SetFatalHook([](const char* message) { WriteCrashDump(message); });
      std::signal(SIGTERM, &FlightRecorder::HandleSignal);
      std::signal(SIGINT, &FlightRecorder::HandleSignal);
    });
  }

 private:
  static void Register(FlightRecorder* rec) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    Registry().push_back(rec);
  }

  static void Unregister(FlightRecorder* rec) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    std::vector<FlightRecorder*>& regs = Registry();
    for (size_t i = 0; i < regs.size(); ++i) {
      if (regs[i] == rec) {
        regs.erase(regs.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }

  static void HandleSignal(int sig) {
    WriteCrashDump(sig == SIGTERM ? "SIGTERM" : "SIGINT");
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }

  static std::mutex& RegistryMutex() {
    static std::mutex mutex;
    return mutex;
  }

  static std::vector<FlightRecorder*>& Registry() {
    static std::vector<FlightRecorder*> registry;
    return registry;
  }

  const bool enabled_;
  const std::string dump_dir_;
  ShardedRing<Event> ring_;
  /// Job-structure (non-span) events ever recorded, so span_events_total()
  /// needs no counter on the per-task path.
  std::atomic<int64_t> job_events_{0};
};

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_FLIGHT_RECORDER_H_
