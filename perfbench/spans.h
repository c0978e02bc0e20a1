#ifndef GTHINKER_PERFBENCH_SPANS_H_
#define GTHINKER_PERFBENCH_SPANS_H_

// The benchmark's own spans, recorded around its calls into the program:
//   job          one Cluster::Run / RunDistributed call
//   graph.gen    one Generator::PowerLaw call
//   apps.compute one Comper::Compute call (request ID = the task's span_id())
//   apps.spawn   one Comper::TaskSpawn call (request ID = the vertex ID; the
//                task does not exist before the call)
// Comper spans come from TracedComper, a decorator the job's comper_factory
// hands out instead of the plain app comper. Each comper thread appends to
// its own lane without locking; lanes are merged after the job returns.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t { kJob = 0, kGraphGen, kCompute, kSpawn };
constexpr int kNumSpanKinds = 4;

inline const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kJob:
      return "job";
    case SpanKind::kGraphGen:
      return "graph.gen";
    case SpanKind::kCompute:
      return "apps.compute";
    case SpanKind::kSpawn:
      return "apps.spawn";
  }
  return "unknown";
}

/// steady_clock is CLOCK_MONOTONIC on Linux, so spans recorded in forked rank
/// processes share the main process's time base.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;          // unique within one recorder
  uint64_t parent = 0;      // id of the enclosing span, 0 for a root
  uint64_t request_id = 0;  // see the header comment
  int32_t lane = 0;         // comper lane; -1 for main-thread spans
  SpanKind kind = SpanKind::kJob;
};

/// Collects the spans of one process. Root spans are recorded by the main
/// thread; comper lanes are handed out under a mutex and then written only by
/// their owning comper thread.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a main-thread span and returns its id; close it with End().
  uint64_t Begin(SpanKind kind, uint64_t parent, uint64_t request_id) {
    Span s;
    s.kind = kind;
    s.id = ++next_id_;
    s.parent = parent;
    s.request_id = request_id;
    s.lane = -1;
    s.start_ns = NowNs();
    open_.push_back(s);
    return s.id;
  }

  void End(uint64_t id) {
    const int64_t now = NowNs();
    for (auto it = open_.begin(); it != open_.end(); ++it) {
      if (it->id != id) continue;
      it->end_ns = now;
      closed_.push_back(*it);
      open_.erase(it);
      return;
    }
  }

  /// A lane for one comper; stable for the recorder's lifetime.
  std::vector<Span>* NewLane() {
    std::lock_guard<std::mutex> lock(mu_);
    lanes_.emplace_back();
    lanes_.back().reserve(1 << 14);
    return &lanes_.back();
  }

  /// Moves every closed span out, in start order, and resets the lanes.
  /// Call only when no comper is running.
  std::vector<Span> Take() {
    std::vector<Span> out = std::move(closed_);
    closed_.clear();
    std::lock_guard<std::mutex> lock(mu_);
    for (std::vector<Span>& lane : lanes_) {
      out.insert(out.end(), lane.begin(), lane.end());
    }
    lanes_.clear();
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      return a.start_ns < b.start_ns;
    });
    return out;
  }

 private:
  uint64_t next_id_ = 0;
  std::vector<Span> open_;
  std::vector<Span> closed_;
  std::mutex mu_;
  std::deque<std::vector<Span>> lanes_;  // guarded by mu_
};

/// Decorator over an app comper: times each UDF call from outside and records
/// it as a child of the job span. Only the traced run installs it.
template <typename Base>
class TracedComper final : public Base {
 public:
  using typename Base::Frontier;
  using typename Base::TaskT;
  using typename Base::VertexT;

  template <typename... Args>
  TracedComper(std::vector<Span>* lane, int32_t lane_index, uint64_t job_span,
               Args&&... args)
      : Base(std::forward<Args>(args)...),
        lane_(lane),
        lane_index_(lane_index),
        job_span_(job_span) {}

  void TaskSpawn(const VertexT& v) override {
    const int64_t start = NowNs();
    Base::TaskSpawn(v);
    Record(SpanKind::kSpawn, v.id, start);
  }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    const int64_t start = NowNs();
    const uint64_t request_id = task->span_id();
    const bool more = Base::Compute(task, frontier);
    Record(SpanKind::kCompute, request_id, start);
    return more;
  }

 private:
  void Record(SpanKind kind, uint64_t request_id, int64_t start) {
    Span s;
    s.kind = kind;
    s.start_ns = start;
    s.end_ns = NowNs();
    s.parent = job_span_;
    s.request_id = request_id;
    s.lane = lane_index_;
    lane_->push_back(s);
  }

  std::vector<Span>* lane_;
  int32_t lane_index_;
  uint64_t job_span_;
};

/// Per-name totals of one set of spans, plus the structural self-check.
struct SpanSummary {
  int64_t count[kNumSpanKinds] = {};
  int64_t total_ns[kNumSpanKinds] = {};
  int64_t self_ns[kNumSpanKinds] = {};
  /// Spans whose interval is not inside their parent's, or whose parent is
  /// missing.
  int64_t outside_parent = 0;
  std::vector<int64_t> compute_ns;  // every apps.compute duration

  void Merge(const SpanSummary& o) {
    for (int k = 0; k < kNumSpanKinds; ++k) {
      count[k] += o.count[k];
      total_ns[k] += o.total_ns[k];
      self_ns[k] += o.self_ns[k];
    }
    outside_parent += o.outside_parent;
    compute_ns.insert(compute_ns.end(), o.compute_ns.begin(),
                      o.compute_ns.end());
  }
};

/// Self time of a span = its duration minus the part of it that the union of
/// its children's intervals covers (children run on parallel compers, so
/// they overlap each other).
inline SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  struct Parent {
    const Span* span = nullptr;
    std::vector<std::pair<int64_t, int64_t>> children;
  };
  std::vector<Parent> parents;
  auto find_parent = [&](uint64_t id) -> Parent* {
    for (Parent& p : parents) {
      if (p.span->id == id) return &p;
    }
    return nullptr;
  };
  for (const Span& s : spans) {
    if (s.lane < 0) parents.push_back(Parent{&s, {}});
  }
  for (const Span& s : spans) {
    const int k = static_cast<int>(s.kind);
    const int64_t dur = s.end_ns - s.start_ns;
    out.count[k] += 1;
    out.total_ns[k] += dur;
    if (s.kind == SpanKind::kCompute) out.compute_ns.push_back(dur);
    if (s.parent == 0) continue;
    Parent* p = find_parent(s.parent);
    if (p == nullptr || s.start_ns < p->span->start_ns ||
        s.end_ns > p->span->end_ns || s.end_ns < s.start_ns) {
      ++out.outside_parent;
      continue;
    }
    p->children.emplace_back(s.start_ns, s.end_ns);
  }
  // Leaves' self time is their duration; parents subtract covered time.
  for (int k = 0; k < kNumSpanKinds; ++k) out.self_ns[k] = out.total_ns[k];
  for (Parent& p : parents) {
    std::sort(p.children.begin(), p.children.end());
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = -1;
    for (const auto& [start, end] : p.children) {
      if (start > cur_end) {
        if (cur_end >= cur_start) covered += cur_end - cur_start;
        cur_start = start;
        cur_end = end;
      } else {
        cur_end = std::max(cur_end, end);
      }
    }
    if (cur_end >= cur_start) covered += cur_end - cur_start;
    out.self_ns[static_cast<int>(p.span->kind)] -= covered;
  }
  return out;
}

/// Writes spans as Chrome trace-event JSON (Perfetto / chrome://tracing):
/// one process per rank, one thread per comper lane, main-thread spans on lane
/// 999.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<std::pair<int, Span>>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  int64_t epoch = spans.empty() ? 0 : spans.front().second.start_ns;
  for (const auto& [rank, s] : spans) epoch = std::min(epoch, s.start_ns);
  bool first = true;
  for (const auto& [rank, s] : spans) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << SpanKindName(s.kind)
        << "\",\"ph\":\"X\",\"ts\":" << (s.start_ns - epoch) / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"pid\":" << rank << ",\"tid\":" << (s.lane < 0 ? 999 : s.lane)
        << ",\"args\":{\"request\":" << s.request_id
        << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

#endif  // GTHINKER_PERFBENCH_SPANS_H_
