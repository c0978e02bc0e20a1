// Phase-attribution tests: the per-comper breakdown is built from disjoint
// timers, so its parts must account for the loop's wall time exactly
// (named + other == total), and a real run must produce plausible rows for
// every comper plus a straggler table when span tracing is on.

#include "obs/phase_profile.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"  // TrimToGreater
#include "core/cluster.h"
#include "graph/generator.h"
#include "obs/json.h"

namespace gthinker {
namespace {

obs::MetricsSnapshot MakeWorkerSnap(int worker) {
  obs::MetricsSnapshot snap;
  snap.scope = "worker" + std::to_string(worker);
  return snap;
}

TEST(PhaseProfile, BuildsRowsFromCounters) {
  obs::MetricsSnapshot snap = MakeWorkerSnap(0);
  snap.counters.emplace_back("phase.compute_us{comper=0}", 600);
  snap.counters.emplace_back("phase.pull_wait_us{comper=0}", 100);
  snap.counters.emplace_back("phase.queue_wait_us{comper=0}", 150);
  snap.counters.emplace_back("phase.spill_us{comper=0}", 50);
  snap.counters.emplace_back("phase.loop_us{comper=0}", 1000);
  snap.counters.emplace_back("phase.compute_us{comper=1}", 300);
  snap.counters.emplace_back("phase.loop_us{comper=1}", 400);
  snap.counters.emplace_back("phase.steal_us", 42);

  obs::PhaseProfile profile =
      obs::BuildPhaseProfile({snap}, /*spans=*/{}, /*top_k=*/8);
  ASSERT_EQ(profile.per_comper.size(), 2u);
  ASSERT_EQ(profile.per_worker.size(), 1u);

  const obs::PhaseBreakdown& c0 = profile.per_comper[0];
  EXPECT_EQ(c0.worker, 0);
  EXPECT_EQ(c0.comper, 0);
  EXPECT_EQ(c0.compute_us, 600);
  EXPECT_EQ(c0.pull_wait_us, 100);
  EXPECT_EQ(c0.queue_wait_us, 150);
  EXPECT_EQ(c0.spill_us, 50);
  // The unattributed remainder closes the books exactly.
  EXPECT_EQ(c0.other_us, 100);
  EXPECT_EQ(c0.NamedSum() + c0.other_us, c0.total_us);
  EXPECT_DOUBLE_EQ(c0.Coverage(), 0.9);

  const obs::PhaseBreakdown& c1 = profile.per_comper[1];
  EXPECT_EQ(c1.comper, 1);
  EXPECT_EQ(c1.other_us, 100);

  // Worker row: comper sums plus the comm-thread steal time.
  const obs::PhaseBreakdown& w = profile.per_worker[0];
  EXPECT_EQ(w.comper, -1);
  EXPECT_EQ(w.compute_us, 900);
  EXPECT_EQ(w.steal_us, 42);
  EXPECT_EQ(w.total_us, 1000 + 400 + 42);
  EXPECT_EQ(w.NamedSum() + w.other_us, w.total_us);
}

TEST(PhaseProfile, EmptyWithoutPhaseCounters) {
  obs::MetricsSnapshot snap = MakeWorkerSnap(0);
  snap.counters.emplace_back("cache.hits", 10);
  obs::MetricsSnapshot hub;
  hub.scope = "hub";
  hub.counters.emplace_back("phase.compute_us{comper=0}", 5);  // wrong scope
  const obs::PhaseProfile profile = obs::BuildPhaseProfile({snap, hub}, {});
  EXPECT_TRUE(profile.empty());
}

TEST(PhaseProfile, StragglerTableRanksByComputeWithLineage) {
  std::vector<obs::Event> spans;
  auto exec = [&](uint64_t task, int64_t dur) {
    obs::Event e;
    e.kind = obs::EventKind::kExecute;
    e.task_id = task;
    e.dur_us = dur;
    e.worker = 0;
    e.comper = 0;
    spans.push_back(e);
  };
  exec(10, 100);
  exec(11, 900);
  exec(11, 50);  // second iteration of the same task accumulates
  obs::Event spawn;
  spawn.kind = obs::EventKind::kSpawn;
  spawn.task_id = 11;
  spawn.parent_task_id = 10;
  spans.push_back(spawn);

  const obs::PhaseProfile profile =
      obs::BuildPhaseProfile({}, spans, /*top_k=*/1);
  ASSERT_EQ(profile.stragglers.size(), 1u);  // top_k truncation applies
  EXPECT_EQ(profile.stragglers[0].task_id, 11u);
  EXPECT_EQ(profile.stragglers[0].compute_us, 950);
  EXPECT_EQ(profile.stragglers[0].iterations, 2);
  EXPECT_EQ(profile.stragglers[0].parent_task_id, 10u);
}

TEST(PhaseProfile, JsonAndHumanTableRender) {
  obs::MetricsSnapshot snap = MakeWorkerSnap(2);
  snap.counters.emplace_back("phase.compute_us{comper=0}", 750);
  snap.counters.emplace_back("phase.loop_us{comper=0}", 1000);
  const obs::PhaseProfile profile = obs::BuildPhaseProfile({snap}, {});

  obs::JsonWriter w;
  profile.WriteJson(&w);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(w.str(), &root).ok()) << w.str();
  ASSERT_TRUE(root.Find("per_comper")->IsArray());
  const obs::JsonValue& row = root.Find("per_comper")->array[0];
  EXPECT_EQ(row.Find("worker")->number, 2.0);
  EXPECT_EQ(row.Find("compute_us")->number, 750.0);
  EXPECT_EQ(row.Find("coverage")->number, 0.75);

  const std::string table = profile.HumanTable();
  EXPECT_NE(table.find("phase profile"), std::string::npos) << table;
  EXPECT_NE(table.find("w2.c0"), std::string::npos) << table;
}

// Invariant test on a real run: every comper gets a row whose parts account
// for its loop wall time exactly, and the loop totals are plausible against
// the job's elapsed time.
TEST(PhaseProfileE2E, RealRunAccountsForComperWallTime) {
  static Graph g = Generator::PowerLaw(500, 10.0, 2.4, 3307);
  Job<MaxCliqueComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.enable_span_tracing = true;  // feeds the straggler table
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaxCliqueComper>(200); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<MaxCliqueComper>::Run(job);
  ASSERT_FALSE(result.result.empty());

  const obs::PhaseProfile& phases = result.stats.phases;
  ASSERT_EQ(phases.per_worker.size(), 2u);
  ASSERT_EQ(phases.per_comper.size(), 4u);

  const int64_t elapsed_us =
      static_cast<int64_t>(result.stats.elapsed_s * 1e6);
  for (const obs::PhaseBreakdown& row : phases.per_comper) {
    // Exact accounting: disjoint timers + computed remainder.
    EXPECT_EQ(row.NamedSum() + row.other_us, row.total_us)
        << "w" << row.worker << ".c" << row.comper;
    EXPECT_GT(row.total_us, 0);
    // A comper loop cannot out-live the job by more than scheduling slack.
    EXPECT_LT(row.total_us, 2 * elapsed_us + 1'000'000);
    EXPECT_GE(row.compute_us, 0);
    EXPECT_GE(row.Coverage(), 0.0);
    EXPECT_LE(row.Coverage(), 1.0);
  }
  for (const obs::PhaseBreakdown& row : phases.per_worker) {
    EXPECT_EQ(row.NamedSum() + row.other_us, row.total_us)
        << "w" << row.worker;
  }
  // Something actually computed, and the stragglers reflect it.
  int64_t total_compute = 0;
  for (const obs::PhaseBreakdown& row : phases.per_comper) {
    total_compute += row.compute_us;
  }
  EXPECT_GT(total_compute, 0);
  ASSERT_FALSE(phases.stragglers.empty());
  for (size_t i = 1; i < phases.stragglers.size(); ++i) {
    EXPECT_GE(phases.stragglers[i - 1].compute_us,
              phases.stragglers[i].compute_us);
  }
}

/// Expands each root into a `fanout`-ary tree of `depth` levels entirely
/// from Compute(): every call only AddTask()s, so with a tiny Q_task nearly
/// all of its time is AddToQueue spilling the queue tail to disk.
class SpillInComputeComper
    : public Comper<Task<AdjList, std::vector<uint32_t>>, uint64_t> {
 public:
  void TaskSpawn(const VertexT& v) override {
    if (v.id % 8 != 0) return;
    AddTask(MakeTask(0));
  }

  bool Compute(TaskT* task, const Frontier&) override {
    const uint32_t level = task->context().front();
    if (level == kDepth) {
      Aggregate(1);
      return false;
    }
    for (int i = 0; i < kFanout; ++i) AddTask(MakeTask(level + 1));
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

  static constexpr uint32_t kDepth = 4;
  static constexpr int kFanout = 4;

 private:
  static std::unique_ptr<TaskT> MakeTask(uint32_t level) {
    auto task = std::make_unique<TaskT>();
    // Padding makes each spilled record a few hundred bytes.
    task->context().assign(64, 0);
    task->context().front() = level;
    return task;
  }
};

// Regression: a Compute() whose AddTask overflows Q_task spills inside the
// compute timer. That spill time belongs to phase.spill_us only; counted in
// compute as well, the named phases exceeded the loop time and `other` was
// clamped at zero.
TEST(PhaseProfileE2E, SpillInsideComputeIsNotDoubleCounted) {
  Graph g(64);
  g.Finalize();
  Job<SpillInComputeComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.task_batch_size = 2;
  job.config.task_queue_capacity_batches = 2;
  job.config.enable_stealing = false;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<SpillInComputeComper>(); };
  auto result = Cluster<SpillInComputeComper>::Run(job);
  // 8 roots (ids 0, 8, ..., 56), each with 4^4 leaves.
  EXPECT_EQ(result.result, 8u * 256u);
  ASSERT_GT(result.stats.spilled_batches, 0);

  const obs::PhaseProfile& phases = result.stats.phases;
  ASSERT_EQ(phases.per_comper.size(), 4u);
  int64_t spill_total = 0;
  for (const obs::PhaseBreakdown& row : phases.per_comper) {
    // Never clamped: the named phases fit inside the loop wall time, so
    // `other` is the true remainder.
    EXPECT_LE(row.NamedSum(), row.total_us)
        << "w" << row.worker << ".c" << row.comper;
    EXPECT_EQ(row.NamedSum() + row.other_us, row.total_us)
        << "w" << row.worker << ".c" << row.comper;
    EXPECT_EQ(row.other_us, row.total_us - row.NamedSum());
    spill_total += row.spill_us;
  }
  EXPECT_GT(spill_total, 0);
}

/// Spawns exactly one task (from vertex 0) that busy-waits in Compute(), so
/// the job's only execute span has a measurable duration.
class OneSlowTaskComper
    : public Comper<Task<AdjList, std::vector<uint32_t>>, uint64_t> {
 public:
  void TaskSpawn(const VertexT& v) override {
    if (v.id == 0) AddTask(std::make_unique<TaskT>());
  }

  bool Compute(TaskT*, const Frontier&) override {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    while (std::chrono::steady_clock::now() < until) {
    }
    Aggregate(1);
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

// Regression: span ids are (worker << 48) | sequence, so a sequence starting
// at 0 gives worker 0's first task span id 0, the "no task" value the
// straggler table skips. A one-worker, one-comper, one-task job must list
// that task, and no span may carry id 0.
TEST(PhaseProfileE2E, FirstTaskOfWorkerZeroIsAStraggler) {
  Graph g(4);
  g.Finalize();
  Job<OneSlowTaskComper> job;
  job.config.num_workers = 1;
  job.config.compers_per_worker = 1;
  job.config.enable_span_tracing = true;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<OneSlowTaskComper>(); };
  auto result = Cluster<OneSlowTaskComper>::Run(job);
  EXPECT_EQ(result.result, 1u);

  ASSERT_FALSE(result.stats.spans.empty());
  for (const obs::Event& e : result.stats.spans) {
    EXPECT_NE(e.task_id, 0u) << obs::EventKindName(e.kind);
  }
  const obs::PhaseProfile& phases = result.stats.phases;
  ASSERT_EQ(phases.stragglers.size(), 1u);
  EXPECT_NE(phases.stragglers[0].task_id, 0u);
  EXPECT_EQ(phases.stragglers[0].worker, 0);
  EXPECT_EQ(phases.stragglers[0].iterations, 1);
  EXPECT_GT(phases.stragglers[0].compute_us, 0);
}

TEST(PhaseProfileE2E, DisabledKnobYieldsEmptyProfile) {
  static Graph g = Generator::ErdosRenyi(100, 400, 551);
  Job<TriangleComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 1;
  job.config.enable_phase_profile = false;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
  job.trimmer = TrimToGreater;
  auto result = Cluster<TriangleComper>::Run(job);
  EXPECT_TRUE(result.stats.phases.empty());
  EXPECT_EQ(result.stats.Summary().find("phase profile"), std::string::npos);
}

}  // namespace
}  // namespace gthinker
