// Deep framework-semantics tests using purpose-built test compers: frontier
// ordering, duplicate pulls, multi-iteration tasks, deep decomposition, and
// spawn-flush behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "graph/generator.h"

namespace gthinker {
namespace {

using PlainTask = Task<AdjList, VertexId>;

/// Pulls every neighbor and asserts frontier[i] corresponds to pulls()[i]
/// with the right vertex id and value.
class FrontierOrderComper : public Comper<PlainTask, uint64_t> {
 public:
  explicit FrontierOrderComper(const Graph* truth) : truth_(truth) {}

  void TaskSpawn(const VertexT& v) override {
    if (v.value.empty()) return;
    auto task = std::make_unique<TaskT>();
    task->context() = v.id;
    for (VertexId u : v.value) task->Pull(u);
    expected_.push_back(v.value);  // remember order per spawned task
    AddTask(std::move(task));
  }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    const AdjList& adj = truth_->Neighbors(task->context());
    EXPECT_EQ(frontier.size(), adj.size());
    uint64_t ok = 1;
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (frontier[i]->id != adj[i]) ok = 0;
      if (frontier[i]->value != truth_->Neighbors(adj[i])) ok = 0;
    }
    Aggregate(ok);
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  const Graph* truth_;
  std::vector<AdjList> expected_;
};

TEST(WorkerBehavior, FrontierMatchesPullOrderAndValues) {
  Graph g = Generator::ErdosRenyi(150, 700, 401);
  uint64_t tasks_with_pulls = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!g.Neighbors(v).empty()) ++tasks_with_pulls;
  }
  Job<FrontierOrderComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [&g] {
    return std::make_unique<FrontierOrderComper>(&g);
  };
  auto result = Cluster<FrontierOrderComper>::Run(job);
  // Every task must have validated its whole frontier.
  EXPECT_EQ(result.result, tasks_with_pulls);
}

/// Pulls the SAME vertex several times in one iteration; the frontier must
/// repeat it and lock counting must stay balanced (job must terminate).
class DuplicatePullComper : public Comper<PlainTask, uint64_t> {
 public:
  void TaskSpawn(const VertexT& v) override {
    if (v.value.empty()) return;
    auto task = std::make_unique<TaskT>();
    task->context() = v.id;
    const VertexId target = v.value[0];
    task->Pull(target);
    task->Pull(target);
    task->Pull(target);
    AddTask(std::move(task));
  }

  bool Compute(TaskT* /*task*/, const Frontier& frontier) override {
    EXPECT_EQ(frontier.size(), 3u);
    EXPECT_EQ(frontier[0], frontier[1]);  // same cached object
    EXPECT_EQ(frontier[1], frontier[2]);
    Aggregate(1);
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }
};

TEST(WorkerBehavior, DuplicatePullsAreSatisfiedAndBalanced) {
  Graph g = Generator::ErdosRenyi(120, 500, 402);
  uint64_t expected = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!g.Neighbors(v).empty()) ++expected;
  }
  Job<DuplicatePullComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<DuplicatePullComper>(); };
  auto result = Cluster<DuplicatePullComper>::Run(job);
  EXPECT_EQ(result.result, expected);
}

/// Walks `hops` pull iterations before finishing: iteration i pulls one
/// vertex derived from the previous frontier. Verifies multi-iteration
/// suspend/resume bookkeeping.
class MultiHopComper : public Comper<PlainTask, uint64_t> {
 public:
  explicit MultiHopComper(int hops) : hops_(hops) {}

  void TaskSpawn(const VertexT& v) override {
    if (v.value.empty()) return;
    auto task = std::make_unique<TaskT>();
    task->context() = v.id;
    task->Pull(v.value[0]);
    AddTask(std::move(task));
  }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    EXPECT_EQ(frontier.size(), 1u);
    if (static_cast<int>(task->iteration()) + 1 < hops_ &&
        !frontier[0]->value.empty()) {
      task->Pull(frontier[0]->value[0]);
      return true;  // another iteration
    }
    Aggregate(task->iteration() + 1);  // count hops completed
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  const int hops_;
};

TEST(WorkerBehavior, MultiIterationTasksResumeCorrectly) {
  Graph g = Generator::ErdosRenyi(100, 600, 403);
  Job<MultiHopComper> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MultiHopComper>(4); };
  auto result = Cluster<MultiHopComper>::Run(job);
  // Every non-isolated vertex contributes between 1 and 4 hops.
  uint64_t spawned = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!g.Neighbors(v).empty()) ++spawned;
  }
  EXPECT_GE(result.result, spawned);
  EXPECT_LE(result.result, 4 * spawned);
}

/// Decomposes each spawned task into a chain of `depth` children (each
/// AddTask'ed without pulls), counting leaves. Exercises AddTask-from-
/// Compute, queue spilling of decomposed tasks, and termination with purely
/// local work.
class DeepDecomposeComper : public Comper<Task<AdjList, uint32_t>, uint64_t> {
 public:
  explicit DeepDecomposeComper(uint32_t depth, uint32_t fanout)
      : depth_(depth), fanout_(fanout) {}

  void TaskSpawn(const VertexT& v) override {
    if (v.id % 16 != 0) return;  // a sparse set of roots
    auto task = std::make_unique<TaskT>();
    task->context() = 0;  // depth so far
    AddTask(std::move(task));
  }

  bool Compute(TaskT* task, const Frontier& frontier) override {
    EXPECT_TRUE(frontier.empty());
    if (task->context() == depth_) {
      Aggregate(1);
      return false;
    }
    for (uint32_t i = 0; i < fanout_; ++i) {
      auto child = std::make_unique<TaskT>();
      child->context() = task->context() + 1;
      AddTask(std::move(child));
    }
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  const uint32_t depth_;
  const uint32_t fanout_;
};

TEST(WorkerBehavior, DeepDecompositionCountsLeaves) {
  Graph g(64);
  g.Finalize();
  Job<DeepDecomposeComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 2;
  job.config.task_batch_size = 8;  // force spills of the task tree
  job.graph = &g;
  job.comper_factory = [] {
    return std::make_unique<DeepDecomposeComper>(5, 3);
  };
  auto result = Cluster<DeepDecomposeComper>::Run(job);
  // 4 roots (ids 0,16,32,48), each expanding 3^5 leaves.
  EXPECT_EQ(result.result, 4u * 243u);
  EXPECT_GT(result.stats.spilled_batches, 0);
  EXPECT_EQ(result.stats.tasks_spawned, result.stats.tasks_finished);
}

/// Emits one task per SpawnFlush only (TaskSpawn just counts), verifying the
/// flush hook runs exactly once per comper.
class FlushOnlyComper : public Comper<Task<AdjList, uint32_t>, uint64_t> {
 public:
  void TaskSpawn(const VertexT&) override { ++seen_; }

  void SpawnFlush() override {
    auto task = std::make_unique<TaskT>();
    task->context() = seen_;
    AddTask(std::move(task));
  }

  bool Compute(TaskT* task, const Frontier&) override {
    Aggregate(task->context());
    return false;
  }

  static AggT AggZero() { return 0; }
  static AggT AggMerge(AggT a, AggT b) { return a + b; }

 private:
  uint32_t seen_ = 0;
};

TEST(WorkerBehavior, SpawnFlushSeesEveryVertexExactlyOnce) {
  Graph g(500);
  g.Finalize();
  Job<FlushOnlyComper> job;
  job.config.num_workers = 2;
  job.config.compers_per_worker = 3;
  job.config.enable_stealing = false;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<FlushOnlyComper>(); };
  auto result = Cluster<FlushOnlyComper>::Run(job);
  // Flush tasks carry per-comper counts; their sum is all 500 vertices.
  EXPECT_EQ(result.result, 500u);
}

}  // namespace
}  // namespace gthinker
