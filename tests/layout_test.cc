// Cache-topology layout tests: the hub-last renumbering is a bijection that
// preserves the degree multiset and sorts degrees ascending; reordered runs
// of the mining apps are differentially identical to unreordered ones (counts
// and clique sizes, with the ledger conserved), including under aggressive
// splitting and across a 2-process TCP RunDistributed; results that carry
// vertex IDs come back in ORIGINAL ids; and the layout knobs obey
// their Validate rules.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/kclique_app.h"
#include "apps/kernels.h"
#include "apps/maxclique_app.h"
#include "apps/maximalclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "graph/layout.h"
#include "storage/mini_dfs.h"

#if defined(__linux__)
#include <netinet/in.h>
#include <sys/socket.h>
#endif

namespace gthinker {
namespace {

// ---------------------------------------------------------------------------
// Renumbering round-trip: bijection, degree preservation, hub-last order.
// ---------------------------------------------------------------------------

TEST(VertexLayoutTest, HubLastIsDegreeSortedBijection) {
  const Graph graphs[] = {
      Generator::HubSkewed(3000, 12, 400, 2.5, 11),
      Generator::PowerLaw(2500, 9.0, 2.3, 12),
      Generator::ErdosRenyi(500, 3000, 13),
  };
  for (const Graph& g : graphs) {
    const VertexId n = g.NumVertices();
    const VertexLayout layout = VertexLayout::HubLast(g);
    ASSERT_EQ(layout.NumVertices(), n);
    EXPECT_FALSE(layout.empty());

    // Bijection: ToOld inverts ToNew and every new ID is hit exactly once.
    std::vector<bool> seen(n, false);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId nv = layout.ToNew(v);
      ASSERT_LT(nv, n);
      EXPECT_EQ(layout.ToOld(nv), v);
      EXPECT_FALSE(seen[nv]);
      seen[nv] = true;
    }

    // Apply preserves each vertex's degree (row moves, content relabels).
    const Graph r = g.NumVertices() > 0 ? layout.Apply(g) : Graph();
    ASSERT_EQ(r.NumVertices(), n);
    ASSERT_EQ(r.NumEdges(), g.NumEdges());
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(r.Degree(layout.ToNew(v)), g.Degree(v)) << "v=" << v;
    }

    // Hub-last: degrees are non-decreasing in the new numbering (hubs at the
    // highest IDs — the degeneracy orientation under the Γ_> trim), and ties
    // keep the original-ID order (determinism across ranks depends on this).
    for (VertexId nv = 1; nv < n; ++nv) {
      const VertexId a = layout.ToOld(nv - 1);
      const VertexId b = layout.ToOld(nv);
      EXPECT_TRUE(g.Degree(a) < g.Degree(b) ||
                  (g.Degree(a) == g.Degree(b) && a < b))
          << "new ids " << nv - 1 << "," << nv;
    }

    // Adjacency is relabeled consistently: edge (u,v) iff edge (new u, new v).
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId u : g.Neighbors(v)) {
        const auto row = r.Neighbors(layout.ToNew(v));
        EXPECT_TRUE(std::binary_search(row.begin(), row.end(),
                                       layout.ToNew(u)))
            << "edge " << v << "-" << u << " lost";
      }
    }
  }
}

TEST(VertexLayoutTest, IdentityIsNoOp) {
  const VertexLayout id = VertexLayout::Identity(64);
  EXPECT_FALSE(id.empty());
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(id.ToNew(v), v);
    EXPECT_EQ(id.ToOld(v), v);
  }
}

TEST(VertexLayoutTest, ApplyLabelsFollowsThePermutation) {
  Graph g = Generator::PowerLaw(300, 6.0, 2.4, 21);
  const std::vector<Label> labels = Generator::RandomLabels(300, 5, 22);
  const VertexLayout layout = VertexLayout::HubLast(g);
  const std::vector<Label> relabeled = layout.ApplyLabels(labels);
  ASSERT_EQ(relabeled.size(), labels.size());
  for (VertexId v = 0; v < 300; ++v) {
    EXPECT_EQ(relabeled[layout.ToNew(v)], labels[v]);
  }
}

TEST(VertexLayoutTest, SegmentShiftDerivation) {
  Graph g = Generator::PowerLaw(20000, 10.0, 2.3, 31);
  // Tiny segments -> shift 0 (per-ID routing). Huge segments on a small
  // graph -> also 0 (not enough segments per bucket). In between, the shift
  // grows monotonically with the segment size.
  EXPECT_EQ(DeriveCacheSegmentShift(g, 1, 64), 0);
  int prev = 0;
  for (int64_t seg = 4 << 10; seg <= (4 << 20); seg *= 4) {
    const int shift = DeriveCacheSegmentShift(g, seg, 64);
    EXPECT_GE(shift, 0);
    EXPECT_LE(shift, 20);
    if (shift != 0) {
      EXPECT_GE(shift, prev);
    }
    prev = shift;
  }
  // Empty graph: always the legacy router.
  EXPECT_EQ(DeriveCacheSegmentShift(Graph(), 2 << 20, 64), 0);
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(LayoutConfig, ValidationRejectsBadKnobs) {
  JobConfig config;
  config.layout.llc_segment_bytes = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = JobConfig();
  config.layout.llc_segment_bytes = -4096;
  EXPECT_FALSE(config.Validate().ok());
  config = JobConfig();
  config.layout.cache_segment_shift = 31;  // derived knob, not user-set
  EXPECT_FALSE(config.Validate().ok());
  config = JobConfig();
  config.layout.reorder = true;
  EXPECT_TRUE(config.Validate().ok());
}

// ---------------------------------------------------------------------------
// Differential: every app must produce identical answers with reorder on.
// ---------------------------------------------------------------------------

template <typename ComperT>
Job<ComperT> CountJob(Graph* g, std::function<std::unique_ptr<ComperT>()> make,
                      bool reorder, bool split) {
  Job<ComperT> job;
  job.config.num_workers = 3;
  job.config.compers_per_worker = 2;
  job.config.layout.reorder = reorder;
  if (split) {
    job.config.task_split_max_candidates = 6;
    job.config.task_time_budget_us = 50;
    job.config.task_split_fanout = 3;
  }
  job.graph = g;
  job.comper_factory = std::move(make);
  return job;
}

TEST(LayoutDifferential, TriangleCountBitIdentical) {
  for (uint64_t seed : {41, 42}) {
    Graph g = Generator::HubSkewed(800, 10, 120, 2.5, seed);
    auto base = CountJob<TriangleComper>(
        &g, [] { return std::make_unique<TriangleComper>(); },
        /*reorder=*/false, /*split=*/false);
    base.trimmer = TrimToGreater;
    auto on = CountJob<TriangleComper>(
        &g, [] { return std::make_unique<TriangleComper>(); },
        /*reorder=*/true, /*split=*/false);
    on.trimmer = TrimToGreater;
    auto base_run = Cluster<TriangleComper>::Run(base);
    auto on_run = Cluster<TriangleComper>::Run(on);
    EXPECT_EQ(on_run.result, base_run.result) << "seed=" << seed;
    EXPECT_EQ(on_run.stats.tasks_lost, 0);
    EXPECT_EQ(on_run.stats.tasks_live_at_exit, 0);
  }
}

TEST(LayoutDifferential, MaximalCliqueCountBitIdenticalIncludingSplits) {
  Graph g = Generator::PowerLaw(300, 10.0, 2.3, 43);
  auto base = Cluster<MaximalCliqueComper>::Run(CountJob<MaximalCliqueComper>(
      &g, [] { return std::make_unique<MaximalCliqueComper>(); },
      /*reorder=*/false, /*split=*/false));
  for (bool split : {false, true}) {
    auto on = Cluster<MaximalCliqueComper>::Run(CountJob<MaximalCliqueComper>(
        &g, [] { return std::make_unique<MaximalCliqueComper>(); },
        /*reorder=*/true, split));
    EXPECT_EQ(on.result, base.result) << "split=" << split;
    EXPECT_EQ(on.stats.tasks_lost, 0) << "split=" << split;
    EXPECT_EQ(on.stats.tasks_live_at_exit, 0) << "split=" << split;
    EXPECT_EQ(on.stats.ledger.spawned + on.stats.ledger.restored,
              on.stats.ledger.finished)
        << "split=" << split;
  }
}

TEST(LayoutDifferential, KCliqueCountBitIdentical) {
  Graph g = Generator::PowerLaw(260, 11.0, 2.3, 44);
  for (int k : {3, 4}) {
    const uint64_t truth = CountKCliquesSerial(g, k);
    auto job = CountJob<KCliqueComper>(
        &g, [k] { return std::make_unique<KCliqueComper>(k); },
        /*reorder=*/true, /*split=*/true);
    job.trimmer = TrimToGreater;
    auto on = Cluster<KCliqueComper>::Run(job);
    EXPECT_EQ(on.result, truth) << "k=" << k;
  }
}

// A result that *carries vertex IDs* must come back in original IDs: the
// reported vertices must form a clique of the reference size in the
// UNREORDERED graph (under reorder a different-but-equal-size max clique may
// win, so membership is checked against the original adjacency, not against
// the baseline's member set).
TEST(LayoutDifferential, MaxCliqueResultSpeaksOriginalIds) {
  Graph g = Generator::ErdosRenyi(120, 2400, 45);
  Job<MaxCliqueComper> base;
  base.config.num_workers = 2;
  base.config.compers_per_worker = 2;
  base.graph = &g;
  base.comper_factory = [] { return std::make_unique<MaxCliqueComper>(400); };
  base.trimmer = TrimToGreater;
  auto base_run = Cluster<MaxCliqueComper>::Run(base);

  Job<MaxCliqueComper> on = base;
  on.config.layout.reorder = true;
  auto on_run = Cluster<MaxCliqueComper>::Run(on);

  ASSERT_EQ(on_run.result.size(), base_run.result.size());
  for (size_t i = 0; i < on_run.result.size(); ++i) {
    ASSERT_LT(on_run.result[i], g.NumVertices());
    for (size_t j = i + 1; j < on_run.result.size(); ++j) {
      const auto row = g.Neighbors(on_run.result[i]);
      EXPECT_TRUE(std::binary_search(row.begin(), row.end(),
                                     on_run.result[j]))
          << "reported members " << on_run.result[i] << ","
          << on_run.result[j] << " not adjacent in the original graph";
    }
  }
}

// ---------------------------------------------------------------------------
// TCP 2-process differential: rank 1 in a forked child, rank 0 in-process;
// the distributed reordered count must equal the plain in-process count.
// Fork happens between tests when no threads are live, so this is safe under
// TSan as well.
// ---------------------------------------------------------------------------

#if defined(__linux__)

std::vector<int> PickFreePorts(int n) {
  std::vector<int> fds, ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    GT_CHECK_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    GT_CHECK_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
                0);
    socklen_t len = sizeof(addr);
    GT_CHECK_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
                0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

TEST(LayoutDistributed, TcpTwoProcessReorderMatchesInProcess) {
  Graph g = Generator::HubSkewed(600, 8, 90, 2.5, 51);

  JobConfig config;
  config.num_workers = 2;
  config.compers_per_worker = 2;
  config.layout.reorder = true;
  config.time_budget_s = 120.0;  // a hung rank must not hang the test

  const auto make_job = [&g](const JobConfig& c) {
    Job<TriangleComper> job;
    job.config = c;
    job.graph = &g;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    return job;
  };

  // Plain in-process reference (reorder off): the ground truth.
  JobConfig plain = config;
  plain.layout.reorder = false;
  const uint64_t expected =
      Cluster<TriangleComper>::Run(make_job(plain)).result;

  const std::string dir = MakeTempDir("layout_tcp");
  const std::string hostfile_path = dir + "/hosts";
  {
    std::ofstream out(hostfile_path);
    for (int port : PickFreePorts(2)) out << "127.0.0.1:" << port << "\n";
  }
  JobConfig dist = config;
  dist.comm.transport = CommConfig::Transport::kTcp;
  dist.comm.hostfile = hostfile_path;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Rank 1: run to completion and exit without unwinding gtest state.
    Cluster<TriangleComper>::RunDistributed(make_job(dist), 1);
    ::_exit(0);
  }
  const uint64_t got =
      Cluster<TriangleComper>::RunDistributed(make_job(dist), 0).result;
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(got, expected);
  RemoveTree(dir);
}

#endif  // __linux__

}  // namespace
}  // namespace gthinker
