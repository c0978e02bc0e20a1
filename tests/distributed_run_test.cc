// Cluster::RunDistributed runs the same rank runtime and master as
// Cluster::Run, only over TCP with one worker per process. A 2-process
// loopback run must therefore report what an in-process run of the same job
// reports (answer, task counters, task ledger, phase profile) and, on rank 0
// only, serve the status endpoint and write the report and trace artifacts.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "obs/json.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace gthinker {
namespace {

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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Exit codes of the forked rank 1 (0 = everything as expected).
enum RankOneExit {
  kRankOneOk = 0,
  kNonZeroAggregate,
  kNotLocalMetrics,
  kStatusServerStarted,
};

TEST(DistributedRun, TcpRankZeroReportsWhatInProcessReports) {
  const Graph g = Generator::PowerLaw(500, 10.0, 2.4, 1301);

  JobConfig config;
  config.num_workers = 2;
  config.compers_per_worker = 2;
  config.time_budget_s = 120.0;  // a hung rank must not hang the test

  const auto make_job = [&g](const JobConfig& c) {
    Job<TriangleComper> job;
    job.config = c;
    job.graph = &g;
    job.comper_factory = [] { return std::make_unique<TriangleComper>(); };
    job.trimmer = TrimToGreater;
    return job;
  };
  const RunResult<TriangleComper> ref =
      Cluster<TriangleComper>::Run(make_job(config));
  ASSERT_GT(ref.result, 0u);

  const std::string dir = MakeTempDir("distributed_run");
  const std::string hostfile_path = dir + "/hosts";
  {
    std::ofstream out(hostfile_path);
    for (int port : PickFreePorts(2)) out << "127.0.0.1:" << port << "\n";
  }
  // Every observability knob on, with per-rank artifact paths so the test
  // can tell which rank wrote what.
  const auto rank_config = [&](int rank) {
    JobConfig c = config;
    c.comm.transport = CommConfig::Transport::kTcp;
    c.comm.hostfile = hostfile_path;
    c.metrics_sample_ms = 1;
    c.status_port = -1;  // ephemeral
    c.enable_span_tracing = true;
    c.report_path = dir + "/report" + std::to_string(rank) + ".json";
    c.trace_path = dir + "/trace" + std::to_string(rank) + ".json";
    return c;
  };

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Rank 1: no master here, so no aggregate, no status server, and only
    // its own worker + hub snapshots. Exit without unwinding gtest state.
    const RunResult<TriangleComper> r =
        Cluster<TriangleComper>::RunDistributed(make_job(rank_config(1)), 1);
    int code = kRankOneOk;
    if (r.result != 0) {
      code = kNonZeroAggregate;
    } else if (r.stats.metrics.size() != 2) {
      code = kNotLocalMetrics;
    } else if (r.stats.status_port != 0) {
      code = kStatusServerStarted;
    }
    ::_exit(code);
  }
  const RunResult<TriangleComper> got =
      Cluster<TriangleComper>::RunDistributed(make_job(rank_config(0)), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), kRankOneOk);

  // ---- rank 0: the answer and the cluster-wide counters ----
  EXPECT_EQ(got.result, ref.result);
  EXPECT_EQ(got.stats.tasks_spawned, ref.stats.tasks_spawned);
  EXPECT_EQ(got.stats.tasks_finished, ref.stats.tasks_finished);
  EXPECT_EQ(got.stats.ledger.spawned, ref.stats.ledger.spawned);
  EXPECT_EQ(got.stats.ledger.finished, ref.stats.ledger.finished);
  EXPECT_EQ(got.stats.tasks_lost, 0);
  EXPECT_FALSE(got.stats.timed_out);
  EXPECT_GT(got.stats.status_port, 0);
  // Local snapshots only (worker 0 + hub); the phase profile covers them.
  EXPECT_EQ(got.stats.metrics.size(), 2u);
  ASSERT_FALSE(got.stats.phases.empty());
  EXPECT_EQ(got.stats.phases.per_comper.size(), 2u);
  EXPECT_EQ(got.stats.timeseries.size(), obs::kNumWorkerSampledGauges);
  EXPECT_FALSE(got.stats.spans.empty());

  // ---- rank 0's report: the schema an in-process report has ----
  const std::string report_text = ReadFile(dir + "/report0.json");
  ASSERT_FALSE(report_text.empty());
  ASSERT_TRUE(obs::JsonValid(report_text));
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(report_text, &root).ok());
  EXPECT_EQ(root.Find("job")->string, "gthinker");
  EXPECT_EQ(root.Find("num_workers")->number, 2.0);
  const obs::JsonValue* derived = root.Find("derived");
  ASSERT_NE(derived, nullptr);
  ASSERT_NE(derived->Find("cluster"), nullptr);
  EXPECT_NE(derived->Find("worker0"), nullptr);
  ASSERT_TRUE(root.Find("metrics")->IsArray());
  EXPECT_EQ(root.Find("metrics")->array.size(), 2u);
  ASSERT_TRUE(root.Find("timeseries")->IsArray());
  EXPECT_EQ(root.Find("timeseries")->array.size(),
            obs::kNumWorkerSampledGauges);
  const obs::JsonValue* phases = root.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->Find("per_comper")->IsArray());
  EXPECT_EQ(phases->Find("per_comper")->array.size(), 2u);
  EXPECT_NE(root.Find("splits"), nullptr);
  EXPECT_NE(root.Find("split_children"), nullptr);
  EXPECT_NE(root.Find("split_depth_max"), nullptr);
  EXPECT_EQ(root.Find("tasks_live_at_exit")->number, 0.0);
  EXPECT_EQ(root.Find("tasks_spawned")->number,
            static_cast<double>(ref.stats.tasks_spawned));
  EXPECT_TRUE(obs::JsonValid(ReadFile(dir + "/trace0.json")));

  // ---- rank 1 writes no artifacts ----
  EXPECT_FALSE(std::filesystem::exists(dir + "/report1.json"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/trace1.json"));
  RemoveTree(dir);
}

#endif  // __linux__

}  // namespace
}  // namespace gthinker
