// Flight-recorder tests: the job's bounded event ring must retain the
// newest events, serialize to valid JSON, and — the part that matters in
// production — dump that JSON to its own job's directory when the process
// dies on a fatal check (exactly the path a task-ledger violation takes) or
// the job exceeds its time budget.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/maximalclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "obs/json.h"
#include "util/logging.h"

namespace gthinker {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> DumpsIn(const std::string& dir) {
  std::vector<std::string> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    dumps.push_back(entry.path().string());
  }
  return dumps;
}

// Parses a dump file that must hold exactly one ring; returns its events.
std::vector<obs::JsonValue> SingleRingEvents(const std::string& path,
                                             std::string* reason) {
  obs::JsonValue root;
  EXPECT_TRUE(obs::JsonParse(ReadFile(path), &root).ok()) << path;
  if (root.Find("recorders") == nullptr) return {};
  *reason = root.Find("reason")->string;
  const std::vector<obs::JsonValue>& recorders = root.Find("recorders")->array;
  EXPECT_EQ(recorders.size(), 1u) << path;
  if (recorders.empty()) return {};
  return recorders[0].Find("events")->array;
}

TEST(FlightRecorder, RecordsAndSerializes) {
  obs::FlightRecorder rec(64);
  ASSERT_TRUE(rec.enabled());
  rec.Record({.worker = 0, .comper = 1, .kind = obs::EventKind::kSpawnBatch,
              .a = 32});
  rec.Record({.worker = 0, .comper = 1, .kind = obs::EventKind::kSplit,
              .a = 4, .b = 2});
  rec.Record({.worker = 1, .kind = obs::EventKind::kLedger, .a = 10, .b = 10});
  EXPECT_EQ(rec.total(), 3);
  EXPECT_EQ(rec.span_events_total(), 1);  // the split
  const std::vector<obs::Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);

  const std::string json = rec.DumpJson();
  ASSERT_TRUE(obs::JsonValid(json)) << json;
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(json, &root).ok());
  EXPECT_EQ(root.Find("recorded_total")->number, 3.0);
  const obs::JsonValue* arr = root.Find("events");
  ASSERT_TRUE(arr->IsArray());
  ASSERT_EQ(arr->array.size(), 3u);
  EXPECT_EQ(arr->array[0].Find("kind")->string, "spawn_batch");
  EXPECT_EQ(arr->array[1].Find("kind")->string, "split");
  EXPECT_EQ(arr->array[1].Find("a")->number, 4.0);
}

TEST(FlightRecorder, ZeroCapacityDisables) {
  obs::FlightRecorder rec(0);
  EXPECT_FALSE(rec.enabled());
  rec.Record({.worker = 0, .kind = obs::EventKind::kTerminate});
  EXPECT_EQ(rec.total(), 0);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(FlightRecorder, BoundedRetentionKeepsNewest) {
  obs::FlightRecorder rec(16);
  for (int i = 0; i < 200; ++i) {
    rec.Record({.worker = 0, .kind = obs::EventKind::kSpawnBatch, .a = i});
  }
  EXPECT_EQ(rec.total(), 200);
  const std::vector<obs::Event> events = rec.Snapshot();
  ASSERT_LE(events.size(), 16u);
  ASSERT_FALSE(events.empty());
  // The retained window ends at the newest event.
  EXPECT_EQ(events.back().a, 199);
}

TEST(FlightRecorder, WriteCrashDumpWritesParseableFile) {
  const std::string dir = FreshDir("gt_flight_unit");
  obs::FlightRecorder rec(32, dir);
  rec.Record({.worker = 0, .kind = obs::EventKind::kDrain, .a = 2});
  ASSERT_TRUE(obs::FlightRecorder::WriteCrashDump("unit-test"));

  const std::vector<std::string> dumps = DumpsIn(dir);
  ASSERT_EQ(dumps.size(), 1u);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(ReadFile(dumps[0]), &root).ok());
  EXPECT_EQ(root.Find("reason")->string, "unit-test");
  ASSERT_TRUE(root.Find("recorders")->IsArray());
  ASSERT_FALSE(root.Find("recorders")->array.empty());
}

// The production failure path: a GT_CHECK violation (how the task-ledger
// conservation check fires) must leave a JSON dump of the recorded events
// behind. The fatal runs in a death-test child; the parent validates the
// file the child wrote.
TEST(FlightRecorderDeathTest, FatalCheckDumpsRecorder) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = FreshDir("gt_flight_fatal");

  EXPECT_DEATH(
      {
        obs::FlightRecorder::InstallCrashHandlers();
        obs::FlightRecorder rec(64, dir);
        rec.Record({.worker = 0, .comper = 0,
                    .kind = obs::EventKind::kSpawnBatch, .a = 8});
        rec.Record({.worker = 0, .kind = obs::EventKind::kLedger, .a = 5,
                    .b = 4});
        const int64_t expected_live = 5;
        const int64_t live = 4;
        GT_CHECK_EQ(expected_live, live) << "task-conservation violation";
      },
      "task-conservation violation");

  const std::vector<std::string> dumps = DumpsIn(dir);
  ASSERT_EQ(dumps.size(), 1u) << "fatal exit did not write a flight dump";
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonParse(ReadFile(dumps[0]), &root).ok());
  // The dump reason is the fatal log line itself.
  EXPECT_NE(root.Find("reason")->string.find("task-conservation violation"),
            std::string::npos);
  const obs::JsonValue& recorders = *root.Find("recorders");
  ASSERT_TRUE(recorders.IsArray());
  ASSERT_EQ(recorders.array.size(), 1u);
  const obs::JsonValue* events = recorders.array[0].Find("events");
  ASSERT_TRUE(events->IsArray());
  EXPECT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[1].Find("kind")->string, "ledger");
}

// Two jobs' rings with different dump dirs: a timeout dump of one writes
// only that ring's events, and only into its own dir; a fatal dump writes
// every live ring, each into its own job's dir.
TEST(FlightRecorder, DumpsGoToEachJobsOwnDir) {
  const std::string dir_a = FreshDir("gt_flight_job_a");
  const std::string dir_b = FreshDir("gt_flight_job_b");
  obs::FlightRecorder a(32, dir_a);
  obs::FlightRecorder b(32, dir_b);
  a.Record({.t_us = 10, .worker = 0, .kind = obs::EventKind::kSpawnBatch,
            .a = 1});
  b.Record({.t_us = 11, .worker = 7, .kind = obs::EventKind::kSpawnBatch,
            .a = 2});
  b.Record({.t_us = 12, .worker = 7, .kind = obs::EventKind::kLedger});

  ASSERT_TRUE(a.WriteDump("timeout"));
  EXPECT_TRUE(DumpsIn(dir_b).empty());
  std::vector<std::string> dumps = DumpsIn(dir_a);
  ASSERT_EQ(dumps.size(), 1u);
  std::string reason;
  std::vector<obs::JsonValue> events = SingleRingEvents(dumps[0], &reason);
  EXPECT_EQ(reason, "timeout");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Find("worker")->number, 0.0);
  EXPECT_EQ(events[0].Find("a")->number, 1.0);

  ASSERT_TRUE(obs::FlightRecorder::WriteCrashDump("fatal"));
  EXPECT_EQ(DumpsIn(dir_a).size(), 2u);
  dumps = DumpsIn(dir_b);
  ASSERT_EQ(dumps.size(), 1u);
  events = SingleRingEvents(dumps[0], &reason);
  EXPECT_EQ(reason, "fatal");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Find("worker")->number, 7.0);
}

// A job without a ring (capacity 0, span tracing off) must not take over
// the application's signal handlers. The child of EXPECT_EXIT is a fresh
// process, so SIGTERM starts at its default disposition there.
TEST(FlightRecorderDeathTest, JobWithoutRingLeavesSignalHandlersAlone) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        static Graph g = Generator::ErdosRenyi(120, 500, 771);
        Job<TriangleComper> job;
        job.config.num_workers = 2;
        job.config.compers_per_worker = 1;
        job.config.flight_recorder_events = 0;
        job.graph = &g;
        job.comper_factory = [] {
          return std::make_unique<TriangleComper>();
        };
        job.trimmer = TrimToGreater;
        Cluster<TriangleComper>::Run(job);
        struct sigaction current {};
        ::sigaction(SIGTERM, nullptr, &current);
        std::exit(current.sa_handler == SIG_DFL ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// split_test's timeout-exit setup: a throttled wire and a 50 ms budget.
JobStats RunOverBudget(int64_t ring_events, const std::string& dump_dir) {
  static Graph g = Generator::PowerLaw(2000, 16.0, 2.4, 971);
  Job<MaximalCliqueComper> job;
  job.config.num_workers = 4;
  job.config.compers_per_worker = 1;
  job.config.enable_stealing = true;
  job.config.time_budget_s = 0.05;
  job.config.task_time_budget_us = 200;
  job.config.task_split_max_candidates = 16;
  job.config.task_split_steal_weight = 8;
  job.config.comm.net.latency_us = 300;
  job.config.comm.net.bandwidth_mbps = 2.0;
  job.config.cache_capacity = 256;
  job.config.cache_num_buckets = 32;
  job.config.flight_recorder_events = ring_events;
  job.config.flight_dump_dir = dump_dir;
  job.graph = &g;
  job.comper_factory = [] { return std::make_unique<MaximalCliqueComper>(); };
  return Cluster<MaximalCliqueComper>::Run(job).stats;
}

// A budget exit dumps the job's own ring: the spawn batches that led up to
// it, with the timeout the newest event on the hub clock every worker
// stamps with. Without a ring nothing is written.
TEST(FlightRecorderE2E, TimeoutDumpEndsWithTheTimeout) {
  const std::string dir = FreshDir("gt_flight_timeout");
  ASSERT_TRUE(RunOverBudget(4096, dir).timed_out);
  const std::vector<std::string> dumps = DumpsIn(dir);
  ASSERT_EQ(dumps.size(), 1u);
  std::string reason;
  const std::vector<obs::JsonValue> events =
      SingleRingEvents(dumps[0], &reason);
  EXPECT_EQ(reason, "timeout");
  int spawn_batches = 0;
  int timeouts = 0;
  double timeout_t_us = -1;
  double latest_other_t_us = -1;
  for (const obs::JsonValue& e : events) {
    const std::string& kind = e.Find("kind")->string;
    const double t_us = e.Find("t_us")->number;
    if (kind == "spawn_batch") ++spawn_batches;
    if (kind == "timeout") {
      ++timeouts;
      timeout_t_us = t_us;
    } else {
      latest_other_t_us = std::max(latest_other_t_us, t_us);
    }
  }
  EXPECT_GT(spawn_batches, 0);
  ASSERT_EQ(timeouts, 1);
  EXPECT_GE(timeout_t_us, latest_other_t_us);

  const std::string off_dir = FreshDir("gt_flight_timeout_off");
  ASSERT_TRUE(RunOverBudget(0, off_dir).timed_out);
  EXPECT_TRUE(DumpsIn(off_dir).empty());
}

}  // namespace
}  // namespace gthinker
