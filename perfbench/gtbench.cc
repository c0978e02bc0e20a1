// gtbench: the end-to-end mining benchmark.
//
//   gtbench --workload <tc-evict|mcf-skew|tc-tcp2> --seed <n> --seconds <s>
//           --trace <0|1> --work-dir <dir>
//
// Runs whole G-thinker jobs back to back (a closed loop: one job at a time,
// each job one request) for about --seconds, in-process or on forked TCP
// ranks, and times them from outside, around Cluster::Run / RunDistributed.
// Inputs are generated from --seed; every job's answer is checked against a
// serial reference computed before timing starts. With --trace 1, untraced and
// traced jobs alternate; the traced ones wrap each Comper::Compute and
// Comper::TaskSpawn call in a span (spans.h) and feed the per-layer ledger
// (layers.h). The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Spill files, flight-recorder dumps and the Chrome trace of the last traced
// job go under --work-dir.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/kernels.h"
#include "apps/maxclique_app.h"
#include "apps/triangle_app.h"
#include "core/cluster.h"
#include "graph/generator.h"
#include "layers.h"
#include "rank_report.h"
#include "spans.h"
#include "storage/mini_dfs.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using gthinker::CommConfig;
using gthinker::Graph;
using gthinker::JobConfig;
using gthinker::VertexId;

// Cluster shape: 2 workers x 2 compers in-process, 2 ranks x 2 compers over
// TCP. Either way 4 compers, which must not exceed the usable cores.
constexpr int kWorkers = 2;
constexpr int kCompersPerWorker = 2;
constexpr size_t kMcfTau = 400;
// A hung job or rank is counted as failed instead of stalling the run.
constexpr double kJobBudgetS = 30.0;
// Slack past the job budget before gtbench kills a silent TCP rank.
constexpr double kRankGraceS = 30.0;
// Enough timed jobs per run that the tail percentile (10 jobs beyond it) is
// at least the median.
constexpr size_t kMinTimedJobs = 20;
// Host CPU steal (the hypervisor running other guests on this VM's vCPUs)
// comes in episodes of seconds to minutes and slows a job by more than the
// stolen share. A timed job during which more than kStealLimit of the
// VM's CPU time was stolen is run again, for at most kRetryShare x --seconds
// after the planned jobs, and each graph's timing keeps its least-stolen jobs.
constexpr double kStealLimit = 0.01;
constexpr double kRetryShare = 0.5;

enum class AppKind { kTc, kMcf };

struct Workload {
  const char* name;
  AppKind app;
  bool tcp;
  // Generator::PowerLaw parameters of the Table II stand-in.
  VertexId vertices;
  double avg_degree;
  double exponent;
  int64_t cache_capacity;  // 0 = JobConfig default (holds all of V)
  // Graphs generated per run; the closed loop mines them round-robin. MCF
  // job time differs up to ~2.5x between graphs of one family (how many
  // tasks exceed tau follows the heaviest degrees), so mcf-skew pools jobs
  // over several graphs to keep a run's median steady across seeds.
  int graphs;
  // Typical job wall time on a 4-core x86 host. A run makes
  // --seconds / nominal_job_s timed jobs, rounded up to whole rounds, so
  // every run of a workload does the same work and reports its tail at the
  // same percentile.
  double nominal_job_s;
};

constexpr Workload kWorkloads[] = {
    // friendster-like; T_cache holds ~1/12 of V, so pulls evict.
    {"tc-evict", AppKind::kTc, false, 60000, 28.0, 2.5, 5000, 1, 0.6},
    // orkut-like; kernel-bound with skewed per-task cost, nothing evicted.
    {"mcf-skew", AppKind::kMcf, false, 15000, 76.0, 2.6, 0, 24, 1.1},
    // tc-evict's graph and config over 2 forked ranks on loopback TCP.
    {"tc-tcp2", AppKind::kTc, true, 60000, 28.0, 2.5, 5000, 1, 0.65},
};

struct TcApp {
  using ComperT = gthinker::TriangleComper;
  static constexpr const char* kAnswer = "triangles";
  static uint64_t Reference(const Graph& g) {
    return gthinker::CountTrianglesSerial(g);
  }
  static uint64_t Answer(const ComperT::AggT& agg) { return agg; }
  static std::unique_ptr<ComperT> Plain() {
    return std::make_unique<ComperT>();
  }
  static std::unique_ptr<ComperT> Traced(std::vector<Span>* lane,
                                         int32_t index, uint64_t job_span) {
    return std::make_unique<TracedComper<ComperT>>(lane, index, job_span);
  }
};

struct McfApp {
  using ComperT = gthinker::MaxCliqueComper;
  static constexpr const char* kAnswer = "max-clique size";
  static uint64_t Reference(const Graph& g) {
    return gthinker::MaxCliqueSerial(g).size();
  }
  static uint64_t Answer(const ComperT::AggT& agg) { return agg.size(); }
  static std::unique_ptr<ComperT> Plain() {
    return std::make_unique<ComperT>(kMcfTau);
  }
  static std::unique_ptr<ComperT> Traced(std::vector<Span>* lane,
                                         int32_t index, uint64_t job_span) {
    return std::make_unique<TracedComper<ComperT>>(lane, index, job_span,
                                                   kMcfTau);
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

struct Input {
  uint64_t seed = 0;
  Graph graph;
  uint64_t expected = 0;
  double reference_s = 0.0;
};

/// What the benchmark keeps of one job.
struct JobRecord {
  size_t input = 0;
  bool traced = false;
  double wall_s = 0.0;
  double elapsed_s = 0.0;
  double steal_share = 0.0;  // of the VM's CPU time while the job ran
  bool kept = false;         // among the jobs the run's timing uses
  int64_t peak_mem_bytes = 0;
  uint64_t answer = 0;
  std::string failure;  // empty when the job succeeded
  LayerSample layers;
  PhaseCheck phases;
  SpanSummary spans;
  std::vector<std::pair<int, Span>> raw_spans;  // traced jobs only
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// CPU time ticks summed over all CPUs, from the first line of /proc/stat:
/// what the hypervisor stole, and everything. Zeros where it is unreadable.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

/// Reserves `n` distinct ephemeral localhost ports. All sockets stay open
/// until every port is known, so the kernel cannot hand out duplicates.
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

/// The comper factory of one job: plain app compers, or (traced) decorators
/// that record into their own recorder lane under the job span.
template <typename App>
std::function<std::unique_ptr<typename App::ComperT>()> MakeFactory(
    SpanRecorder* recorder, uint64_t job_span) {
  if (recorder == nullptr) return [] { return App::Plain(); };
  auto next_lane = std::make_shared<std::atomic<int32_t>>(0);
  return [recorder, job_span, next_lane] {
    return App::Traced(recorder->NewLane(), next_lane->fetch_add(1),
                       job_span);
  };
}

template <typename App>
gthinker::Job<typename App::ComperT> MakeJob(const Input& in,
                                             const JobConfig& config,
                                             SpanRecorder* recorder,
                                             uint64_t job_span) {
  gthinker::Job<typename App::ComperT> job;
  job.config = config;
  // The program's own task spans are what give each task a span_id(), the
  // request ID of the apps.compute spans; only traced jobs turn them on.
  job.config.enable_span_tracing = recorder != nullptr;
  job.graph = &in.graph;
  job.trimmer = gthinker::TrimToGreater;
  job.comper_factory = MakeFactory<App>(recorder, job_span);
  return job;
}

void Judge(const Input& in, JobRecord* rec, bool timed_out,
           int64_t tasks_lost) {
  if (!rec->failure.empty()) return;
  if (timed_out) {
    rec->failure = "timed out";
  } else if (tasks_lost != 0) {
    rec->failure = "task ledger lost " + std::to_string(tasks_lost);
  } else if (rec->answer != in.expected) {
    rec->failure = "answer " + std::to_string(rec->answer) + " != reference " +
                   std::to_string(in.expected);
  }
}

void FillLayers(const std::vector<MetricsSnapshot>& metrics, JobRecord* rec) {
  const gthinker::obs::PhaseProfile profile =
      gthinker::obs::BuildPhaseProfile(metrics, {});
  rec->phases = CheckPhases(profile);
  rec->layers = LayerValues(metrics, profile, rec->phases, rec->elapsed_s,
                            rec->traced ? &rec->spans : nullptr);
  // Only the job's p99 is needed from here on.
  std::vector<int64_t>().swap(rec->spans.compute_ns);
}

template <typename App>
JobRecord RunInProcess(const Input& in, size_t input, const JobConfig& config,
                       bool traced, uint64_t request_id) {
  using C = typename App::ComperT;
  JobRecord rec;
  rec.input = input;
  rec.traced = traced;
  SpanRecorder recorder;
  const uint64_t job_span =
      traced ? recorder.Begin(SpanKind::kJob, 0, request_id) : 0;
  const gthinker::Job<C> job =
      MakeJob<App>(in, config, traced ? &recorder : nullptr, job_span);
  const int64_t start = NowNs();
  gthinker::RunResult<C> result = gthinker::Cluster<C>::Run(job);
  rec.wall_s = Seconds(start, NowNs());
  if (traced) recorder.End(job_span);

  const gthinker::JobStats& stats = result.stats;
  rec.elapsed_s = stats.elapsed_s;
  rec.peak_mem_bytes = stats.max_peak_mem_bytes;
  rec.answer = App::Answer(result.result);
  Judge(in, &rec, stats.timed_out, stats.tasks_lost);
  if (traced) {
    const std::vector<Span> spans = recorder.Take();
    rec.spans = Summarize(spans);
    for (const Span& s : spans) rec.raw_spans.emplace_back(0, s);
  }
  FillLayers(stats.metrics, &rec);
  return rec;
}

/// One TCP job as the main process sends it to every rank.
struct RankCommand {
  uint64_t input = 0;
  uint64_t request_id = 0;
  int32_t ports[kWorkers] = {};
  uint8_t traced = 0;
};

std::string SpillRoot(const std::string& work_dir, uint64_t request_id) {
  return work_dir + "/spill-" + std::to_string(request_id);
}

/// Runs one job on this rank and encodes what the main process needs of it.
template <typename App>
std::string RankJob(int rank, const Input& in, const JobConfig& config,
                    bool traced, uint64_t request_id) {
  using C = typename App::ComperT;
  SpanRecorder recorder;
  const uint64_t job_span =
      traced ? recorder.Begin(SpanKind::kJob, 0, request_id) : 0;
  const gthinker::Job<C> job =
      MakeJob<App>(in, config, traced ? &recorder : nullptr, job_span);
  const int64_t start = NowNs();
  gthinker::RunResult<C> result =
      gthinker::Cluster<C>::RunDistributed(job, rank);
  RankReport report;
  report.wall_s = Seconds(start, NowNs());
  if (traced) recorder.End(job_span);
  report.rank = rank;
  report.elapsed_s = result.stats.elapsed_s;
  report.answer = App::Answer(result.result);
  report.timed_out = result.stats.timed_out;
  report.tasks_lost = result.stats.tasks_lost;
  report.max_peak_mem_bytes = result.stats.max_peak_mem_bytes;
  report.metrics = std::move(result.stats.metrics);
  if (traced) report.spans = recorder.Take();
  return EncodeRankReport(report);
}

/// Body of one forked rank: serves jobs until the main process closes `cmd_fd`,
/// answering each with a length-prefixed report on `report_fd`.
template <typename App>
int RankServe(int rank, const std::vector<Input>& inputs,
              const JobConfig& base, const std::string& work_dir, int cmd_fd,
              int report_fd) {
  RankCommand cmd;
  while (ReadAll(cmd_fd, &cmd, sizeof(cmd))) {
    if (cmd.input >= inputs.size()) return 4;
    JobConfig config = base;
    config.comm.transport = CommConfig::Transport::kTcp;
    for (int32_t port : cmd.ports) {
      config.comm.hosts.push_back("127.0.0.1:" + std::to_string(port));
    }
    config.spill_root = SpillRoot(work_dir, cmd.request_id);
    const std::string report = RankJob<App>(rank, inputs[cmd.input], config,
                                            cmd.traced != 0, cmd.request_id);
    const uint64_t size = report.size();
    if (!WriteAll(report_fd, &size, sizeof(size)) ||
        !WriteAll(report_fd, report.data(), report.size())) {
      return 3;
    }
  }
  return 0;
}

/// The forked TCP ranks of one run. They are forked once, right after the
/// graphs exist and before the main process starts any thread, and each TCP
/// job is one RankCommand to every rank. Long-lived ranks run their jobs
/// warm, as the main process runs its in-process jobs, so tc-tcp2 and
/// tc-evict differ only in the transport.
class RankPool {
 public:
  using ServeFn = std::function<int(int rank, int cmd_fd, int report_fd)>;

  RankPool() = default;
  RankPool(const RankPool&) = delete;
  RankPool& operator=(const RankPool&) = delete;
  ~RankPool() { Stop(); }

  void Start(const ServeFn& serve) {
    std::fflush(stdout);
    std::fflush(stderr);
    for (int r = 0; r < kWorkers; ++r) {
      int cmd[2], report[2];
      GT_CHECK_EQ(::pipe(cmd), 0);
      GT_CHECK_EQ(::pipe(report), 0);
      const pid_t pid = ::fork();
      GT_CHECK_GE(pid, 0);
      if (pid == 0) {
        // Drop the main process's ends, this rank's and the earlier ranks',
        // so every rank sees EOF as soon as the main process closes its
        // command pipe.
        ::close(cmd[1]);
        ::close(report[0]);
        for (int fd : cmd_fds_) ::close(fd);
        for (int fd : report_fds_) ::close(fd);
        ::_exit(serve(r, cmd[0], report[1]));  // no double stdio flush
      }
      ::close(cmd[0]);
      ::close(report[1]);
      pids_.push_back(pid);
      cmd_fds_.push_back(cmd[1]);
      report_fds_.push_back(report[0]);
    }
  }

  /// Sends `cmd` to every rank and collects one report from each. Returns
  /// an empty string, or why the job failed; after a failure every rank is
  /// killed and reaped, and later jobs fail at once.
  std::string RunJob(const RankCommand& cmd,
                     std::vector<std::string>* reports) {
    if (pids_.empty()) return "ranks are gone after an earlier failure";
    for (int fd : cmd_fds_) {
      if (!WriteAll(fd, &cmd, sizeof(cmd))) return Fail("command write failed");
    }
    reports->assign(kWorkers, std::string());
    std::vector<bool> done(kWorkers, false);
    int pending = kWorkers;
    const int64_t deadline =
        NowNs() + static_cast<int64_t>((kJobBudgetS + kRankGraceS) * 1e9);
    while (pending > 0) {
      std::vector<pollfd> pfds;
      std::vector<int> who;
      for (int r = 0; r < kWorkers; ++r) {
        if (done[r]) continue;
        pfds.push_back(pollfd{report_fds_[r], POLLIN, 0});
        who.push_back(r);
      }
      const int64_t left_ms = (deadline - NowNs()) / 1000000;
      if (left_ms <= 0) return Fail("a rank missed the deadline");
      const int timeout_ms =
          static_cast<int>(std::min<int64_t>(left_ms, 1000));
      const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
      if (ready < 0 && errno != EINTR) return Fail("poll failed");
      for (size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        const int r = who[i];
        std::string& buf = (*reports)[r];
        char chunk[1 << 16];
        const ssize_t n = ::read(report_fds_[r], chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return Fail("rank " + std::to_string(r) + " died");
        buf.append(chunk, static_cast<size_t>(n));
        uint64_t size = 0;
        if (buf.size() >= sizeof(size)) {
          std::memcpy(&size, buf.data(), sizeof(size));
          if (buf.size() == sizeof(size) + size) {
            buf.erase(0, sizeof(size));
            done[r] = true;
            --pending;
          }
        }
      }
    }
    return "";
  }

  /// Closes the command pipes and reaps every rank; true when each exited
  /// cleanly.
  bool Stop() {
    for (int fd : cmd_fds_) ::close(fd);
    bool clean = true;
    for (pid_t pid : pids_) {
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    for (int fd : report_fds_) ::close(fd);
    pids_.clear();
    cmd_fds_.clear();
    report_fds_.clear();
    return clean && !failed_;
  }

 private:
  std::string Fail(std::string why) {
    for (pid_t pid : pids_) ::kill(pid, SIGKILL);
    Stop();
    failed_ = true;
    return why;
  }

  std::vector<pid_t> pids_;
  std::vector<int> cmd_fds_;
  std::vector<int> report_fds_;
  bool failed_ = false;
};

template <typename App>
JobRecord RunTcp(RankPool* pool, const Input& in, size_t input, bool traced,
                 uint64_t request_id) {
  JobRecord rec;
  rec.input = input;
  rec.traced = traced;
  RankCommand cmd;
  cmd.input = input;
  cmd.request_id = request_id;
  cmd.traced = traced ? 1 : 0;
  const std::vector<int> ports = PickFreePorts(kWorkers);
  std::copy(ports.begin(), ports.end(), cmd.ports);
  std::vector<std::string> bytes;
  rec.failure = pool->RunJob(cmd, &bytes);
  if (!rec.failure.empty()) return rec;

  std::vector<RankReport> reports(kWorkers);
  for (int r = 0; r < kWorkers; ++r) {
    const gthinker::Status st = DecodeRankReport(bytes[r], &reports[r]);
    if (!st.ok() || reports[r].rank != r) {
      rec.failure = "rank " + std::to_string(r) + " sent a bad report";
      return rec;
    }
  }
  // Rank 0 hosts the master: its answer, timing and ledger verdict are the
  // job's. Memory is the max over ranks; the counters are summed.
  const RankReport& master = reports[0];
  rec.wall_s = master.wall_s;
  rec.elapsed_s = master.elapsed_s;
  rec.answer = master.answer;
  std::vector<MetricsSnapshot> metrics;
  bool timed_out = false;
  int64_t tasks_lost = 0;
  for (RankReport& report : reports) {
    rec.peak_mem_bytes =
        std::max(rec.peak_mem_bytes, report.max_peak_mem_bytes);
    timed_out = timed_out || report.timed_out;
    tasks_lost += report.tasks_lost;
    for (auto& snap : report.metrics) metrics.push_back(std::move(snap));
    if (traced) {
      // Span ids are per process, so each rank is summarized on its own.
      rec.spans.Merge(Summarize(report.spans));
      for (const Span& s : report.spans) {
        rec.raw_spans.emplace_back(report.rank, s);
      }
    }
  }
  Judge(in, &rec, timed_out, tasks_lost);
  FillLayers(metrics, &rec);
  return rec;
}

void PrintJsonMetric(std::string* out, const std::string& name, double value,
                     const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name.c_str(), value, unit);
  *out += buf;
}

/// The timing statistics of one set of jobs (untraced or traced).
struct Timing {
  size_t jobs = 0;
  double job_s = 0.0;
  double tail_s = 0.0;
  double tail_pct = 0.0;
  double setup_s = 0.0;
  double peak_mem_mb = 0.0;
};

bool Disturbed(const JobRecord& j) {
  return j.failure.empty() && j.steal_share > kStealLimit;
}

/// Marks, for each graph and traced flag, the `per_group` successful jobs
/// with the least steal (the earlier one on a tie) as kept.
void KeepLeastStolen(size_t per_group, std::vector<JobRecord>* jobs) {
  std::map<std::pair<size_t, bool>, std::vector<JobRecord*>> groups;
  for (JobRecord& j : *jobs) {
    j.kept = false;
    if (j.failure.empty()) groups[{j.input, j.traced}].push_back(&j);
  }
  for (auto& [key, group] : groups) {
    std::stable_sort(group.begin(), group.end(),
                     [](const JobRecord* a, const JobRecord* b) {
                       return a->steal_share < b->steal_share;
                     });
    for (size_t i = 0; i < std::min(per_group, group.size()); ++i) {
      group[i]->kept = true;
    }
  }
}

/// Pooled over the run's kept jobs, whichever graph they mined. The tail is
/// the highest per-job wall-time percentile that has at least 10 jobs beyond
/// it.
Timing Reduce(const std::vector<JobRecord>& jobs, bool traced) {
  Timing t;
  std::vector<double> wall, setup, mem;
  for (const JobRecord& j : jobs) {
    if (j.traced != traced || !j.kept) continue;
    wall.push_back(j.wall_s);
    setup.push_back(j.wall_s - j.elapsed_s);
    mem.push_back(static_cast<double>(j.peak_mem_bytes) / (1 << 20));
  }
  t.jobs = wall.size();
  if (wall.empty()) return t;
  t.job_s = Median(wall);
  t.setup_s = Median(setup);
  t.peak_mem_mb = Median(mem);
  std::sort(wall.begin(), wall.end());
  const size_t n = wall.size();
  t.tail_s = wall[n > 10 ? n - 11 : 0];
  t.tail_pct = n > 10 ? 100.0 * static_cast<double>(n - 10) / n : 0.0;
  return t;
}

template <typename App>
int Bench(const Workload& w, const Args& args) {
  const int cores = UsableCores();
  const int compers = kWorkers * kCompersPerWorker;
  JobConfig config;
  config.num_workers = kWorkers;
  config.compers_per_worker = kCompersPerWorker;
  if (w.cache_capacity > 0) config.cache_capacity = w.cache_capacity;
  config.time_budget_s = kJobBudgetS;
  config.flight_dump_dir = args.work_dir + "/flight";
  std::printf("# workload %s (%s), seed %llu: nproc %d, %d %s x %d compers = "
              "%d compers, cache_capacity %lld\n",
              w.name, w.tcp ? "tcp ranks" : "in-process",
              static_cast<unsigned long long>(args.seed), cores, kWorkers,
              w.tcp ? "ranks" : "workers", kCompersPerWorker, compers,
              static_cast<long long>(config.cache_capacity));
  if (compers > cores) {
    std::fprintf(stderr,
                 "refusing to run: %d compers on %d usable cores would "
                 "oversubscribe them\n",
                 compers, cores);
    return 2;
  }

  // ---- inputs and reference answers, before any timing ----
  SpanRecorder setup_spans;
  std::vector<Input> inputs(static_cast<size_t>(w.graphs));
  std::vector<double> gen_s;
  for (size_t i = 0; i < inputs.size(); ++i) {
    Input& in = inputs[i];
    in.seed = args.seed * static_cast<uint64_t>(w.graphs) + i;
    const uint64_t span = setup_spans.Begin(SpanKind::kGraphGen, 0, in.seed);
    const int64_t start = NowNs();
    in.graph = gthinker::Generator::PowerLaw(w.vertices, w.avg_degree,
                                             w.exponent, in.seed);
    gen_s.push_back(Seconds(start, NowNs()));
    setup_spans.End(span);
  }
  const std::vector<Span> gen_spans = setup_spans.Take();

  // TCP ranks fork now, while this process is still single-threaded.
  RankPool ranks;
  if (w.tcp) {
    ranks.Start([&](int rank, int cmd_fd, int report_fd) {
      return RankServe<App>(rank, inputs, config, args.work_dir, cmd_fd,
                            report_fd);
    });
  }
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    const size_t threads =
        std::min(inputs.size(), static_cast<size_t>(std::max(cores, 1)));
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next++; i < inputs.size(); i = next++) {
          const int64_t start = NowNs();
          inputs[i].expected = App::Reference(inputs[i].graph);
          inputs[i].reference_s = Seconds(start, NowNs());
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    std::printf("# graph %zu: seed %llu |V| %u |E| %llu, serial %s %llu "
                "(%.3f s)\n",
                i, static_cast<unsigned long long>(in.seed),
                in.graph.NumVertices(),
                static_cast<unsigned long long>(in.graph.NumEdges()),
                App::kAnswer, static_cast<unsigned long long>(in.expected),
                in.reference_s);
  }

  int64_t attempted = 0, failed = 0;
  uint64_t next_job = 0;
  // Raw spans are kept for the last traced job only; the others are
  // summarized as they finish.
  std::vector<std::pair<int, Span>> last_trace;
  auto run = [&](size_t input, bool traced, bool tcp) {
    const uint64_t request_id = ++next_job;
    JobConfig c = config;
    c.spill_root = SpillRoot(args.work_dir, request_id);
    const CpuTicks before = ReadCpuTicks();
    JobRecord rec =
        tcp ? RunTcp<App>(&ranks, inputs[input], input, traced, request_id)
            : RunInProcess<App>(inputs[input], input, c, traced, request_id);
    rec.steal_share = StealShare(before, ReadCpuTicks());
    gthinker::RemoveTree(c.spill_root);
    if (traced) last_trace = std::move(rec.raw_spans);
    rec.raw_spans.clear();
    ++attempted;
    if (!rec.failure.empty()) {
      ++failed;
      std::printf("# job %llu (graph %zu%s) FAILED: %s\n",
                  static_cast<unsigned long long>(request_id), input,
                  traced ? ", traced" : "", rec.failure.c_str());
    }
    return rec;
  };

  // ---- warm-up and cross-transport check (untimed) ----
  // tc-tcp2 first runs tc-evict's in-process job on the same graph: both
  // transports must give the same count.
  bool transports_agree = true;
  const JobRecord warm = run(0, false, /*tcp=*/false);
  if (w.tcp) {
    const JobRecord tcp_warm = run(0, false, /*tcp=*/true);
    transports_agree = warm.failure.empty() && tcp_warm.failure.empty() &&
                       warm.answer == tcp_warm.answer;
    std::printf("# check: in-process %s %llu, tcp %llu -- %s\n", App::kAnswer,
                static_cast<unsigned long long>(warm.answer),
                static_cast<unsigned long long>(tcp_warm.answer),
                transports_agree ? "same" : "DIFFERENT");
  }

  // ---- timed closed loop ----
  std::vector<JobRecord> jobs;
  const int64_t loop_start = NowNs();
  // Whole rounds only, so every graph is mined equally often. The traced run
  // pairs each untraced job with a traced one within the same time and
  // reports no tail, so it needs no minimum job count.
  const double target_jobs =
      args.trace ? args.seconds / w.nominal_job_s / 2
                 : std::max(args.seconds / w.nominal_job_s,
                            static_cast<double>(kMinTimedJobs));
  const size_t rounds = static_cast<size_t>(
      std::ceil(target_jobs / static_cast<double>(inputs.size())));
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      jobs.push_back(run(i, false, w.tcp));
      if (args.trace) jobs.push_back(run(i, true, w.tcp));
    }
  }
  // Re-runs, graph by graph, until each graph has `rounds` undisturbed
  // untraced jobs or the retry time is up. A traced run re-runs the pair.
  const size_t planned = jobs.size();
  const int64_t retry_end =
      NowNs() + static_cast<int64_t>(kRetryShare * args.seconds * 1e9);
  for (bool short_of_jobs = true; short_of_jobs && NowNs() < retry_end;) {
    short_of_jobs = false;
    for (size_t i = 0; i < inputs.size() && NowNs() < retry_end; ++i) {
      size_t undisturbed = 0;
      for (const JobRecord& j : jobs) {
        undisturbed += j.input == i && !j.traced && !Disturbed(j);
      }
      if (undisturbed >= rounds) continue;
      short_of_jobs = true;
      jobs.push_back(run(i, false, w.tcp));
      if (args.trace) jobs.push_back(run(i, true, w.tcp));
    }
  }
  KeepLeastStolen(rounds, &jobs);
  const double loop_s = Seconds(loop_start, NowNs());
  const bool ranks_clean = ranks.Stop();
  if (!ranks_clean) std::printf("# a TCP rank did not exit cleanly\n");

  // ---- self-checks ----
  int64_t comper_rows = 0, unbalanced_rows = 0, outside_parent = 0;
  for (const JobRecord& j : jobs) {
    comper_rows += j.phases.comper_rows;
    unbalanced_rows += j.phases.unbalanced_rows;
    outside_parent += j.spans.outside_parent;
  }
  std::printf("# self-check: %lld comper rows, %lld where named phases + "
              "other != phase.loop_us; %lld spans outside their parent\n",
              static_cast<long long>(comper_rows),
              static_cast<long long>(unbalanced_rows),
              static_cast<long long>(outside_parent));
  // The phase ledger is a diagnostic, not an output of the program: its
  // check is reported (and as worker.phase_ledger_unbalanced) but does not
  // decide `correct`.
  const bool correct =
      failed == 0 && outside_parent == 0 && transports_agree && ranks_clean;

  const Timing plain = Reduce(jobs, /*traced=*/false);
  size_t disturbed = 0, kept_disturbed = 0;
  std::vector<double> kept_steal;
  for (const JobRecord& j : jobs) {
    disturbed += Disturbed(j);
    kept_disturbed += j.kept && Disturbed(j);
    if (j.kept) kept_steal.push_back(j.steal_share);
  }
  std::printf("# %zu timed jobs in %.1f s; attempted %lld, failed %lld, "
              "fail_frac %.4f\n",
              plain.jobs, loop_s, static_cast<long long>(attempted),
              static_cast<long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("# host steal: %zu of %zu jobs over %.0f%% of CPU time, %zu "
              "re-run jobs, %zu such jobs kept; kept jobs' median steal "
              "%.2f%%\n",
              disturbed, jobs.size(), 100 * kStealLimit, jobs.size() - planned,
              kept_disturbed, 100 * Median(kept_steal));
  std::printf("# job_s %.4f, job_s_tail %.4f (p%.0f of %zu jobs), setup_s "
              "%.4f, peak_mem_mb %.3f\n",
              plain.job_s, plain.tail_s, plain.tail_pct, plain.jobs,
              plain.setup_s, plain.peak_mem_mb);

  std::string metrics;
  if (!args.trace) {
    PrintJsonMetric(&metrics, "job_s", plain.job_s, "s");
    PrintJsonMetric(&metrics, "job_s_tail", plain.tail_s, "s");
    PrintJsonMetric(&metrics, "setup_s", plain.setup_s, "s");
    PrintJsonMetric(&metrics, "peak_mem_mb", plain.peak_mem_mb, "MiB");
  } else {
    const Timing traced = Reduce(jobs, /*traced=*/true);
    std::map<std::string, std::vector<double>> counts;
    std::map<std::string, std::pair<double, double>> ratios;
    std::map<std::string, const char*> units = {
        {"span.graph.gen_s", "s"}, {"obs.trace_overhead", "ratio"}};
    SpanSummary spans;
    for (const JobRecord& j : jobs) {
      if (!j.traced || !j.kept) continue;
      for (const auto& [name, v] : j.layers.counts) counts[name].push_back(v);
      for (const auto& [name, nd] : j.layers.ratios) {
        ratios[name].first += nd.first;
        ratios[name].second += nd.second;
      }
      units.insert(j.layers.units.begin(), j.layers.units.end());
      spans.Merge(j.spans);
    }
    spans.Merge(Summarize(gen_spans));
    std::map<std::string, double> layer;
    for (const auto& [name, v] : counts) layer[name] = Median(v);
    for (const auto& [name, nd] : ratios) {
      layer[name] = nd.second > 0 ? nd.first / nd.second : 0.0;
    }
    layer["span.graph.gen_s"] = Median(gen_s);
    layer["obs.trace_overhead"] =
        plain.job_s > 0 ? traced.job_s / plain.job_s - 1.0 : 0.0;
    std::printf("# traced job_s %.4f over %zu jobs: obs.trace_overhead %.4f\n",
                traced.job_s, traced.jobs, layer["obs.trace_overhead"]);
    std::printf("# %-14s %9s %12s %12s\n", "span", "count", "total_s",
                "self_s");
    for (int k = 0; k < kNumSpanKinds; ++k) {
      std::printf("# %-14s %9lld %12.4f %12.4f\n",
                  SpanKindName(static_cast<SpanKind>(k)),
                  static_cast<long long>(spans.count[k]),
                  spans.total_ns[k] / 1e9, spans.self_ns[k] / 1e9);
    }
    for (const auto& [name, v] : layer) {
      std::printf("# %-32s %.6g %s\n", name.c_str(), v, units[name]);
      PrintJsonMetric(&metrics, name, v, units[name]);
    }
    {
      std::vector<std::pair<int, Span>> out;
      for (const Span& s : gen_spans) out.emplace_back(0, s);
      out.insert(out.end(), last_trace.begin(), last_trace.end());
      const std::string dir = args.work_dir + "/traces";
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      const std::string path = dir + "/" + w.name + "-seed" +
                               std::to_string(args.seed) + ".json";
      if (WriteChromeTrace(path, out)) {
        std::printf("# trace of the last traced job: %s\n", path.c_str());
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[5] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have[1] = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have[2] = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      have[3] = args->trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
      have[4] = !args->work_dir.empty();
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && std::all_of(have, have + 5, [](bool b) { return b; });
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gtbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  gthinker::SetLogLevel(gthinker::LogLevel::kWarning);
  // A rank that died must fail its job, not kill this process on the next
  // command write.
  ::signal(SIGPIPE, SIG_IGN);
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    std::filesystem::create_directories(args.work_dir);
    return w.app == AppKind::kTc ? Bench<TcApp>(w, args)
                                 : Bench<McfApp>(w, args);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
