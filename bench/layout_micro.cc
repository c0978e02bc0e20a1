// Microbenchmark for the cache-topology layout pass (JobConfig::layout):
// hub-last renumbering on vs off, over hub-skew / power-law generators and
// two kernels (TC and MCF).
//
// Why hub-last (degree-ascending, hubs at the *highest* IDs): under the Γ_>
// trimmed orientation a task rooted at v only keeps neighbors with larger
// IDs, so ascending degree order is the classic degeneracy orientation —
// every task's candidate set is bounded by the core number instead of by the
// max degree, and a hub's trimmed row only keeps its higher-degree peers, so
// the rows that are pulled constantly are tiny and stay cache-resident. The
// opposite direction (hub-first / degree-descending) was measured and
// rejected: it hands each hub its whole neighborhood as candidates, blowing
// up the superlinear kernels (3x slower MCF), and collapses pull reuse.
//
// Workloads:
//  - hubskew: Generator::HubSkewed — dense hubs at *random* IDs over a
//    sparse background, BTC-style; triangle counting.
//  - table2/btc, table2/friendster: the Table II stand-ins (extreme hub
//    skew / power-law), triangle counting under Table V(a) cache pressure
//    (small c_cache, slow simulated wire) so re-pulled bytes cost something.
//  - table5a/friendster-mcf: maximum clique finding on the friendster
//    stand-in at the Table V(a) cache operating point — the end-to-end case
//    where the bounded candidate sets matter most.
//
// The binary exits non-zero unless both variants of a workload produce the
// same count (renumbering must be semantics-preserving).
//
// Usage: layout_micro [--json PATH]   (writes BENCH_layout.json rows)

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/generator.h"

namespace gthinker::bench {
namespace {

struct Variant {
  const char* label;
  bool reorder;
};

constexpr Variant kVariants[] = {
    {"reorder-off", false},
    {"reorder-on", true},
};

}  // namespace

int Main(int argc, char** argv) {
  struct Workload {
    std::string name;
    Graph graph;
    bool mcf;                 // run MCF instead of triangle counting
    int64_t cache_capacity;   // per-workload cache operating point
    double bandwidth_mbps;    // simulated wire speed
  };
  std::vector<Workload> workloads;
  workloads.push_back(
      {"hubskew",
       Generator::HubSkewed(/*n=*/20000, /*hubs=*/24, /*hub_degree=*/700,
                            /*background_avg_degree=*/3.0, /*seed=*/20260808),
       /*mcf=*/false, /*cache_capacity=*/400, /*bandwidth_mbps=*/100.0});
  // The Table II dataset with the most hub mass: BTC's extreme skew is where
  // the degeneracy orientation pays most for a TC-style pull pattern.
  workloads.push_back({"table2/btc", MakeDataset("btc").graph,
                       /*mcf=*/false, /*cache_capacity=*/400,
                       /*bandwidth_mbps=*/100.0});
  // Power-law with degree uncorrelated to ID — the generic case.
  workloads.push_back({"table2/friendster",
                       MakeDataset("friendster", /*scale=*/0.5).graph,
                       /*mcf=*/false, /*cache_capacity=*/400,
                       /*bandwidth_mbps=*/100.0});
  // Table V(a) MCF operating point: a superlinear kernel where bounding the
  // per-task candidate set (hub-last = degeneracy orientation) dominates.
  workloads.push_back({"table5a/friendster-mcf",
                       MakeDataset("friendster", /*scale=*/0.35).graph,
                       /*mcf=*/true, /*cache_capacity=*/5000,
                       /*bandwidth_mbps=*/1000.0});

  JobConfig base = DefaultConfig();
  base.comm.net.latency_us = 100;
  base.time_budget_s = 300.0;

  BenchJson doc;
  doc.bench = "layout_micro";
  doc.EchoConfig(base);

  std::printf("layout_micro: hub-last renumbering\n");
  std::printf("%-22s %-14s %10s %12s %14s\n", "workload", "config",
              "elapsed", "cache_hit", "count");

  bool all_match = true;
  for (const Workload& w : workloads) {
    double elapsed[2] = {0, 0};
    uint64_t values[2] = {0, 0};
    for (size_t i = 0; i < 2; ++i) {
      JobConfig config = base;
      config.cache_capacity = w.cache_capacity;
      config.comm.net.bandwidth_mbps = w.bandwidth_mbps;
      config.layout.reorder = kVariants[i].reorder;
      const RunOutcome o = w.mcf ? RunGthinkerMcf(w.graph, config)
                                 : RunGthinkerTc(w.graph, config);
      elapsed[i] = o.elapsed_s;
      values[i] = o.value;

      BenchJson::Row* row = doc.AddRow(w.name + "/" + kVariants[i].label);
      FillRow(row, o);
      row->numbers["reorder"] = kVariants[i].reorder ? 1.0 : 0.0;
      row->numbers["cache_evictions"] =
          static_cast<double>(o.stats.cache_evictions);
      row->numbers["bytes_sent"] = static_cast<double>(o.stats.bytes_sent);

      std::printf("%-22s %-14s %9.2fs %12.3f %14llu\n", w.name.c_str(),
                  kVariants[i].label, o.elapsed_s, o.stats.CacheHitRate(),
                  static_cast<unsigned long long>(o.value));
    }
    all_match &= values[1] == values[0];

    BenchJson::Row* summary = doc.AddRow(w.name + "/summary");
    summary->numbers["speedup_reorder"] =
        elapsed[1] > 0 ? elapsed[0] / elapsed[1] : 0.0;
    summary->numbers["results_match"] = values[1] == values[0] ? 1.0 : 0.0;
    std::printf("%s: reorder %.2fx (counts %s)\n", w.name.c_str(),
                elapsed[1] > 0 ? elapsed[0] / elapsed[1] : 0.0,
                values[1] == values[0] ? "identical" : "MISMATCH");
  }

  const Status st = doc.WriteTo(JsonPathArg(argc, argv));
  if (!st.ok()) {
    std::fprintf(stderr, "json write failed: %s\n", st.message().c_str());
    return 1;
  }
  return all_match ? 0 : 2;
}

}  // namespace gthinker::bench

int main(int argc, char** argv) { return gthinker::bench::Main(argc, argv); }
