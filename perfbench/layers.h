#ifndef GTHINKER_PERFBENCH_LAYERS_H_
#define GTHINKER_PERFBENCH_LAYERS_H_

// The per-layer ledger: reads the counters one job already returns (the
// worker and hub MetricsSnapshots, from every rank) and reduces them to the
// named per-layer metrics. Nothing here changes what the program records.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "spans.h"

namespace perfbench {

using gthinker::obs::HistogramSnapshot;
using gthinker::obs::MetricsSnapshot;

/// Sum of a counter (or gauge) over every scope and label set.
inline int64_t SumOf(const std::vector<MetricsSnapshot>& metrics,
                     const std::string& name, bool gauge = false) {
  int64_t sum = 0;
  for (const MetricsSnapshot& snap : metrics) {
    for (const auto& [key, value] : gauge ? snap.gauges : snap.counters) {
      if (key == name || key.rfind(name + "{", 0) == 0) sum += value;
    }
  }
  return sum;
}

/// Bucket-wise merge of every histogram with this name.
inline HistogramSnapshot MergedHistogram(
    const std::vector<MetricsSnapshot>& metrics, const std::string& name) {
  HistogramSnapshot out;
  out.name = name;
  for (const MetricsSnapshot& snap : metrics) {
    for (const HistogramSnapshot& h : snap.histograms) {
      if (h.name != name) continue;
      out.count += h.count;
      out.sum += h.sum;
      out.max = std::max(out.max, h.max);
      if (out.buckets.size() < h.buckets.size()) {
        out.buckets.resize(h.buckets.size(), 0);
      }
      for (size_t i = 0; i < h.buckets.size(); ++i) {
        out.buckets[i] += h.buckets[i];
      }
    }
  }
  return out;
}

/// One job's per-layer values. A count is reduced over jobs by its median; a
/// ratio keeps numerator and denominator so that it is reduced as a ratio of
/// sums, which weights every job by its volume.
struct LayerSample {
  std::map<std::string, double> counts;
  std::map<std::string, std::pair<double, double>> ratios;
  std::map<std::string, const char*> units;
};

/// Outcome of the phase-ledger self-check for one job.
struct PhaseCheck {
  int64_t comper_rows = 0;
  int64_t unbalanced_rows = 0;  // named phases + other != phase.loop_us
};

inline PhaseCheck CheckPhases(const gthinker::obs::PhaseProfile& profile) {
  PhaseCheck check;
  for (const auto& row : profile.per_comper) {
    ++check.comper_rows;
    if (row.NamedSum() + row.other_us != row.total_us) {
      ++check.unbalanced_rows;
    }
  }
  return check;
}

/// `elapsed_s` is JobStats::elapsed_s (the master loop); `spans` is null on
/// an untraced job.
inline LayerSample LayerValues(const std::vector<MetricsSnapshot>& metrics,
                               const gthinker::obs::PhaseProfile& profile,
                               const PhaseCheck& phase_check,
                               double elapsed_s, const SpanSummary* spans) {
  LayerSample s;
  auto count = [&](const char* name, double v, const char* unit = "count") {
    s.counts[name] = v;
    s.units[name] = unit;
  };
  auto ratio = [&](const char* name, double num, double den,
                   const char* unit = "ratio") {
    s.ratios[name] = {num, den};
    s.units[name] = unit;
  };
  auto sum = [&](const char* name) {
    return static_cast<double>(SumOf(metrics, name));
  };

  // apps (benchmark decorator; traced jobs only)
  if (spans != nullptr) {
    const int compute = static_cast<int>(SpanKind::kCompute);
    const int spawn = static_cast<int>(SpanKind::kSpawn);
    count("apps.compute_s", spans->self_ns[compute] / 1e9, "s");
    count("apps.compute_calls", static_cast<double>(spans->count[compute]));
    std::vector<int64_t> d = spans->compute_ns;
    double p99 = 0.0;
    if (!d.empty()) {
      const size_t idx = std::min(d.size() - 1, d.size() * 99 / 100);
      std::nth_element(d.begin(), d.begin() + idx, d.end());
      p99 = d[idx] / 1e3;
    }
    count("apps.compute_us_p99", p99, "us");
    count("apps.spawn_s", spans->self_ns[spawn] / 1e9, "s");
    count("span.job.self_s",
          spans->self_ns[static_cast<int>(SpanKind::kJob)] / 1e9, "s");
  }

  // core.worker: the comper-loop phase timers, as shares of phase.loop_us.
  const double loop = sum("phase.loop_us");
  ratio("worker.compute_share", sum("phase.compute_us"), loop);
  ratio("worker.pull_wait_share", sum("phase.pull_wait_us"), loop);
  ratio("worker.queue_wait_share", sum("phase.queue_wait_us"), loop);
  ratio("worker.spill_share", sum("phase.spill_us"), loop);
  ratio("worker.steal_share", sum("phase.steal_us"), loop);
  double other = 0.0;
  for (const auto& row : profile.per_comper) {
    other += static_cast<double>(row.other_us);
  }
  ratio("worker.other_share", other, loop);
  const double rounds =
      static_cast<double>(SumOf(metrics, "comper.rounds", /*gauge=*/true));
  const double idle = static_cast<double>(
      SumOf(metrics, "comper.idle_rounds", /*gauge=*/true));
  ratio("worker.comper_util", rounds - idle, rounds);
  int64_t max_compute = 0, min_compute = -1;
  for (const auto& row : profile.per_worker) {
    max_compute = std::max(max_compute, row.compute_us);
    min_compute = min_compute < 0 ? row.compute_us
                                  : std::min(min_compute, row.compute_us);
  }
  count("worker.imbalance",
        min_compute > 0 ? static_cast<double>(max_compute) / min_compute : 0.0,
        "ratio");
  count("worker.task_iterations", sum("tasks.iterations"));
  ratio("worker.phase_ledger_unbalanced",
        static_cast<double>(phase_check.unbalanced_rows),
        static_cast<double>(phase_check.comper_rows));

  // core.cluster: the master loop and its steal planning.
  count("cluster.mine_s", elapsed_s, "s");
  const double orders = sum("hub.steal_order.sent");
  const double stolen = sum("steal.batches_received");
  count("cluster.steal_orders", orders);
  count("cluster.steal_batches", stolen);
  ratio("cluster.steal_efficiency", stolen, orders);

  // core.vertex_cache (T_cache)
  count("cache.requests", sum("cache.requests"));
  ratio("cache.hit_rate", sum("cache.hits"), sum("cache.requests"));
  count("cache.evictions", sum("cache.evictions"));
  count("cache.gc_passes", sum("cache.gc_passes"));
  count("cache.evict_scan_us", sum("cache.evict_scan_us"), "us");
  count("cache.lock_contention", sum("cache.lock_contention"));
  count("cache.wait_joins", sum("cache.wait_joins"));

  // core pull path: cache misses that went to the wire, coalescer and the
  // responder-side Γ-sharing cache.
  const double vertex_requests = sum("cache.new_requests");
  count("pull.vertex_requests", vertex_requests);
  count("pull.deduped", sum("request.deduped"));
  count("pull.resp_cache_hits", sum("resp_cache.hits"));

  // net.comm_hub. The TCP transport stamps no send time on batches, so the
  // delivery percentiles are zero on tc-tcp2.
  count("hub.batches_sent", sum("hub.batches_sent"));
  count("hub.bytes_sent", sum("hub.bytes_sent"), "bytes");
  ratio("hub.bytes_per_request", sum("hub.bytes_sent"), vertex_requests,
        "bytes");
  const HistogramSnapshot delivery =
      MergedHistogram(metrics, "hub.delivery_us");
  count("hub.delivery_us_p50", delivery.Percentile(0.50), "us");
  count("hub.delivery_us_p99", delivery.Percentile(0.99), "us");

  // net.transport_tcp (absent, hence zero, on the in-process transport)
  count("transport.bytes_sent", sum("transport.bytes_sent"), "bytes");
  count("transport.frames_sent", sum("transport.frames_sent"));
  ratio("transport.frames_per_sendmsg", sum("transport.sendmsg_frames"),
        sum("transport.sendmsg_calls"));
  count("transport.backpressure_waits", sum("transport.backpressure_waits"));
  count("transport.reconnects", sum("transport.reconnects"));
  count("transport.frames_failed",
        sum("transport.frames_dropped") + sum("transport.frames_corrupt"));
  count("transport.batches_abandoned", sum("transport.batches_abandoned"));

  // storage: spill files. Every Fetch is served from the pending queue, the
  // prefetch slot, or a synchronous disk read; spill.read_us counts both
  // synchronous and prefetch reads.
  count("spill.batches", sum("spill.batches"));
  count("spill.write_bytes", sum("spill.write_bytes"), "bytes");
  count("spill.write_us",
        static_cast<double>(MergedHistogram(metrics, "spill.write_us").sum),
        "us");
  const HistogramSnapshot reads = MergedHistogram(metrics, "spill.read_us");
  count("spill.read_us", static_cast<double>(reads.sum), "us");
  const double prefetch_hits = sum("spill.prefetch_hits");
  const double sync_reads = std::max(
      0.0, static_cast<double>(reads.count) - sum("spill.prefetch_reads"));
  ratio("spill.prefetch_hit_rate", prefetch_hits,
        prefetch_hits + sum("spill.mem_hits") + sync_reads);
  return s;
}

}  // namespace perfbench

#endif  // GTHINKER_PERFBENCH_LAYERS_H_
