#ifndef GTHINKER_PERFBENCH_RANK_REPORT_H_
#define GTHINKER_PERFBENCH_RANK_REPORT_H_

// What one forked TCP rank sends back to the main process over its pipe,
// per job.
// RunDistributed returns only local stats on ranks other than 0, so every
// rank ships its JobStats fields, its worker and hub MetricsSnapshots, and
// (on a traced job) its spans; the main process sums them.

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "spans.h"
#include "util/serializer.h"
#include "util/status.h"

namespace perfbench {

struct RankReport {
  int32_t rank = -1;
  double wall_s = 0.0;     // around the RunDistributed call
  double elapsed_s = 0.0;  // JobStats::elapsed_s
  uint64_t answer = 0;     // authoritative on rank 0 only
  bool timed_out = false;
  int64_t tasks_lost = 0;
  int64_t max_peak_mem_bytes = 0;
  std::vector<gthinker::obs::MetricsSnapshot> metrics;
  std::vector<Span> spans;
};

namespace internal_report {

using Pairs = std::vector<std::pair<std::string, int64_t>>;

inline void EncodePairs(gthinker::Serializer& ser, const Pairs& pairs) {
  ser.Write<uint64_t>(pairs.size());
  for (const auto& [key, value] : pairs) {
    ser.WriteString(key);
    ser.Write(value);
  }
}

inline gthinker::Status DecodePairs(gthinker::Deserializer& des, Pairs* out) {
  uint64_t n = 0;
  GT_RETURN_IF_ERROR(des.Read(&n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string key;
    int64_t value = 0;
    GT_RETURN_IF_ERROR(des.ReadString(&key));
    GT_RETURN_IF_ERROR(des.Read(&value));
    out->emplace_back(std::move(key), value);
  }
  return gthinker::Status::Ok();
}

}  // namespace internal_report

inline std::string EncodeRankReport(const RankReport& r) {
  gthinker::Serializer ser;
  ser.Write(r.rank);
  ser.Write(r.wall_s);
  ser.Write(r.elapsed_s);
  ser.Write(r.answer);
  ser.Write<uint8_t>(r.timed_out ? 1 : 0);
  ser.Write(r.tasks_lost);
  ser.Write(r.max_peak_mem_bytes);
  ser.Write<uint64_t>(r.metrics.size());
  for (const gthinker::obs::MetricsSnapshot& snap : r.metrics) {
    ser.WriteString(snap.scope);
    internal_report::EncodePairs(ser, snap.counters);
    internal_report::EncodePairs(ser, snap.gauges);
    ser.Write<uint64_t>(snap.histograms.size());
    for (const gthinker::obs::HistogramSnapshot& h : snap.histograms) {
      ser.WriteString(h.name);
      ser.WriteString(h.labels);
      ser.Write(h.count);
      ser.Write(h.sum);
      ser.Write(h.max);
      ser.WriteVector(h.buckets);
    }
  }
  ser.WriteVector(r.spans);
  return ser.Release();
}

inline gthinker::Status DecodeRankReport(const std::string& bytes,
                                         RankReport* r) {
  gthinker::Deserializer des(bytes);
  uint8_t timed_out = 0;
  GT_RETURN_IF_ERROR(des.Read(&r->rank));
  GT_RETURN_IF_ERROR(des.Read(&r->wall_s));
  GT_RETURN_IF_ERROR(des.Read(&r->elapsed_s));
  GT_RETURN_IF_ERROR(des.Read(&r->answer));
  GT_RETURN_IF_ERROR(des.Read(&timed_out));
  r->timed_out = timed_out != 0;
  GT_RETURN_IF_ERROR(des.Read(&r->tasks_lost));
  GT_RETURN_IF_ERROR(des.Read(&r->max_peak_mem_bytes));
  uint64_t num_snaps = 0;
  GT_RETURN_IF_ERROR(des.Read(&num_snaps));
  for (uint64_t i = 0; i < num_snaps; ++i) {
    gthinker::obs::MetricsSnapshot snap;
    GT_RETURN_IF_ERROR(des.ReadString(&snap.scope));
    GT_RETURN_IF_ERROR(internal_report::DecodePairs(des, &snap.counters));
    GT_RETURN_IF_ERROR(internal_report::DecodePairs(des, &snap.gauges));
    uint64_t num_hists = 0;
    GT_RETURN_IF_ERROR(des.Read(&num_hists));
    for (uint64_t h = 0; h < num_hists; ++h) {
      gthinker::obs::HistogramSnapshot hist;
      GT_RETURN_IF_ERROR(des.ReadString(&hist.name));
      GT_RETURN_IF_ERROR(des.ReadString(&hist.labels));
      GT_RETURN_IF_ERROR(des.Read(&hist.count));
      GT_RETURN_IF_ERROR(des.Read(&hist.sum));
      GT_RETURN_IF_ERROR(des.Read(&hist.max));
      GT_RETURN_IF_ERROR(des.ReadVector(&hist.buckets));
      snap.histograms.push_back(std::move(hist));
    }
    r->metrics.push_back(std::move(snap));
  }
  GT_RETURN_IF_ERROR(des.ReadVector(&r->spans));
  return gthinker::Status::Ok();
}

/// Writes all `n` bytes to `fd`, retrying short writes and EINTR.
inline bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < n) {
    const ssize_t k = ::write(fd, p + done, n - done);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    done += static_cast<size_t>(k);
  }
  return true;
}

/// Reads exactly `n` bytes from `fd`; false on EOF or error.
inline bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  size_t done = 0;
  while (done < n) {
    const ssize_t k = ::read(fd, p + done, n - done);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    done += static_cast<size_t>(k);
  }
  return true;
}

}  // namespace perfbench

#endif  // GTHINKER_PERFBENCH_RANK_REPORT_H_
