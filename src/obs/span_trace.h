#ifndef GTHINKER_OBS_SPAN_TRACE_H_
#define GTHINKER_OBS_SPAN_TRACE_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "util/status.h"

namespace gthinker::obs {

/// Serializes span-kind events of the job's ring (JobStats::spans) as
/// Chrome trace-event JSON ("JSON object format"), loadable in Perfetto /
/// chrome://tracing: workers map to processes, compers to threads; execute
/// events are complete ("X") slices with real durations, the other kinds
/// instant ("i") marks. Timestamps are already
/// microseconds, the unit the format expects.
inline std::string ChromeTraceJson(const std::vector<Event>& events,
                                   int num_workers = 0) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (int worker = 0; worker < num_workers; ++worker) {
    w.BeginObject();
    w.Key("name");
    w.String("process_name");
    w.Key("ph");
    w.String("M");
    w.Key("pid");
    w.Int(worker);
    w.Key("tid");
    w.Int(0);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String("worker" + std::to_string(worker));
    w.EndObject();
    w.EndObject();
  }
  for (const Event& e : events) {
    w.BeginObject();
    w.Key("name");
    w.String(EventKindName(e.kind));
    w.Key("cat");
    w.String("task");
    w.Key("ph");
    w.String(e.kind == EventKind::kExecute ? "X" : "i");
    if (e.kind != EventKind::kExecute) {
      w.Key("s");  // instant-event scope: thread
      w.String("t");
    }
    w.Key("ts");
    w.Int(e.t_us);
    if (e.kind == EventKind::kExecute) {
      w.Key("dur");
      w.Int(e.dur_us);
    }
    w.Key("pid");
    w.Int(e.worker);
    w.Key("tid");
    // Comper -1 (worker-level events) displays as its own lane.
    w.Int(e.comper >= 0 ? e.comper : 999);
    w.Key("args");
    w.BeginObject();
    w.Key("task");
    w.UInt(e.task_id);
    if (e.parent_task_id != 0) {
      w.Key("parent");
      w.UInt(e.parent_task_id);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

inline Status WriteChromeTrace(const std::string& path,
                               const std::vector<Event>& events,
                               int num_workers = 0) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open trace file " + path);
  }
  out << ChromeTraceJson(events, num_workers);
  out.close();
  if (!out.good()) return Status::IoError("short write to " + path);
  return Status::Ok();
}

}  // namespace gthinker::obs

#endif  // GTHINKER_OBS_SPAN_TRACE_H_
