#ifndef GTHINKER_BASELINES_PREGEL_ENGINE_H_
#define GTHINKER_BASELINES_PREGEL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/codec.h"
#include "core/vertex.h"
#include "graph/graph.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/serializer.h"
#include "util/timer.h"

namespace gthinker::baselines {

/// Vertex-centric BSP engine (the Giraph/Pregel baseline of paper §VI).
/// Vertices are hash-partitioned across `num_workers` partitions, each driven
/// by its own thread per superstep; all cross-vertex communication is
/// *serialized* into per-partition byte buffers at the barrier, so the
/// message volume — the thing that makes vertex-centric subgraph mining
/// IO/memory-bound — is measured in real bytes and counted against the
/// memory cap (the stand-in for Giraph's OOM failures in Table III).
///
/// MsgT serializes through Codec<MsgT> (core/codec.h; arithmetic types work
/// out of the box, other types specialize Codec or keep legacy overloads).
template <typename ValueT, typename MsgT>
class PregelEngine {
 public:
  struct Options {
    int num_workers = 2;
    double time_budget_s = 0.0;     // 0 = unlimited
    int64_t mem_cap_bytes = 0;      // 0 = unlimited; exceeded => abort
    int max_supersteps = 10'000;
  };

  struct Result {
    double elapsed_s = 0.0;
    bool timed_out = false;
    bool mem_exceeded = false;
    int supersteps = 0;
    int64_t peak_mem_bytes = 0;
    int64_t messages_sent = 0;
    int64_t message_bytes = 0;
  };

  /// Per-vertex compute context: send messages, vote to halt.
  class Context {
   public:
    int superstep() const { return superstep_; }

    void Send(VertexId dst, const MsgT& msg) {
      const int part = static_cast<int>(dst % num_partitions_);
      Serializer& out = (*outbox_)[part];
      const size_t before = out.size();
      out.Write(dst);
      Codec<MsgT>::Encode(out, msg);
      outbox_bytes_->fetch_add(static_cast<int64_t>(out.size() - before),
                               std::memory_order_relaxed);
      ++*messages_;
    }

    void VoteToHalt() { *halted_ = true; }

   private:
    template <typename V, typename M>
    friend class PregelEngine;
    int superstep_ = 0;
    uint32_t num_partitions_ = 1;
    std::vector<Serializer>* outbox_ = nullptr;
    std::atomic<int64_t>* outbox_bytes_ = nullptr;
    int64_t* messages_ = nullptr;
    bool* halted_ = nullptr;
  };

  using ComputeFn = std::function<void(VertexId v, const AdjList& adj,
                                       ValueT& value,
                                       const std::vector<MsgT>& messages,
                                       Context& ctx)>;

  Result Run(const Graph& graph, ComputeFn compute, const Options& opts) {
    GT_CHECK_GT(opts.num_workers, 0);
    const int W = opts.num_workers;
    const VertexId n = graph.NumVertices();

    std::vector<ValueT> values(n);
    // uint8_t (not vector<bool>): partitions write disjoint indices in
    // parallel, which bit-packing would turn into data races.
    std::vector<uint8_t> halted(n, 0);
    // inbox[w]: decoded messages for partition w's vertices this superstep.
    std::vector<std::unordered_map<VertexId, std::vector<MsgT>>> inbox(W);
    // pending[src][dst]: encoded outgoing buffers, merged at the barrier.
    std::vector<std::vector<Serializer>> outbox(W);
    for (int w = 0; w < W; ++w) outbox[w].resize(W);

    MemTracker mem;
    mem.Consume(static_cast<int64_t>(n) * (sizeof(ValueT) + 1) +
                graph.MemoryBytes() / std::max(W, 1));

    Result result;
    Timer wall;
    std::vector<int64_t> msgs_per_worker(W, 0);
    bool anything_active = true;

    for (int step = 0; step < opts.max_supersteps && anything_active;
         ++step) {
      result.supersteps = step + 1;
      // ---- compute phase (one thread per partition) ----
      std::vector<std::thread> threads;
      std::atomic<int64_t> outbox_bytes{0};
      std::atomic<bool> abort{false};
      for (int w = 0; w < W; ++w) {
        threads.emplace_back([&, w] {
          for (VertexId v = static_cast<VertexId>(w); v < n;
               v += static_cast<VertexId>(W)) {
            if (abort.load(std::memory_order_relaxed)) return;
            auto it = inbox[w].find(v);
            const bool has_msgs = it != inbox[w].end();
            if (halted[v] != 0 && !has_msgs) continue;
            halted[v] = 0;
            static const std::vector<MsgT> kNoMsgs;
            const std::vector<MsgT>& msgs = has_msgs ? it->second : kNoMsgs;
            Context ctx;
            ctx.superstep_ = step;
            ctx.num_partitions_ = static_cast<uint32_t>(W);
            ctx.outbox_ = &outbox[w];
            ctx.outbox_bytes_ = &outbox_bytes;
            ctx.messages_ = &msgs_per_worker[w];
            bool vote = false;
            ctx.halted_ = &vote;
            compute(v, graph.Neighbors(v), values[v], msgs, ctx);
            if (vote) halted[v] = 1;
            // A single superstep can explode (clique-prefix fan-out); abort
            // mid-superstep once the outbox alone exceeds the cap.
            if (opts.mem_cap_bytes > 0 &&
                mem.current() + outbox_bytes.load(std::memory_order_relaxed) >
                    opts.mem_cap_bytes) {
              abort.store(true, std::memory_order_relaxed);
            }
            if ((v & 0xff) == 0 && opts.time_budget_s > 0 &&
                wall.ElapsedSeconds() > opts.time_budget_s) {
              abort.store(true, std::memory_order_relaxed);
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      // Record the outbox spike against the tracker so peaks are honest.
      mem.Consume(outbox_bytes.load());
      mem.Release(outbox_bytes.load());
      if (abort.load()) {
        const bool over_cap =
            opts.mem_cap_bytes > 0 && mem.peak() > opts.mem_cap_bytes;
        result.mem_exceeded = over_cap;
        result.timed_out = !over_cap;
        result.peak_mem_bytes = mem.peak();
        for (int64_t m : msgs_per_worker) result.messages_sent += m;
        result.elapsed_s = wall.ElapsedSeconds();
        return result;
      }

      // ---- barrier: release inboxes, deliver outboxes ----
      auto inbox_cost = [](const std::vector<MsgT>& msgs) {
        int64_t bytes = static_cast<int64_t>(msgs.capacity() * sizeof(MsgT));
        for (const MsgT& m : msgs) bytes += Codec<MsgT>::Bytes(m);
        return bytes;
      };
      int64_t inbox_bytes = 0;
      for (auto& box : inbox) {
        for (auto& [v, msgs] : box) inbox_bytes += inbox_cost(msgs);
        box.clear();
      }
      mem.Release(inbox_bytes);

      int64_t delivered_bytes = 0;
      anything_active = false;
      for (int src = 0; src < W; ++src) {
        for (int dst = 0; dst < W; ++dst) {
          Serializer& buf = outbox[src][dst];
          if (buf.size() == 0) continue;
          delivered_bytes += static_cast<int64_t>(buf.size());
          Deserializer des(buf);
          while (!des.AtEnd()) {
            VertexId v = 0;
            GT_CHECK_OK(des.Read(&v));
            MsgT msg{};
            GT_CHECK_OK(Codec<MsgT>::Decode(des, &msg));
            inbox[dst][v].push_back(std::move(msg));
          }
          buf.Clear();
        }
      }
      result.message_bytes += delivered_bytes;
      // Inbox memory (decoded) stays live through the next superstep.
      int64_t next_inbox_bytes = 0;
      for (auto& box : inbox) {
        for (auto& [v, msgs] : box) next_inbox_bytes += inbox_cost(msgs);
      }
      // Released at the next barrier, once those messages are consumed.
      mem.Consume(next_inbox_bytes);

      for (int w = 0; w < W; ++w) {
        if (!inbox[w].empty()) anything_active = true;
      }
      if (!anything_active) {
        // Also active if some vertex did not vote to halt.
        for (VertexId v = 0; v < n && !anything_active; ++v) {
          if (halted[v] == 0) anything_active = true;
        }
      }

      if (opts.mem_cap_bytes > 0 && mem.peak() > opts.mem_cap_bytes) {
        result.mem_exceeded = true;
        break;
      }
      if (opts.time_budget_s > 0 &&
          wall.ElapsedSeconds() > opts.time_budget_s) {
        result.timed_out = true;
        break;
      }
    }

    for (int64_t m : msgs_per_worker) result.messages_sent += m;
    result.peak_mem_bytes = mem.peak();
    result.elapsed_s = wall.ElapsedSeconds();
    return result;
  }
};

}  // namespace gthinker::baselines

#endif  // GTHINKER_BASELINES_PREGEL_ENGINE_H_
