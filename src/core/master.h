#ifndef GTHINKER_CORE_MASTER_H_
#define GTHINKER_CORE_MASTER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/config.h"
#include "core/protocol.h"
#include "net/comm_hub.h"
#include "obs/flight_recorder.h"
#include "storage/mini_dfs.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gthinker {

/// The master role (paper §V-B) on endpoint num_workers, run on the caller
/// thread of the process hosting worker 0 (rank 0 over TCP). It receives
/// progress reports, synchronizes the aggregator, plans work stealing,
/// coordinates checkpoints, and detects termination (all workers idle, the
/// data-message flow balanced and the task ledger conserved, stable across
/// two consecutive global snapshots); then it runs the two-round drain and
/// folds the final reports into JobStats. It talks to workers only through
/// the hub, so one loop serves every transport.
template <typename ComperT>
class Master {
 public:
  using AggT = typename ComperT::AggT;

  Master(const JobConfig& config, CommHub* hub, obs::FlightRecorder* flight,
         MiniDfs* checkpoint_dfs, JobStats* stats)
      : config_(config),
        hub_(hub),
        flight_(flight),
        checkpoint_dfs_(checkpoint_dfs),
        stats_(stats),
        num_workers_(config.num_workers),
        master_id_(config.num_workers),
        latest_(num_workers_),
        fresh_(num_workers_, false),
        barrier_seen_(num_workers_, false),
        ckpt_acked_(num_workers_, false) {}

  /// Runs the job from `global` (AggZero or a restored checkpoint's) until
  /// every final report is in and returns the final aggregate. The first
  /// new checkpoint is `next_ckpt_epoch`; `wall` times the budget.
  AggT Run(AggT global, uint64_t next_ckpt_epoch, const Timer& wall) {
    global_ = std::move(global);
    next_ckpt_epoch_ = next_ckpt_epoch;
    bool terminate = false;
    while (!terminate) {
      MessageBatch mb;
      if (hub_->Receive(master_id_, config_.comm.poll_us, &mb)) Handle(mb);

      // A global snapshot forms once every worker reported since the last.
      if (std::all_of(fresh_.begin(), fresh_.end(), [](bool b) { return b; })) {
        terminate = OnSnapshot();
      }

      if (!terminate && config_.time_budget_s > 0.0 &&
          wall.ElapsedSeconds() > config_.time_budget_s) {
        stats_->timed_out = true;
        terminate = true;
        // A budget exit is a diagnosis moment: dump this job's event
        // history up to the timeout so the state that failed to converge is
        // inspectable post-mortem.
        const int64_t now_us = hub_->NowUs();
        flight_->Record({.t_us = now_us,
                         .kind = obs::EventKind::kTimeout,
                         .a = static_cast<int64_t>(wall.ElapsedSeconds())});
        flight_->WriteDump("timeout", now_us);
      }

      if (!terminate) StepCheckpoint();
    }

    Broadcast(MsgType::kTerminate, "");
    pending_ckpt_acks_ = 0;  // a checkpoint still collecting acks is void

    // Two-phase drain (lossless shutdown). Each worker, on kTerminate,
    // stops its compers, flushes its request buffers, and sends a
    // kDrainBarrier; once all N arrive nobody can originate new traffic, so
    // the master echoes an (empty) kDrainBarrier releasing the workers to
    // pump the wire dry — they send their final report only after
    // CommHub::InFlightCount() proves nothing is queued, in transit, or in a
    // handler that could still send.
    while (num_finals_ < num_workers_) {
      MessageBatch mb;
      if (hub_->Receive(master_id_, /*timeout_us=*/10'000, &mb)) Handle(mb);
    }
    FoldFinalReports();
    return std::move(global_);
  }

 private:
  struct Snapshot {
    bool quiet = false;  // all idle, data flow balanced, ledger conserved
    std::vector<int64_t> sent, processed;
  };

  void Send(int dst, MsgType type, Payload payload) {
    MessageBatch mb;
    mb.src_worker = master_id_;
    mb.dst_worker = dst;
    mb.type = type;
    mb.payload = std::move(payload);
    hub_->Send(std::move(mb));
  }

  // Broadcasting a Payload is cheap by design: each copy bumps fragment
  // refcounts, so all N workers share the sender's one encoded buffer.
  void Broadcast(MsgType type, const Payload& payload) {
    for (int w = 0; w < num_workers_; ++w) Send(w, type, payload);
  }

  static void MergeInto(AggT* target, const std::string& blob) {
    AggT delta{};
    Deserializer des(blob);
    GT_CHECK_OK(Codec<AggT>::Decode(des, &delta));
    *target = ComperT::AggMerge(*target, delta);
  }

  /// Handles one batch addressed to the master, in either phase.
  void Handle(const MessageBatch& mb) {
    switch (mb.type) {
      case MsgType::kProgressReport: {
        ProgressReport report;
        GT_CHECK_OK(report.Decode(mb.payload));
        MergeInto(&global_, report.agg_delta);
        const int w = report.worker_id;
        if (pending_ckpt_acks_ > 0 && !ckpt_acked_[w]) {
          MergeInto(&ckpt_global_, report.agg_delta);
        }
        // A final report is its worker's last message (FIFO per link).
        if (latest_[w].final_report == 0) {
          if (report.final_report != 0) ++num_finals_;
          latest_[w] = std::move(report);
          fresh_[w] = true;
        }
        break;
      }
      case MsgType::kCheckpointAck: {
        CheckpointAck ack;
        GT_CHECK_OK(ack.Decode(mb.payload));
        MergeInto(&global_, ack.agg_delta);
        if (ack.epoch == active_ckpt_epoch_ && pending_ckpt_acks_ > 0 &&
            !ckpt_acked_[ack.worker_id]) {
          MergeInto(&ckpt_global_, ack.agg_delta);
          ckpt_acked_[ack.worker_id] = true;
          if (--pending_ckpt_acks_ == 0) {
            // Commit the meta Cluster::Restore reads back.
            Serializer ser;
            ser.Write(active_ckpt_epoch_);
            ser.Write<int32_t>(num_workers_);
            Codec<AggT>::Encode(ser, ckpt_global_);
            GT_CHECK_OK(checkpoint_dfs_->Put(
                "ckpt/" + std::to_string(active_ckpt_epoch_) + "/meta",
                ser.Release()));
            ++stats_->checkpoints;
          }
        }
        break;
      }
      case MsgType::kDrainBarrier: {
        int32_t worker_id = -1;
        GT_CHECK_OK(DecodeDrainBarrier(mb.payload, &worker_id));
        if (!barrier_seen_[worker_id]) {
          barrier_seen_[worker_id] = true;
          if (++barriers_ == num_workers_) {
            // After the release the master originates nothing further, so
            // its endpoint announces drain too: on tcp that lets the
            // transport start its cluster-wide FLUSH marker rounds.
            Broadcast(MsgType::kDrainBarrier, "");
            hub_->BeginDrain(master_id_);
          }
        }
        break;
      }
      default:
        LOG_FATAL << "master: unexpected message type "
                  << static_cast<int>(mb.type);
    }
    hub_->MarkProcessed(mb.type);
  }

  /// Syncs the aggregate to every worker and evaluates the snapshot formed
  /// by the latest reports: returns true on termination, otherwise plans
  /// steals.
  bool OnSnapshot() {
    Snapshot snap;
    bool all_idle = true;
    int64_t sent = 0, processed = 0;
    TaskLedger sum;
    int64_t live = 0;
    for (const ProgressReport& r : latest_) {
      all_idle = all_idle && r.idle != 0;
      sent += r.data_sent;
      processed += r.data_processed;
      snap.sent.push_back(r.data_sent);
      snap.processed.push_back(r.data_processed);
      sum.Accumulate(r.ledger);
      live += r.tasks_live;
    }
    // Task conservation: the summed ledger must account for exactly the
    // tasks the workers report alive. In-flight kTaskBatch records are
    // neutral (donor already counted `donated`, recipient not yet
    // `received`), so a correct system balances at every snapshot; the
    // counters are read without a global freeze, though, so a transient
    // skew only delays termination by one snapshot rather than failing.
    snap.quiet =
        all_idle && sent == processed && sum.ExpectedLive() == live;

    Serializer ser;
    Codec<AggT>::Encode(ser, global_);
    Broadcast(MsgType::kAggregatorSync, TakePayload(ser));

    const bool checkpointing = pending_ckpt_acks_ > 0 || ckpt_quiescing_;
    bool terminate = false;
    if (snap.quiet && prev_.quiet && prev_.sent == snap.sent &&
        prev_.processed == snap.processed && !checkpointing) {
      terminate = true;
    } else if (config_.enable_stealing && !all_idle && !checkpointing) {
      PlanSteals();
    }
    prev_ = std::move(snap);
    std::fill(fresh_.begin(), fresh_.end(), false);
    return terminate;
  }

  /// Sends one steal order per starving worker, from the most loaded one
  /// (paper §V-B "Task Stealing": idle machines prefetch task batches from
  /// busy machines via master-made plans).
  void PlanSteals() {
    const int64_t batch = config_.task_batch_size;
    for (size_t i = 0; i < latest_.size(); ++i) {
      if (latest_[i].idle == 0 || latest_[i].remaining_estimate > 0) continue;
      // worker i is starving; find the most loaded donor
      int donor = -1;
      int64_t best = 2 * batch;  // only steal from meaningfully-loaded donors
      for (size_t j = 0; j < latest_.size(); ++j) {
        if (j == i) continue;
        if (latest_[j].remaining_estimate > best) {
          best = latest_[j].remaining_estimate;
          donor = static_cast<int>(j);
        }
      }
      if (donor < 0) continue;
      // Stamp the order with the hub clock; the recipient of the resulting
      // kTaskBatch closes the round-trip measurement (steal.rtt_us).
      Send(donor, MsgType::kStealOrder,
           EncodeStealOrder(static_cast<int32_t>(i), hub_->NowUs()));
    }
  }

  /// One step of checkpoint coordination (paper §V-B fault tolerance,
  /// hardened). Phase 1 (quiesce): once the interval elapsed, stop issuing
  /// steal orders (OnSnapshot gates PlanSteals) and hold the
  /// kCheckpointRequest broadcast until the wire carries no kStealOrder /
  /// kTaskBatch traffic, so no donated batch can fall between the donor's
  /// and the recipient's snapshots (outside both). Phase 2: broadcast the
  /// request; the acks commit the meta in Handle.
  void StepCheckpoint() {
    if (config_.checkpoint_interval_us > 0 && pending_ckpt_acks_ == 0 &&
        !ckpt_quiescing_ &&
        ckpt_timer_.ElapsedMicros() >= config_.checkpoint_interval_us) {
      ckpt_quiescing_ = true;
    }
    if (ckpt_quiescing_ &&
        // Order matters: a donor sends its kTaskBatch *before* marking the
        // kStealOrder processed, so once no steal order is unprocessed,
        // every batch it will ever produce is already visible to the
        // kTaskBatch count checked second.
        hub_->InFlightCount(MsgType::kStealOrder) == 0 &&
        hub_->InFlightCount(MsgType::kTaskBatch) == 0) {
      ckpt_quiescing_ = false;
      active_ckpt_epoch_ = next_ckpt_epoch_++;
      pending_ckpt_acks_ = num_workers_;
      // Checkpoint-consistent aggregate: per-link FIFO ordering guarantees
      // that everything a worker committed *before* its snapshot arrives
      // before its ack. Deltas from not-yet-acked workers merge here too;
      // deltas arriving after a worker's ack are post-snapshot and must not
      // enter the meta.
      ckpt_global_ = global_;
      std::fill(ckpt_acked_.begin(), ckpt_acked_.end(), false);
      CheckpointRequest req;
      req.epoch = active_ckpt_epoch_;
      Broadcast(MsgType::kCheckpointRequest, req.Encode());
      ckpt_timer_.Restart();
    }
  }

  /// Folds the final reports into the cluster-wide counters and delivers
  /// the task-conservation verdict. The reports are taken after every
  /// worker has quiesced and drained, so the summed ledger must account for
  /// every task ever created, across OS processes under tcp. Any residue is
  /// a silently lost (or double-counted) task and aborts the job rather
  /// than returning a plausible-looking partial answer.
  void FoldFinalReports() {
    JobStats& stats = *stats_;
    for (const ProgressReport& r : latest_) {
      stats.tasks_spawned += r.tasks_spawned;
      stats.task_iterations += r.task_iterations;
      stats.tasks_finished += r.tasks_finished;
      stats.spilled_batches += r.spilled_batches;
      stats.stolen_batches += r.stolen_batches;
      stats.vertex_requests += r.vertex_requests;
      stats.cache_hits += r.cache_hits;
      stats.cache_requests += r.cache_requests;
      stats.cache_evictions += r.cache_evictions;
      stats.comper_idle_rounds += r.comper_idle_rounds;
      stats.comper_rounds += r.comper_rounds;
      stats.ledger.Accumulate(r.ledger);
      stats.tasks_live_at_exit += r.tasks_live;
      stats.drained_messages += r.drained_messages;
    }
    stats.steal_orders = hub_->SentCount(MsgType::kStealOrder);

    stats.tasks_lost = stats.ledger.ExpectedLive() - stats.tasks_live_at_exit;
    GT_CHECK_EQ(stats.tasks_lost, 0)
        << "task-conservation violation: spawned=" << stats.ledger.spawned
        << " restored=" << stats.ledger.restored
        << " received=" << stats.ledger.received
        << " finished=" << stats.ledger.finished
        << " donated=" << stats.ledger.donated
        << " dropped=" << stats.ledger.dropped
        << " live_at_exit=" << stats.tasks_live_at_exit;
    if (!stats.timed_out && stats.ledger.dropped == 0) {
      GT_CHECK_EQ(stats.tasks_live_at_exit, 0)
          << "clean termination left live tasks behind";
    }
  }

  const JobConfig& config_;
  CommHub* const hub_;
  obs::FlightRecorder* const flight_;
  MiniDfs* const checkpoint_dfs_;
  JobStats* const stats_;
  const int num_workers_;
  const int master_id_;

  AggT global_ = ComperT::AggZero();
  std::vector<ProgressReport> latest_;  // newest report per worker
  std::vector<bool> fresh_;  // reported since the last snapshot
  Snapshot prev_;

  int num_finals_ = 0;  // workers whose final report is in latest_
  std::vector<bool> barrier_seen_;
  int barriers_ = 0;

  Timer ckpt_timer_;
  uint64_t next_ckpt_epoch_ = 1;
  uint64_t active_ckpt_epoch_ = 0;
  int pending_ckpt_acks_ = 0;
  bool ckpt_quiescing_ = false;
  AggT ckpt_global_ = ComperT::AggZero();
  std::vector<bool> ckpt_acked_;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_MASTER_H_
