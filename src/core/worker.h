#ifndef GTHINKER_CORE_WORKER_H_
#define GTHINKER_CORE_WORKER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aggregator.h"
#include "core/codec.h"
#include "core/comper.h"
#include "core/config.h"
#include "core/local_table.h"
#include "core/protocol.h"
#include "core/pull_coalescer.h"
#include "core/response_cache.h"
#include "core/vertex_cache.h"
#include "net/comm_hub.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/file_list.h"
#include "storage/mini_dfs.h"
#include "storage/spill_file.h"
#include "util/concurrent_queue.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/timer.h"

namespace gthinker {

/// One simulated machine (paper Fig. 3 / Fig. 7): a local vertex table
/// T_local, a remote-vertex cache T_cache, a list of spilled task files
/// L_file, n comper threads (each with Q_task / B_task / T_task), one
/// communication thread, and one GC thread. The cluster driver plays the
/// paper's "main thread of the master": it receives progress reports and
/// issues steal/terminate/checkpoint control messages.
///
/// ComperT must derive from Comper<TaskT, AggT> (core/comper.h).
template <typename ComperT>
class Worker {
 public:
  using TaskT = typename ComperT::TaskT;
  using AggT = typename ComperT::AggT;
  using VertexT = typename TaskT::VertexT;
  using ComperFactory = std::function<std::unique_ptr<ComperT>()>;
  using TrimmerFn = std::function<void(VertexT&)>;

  Worker(int worker_id, const JobConfig& config, CommHub* hub,
         ComperFactory factory, TrimmerFn trimmer, std::string spill_dir)
      : id_(worker_id),
        config_(config),
        hub_(hub),
        trimmer_(std::move(trimmer)),
        spill_dir_(std::move(spill_dir)),
        local_(worker_id),
        cache_(config.cache_num_buckets, config.cache_capacity,
               config.cache_overflow_alpha, config.cache_counter_delta,
               &mem_, config.cache_use_z_table,
               config.layout.cache_segment_shift),
        coalescer_(config.num_workers, config.comm.request_batch_size,
                   config.comm.request_flush_bytes),
        resp_cache_(config.comm.response_cache_bytes),
        metrics_("worker" + std::to_string(worker_id)) {
    master_id_ = config_.num_workers;  // master mailbox index
    task_wait_us_ = metrics_.GetHistogram("task.wait_us");
    steal_rtt_us_ = metrics_.GetHistogram("steal.rtt_us");
    spill_write_us_ = metrics_.GetHistogram("spill.write_us");
    spill_read_us_ = metrics_.GetHistogram("spill.read_us");
    spill_write_bytes_ = metrics_.GetCounter("spill.write_bytes");
    spill_read_bytes_ = metrics_.GetCounter("spill.read_bytes");
    refill_spill_tasks_ = metrics_.GetCounter("refill.from_spill_tasks");
    refill_spawn_tasks_ = metrics_.GetCounter("refill.from_spawn_tasks");
    split_count_ = metrics_.GetCounter("split.count");
    split_children_ = metrics_.GetCounter("split.children");
    split_depth_us_ = metrics_.GetHistogram("split.depth");
    phase_steal_us_ = metrics_.GetCounter("phase.steal_us");
    for (int i = 0; i < config_.compers_per_worker; ++i) {
      engines_.push_back(std::make_unique<ComperEngine>(this, i, factory()));
    }
    steal_comper_ = factory();
    steal_runtime_ = std::make_unique<StealRuntime>(this);
    steal_comper_->BindRuntime(steal_runtime_.get());
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  ~Worker() { Join(); }

  // ---------------------------------------------------------------------
  // Loading (before Start).
  // ---------------------------------------------------------------------

  /// True if vertex id is assigned to this worker (Pregel-style ID hashing).
  static int OwnerOf(VertexId v, int num_workers) {
    return static_cast<int>(v % static_cast<VertexId>(num_workers));
  }

  /// Installs one local vertex; the Trimmer UDF (if any) runs here, right
  /// after loading, so pulled responses already carry trimmed lists (§IV).
  void AddLocalVertex(VertexT v) {
    if (trimmer_) trimmer_(v);
    GT_CHECK_EQ(OwnerOf(v.id, config_.num_workers), id_);
    local_.Add(std::move(v));
  }

  /// Puts T_local in ID order (the spawn order) and indexes it; call once
  /// after all AddLocalVertex calls.
  void FinalizeLoad() {
    local_.Finalize();
    mem_.Consume(local_.Bytes());
  }

  /// Pre-seeds state from a checkpoint blob (see EncodeCheckpoint). Restored
  /// tasks enter L_file as spill batches and re-pull into the cold cache,
  /// exactly as §V-B "Fault Tolerance" prescribes. Restored tasks enter the
  /// ledger as `restored` (and the live count), so the conservation
  /// invariant holds across a resume.
  Status RestoreFromCheckpoint(const std::string& blob) {
    Deserializer des(blob);
    uint64_t spawn_next = 0;
    GT_RETURN_IF_ERROR(des.Read(&spawn_next));
    uint64_t n = 0;
    GT_RETURN_IF_ERROR(des.Read(&n));
    std::vector<std::string> batch;
    auto flush_batch = [this, &batch]() -> Status {
      const int64_t count = static_cast<int64_t>(batch.size());
      const std::string path = SpillWrite(batch);
      batch.clear();
      live_tasks_.fetch_add(count);
      tasks_restored_.fetch_add(count, std::memory_order_relaxed);
      l_file_.PushBack(path, count);
      return Status::Ok();
    };
    for (uint64_t i = 0; i < n; ++i) {
      std::string rec;
      GT_RETURN_IF_ERROR(des.ReadString(&rec));
      batch.push_back(std::move(rec));
      if (batch.size() == static_cast<size_t>(config_.task_batch_size)) {
        GT_RETURN_IF_ERROR(flush_batch());
      }
    }
    if (!batch.empty()) {
      GT_RETURN_IF_ERROR(flush_batch());
    }
    next_spawn_.store(spawn_next, std::memory_order_relaxed);
    return Status::Ok();
  }

  // ---------------------------------------------------------------------
  // Lifecycle.
  // ---------------------------------------------------------------------

  void Start() {
    GT_CHECK(!started_);
    started_ = true;
    compers_running_.store(static_cast<int>(engines_.size()),
                           std::memory_order_release);
    for (auto& engine : engines_) {
      threads_.emplace_back([e = engine.get()] { e->Loop(); });
    }
    threads_.emplace_back([this] { CommLoop(); });
    threads_.emplace_back([this] { GcLoop(); });
  }

  void Join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  /// True once the final progress report has been sent (job over).
  bool Finished() const {
    return final_sent_.load(std::memory_order_acquire);
  }

  int64_t PeakMemBytes() const { return mem_.peak(); }
  const VertexCache<VertexT>& cache() const { return cache_; }
  AggregatorState<ComperT>& aggregator() { return agg_; }
  size_t NumLocalVertices() const { return local_.size(); }

 private:
  // =======================================================================
  // ComperEngine: the per-mining-thread state machine of Fig. 7.
  // =======================================================================
  class ComperEngine final : public Comper<TaskT, AggT>::Runtime {
   public:
    ComperEngine(Worker* worker, int index, std::unique_ptr<ComperT> user)
        : worker_(worker), index_(index), user_(std::move(user)) {
      user_->BindRuntime(this);
      compute_us_ = worker_->metrics_.GetHistogram(
          "comper.compute_iter_us", "comper=" + std::to_string(index));
      if (worker_->config_.enable_phase_profile) {
        const std::string label = "comper=" + std::to_string(index);
        phase_compute_ = worker_->metrics_.GetCounter("phase.compute_us",
                                                      label);
        phase_pull_wait_ =
            worker_->metrics_.GetCounter("phase.pull_wait_us", label);
        phase_queue_wait_ =
            worker_->metrics_.GetCounter("phase.queue_wait_us", label);
        phase_spill_ = worker_->metrics_.GetCounter("phase.spill_us", label);
        phase_loop_ = worker_->metrics_.GetCounter("phase.loop_us", label);
      }
    }

    // ---- Comper<>::Runtime ----
    void AddTask(std::unique_ptr<TaskT> task) override {
      worker_->OnTaskSpawned();
      if (worker_->config_.enable_span_tracing) {
        task->set_span_id(worker_->NextSpanId());
        worker_->Record({.task_id = task->span_id(),
                         .comper = index_,
                         .kind = obs::EventKind::kSpawn});
      }
      AddToQueue(std::move(task));
    }
    void Aggregate(const AggT& delta) override { worker_->agg_.Aggregate(delta); }
    AggT CurrentAgg() const override { return worker_->agg_.CurrentView(); }
    void Output(std::string record) override {
      worker_->WriteOutput(std::move(record));
    }

    // ---- big-task decomposition services (comper thread only) ----
    bool SplitArmed() const override {
      const JobConfig& c = worker_->config_;
      return c.task_split_enabled &&
             (c.task_time_budget_us > 0 || c.task_split_max_candidates > 0);
    }
    bool OverSizeThreshold(uint64_t candidates) const override {
      const int64_t threshold = worker_->config_.task_split_max_candidates;
      return threshold > 0 && candidates >= static_cast<uint64_t>(threshold);
    }
    bool IterationBudgetExceeded() const override {
      const int64_t budget = worker_->config_.task_time_budget_us;
      return budget > 0 && iter_timer_.ElapsedMicros() >= budget;
    }
    void RequestSplit() override { split_requested_ = true; }

    /// Mining-thread body: each round runs push() then (gates permitting)
    /// pop() (paper §V-B "Algorithm of a Comper").
    void Loop() {
      const bool phases = phase_loop_ != nullptr;
      Timer loop_timer;
      Timer wait_timer;
      while (!worker_->stop_compers_.load(std::memory_order_acquire)) {
        if (phases && worker_->pause_.load(std::memory_order_acquire)) {
          // Checkpoint park: accounted as queue-wait (nothing runnable by
          // decree, not for lack of work, but it is still non-compute wall
          // time of this comper).
          wait_timer.Restart();
          worker_->MaybePark();
          phase_queue_wait_->Add(wait_timer.ElapsedMicros());
        } else {
          worker_->MaybePark();
        }
        rounds_.fetch_add(1, std::memory_order_relaxed);
        bool did = Push();
        if (CanPop()) did = Pop() || did;
        if (!did) {
          // A round that processed nothing = CPU idle time, the quantity
          // G-thinker's design minimizes (paper §I). Reported per job.
          idle_rounds_.fetch_add(1, std::memory_order_relaxed);
          if (phases) {
            // Idle with tasks parked in T_task = waiting on remote pulls;
            // idle with nothing in flight = starved queue (imbalance/drain).
            wait_timer.Restart();
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            (t_size_.load(std::memory_order_relaxed) > 0 ? phase_pull_wait_
                                                         : phase_queue_wait_)
                ->Add(wait_timer.ElapsedMicros());
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
      }
      if (phases) phase_loop_->Add(loop_timer.ElapsedMicros());
      worker_->cache_.FlushCounter(&counter_);
      // Tells the comm thread's shutdown drain that this mining thread can
      // no longer originate vertex requests or donations.
      worker_->compers_running_.fetch_sub(1, std::memory_order_acq_rel);
    }

    /// Called by the comm thread when Γ(v) lands for a task of this comper.
    void OnVertexReady(uint64_t task_id) {
      std::unique_ptr<TaskT> ready;
      int64_t pending_at_us = 0;
      {
        std::lock_guard<std::mutex> lock(t_mutex_);
        auto it = t_task_.find(task_id);
        GT_CHECK(it != t_task_.end())
            << "vertex response for unknown task " << task_id;
        Pending& pending = it->second;
        ++pending.met;
        if (pending.req >= 0 && pending.met == pending.req) {
          ready = std::move(pending.task);
          pending_at_us = pending.pending_at_us;
          t_task_.erase(it);
        }
      }
      if (ready != nullptr) {
        worker_->task_wait_us_->Record(worker_->hub_->NowUs() - pending_at_us);
        worker_->Record({.task_id = ready->span_id(),
                         .comper = index_,
                         .kind = obs::EventKind::kReady});
        // Push to B_task *before* shrinking the T_task mirror: a reader that
        // sees the smaller t_size_ then also sees the task in B_task, so the
        // task is never invisible to both.
        b_task_.Push(std::move(ready));
        t_size_.fetch_sub(1, std::memory_order_release);
      }
    }

    size_t QueueSize() const {
      return q_size_.load(std::memory_order_relaxed);
    }

    size_t InflightSize() const {
      return t_size_.load(std::memory_order_relaxed) + b_task_.Size();
    }

    int64_t IdleRounds() const {
      return idle_rounds_.load(std::memory_order_relaxed);
    }

    int64_t Rounds() const { return rounds_.load(std::memory_order_relaxed); }

    /// Checkpoint support: serializes every in-memory task of this engine.
    /// Only safe while the comper thread is parked.
    void CollectCheckpointRecords(std::vector<std::string>* records) {
      for (const auto& task : q_) {
        Serializer ser;
        task->Serialize(ser);
        records->push_back(ser.Release());
      }
      b_task_.ForEach([records](const std::unique_ptr<TaskT>& task) {
        Serializer ser;
        task->Serialize(ser);
        records->push_back(ser.Release());
      });
      std::lock_guard<std::mutex> lock(t_mutex_);
      for (const auto& [id, pending] : t_task_) {
        Serializer ser;
        pending.task->Serialize(ser);
        records->push_back(ser.Release());
      }
    }

   private:
    struct Pending {
      std::unique_ptr<TaskT> task;
      int met = 0;
      int req = -1;  // -1 = not yet committed by the popping comper
      /// Hub-clock instant the task parked in T_task; pending->ready wait
      /// time is measured against it (task.wait_us histogram).
      int64_t pending_at_us = 0;
    };

    /// push(): run one ready task from B_task (its pulls are all cached and
    /// locked for it).
    bool Push() {
      auto ready = b_task_.TryPop();
      if (!ready.has_value()) return false;
      // The task was tracked while pending; ExecuteIteration re-tracks it.
      worker_->mem_.Release((*ready)->MemoryBytes());
      ExecuteIteration(std::move(*ready));
      return true;
    }

    /// pop() gates (paper: cache not overflowed, |T_task|+|B_task| <= D).
    bool CanPop() const {
      return !worker_->cache_.Overflowed() &&
             InflightSize() <=
                 static_cast<size_t>(worker_->config_.inflight_task_cap);
    }

    /// pop(): refill if low, then take the head task and resolve its pulls.
    bool Pop() {
      const size_t batch = worker_->config_.task_batch_size;
      if (q_.size() <= batch) Refill();
      if (q_.empty()) return false;
      std::unique_ptr<TaskT> task = std::move(q_.front());
      q_.pop_front();
      q_size_.store(q_.size(), std::memory_order_release);
      Resolve(std::move(task));
      return true;
    }

    /// Refills Q_task up to 2C from (1) spilled task files, then (2) fresh
    /// spawns from T_local. (B_task, the paper's source (2), is consumed
    /// directly by push() every round, which has the same effect without
    /// moving ready tasks through the queue.) The spilled-first priority is
    /// what keeps the number of disk-resident tasks minimal (§V-B); the
    /// refill_spawn_first ablation inverts it.
    void Refill() {
      const size_t target = 2 * worker_->config_.task_batch_size;
      while (q_.size() < target) {
        if (worker_->config_.refill_spawn_first && SpawnBatch()) continue;
        if (auto file = worker_->l_file_.TryPopFront()) {
          Timer spill_timer;
          std::vector<std::string> records;
          GT_CHECK_OK(worker_->SpillFetch(file->path, &records));
          GT_CHECK_EQ(static_cast<int64_t>(records.size()), file->records)
              << "spill file " << file->path << " record count drifted";
          for (const std::string& rec : records) {
            auto task = std::make_unique<TaskT>();
            Deserializer des(rec);
            GT_CHECK_OK(task->Deserialize(des));
            if (worker_->config_.enable_span_tracing) {
              // Fresh span: the disk round-trip (or a steal) broke the old
              // lifecycle, so the reloaded task starts a new one here.
              task->set_span_id(worker_->NextSpanId());
              worker_->Record({.task_id = task->span_id(),
                               .comper = index_,
                               .kind = obs::EventKind::kLoaded});
            }
            worker_->mem_.Consume(task->MemoryBytes());
            q_.push_back(std::move(task));
          }
          q_size_.store(q_.size(), std::memory_order_release);
          worker_->tasks_loaded_.fetch_add(
              static_cast<int64_t>(records.size()), std::memory_order_relaxed);
          worker_->refill_spill_tasks_->Add(
              static_cast<int64_t>(records.size()));
          if (phase_spill_ != nullptr) {
            phase_spill_->Add(spill_timer.ElapsedMicros());
          }
          worker_->Record({.comper = index_,
                           .kind = obs::EventKind::kSpillLoad,
                           .a = static_cast<int64_t>(records.size())});
          continue;
        }
        if (worker_->config_.refill_spawn_first) break;
        if (!SpawnBatch()) break;
      }
    }

    /// Spawns one batch of new tasks from T_local; false when exhausted.
    bool SpawnBatch() {
      const auto [begin, end] =
          worker_->ClaimSpawnRange(worker_->config_.task_batch_size);
      if (begin == end) {
        if (!spawn_flushed_) {
          spawn_flushed_ = true;
          user_->SpawnFlush();  // emit any partially-bundled task
        }
        return false;
      }
      for (size_t slot = begin; slot < end; ++slot) {
        user_->TaskSpawn(worker_->local_[slot]);  // UDF; calls AddTask
      }
      worker_->refill_spawn_tasks_->Add(static_cast<int64_t>(end - begin));
      worker_->Record({.comper = index_,
                       .kind = obs::EventKind::kSpawnBatch,
                       .a = static_cast<int64_t>(end - begin)});
      return true;
    }

    /// Appends to Q_task; when full (3C), the C tasks at the tail are spilled
    /// to one file so that `task` can be appended (paper §V-B (1)).
    void AddToQueue(std::unique_ptr<TaskT> task) {
      worker_->mem_.Consume(task->MemoryBytes());
      const size_t batch = worker_->config_.task_batch_size;
      const size_t cap =
          batch * worker_->config_.task_queue_capacity_batches;
      if (q_.size() >= cap) {
        Timer spill_timer;
        std::vector<std::string> records(batch);
        for (size_t i = 0; i < batch; ++i) {
          std::unique_ptr<TaskT> victim = std::move(q_.back());
          q_.pop_back();
          worker_->mem_.Release(victim->MemoryBytes());
          Serializer ser;
          victim->Serialize(ser);
          // Keep original queue order inside the file.
          records[batch - 1 - i] = ser.Release();
        }
        const std::string path = worker_->SpillWrite(records);
        worker_->l_file_.PushBack(path, static_cast<int64_t>(batch));
        worker_->spilled_batches_.fetch_add(1, std::memory_order_relaxed);
        worker_->tasks_spilled_.fetch_add(static_cast<int64_t>(batch),
                                          std::memory_order_relaxed);
        if (phase_spill_ != nullptr) {
          const int64_t us = spill_timer.ElapsedMicros();
          phase_spill_->Add(us);
          spill_us_ += us;
        }
        worker_->Record({.comper = index_,
                         .kind = obs::EventKind::kSpillWrite,
                         .a = static_cast<int64_t>(batch)});
      }
      q_.push_back(std::move(task));
      q_size_.store(q_.size(), std::memory_order_release);
    }

    /// Resolves P(t): local pulls read T_local directly; remote pulls go
    /// through T_cache (OP1). If everything is available the task computes
    /// right away; otherwise it parks in T_task until the comm thread
    /// declares it ready.
    void Resolve(std::unique_ptr<TaskT> task) {
      worker_->mem_.Release(task->MemoryBytes());
      CollectRemotePulls(task->pulls());
      if (remote_scratch_.empty()) {
        ExecuteIteration(std::move(task));
        return;
      }
      const uint64_t tid = MakeTaskId(index_, seq_++);
      worker_->Record({.task_id = task->span_id(),
                       .comper = index_,
                       .kind = obs::EventKind::kPending});
      const int64_t pending_at_us = worker_->hub_->NowUs();
      TaskT* raw = task.get();
      {
        std::lock_guard<std::mutex> lock(t_mutex_);
        t_task_.emplace(tid, Pending{std::move(task), 0, -1, pending_at_us});
        t_size_.fetch_add(1, std::memory_order_relaxed);
      }
      worker_->mem_.Consume(raw->MemoryBytes());
      // Batched OP1: all of this task's remote pulls resolve with one lock
      // acquisition per distinct bucket instead of one per vertex.
      const int total_remote = static_cast<int>(remote_scratch_.size());
      new_request_scratch_.clear();
      const int hits = worker_->cache_.RequestBatch(
          remote_scratch_.data(), remote_scratch_.size(), tid, &counter_,
          &new_request_scratch_);
      for (VertexId v : new_request_scratch_) {
        worker_->EnqueueVertexRequest(v);
      }
      // Commit req; the task may already be complete (all hits, or responses
      // raced in while we were requesting).
      std::unique_ptr<TaskT> ready;
      {
        std::lock_guard<std::mutex> lock(t_mutex_);
        auto it = t_task_.find(tid);
        if (it != t_task_.end()) {
          Pending& pending = it->second;
          pending.met += hits;
          if (pending.met == total_remote) {
            ready = std::move(pending.task);
            t_task_.erase(it);
            t_size_.fetch_sub(1, std::memory_order_relaxed);
          } else {
            pending.req = total_remote;
          }
        }
        // (it == end() cannot happen: req was -1, so only we can remove it.)
      }
      if (ready != nullptr) {
        // The responses raced in while we were still registering pulls.
        worker_->task_wait_us_->Record(worker_->hub_->NowUs() - pending_at_us);
        worker_->Record({.task_id = ready->span_id(),
                         .comper = index_,
                         .kind = obs::EventKind::kReady});
        worker_->mem_.Release(ready->MemoryBytes());
        ExecuteIteration(std::move(ready));
      }
    }

    /// One compute() iteration: build the frontier in pull order, run the
    /// UDF, then release every remote pull back to the cache (OP3) so GC can
    /// evict in time.
    void ExecuteIteration(std::unique_ptr<TaskT> task) {
      // Take the pulls *before* measuring: TakePulls leaves pulls_ empty, so
      // consuming first would count buffer bytes the matching Release below
      // never sees again (the mem-accounting skew grew by one pull buffer
      // per iteration).
      const std::vector<VertexId> pulls = task->TakePulls();
      worker_->mem_.Consume(task->MemoryBytes());
      // Local pulls index T_local; the remote ones (all locked for this
      // task) resolve in one bucket-grouped batch and scatter back to their
      // pull positions.
      typename ComperT::Frontier frontier(pulls.size());
      remote_scratch_.clear();
      remote_pos_.clear();
      for (size_t i = 0; i < pulls.size(); ++i) {
        const VertexId v = pulls[i];
        if (worker_->IsLocal(v)) {
          frontier[i] = &worker_->local_.At(v);
        } else {
          remote_scratch_.push_back(v);
          remote_pos_.push_back(static_cast<uint32_t>(i));
        }
      }
      remote_ptrs_.resize(remote_scratch_.size());
      worker_->cache_.GetLockedBatch(remote_scratch_.data(),
                                     remote_scratch_.size(),
                                     remote_ptrs_.data());
      for (size_t j = 0; j < remote_pos_.size(); ++j) {
        frontier[remote_pos_[j]] = remote_ptrs_[j];
      }
      split_requested_ = false;
      iter_timer_.Restart();
      const int64_t spill_us_before = spill_us_;
      Timer compute_timer;
      const bool more = user_->Compute(task.get(), frontier);
      const int64_t compute_us = compute_timer.ElapsedMicros();
      compute_us_->Record(compute_us);
      if (phase_compute_ != nullptr) {
        // An AddTask that overflows Q_task spills inside Compute(); that
        // time is already in phase.spill_us, so the ledger takes it out of
        // compute to keep the phases disjoint.
        phase_compute_->Add(compute_us - (spill_us_ - spill_us_before));
      }
      if (worker_->config_.enable_span_tracing) {
        // Stamp the slice at its start so the viewer draws [start, start+dur].
        worker_->Record({.t_us = worker_->hub_->NowUs() - compute_us,
                         .dur_us = compute_us,
                         .task_id = task->span_id(),
                         .comper = index_,
                         .kind = obs::EventKind::kExecute});
      }
      task->BumpIteration();
      worker_->mem_.Release(task->MemoryBytes());
      // Batched OP3: one lock acquisition per distinct bucket.
      // remote_scratch_ still holds this iteration's remote pulls: Compute()
      // runs no pull resolution on this thread.
      worker_->cache_.ReleaseBatch(remote_scratch_.data(),
                                   remote_scratch_.size());
      worker_->task_iterations_.fetch_add(1, std::memory_order_relaxed);
      if (more) {
        if (split_requested_) TrySplit(task.get());
        AddToQueue(std::move(task));
      } else {
        worker_->OnTaskFinished();
        worker_->Record({.task_id = task->span_id(),
                         .comper = index_,
                         .kind = obs::EventKind::kFinish});
      }
    }

    /// Runs the app's Split() UDF on a task that asked to be decomposed:
    /// the parent is narrowed in place (the caller requeues it — no new
    /// ledger entry) and each emitted child registers as one task creation,
    /// so a split of 1 into k accounts exactly k-1 creations. Children
    /// inherit the parent's pulled Γ inside their subgraph copies and enter
    /// Q_task directly. A refusing Split() leaves the task whole.
    void TrySplit(TaskT* parent) {
      split_scratch_.clear();
      const int fanout = worker_->config_.task_split_fanout;
      if (!user_->Split(parent, fanout, &split_scratch_) ||
          split_scratch_.empty()) {
        split_scratch_.clear();
        return;
      }
      worker_->split_count_->Add(1);
      worker_->split_children_->Add(
          static_cast<int64_t>(split_scratch_.size()));
      // Split() bumps the generation; parent and children now share it.
      worker_->split_depth_us_->Record(parent->split_depth());
      worker_->Record({.task_id = parent->span_id(),
                       .comper = index_,
                       .kind = obs::EventKind::kSplit,
                       .a = static_cast<int64_t>(split_scratch_.size()),
                       .b = static_cast<int64_t>(parent->split_depth())});
      for (auto& child : split_scratch_) {
        worker_->OnTaskSpawned();
        if (worker_->config_.enable_span_tracing) {
          child->set_span_id(worker_->NextSpanId());
          worker_->Record({.task_id = child->span_id(),
                           .parent_task_id = parent->span_id(),
                           .comper = index_,
                           .kind = obs::EventKind::kSpawn});
        }
        AddToQueue(std::move(child));
      }
      split_scratch_.clear();
    }

    /// Filters a pull list down to the remote vertices, into the reused
    /// comper-thread scratch remote_scratch_ (occurrence order preserved, so
    /// batched cache ops replay duplicates exactly like the loop they
    /// replaced).
    void CollectRemotePulls(const std::vector<VertexId>& pulls) {
      remote_scratch_.clear();
      for (VertexId v : pulls) {
        if (!worker_->IsLocal(v)) remote_scratch_.push_back(v);
      }
    }

    Worker* worker_;
    const int index_;
    std::unique_ptr<ComperT> user_;
    SCacheCounter counter_;
    // Pull-resolution scratch, comper thread only: the remote pulls of the
    // current task, their frontier positions, and their cached vertices.
    std::vector<VertexId> remote_scratch_;
    std::vector<uint32_t> remote_pos_;
    std::vector<const VertexT*> remote_ptrs_;
    std::vector<VertexId> new_request_scratch_;  // comper thread only
    /// Running total of this comper's Q_task-overflow spill time (µs), so
    /// ExecuteIteration can take the spills inside Compute() out of the
    /// compute phase.
    int64_t spill_us_ = 0;

    // Split plumbing: all comper-thread-confined. iter_timer_ restarts at
    // each Compute() call; the app polls IterationBudgetExceeded against it.
    Timer iter_timer_;
    bool split_requested_ = false;
    std::vector<std::unique_ptr<TaskT>> split_scratch_;

    std::deque<std::unique_ptr<TaskT>> q_;  // Q_task: comper thread only
    std::atomic<size_t> q_size_{0};         // mirror for cross-thread reads
    ConcurrentQueue<std::unique_ptr<TaskT>> b_task_;
    std::mutex t_mutex_;
    std::unordered_map<uint64_t, Pending> t_task_;
    std::atomic<size_t> t_size_{0};
    uint64_t seq_ = 0;
    bool spawn_flushed_ = false;
    std::atomic<int64_t> idle_rounds_{0};
    std::atomic<int64_t> rounds_{0};
    obs::Histogram* compute_us_ = nullptr;  // owned by worker_->metrics_
    // Phase-attribution counters (obs/phase_profile.h); null when
    // enable_phase_profile is off. Disjoint by construction: every loop
    // microsecond lands in at most one of compute/pull_wait/queue_wait/
    // spill, and phase.loop_us (recorded once at exit) is the total their
    // sum is reconciled against.
    obs::Counter* phase_compute_ = nullptr;
    obs::Counter* phase_pull_wait_ = nullptr;
    obs::Counter* phase_queue_wait_ = nullptr;
    obs::Counter* phase_spill_ = nullptr;
    obs::Counter* phase_loop_ = nullptr;
  };

  // =======================================================================
  // StealRuntime: lets the comm thread spawn tasks for donation without
  // touching any comper's queue. AddTask serializes straight into the
  // donation batch.
  // =======================================================================
  class StealRuntime final : public Comper<TaskT, AggT>::Runtime {
   public:
    explicit StealRuntime(Worker* worker) : worker_(worker) {}
    void AddTask(std::unique_ptr<TaskT> task) override {
      // Spawned straight into the donation batch: counts as spawned (and
      // momentarily live) here, then as donated once the batch ships.
      worker_->OnTaskSpawned();
      Serializer ser;
      task->Serialize(ser);
      sink_->push_back(ser.Release());
    }
    void Aggregate(const AggT& delta) override {
      worker_->agg_.Aggregate(delta);
    }
    AggT CurrentAgg() const override { return worker_->agg_.CurrentView(); }
    void Output(std::string record) override {
      worker_->WriteOutput(std::move(record));
    }
    void SetSink(std::vector<std::string>* sink) { sink_ = sink; }

   private:
    Worker* worker_;
    std::vector<std::string>* sink_ = nullptr;
  };

  friend class ComperEngine;
  friend class StealRuntime;

  // ---------------------------------------------------------------------
  // Shared helpers.
  // ---------------------------------------------------------------------

  bool IsLocal(VertexId v) const {
    return OwnerOf(v, config_.num_workers) == id_;
  }

  /// Writes one spill batch to its own file (§V-B) and returns the path. The
  /// write is synchronous, so the file is on disk before the caller lists it
  /// in L_file.
  std::string SpillWrite(const std::vector<std::string>& records) {
    std::string path;
    int64_t bytes = 0;
    Timer write_timer;
    GT_CHECK_OK(SpillFile::WriteBatch(spill_dir_, records, &path, &bytes));
    spill_write_us_->Record(write_timer.ElapsedMicros());
    spill_write_bytes_->Add(bytes);
    return path;
  }

  /// Reads one spill batch back and deletes its file. Counterpart of
  /// SpillWrite for Refill and DonateTasks.
  Status SpillFetch(const std::string& path,
                    std::vector<std::string>* records) {
    int64_t bytes = 0;
    Timer read_timer;
    GT_RETURN_IF_ERROR(SpillFile::ReadBatchAndDelete(path, records, &bytes));
    spill_read_us_->Record(read_timer.ElapsedMicros());
    spill_read_bytes_->Add(bytes);
    return Status::Ok();
  }

  /// Task-lifecycle ledger entry points. live_tasks_ is the single source of
  /// truth for "does this worker hold any task": it is incremented *before* a
  /// task becomes reachable (spawn/restore/receive) and decremented only
  /// after the task is dead (finished) or has left the worker (donated), so
  /// live_tasks_==0 can never be observed while a task is in a comper's
  /// hands between queue and pending-table — the idle-detection race that a
  /// multi-container emptiness check (Q/B/T + executing flag) suffered from.
  void OnTaskSpawned() {
    live_tasks_.fetch_add(1);
    tasks_spawned_.fetch_add(1, std::memory_order_relaxed);
  }

  void OnTaskFinished() {
    tasks_finished_.fetch_add(1, std::memory_order_relaxed);
    live_tasks_.fetch_sub(1);
  }

  /// Records `e` into the job's event ring, stamped with this worker and,
  /// except for kExecute (which carries its slice start), hub time now.
  /// A no-op until the cluster wires a ring, and for per-task kinds unless
  /// enable_span_tracing.
  void Record(obs::Event e) {
    if (flight_ == nullptr) return;
    if (obs::IsTaskKind(e.kind) && !config_.enable_span_tracing) return;
    e.worker = id_;
    if (e.kind != obs::EventKind::kExecute) e.t_us = hub_->NowUs();
    flight_->Record(e);
  }

  /// Globally-unique span identity: worker in the high 16 bits, a local
  /// sequence below (mirrors MakeTaskId's packing). The sequence starts at
  /// 1, so no task gets id 0, which means "no task / no parent" everywhere
  /// (obs/span_trace.h, obs/phase_profile.h).
  uint64_t NextSpanId() {
    return (static_cast<uint64_t>(id_) << 48) |
           span_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Thread-safe output collection (paper §IV (5), data export): records
  /// buffer in memory and flush to batch files under the job's output dir.
  void WriteOutput(std::string record) {
    GT_CHECK(!output_dir_.empty())
        << "Comper::Output used without Job::output_dir";
    std::vector<std::string> to_flush;
    {
      std::lock_guard<std::mutex> lock(output_mutex_);
      output_buffer_.push_back(std::move(record));
      records_output_.fetch_add(1, std::memory_order_relaxed);
      if (output_buffer_.size() >= kOutputFlushRecords) {
        to_flush.swap(output_buffer_);
      }
    }
    if (!to_flush.empty()) FlushOutputBatch(to_flush);
  }

  void FlushOutputBatch(const std::vector<std::string>& records) {
    std::string path;
    GT_CHECK_OK(SpillFile::WriteBatch(output_dir_, records, &path));
  }

  void FinalFlushOutput() {
    std::vector<std::string> to_flush;
    {
      std::lock_guard<std::mutex> lock(output_mutex_);
      to_flush.swap(output_buffer_);
    }
    if (!to_flush.empty()) FlushOutputBatch(to_flush);
  }

  /// Atomically claims up to `count` not-yet-spawned local vertices as the
  /// T_local slot range [first, second) (empty when spawning is done).
  std::pair<size_t, size_t> ClaimSpawnRange(size_t count) {
    const size_t total = local_.size();
    size_t begin = next_spawn_.fetch_add(count, std::memory_order_relaxed);
    if (begin >= total) {
      next_spawn_.store(total, std::memory_order_relaxed);
      return {total, total};
    }
    return {begin, std::min(begin + count, total)};
  }

  bool SpawnDone() const {
    return next_spawn_.load(std::memory_order_relaxed) >= local_.size();
  }

  /// Queues a vertex pull for batched sending (paper: requests are batched
  /// per destination to combat round-trip time). The coalescer additionally
  /// drops IDs already in flight within the open window — safe because the
  /// VertexCache's R-table fans one response record out to every waiting
  /// task — and flushes on a byte budget as well as the count threshold.
  void EnqueueVertexRequest(VertexId v) {
    const int dst = OwnerOf(v, config_.num_workers);
    GT_CHECK_NE(dst, id_) << "local vertex routed to the cache";
    std::vector<VertexId> to_send;
    if (coalescer_.Add(dst, v, &to_send)) SendVertexRequest(dst, to_send);
  }

  void FlushAllRequests() {
    std::vector<VertexId> to_send;
    for (int dst = 0; dst < config_.num_workers; ++dst) {
      if (coalescer_.Flush(dst, &to_send)) SendVertexRequest(dst, to_send);
    }
  }

  void SendVertexRequest(int dst, const std::vector<VertexId>& ids) {
    MessageBatch mb;
    mb.src_worker = id_;
    mb.dst_worker = dst;
    mb.type = MsgType::kVertexRequest;
    mb.payload = EncodeVertexRequest(ids);
    data_sent_.fetch_add(1, std::memory_order_relaxed);
    hub_->Send(std::move(mb));
  }

  // ---------------------------------------------------------------------
  // Communication thread.
  // ---------------------------------------------------------------------

  /// Upper bound on one idle receive wait. Receive is event-driven — the
  /// transport's readiness signal (the mailbox condition variable
  /// in-process; the poll(2) IO thread feeding it under tcp) wakes this
  /// thread the moment a batch lands — so the timeout exists only to bound
  /// housekeeping latency: a comper may open a request window right after
  /// HasPending() read false, and the progress cadence must be met.
  static constexpr int64_t kMaxCommIdleWaitUs = 1000;

  void CommLoop() {
    Timer progress_timer;
    while (true) {
      int64_t wait_us = std::min<int64_t>(
          config_.progress_interval_us - progress_timer.ElapsedMicros(),
          kMaxCommIdleWaitUs);
      if (wait_us < 1) wait_us = 1;
      if (coalescer_.HasPending()) {
        // Open request batches flush on the short comm cadence so
        // sub-threshold pulls are not delayed by an idle-length wait.
        wait_us = std::min(wait_us, config_.comm.poll_us);
      }
      MessageBatch mb;
      if (hub_->Receive(id_, wait_us, &mb)) {
        HandleMessage(mb);
        hub_->MarkProcessed(mb.type);
      }
      FlushAllRequests();
      if (progress_timer.ElapsedMicros() >= config_.progress_interval_us) {
        SendProgress(/*final_report=*/false);
        progress_timer.Restart();
      }
      if (stop_compers_.load(std::memory_order_acquire)) {
        break;
      }
    }
    DrainAndReport();
  }

  /// Receives and fully handles one message if available; counts it toward
  /// the drain tally. Used only after kTerminate was observed.
  bool PumpOneDrainMessage() {
    MessageBatch mb;
    if (!hub_->Receive(id_, config_.comm.poll_us, &mb)) return false;
    drained_messages_.fetch_add(1, std::memory_order_relaxed);
    HandleMessage(mb);
    hub_->MarkProcessed(mb.type);
    return true;
  }

  /// Two-phase lossless shutdown (paper §V-B termination, hardened).
  ///
  /// Phase 1 (local quiesce): the compers were told to stop popping; wait
  /// until their threads actually exit — a comper mid-iteration may still
  /// issue vertex pulls — then flush the per-destination request buffers so
  /// nothing is stranded in them, and report the quiesce to the master with
  /// a kDrainBarrier.
  ///
  /// Phase 2 (wire drain): once the master echoes the barrier (= every
  /// worker is quiesced, so no *new* traffic can originate anywhere), keep
  /// servicing the wire — answering pull requests, accepting responses and
  /// late donated batches — until CommHub::InFlightCount()==0 proves the
  /// wire empty. Only then is the final report sent, so every in-flight
  /// task batch has been banked in L_file and counted by the ledger instead
  /// of evaporating in a dropped inbox (the old behavior on the
  /// time_budget_s timeout path).
  void DrainAndReport() {
    Record({.kind = obs::EventKind::kDrain, .a = 0});  // quiescing compers
    while (compers_running_.load(std::memory_order_acquire) > 0) {
      PumpOneDrainMessage();  // keep the wire moving while compers wind down
    }
    FlushAllRequests();
    Record({.kind = obs::EventKind::kDrain, .a = 1});  // barrier sent
    MessageBatch barrier;
    barrier.src_worker = id_;
    barrier.dst_worker = master_id_;
    barrier.type = MsgType::kDrainBarrier;
    barrier.payload = EncodeDrainBarrier(static_cast<int32_t>(id_));
    hub_->Send(std::move(barrier));

    Timer drain_timer;
    bool deadline_hit = false;
    while (!drain_release_.load(std::memory_order_acquire)) {
      PumpOneDrainMessage();
      if (drain_timer.ElapsedMicros() > config_.drain_timeout_us) {
        deadline_hit = true;
        break;
      }
    }
    // The release means every endpoint is quiesced: this worker will
    // originate nothing further (only answer what still arrives). Socket
    // backends use the announcement to run their cluster-wide drain-marker
    // protocol; in-process it is a no-op.
    hub_->BeginDrain(id_);
    while (!deadline_hit) {
      if (PumpOneDrainMessage()) continue;
      if (hub_->InFlightCount() == 0) break;
      if (drain_timer.ElapsedMicros() > config_.drain_timeout_us) {
        deadline_hit = true;
        break;
      }
    }
    Record({.kind = obs::EventKind::kDrain, .a = deadline_hit ? 3 : 2});
    if (deadline_hit) {
      // Pathological peer (should not happen): empty what we can reach so
      // the loss is *accounted* — tasks in abandoned batches move to the
      // dropped column instead of silently unbalancing the ledger. A
      // zero-timeout Receive loop here used to exit on the first momentarily
      // empty poll (and busy-spun against a slow sender otherwise); instead,
      // poll with the normal comm timeout inside one bounded grace window so
      // in-transit batches still land and get counted.
      Timer grace_timer;
      MessageBatch mb;
      while (grace_timer.ElapsedMicros() <= config_.drain_timeout_us) {
        if (!hub_->Receive(id_, config_.comm.poll_us, &mb)) {
          if (hub_->InFlightCount() == 0) break;
          continue;
        }
        if (mb.type == MsgType::kTaskBatch) {
          std::vector<std::string> records;
          GT_CHECK_OK(DecodeTaskBatch(mb.payload, &records));
          tasks_received_.fetch_add(static_cast<int64_t>(records.size()),
                                    std::memory_order_relaxed);
          tasks_dropped_.fetch_add(static_cast<int64_t>(records.size()),
                                   std::memory_order_relaxed);
        }
        drained_messages_.fetch_add(1, std::memory_order_relaxed);
        hub_->MarkProcessed(mb.type);
      }
    }
    if (!output_dir_.empty()) FinalFlushOutput();
    Record({.kind = obs::EventKind::kDrain, .a = 4});  // final report
    SendProgress(/*final_report=*/true);
    final_sent_.store(true, std::memory_order_release);
  }

  void HandleMessage(const MessageBatch& mb) {
    switch (mb.type) {
      case MsgType::kVertexRequest: {
        data_processed_.fetch_add(1, std::memory_order_relaxed);
        std::vector<VertexId> ids;
        GT_CHECK_OK(DecodeVertexRequest(mb.payload, &ids));
        // Γ-sharing: each record rides as a refcounted fragment handed out
        // by the response cache — a hot vertex is serialized once and its
        // slab is shared by every concurrent response batch carrying it.
        Serializer header;
        header.Write<uint64_t>(ids.size());
        MessageBatch resp;
        resp.payload = TakePayload(header);
        for (VertexId v : ids) {
          const uint32_t slot = local_.SlotOf(v);  // not-owned is fatal
          resp.payload.Append(resp_cache_.Get(slot, local_[slot]));
        }
        resp.src_worker = id_;
        resp.dst_worker = mb.src_worker;
        resp.type = MsgType::kVertexResponse;
        data_sent_.fetch_add(1, std::memory_order_relaxed);
        hub_->Send(std::move(resp));
        break;
      }
      case MsgType::kVertexResponse: {
        data_processed_.fetch_add(1, std::memory_order_relaxed);
        PayloadCursor cur(mb.payload);
        uint64_t n = 0;
        GT_CHECK_OK(cur.Read(&n));
        std::vector<uint64_t> waiting;
        for (uint64_t i = 0; i < n; ++i) {
          // Each record is contiguous by construction (the sender never
          // splits one record across fragments), so the R-table fills
          // straight from the wire fragment — no flatten, no copy.
          size_t len = 0;
          const char* data = cur.ContiguousBytes(&len);
          size_t consumed = 0;
          waiting.clear();
          GT_CHECK_OK(
              cache_.InsertResponseSpan(data, len, &consumed, &waiting));
          GT_CHECK_OK(cur.Skip(consumed));
          for (uint64_t tid : waiting) {
            const int comper = ComperOfTaskId(tid);
            GT_CHECK_LT(comper, static_cast<int>(engines_.size()));
            engines_[comper]->OnVertexReady(tid);
          }
        }
        break;
      }
      case MsgType::kTaskBatch: {
        data_processed_.fetch_add(1, std::memory_order_relaxed);
        std::vector<std::string> records;
        int64_t order_t_us = 0;
        GT_CHECK_OK(DecodeTaskBatch(mb.payload, &records, &order_t_us));
        if (!records.empty()) {
          // Full steal round-trip: master's order -> donor -> this arrival.
          // Valid across workers in-process because all timestamps share one
          // hub clock; across processes (tcp) the epochs differ, so a
          // nonsensical (negative) delta is discarded rather than recorded.
          if (order_t_us > 0) {
            const int64_t rtt_us = hub_->NowUs() - order_t_us;
            if (rtt_us >= 0) steal_rtt_us_->Record(rtt_us);
          }
          // Count the tasks as live *before* banking the batch so there is
          // no instant at which they are invisible to the idle check.
          live_tasks_.fetch_add(static_cast<int64_t>(records.size()));
          tasks_received_.fetch_add(static_cast<int64_t>(records.size()),
                                    std::memory_order_relaxed);
          const int64_t count = static_cast<int64_t>(records.size());
          const std::string path = SpillWrite(records);
          l_file_.PushBack(path, count);
          stolen_batches_.fetch_add(1, std::memory_order_relaxed);
          Record({.kind = obs::EventKind::kStealReceive,
                  .a = count,
                  .b = mb.src_worker});
        }
        break;
      }
      case MsgType::kStealOrder: {
        int32_t dst = -1;
        int64_t order_t_us = 0;
        GT_CHECK_OK(DecodeStealOrder(mb.payload, &dst, &order_t_us));
        // Donation packing happens on the comm thread; its cost shows up as
        // the worker row's steal phase, not in any comper's loop.
        Timer steal_timer;
        DonateTasks(dst, order_t_us);
        if (config_.enable_phase_profile) {
          phase_steal_us_->Add(steal_timer.ElapsedMicros());
        }
        break;
      }
      case MsgType::kAggregatorSync: {
        AggT global{};
        PayloadView view(mb.payload);
        Deserializer des(view.data(), view.size());
        GT_CHECK_OK(Codec<AggT>::Decode(des, &global));
        agg_.SetGlobal(std::move(global));
        break;
      }
      case MsgType::kCheckpointRequest: {
        CheckpointRequest req;
        GT_CHECK_OK(req.Decode(mb.payload));
        // Per-link FIFO delivers any checkpoint request before kTerminate,
        // but guard anyway: with the compers exited, the park rendezvous
        // below would deadlock, and a shutdown-time snapshot is useless.
        if (!stop_compers_.load(std::memory_order_acquire)) {
          DoCheckpoint(req.epoch);
        }
        break;
      }
      case MsgType::kTerminate: {
        Record({.kind = obs::EventKind::kTerminate});
        stop_compers_.store(true, std::memory_order_release);
        break;
      }
      case MsgType::kDrainBarrier: {
        // Master's echo: every worker has quiesced its compers and flushed
        // its request buffers; the wire can now only shrink.
        drain_release_.store(true, std::memory_order_release);
        break;
      }
      default:
        LOG_FATAL << "worker " << id_ << ": unexpected message type "
                  << static_cast<int>(mb.type);
    }
  }

  /// Sends a batch of tasks to `dst` (executing a steal order): first from a
  /// spilled file (newest batch, so the donor keeps its oldest work), else by
  /// spawning fresh tasks from not-yet-spawned local vertices.
  /// `order_t_us` is the hub-clock instant the master issued the steal order;
  /// it rides along in the kTaskBatch so the recipient can close the
  /// round-trip measurement.
  void DonateTasks(int dst, int64_t order_t_us = 0) {
    std::vector<std::string> records;
    if (auto file = l_file_.TryPopBack()) {
      GT_CHECK_OK(SpillFetch(file->path, &records));
      GT_CHECK_EQ(static_cast<int64_t>(records.size()), file->records)
          << "spill file " << file->path << " record count drifted";
    } else {
      const auto [begin, end] = ClaimSpawnRange(config_.task_batch_size);
      if (begin != end) {
        std::lock_guard<std::mutex> lock(steal_mutex_);
        steal_runtime_->SetSink(&records);
        for (size_t slot = begin; slot < end; ++slot) {
          steal_comper_->TaskSpawn(local_[slot]);
        }
        // Close any partial bundle per donation batch so no spawned state
        // is ever stranded in the steal comper.
        steal_comper_->SpawnFlush();
        steal_runtime_->SetSink(nullptr);
      }
    }
    if (config_.task_split_enabled && config_.task_split_steal_weight > 0) {
      MaybeSplitDonation(&records);
    }
    if (records.empty()) return;
    MessageBatch mb;
    mb.src_worker = id_;
    mb.dst_worker = dst;
    mb.type = MsgType::kTaskBatch;
    mb.payload = EncodeTaskBatch(records, order_t_us);
    data_sent_.fetch_add(1, std::memory_order_relaxed);
    hub_->Send(std::move(mb));
    // The donated tasks have left this worker; the recipient counts them
    // back in (received) when the batch lands, and the wire interval is
    // visible to the master as donated - received.
    tasks_donated_.fetch_add(static_cast<int64_t>(records.size()),
                             std::memory_order_relaxed);
    live_tasks_.fetch_sub(static_cast<int64_t>(records.size()));
    Record({.kind = obs::EventKind::kStealDonate,
            .a = static_cast<int64_t>(records.size()),
            .b = dst});
  }

  /// Steal-aware donation splitting (comm thread): a donation record whose
  /// SplitWeight() reaches task_split_steal_weight is decomposed fanout-2
  /// before shipping — the narrowed parent is banked back into L_file and
  /// only the child half travels, so donor and thief each get roughly half
  /// the candidate space. SplitWeight() returns 0 for tasks whose Γ is not
  /// pulled yet, so splitting here never multiplies pull round-trips: a
  /// split child carries its slice of the parent's already-pulled subgraph.
  /// Ledger: each child is a new creation (OnTaskSpawned); the parent was
  /// already live and stays live at home.
  void MaybeSplitDonation(std::vector<std::string>* records) {
    const auto threshold =
        static_cast<uint64_t>(config_.task_split_steal_weight);
    std::vector<std::string> ship;
    std::vector<std::string> keep;
    ship.reserve(records->size());
    std::lock_guard<std::mutex> lock(steal_mutex_);
    for (std::string& rec : *records) {
      auto task = std::make_unique<TaskT>();
      Deserializer des(rec);
      if (!task->Deserialize(des).ok() ||
          steal_comper_->SplitWeight(*task) < threshold) {
        ship.push_back(std::move(rec));
        continue;
      }
      std::vector<std::unique_ptr<TaskT>> children;
      if (!steal_comper_->Split(task.get(), /*fanout=*/2, &children) ||
          children.empty()) {
        ship.push_back(std::move(rec));
        continue;
      }
      split_count_->Add(1);
      split_children_->Add(static_cast<int64_t>(children.size()));
      split_depth_us_->Record(task->split_depth());
      Record({.kind = obs::EventKind::kSplit,
              .a = static_cast<int64_t>(children.size()),
              .b = static_cast<int64_t>(task->split_depth())});
      Serializer parent_ser;
      task->Serialize(parent_ser);
      keep.push_back(parent_ser.Release());
      for (auto& child : children) {
        OnTaskSpawned();
        Serializer child_ser;
        child->Serialize(child_ser);
        ship.push_back(child_ser.Release());
      }
    }
    if (!keep.empty()) {
      const auto kept = static_cast<int64_t>(keep.size());
      const std::string path = SpillWrite(keep);
      l_file_.PushBack(path, kept);
      // The parents hit disk like any spilled batch; counting them keeps
      // spilled/loaded symmetric when the refill path reloads them.
      tasks_spilled_.fetch_add(kept, std::memory_order_relaxed);
    }
    *records = std::move(ship);
  }

  void SendProgress(bool final_report) {
    ProgressReport report;
    report.worker_id = id_;
    report.final_report = final_report ? 1 : 0;
    size_t queued = 0;
    for (const auto& engine : engines_) queued += engine->QueueSize();
    const size_t unspawned =
        local_.size() -
        std::min(next_spawn_.load(std::memory_order_relaxed), local_.size());
    // Exact disk-resident task count (restore tails and partial steal-spawn
    // bundles are smaller than a full batch), so PlanSteals compares donors
    // by real backlog instead of a files-times-batch-size overestimate.
    report.remaining_estimate = l_file_.TotalRecords() +
                                static_cast<int64_t>(unspawned) +
                                static_cast<int64_t>(queued);
    // One linearizable read: live_tasks_ covers queued, ready, pending,
    // disk-resident, and in-a-comper's-hands tasks, so there is no window
    // in which a popped-but-unregistered task reports the worker idle.
    report.idle = (SpawnDone() && live_tasks_.load() == 0) ? 1 : 0;
    report.data_sent = data_sent_.load(std::memory_order_acquire);
    report.data_processed = data_processed_.load(std::memory_order_acquire);
    report.tasks_spawned = tasks_spawned_.load(std::memory_order_relaxed);
    report.task_iterations = task_iterations_.load(std::memory_order_relaxed);
    report.tasks_finished = tasks_finished_.load(std::memory_order_relaxed);
    report.spilled_batches = spilled_batches_.load(std::memory_order_relaxed);
    report.stolen_batches = stolen_batches_.load(std::memory_order_relaxed);
    report.vertex_requests =
        cache_.stats().new_requests.load(std::memory_order_relaxed);
    report.cache_hits = cache_.stats().hits.load(std::memory_order_relaxed);
    report.cache_evictions =
        cache_.stats().evictions.load(std::memory_order_relaxed);
    report.peak_mem_bytes = mem_.peak();
    report.cache_requests =
        cache_.stats().requests.load(std::memory_order_relaxed);
    for (const auto& engine : engines_) {
      report.comper_idle_rounds += engine->IdleRounds();
      report.comper_rounds += engine->Rounds();
    }
    report.ledger.spawned = tasks_spawned_.load(std::memory_order_relaxed);
    report.ledger.restored = tasks_restored_.load(std::memory_order_relaxed);
    report.ledger.finished = tasks_finished_.load(std::memory_order_relaxed);
    report.ledger.spilled = tasks_spilled_.load(std::memory_order_relaxed);
    report.ledger.loaded = tasks_loaded_.load(std::memory_order_relaxed);
    report.ledger.donated = tasks_donated_.load(std::memory_order_relaxed);
    report.ledger.received = tasks_received_.load(std::memory_order_relaxed);
    report.ledger.checkpointed =
        tasks_checkpointed_.load(std::memory_order_relaxed);
    report.ledger.dropped = tasks_dropped_.load(std::memory_order_relaxed);
    report.tasks_live = live_tasks_.load();
    report.tasks_on_disk = l_file_.TotalRecords();
    // Ledger delta at progress cadence: a crash dump shows the conservation
    // trajectory (expected vs observed live) right up to the violation.
    Record({.kind = obs::EventKind::kLedger,
            .a = report.ledger.ExpectedLive(),
            .b = report.tasks_live});
    report.drained_messages =
        drained_messages_.load(std::memory_order_relaxed);
    {
      Serializer ser;
      Codec<AggT>::Encode(ser, agg_.TakeLocal());
      report.agg_delta = ser.Release();
    }
    MessageBatch mb;
    mb.src_worker = id_;
    mb.dst_worker = master_id_;
    mb.type = MsgType::kProgressReport;
    mb.payload = report.Encode();
    hub_->Send(std::move(mb));
  }

  // ---------------------------------------------------------------------
  // Checkpointing (paper §V-B "Fault Tolerance").
  // ---------------------------------------------------------------------

  void MaybePark() {
    if (!pause_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(pause_mutex_);
    ++parked_;
    pause_cv_.notify_all();
    pause_cv_.wait(lock, [this] {
      return !pause_.load(std::memory_order_acquire) ||
             stop_compers_.load(std::memory_order_acquire);
    });
    --parked_;
  }

  void DoCheckpoint(uint64_t epoch) {
    GT_CHECK(checkpoint_dfs_ != nullptr) << "checkpoint without a DFS";
    // Park every comper between iterations so the snapshot is quiescent.
    pause_.store(true, std::memory_order_release);
    {
      std::unique_lock<std::mutex> lock(pause_mutex_);
      pause_cv_.wait(lock, [this] {
        return parked_ == static_cast<int>(engines_.size());
      });
    }
    std::vector<std::string> records;
    for (auto& engine : engines_) engine->CollectCheckpointRecords(&records);
    // Spilled files are checkpointed by content (they stay on local disk for
    // the continuing run, which a failure would wipe).
    for (const FileList::Entry& entry : l_file_.Snapshot()) {
      std::vector<std::string> batch;
      GT_CHECK_OK(SpillFile::ReadBatch(entry.path, &batch));
      for (std::string& r : batch) records.push_back(std::move(r));
    }
    // Self-check: with the compers parked and (master-enforced) no donated
    // batch on the wire, the snapshot must cover exactly the live tasks.
    GT_CHECK_EQ(static_cast<int64_t>(records.size()), live_tasks_.load())
        << "worker " << id_ << " checkpoint missed live tasks";
    tasks_checkpointed_.fetch_add(static_cast<int64_t>(records.size()),
                                  std::memory_order_relaxed);
    Serializer ser;
    ser.Write<uint64_t>(next_spawn_.load(std::memory_order_relaxed));
    ser.Write<uint64_t>(records.size());
    for (const std::string& r : records) ser.WriteString(r);
    const std::string key = "ckpt/" + std::to_string(epoch) + "/worker_" +
                            std::to_string(id_);
    GT_CHECK_OK(checkpoint_dfs_->Put(key, ser.Release()));
    Record({.kind = obs::EventKind::kCheckpoint,
            .a = static_cast<int64_t>(epoch)});
    // Cut the aggregator delta for the ack while the compers are still
    // parked: everything committed so far is pre-snapshot by quiescence.
    // Releasing first opened a race where a resumed comper finished a task
    // that was just serialized into the snapshot and committed its
    // contribution into this delta — the checkpoint meta then counted work
    // the restored task would redo (double count on resume).
    CheckpointAck ack;
    ack.worker_id = id_;
    ack.epoch = epoch;
    {
      Serializer agg_ser;
      Codec<AggT>::Encode(agg_ser, agg_.TakeLocal());
      ack.agg_delta = agg_ser.Release();
    }
    pause_.store(false, std::memory_order_release);
    pause_cv_.notify_all();
    MessageBatch mb;
    mb.src_worker = id_;
    mb.dst_worker = master_id_;
    mb.type = MsgType::kCheckpointAck;
    mb.payload = ack.Encode();
    hub_->Send(std::move(mb));
  }

  // ---------------------------------------------------------------------
  // GC thread (paper §V-A): lazy eviction when T_cache overflows.
  // ---------------------------------------------------------------------

  void GcLoop() {
    while (!stop_compers_.load(std::memory_order_acquire)) {
      if (cache_.Overflowed()) {
        const int64_t excess = cache_.ExcessOverCapacity();
        if (excess > 0) cache_.EvictUpTo(excess);
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.gc_interval_us));
    }
  }

 public:
  /// Wires the DFS used for checkpoints (set by the cluster before Start).
  void SetCheckpointDfs(MiniDfs* dfs) { checkpoint_dfs_ = dfs; }

  /// Wires the job's event ring (set by the cluster before Start; the ring
  /// must outlive the worker's threads).
  void SetFlightRecorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }

  /// Enables Comper::Output, writing record batches under `dir`.
  void SetOutputDir(std::string dir) { output_dir_ = std::move(dir); }

  int64_t RecordsOutput() const {
    return records_output_.load(std::memory_order_relaxed);
  }

  // ---- sampler probes (master thread; each is one relaxed read) ----
  int64_t SampleCacheSize() const { return cache_.ApproxSize(); }
  int64_t SampleLiveTasks() const { return live_tasks_.load(); }
  int64_t SampleDiskTasks() const { return l_file_.TotalRecords(); }
  int64_t SampleQueueDepth() const {
    int64_t depth = 0;
    for (const auto& engine : engines_) {
      depth += static_cast<int64_t>(engine->QueueSize());
    }
    return depth;
  }

  /// Point-in-time progress of this worker for the live status server.
  /// Every field is one (or a few) relaxed atomic reads — safe to call from
  /// the serving thread at any moment during the run.
  struct LiveStatus {
    int64_t live_tasks = 0;
    int64_t queue_depth = 0;
    int64_t disk_tasks = 0;
    int64_t cache_size = 0;
    int64_t cache_hits = 0;
    int64_t cache_requests = 0;
    int64_t comper_idle_rounds = 0;
    int64_t comper_rounds = 0;
    int64_t tasks_spawned = 0;
    int64_t tasks_finished = 0;
    int64_t spilled_batches = 0;
    int64_t stolen_batches = 0;
    int64_t splits = 0;
    int64_t peak_mem_bytes = 0;
  };

  LiveStatus SampleLiveStatus() const {
    LiveStatus s;
    s.live_tasks = SampleLiveTasks();
    s.queue_depth = SampleQueueDepth();
    s.disk_tasks = SampleDiskTasks();
    s.cache_size = SampleCacheSize();
    s.cache_hits = cache_.stats().hits.load(std::memory_order_relaxed);
    s.cache_requests =
        cache_.stats().requests.load(std::memory_order_relaxed);
    for (const auto& engine : engines_) {
      s.comper_idle_rounds += engine->IdleRounds();
      s.comper_rounds += engine->Rounds();
    }
    s.tasks_spawned = tasks_spawned_.load(std::memory_order_relaxed);
    s.tasks_finished = tasks_finished_.load(std::memory_order_relaxed);
    s.spilled_batches = spilled_batches_.load(std::memory_order_relaxed);
    s.stolen_batches = stolen_batches_.load(std::memory_order_relaxed);
    s.splits = split_count_->value();
    s.peak_mem_bytes = mem_.peak();
    return s;
  }

  /// Folds the cache's internal counters (kept as plain atomics on the hot
  /// path, not registry metrics) into the registry so one snapshot carries
  /// everything. Call after Join(), before MetricsSnapshot().
  void FinalizeObs() {
    const auto& cs = cache_.stats();
    auto set = [this](const char* name, int64_t v,
                      const std::string& labels = "") {
      metrics_.GetCounter(name, labels)->Add(v);
    };
    set("cache.requests", cs.requests.load(std::memory_order_relaxed));
    set("cache.hits", cs.hits.load(std::memory_order_relaxed));
    set("cache.wait_joins", cs.wait_joins.load(std::memory_order_relaxed));
    set("cache.new_requests",
        cs.new_requests.load(std::memory_order_relaxed));
    set("cache.evictions", cs.evictions.load(std::memory_order_relaxed));
    set("cache.evict_scan_us",
        cs.evict_scan_us.load(std::memory_order_relaxed));
    set("cache.gc_passes", cs.gc_passes.load(std::memory_order_relaxed));
    set("cache.lock_contention",
        cs.lock_contention.load(std::memory_order_relaxed));
    for (int g = 0; g < VertexCache<VertexT>::kNumBucketGroups; ++g) {
      const auto& group = cs.groups[g];
      const std::string label = "group=" + std::to_string(g);
      set("cache.group.hits", group.hits.load(std::memory_order_relaxed),
          label);
      set("cache.group.misses", group.misses.load(std::memory_order_relaxed),
          label);
      set("cache.group.evictions",
          group.evictions.load(std::memory_order_relaxed), label);
    }
    set("request.deduped", coalescer_.deduped());
    set("resp_cache.hits", resp_cache_.hits());
    set("resp_cache.resets", resp_cache_.resets());
    set("resp_cache.bytes", resp_cache_.bytes());
    set("tasks.spawned", tasks_spawned_.load(std::memory_order_relaxed));
    set("tasks.finished", tasks_finished_.load(std::memory_order_relaxed));
    set("tasks.iterations", task_iterations_.load(std::memory_order_relaxed));
    set("spill.batches", spilled_batches_.load(std::memory_order_relaxed));
    set("steal.batches_received",
        stolen_batches_.load(std::memory_order_relaxed));
    for (const auto& engine : engines_) {
      metrics_.GetGauge("comper.idle_rounds")->Add(engine->IdleRounds());
      metrics_.GetGauge("comper.rounds")->Add(engine->Rounds());
    }
  }

  /// Snapshot of this worker's registry (call FinalizeObs first for the
  /// cache/task roll-ups to be present).
  obs::MetricsSnapshot MetricsSnapshot() const { return metrics_.Snapshot(); }

 private:
  const int id_;
  const JobConfig config_;
  CommHub* hub_;
  int master_id_;
  TrimmerFn trimmer_;
  const std::string spill_dir_;

  LocalTable<VertexT> local_;  // T_local, in ID (= spawn) order
  std::atomic<size_t> next_spawn_{0};

  MemTracker mem_;
  VertexCache<VertexT> cache_;  // T_cache
  FileList l_file_;             // L_file
  AggregatorState<ComperT> agg_;

  std::vector<std::unique_ptr<ComperEngine>> engines_;
  std::unique_ptr<ComperT> steal_comper_;
  std::unique_ptr<StealRuntime> steal_runtime_;
  std::mutex steal_mutex_;

  /// Per-destination pull batching + in-window dedup (compers add, comm
  /// thread flushes).
  PullCoalescer coalescer_;
  /// Γ-sharing response memoization; comm-thread-confined (the only thread
  /// that answers kVertexRequest), so it needs no lock.
  ResponseCache<VertexT> resp_cache_;

  MiniDfs* checkpoint_dfs_ = nullptr;

  // observability (docs/OBSERVABILITY.md). The histogram/counter pointers
  // are registered once in the constructor; recording through them is
  // lock-free.
  obs::MetricsRegistry metrics_;
  std::atomic<uint64_t> span_seq_{1};
  obs::Histogram* task_wait_us_ = nullptr;
  obs::Histogram* steal_rtt_us_ = nullptr;
  obs::Histogram* spill_write_us_ = nullptr;
  obs::Histogram* spill_read_us_ = nullptr;
  obs::Counter* spill_write_bytes_ = nullptr;
  obs::Counter* spill_read_bytes_ = nullptr;
  obs::Counter* refill_spill_tasks_ = nullptr;
  obs::Counter* refill_spawn_tasks_ = nullptr;
  obs::Counter* split_count_ = nullptr;
  obs::Counter* split_children_ = nullptr;
  obs::Histogram* split_depth_us_ = nullptr;  // records generation, not time
  /// Comm-thread donation-packing time (worker row of the phase profile).
  obs::Counter* phase_steal_us_ = nullptr;
  /// The job's event ring (owned by the cluster); null until wired.
  obs::FlightRecorder* flight_ = nullptr;

  // output collection
  static constexpr size_t kOutputFlushRecords = 4096;
  std::string output_dir_;
  std::mutex output_mutex_;
  std::vector<std::string> output_buffer_;
  std::atomic<int64_t> records_output_{0};

  // control
  std::atomic<bool> stop_compers_{false};
  std::atomic<bool> final_sent_{false};
  std::atomic<bool> drain_release_{false};
  std::atomic<int> compers_running_{0};
  std::atomic<bool> pause_{false};
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  int parked_ = 0;
  bool started_ = false;
  std::vector<std::thread> threads_;

  // counters
  std::atomic<int64_t> data_sent_{0};
  std::atomic<int64_t> data_processed_{0};
  std::atomic<int64_t> tasks_spawned_{0};
  std::atomic<int64_t> task_iterations_{0};
  std::atomic<int64_t> tasks_finished_{0};
  std::atomic<int64_t> spilled_batches_{0};
  std::atomic<int64_t> stolen_batches_{0};

  // task-conservation ledger (see TaskLedger in core/protocol.h).
  // live_tasks_ uses seq_cst: it is the one value whose ==0 reading decides
  // worker idleness, and single-variable linearizability is the whole point.
  std::atomic<int64_t> live_tasks_{0};
  std::atomic<int64_t> tasks_restored_{0};
  std::atomic<int64_t> tasks_spilled_{0};
  std::atomic<int64_t> tasks_loaded_{0};
  std::atomic<int64_t> tasks_donated_{0};
  std::atomic<int64_t> tasks_received_{0};
  std::atomic<int64_t> tasks_checkpointed_{0};
  std::atomic<int64_t> tasks_dropped_{0};
  std::atomic<int64_t> drained_messages_{0};
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_WORKER_H_
