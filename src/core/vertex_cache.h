#ifndef GTHINKER_CORE_VERTEX_CACHE_H_
#define GTHINKER_CORE_VERTEX_CACHE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/vertex.h"
#include "graph/types.h"
#include "util/flat_index.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/serializer.h"
#include "util/status.h"
#include "util/timer.h"

namespace gthinker {

/// Per-thread local counter for the approximate cache size s_cache
/// (paper §V-A "Keeping s_cache Bounded"): each comper / receiver / GC thread
/// accumulates deltas locally and commits to the shared counter only when the
/// local magnitude reaches δ, trading a bounded estimation error
/// (n_threads · δ) for low contention.
class SCacheCounter {
 public:
  int64_t delta() const { return delta_; }

 private:
  template <typename VertexT>
  friend class VertexCache;
  int64_t delta_ = 0;
};

/// The remote-vertex cache T_cache (paper §V-A, Fig. 6): an array of k
/// buckets (k rounded up to a power of two so routing is a mask, not a
/// divide), each guarded by its own mutex and holding one entry pool that
/// plays both of the paper's per-bucket tables:
///   Γ-table: entries in the cached state, with per-vertex lock counts;
///   R-table: entries in the requested state (asked for, not yet answered),
///            with lock counts and the IDs of tasks waiting for the response;
///   Z-list:  the zero-locked (evictable) cached entries, kept as an
///            intrusive doubly-linked FIFO threaded through the pool entries
///            themselves — lock/unlock transitions are O(1) pointer splices
///            with no second lookup, and GC eviction is a pointer chase in
///            unlock-order (oldest-idle first).
/// A vertex has at most one entry, so "in both Γ and R" cannot be
/// represented, and OP2 is an in-place requested→cached flip: no erase, no
/// node allocation, no free. A per-bucket FlatIndex maps a VertexId to its
/// pool slot.
///
/// Pointer stability: the pool is a list of chunks that are never moved or
/// freed while the cache lives, so an entry's address is fixed from its
/// allocation on. A task holding a vertex lock reads the vertex through a
/// raw pointer without the bucket lock while other threads insert into the
/// same bucket, growing its index (which stores slots, not addresses) and
/// its pool (which only appends chunks).
///
/// Operations OP1–OP4 each lock exactly one bucket, so operations on vertices
/// hashed to different buckets proceed concurrently. The batched variants
/// (RequestBatch / GetLockedBatch / ReleaseBatch) additionally group one
/// task's pull set by bucket and take each bucket lock once per group
/// instead of once per vertex — the per-pull locking cost amortizes across
/// the task's frontier.
///
/// Each cached entry stashes its value's serialized byte size at insertion
/// time (computed outside the bucket lock), so eviction and memory
/// accounting never re-run Codec<VertexT>::Bytes while holding a bucket
/// lock.
template <typename VertexT>
class VertexCache {
 public:
  enum class RequestResult {
    kHit,              // cached; lock taken; *out set (OP1 case 1)
    kAlreadyRequested, // requested; task registered (OP1 case 2.2)
    kNewRequest,       // fresh requested entry; caller must send the
                       // request (OP1 case 2.1)
  };

  /// Bucket-group granularity for hotspot stats: buckets are folded into
  /// kNumBucketGroups contiguous groups so a skewed hash (one hot bucket
  /// range) shows up without a counter per bucket.
  static constexpr int kNumBucketGroups = 8;

  struct GroupStats {
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};  // wait-joins + new requests
    std::atomic<int64_t> evictions{0};
  };

  struct Stats {
    std::atomic<int64_t> requests{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> wait_joins{0};
    std::atomic<int64_t> new_requests{0};
    std::atomic<int64_t> evictions{0};
    /// Time GC spent scanning buckets with their lock held (µs): the cost
    /// the Z-list exists to minimize (paper §V-A).
    std::atomic<int64_t> evict_scan_us{0};
    /// Completed EvictUpTo passes (each scans up to every bucket once).
    std::atomic<int64_t> gc_passes{0};
    /// Bucket-lock acquisitions that found the lock already held (the
    /// try_lock fast path failed and the caller had to block).
    std::atomic<int64_t> lock_contention{0};
    GroupStats groups[kNumBucketGroups];
  };

  /// `num_buckets` is rounded up to the next power of two (so BucketIndexFor
  /// is a mask); `capacity` = c_cache (entries), `alpha` = overflow tolerance
  /// α, `counter_delta` = δ, `mem` (optional) tracks cached-value bytes.
  /// `use_z_table = false` is the ablation: GC scans the whole pool for
  /// unlocked entries instead of chasing the Z-list (bench/ablation_ztable).
  /// `segment_shift > 0` routes by renumbered-ID segment instead of per ID:
  /// the router hashes `v >> segment_shift`, so 2^shift consecutive IDs (one
  /// LLC-sized slice of a hub-last layout, JobConfig::layout) share one
  /// bucket — one lock and one resident region for a hot segment. 0 keeps
  /// the original per-ID Mix64 routing bit-identically.
  VertexCache(int num_buckets, int64_t capacity, double alpha,
              int counter_delta, MemTracker* mem = nullptr,
              bool use_z_table = true, int segment_shift = 0)
      : buckets_(RoundUpPow2(num_buckets)),
        capacity_(capacity),
        alpha_(alpha),
        counter_delta_(counter_delta),
        use_z_table_(use_z_table),
        segment_shift_(segment_shift),
        mem_(mem) {
    GT_CHECK_GT(num_buckets, 0);
    GT_CHECK_GT(capacity, 0);
    GT_CHECK_GE(segment_shift, 0);
    GT_CHECK_LE(segment_shift, 30);
    // Power-of-two invariant: the router masks instead of dividing.
    GT_CHECK_EQ(buckets_.size() & (buckets_.size() - 1), 0u);
    bucket_mask_ = buckets_.size() - 1;
    log2_buckets_ = 0;
    while ((size_t{1} << log2_buckets_) < buckets_.size()) ++log2_buckets_;
  }

  VertexCache(const VertexCache&) = delete;
  VertexCache& operator=(const VertexCache&) = delete;

  /// OP1: task `task_id` requests Γ(v). On kHit the vertex is locked for the
  /// caller and *out points at it (stable until the matching Release — the
  /// lock count keeps GC away and the chunked pool keeps the address).
  RequestResult Request(VertexId v, uint64_t task_id, SCacheCounter* counter,
                        const VertexT** out) {
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    const size_t bucket_index = BucketIndexFor(v);
    GroupStats& group = stats_.groups[GroupOf(bucket_index)];
    Bucket& bucket = buckets_[bucket_index];
    RequestResult result;
    {
      BucketLock lock(this, bucket);
      result = RequestLocked(bucket, v, task_id, out);
    }
    switch (result) {
      case RequestResult::kHit:
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        group.hits.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestResult::kAlreadyRequested:
        stats_.wait_joins.fetch_add(1, std::memory_order_relaxed);
        group.misses.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestResult::kNewRequest:
        stats_.new_requests.fetch_add(1, std::memory_order_relaxed);
        group.misses.fetch_add(1, std::memory_order_relaxed);
        Bump(counter, +1);
        break;
    }
    return result;
  }

  /// OP1, batched: resolves one task's remote pull set `ids[0..n)` taking
  /// each distinct bucket lock once (ids are grouped by bucket first).
  /// Occurrence order of duplicate IDs is preserved, so semantics match n
  /// sequential Request calls exactly: each occurrence takes one vertex
  /// lock, and every non-hit occurrence registers `task_id` once on the
  /// requested entry (the response wakes the task once per registration).
  /// Vertices needing a wire request are appended to *new_requests; the
  /// number of immediate hits is returned.
  int RequestBatch(const VertexId* ids, size_t n, uint64_t task_id,
                   SCacheCounter* counter,
                   std::vector<VertexId>* new_requests) {
    if (n == 0) return 0;
    stats_.requests.fetch_add(static_cast<int64_t>(n),
                              std::memory_order_relaxed);
    BatchScratch& s = GroupByBucket(ids, n);
    int total_hits = 0;
    int64_t total_joins = 0;
    int64_t total_new = 0;
    for (const uint32_t bucket_index : s.touched) {
      const uint32_t seg_end = s.start[bucket_index];
      const uint32_t seg_begin = seg_end - s.count[bucket_index];
      s.count[bucket_index] = 0;  // scratch ready for the next batch
      Bucket& bucket = buckets_[bucket_index];
      int64_t hits = 0;
      int64_t misses = 0;
      {
        BucketLock lock(this, bucket);
        for (uint32_t k = seg_begin; k < seg_end; ++k) {
          const VertexT* unused = nullptr;
          switch (RequestLocked(bucket, ids[s.grouped[k]], task_id,
                                &unused)) {
            case RequestResult::kHit:
              ++hits;
              break;
            case RequestResult::kAlreadyRequested:
              ++misses;
              ++total_joins;
              break;
            case RequestResult::kNewRequest:
              ++misses;
              ++total_new;
              new_requests->push_back(ids[s.grouped[k]]);
              break;
          }
        }
      }
      GroupStats& group = stats_.groups[GroupOf(bucket_index)];
      if (hits != 0) group.hits.fetch_add(hits, std::memory_order_relaxed);
      if (misses != 0) {
        group.misses.fetch_add(misses, std::memory_order_relaxed);
      }
      total_hits += static_cast<int>(hits);
    }
    if (total_hits != 0) {
      stats_.hits.fetch_add(total_hits, std::memory_order_relaxed);
    }
    if (total_joins != 0) {
      stats_.wait_joins.fetch_add(total_joins, std::memory_order_relaxed);
    }
    if (total_new != 0) {
      stats_.new_requests.fetch_add(total_new, std::memory_order_relaxed);
      Bump(counter, total_new);
    }
    return total_hits;
  }

  /// OP2: the receiving thread installs a response, flipping v's entry from
  /// requested to cached in place with its lock count kept. Returns the IDs
  /// of the tasks that were waiting for v, in registration order. The
  /// serialized size is computed (and the memory tracker charged) before
  /// the bucket lock is taken.
  std::vector<uint64_t> InsertResponse(VertexT vertex) {
    std::vector<uint64_t> waiting;
    Install(std::move(vertex), &waiting);
    return waiting;
  }

  /// OP2, zero-copy variant: decodes one Codec<VertexT> wire record straight
  /// from a wire-fragment span (no intermediate flatten). *consumed reports
  /// how many bytes the record occupied so the caller can advance its
  /// cursor; *waiting receives the task IDs that were blocked on the vertex
  /// (its previous contents are dropped and its buffer recycled into the
  /// entry for the next request).
  /// Corrupted/truncated records return Status::Corruption without
  /// touching the tables.
  Status InsertResponseSpan(const char* data, size_t size, size_t* consumed,
                            std::vector<uint64_t>* waiting) {
    VertexT vertex;
    Deserializer des(data, size);
    GT_RETURN_IF_ERROR(Codec<VertexT>::Decode(des, &vertex));
    *consumed = des.position();
    Install(std::move(vertex), waiting);
    return Status::Ok();
  }

  /// Looks up a vertex the calling task already holds a lock on.
  const VertexT* GetLocked(VertexId v) {
    Bucket& bucket = BucketFor(v);
    BucketLock lock(this, bucket);
    return GetLockedLocked(bucket, v);
  }

  /// GetLocked, batched: resolves `ids[0..n)` (all locked by the calling
  /// task) into out[0..n) in input order, with one bucket-lock acquisition
  /// per distinct bucket. Used when a ready task builds its frontier.
  void GetLockedBatch(const VertexId* ids, size_t n, const VertexT** out) {
    if (n == 0) return;
    BatchScratch& s = GroupByBucket(ids, n);
    for (const uint32_t bucket_index : s.touched) {
      const uint32_t seg_end = s.start[bucket_index];
      const uint32_t seg_begin = seg_end - s.count[bucket_index];
      s.count[bucket_index] = 0;  // scratch ready for the next batch
      Bucket& bucket = buckets_[bucket_index];
      BucketLock lock(this, bucket);
      for (uint32_t k = seg_begin; k < seg_end; ++k) {
        const uint32_t pos = s.grouped[k];
        out[pos] = GetLockedLocked(bucket, ids[pos]);
      }
    }
  }

  /// OP3: a task releases its hold after an iteration; at zero the vertex
  /// becomes evictable (joins the Z-list tail, so eviction order is FIFO in
  /// unlock time).
  void Release(VertexId v) {
    Bucket& bucket = BucketFor(v);
    BucketLock lock(this, bucket);
    ReleaseLocked(bucket, v);
  }

  /// OP3, batched: releases one task's remote pull set with one bucket-lock
  /// acquisition per distinct bucket. Duplicate IDs release one vertex lock
  /// per occurrence, matching n sequential Release calls.
  void ReleaseBatch(const VertexId* ids, size_t n) {
    if (n == 0) return;
    BatchScratch& s = GroupByBucket(ids, n);
    for (const uint32_t bucket_index : s.touched) {
      const uint32_t seg_end = s.start[bucket_index];
      const uint32_t seg_begin = seg_end - s.count[bucket_index];
      s.count[bucket_index] = 0;  // scratch ready for the next batch
      Bucket& bucket = buckets_[bucket_index];
      BucketLock lock(this, bucket);
      for (uint32_t k = seg_begin; k < seg_end; ++k) {
        ReleaseLocked(bucket, ids[s.grouped[k]]);
      }
    }
  }

  /// OP4: GC eviction. Scans buckets round-robin, evicting unlocked
  /// vertices, until `target` vertices are evicted or every bucket was
  /// scanned once. Returns the number evicted. Single caller (the GC
  /// thread). With the Z-list (default) each bucket scan chases exactly the
  /// evictable entries in FIFO unlock order and frees the byte sizes stashed
  /// at insertion; the ablation walks the whole pool under the bucket lock.
  /// Memory-tracker updates happen outside the lock.
  int64_t EvictUpTo(int64_t target) {
    int64_t evicted = 0;
    const size_t n = buckets_.size();
    Timer scan_timer;
    for (size_t scanned = 0; scanned < n && evicted < target; ++scanned) {
      const size_t bucket_index = next_evict_bucket_;
      Bucket& bucket = buckets_[bucket_index];
      next_evict_bucket_ = (next_evict_bucket_ + 1) & bucket_mask_;
      const int64_t evicted_before = evicted;
      int64_t bytes_freed = 0;
      {
        BucketLock lock(this, bucket);
        if (use_z_table_) {
          while (bucket.z_head != nullptr && evicted < target) {
            Entry* entry = bucket.z_head;
            GT_CHECK_EQ(entry->lock_count, 0);
            ZRemove(bucket, entry);
            bytes_freed += entry->bytes;
            Evict(bucket, entry);
            ++evicted;
          }
        } else {
          const uint32_t slots = bucket.pool.size();
          for (uint32_t slot = 0; slot < slots && evicted < target; ++slot) {
            Entry& entry = bucket.pool[slot];
            if (entry.state != EntryState::kCached || entry.lock_count != 0) {
              continue;
            }
            bytes_freed += entry.bytes;
            Evict(bucket, &entry);
            ++evicted;
          }
        }
      }
      if (mem_ != nullptr && bytes_freed != 0) mem_->Release(bytes_freed);
      if (evicted > evicted_before) {
        stats_.groups[GroupOf(bucket_index)].evictions.fetch_add(
            evicted - evicted_before, std::memory_order_relaxed);
      }
    }
    stats_.evict_scan_us.fetch_add(scan_timer.ElapsedMicros(),
                                   std::memory_order_relaxed);
    stats_.gc_passes.fetch_add(1, std::memory_order_relaxed);
    // Bulk commit: batch eviction amortizes the shared-counter update just
    // like it amortizes bucket locking.
    s_cache_.fetch_sub(evicted, std::memory_order_relaxed);
    stats_.evictions.fetch_add(evicted, std::memory_order_relaxed);
    return evicted;
  }

  /// Commits a thread-local counter (call before a thread exits).
  void FlushCounter(SCacheCounter* counter) {
    if (counter->delta_ != 0) {
      s_cache_.fetch_add(counter->delta_, std::memory_order_relaxed);
      counter->delta_ = 0;
    }
  }

  /// Approximate cached + requested entry count (paper's s_cache).
  int64_t ApproxSize() const {
    return s_cache_.load(std::memory_order_relaxed);
  }

  int64_t capacity() const { return capacity_; }

  /// Actual bucket count after power-of-two rounding.
  size_t num_buckets() const { return buckets_.size(); }

  /// True when compers must stop fetching new tasks:
  /// s_cache > (1+α)·c_cache.
  bool Overflowed() const {
    return static_cast<double>(ApproxSize()) >
           (1.0 + alpha_) * static_cast<double>(capacity_);
  }

  /// δ_evict = s_cache − c_cache (how much the lazy GC should remove).
  int64_t ExcessOverCapacity() const { return ApproxSize() - capacity_; }

  const Stats& stats() const { return stats_; }

  /// Exact entry count (locks every bucket; tests/diagnostics only).
  int64_t ExactSize() const {
    int64_t total = 0;
    for (const Bucket& bucket : buckets_) {
      BucketLock lock(this, bucket);
      total += static_cast<int64_t>(bucket.index.size());
    }
    return total;
  }

  /// Tests/diagnostics: locks every bucket and validates the structural
  /// invariants — the index maps exactly the live pool entries to their
  /// slots; requested entries are locked and have waiters; the Z-list is a
  /// consistent doubly-linked chain holding exactly the zero-locked cached
  /// entries (when the Z-list is enabled); every stashed byte size is
  /// non-negative. Returns the exact entry count, so callers can assert
  /// conservation in the same pass.
  int64_t CheckInvariants() const {
    int64_t total = 0;
    for (const Bucket& bucket : buckets_) {
      BucketLock lock(this, bucket);
      size_t live = 0;
      size_t zero_locked = 0;
      for (uint32_t slot = 0; slot < bucket.pool.size(); ++slot) {
        const Entry& entry = bucket.pool[slot];
        GT_CHECK_EQ(entry.slot, slot);
        if (entry.state == EntryState::kFree) {
          GT_CHECK(!entry.in_z);
          continue;
        }
        ++live;
        GT_CHECK_EQ(bucket.index.Find(entry.id), slot)
            << "index does not map vertex " << entry.id << " to its entry";
        GT_CHECK_GE(entry.bytes, 0);
        if (entry.state == EntryState::kRequested) {
          GT_CHECK_GT(entry.lock_count, 0);
          GT_CHECK(!entry.waiting.empty());
          GT_CHECK(!entry.in_z);
          continue;
        }
        GT_CHECK_GE(entry.lock_count, 0);
        if (entry.lock_count == 0) ++zero_locked;
        if (use_z_table_) {
          GT_CHECK_EQ(entry.in_z, entry.lock_count == 0)
              << "Z-list membership drifted for vertex " << entry.id;
        }
      }
      GT_CHECK_EQ(live, bucket.index.size())
          << "index holds IDs with no live entry";
      if (use_z_table_) {
        size_t chained = 0;
        const Entry* prev = nullptr;
        for (const Entry* e = bucket.z_head; e != nullptr; e = e->z_next) {
          GT_CHECK_EQ(e->z_prev, prev);
          GT_CHECK(e->in_z);
          GT_CHECK(e->state == EntryState::kCached);
          GT_CHECK_EQ(e->lock_count, 0);
          prev = e;
          ++chained;
        }
        GT_CHECK_EQ(bucket.z_tail, prev);
        GT_CHECK_EQ(chained, zero_locked)
            << "Z-list does not cover the zero-locked cached entries";
      }
      total += static_cast<int64_t>(live);
    }
    return total;
  }

 private:
  enum class EntryState : uint8_t { kFree, kRequested, kCached };

  /// One pool entry: a vertex's Γ-table row once cached, its R-table row
  /// while requested.
  struct Entry {
    VertexT vertex;  // valid while kCached
    /// Tasks blocked on the response, in registration order (kRequested).
    std::vector<uint64_t> waiting;
    /// Serialized size per Codec<VertexT>::Bytes, stashed at insertion so
    /// eviction and accounting never serialize under the bucket lock.
    int64_t bytes = 0;
    /// Intrusive Z-list linkage, valid only while in_z. z_next also chains
    /// the pool's free list while kFree.
    Entry* z_prev = nullptr;
    Entry* z_next = nullptr;
    VertexId id = kInvalidVertex;
    uint32_t slot = 0;  // own pool slot (fixed at allocation)
    int32_t lock_count = 0;
    EntryState state = EntryState::kFree;
    bool in_z = false;
  };

  /// Pointer-stable entry storage for one bucket: chunks of 8, 8, 16, 32,
  /// ... entries, so slot → (chunk, offset) is bit arithmetic, capacity
  /// doubles with each new chunk, and no entry ever moves. Freed entries
  /// are recycled through an intrusive free list before the pool grows.
  class EntryPool {
   public:
    Entry& operator[](uint32_t slot) { return *Locate(slot); }
    const Entry& operator[](uint32_t slot) const { return *Locate(slot); }

    /// Slots handed out so far (live + free-listed).
    uint32_t size() const { return size_; }

    Entry* Allocate() {
      if (free_head_ != nullptr) {
        Entry* entry = free_head_;
        free_head_ = entry->z_next;
        entry->z_next = nullptr;
        return entry;
      }
      if (size_ == Capacity()) {
        // Each chunk after the first doubles the capacity.
        const uint32_t chunk_size = chunks_.empty() ? kFirstChunk : size_;
        chunks_.push_back(std::make_unique<Entry[]>(chunk_size));
      }
      Entry* entry = Locate(size_);
      entry->slot = size_++;
      return entry;
    }

    void Free(Entry* entry) {
      entry->z_next = free_head_;
      free_head_ = entry;
    }

   private:
    static constexpr uint32_t kFirstChunk = 8;  // power of two
    static constexpr int kFirstChunkLog2 = 3;

    /// Total slots across the allocated chunks: 8 · 2^(chunks − 1).
    uint32_t Capacity() const {
      return chunks_.empty() ? 0 : kFirstChunk << (chunks_.size() - 1);
    }

    /// Chunk 0 holds slots [0, 8); chunk c ≥ 1 holds [8·2^(c−1), 8·2^c).
    Entry* Locate(uint32_t slot) const {
      if (slot < kFirstChunk) return &chunks_[0][slot];
      const int c = std::bit_width(slot) - kFirstChunkLog2;
      return &chunks_[c][slot - (uint32_t{1} << (c + kFirstChunkLog2 - 1))];
    }

    std::vector<std::unique_ptr<Entry[]>> chunks_;
    uint32_t size_ = 0;
    Entry* free_head_ = nullptr;
  };

  /// Cache-line aligned so neighbouring buckets' mutexes do not share a
  /// line between threads working on different buckets.
  struct alignas(64) Bucket {
    mutable std::mutex mutex;
    FlatIndex index;  // VertexId -> pool slot, live entries only
    EntryPool pool;
    /// Intrusive FIFO of zero-locked cached entries: head = oldest idle
    /// (evicted first), tail = most recently released.
    Entry* z_head = nullptr;
    Entry* z_tail = nullptr;
  };

  /// RAII bucket guard. The try_lock-first acquisition feeds the
  /// lock_contention counter without adding an atomic RMW to the
  /// uncontended path.
  class BucketLock {
   public:
    BucketLock(const VertexCache* cache, const Bucket& bucket)
        : mutex_(bucket.mutex) {
      if (!mutex_.try_lock()) {
        cache->stats_.lock_contention.fetch_add(1, std::memory_order_relaxed);
        mutex_.lock();
      }
    }

    ~BucketLock() { mutex_.unlock(); }

    BucketLock(const BucketLock&) = delete;
    BucketLock& operator=(const BucketLock&) = delete;

   private:
    std::mutex& mutex_;
  };

  // ---- intrusive Z-list splices (bucket lock held) ----

  static void ZPushBack(Bucket& bucket, Entry* entry) {
    entry->z_prev = bucket.z_tail;
    entry->z_next = nullptr;
    entry->in_z = true;
    if (bucket.z_tail != nullptr) {
      bucket.z_tail->z_next = entry;
    } else {
      bucket.z_head = entry;
    }
    bucket.z_tail = entry;
  }

  static void ZRemove(Bucket& bucket, Entry* entry) {
    if (entry->z_prev != nullptr) {
      entry->z_prev->z_next = entry->z_next;
    } else {
      bucket.z_head = entry->z_next;
    }
    if (entry->z_next != nullptr) {
      entry->z_next->z_prev = entry->z_prev;
    } else {
      bucket.z_tail = entry->z_prev;
    }
    entry->z_prev = nullptr;
    entry->z_next = nullptr;
    entry->in_z = false;
  }

  /// The live entry for `v`, or null (bucket lock held).
  Entry* FindLocked(Bucket& bucket, VertexId v) {
    const uint32_t slot = bucket.index.Find(v);
    return slot == FlatIndex::kAbsent ? nullptr : &bucket.pool[slot];
  }

  /// OP1 core, bucket lock held. On kHit the vertex lock is taken and *out
  /// set (out is never null; batch callers pass a scratch slot).
  RequestResult RequestLocked(Bucket& bucket, VertexId v, uint64_t task_id,
                              const VertexT** out) {
    if (Entry* entry = FindLocked(bucket, v)) {
      if (entry->state == EntryState::kCached) {
        if (entry->lock_count == 0 && use_z_table_) ZRemove(bucket, entry);
        ++entry->lock_count;
        *out = &entry->vertex;
        return RequestResult::kHit;
      }
      ++entry->lock_count;
      entry->waiting.push_back(task_id);
      return RequestResult::kAlreadyRequested;
    }
    Entry* entry = bucket.pool.Allocate();
    entry->id = v;
    entry->state = EntryState::kRequested;
    entry->lock_count = 1;
    entry->waiting.push_back(task_id);
    bucket.index.Insert(v, entry->slot);
    return RequestResult::kNewRequest;
  }

  /// OP2 core: the requested→cached flip. Tracker charge and byte size are
  /// computed before the lock; *waiting takes the entry's waiter list.
  void Install(VertexT vertex, std::vector<uint64_t>* waiting) {
    const VertexId v = vertex.id;
    const int64_t bytes = Codec<VertexT>::Bytes(vertex);
    if (mem_ != nullptr) mem_->Consume(bytes);
    Bucket& bucket = BucketFor(v);
    waiting->clear();
    BucketLock lock(this, bucket);
    Entry* entry = FindLocked(bucket, v);
    GT_CHECK(entry != nullptr) << "response for never-requested vertex " << v;
    GT_CHECK(entry->state == EntryState::kRequested)
        << "vertex " << v << " in both Γ-table and R-table (response for a "
        << "cached vertex)";
    entry->vertex = std::move(vertex);
    entry->bytes = bytes;
    entry->state = EntryState::kCached;
    // Swap rather than move: the caller's (cleared) buffer stays with the
    // entry, so its next request registers waiters without allocating.
    waiting->swap(entry->waiting);
    if (entry->lock_count == 0 && use_z_table_) ZPushBack(bucket, entry);
  }

  /// GetLocked core, bucket lock held.
  const VertexT* GetLockedLocked(Bucket& bucket, VertexId v) {
    const Entry* entry = FindLocked(bucket, v);
    GT_CHECK(entry != nullptr && entry->state == EntryState::kCached)
        << "GetLocked miss for vertex " << v;
    GT_CHECK_GT(entry->lock_count, 0);
    return &entry->vertex;
  }

  /// OP3 core, bucket lock held.
  void ReleaseLocked(Bucket& bucket, VertexId v) {
    Entry* entry = FindLocked(bucket, v);
    GT_CHECK(entry != nullptr && entry->state == EntryState::kCached)
        << "release of uncached vertex " << v;
    GT_CHECK_GT(entry->lock_count, 0);
    if (--entry->lock_count == 0 && use_z_table_) ZPushBack(bucket, entry);
  }

  /// Returns a zero-locked cached entry (already off the Z-list) to the
  /// pool's free list, bucket lock held. The vertex value is reset so its
  /// heap storage is released now, not when the slot is reused.
  static void Evict(Bucket& bucket, Entry* entry) {
    GT_CHECK(bucket.index.Erase(entry->id));
    entry->vertex = VertexT();
    entry->bytes = 0;
    entry->id = kInvalidVertex;
    entry->state = EntryState::kFree;
    bucket.pool.Free(entry);
  }

  /// Per-thread scratch for the batched ops. The per-bucket arrays are sized
  /// to the largest cache the thread has batched against; `count` stays
  /// all-zero between calls (each consumer resets the slots it used), so one
  /// scratch serves caches of different bucket counts.
  struct BatchScratch {
    std::vector<uint32_t> bucket_of;  // bucket index per input position
    std::vector<uint32_t> grouped;    // input positions, bucket-contiguous
    std::vector<uint32_t> touched;    // distinct buckets, first-seen order
    std::vector<uint32_t> count;      // live entries per touched bucket
    std::vector<uint32_t> start;      // segment end cursor per touched bucket
  };

  /// Groups ids[0..n) by bucket in O(n) — a two-pass counting group, not a
  /// sort, because the comparison sort showed up as the dominant cost of the
  /// batched hot path (bench/cache_micro). On return, for each bucket b in
  /// `touched`: grouped[start[b] - count[b] .. start[b]) holds the input
  /// positions that hash to b, in occurrence order (duplicate semantics
  /// depend on this stability). Callers must reset count[b] to zero as they
  /// consume each bucket.
  BatchScratch& GroupByBucket(const VertexId* ids, size_t n) {
    thread_local BatchScratch s;
    if (s.count.size() < buckets_.size()) {
      s.count.resize(buckets_.size(), 0);
      s.start.resize(buckets_.size());
    }
    s.bucket_of.resize(n);
    s.grouped.resize(n);
    s.touched.clear();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t b = static_cast<uint32_t>(BucketIndexFor(ids[i]));
      s.bucket_of[i] = b;
      if (s.count[b]++ == 0) s.touched.push_back(b);
    }
    uint32_t offset = 0;
    for (const uint32_t b : s.touched) {
      s.start[b] = offset;
      offset += s.count[b];
    }
    for (size_t i = 0; i < n; ++i) {
      s.grouped[s.start[s.bucket_of[i]]++] = static_cast<uint32_t>(i);
    }
    return s;
  }

  Bucket& BucketFor(VertexId v) { return buckets_[BucketIndexFor(v)]; }

  size_t BucketIndexFor(VertexId v) const {
    // segment_shift_ = 0 routes per ID; > 0 routes per renumbered-ID
    // segment so a hot LLC-sized run of hub rows shares one bucket.
    return Mix64(static_cast<uint64_t>(v) >> segment_shift_) & bucket_mask_;
  }

  /// Folds bucket index into one of kNumBucketGroups contiguous ranges
  /// (power-of-two bucket count makes this a shift).
  int GroupOf(size_t bucket_index) const {
    return static_cast<int>((bucket_index * kNumBucketGroups) >>
                            log2_buckets_);
  }

  static size_t RoundUpPow2(int n) {
    size_t p = 1;
    while (p < static_cast<size_t>(n)) p <<= 1;
    return p;
  }

  void Bump(SCacheCounter* counter, int64_t d) {
    counter->delta_ += d;
    if (counter->delta_ >= counter_delta_ ||
        counter->delta_ <= -counter_delta_) {
      s_cache_.fetch_add(counter->delta_, std::memory_order_relaxed);
      counter->delta_ = 0;
    }
  }

  std::vector<Bucket> buckets_;
  size_t bucket_mask_ = 0;
  unsigned log2_buckets_ = 0;
  const int64_t capacity_;
  const double alpha_;
  const int counter_delta_;
  const bool use_z_table_;
  const int segment_shift_ = 0;
  MemTracker* mem_;
  std::atomic<int64_t> s_cache_{0};
  size_t next_evict_bucket_ = 0;
  mutable Stats stats_;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_VERTEX_CACHE_H_
