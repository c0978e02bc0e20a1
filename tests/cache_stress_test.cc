// Multithreaded stress for the T_cache hot path (batched OP1/OP3, intrusive
// Z-list, in-place R→Γ flips). Runs under the GT_SANITIZE=thread CI job:
// TSan must see no races between concurrent
// RequestBatch/ReleaseBatch/InsertResponse/EvictUpTo, and the conservation
// checks below must hold exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/vertex_cache.h"

namespace gthinker {
namespace {

using VertexT = Vertex<AdjList>;
using Cache = VertexCache<VertexT>;

VertexT MakeVertex(VertexId id) {
  VertexT v;
  v.id = id;
  v.value = {id + 1, id + 2, id + 3};
  return v;
}

/// Mirrors the worker's task-resolution protocol (met/req commit, responder
/// wake-ups, batched release on completion) against one cache from many
/// threads, with a GC thread evicting concurrently. Afterwards ExactSize()
/// must match the committed insert/evict counters and CheckInvariants()
/// must find no entry in both Γ and R and a consistent Z-list.
void RunStress(bool use_z_table) {
  Cache cache(/*buckets=*/32, /*capacity=*/300, /*alpha=*/0.2, /*delta=*/5,
              nullptr, use_z_table);
  constexpr int kThreads = 4;
  constexpr int kVertices = 150;
  constexpr int kRounds = 1500;
  std::atomic<bool> producers_done{false};

  // The shared T_task analogue: met/req per in-flight pull batch. A batch is
  // complete when met == req; whoever completes it releases its locks.
  struct PendingTask {
    std::vector<VertexId> pulls;
    int met = 0;
    int req = -1;  // -1 = not yet committed by the submitting thread
  };
  std::mutex table_mutex;
  std::unordered_map<uint64_t, PendingTask> table;

  std::mutex board_mutex;
  std::vector<VertexId> board;  // vertices awaiting a "response"

  // Ground truth maintained outside the cache.
  std::atomic<int64_t> responses_inserted{0};
  std::atomic<int64_t> evicted_total{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SCacheCounter ctr;
      std::vector<VertexId> pulls;
      std::vector<VertexId> fresh;
      for (int i = 0; i < kRounds; ++i) {
        const uint64_t tid = (static_cast<uint64_t>(t) << 32) |
                             static_cast<uint64_t>(i);
        // A small pull set with a deliberate duplicate every few rounds:
        // each occurrence takes one vertex lock and one wake registration.
        pulls.clear();
        const int width = 1 + (i + t) % 6;
        for (int k = 0; k < width; ++k) {
          pulls.push_back(
              static_cast<VertexId>((i * 31 + t * 17 + k * 7) % kVertices));
        }
        if (i % 3 == 0) pulls.push_back(pulls.front());
        const int total = static_cast<int>(pulls.size());
        {
          std::lock_guard<std::mutex> lock(table_mutex);
          table.emplace(tid, PendingTask{pulls, 0, -1});
        }
        fresh.clear();
        const int hits = cache.RequestBatch(pulls.data(), pulls.size(), tid,
                                            &ctr, &fresh);
        if (!fresh.empty()) {
          std::lock_guard<std::mutex> lock(board_mutex);
          for (VertexId v : fresh) board.push_back(v);
        }
        // Commit req, exactly like Worker::Resolve: responses may have
        // raced in between RequestBatch and here.
        std::vector<VertexId> to_release;
        {
          std::lock_guard<std::mutex> lock(table_mutex);
          auto it = table.find(tid);
          it->second.met += hits;
          if (it->second.met == total) {
            to_release = std::move(it->second.pulls);
            table.erase(it);
          } else {
            it->second.req = total;
          }
        }
        if (!to_release.empty()) {
          cache.ReleaseBatch(to_release.data(), to_release.size());
        }
      }
      cache.FlushCounter(&ctr);
    });
  }

  // Responder: answers board entries; each response wakes the registered
  // tasks (one met per registration, duplicates included) and completed
  // tasks release their whole pull set.
  std::thread responder([&] {
    while (true) {
      std::vector<VertexId> todo;
      {
        std::lock_guard<std::mutex> lock(board_mutex);
        todo.swap(board);
      }
      bool tasks_open;
      {
        std::lock_guard<std::mutex> lock(table_mutex);
        tasks_open = !table.empty();
      }
      if (todo.empty()) {
        if (producers_done.load() && !tasks_open) break;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      for (VertexId v : todo) {
        auto waiting = cache.InsertResponse(MakeVertex(v));
        responses_inserted.fetch_add(1);
        for (uint64_t tid : waiting) {
          std::vector<VertexId> to_release;
          {
            std::lock_guard<std::mutex> lock(table_mutex);
            auto it = table.find(tid);
            ASSERT_TRUE(it != table.end());
            ++it->second.met;
            if (it->second.req >= 0 && it->second.met == it->second.req) {
              to_release = std::move(it->second.pulls);
              table.erase(it);
            }
          }
          if (!to_release.empty()) {
            cache.ReleaseBatch(to_release.data(), to_release.size());
          }
        }
      }
    }
  });

  std::atomic<bool> stop_gc{false};
  std::thread gc([&] {
    while (!stop_gc.load()) {
      if (cache.Overflowed()) {
        evicted_total.fetch_add(cache.EvictUpTo(cache.ExcessOverCapacity()));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  for (auto& t : threads) t.join();
  producers_done.store(true);
  responder.join();
  stop_gc.store(true);
  gc.join();

  // Every pull batch resolved and released its locks.
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(board.empty());

  // Structural invariants + conservation: no entry in both Γ and R, the
  // Z-list covers exactly the unlocked entries, and with every request
  // answered the exact entry count equals inserted - evicted.
  const int64_t exact = cache.CheckInvariants();
  EXPECT_EQ(exact, cache.ExactSize());
  EXPECT_EQ(exact, responses_inserted.load() - evicted_total.load());
  // Everything is released, so the whole cache must be evictable...
  EXPECT_EQ(cache.EvictUpTo(exact + 100), exact);
  EXPECT_EQ(cache.ExactSize(), 0);
  // ...and the shared counter must commit back to zero (bulk eviction
  // commits exactly; thread deltas were flushed on exit).
  EXPECT_EQ(cache.ApproxSize(), 0);
}

TEST(CacheStress, MutexZList) { RunStress(true); }
TEST(CacheStress, MutexFullScan) { RunStress(false); }

/// Pointer stability: a task holds a locked vertex's pointer and reads it
/// without the bucket lock (a frontier during Compute) while another thread
/// inserts thousands of responses into the same bucket — growing its index
/// many times and its pool by many chunks. The held entry must never move;
/// under GT_SANITIZE=address a moved entry is a heap-use-after-free on the
/// reader side, under thread a data race.
TEST(CacheStress, LockedVertexSurvivesBucketGrowth) {
  Cache cache(/*buckets=*/1, /*capacity=*/100'000, 0.2, 5);
  SCacheCounter held_ctr;
  const VertexT* unused = nullptr;
  ASSERT_EQ(cache.Request(7, 1, &held_ctr, &unused),
            Cache::RequestResult::kNewRequest);
  cache.InsertResponse(MakeVertex(7));
  const VertexT* held = cache.GetLocked(7);
  const AdjList expected = held->value;

  constexpr VertexId kInserted = 5000;
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::thread grower([&] {
    while (!reading.load()) {
    }
    SCacheCounter ctr;
    const VertexT* out = nullptr;
    for (VertexId v = 100; v < 100 + kInserted; ++v) {
      EXPECT_EQ(cache.Request(v, v, &ctr, &out),
                Cache::RequestResult::kNewRequest);
      cache.InsertResponse(MakeVertex(v));
      if (v % 2 == 0) cache.Release(v);
    }
    cache.FlushCounter(&ctr);
    done.store(true);
  });
  reading.store(true);
  bool intact = true;
  while (!done.load()) {
    intact = intact && held->id == 7u && held->value == expected;
  }
  grower.join();
  EXPECT_TRUE(intact);
  EXPECT_EQ(cache.GetLocked(7), held);
  EXPECT_EQ(held->value, expected);
  cache.Release(7);
  EXPECT_EQ(cache.CheckInvariants(), 1 + int64_t{kInserted});
}

/// OP2 flips the requested entry to cached in place and hands back the
/// waiting task IDs in the order the tasks registered — single Requests
/// and batched ones, duplicates included — on both insert paths.
TEST(CacheStress, FlipReturnsWaitersInArrivalOrder) {
  Cache cache(/*buckets=*/4, /*capacity=*/100, 0.2, 1);
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  std::vector<VertexId> fresh;
  EXPECT_EQ(cache.Request(11, 50, &ctr, &out),
            Cache::RequestResult::kNewRequest);
  EXPECT_EQ(cache.Request(11, 3, &ctr, &out),
            Cache::RequestResult::kAlreadyRequested);
  const std::vector<VertexId> batch = {12, 11, 11};
  EXPECT_EQ(cache.RequestBatch(batch.data(), batch.size(), 9, &ctr, &fresh),
            0);
  EXPECT_EQ(cache.Request(11, 1, &ctr, &out),
            Cache::RequestResult::kAlreadyRequested);
  EXPECT_EQ(fresh, std::vector<VertexId>{12});
  EXPECT_EQ(cache.InsertResponse(MakeVertex(11)),
            (std::vector<uint64_t>{50, 3, 9, 9, 1}));

  // The span path into a reused (dirty) caller buffer.
  Serializer ser;
  Codec<VertexT>::Encode(ser, MakeVertex(12));
  const std::string rec = ser.Release();
  std::vector<uint64_t> waiting = {777, 778};
  size_t consumed = 0;
  ASSERT_TRUE(
      cache.InsertResponseSpan(rec.data(), rec.size(), &consumed, &waiting)
          .ok());
  EXPECT_EQ(consumed, rec.size());
  EXPECT_EQ(waiting, std::vector<uint64_t>{9});

  // Both are cached now, holding one lock per registration.
  EXPECT_EQ(cache.GetLocked(11)->value, MakeVertex(11).value);
  EXPECT_EQ(cache.GetLocked(12)->value, MakeVertex(12).value);
  EXPECT_EQ(cache.CheckInvariants(), 2);
  EXPECT_EQ(cache.EvictUpTo(10), 0);  // all locked
  for (int i = 0; i < 5; ++i) cache.Release(11);
  cache.Release(12);
  EXPECT_EQ(cache.EvictUpTo(10), 2);
}

/// Eviction takes only zero-locked cached entries, on both GC paths, while
/// a concurrent thread keeps locking, reading and unlocking a rotating
/// window of the same vertices. Requested-but-unanswered entries are never
/// evicted either.
void RunEvictOnlyUnlocked(bool use_z_table) {
  Cache cache(/*buckets=*/8, /*capacity=*/10'000, 0.2, 1, nullptr,
              use_z_table);
  constexpr VertexId kCached = 400;
  SCacheCounter ctr;
  const VertexT* out = nullptr;
  for (VertexId v = 0; v < kCached; ++v) {
    cache.Request(v, v, &ctr, &out);
    cache.InsertResponse(MakeVertex(v));
    if (v % 3 == 0) cache.Release(v);  // 1/3 evictable from the start
  }
  // Requested, never answered: must survive every eviction pass.
  for (VertexId v = 1000; v < 1010; ++v) cache.Request(v, v, &ctr, &out);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    SCacheCounter tctr;
    std::vector<VertexId> fresh;
    std::vector<VertexId> pulls;
    std::vector<const VertexT*> ptrs;
    for (int round = 0; !stop.load(); ++round) {
      // Only the still-locked residue (v % 3 != 0) is guaranteed cached.
      pulls.clear();
      for (int k = 0; k < 8; ++k) {
        pulls.push_back(
            static_cast<VertexId>(3 * ((round * 13 + k * 29) % 133) + 1));
      }
      fresh.clear();
      ASSERT_EQ(cache.RequestBatch(pulls.data(), pulls.size(), 1, &tctr,
                                   &fresh),
                static_cast<int>(pulls.size()));
      ptrs.assign(pulls.size(), nullptr);
      cache.GetLockedBatch(pulls.data(), pulls.size(), ptrs.data());
      for (size_t i = 0; i < pulls.size(); ++i) {
        ASSERT_EQ(ptrs[i]->id, pulls[i]);
      }
      cache.ReleaseBatch(pulls.data(), pulls.size());
    }
    cache.FlushCounter(&tctr);
  });
  int64_t evicted = 0;
  for (int pass = 0; pass < 200; ++pass) evicted += cache.EvictUpTo(3);
  stop.store(true);
  churn.join();
  evicted += cache.EvictUpTo(kCached);
  EXPECT_EQ(evicted, (kCached + 2) / 3);
  for (VertexId v = 0; v < kCached; ++v) {
    if (v % 3 == 0) {
      EXPECT_EQ(cache.Request(v, 2, &ctr, &out),
                Cache::RequestResult::kNewRequest)
          << "v " << v;
    } else {
      EXPECT_EQ(cache.GetLocked(v)->id, v);
    }
  }
  for (VertexId v = 1000; v < 1010; ++v) {
    EXPECT_EQ(cache.Request(v, 3, &ctr, &out),
              Cache::RequestResult::kAlreadyRequested);
  }
  cache.CheckInvariants();
}

TEST(CacheStress, ZListEvictsOnlyUnlocked) { RunEvictOnlyUnlocked(true); }
TEST(CacheStress, FullScanEvictsOnlyUnlocked) { RunEvictOnlyUnlocked(false); }

}  // namespace
}  // namespace gthinker
