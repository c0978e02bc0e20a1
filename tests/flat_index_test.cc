// The flat, slot-addressed vertex tables of the pull path: FlatIndex (the
// open-addressed VertexId -> slot map), T_local (core/local_table.h) and
// the responder's slot-indexed Γ-sharing memo (core/response_cache.h).

#include "util/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/local_table.h"
#include "core/response_cache.h"
#include "core/vertex.h"
#include "util/random.h"

namespace gthinker {
namespace {

using VertexT = Vertex<AdjList>;

/// Inserts `ids` (slot = position), then checks every one resolves to its
/// slot and the table stays within its load factor.
FlatIndex ExpectRoundTrip(const std::vector<VertexId>& ids) {
  FlatIndex index;
  for (size_t i = 0; i < ids.size(); ++i) {
    index.Insert(ids[i], static_cast<uint32_t>(i));
  }
  EXPECT_EQ(index.size(), ids.size());
  // Load factor at most 1/2: two 8-byte cells per entry at most.
  EXPECT_LE(2 * index.size(), index.capacity());
  EXPECT_EQ(index.capacity() & (index.capacity() - 1), 0u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(index.Find(ids[i]), i) << "id " << ids[i];
  }
  return index;
}

TEST(FlatIndex, EmptyIndexFindsNothing) {
  FlatIndex index;
  EXPECT_EQ(index.Find(0), FlatIndex::kAbsent);
  EXPECT_EQ(index.Find(12345), FlatIndex::kAbsent);
  EXPECT_FALSE(index.Erase(7));
  EXPECT_EQ(index.size(), 0u);
}

TEST(FlatIndex, SparseIds) {
  std::vector<VertexId> ids;
  for (VertexId v = 3; v < 4'000'000'000u; v += 40'000'037u) ids.push_back(v);
  const FlatIndex index = ExpectRoundTrip(ids);
  EXPECT_EQ(index.Find(4), FlatIndex::kAbsent);
  EXPECT_EQ(index.Find(40'000'041u), FlatIndex::kAbsent);
}

TEST(FlatIndex, IdsCongruentModTwoToTheSixteen) {
  // All share their low 16 bits: a mask-of-the-ID hash would put them in
  // one probe run; Mix64 must spread them.
  std::vector<VertexId> ids;
  for (VertexId k = 0; k < 2000; ++k) ids.push_back((k << 16) | 0x1234u);
  ExpectRoundTrip(ids);
}

TEST(FlatIndex, ExtremeIds) {
  ExpectRoundTrip({0});
  ExpectRoundTrip({0xFFFFFFFEu});
  ExpectRoundTrip({0, 1, 0xFFFFFFFEu, 0x80000000u, 0x7FFFFFFFu});
}

TEST(FlatIndex, ReserveAvoidsRehashAndKeepsEntries) {
  FlatIndex index;
  index.Insert(9, 1);
  index.Reserve(1000);
  const size_t cap = index.capacity();
  EXPECT_GE(cap, 2000u);
  for (VertexId v = 100; v < 1099; ++v) index.Insert(v, v);
  EXPECT_EQ(index.capacity(), cap);
  EXPECT_EQ(index.Find(9), 1u);
  EXPECT_EQ(index.Find(500), 500u);
}

TEST(FlatIndex, EraseMatchesMapModelUnderChurn) {
  // Random insert/erase churn on a small key range keeps long probe runs
  // and wrap-around; backward-shift deletion must keep every survivor
  // reachable. The model is a plain std::unordered_map.
  FlatIndex index;
  std::unordered_map<VertexId, uint32_t> model;
  Random rng(77);
  for (int op = 0; op < 200'000; ++op) {
    const VertexId key = static_cast<VertexId>(rng.Uniform(512)) * 65536u;
    if (model.count(key) != 0) {
      EXPECT_TRUE(index.Erase(key));
      model.erase(key);
    } else {
      index.Insert(key, static_cast<uint32_t>(op));
      model.emplace(key, static_cast<uint32_t>(op));
    }
    if (op % 4096 == 0) {
      ASSERT_EQ(index.size(), model.size());
      for (VertexId k = 0; k < 512; ++k) {
        const VertexId id = k * 65536u;
        auto it = model.find(id);
        ASSERT_EQ(index.Find(id),
                  it == model.end() ? FlatIndex::kAbsent : it->second)
            << "op " << op << " id " << id;
      }
    }
  }
}

VertexT MakeVertex(VertexId id, int degree) {
  VertexT v;
  v.id = id;
  for (int d = 0; d < degree; ++d) v.value.push_back(id + 1 + d);
  return v;
}

TEST(LocalTable, SortsIntoIdOrderAndIndexesSlots) {
  LocalTable<VertexT> table(/*owner=*/3);
  for (VertexId v : {40u, 7u, 0xFFFFFFFEu, 0u, 19u}) {
    table.Add(MakeVertex(v, 2));
  }
  table.Finalize();
  ASSERT_EQ(table.size(), 5u);
  const std::vector<VertexId> order = {0, 7, 19, 40, 0xFFFFFFFEu};
  for (size_t slot = 0; slot < order.size(); ++slot) {
    EXPECT_EQ(table[slot].id, order[slot]);
    EXPECT_EQ(table.SlotOf(order[slot]), slot);
    EXPECT_EQ(&table.At(order[slot]), &table[slot]);
  }
  // MemTracker charge: codec bytes + 16 per vertex.
  int64_t expected = 0;
  for (size_t slot = 0; slot < table.size(); ++slot) {
    expected += Codec<VertexT>::Bytes(table[slot]) + 16;
  }
  EXPECT_EQ(table.Bytes(), expected);
}

TEST(LocalTableDeathTest, AbsentIdIsNotOwned) {
  LocalTable<VertexT> table(/*owner=*/1);
  table.Add(MakeVertex(1, 1));
  table.Add(MakeVertex(3, 1));
  table.Finalize();
  EXPECT_DEATH(table.SlotOf(2), "vertex 2 not owned by worker 1");
  EXPECT_DEATH(table.At(0xFFFFFFFEu), "not owned by worker");
}

/// The map-keyed memo this cache replaced, reduced to its accounting: the
/// reference the slot-indexed memo must match on hits/resets/bytes/entries.
struct MapMemoModel {
  explicit MapMemoModel(int64_t limit) : byte_limit(limit) {}

  void Get(VertexId id, int64_t record_bytes) {
    if (byte_limit <= 0) return;
    if (table.count(id) != 0) {
      ++hits;
      return;
    }
    bytes += record_bytes;
    if (bytes > byte_limit) {
      table.clear();
      bytes = record_bytes;
      ++resets;
    }
    table.emplace(id, record_bytes);
  }

  int64_t byte_limit;
  std::unordered_map<VertexId, int64_t> table;
  int64_t bytes = 0;
  int64_t hits = 0;
  int64_t resets = 0;
};

TEST(ResponseCache, SlotMemoMatchesMapReference) {
  // T_local of 64 vertices with varied degrees (varied record sizes); a
  // skewed request trace of 5000 pulls replayed against a tiny limit (many
  // resets), a roomy one (no resets) and 0 (memo off).
  LocalTable<VertexT> table(/*owner=*/0);
  for (VertexId v = 0; v < 64; ++v) {
    table.Add(MakeVertex(v * 5, 1 + static_cast<int>(v % 9)));
  }
  table.Finalize();
  Random rng(4242);
  std::vector<VertexId> trace;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t hot = rng.Uniform(4) == 0 ? 64 : 8;  // 3/4 on a hot core
    trace.push_back(static_cast<VertexId>(rng.Uniform(hot)) * 5);
  }
  for (const int64_t limit : {int64_t{300}, int64_t{1} << 20, int64_t{0}}) {
    ResponseCache<VertexT> cache(limit);
    MapMemoModel model(limit);
    for (VertexId id : trace) {
      const uint32_t slot = table.SlotOf(id);
      const Payload& rec = cache.Get(slot, table[slot]);
      Serializer ser;
      Codec<VertexT>::Encode(ser, table[slot]);
      ASSERT_EQ(rec.ToString(), ser.Release()) << "limit " << limit;
      model.Get(id, static_cast<int64_t>(rec.size()));
    }
    EXPECT_EQ(cache.hits(), model.hits) << "limit " << limit;
    EXPECT_EQ(cache.resets(), model.resets) << "limit " << limit;
    EXPECT_EQ(cache.bytes(), model.bytes) << "limit " << limit;
    EXPECT_EQ(cache.entries(), model.table.size()) << "limit " << limit;
    if (limit == 300) {
      EXPECT_GT(cache.resets(), 0);
    } else if (limit == 0) {
      EXPECT_EQ(cache.hits(), 0);
    } else {
      EXPECT_EQ(cache.resets(), 0);
    }
  }
}

TEST(ResponseCache, MemoizedRecordIsSharedNotReencoded) {
  LocalTable<VertexT> table(/*owner=*/0);
  table.Add(MakeVertex(10, 4));
  table.Finalize();
  ResponseCache<VertexT> cache(1 << 20);
  const Payload first = cache.Get(0, table[0]);
  const Payload second = cache.Get(0, table[0]);
  ASSERT_EQ(first.num_fragments(), 1u);
  ASSERT_EQ(second.num_fragments(), 1u);
  // Same slab: the second Get handed out the memoized fragment.
  EXPECT_EQ(first.fragments()[0].data, second.fragments()[0].data);
  EXPECT_EQ(cache.hits(), 1);
}

}  // namespace
}  // namespace gthinker
