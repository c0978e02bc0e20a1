#ifndef GTHINKER_CORE_LOCAL_TABLE_H_
#define GTHINKER_CORE_LOCAL_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "graph/types.h"
#include "util/flat_index.h"
#include "util/logging.h"

namespace gthinker {

/// T_local (paper §V-A): the vertices a worker owns, read-only once the job
/// starts. The vertices live in one vector in ascending ID order, which is
/// also the spawn order, so a vertex is addressed by its position (its
/// slot). A FlatIndex maps a VertexId to its slot for the pull path: the
/// responder resolving kVertexRequest batches and compers building
/// frontiers. The slot also keys the responder's Γ-sharing memo
/// (core/response_cache.h).
///
/// Load protocol: Add() every owned vertex, then Finalize() once. After
/// Finalize the table is immutable and safe to read from any thread.
template <typename VertexT>
class LocalTable {
 public:
  /// `owner` names the worker in the not-owned diagnostic.
  explicit LocalTable(int owner) : owner_(owner) {}

  LocalTable(const LocalTable&) = delete;
  LocalTable& operator=(const LocalTable&) = delete;

  void Add(VertexT v) { vertices_.push_back(std::move(v)); }

  /// Sorts into ID order and builds the index. A duplicate ID is fatal.
  void Finalize() {
    auto by_id = [](const VertexT& a, const VertexT& b) { return a.id < b.id; };
    if (!std::is_sorted(vertices_.begin(), vertices_.end(), by_id)) {
      std::sort(vertices_.begin(), vertices_.end(), by_id);
    }
    index_.Reserve(vertices_.size());
    for (size_t i = 0; i < vertices_.size(); ++i) {
      index_.Insert(vertices_[i].id, static_cast<uint32_t>(i));
    }
  }

  /// The slot of owned vertex `v`; fatal when this worker does not own it.
  uint32_t SlotOf(VertexId v) const {
    const uint32_t slot = index_.Find(v);
    GT_CHECK(slot != FlatIndex::kAbsent)
        << "vertex " << v << " not owned by worker " << owner_;
    return slot;
  }

  const VertexT& At(VertexId v) const { return vertices_[SlotOf(v)]; }
  const VertexT& operator[](size_t slot) const { return vertices_[slot]; }
  size_t size() const { return vertices_.size(); }

  /// MemTracker charge: codec bytes plus 16 per vertex (the index's two
  /// 8-byte cells per entry at its maximum load factor of 1/2).
  int64_t Bytes() const {
    int64_t bytes = 0;
    for (const VertexT& v : vertices_) bytes += Codec<VertexT>::Bytes(v) + 16;
    return bytes;
  }

 private:
  const int owner_;
  std::vector<VertexT> vertices_;
  FlatIndex index_;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_LOCAL_TABLE_H_
