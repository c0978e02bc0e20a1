#ifndef GTHINKER_UTIL_FLAT_INDEX_H_
#define GTHINKER_UTIL_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/types.h"
#include "util/hash.h"
#include "util/logging.h"

namespace gthinker {

/// Open-addressed `VertexId -> uint32 slot` map for the pull path's vertex
/// tables (T_local, each T_cache bucket). One 8-byte cell per entry, a
/// power-of-two cell count (home cell = Mix64(id) & mask, no divide), linear
/// probing, and a load factor of at most 1/2, so a table holding n IDs uses
/// at most 16n bytes after growth. Erase is backward-shift deletion, so the
/// table never accumulates tombstones and a probe stops at the first empty
/// cell.
///
/// The index stores slots, never addresses: the tables it serves keep their
/// entries in separate storage, so growing the index moves no entry.
///
/// Works for any ID set (dense, sparse DFS loads, renumbered layouts); the
/// one reserved key is kInvalidVertex, which marks an empty cell. Not
/// thread-safe; callers hold their own lock.
class FlatIndex {
 public:
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  FlatIndex() : cells_(1, Cell{kEmpty, 0}) {}

  /// Grows so that `n` entries fit without a rehash.
  void Reserve(size_t n) {
    size_t cap = cells_.size();
    while (cap < 2 * n) cap <<= 1;
    if (cap != cells_.size()) Rehash(cap);
  }

  /// The slot stored for `key`, or kAbsent.
  uint32_t Find(VertexId key) const {
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Cell& c = cells_[i];
      if (c.key == key) return c.slot;
      if (c.key == kEmpty) return kAbsent;
    }
  }

  /// Maps `key` to `slot`; the key must be absent.
  void Insert(VertexId key, uint32_t slot) {
    GT_CHECK_NE(key, kEmpty) << "FlatIndex: kInvalidVertex is reserved";
    if (2 * (size_ + 1) > cells_.size()) Rehash(2 * cells_.size());
    size_t i = Home(key);
    while (cells_[i].key != kEmpty) {
      GT_CHECK_NE(cells_[i].key, key) << "FlatIndex: duplicate key " << key;
      i = (i + 1) & mask_;
    }
    cells_[i] = Cell{key, slot};
    ++size_;
  }

  /// Removes `key`; false when it was absent.
  bool Erase(VertexId key) {
    size_t hole = Home(key);
    while (cells_[hole].key != key) {
      if (cells_[hole].key == kEmpty) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull each later cell of the probe run into the hole
    // when the hole lies on that cell's own probe path.
    for (size_t j = (hole + 1) & mask_; cells_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      const size_t probe_len = (j - Home(cells_[j].key)) & mask_;
      if (probe_len >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].key = kEmpty;
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  /// Cell count (a power of two).
  size_t capacity() const { return cells_.size(); }

 private:
  static constexpr VertexId kEmpty = kInvalidVertex;

  struct Cell {
    VertexId key;
    uint32_t slot;
  };

  size_t Home(VertexId key) const {
    return static_cast<size_t>(Mix64(key)) & mask_;
  }

  void Rehash(size_t cap) {
    std::vector<Cell> old(cap, Cell{kEmpty, 0});
    old.swap(cells_);
    mask_ = cap - 1;
    for (const Cell& c : old) {
      if (c.key == kEmpty) continue;
      size_t i = Home(c.key);
      while (cells_[i].key != kEmpty) i = (i + 1) & mask_;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace gthinker

#endif  // GTHINKER_UTIL_FLAT_INDEX_H_
