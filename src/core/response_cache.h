#ifndef GTHINKER_CORE_RESPONSE_CACHE_H_
#define GTHINKER_CORE_RESPONSE_CACHE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/vertex.h"
#include "graph/types.h"
#include "net/payload.h"
#include "util/serializer.h"

namespace gthinker {

/// Responder-side Γ-sharing: memoizes a local vertex's serialized
/// kVertexResponse record as a single-fragment pooled Payload, so a hot
/// vertex (requested by many workers, or repeatedly after cache eviction)
/// is encoded ONCE and its slab is refcount-shared across every concurrent
/// response batch that includes it — zero re-serialization, zero byte copies.
///
/// The memo is a plain array indexed by the vertex's T_local slot
/// (core/local_table.h): the responder already resolved the slot to find
/// the vertex, so a memo probe is one indexed load, with no hashing. The
/// array grows on demand to the highest slot seen.
///
/// Correctness: entries never go stale because T_local vertices are
/// immutable once the graph is loaded (trimming happens before the job
/// starts); the vertex-pull path is read-only by design (paper §IV).
///
/// Thread model: confined to the worker's comm thread (the only place
/// kVertexRequest batches are handled), so no internal locking. The Payload
/// copies it hands out are safe to ship cross-thread — fragment refcounts
/// are atomic.
///
/// `byte_limit` caps the memoized bytes; on overflow the whole memo is
/// dropped (resets()++) and memoization restarts — trivially correct, and a
/// full reset is fine because the working set under a mining workload is a
/// small hot core. A limit of 0 disables memoization (records are still
/// built through here, just not retained).
template <typename VertexT>
class ResponseCache {
 public:
  explicit ResponseCache(int64_t byte_limit) : byte_limit_(byte_limit) {}

  /// The serialized response record for `v`, whose T_local slot is `slot`
  /// (the memoized slab when cached). The reference stays valid until the
  /// next Get.
  const Payload& Get(uint32_t slot, const VertexT& v) {
    if (byte_limit_ <= 0) {
      scratch_ = Encode(v);
      return scratch_;
    }
    if (slot >= memo_.size()) memo_.resize(static_cast<size_t>(slot) + 1);
    Payload& rec = memo_[slot];
    if (!rec.empty()) {
      hits_++;
      return rec;
    }
    rec = Encode(v);
    bytes_ += static_cast<int64_t>(rec.size());
    if (bytes_ > byte_limit_) {
      for (const uint32_t s : live_) memo_[s] = Payload();
      live_.clear();
      bytes_ = static_cast<int64_t>(rec.size());
      resets_++;
    }
    live_.push_back(slot);
    return rec;
  }

  int64_t hits() const { return hits_; }
  int64_t resets() const { return resets_; }
  int64_t bytes() const { return bytes_; }
  size_t entries() const { return live_.size(); }

 private:
  Payload Encode(const VertexT& v) {
    ser_.Clear();
    Codec<VertexT>::Encode(ser_, v);
    return TakePayload(ser_);
  }

  const int64_t byte_limit_;
  std::vector<Payload> memo_;   // by T_local slot; empty = not memoized
  std::vector<uint32_t> live_;  // memoized slots, for the overflow reset
  Payload scratch_;             // the unmemoized record (byte_limit 0)
  Serializer ser_;  // reused encoder (slab is taken per record)
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t resets_ = 0;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_RESPONSE_CACHE_H_
