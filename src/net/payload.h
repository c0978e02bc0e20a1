#ifndef GTHINKER_NET_PAYLOAD_H_
#define GTHINKER_NET_PAYLOAD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/buffer_pool.h"
#include "util/serializer.h"
#include "util/status.h"

namespace gthinker {

/// The byte body of a MessageBatch: an ordered chain of refcounted fragments
/// forming one logical byte stream.
///
/// Ownership model (see DESIGN.md "Payload buffer pool"):
///   - A fragment pins either a pooled Slab (SlabRef) or an adopted
///     std::string (shared_ptr). Copying a Payload copies fragment handles —
///     refcount bumps, never byte copies.
///   - The sender builds a Payload (typically via TakePayload(Serializer&)),
///     moves it into MessageBatch, and the hub moves the batch to the
///     receiver's mailbox: the bytes are written exactly once.
///   - Γ-sharing: the responder memoizes a hot vertex's serialized record as
///     a single-fragment Payload and Append()s it into every concurrent
///     kVertexResponse — all those batches share the same slab.
///   - The last Payload referencing a slab (usually the receiver's decoded
///     MessageBatch going out of scope after MarkProcessed) returns it to
///     the BufferPool.
///
/// Readers use PayloadCursor (fragment-aware) or PayloadView (flattening).
class Payload {
 public:
  struct Fragment {
    SlabRef slab;                             // slab-backed, or
    std::shared_ptr<const std::string> str;   // string-backed
    const char* data = nullptr;
    size_t len = 0;
  };

  Payload() = default;

  /// Adopts a string as a single shared fragment (no further copies as the
  /// payload moves through the hub). Implicit so legacy `payload = "..."` /
  /// encode-to-string call sites keep working.
  Payload(std::string s) {  // NOLINT(google-explicit-constructor)
    if (s.empty()) return;
    Fragment f;
    f.str = std::make_shared<const std::string>(std::move(s));
    f.data = f.str->data();
    f.len = f.str->size();
    size_ = f.len;
    frags_.push_back(std::move(f));
  }

  Payload(const char* s)  // NOLINT(google-explicit-constructor)
      : Payload(std::string(s)) {}

  /// Wraps `len` bytes of a slab as a single fragment (takes the ref).
  static Payload FromSlab(SlabRef slab, size_t len) {
    Payload p;
    if (len == 0) return p;
    Fragment f;
    f.data = slab.data();
    f.len = len;
    f.slab = std::move(slab);
    p.size_ = len;
    p.frags_.push_back(std::move(f));
    return p;
  }

  /// Wraps a sub-range of a slab as a single fragment without copying.
  /// `data` must point inside `slab`'s storage; the payload takes an extra
  /// reference so the slab outlives every view carved from it (the TCP
  /// receive path hands each decoded frame body out of its recv slab this
  /// way).
  static Payload FromSlabView(const SlabRef& slab, const char* data,
                              size_t len) {
    Payload p;
    if (len == 0) return p;
    Fragment f;
    f.slab = slab;  // refcount bump
    f.data = data;
    f.len = len;
    p.size_ = len;
    p.frags_.push_back(std::move(f));
    return p;
  }

  /// Copies `n` bytes into a fresh pooled slab.
  static Payload CopyOf(const void* data, size_t n) {
    if (n == 0) return Payload();
    SlabRef slab(BufferPool::Global().Acquire(n));
    std::memcpy(slab.data(), data, n);
    return FromSlab(std::move(slab), n);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_fragments() const { return frags_.size(); }
  const std::vector<Fragment>& fragments() const { return frags_; }

  /// True when the logical stream is one contiguous run (or empty).
  bool IsFlat() const { return frags_.size() <= 1; }

  /// Splices `other`'s fragments onto the tail (refcount shares, no copy).
  void Append(Payload&& other) {
    for (Fragment& f : other.frags_) {
      size_ += f.len;
      frags_.push_back(std::move(f));
    }
    other.frags_.clear();
    other.size_ = 0;
  }

  /// Shares `other`'s fragments onto the tail (one refcount bump per
  /// fragment, no byte copy); `other` is left intact.
  void Append(const Payload& other) {
    frags_.insert(frags_.end(), other.frags_.begin(), other.frags_.end());
    size_ += other.size_;
  }

  /// Copies the logical stream into an owning string (tests, diagnostics).
  std::string ToString() const {
    std::string out;
    out.reserve(size_);
    for (const Fragment& f : frags_) out.append(f.data, f.len);
    return out;
  }

 private:
  std::vector<Fragment> frags_;
  size_t size_ = 0;
};

/// Content comparison against plain bytes (EXPECT_EQ in tests, etc.).
inline bool operator==(const Payload& p, std::string_view s) {
  if (p.size() != s.size()) return false;
  size_t off = 0;
  for (const Payload::Fragment& f : p.fragments()) {
    if (std::memcmp(f.data, s.data() + off, f.len) != 0) return false;
    off += f.len;
  }
  return true;
}
inline bool operator==(std::string_view s, const Payload& p) { return p == s; }
inline bool operator!=(const Payload& p, std::string_view s) {
  return !(p == s);
}

/// Zero-copy handoff of a Serializer's encoded bytes into a single-fragment
/// Payload (the encoder resets and keeps no reference).
inline Payload TakePayload(Serializer& ser) {
  size_t len = 0;
  SlabRef slab = ser.TakeSlab(&len);
  return Payload::FromSlab(std::move(slab), len);
}

/// Flat, contiguous view of a payload for Deserializer-based decoding.
/// Zero-copy when the payload is flat (the common case: every sender-built
/// single-serializer payload); flattens into an owned copy otherwise.
class PayloadView {
 public:
  explicit PayloadView(const Payload& p) {
    if (p.IsFlat()) {
      if (!p.empty()) {
        data_ = p.fragments()[0].data;
        size_ = p.fragments()[0].len;
      }
    } else {
      owned_ = p.ToString();
      data_ = owned_.data();
      size_ = owned_.size();
    }
  }
  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const char* data_ = "";
  size_t size_ = 0;
  std::string owned_;
};

/// Fragment-aware bounds-checked reader over a Payload's logical stream.
/// Fixed-width reads are straddle-safe (they may span a fragment boundary);
/// ContiguousBytes()/Skip() let record-oriented decoders hand each record's
/// contiguous window to a Deserializer without copying (senders never split
/// one record across fragments — see core/response_cache.h).
class PayloadCursor {
 public:
  explicit PayloadCursor(const Payload& p)
      : frags_(&p.fragments()), remaining_(p.size()) {}

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Read requires a trivially copyable type");
    return ReadBytes(out, sizeof(T));
  }

  Status ReadBytes(void* out, size_t n) {
    if (n > remaining_) {
      return Status::Corruption("payload cursor: read past end");
    }
    char* dst = static_cast<char*>(out);
    while (n > 0) {
      const Payload::Fragment& f = (*frags_)[frag_];
      const size_t chunk = std::min(n, f.len - off_);
      std::memcpy(dst, f.data + off_, chunk);
      dst += chunk;
      Advance(chunk);
      n -= chunk;
    }
    return Status::Ok();
  }

  /// Pointer to the rest of the current fragment (*len > 0 unless AtEnd).
  const char* ContiguousBytes(size_t* len) {
    SkipEmpty();
    if (remaining_ == 0) {
      *len = 0;
      return nullptr;
    }
    const Payload::Fragment& f = (*frags_)[frag_];
    *len = f.len - off_;
    return f.data + off_;
  }

  Status Skip(size_t n) {
    if (n > remaining_) {
      return Status::Corruption("payload cursor: skip past end");
    }
    while (n > 0) {
      const Payload::Fragment& f = (*frags_)[frag_];
      const size_t chunk = std::min(n, f.len - off_);
      Advance(chunk);
      n -= chunk;
    }
    return Status::Ok();
  }

  size_t remaining() const { return remaining_; }
  bool AtEnd() const { return remaining_ == 0; }

 private:
  void Advance(size_t n) {
    off_ += n;
    remaining_ -= n;
    SkipEmpty();
  }

  void SkipEmpty() {
    while (frag_ < frags_->size() && off_ == (*frags_)[frag_].len) {
      ++frag_;
      off_ = 0;
    }
  }

  const std::vector<Payload::Fragment>* frags_;
  size_t frag_ = 0;
  size_t off_ = 0;
  size_t remaining_ = 0;
};

}  // namespace gthinker

#endif  // GTHINKER_NET_PAYLOAD_H_
