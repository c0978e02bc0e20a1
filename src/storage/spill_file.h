#ifndef GTHINKER_STORAGE_SPILL_FILE_H_
#define GTHINKER_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace gthinker {

/// Batched task spilling (paper §III / §V-B): when a comper's Q_task is full,
/// the tail C tasks are serialized and written as one file, so disk IO is
/// sequential; refills read a whole file back. Spill files also carry stolen
/// task batches between workers.
///
/// File format: u64 count, then per record: u64 length + bytes.
class SpillFile {
 public:
  /// Writes one batch of serialized records to a fresh uniquely-named file in
  /// `dir`; returns the file path in `*path`. `bytes`, when non-null,
  /// receives the on-disk file size (spill-throughput metrics).
  static Status WriteBatch(const std::string& dir,
                           const std::vector<std::string>& records,
                           std::string* path, int64_t* bytes = nullptr);

  /// Reads a whole batch back and deletes the file.
  static Status ReadBatchAndDelete(const std::string& path,
                                   std::vector<std::string>* records,
                                   int64_t* bytes = nullptr);

  /// Reads without deleting (checkpoint restore).
  static Status ReadBatch(const std::string& path,
                          std::vector<std::string>* records,
                          int64_t* bytes = nullptr);
};

}  // namespace gthinker

#endif  // GTHINKER_STORAGE_SPILL_FILE_H_
