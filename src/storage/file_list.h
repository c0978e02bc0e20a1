#ifndef GTHINKER_STORAGE_FILE_LIST_H_
#define GTHINKER_STORAGE_FILE_LIST_H_

#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

namespace gthinker {

/// The paper's L_file: a machine-wide concurrent list of spilled task-file
/// metadata (Fig. 7). Compers push files when their queues overflow and pop
/// files (FIFO, oldest first) when refilling; the stealing machinery pushes
/// batches received from busy workers.
///
/// Each entry carries its exact record count: spill batches are usually a
/// full task_batch_size, but checkpoint-restore tails and partial
/// steal-spawn bundles are smaller, and progress reports / the task-
/// conservation ledger need the exact number of disk-resident tasks, not a
/// files-times-batch-size overestimate.
class FileList {
 public:
  struct Entry {
    std::string path;
    int64_t records = 0;
  };

  FileList() = default;

  FileList(const FileList&) = delete;
  FileList& operator=(const FileList&) = delete;

  void PushBack(std::string path, int64_t records) {
    std::lock_guard<std::mutex> lock(mutex_);
    total_records_ += records;
    files_.push_back(Entry{std::move(path), records});
  }

  /// FIFO pop: the oldest spilled batch is refilled first, which is what
  /// keeps the number of disk-resident tasks minimal (§V-B).
  std::optional<Entry> TryPopFront() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (files_.empty()) return std::nullopt;
    Entry entry = std::move(files_.front());
    files_.pop_front();
    total_records_ -= entry.records;
    return entry;
  }

  /// Pop from the back: used when *donating* tasks to a stealing worker so
  /// the donor keeps working on its oldest tasks.
  std::optional<Entry> TryPopBack() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (files_.empty()) return std::nullopt;
    Entry entry = std::move(files_.back());
    files_.pop_back();
    total_records_ -= entry.records;
    return entry;
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return files_.size();
  }

  /// Exact number of task records across all listed files.
  int64_t TotalRecords() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_records_;
  }

  bool Empty() const { return Size() == 0; }

  std::deque<Entry> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return files_;
  }

 private:
  mutable std::mutex mutex_;
  std::deque<Entry> files_;
  int64_t total_records_ = 0;
};

}  // namespace gthinker

#endif  // GTHINKER_STORAGE_FILE_LIST_H_
