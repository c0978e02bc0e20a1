#include "storage/spill_file.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/serializer.h"

namespace gthinker {

namespace {

std::atomic<uint64_t> g_spill_counter{0};

}  // namespace

Status SpillFile::WriteBatch(const std::string& dir,
                             const std::vector<std::string>& records,
                             std::string* path, int64_t* bytes) {
  *path = dir + "/spill_" + std::to_string(g_spill_counter.fetch_add(1)) +
          ".bin";
  Serializer ser;
  ser.Write<uint64_t>(records.size());
  for (const std::string& r : records) {
    ser.WriteString(r);
  }
  std::ofstream out(*path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("open spill " + *path + ": " +
                           std::strerror(errno));
  }
  out.write(ser.data(), static_cast<std::streamsize>(ser.size()));
  out.flush();
  if (!out) return Status::IoError("write spill " + *path);
  if (bytes != nullptr) *bytes = static_cast<int64_t>(ser.size());
  return Status::Ok();
}

Status SpillFile::ReadBatch(const std::string& path,
                            std::vector<std::string>* records,
                            int64_t* bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("no spill file " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::string buf(static_cast<size_t>(size), '\0');
  in.read(buf.data(), size);
  if (!in) return Status::IoError("read spill " + path);
  if (bytes != nullptr) *bytes = static_cast<int64_t>(size);

  Deserializer des(buf);
  uint64_t count = 0;
  GT_RETURN_IF_ERROR(des.Read(&count));
  // Each record carries at least its u64 length prefix; a count that cannot
  // fit in the remaining bytes means a corrupt or foreign file.
  if (count > des.remaining() / sizeof(uint64_t)) {
    return Status::Corruption("spill file record count implausible: " + path);
  }
  records->clear();
  records->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string rec;
    GT_RETURN_IF_ERROR(des.ReadString(&rec));
    records->push_back(std::move(rec));
  }
  return Status::Ok();
}

Status SpillFile::ReadBatchAndDelete(const std::string& path,
                                     std::vector<std::string>* records,
                                     int64_t* bytes) {
  GT_RETURN_IF_ERROR(ReadBatch(path, records, bytes));
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) return Status::IoError("delete spill " + path + ": " + ec.message());
  return Status::Ok();
}

}  // namespace gthinker
