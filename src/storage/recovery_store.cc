#include "storage/recovery_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crash_point.h"
#include "storage/record_io.h"

namespace qox {

namespace {

constexpr size_t kChunkBytes = 256 * 1024;

std::string KeyOf(const RecoveryPointId& id) {
  return id.flow_id + '\0' + id.point_id;
}

std::string SanitizeForFilename(const std::string& s) {
  std::string out;
  for (const char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '-')
               ? c
               : '_';
  }
  return out;
}
}  // namespace

Result<std::shared_ptr<RecoveryPointStore>> RecoveryPointStore::Open(
    std::string dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create recovery dir '" + dir +
                           "': " + ec.message());
  }
  return std::shared_ptr<RecoveryPointStore>(
      new RecoveryPointStore(std::move(dir)));
}

std::string RecoveryPointStore::DataPath(const RecoveryPointId& id) const {
  return dir_ + "/" + SanitizeForFilename(id.flow_id) + "." +
         SanitizeForFilename(id.point_id) + ".rp.csv";
}

std::string RecoveryPointStore::MarkerPath(const RecoveryPointId& id) const {
  return DataPath(id) + ".commit";
}

Status RecoveryPointStore::Save(const RecoveryPointId& id,
                                const Schema& schema,
                                const std::vector<Row>& rows) {
  const std::string path = DataPath(id);
  const std::string tmp_path = path + ".tmp";
  size_t bytes = 0;
  uint64_t checksum = 0;
  {
    const int fd = ::open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::IoError("cannot create '" + tmp_path +
                             "': " + std::strerror(errno));
    }
    // Written in bounded chunks, so a save never holds a second copy of
    // the whole point. The checksum chains over the records, newlines
    // excluded.
    std::string chunk;
    Status st;
    for (size_t i = 0; i < rows.size() && st.ok(); ++i) {
      const size_t record_begin = chunk.size();
      AppendTaggedRow(rows[i], schema, &chunk);
      checksum = Fnv1a64(chunk.data() + record_begin,
                         chunk.size() - record_begin, i == 0 ? 0 : checksum);
      chunk += '\n';
      if (chunk.size() >= kChunkBytes || i + 1 == rows.size()) {
        st = WriteAll(fd, chunk, tmp_path);
        bytes += chunk.size();
        chunk.clear();
      }
    }
    // The rename below is only an atomic publish if the tmp bytes are
    // already durable; without this fsync a crash could leave a complete-
    // looking name pointing at torn page-cache contents.
    if (st.ok()) st = SyncFd(fd, tmp_path);
    if (::close(fd) != 0 && st.ok()) {
      st = Status::IoError("close of '" + tmp_path +
                           "' failed: " + std::strerror(errno));
    }
    QOX_RETURN_IF_ERROR(st);
  }
  // Atomic publish: rename tmp over the data file, seal the commit marker
  // (row count + content checksum), then record completeness.
  QOX_CRASH_POINT("rp.publish");
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return Status::IoError("cannot publish recovery point '" + path +
                           "': " + ec.message());
  }
  QOX_CRASH_POINT("rp.published");
  {
    const std::string marker_tmp = MarkerPath(id) + ".tmp";
    QOX_RETURN_IF_ERROR(WriteFile(marker_tmp,
                                  std::to_string(rows.size()) + " " +
                                      std::to_string(checksum) + "\n",
                                  /*sync=*/true));
    std::filesystem::rename(marker_tmp, MarkerPath(id), ec);
    if (ec) {
      return Status::IoError("cannot seal recovery point '" + path +
                             "': " + ec.message());
    }
  }
  QOX_CRASH_POINT("rp.sealed");
  total_bytes_written_.fetch_add(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  RecoveryPointInfo& info = points_[KeyOf(id)];
  info.id = id;
  info.num_rows = rows.size();
  info.bytes = bytes;
  info.checksum = checksum;
  info.complete = true;
  return Status::OK();
}

Result<bool> RecoveryPointStore::Adopt(const RecoveryPointId& id) {
  std::ifstream marker(MarkerPath(id));
  if (!marker) return false;  // never sealed (crash before the marker)
  size_t rows = 0;
  uint64_t checksum = 0;
  if (!(marker >> rows >> checksum)) {
    // Zero-length or truncated marker: the seal itself was torn. Same
    // verdict as a checksum mismatch — fall back, don't error.
    return false;
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(DataPath(id), ec);
  if (ec) return false;  // marker without data: nothing to resume from
  std::lock_guard<std::mutex> lock(mu_);
  RecoveryPointInfo& info = points_[KeyOf(id)];
  info.id = id;
  info.num_rows = rows;
  info.bytes = static_cast<size_t>(bytes);
  info.checksum = checksum;
  info.complete = true;
  return true;
}

bool RecoveryPointStore::Has(const RecoveryPointId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = points_.find(KeyOf(id));
  return it != points_.end() && it->second.complete;
}

Result<RowBatch> RecoveryPointStore::Load(const RecoveryPointId& id,
                                          const Schema& schema) const {
  uint64_t expected_checksum = 0;
  size_t expected_rows = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = points_.find(KeyOf(id));
    if (it == points_.end() || !it->second.complete) {
      return Status::NotFound("no complete recovery point '" + id.point_id +
                              "' for flow '" + id.flow_id + "'");
    }
    expected_checksum = it->second.checksum;
    expected_rows = it->second.num_rows;
  }
  const std::string path = DataPath(id);
  RecordReader reader(path);
  if (!reader.is_open()) return Status::IoError("cannot open '" + path + "'");
  // Rows decode as they are read, but none is returned unless the whole
  // file matches the row count and content checksum sealed into the commit
  // marker: corrupted bytes surface as kCorruptedData (fall back to an
  // older point), never as a parse error mistaken for a bug.
  RowBatch batch(schema);
  uint64_t checksum = 0;
  std::string record;
  std::vector<std::string> cells;
  while (reader.Next(&record)) {
    checksum = Fnv1a64(record.data(), record.size(),
                       batch.empty() ? 0 : checksum);
    Result<Row> row = ParseTaggedRow(record, schema, &cells);
    if (!row.ok()) {
      return Status::CorruptedData("recovery point '" + path + "' row " +
                                   std::to_string(batch.num_rows() + 1) +
                                   ": " + row.status().message());
    }
    batch.Append(row.TakeValue());
  }
  if (checksum != expected_checksum || batch.num_rows() != expected_rows) {
    return Status::CorruptedData(
        "recovery point '" + path + "' failed verification (" +
        std::to_string(batch.num_rows()) + "/" +
        std::to_string(expected_rows) + " rows, checksum " +
        std::to_string(checksum) + " != sealed " +
        std::to_string(expected_checksum) + ")");
  }
  return batch;
}

Status RecoveryPointStore::Drop(const RecoveryPointId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.erase(KeyOf(id));
  std::error_code ec;
  std::filesystem::remove(DataPath(id), ec);
  std::filesystem::remove(MarkerPath(id), ec);
  return Status::OK();
}

Status RecoveryPointStore::DropFlow(const std::string& flow_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = points_.begin(); it != points_.end();) {
    if (it->second.id.flow_id == flow_id) {
      std::error_code ec;
      std::filesystem::remove(DataPath(it->second.id), ec);
      std::filesystem::remove(MarkerPath(it->second.id), ec);
      it = points_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

std::vector<RecoveryPointInfo> RecoveryPointStore::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RecoveryPointInfo> out;
  out.reserve(points_.size());
  for (const auto& [key, info] : points_) {
    if (info.complete) out.push_back(info);
  }
  return out;
}

}  // namespace qox
