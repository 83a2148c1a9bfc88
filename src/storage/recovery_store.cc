#include "storage/recovery_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crash_point.h"
#include "common/strings.h"

namespace qox {

namespace {
std::string KeyOf(const RecoveryPointId& id) {
  return id.flow_id + '\0' + id.point_id;
}

/// fsync the file at `path` so a following rename publishes durable bytes,
/// not page-cache contents a power cut could drop.
Status SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  Status st = Status::OK();
  if (::fsync(fd) != 0) {
    st = Status::IoError("fsync of '" + path +
                         "' failed: " + std::strerror(errno));
  }
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IoError("close of '" + path +
                         "' failed: " + std::strerror(errno));
  }
  return st;
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

uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed) {
  uint64_t hash = seed != 0 ? seed : 0xcbf29ce484222325ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

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
  bool first_line = true;
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) return Status::IoError("cannot create '" + tmp_path + "'");
    for (const Row& row : rows) {
      std::vector<std::string> cells;
      cells.reserve(row.num_values());
      for (const Value& v : row.values()) cells.push_back(v.ToString());
      const std::string line = CsvEncodeLine(cells);
      out << line << "\n";
      bytes += line.size() + 1;
      checksum = Fnv1a64(line.data(), line.size(),
                         first_line ? 0 : checksum);
      first_line = false;
    }
    out.flush();
    if (!out) return Status::IoError("write to '" + tmp_path + "' failed");
    out.close();
    if (out.fail()) {
      return Status::IoError("close of '" + tmp_path + "' failed");
    }
  }
  // The rename below is only an atomic publish if the tmp bytes are
  // already durable; without this fsync a crash could leave a complete-
  // looking name pointing at torn page-cache contents.
  QOX_RETURN_IF_ERROR(SyncPath(tmp_path));
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
    std::ofstream marker(marker_tmp, std::ios::trunc);
    if (!marker) return Status::IoError("cannot create '" + marker_tmp + "'");
    marker << rows.size() << " " << checksum << "\n";
    marker.flush();
    if (!marker) {
      return Status::IoError("write to '" + marker_tmp + "' failed");
    }
    marker.close();
    if (marker.fail()) {
      return Status::IoError("close of '" + marker_tmp + "' failed");
    }
    QOX_RETURN_IF_ERROR(SyncPath(marker_tmp));
    std::filesystem::rename(marker_tmp, MarkerPath(id), ec);
    if (ec) {
      return Status::IoError("cannot seal recovery point '" + path +
                             "': " + ec.message());
    }
  }
  QOX_CRASH_POINT("rp.sealed");
  (void)schema;  // schema travels with the flow; file stores values only
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
  std::ifstream in(DataPath(id));
  if (!in) return Status::IoError("cannot open '" + DataPath(id) + "'");
  // Verify the content checksum sealed into the commit marker BEFORE
  // parsing: corrupted bytes must surface as kCorruptedData (fall back to
  // an older point), never as a parse error mistaken for a bug.
  std::vector<std::string> lines;
  uint64_t checksum = 0;
  bool first_line = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    checksum = Fnv1a64(line.data(), line.size(), first_line ? 0 : checksum);
    first_line = false;
    lines.push_back(std::move(line));
  }
  if (checksum != expected_checksum || lines.size() != expected_rows) {
    return Status::CorruptedData(
        "recovery point '" + DataPath(id) + "' failed verification (" +
        std::to_string(lines.size()) + "/" + std::to_string(expected_rows) +
        " rows, checksum " + std::to_string(checksum) + " != sealed " +
        std::to_string(expected_checksum) + ")");
  }
  RowBatch batch(schema);
  std::vector<std::string> cells;
  for (const std::string& stored : lines) {
    CsvDecodeLine(stored, &cells);
    if (cells.size() != schema.num_fields()) {
      return Status::CorruptedData("recovery point '" + DataPath(id) +
                                   "' row width mismatch");
    }
    Row row;
    for (size_t i = 0; i < cells.size(); ++i) {
      QOX_ASSIGN_OR_RETURN(Value v,
                           Value::Parse(cells[i], schema.field(i).type));
      row.Append(std::move(v));
    }
    batch.Append(std::move(row));
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
