#include "storage/spill_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/crash_point.h"
#include "common/strings.h"
#include "storage/recovery_store.h"  // Fnv1a64

namespace qox {
namespace {

constexpr size_t kFlushBytes = 256 * 1024;

bool IsSpillArtifact(const std::string& name) {
  const auto ends_with = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  return ends_with(".spill") || ends_with(".spill.tmp");
}

/// EINTR-safe full write of `data` to `fd`.
Status WriteAll(int fd, const std::string& data, const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        return Status::ResourceExhausted("spill write to '" + path +
                                         "' failed: no space left on device");
      }
      return Status::IoError("spill write to '" + path +
                             "' failed: " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillWriter
// ---------------------------------------------------------------------------

SpillWriter::SpillWriter(SpillManager* manager, std::string final_path,
                         Schema schema)
    : manager_(manager),
      final_path_(std::move(final_path)),
      tmp_path_(final_path_ + ".tmp"),
      schema_(std::move(schema)) {}

SpillWriter::~SpillWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status SpillWriter::Append(const Row& row) {
  if (finalized_) {
    return Status::FailedPrecondition("append to finalized spill run '" +
                                      final_path_ + "'");
  }
  std::vector<std::string> cells;
  cells.reserve(row.num_values());
  for (const Value& v : row.values()) cells.push_back(v.ToString());
  const std::string payload = CsvEncodeLine(cells);
  buffer_ += payload;
  buffer_ += ',';
  buffer_ += std::to_string(Fnv1a64(payload.data(), payload.size()));
  buffer_ += '\n';
  ++rows_;
  if (buffer_.size() >= kFlushBytes) QOX_RETURN_IF_ERROR(Flush());
  return Status::OK();
}

Status SpillWriter::Flush() {
  if (buffer_.empty()) return Status::OK();
  QOX_RETURN_IF_ERROR(manager_->CheckWriteFault());
  if (fd_ < 0) {
    fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
      return Status::IoError("cannot create spill run '" + tmp_path_ +
                             "': " + std::strerror(errno));
    }
  }
  QOX_CRASH_POINT("spill.write");
  QOX_RETURN_IF_ERROR(WriteAll(fd_, buffer_, tmp_path_));
  bytes_ += buffer_.size();
  buffer_.clear();
  return Status::OK();
}

Result<SpillFile> SpillWriter::Finalize() {
  QOX_RETURN_IF_ERROR(Flush());
  // An all-empty run still finalizes (readers see zero rows), so callers
  // need no special casing; make sure the fd exists for the fsync.
  if (fd_ < 0) {
    fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
      return Status::IoError("cannot create spill run '" + tmp_path_ +
                             "': " + std::strerror(errno));
    }
  }
  QOX_RETURN_IF_ERROR(manager_->CheckWriteFault());
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync of spill run '" + tmp_path_ +
                           "' failed: " + std::strerror(errno));
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    return Status::IoError("close of spill run '" + tmp_path_ +
                           "' failed: " + std::strerror(errno));
  }
  fd_ = -1;
  QOX_CRASH_POINT("spill.finalize");
  std::error_code ec;
  std::filesystem::rename(tmp_path_, final_path_, ec);
  if (ec) {
    return Status::IoError("cannot publish spill run '" + final_path_ +
                           "': " + ec.message());
  }
  finalized_ = true;
  manager_->Rename(tmp_path_, final_path_);
  manager_->Account(rows_, bytes_);
  SpillFile file;
  file.path = final_path_;
  file.schema = schema_;
  file.rows = rows_;
  file.bytes = bytes_;
  return file;
}

// ---------------------------------------------------------------------------
// SpillReader
// ---------------------------------------------------------------------------

SpillReader::SpillReader(const SpillFile& file) : file_(file) {
  in_.open(file.path);
  opened_ok_ = static_cast<bool>(in_);
}

Result<std::optional<Row>> SpillReader::Next() {
  if (!opened_ok_) {
    return Status::IoError("cannot open spill run '" + file_.path + "'");
  }
  if (!std::getline(in_, line_)) return std::optional<Row>();
  ++line_no_;
  const size_t comma = line_.rfind(',');
  if (comma == std::string::npos) {
    return Status::CorruptedData("spill run '" + file_.path + "' line " +
                                 std::to_string(line_no_) +
                                 ": missing checksum");
  }
  const uint64_t expected =
      std::strtoull(line_.c_str() + comma + 1, nullptr, 10);
  if (Fnv1a64(line_.data(), comma) != expected) {
    return Status::CorruptedData("spill run '" + file_.path + "' line " +
                                 std::to_string(line_no_) +
                                 " failed checksum verification");
  }
  line_.resize(comma);  // the payload: every cell before the checksum
  CsvDecodeLine(line_, &cells_);
  if (cells_.size() != file_.schema.num_fields()) {
    return Status::CorruptedData(
        "spill run '" + file_.path + "' line " + std::to_string(line_no_) +
        ": expected " + std::to_string(file_.schema.num_fields()) +
        " cells, got " + std::to_string(cells_.size()));
  }
  std::vector<Value> values;
  values.reserve(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    QOX_ASSIGN_OR_RETURN(Value v,
                         Value::Parse(cells_[i], file_.schema.field(i).type));
    values.push_back(std::move(v));
  }
  return std::optional<Row>(Row(std::move(values)));
}

// ---------------------------------------------------------------------------
// SpillManager
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SpillWriter>> SpillManager::CreateRun(
    const std::string& tag, const Schema& schema) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!dir_created_) {
      std::error_code ec;
      std::filesystem::create_directories(dir_, ec);
      if (ec) {
        return Status::IoError("cannot create spill directory '" + dir_ +
                               "': " + ec.message());
      }
      dir_created_ = true;
    }
  }
  const size_t id = next_id_.fetch_add(1);
  const std::string path =
      dir_ + "/" + tag + "." + std::to_string(id) + ".spill";
  auto writer =
      std::unique_ptr<SpillWriter>(new SpillWriter(this, path, schema));
  Register(writer->tmp_path_);
  runs_.fetch_add(1);
  return writer;
}

void SpillManager::Register(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.push_back(path);
}

void SpillManager::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::string& path : files_) {
    if (path == from) {
      path = to;
      return;
    }
  }
  files_.push_back(to);
}

Status SpillManager::RemoveAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& path : files_) {
    std::error_code ec;
    std::filesystem::remove(path, ec);  // absent (already removed) is fine
  }
  files_.clear();
  return Status::OK();
}

Result<size_t> SpillManager::CleanupDir(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec) || ec) return size_t{0};
  size_t removed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    if (IsSpillArtifact(entry.path().filename().string())) {
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec)) ++removed;
    }
  }
  return removed;
}

}  // namespace qox
