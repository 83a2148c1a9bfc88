#include "storage/spill_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/crash_point.h"

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
  payload_.clear();
  AppendTaggedRow(row, schema_, &payload_);
  AppendSealed(payload_, &buffer_);
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
  QOX_RETURN_IF_ERROR(SyncFd(fd_, tmp_path_));
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

SpillReader::SpillReader(const SpillFile& file)
    : file_(file), reader_(file.path, kReadBlockBytes) {}

Result<std::optional<Row>> SpillReader::Next() {
  if (!reader_.is_open()) {
    return Status::IoError("cannot open spill run '" + file_.path + "'");
  }
  const auto corrupted = [this](const std::string& what) {
    return Status::CorruptedData("spill run '" + file_.path + "' record " +
                                 std::to_string(rows_read_ + 1) + ": " +
                                 what);
  };
  if (!reader_.Next(&record_)) {
    if (rows_read_ == file_.rows) return std::optional<Row>();
    return corrupted("the run ends after " + std::to_string(rows_read_) +
                     " of its " + std::to_string(file_.rows) + " rows");
  }
  if (rows_read_ == file_.rows) {
    return corrupted("the run holds more than its " +
                     std::to_string(file_.rows) + " rows");
  }
  const std::optional<std::string_view> payload = OpenSealed(record_);
  if (!reader_.terminated() || !payload.has_value()) {
    return corrupted("failed checksum verification");
  }
  Result<Row> row = ParseTaggedRow(*payload, file_.schema, &cells_);
  if (!row.ok()) return corrupted(row.status().message());
  ++rows_read_;
  return std::optional<Row>(row.TakeValue());
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
