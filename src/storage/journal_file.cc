#include "storage/journal_file.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <fcntl.h>
#include <unistd.h>

#include "common/crash_point.h"
#include "common/strings.h"
#include "storage/recovery_store.h"  // Fnv1a64

namespace qox {

namespace {

/// The checksummed body: `seq,type,field...`.
std::string RecordBody(uint64_t seq, const std::string& type,
                       const std::vector<std::string>& fields) {
  std::vector<std::string> cells;
  cells.reserve(fields.size() + 2);
  cells.push_back(std::to_string(seq));
  cells.push_back(type);
  for (const std::string& f : fields) cells.push_back(f);
  return CsvEncodeLine(cells);
}

std::string RecordLine(uint64_t seq, const std::string& type,
                       const std::vector<std::string>& fields) {
  const std::string body = RecordBody(seq, type, fields);
  return body + "," + std::to_string(Fnv1a64(body.data(), body.size())) + "\n";
}

/// Parses one full line (without its newline). Returns false when the line
/// is not a valid next record — the torn-tail signal.
bool ParseRecord(const std::string& line, uint64_t expected_seq,
                 JournalRecord* out) {
  // The checksum is the last CSV cell; everything before it is the body.
  const size_t comma = line.rfind(',');
  if (comma == std::string::npos || comma + 1 >= line.size()) return false;
  const std::string body = line.substr(0, comma);
  char* end = nullptr;
  const unsigned long long stored =
      std::strtoull(line.c_str() + comma + 1, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  if (Fnv1a64(body.data(), body.size()) != stored) return false;
  std::vector<std::string> cells;
  CsvDecodeLine(body, &cells);
  if (cells.size() < 2) return false;
  char* seq_end = nullptr;
  const unsigned long long seq = std::strtoull(cells[0].c_str(), &seq_end, 10);
  if (seq_end == nullptr || *seq_end != '\0' || seq != expected_seq) {
    return false;
  }
  out->seq = seq;
  out->type = cells[1];
  out->fields.assign(std::make_move_iterator(cells.begin() + 2),
                     std::make_move_iterator(cells.end()));
  return true;
}

Status SyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::IoError("fsync '" + path + "': " + std::strerror(errno));
  }
  return Status::OK();
}

/// fsyncs the directory containing `path` so a freshly created or renamed
/// entry survives a crash of the whole machine, not just the process.
void SyncParentDir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

const char* JournalSyncName(JournalSync sync) {
  switch (sync) {
    case JournalSync::kNone:
      return "none";
    case JournalSync::kCommit:
      return "commit";
    case JournalSync::kAlways:
      return "always";
  }
  return "unknown";
}

Result<JournalSync> ParseJournalSync(const std::string& name) {
  if (name == "none") return JournalSync::kNone;
  if (name == "commit") return JournalSync::kCommit;
  if (name == "always") return JournalSync::kAlways;
  return Status::Invalid("unknown journal sync policy '" + name + "'");
}

Result<std::unique_ptr<JournalFile>> JournalFile::Open(std::string path,
                                                       JournalSync sync) {
  auto journal =
      std::unique_ptr<JournalFile>(new JournalFile(std::move(path), sync));
  // Recover the valid record prefix: scan whole lines front to back, stop
  // at the first line that is torn, corrupt, or out of sequence.
  size_t valid_bytes = 0;
  {
    std::ifstream in(journal->path_, std::ios::binary);
    if (in) {
      std::string line;
      while (std::getline(in, line)) {
        if (in.eof() && !line.empty()) break;  // no newline: torn final line
        JournalRecord record;
        if (!ParseRecord(line, journal->next_seq_, &record)) break;
        valid_bytes += line.size() + 1;
        journal->records_.push_back(std::move(record));
        ++journal->next_seq_;
      }
    }
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(journal->path_, ec);
  if (!ec && size > valid_bytes) {
    journal->truncated_bytes_ = static_cast<size_t>(size) - valid_bytes;
    std::filesystem::resize_file(journal->path_, valid_bytes, ec);
    if (ec) {
      return Status::IoError("cannot truncate torn tail of '" +
                             journal->path_ + "': " + ec.message());
    }
  }
  QOX_RETURN_IF_ERROR(journal->OpenFd());
  return journal;
}

Status JournalFile::OpenFd() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    return Status::IoError("cannot open journal '" + path_ +
                           "': " + std::strerror(errno));
  }
  SyncParentDir(path_);
  return Status::OK();
}

JournalFile::~JournalFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status JournalFile::AppendLineLocked(const std::string& line, bool sync_now) {
  size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write to journal '" + path_ +
                             "': " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  if (sync_now) {
    QOX_RETURN_IF_ERROR(SyncFd(fd_, path_));
    ++syncs_;
  }
  return Status::OK();
}

Status JournalFile::Append(const std::string& type,
                           const std::vector<std::string>& fields,
                           bool commit) {
  std::lock_guard<std::mutex> lock(mu_);
  QOX_CRASH_POINT("journal.append");
  const std::string line = RecordLine(next_seq_, type, fields);
  const bool sync_now = sync_ == JournalSync::kAlways ||
                        (sync_ == JournalSync::kCommit && commit);
  QOX_RETURN_IF_ERROR(AppendLineLocked(line, sync_now));
  JournalRecord record;
  record.seq = next_seq_;
  record.type = type;
  record.fields = fields;
  records_.push_back(std::move(record));
  ++next_seq_;
  QOX_CRASH_POINT("journal.appended");
  return Status::OK();
}

void JournalFile::SetWriteFault(std::function<Status()> fault) {
  std::lock_guard<std::mutex> lock(mu_);
  write_fault_ = std::move(fault);
}

Status JournalFile::Rewrite(const std::vector<JournalRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string tmp_path = path_ + ".tmp";
  // A rotation that fails at ANY step below must leave no trace: the old
  // segment (and the in-memory record list mirroring it) stays the
  // journal, and the half-written temp file is removed so a later
  // successful rotation — or an unrelated directory sweep — never sees it.
  const auto abort_rotation = [&tmp_path](Status status) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    return status;
  };
  {
    if (write_fault_) {
      const Status injected = write_fault_();
      if (!injected.ok()) return abort_rotation(injected);
    }
    const int tmp_fd = ::open(tmp_path.c_str(),
                              O_WRONLY | O_TRUNC | O_CREAT | O_CLOEXEC, 0644);
    if (tmp_fd < 0) {
      return abort_rotation(Status::IoError("cannot create '" + tmp_path +
                                            "': " + std::strerror(errno)));
    }
    uint64_t seq = 1;
    for (const JournalRecord& record : records) {
      const std::string line = RecordLine(seq, record.type, record.fields);
      size_t written = 0;
      while (written < line.size()) {
        const ssize_t n =
            ::write(tmp_fd, line.data() + written, line.size() - written);
        if (n < 0) {
          if (errno == EINTR) continue;
          ::close(tmp_fd);
          return abort_rotation(Status::IoError(
              "write to '" + tmp_path + "': " + std::strerror(errno)));
        }
        written += static_cast<size_t>(n);
      }
      ++seq;
    }
    Status sync_status;
    if (write_fault_) sync_status = write_fault_();
    if (sync_status.ok()) sync_status = SyncFd(tmp_fd, tmp_path);
    ::close(tmp_fd);
    if (!sync_status.ok()) return abort_rotation(sync_status);
    ++syncs_;
  }
  QOX_CRASH_POINT("journal.rotate");
  std::error_code ec;
  std::filesystem::rename(tmp_path, path_, ec);
  if (ec) {
    return abort_rotation(Status::IoError("cannot rotate journal '" + path_ +
                                          "': " + ec.message()));
  }
  SyncParentDir(path_);
  // The append fd still points at the replaced inode; reopen on the new
  // segment so subsequent appends land in the rotated file.
  if (fd_ >= 0) ::close(fd_);
  QOX_RETURN_IF_ERROR(OpenFd());
  records_.clear();
  records_.reserve(records.size());
  uint64_t seq = 1;
  for (const JournalRecord& record : records) {
    JournalRecord copy = record;
    copy.seq = seq++;
    records_.push_back(std::move(copy));
  }
  next_seq_ = seq;
  QOX_CRASH_POINT("journal.rotated");
  return Status::OK();
}

size_t JournalFile::syncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

}  // namespace qox
