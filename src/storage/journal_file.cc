#include "storage/journal_file.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "common/crash_point.h"
#include "common/strings.h"
#include "storage/record_io.h"

namespace qox {

namespace {

/// Appends the sealed record `seq,type,field...,checksum` and its newline.
void AppendRecord(uint64_t seq, const std::string& type,
                  const std::vector<std::string>& fields, std::string* out) {
  std::vector<std::string> cells;
  cells.reserve(fields.size() + 2);
  cells.push_back(std::to_string(seq));
  cells.push_back(type);
  for (const std::string& f : fields) cells.push_back(f);
  AppendSealed(CsvEncodeLine(cells), out);
}

/// Parses one record (without its newline). Returns false when it is not a
/// valid next record — the torn-tail signal.
bool ParseRecord(const std::string& record, uint64_t expected_seq,
                 std::vector<std::string>* cells, JournalRecord* out) {
  const std::optional<std::string_view> body = OpenSealed(record);
  if (!body.has_value()) return false;
  CsvDecodeLine(*body, cells);
  if (cells->size() < 2) return false;
  const std::string& seq_cell = (*cells)[0];
  uint64_t seq = 0;
  const auto [ptr, ec] = std::from_chars(
      seq_cell.data(), seq_cell.data() + seq_cell.size(), seq);
  if (ec != std::errc() || ptr != seq_cell.data() + seq_cell.size() ||
      seq != expected_seq) {
    return false;
  }
  out->seq = seq;
  out->type = (*cells)[1];
  out->fields.assign(cells->begin() + 2, cells->end());
  return true;
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
  // Recover the valid record prefix: scan whole records front to back,
  // stop at the first one that is torn, corrupt, or out of sequence.
  size_t valid_bytes = 0;
  {
    RecordReader reader(journal->path_);
    std::string text;
    std::vector<std::string> cells;
    JournalRecord record;
    while (reader.Next(&text) && reader.terminated() &&
           ParseRecord(text, journal->next_seq_, &cells, &record)) {
      valid_bytes = reader.offset();
      journal->records_.push_back(std::move(record));
      ++journal->next_seq_;
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
  journal->size_ = valid_bytes;
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

Status JournalFile::Append(const std::string& type,
                           const std::vector<std::string>& fields,
                           bool commit) {
  std::lock_guard<std::mutex> lock(mu_);
  QOX_CRASH_POINT("journal.append");
  QOX_RETURN_IF_ERROR(broken_);
  std::string line;
  AppendRecord(next_seq_, type, fields, &line);
  Status st = WriteAll(fd_, line, path_);
  if (st.ok() && (sync_ == JournalSync::kAlways ||
                  (sync_ == JournalSync::kCommit && commit))) {
    st = SyncFd(fd_, path_);
    if (st.ok()) ++syncs_;
  }
  if (!st.ok()) {
    // A failed append may leave some or all of its record in the segment
    // (a disk that fills mid-write, a failed fsync). The caller was told
    // it failed, so cut it off: a partial record left in place glues
    // itself to the next one, which then fails its checksum on Open and is
    // truncated with every record after it as a torn tail.
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      broken_ = Status::IoError("cannot cut a failed append off journal '" +
                                path_ + "': " + std::strerror(errno));
    }
    return st;
  }
  size_ += line.size();
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
  QOX_RETURN_IF_ERROR(broken_);
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
  std::string segment;
  {
    if (write_fault_) {
      const Status injected = write_fault_();
      if (!injected.ok()) return abort_rotation(injected);
    }
    uint64_t seq = 1;
    for (const JournalRecord& record : records) {
      AppendRecord(seq++, record.type, record.fields, &segment);
    }
    const int tmp_fd = ::open(tmp_path.c_str(),
                              O_WRONLY | O_TRUNC | O_CREAT | O_CLOEXEC, 0644);
    if (tmp_fd < 0) {
      return abort_rotation(Status::IoError("cannot create '" + tmp_path +
                                            "': " + std::strerror(errno)));
    }
    Status st = WriteAll(tmp_fd, segment, tmp_path);
    if (st.ok() && write_fault_) st = write_fault_();
    if (st.ok()) st = SyncFd(tmp_fd, tmp_path);
    ::close(tmp_fd);
    if (!st.ok()) return abort_rotation(st);
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
  size_ = segment.size();
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
