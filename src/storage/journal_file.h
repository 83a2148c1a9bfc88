// JournalFile: a durable, checksummed, append-only record log — the
// storage substrate of the engine's FlowJournal (engine/flow_journal.h).
//
// One journal is one text segment of sealed records in the record codec
// (storage/record_io.h). Each is a CSV record `seq,type,field...,checksum`
// where `seq` increases by one per record and `checksum` is the FNV-1a 64
// hash of everything before it; a field holding a newline is quoted, so
// its record spans several lines. On Open the segment is scanned front to
// back; the first record that is torn (no terminating newline), fails its
// checksum, or breaks the sequence is treated as the torn tail of an
// interrupted append: the file is truncated back to the end of the last
// valid record and the valid prefix becomes the recovered record list.
// Appends write the full record with a single write(2) and fsync according
// to the segment's sync policy, so a SIGKILL at any instant loses at most
// the in-flight record. Rewrite() compacts the segment by writing a
// replacement to a temp file, fsyncing it, and atomically renaming it over
// the log (the crash-safe segment rotation).

#ifndef QOX_STORAGE_JOURNAL_FILE_H_
#define QOX_STORAGE_JOURNAL_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace qox {

/// When appends reach the platter. kAlways fsyncs every record, kCommit
/// only records appended with commit=true (attempt starts, RP commits,
/// flow commits — the records resume correctness depends on), kNone never
/// (the OS flushes eventually; a crash may lose a valid-looking suffix,
/// which recovery handles like any torn tail).
enum class JournalSync {
  kNone,
  kCommit,
  kAlways,
};

/// Canonical lowercase name ("none", "commit", "always").
const char* JournalSyncName(JournalSync sync);

/// Parses a sync-policy name. Error for unknown names.
Result<JournalSync> ParseJournalSync(const std::string& name);

/// One recovered or appended record.
struct JournalRecord {
  uint64_t seq = 0;
  std::string type;
  std::vector<std::string> fields;
};

class JournalFile {
 public:
  /// Opens (creating if absent) the segment at `path`, recovers the valid
  /// record prefix, and truncates any torn tail in place.
  static Result<std::unique_ptr<JournalFile>> Open(std::string path,
                                                   JournalSync sync);

  ~JournalFile();
  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  /// Appends one record (next sequence number assigned internally) with a
  /// single write; fsyncs per the sync policy (`commit` marks the record
  /// as a commit record under JournalSync::kCommit). A failed append
  /// (kResourceExhausted on a full disk, kIoError otherwise) cuts whatever
  /// part of its record was written back off the segment, so a later
  /// append follows the last acknowledged record directly; if that cut
  /// fails, the journal fails every later Append and Rewrite.
  Status Append(const std::string& type, const std::vector<std::string>& fields,
                bool commit = false);

  /// Atomically replaces the whole segment with `records` (re-sequenced
  /// from 1): write temp file, fsync, rename over the log. A crash before
  /// the rename leaves the old segment intact; after it, the new one. A
  /// FAILED rotation (disk full, failed fsync, failed rename) likewise
  /// leaves the old segment and the in-memory record list untouched,
  /// removes its half-written temp file, and keeps the journal appendable.
  Status Rewrite(const std::vector<JournalRecord>& records);

  /// Test hook: fault injected before rotation I/O (once before the temp
  /// segment is written, once before its fsync) — the disk-pressure
  /// analogue of FaultyStore's enospc/fsync_fail kinds for the rotation
  /// path, which store-boundary injection cannot reach. A non-OK return
  /// aborts the rotation as if the write/fsync itself had failed. May be
  /// empty.
  void SetWriteFault(std::function<Status()> fault);

  /// Everything currently in the segment, in order (recovered + appended).
  const std::vector<JournalRecord>& records() const { return records_; }

  /// Bytes of torn tail discarded by Open (0 for a clean segment).
  size_t truncated_bytes() const { return truncated_bytes_; }

  JournalSync sync_policy() const { return sync_; }
  const std::string& path() const { return path_; }

  /// fsync calls issued so far (journal-overhead accounting for the cost
  /// model's restart term and the abl_crash_recovery bench).
  size_t syncs() const;

 private:
  JournalFile(std::string path, JournalSync sync)
      : path_(std::move(path)), sync_(sync) {}

  Status OpenFd();

  const std::string path_;
  const JournalSync sync_;
  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t next_seq_ = 1;
  size_t size_ = 0;  // segment bytes up to the end of its last record
  // Set when a failed append's partial record could not be cut off; the
  // segment then ends in garbage, so every later Append and Rewrite fails.
  Status broken_;
  std::vector<JournalRecord> records_;
  size_t truncated_bytes_ = 0;
  size_t syncs_ = 0;
  std::function<Status()> write_fault_;
};

}  // namespace qox

#endif  // QOX_STORAGE_JOURNAL_FILE_H_
