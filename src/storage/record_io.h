// RecordIo: the one codec for the engine's line files — flat files, the
// flow journal, spill runs, recovery points and supervisor verdicts.
//
// A record is one CSV record: it ends at the first newline outside a
// quoted cell, so a cell holding a newline (CsvEscape quotes it) stays in
// its record. A row is encoded as its cells' Value::ToString, CSV-escaped
// and comma-separated, and each cell parses back as its column's declared
// type; the empty cell is NULL. That is the flat file's CSV, where NULL and
// "" are one cell. Spill runs, recovery points and dead-letter payloads
// hold rows that must come back exactly, so they write *tagged* rows: the
// same cells plus one trailing tag cell naming each position whose
// declared-type parse would not give the value back — an empty string, or
// a cell of another runtime type than its column's (a boxed cell) — as
// `<position><letter>`, the letter one of b i d s t (bool, int64, double,
// string, timestamp). The tag cell is empty when no cell needs one:
// `7,,"a,b",` is a row of int64 7, NULL and "a,b"; `7,,"a,b",1s` holds ""
// where the NULL was. A sealed record is `body,<Fnv1a64(body)>` with the hash in
// decimal: the journal and spill runs seal every record, so a torn or
// corrupted one fails to open.
//
// Writes go through WriteAll (EINTR-safe; ENOSPC is kResourceExhausted,
// so ResourcePolicy can degrade around a full disk) and SyncFd.

#ifndef QOX_STORAGE_RECORD_IO_H_
#define QOX_STORAGE_RECORD_IO_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"

namespace qox {

/// FNV-1a 64-bit. A non-zero `seed` continues a hash (the recovery-point
/// chain); 0 starts from the offset basis.
uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed = 0);

/// Writes all of `data` to `fd`, retrying on EINTR and short writes.
/// ENOSPC is kResourceExhausted; any other failure is kIoError.
Status WriteAll(int fd, std::string_view data, const std::string& path);

/// fsync(2) of `fd`; kIoError on failure.
Status SyncFd(int fd, const std::string& path);

/// Creates or truncates `path` and writes `data` to it, with an fsync
/// before the close when `sync` is set.
Status WriteFile(const std::string& path, std::string_view data, bool sync);

/// Appends `body,<Fnv1a64(body)>` and a newline to `*out`.
void AppendSealed(std::string_view body, std::string* out);

/// The body of a sealed record (given without its newline), or nullopt
/// when its last cell is not the decimal Fnv1a64 of everything before the
/// comma that precedes it.
std::optional<std::string_view> OpenSealed(std::string_view record);

/// Appends `row` as one CSV record, without a newline, to `*out`.
void AppendRow(const Row& row, std::string* out);

/// Parses one record into a row of `schema`, each cell by Value::Parse as
/// its field's type. `cells` is scratch reused from call to call. A cell
/// count other than the schema's width, or a cell that does not parse, is
/// kInvalidArgument.
Result<Row> ParseRow(std::string_view record, const Schema& schema,
                     std::vector<std::string>* cells);

/// Appends `row`, a row of `schema`, as one tagged record (its cells and
/// the tag cell), without a newline, to `*out`.
void AppendTaggedRow(const Row& row, const Schema& schema, std::string* out);

/// Parses one tagged record into the row AppendTaggedRow was given: each
/// cell as its field's type, or as its tag's. A cell count other than the
/// schema's width plus one, a malformed tag cell, or a cell that does not
/// parse is kInvalidArgument.
Result<Row> ParseTaggedRow(std::string_view record, const Schema& schema,
                           std::vector<std::string>* cells);

/// Splits a file into records. Reads with read(2) straight into one block
/// and finds line ends and quotes with memchr.
class RecordReader {
 public:
  static constexpr size_t kDefaultBlockBytes = size_t{1} << 16;

  explicit RecordReader(const std::string& path,
                        size_t block_bytes = kDefaultBlockBytes);
  ~RecordReader();
  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  bool is_open() const { return fd_ >= 0; }

  /// Reads the next record, without its final newline, into `*record`.
  /// False at end of file.
  bool Next(std::string* record);

  /// Lines consumed so far (a record holding quoted newlines spans
  /// several).
  size_t line_no() const { return line_no_; }

  /// Whether the record Next last returned ended with a newline. The last
  /// record of a file cut mid-record did not.
  bool terminated() const { return terminated_; }

  /// Byte offset just past the record Next last returned, its newline
  /// included.
  size_t offset() const { return block_offset_ + pos_; }

 private:
  bool Fill();

  int fd_ = -1;
  std::vector<char> block_;
  size_t block_offset_ = 0;  // file offset of block_[0]
  size_t pos_ = 0;
  size_t end_ = 0;
  size_t line_no_ = 0;
  bool terminated_ = false;
};

}  // namespace qox

#endif  // QOX_STORAGE_RECORD_IO_H_
