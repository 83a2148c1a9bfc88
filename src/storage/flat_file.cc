#include "storage/flat_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/crash_point.h"
#include "common/strings.h"

namespace qox {
namespace {

/// EINTR-safe full write, with the errno mapped to the status taxonomy
/// (ENOSPC → kResourceExhausted, so ResourcePolicy can degrade; anything
/// else → kIoError, permanent).
Status WriteAllBytes(int fd, const std::string& data,
                     const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        return Status::ResourceExhausted("write to '" + path +
                                         "' failed: no space left on device");
      }
      return Status::IoError("write to '" + path +
                             "' failed: " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Splits a CSV file into records: lines, continued across line breaks
/// while a quoted cell is open (CsvEscape quotes a cell that holds a
/// newline). Reads the file in large blocks and finds line ends and quotes
/// with memchr. Scan and NumRows both read through it, so they agree on
/// what a record is.
class RecordReader {
 public:
  explicit RecordReader(const std::string& path)
      : in_(path, std::ios::binary) {}

  bool is_open() const { return in_.is_open(); }

  /// Number of lines consumed so far.
  size_t line_no() const { return line_no_; }

  /// Reads the next record, without its final newline, into `*record`.
  /// False at end of file.
  bool Next(std::string* record) {
    record->clear();
    bool read_any = false;
    bool quoted = false;
    while (pos_ < end_ || Fill()) {
      read_any = true;
      const char* begin = block_.data() + pos_;
      const char* stop = block_.data() + end_;
      const char* newline = static_cast<const char*>(
          std::memchr(begin, '\n', static_cast<size_t>(stop - begin)));
      const char* line_end = newline == nullptr ? stop : newline;
      // Every quote toggles CsvDecodeLine's quoted state, except a doubled
      // quote inside a quoted cell, which toggles it twice.
      for (const char* q = begin;
           (q = static_cast<const char*>(std::memchr(
                q, '"', static_cast<size_t>(line_end - q)))) != nullptr;
           ++q) {
        quoted = !quoted;
      }
      record->append(begin, line_end);
      pos_ = static_cast<size_t>(line_end - block_.data());
      if (newline == nullptr) continue;  // the line goes on in the next block
      ++pos_;
      ++line_no_;
      if (!quoted) return true;
      record->push_back('\n');
    }
    if (read_any) ++line_no_;  // a last line without a newline
    return read_any;
  }

 private:
  bool Fill() {
    in_.read(block_.data(), static_cast<std::streamsize>(block_.size()));
    pos_ = 0;
    end_ = static_cast<size_t>(in_.gcount());
    return end_ > 0;
  }

  std::ifstream in_;
  std::vector<char> block_ = std::vector<char>(size_t{1} << 16);
  size_t pos_ = 0;
  size_t end_ = 0;
  size_t line_no_ = 0;
};

/// True when `record` holds a row of a `width`-column schema. Append
/// writes a one-column row holding NULL or "" as an empty line; a wider
/// row always holds a comma, so an empty record there is a blank line.
/// Scan and NumRows both count rows by this rule.
bool IsRowRecord(const std::string& record, size_t width) {
  return !record.empty() || width == 1;
}

}  // namespace

Result<std::shared_ptr<FlatFile>> FlatFile::Open(std::string name,
                                                 Schema schema,
                                                 std::string path,
                                                 bool sync_every_append) {
  auto file = std::shared_ptr<FlatFile>(
      new FlatFile(std::move(name), std::move(schema), std::move(path),
                   sync_every_append));
  if (!std::filesystem::exists(file->path_)) {
    QOX_RETURN_IF_ERROR(file->WriteHeader());
  }
  return file;
}

Status FlatFile::WriteHeader() {
  std::ofstream out(path_, std::ios::trunc);
  if (!out) return Status::IoError("cannot create file '" + path_ + "'");
  std::vector<std::string> names;
  names.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) names.push_back(f.name);
  out << CsvEncodeLine(names) << "\n";
  out.flush();
  if (!out) return Status::IoError("cannot write header to '" + path_ + "'");
  out.close();
  if (out.fail()) {
    return Status::IoError("close after writing header to '" + path_ +
                           "' failed");
  }
  return Status::OK();
}

Result<size_t> FlatFile::NumRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  RecordReader reader(path_);
  if (!reader.is_open()) {
    return Status::IoError("cannot open file '" + path_ + "'");
  }
  std::string record;
  if (!reader.Next(&record)) return 0;  // empty file: no header
  size_t rows = 0;
  while (reader.Next(&record)) {
    if (IsRowRecord(record, schema_.num_fields())) ++rows;
  }
  return rows;
}

Status FlatFile::Scan(
    size_t batch_size,
    const std::function<Status(RowBatch&)>& consumer) const {
  if (batch_size == 0) return Status::Invalid("batch_size must be > 0");
  std::lock_guard<std::mutex> lock(mu_);
  RecordReader reader(path_);
  if (!reader.is_open()) {
    return Status::IoError("cannot open file '" + path_ + "'");
  }
  std::string record;
  if (!reader.Next(&record)) return Status::OK();  // empty file: no header
  const size_t width = schema_.num_fields();
  RowBatch batch(schema_);
  batch.Reserve(batch_size);
  // Reused for every record, so decoding allocates no cell strings.
  std::vector<std::string> cells;
  while (true) {
    const size_t first_line = reader.line_no() + 1;
    if (!reader.Next(&record)) break;
    if (!IsRowRecord(record, width)) continue;
    CsvDecodeLine(record, &cells);
    if (cells.size() != width) {
      return Status::Invalid("file '" + path_ + "' line " +
                             std::to_string(first_line) + ": expected " +
                             std::to_string(width) + " cells, got " +
                             std::to_string(cells.size()));
    }
    std::vector<Value> values;
    values.reserve(width);
    for (size_t i = 0; i < width; ++i) {
      QOX_ASSIGN_OR_RETURN(Value v,
                           Value::Parse(cells[i], schema_.field(i).type));
      values.push_back(std::move(v));
    }
    batch.Append(Row(std::move(values)));
    if (batch.num_rows() >= batch_size) {
      QOX_RETURN_IF_ERROR(consumer(batch));
      // The consumer may have moved the rows (and their storage) out.
      batch.Clear();
      batch.Reserve(batch_size);
    }
  }
  if (!batch.empty()) QOX_RETURN_IF_ERROR(consumer(batch));
  return Status::OK();
}

Status FlatFile::Append(const RowBatch& batch) {
  if (batch.schema() != schema_) {
    return Status::Invalid("append to '" + name_ + "': schema mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  QOX_CRASH_POINT("flat.append");
  // fd-based writes so every byte, the fsync, and the close are actually
  // checked — an ofstream append used to swallow short writes and never
  // synced despite sync_every_append.
  const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path_ + "' for append: " +
                           std::strerror(errno));
  }
  // Two blobs split at the historical mid-batch row boundary, keeping the
  // torn-batch crash site: a kill between them leaves a durable prefix of
  // the batch — the case the executor's durable-prefix resync must absorb.
  const size_t half_rows = (batch.num_rows() + 1) / 2;
  std::string first_half;
  std::string second_half;
  size_t written = 0;
  for (const Row& row : batch.rows()) {
    std::vector<std::string> cells;
    cells.reserve(row.num_values());
    for (const Value& v : row.values()) cells.push_back(v.ToString());
    std::string& blob = written < half_rows ? first_half : second_half;
    blob += CsvEncodeLine(cells);
    blob += '\n';
    ++written;
  }
  Status st = WriteAllBytes(fd, first_half, path_);
  if (st.ok() && !batch.empty()) QOX_CRASH_POINT("flat.mid_append");
  if (st.ok()) st = WriteAllBytes(fd, second_half, path_);
  if (st.ok() && sync_every_append_ && ::fsync(fd) != 0) {
    st = Status::IoError("fsync of '" + path_ +
                         "' failed: " + std::strerror(errno));
  }
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IoError("close of '" + path_ +
                         "' failed: " + std::strerror(errno));
  }
  QOX_RETURN_IF_ERROR(st);
  QOX_CRASH_POINT("flat.appended");
  bytes_written_ += first_half.size() + second_half.size();
  return Status::OK();
}

Status FlatFile::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  return WriteHeader();
}

size_t FlatFile::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

}  // namespace qox
