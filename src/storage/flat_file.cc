#include "storage/flat_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <vector>

#include "common/crash_point.h"
#include "common/strings.h"
#include "storage/record_io.h"

namespace qox {
namespace {

/// True when `record` holds a row of a `width`-column schema. Append
/// writes a one-column row holding NULL or "" as an empty line; a wider
/// row always holds a comma, so an empty record there is a blank line.
/// Scan and NumRows both count rows by this rule.
bool IsRowRecord(const std::string& record, size_t width) {
  return !record.empty() || width == 1;
}

/// Batches Scan splits ahead and decodes in one fan-out: twice a 4-worker
/// pool, and small enough that a large file is never held twice.
constexpr size_t kWindowMorsels = 8;

/// The records of one batch: split serially in file order, then decoded
/// by one fan-out call.
struct Morsel {
  std::string text;           // the records back to back
  std::vector<size_t> ends;   // where each record ends in `text`
  std::vector<size_t> lines;  // the line each record starts on
  RowBatch rows;
  Status status = Status::OK();
};

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
  std::vector<std::string> names;
  names.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) names.push_back(f.name);
  return WriteFile(path_, CsvEncodeLine(names) + "\n", /*sync=*/false);
}

Result<size_t> FlatFile::NumRows() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
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

Status FlatFile::Scan(size_t batch_size, const FanOut& fan_out,
                      const Consumer& consumer) const {
  if (batch_size == 0) return Status::Invalid("batch_size must be > 0");
  std::shared_lock<std::shared_mutex> lock(mu_);
  RecordReader reader(path_);
  if (!reader.is_open()) {
    return Status::IoError("cannot open file '" + path_ + "'");
  }
  std::string record;
  if (!reader.Next(&record)) return Status::OK();  // empty file: no header
  const size_t width = schema_.num_fields();
  const SchemaPtr schema = MakeSchemaPtr(schema_);
  std::vector<Morsel> window(kWindowMorsels);
  bool more = true;
  while (more) {
    size_t filled = 0;
    while (more && filled < window.size()) {
      Morsel& morsel = window[filled];
      morsel.text.clear();
      morsel.ends.clear();
      morsel.lines.clear();
      while (morsel.ends.size() < batch_size) {
        const size_t first_line = reader.line_no() + 1;
        if (!reader.Next(&record)) {
          more = false;
          break;
        }
        if (!IsRowRecord(record, width)) continue;
        morsel.text += record;
        morsel.ends.push_back(morsel.text.size());
        morsel.lines.push_back(first_line);
      }
      if (!morsel.ends.empty()) ++filled;
    }
    fan_out(filled, [&](size_t i) {
      Morsel& morsel = window[i];
      morsel.rows = RowBatch(schema);
      morsel.rows.Reserve(morsel.ends.size());
      morsel.status = Status::OK();
      // Reused for every record, so decoding allocates no cell strings.
      std::vector<std::string> cells;
      const std::string_view text = morsel.text;
      size_t begin = 0;
      for (size_t r = 0; r < morsel.ends.size(); ++r) {
        Result<Row> row = ParseRow(text.substr(begin, morsel.ends[r] - begin),
                                   schema_, &cells);
        if (!row.ok()) {
          morsel.status = Status::Invalid(
              "file '" + path_ + "' line " +
              std::to_string(morsel.lines[r]) + ": " + row.status().message());
          return;
        }
        morsel.rows.Append(row.TakeValue());
        begin = morsel.ends[r];
      }
    });
    for (size_t i = 0; i < filled; ++i) {
      QOX_RETURN_IF_ERROR(window[i].status);
      QOX_RETURN_IF_ERROR(consumer(window[i].rows));
    }
  }
  return Status::OK();
}

Status FlatFile::Append(const RowBatch& batch) {
  if (batch.schema() != schema_) {
    return Status::Invalid("append to '" + name_ + "': schema mismatch");
  }
  std::lock_guard<std::shared_mutex> lock(mu_);
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
    std::string& blob = written < half_rows ? first_half : second_half;
    AppendRow(row, &blob);
    blob += '\n';
    ++written;
  }
  Status st = WriteAll(fd, first_half, path_);
  if (st.ok() && !batch.empty()) QOX_CRASH_POINT("flat.mid_append");
  if (st.ok()) st = WriteAll(fd, second_half, path_);
  if (st.ok() && sync_every_append_) st = SyncFd(fd, path_);
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
  std::lock_guard<std::shared_mutex> lock(mu_);
  return WriteHeader();
}

size_t FlatFile::bytes_written() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return bytes_written_;
}

}  // namespace qox
