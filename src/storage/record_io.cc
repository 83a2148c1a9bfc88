#include "storage/record_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/strings.h"

namespace qox {

uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed) {
  uint64_t hash = seed != 0 ? seed : 0xcbf29ce484222325ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
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

Status SyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::IoError("fsync of '" + path +
                           "' failed: " + std::strerror(errno));
  }
  return Status::OK();
}

Status WriteFile(const std::string& path, std::string_view data, bool sync) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create '" + path +
                           "': " + std::strerror(errno));
  }
  Status st = WriteAll(fd, data, path);
  if (st.ok() && sync) st = SyncFd(fd, path);
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IoError("close of '" + path +
                         "' failed: " + std::strerror(errno));
  }
  return st;
}

void AppendSealed(std::string_view body, std::string* out) {
  out->append(body);
  out->push_back(',');
  out->append(std::to_string(Fnv1a64(body.data(), body.size())));
  out->push_back('\n');
}

std::optional<std::string_view> OpenSealed(std::string_view record) {
  const size_t comma = record.rfind(',');
  if (comma == std::string_view::npos) return std::nullopt;
  const char* first = record.data() + comma + 1;
  const char* last = record.data() + record.size();
  uint64_t stored = 0;
  const auto [ptr, ec] = std::from_chars(first, last, stored);
  if (first == last || ec != std::errc() || ptr != last) return std::nullopt;
  const std::string_view body = record.substr(0, comma);
  if (Fnv1a64(body.data(), body.size()) != stored) return std::nullopt;
  return body;
}

void AppendRow(const Row& row, std::string* out) {
  for (size_t i = 0; i < row.num_values(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(CsvEscape(row.value(i).ToString()));
  }
}

Result<Row> ParseRow(std::string_view record, const Schema& schema,
                     std::vector<std::string>* cells) {
  CsvDecodeLine(record, cells);
  const size_t width = schema.num_fields();
  if (cells->size() != width) {
    return Status::Invalid("expected " + std::to_string(width) +
                           " cells, got " + std::to_string(cells->size()));
  }
  std::vector<Value> values;
  values.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    QOX_ASSIGN_OR_RETURN(Value v,
                         Value::Parse((*cells)[i], schema.field(i).type));
    values.push_back(std::move(v));
  }
  return Row(std::move(values));
}

namespace {

/// The tag letter of a cell's runtime type (never NULL: the empty cell
/// parses as NULL under every declared type).
char TagLetter(DataType type) {
  switch (type) {
    case DataType::kBool:
      return 'b';
    case DataType::kInt64:
      return 'i';
    case DataType::kDouble:
      return 'd';
    case DataType::kString:
      return 's';
    case DataType::kTimestamp:
      return 't';
    case DataType::kNull:
      break;
  }
  return '?';
}

std::optional<DataType> TagType(char letter) {
  switch (letter) {
    case 'b':
      return DataType::kBool;
    case 'i':
      return DataType::kInt64;
    case 'd':
      return DataType::kDouble;
    case 's':
      return DataType::kString;
    case 't':
      return DataType::kTimestamp;
    default:
      return std::nullopt;
  }
}

/// Whether Value::Parse of the cell's text as `declared` would miss the
/// value: an empty string, or a cell of another runtime type.
bool NeedsTag(const Value& value, DataType declared) {
  if (value.is_null()) return false;
  if (value.is_string()) {
    return declared != DataType::kString || value.string_value().empty();
  }
  return value.type() != declared;
}

}  // namespace

void AppendTaggedRow(const Row& row, const Schema& schema, std::string* out) {
  std::string tags;
  for (size_t i = 0; i < row.num_values(); ++i) {
    const Value& value = row.value(i);
    out->append(CsvEscape(value.ToString()));
    out->push_back(',');
    const DataType declared =
        i < schema.num_fields() ? schema.field(i).type : DataType::kNull;
    if (NeedsTag(value, declared)) {
      tags += std::to_string(i);
      tags.push_back(TagLetter(value.type()));
    }
  }
  out->append(tags);
}

Result<Row> ParseTaggedRow(std::string_view record, const Schema& schema,
                           std::vector<std::string>* cells) {
  CsvDecodeLine(record, cells);
  const size_t width = schema.num_fields();
  if (cells->size() != width + 1) {
    return Status::Invalid("expected " + std::to_string(width) +
                           " cells and a tag cell, got " +
                           std::to_string(cells->size()) + " cells");
  }
  const std::string& tags = (*cells)[width];
  size_t cursor = 0;  // the next unread tag in `tags`
  std::vector<Value> values;
  values.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    DataType type = schema.field(i).type;
    bool tagged = false;
    if (cursor < tags.size()) {
      size_t position = 0;
      const char* first = tags.data() + cursor;
      const char* last = tags.data() + tags.size();
      const auto [ptr, ec] = std::from_chars(first, last, position);
      if (ec != std::errc() || ptr == first || ptr == last ||
          position < i || position >= width) {
        return Status::Invalid("malformed tag cell '" + tags + "'");
      }
      if (position == i) {
        const std::optional<DataType> tag_type = TagType(*ptr);
        if (!tag_type.has_value()) {
          return Status::Invalid("malformed tag cell '" + tags + "'");
        }
        type = *tag_type;
        tagged = true;
        cursor = static_cast<size_t>(ptr + 1 - tags.data());
      }
    }
    const std::string& cell = (*cells)[i];
    if (tagged && type == DataType::kString) {
      values.push_back(Value::String(cell));
      continue;
    }
    if (tagged && cell.empty()) {
      return Status::Invalid("tagged cell " + std::to_string(i) +
                             " is empty");
    }
    QOX_ASSIGN_OR_RETURN(Value v, Value::Parse(cell, type));
    values.push_back(std::move(v));
  }
  if (cursor != tags.size()) {
    return Status::Invalid("malformed tag cell '" + tags + "'");
  }
  return Row(std::move(values));
}

RecordReader::RecordReader(const std::string& path, size_t block_bytes)
    : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)), block_(block_bytes) {}

RecordReader::~RecordReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool RecordReader::Next(std::string* record) {
  record->clear();
  terminated_ = false;
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
    if (!quoted) {
      terminated_ = true;
      return true;
    }
    record->push_back('\n');
  }
  if (read_any) ++line_no_;  // a last line without a newline
  return read_any;
}

bool RecordReader::Fill() {
  block_offset_ += end_;
  pos_ = 0;
  end_ = 0;
  if (fd_ < 0) return false;
  ssize_t n = 0;
  do {
    n = ::read(fd_, block_.data(), block_.size());
  } while (n < 0 && errno == EINTR);
  // A read error ends the file like end of file does; the caller sees
  // the records before it, and a cut-off last one as unterminated.
  if (n > 0) end_ = static_cast<size_t>(n);
  return end_ > 0;
}

}  // namespace qox
