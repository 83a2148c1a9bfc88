// Decoder mutation sweep over the record codec's checksummed files: a
// spill run, a recovery point (data file and commit marker), a journal
// segment, a dead-letter ledger kept in a flat file and a lease, each
// holding quotes, commas, newlines, NULLs, empty strings and boxed cells
// (a runtime type other than the column's) where it can, are read back
// after one seeded edit — a flipped bit, a CSV-special byte written over or
// inserted, a deleted byte, a truncation, or a whole record deleted. Each
// unedited file reads back what was written, cell types included. The
// contract: a spill run or recovery point reads back exactly the rows
// written or fails with kCorruptedData (Adopt may instead decline the
// point), a journal opens to a prefix of the records written, a ledger
// reads back a prefix of the records written or fails with kCorruptedData
// (its checksums chain the records, so only a cut of whole records at the
// end reads back short), and a lease names its writer's pid or is
// kCorruptedData.
// The same edits run over an exported design's plan XML (a line counts as
// a record), which carries no checksum: it must fail with kInvalidArgument
// or parse to a design that re-exports and re-parses to itself.
// Nothing may crash or trip a sanitizer. A violation names its seed and
// edit.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/plan_io.h"
#include "storage/dead_letter_store.h"
#include "storage/flat_file.h"
#include "storage/journal_file.h"
#include "storage/lease_file.h"
#include "storage/recovery_store.h"
#include "storage/spill_manager.h"
#include "test_util.h"

namespace qox {
namespace {

constexpr int kSeeds = 2000;

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"text", DataType::kString, true},
                 {"amount", DataType::kDouble, true}});
}

std::vector<Row> TestRows() {
  const char* texts[] = {"plain", "with,comma", "with \"quote\"",
                         "two\nlines", "\"\n,\r\n\"", nullptr, ""};
  std::vector<Row> rows;
  for (int64_t i = 0; i < 12; ++i) {
    const char* text = texts[i % 7];
    Value amount = i % 4 == 3 ? Value::Null() : Value::Double(i * 0.5);
    if (i % 5 == 2) amount = Value::String(i == 2 ? "" : "n/a");  // boxed
    if (i % 5 == 4) amount = Value::Int64(i);                     // boxed
    rows.push_back(Row({Value::Int64(i),
                        i == 8    ? Value::Int64(i)  // boxed
                        : text == nullptr ? Value::Null()
                                          : Value::String(text),
                        amount}));
  }
  return rows;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string Printable(char c) {
  switch (c) {
    case '\n':
      return "\\n";
    case '\r':
      return "\\r";
    case '\0':
      return "\\0";
    default:
      return std::string(1, c);
  }
}

struct Mutation {
  std::string bytes;
  std::string edit;  // what was done, for the failure message
};

/// One seeded edit of `clean`, whose records end at `record_ends`.
Mutation Mutate(const std::string& clean,
                const std::vector<size_t>& record_ends, Rng& rng) {
  static constexpr char kSpecials[] = {'"', ',', '\n', '\r',
                                       '0', '9', 'a', '\0'};
  Mutation m{clean, ""};
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1));
  };
  const int64_t kind = clean.empty() ? 2 : rng.Uniform(0, 5);
  if (kind == 0) {
    const size_t at = pick(clean.size());
    const int bit = static_cast<int>(rng.Uniform(0, 7));
    m.bytes[at] = static_cast<char>(m.bytes[at] ^ (1 << bit));
    m.edit = "flip bit " + std::to_string(bit) + " of byte " +
             std::to_string(at);
  } else if (kind == 1) {
    const size_t at = pick(clean.size());
    const char c = kSpecials[pick(sizeof(kSpecials))];
    m.bytes[at] = c;
    m.edit = "overwrite byte " + std::to_string(at) + " with '" +
             Printable(c) + "'";
  } else if (kind == 2) {
    const size_t at = pick(clean.size() + 1);
    const char c = kSpecials[pick(sizeof(kSpecials))];
    m.bytes.insert(m.bytes.begin() + static_cast<std::ptrdiff_t>(at), c);
    m.edit = "insert '" + Printable(c) + "' at " + std::to_string(at);
  } else if (kind == 3) {
    const size_t at = pick(clean.size());
    m.bytes.erase(at, 1);
    m.edit = "delete byte " + std::to_string(at);
  } else if (kind == 4) {
    const size_t len = pick(clean.size());
    m.bytes.resize(len);
    m.edit = "truncate to " + std::to_string(len) + " bytes";
  } else {
    const size_t k = pick(record_ends.size());
    const size_t begin = k == 0 ? 0 : record_ends[k - 1];
    m.bytes.erase(begin, record_ends[k] - begin);
    m.edit = "delete record " + std::to_string(k);
  }
  return m;
}

class DecoderMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/decoder_mutation_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(DecoderMutationTest, SpillRunReadsBackItsRowsOrIsCorrupted) {
  const std::vector<Row> rows = TestRows();
  SpillManager manager(dir_ + "/spill");
  // Record ends from the writer: the size of a run of the first k rows.
  std::vector<size_t> ends;
  SpillFile clean_file;
  for (size_t k = 1; k <= rows.size(); ++k) {
    auto writer = manager.CreateRun("m", TestSchema()).value();
    for (size_t i = 0; i < k; ++i) ASSERT_TRUE(writer->Append(rows[i]).ok());
    clean_file = writer->Finalize().value();
    ends.push_back(clean_file.bytes);
  }
  const std::string clean = ReadFile(clean_file.path);
  ASSERT_EQ(clean.size(), ends.back());
  const auto read_run = [](const SpillFile& run) -> Result<std::vector<Row>> {
    SpillReader reader(run);
    std::vector<Row> read;
    while (true) {
      QOX_ASSIGN_OR_RETURN(std::optional<Row> next, reader.Next());
      if (!next.has_value()) return read;
      read.push_back(std::move(*next));
    }
  };
  // Unedited, the run reads back its rows, cell types included.
  const Result<std::vector<Row>> clean_rows = read_run(clean_file);
  ASSERT_TRUE(clean_rows.ok()) << clean_rows.status();
  ASSERT_EQ(clean_rows.value(), rows);
  ASSERT_EQ(testing_util::CellTypes(clean_rows.value()),
            testing_util::CellTypes(rows));

  SpillFile file = clean_file;
  file.path = dir_ + "/mutated.spill";
  size_t corrupted = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const Mutation m = Mutate(clean, ends, rng);
    WriteBytes(file.path, m.bytes);
    const Result<std::vector<Row>> read = read_run(file);
    if (!read.ok()) {
      ++corrupted;
      EXPECT_EQ(read.status().code(), StatusCode::kCorruptedData)
          << "seed " << seed << ", " << m.edit << ": " << read.status();
    } else {
      EXPECT_EQ(read.value(), rows)
          << "seed " << seed << ", " << m.edit << ": read back "
          << read.value().size() << " rows";
      EXPECT_EQ(testing_util::CellTypes(read.value()),
                testing_util::CellTypes(rows))
          << "seed " << seed << ", " << m.edit;
    }
  }
  EXPECT_GT(corrupted, static_cast<size_t>(kSeeds) / 2);
}

TEST_F(DecoderMutationTest, RecoveryPointReadsBackItsRowsOrIsCorrupted) {
  const std::vector<Row> rows = TestRows();
  const RecoveryPointId id{"flow", "cut"};
  auto writer = RecoveryPointStore::Open(dir_ + "/rp").value();
  // Record ends from the writer: the size of a point of the first k rows.
  std::vector<size_t> data_ends;
  for (size_t k = 1; k <= rows.size(); ++k) {
    ASSERT_TRUE(writer
                    ->Save(id, TestSchema(),
                           std::vector<Row>(rows.begin(), rows.begin() + k))
                    .ok());
    data_ends.push_back(writer->List().at(0).bytes);
  }
  std::string data_path;
  std::string marker_path;
  // Only the data file and its marker are in the store's directory.
  for (const auto& entry : std::filesystem::directory_iterator(writer->dir())) {
    const std::string path = entry.path().string();
    (path.ends_with(".commit") ? marker_path : data_path) = path;
  }
  ASSERT_FALSE(data_path.empty());
  ASSERT_FALSE(marker_path.empty());
  const std::string clean_data = ReadFile(data_path);
  const std::string clean_marker = ReadFile(marker_path);
  const std::vector<size_t> marker_ends{clean_marker.size()};
  ASSERT_EQ(clean_data.size(), data_ends.back());
  // Unedited, the point reads back its rows, cell types included.
  const Result<RowBatch> clean_rows = writer->Load(id, TestSchema());
  ASSERT_TRUE(clean_rows.ok()) << clean_rows.status();
  ASSERT_EQ(clean_rows.value().rows(), rows);
  ASSERT_EQ(testing_util::CellTypes(clean_rows.value().rows()),
            testing_util::CellTypes(rows));

  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const bool marker = rng.Uniform(0, 3) == 0;
    const Mutation m = marker ? Mutate(clean_marker, marker_ends, rng)
                              : Mutate(clean_data, data_ends, rng);
    const std::string where =
        "seed " + std::to_string(seed) + ", " + (marker ? "marker" : "data") +
        " " + m.edit;
    WriteBytes(data_path, marker ? clean_data : m.bytes);
    WriteBytes(marker_path, marker ? m.bytes : clean_marker);
    auto store = RecoveryPointStore::Open(dir_ + "/rp").value();
    const Result<bool> adopted = store->Adopt(id);
    ASSERT_TRUE(adopted.ok()) << where << ": " << adopted.status();
    if (!adopted.value()) continue;
    const Result<RowBatch> loaded = store->Load(id, TestSchema());
    if (loaded.ok()) {
      EXPECT_EQ(loaded.value().rows(), rows) << where;
      EXPECT_EQ(testing_util::CellTypes(loaded.value().rows()),
                testing_util::CellTypes(rows))
          << where;
    } else {
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptedData)
          << where << ": " << loaded.status();
    }
  }
}

TEST_F(DecoderMutationTest, JournalOpensToAPrefixOfItsRecords) {
  const std::string clean_path = dir_ + "/clean.journal";
  std::vector<JournalRecord> written;
  std::vector<size_t> ends;
  {
    auto journal = JournalFile::Open(clean_path, JournalSync::kNone).value();
    for (size_t i = 0; i < 10; ++i) {
      const std::vector<std::string> fields = {
          std::to_string(i), i % 3 == 0 ? "two\nlines, \"q\"" : "plain", "",
          i % 2 == 0 ? "a,b" : "\r\n"};
      ASSERT_TRUE(journal->Append("type" + std::to_string(i % 4), fields).ok());
      written.push_back(journal->records().back());
      ends.push_back(std::filesystem::file_size(clean_path));
    }
  }
  const std::string clean = ReadFile(clean_path);
  const std::string path = dir_ + "/mutated.journal";

  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const Mutation m = Mutate(clean, ends, rng);
    const std::string where = "seed " + std::to_string(seed) + ", " + m.edit;
    WriteBytes(path, m.bytes);
    const auto opened = JournalFile::Open(path, JournalSync::kNone);
    ASSERT_TRUE(opened.ok()) << where << ": " << opened.status();
    const std::vector<JournalRecord>& got = opened.value()->records();
    ASSERT_LE(got.size(), written.size()) << where;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].seq, written[i].seq) << where << ", record " << i;
      EXPECT_EQ(got[i].type, written[i].type) << where << ", record " << i;
      EXPECT_EQ(got[i].fields, written[i].fields)
          << where << ", record " << i;
    }
  }
}

std::vector<QuarantineRecord> LedgerRecords() {
  const std::vector<Row> rows = TestRows();
  std::vector<QuarantineRecord> records;
  for (size_t i = 0; i < 8; ++i) {
    QuarantineRecord r;
    r.flow_id = "flow";
    r.node_id = static_cast<int64_t>(i % 3);
    r.op_index = static_cast<int64_t>(i % 3) + 1;
    r.op_name = i % 2 == 0 ? "Flt_NN" : "Lkp,store";
    r.attempt = static_cast<int64_t>(i / 4) + 1;
    r.row_index = static_cast<int64_t>(i);
    r.status_code = "invalid_argument";
    // An empty message reads back from the flat file as NULL.
    r.status_message = i == 5 ? "" : "bad \"row\"\nat " + std::to_string(i);
    r.payload = EncodeQuarantinePayload(rows[i], TestSchema());
    records.push_back(std::move(r));
  }
  return records;
}

bool SameRecord(const QuarantineRecord& a, const QuarantineRecord& b) {
  return a.flow_id == b.flow_id && a.node_id == b.node_id &&
         a.op_index == b.op_index && a.op_name == b.op_name &&
         a.instance == b.instance && a.attempt == b.attempt &&
         a.row_index == b.row_index && a.status_code == b.status_code &&
         a.status_message == b.status_message && a.payload == b.payload;
}

Result<std::vector<QuarantineRecord>> ReadLedgerFile(const std::string& path) {
  QOX_ASSIGN_OR_RETURN(auto file,
                       FlatFile::Open("dlq", DeadLetterStoreSchema(), path));
  QOX_ASSIGN_OR_RETURN(auto ledger, DeadLetterStore::Wrap(file));
  return ledger->ReadAll();
}

TEST_F(DecoderMutationTest, EmptiedLedgerCellIsCorruptedData) {
  const std::string path = dir_ + "/ledger.csv";
  std::vector<size_t> ends;
  {
    auto ledger = DeadLetterStore::Wrap(FlatFile::Open("dlq",
                                                       DeadLetterStoreSchema(),
                                                       path)
                                            .value())
                      .value();
    ends.push_back(std::filesystem::file_size(path));
    for (const QuarantineRecord& r : LedgerRecords()) {
      ASSERT_TRUE(ledger->Quarantine(r).ok());
      ends.push_back(std::filesystem::file_size(path));
    }
  }
  const std::string clean = ReadFile(path);
  const Result<std::vector<QuarantineRecord>> read = ReadLedgerFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read.value().size(), LedgerRecords().size());
  // Record 2 starts "flow,<node_id>,": empty its flow_id, then its node_id.
  const size_t record = ends[2];
  ASSERT_EQ(clean.substr(record, 5), "flow,");
  for (const auto& [from, len] :
       std::vector<std::pair<size_t, size_t>>{{0, 4}, {5, 1}}) {
    std::string bytes = clean;
    bytes.erase(record + from, len);
    WriteBytes(path, bytes);
    const Result<std::vector<QuarantineRecord>> emptied = ReadLedgerFile(path);
    ASSERT_FALSE(emptied.ok());
    EXPECT_EQ(emptied.status().code(), StatusCode::kCorruptedData)
        << emptied.status();
    EXPECT_NE(emptied.status().message().find("dead-letter record 2"),
              std::string::npos)
        << emptied.status();
  }
}

TEST_F(DecoderMutationTest, LedgerReadsBackItsRecordsOrIsCorrupted) {
  const std::vector<QuarantineRecord> written = LedgerRecords();
  // Each payload decodes to its row, cell types included.
  const std::vector<Row> rows = TestRows();
  for (size_t i = 0; i < written.size(); ++i) {
    const Result<Row> row =
        DecodeQuarantinePayload(written[i].payload, TestSchema());
    ASSERT_TRUE(row.ok()) << "record " << i << ": " << row.status();
    ASSERT_EQ(row.value(), rows[i]) << "record " << i;
    ASSERT_EQ(testing_util::CellTypes({row.value()}),
              testing_util::CellTypes({rows[i]}))
        << "record " << i;
  }
  const std::string clean_path = dir_ + "/clean_ledger.csv";
  // Record ends from the writer; the header line counts as record 0.
  std::vector<size_t> ends;
  {
    auto ledger = DeadLetterStore::Wrap(FlatFile::Open("dlq",
                                                       DeadLetterStoreSchema(),
                                                       clean_path)
                                            .value())
                      .value();
    ends.push_back(std::filesystem::file_size(clean_path));
    for (const QuarantineRecord& r : written) {
      ASSERT_TRUE(ledger->Quarantine(r).ok());
      ends.push_back(std::filesystem::file_size(clean_path));
    }
  }
  const std::string clean = ReadFile(clean_path);
  const std::string path = dir_ + "/mutated_ledger.csv";
  size_t corrupted = 0;
  size_t short_reads = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const Mutation m = Mutate(clean, ends, rng);
    const std::string where = "seed " + std::to_string(seed) + ", " + m.edit;
    WriteBytes(path, m.bytes);
    const Result<std::vector<QuarantineRecord>> read = ReadLedgerFile(path);
    if (!read.ok()) {
      ++corrupted;
      EXPECT_EQ(read.status().code(), StatusCode::kCorruptedData)
          << where << ": " << read.status();
      continue;
    }
    const std::vector<QuarantineRecord>& got = read.value();
    ASSERT_LE(got.size(), written.size()) << where;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(SameRecord(got[i], written[i]))
          << where << ": record " << i << " is not the one written, op '"
          << got[i].op_name << "', message '" << got[i].status_message
          << "'";
    }
    if (got.size() < written.size()) ++short_reads;
  }
  EXPECT_GT(corrupted, static_cast<size_t>(kSeeds) / 2);
  std::cout << "[ledger] " << corrupted << " of " << kSeeds
            << " edits corrupted, " << short_reads
            << " read back a shorter prefix\n";
  RecordProperty("short_reads", static_cast<int>(short_reads));
}

TEST_F(DecoderMutationTest, LeaseNamesItsWriterOrIsCorrupted) {
  const std::string clean_path = dir_ + "/clean.lease";
  std::string clean;
  {
    auto lease = LeaseFile::Acquire(clean_path, "cdc").value();
    clean = ReadFile(clean_path);
  }
  ASSERT_EQ(LeaseFile::HolderPid(clean_path).status().code(),
            StatusCode::kNotFound);  // released
  const std::string path = dir_ + "/mutated.lease";
  WriteBytes(path, clean);
  ASSERT_EQ(LeaseFile::HolderPid(path).value(), ::getpid());
  size_t corrupted = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const Mutation m = Mutate(clean, {clean.size()}, rng);
    const std::string where = "seed " + std::to_string(seed) + ", " + m.edit;
    WriteBytes(path, m.bytes);
    const Result<pid_t> holder = LeaseFile::HolderPid(path);
    if (!holder.ok()) {
      ++corrupted;
      EXPECT_EQ(holder.status().code(), StatusCode::kCorruptedData)
          << where << ": " << holder.status();
      continue;
    }
    EXPECT_EQ(holder.value(), ::getpid()) << where << ": names another pid";
  }
  EXPECT_GT(corrupted, static_cast<size_t>(kSeeds) / 2);
}

/// An exported design that sets every element and optional attribute of
/// the plan XML.
std::string DesignXml() {
  const DataStorePtr source = testing_util::MakeSource(
      testing_util::SimpleSchema(), testing_util::SimpleRows(10), "src");
  std::vector<LogicalOp> ops;
  ops.push_back(MakeFilter("flt", {Predicate::NotNull("amount")}, 0.9));
  ops.push_back(MakeFunction(
      "fn", {ColumnTransform::Scale("scaled", "amount", 2.0),
             ColumnTransform::Drop("note")}));
  ops.push_back(MakeSort("srt", {{"id", false}}));
  const std::vector<Schema> schemas =
      BindLogicalChain(source->schema(), ops).value();
  PhysicalDesign design;
  design.flow = LogicalFlow("xml_flow", source, std::move(ops),
                            std::make_shared<MemTable>("tgt", schemas.back()));
  design.threads = 4;
  design.parallel.partitions = 4;
  design.parallel.scheme = PartitionScheme::kHash;
  design.parallel.hash_column = "id";
  design.parallel.range_end = 2;
  design.recovery_points = {0, 2};
  design.streaming = true;
  design.error_policies = {ErrorPolicy::kSkip, ErrorPolicy::kQuarantine};
  design.error_budget.max_rows = 5;
  design.error_budget.max_fraction = 0.25;
  design.journaled = true;
  design.journal_sync = JournalSync::kCommit;
  design.memory_budget_bytes = 65536;
  design.resource_policy = ResourcePolicy::kShedToQuarantine;
  design.sla_deadline_s = 1.5;
  design.cdc_shards = 4;
  design.cdc_update_rate_per_s = 200.0;
  return ExportDesignXml(SpecOf(design));
}

TEST_F(DecoderMutationTest, PlanXmlParsesToAFixpointOrIsRefused) {
  const std::string clean = DesignXml();
  ASSERT_TRUE(ParseDesignXml(clean).ok());
  std::vector<size_t> ends;  // one element per line
  for (size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] == '\n') ends.push_back(i + 1);
  }
  size_t refused = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const Mutation m = Mutate(clean, ends, rng);
    const std::string where = "seed " + std::to_string(seed) + ", " + m.edit;
    const Result<DesignSpec> parsed = ParseDesignXml(m.bytes);
    if (!parsed.ok()) {
      ++refused;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << where << ": " << parsed.status();
      continue;
    }
    const Result<DesignSpec> again =
        ParseDesignXml(ExportDesignXml(parsed.value()));
    ASSERT_TRUE(again.ok()) << where << ": " << again.status();
    EXPECT_TRUE(again.value() == parsed.value()) << where;
  }
  EXPECT_GT(refused, static_cast<size_t>(kSeeds) / 2);
}

}  // namespace
}  // namespace qox
