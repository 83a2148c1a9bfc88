#include "storage/dead_letter_store.h"

#include <algorithm>
#include <set>

#include "common/crash_point.h"
#include "common/strings.h"
#include "storage/mem_table.h"
#include "storage/record_io.h"

namespace qox {
namespace {

/// The checksummed serialization of a record: every field, in schema
/// order, CSV-encoded into one line.
std::string ChecksumInput(const QuarantineRecord& r) {
  return CsvEncodeLine({r.flow_id, std::to_string(r.node_id),
                        std::to_string(r.op_index), r.op_name,
                        std::to_string(r.instance), std::to_string(r.attempt),
                        std::to_string(r.row_index), r.status_code,
                        r.status_message, r.payload});
}

/// The checksum of `r` when the record before it has checksum `previous`
/// (0 for the first record): FNV-1a seeded with the previous checksum, so
/// the checksums chain the records in order.
int64_t ChecksumOf(const QuarantineRecord& r, int64_t previous) {
  const std::string input = ChecksumInput(r);
  return static_cast<int64_t>(Fnv1a64(input.data(), input.size(),
                                      static_cast<uint64_t>(previous)));
}

/// Bytes a record counts against the ledger cap: its checksummed
/// serialization (stable across backends, unlike on-disk size).
size_t RecordBytes(const QuarantineRecord& r) {
  return ChecksumInput(r).size();
}

/// The ledger row for a record whose checksum is `checksum`.
Row EncodeRecordRow(const QuarantineRecord& record, int64_t checksum) {
  Row row;
  row.Append(Value::String(record.flow_id));
  row.Append(Value::Int64(record.node_id));
  row.Append(Value::Int64(record.op_index));
  row.Append(Value::String(record.op_name));
  row.Append(Value::Int64(record.instance));
  row.Append(Value::Int64(record.attempt));
  row.Append(Value::Int64(record.row_index));
  row.Append(Value::String(record.status_code));
  row.Append(Value::String(record.status_message));
  row.Append(Value::String(record.payload));
  row.Append(Value::Int64(checksum));
  return row;
}

/// A ledger's records and the checksum of its last (0 when empty).
struct Ledger {
  std::vector<QuarantineRecord> records;
  int64_t last_checksum = 0;
};

/// Decodes a whole ledger batch and verifies its checksum chain. A ledger
/// kept in a line file reads an empty text cell back as NULL, so a NULL
/// text cell decodes as ""; any other cell not of its column's type is
/// corrupted.
Result<Ledger> DecodeLedger(const RowBatch& all) {
  const size_t width = DeadLetterStoreSchema().num_fields();
  Ledger ledger;
  std::vector<QuarantineRecord>& records = ledger.records;
  records.reserve(all.num_rows());
  for (size_t i = 0; i < all.num_rows(); ++i) {
    const Row& row = all.row(i);
    const std::string record = "dead-letter record " + std::to_string(i);
    if (row.num_values() != width) {
      return Status::CorruptedData(record + " has wrong arity");
    }
    bool typed = true;
    const auto text = [&](size_t c) -> std::string {
      const Value& v = row.value(c);
      if (v.is_string()) return v.string_value();
      typed = typed && v.is_null();
      return "";
    };
    const auto number = [&](size_t c) -> int64_t {
      const Value& v = row.value(c);
      if (v.is_int64()) return v.int64_value();
      typed = false;
      return 0;
    };
    QuarantineRecord r;
    r.flow_id = text(0);
    r.node_id = number(1);
    r.op_index = number(2);
    r.op_name = text(3);
    r.instance = number(4);
    r.attempt = number(5);
    r.row_index = number(6);
    r.status_code = text(7);
    r.status_message = text(8);
    r.payload = text(9);
    const int64_t checksum = number(10);
    if (!typed) {
      return Status::CorruptedData(record + " has a cell of the wrong type");
    }
    if (checksum != ChecksumOf(r, ledger.last_checksum)) {
      return Status::CorruptedData(record + " (op '" + r.op_name +
                                   "') failed checksum verification");
    }
    ledger.last_checksum = checksum;
    records.push_back(std::move(r));
  }
  return ledger;
}

/// Reads and decodes the whole ledger in `inner`. A row the inner store
/// cannot parse under DeadLetterStoreSchema is corrupted data as well.
Result<Ledger> ReadLedger(const DataStore& inner) {
  Result<RowBatch> all = inner.ReadAll();
  if (all.status().code() == StatusCode::kInvalidArgument) {
    return Status::CorruptedData("dead-letter ledger '" + inner.name() +
                                 "': " + all.status().message());
  }
  QOX_RETURN_IF_ERROR(all.status());
  return DecodeLedger(all.value());
}

}  // namespace

const char* DeadLetterOverflowPolicyName(DeadLetterOverflowPolicy policy) {
  switch (policy) {
    case DeadLetterOverflowPolicy::kEvictOldest:
      return "evict_oldest";
    case DeadLetterOverflowPolicy::kAbort:
      return "abort";
  }
  return "unknown";
}

Schema DeadLetterStoreSchema() {
  return Schema({{"flow_id", DataType::kString, false},
                 {"node_id", DataType::kInt64, false},
                 {"op_index", DataType::kInt64, false},
                 {"op_name", DataType::kString, false},
                 {"instance", DataType::kInt64, false},
                 {"attempt", DataType::kInt64, false},
                 {"row_index", DataType::kInt64, false},
                 {"status_code", DataType::kString, false},
                 {"status_message", DataType::kString, false},
                 {"payload", DataType::kString, false},
                 {"checksum", DataType::kInt64, false}});
}

std::string EncodeQuarantinePayload(const Row& row, const Schema& schema) {
  std::string payload;
  AppendTaggedRow(row, schema, &payload);
  return payload;
}

Result<Row> DecodeQuarantinePayload(const std::string& payload,
                                    const Schema& schema) {
  std::vector<std::string> cells;
  Result<Row> row = ParseTaggedRow(payload, schema, &cells);
  if (!row.ok()) {
    return Status::CorruptedData("quarantine payload: " +
                                 row.status().message());
  }
  return row;
}

std::vector<std::string> CanonicalLedger(
    const std::vector<QuarantineRecord>& records) {
  std::set<std::string> lines;
  for (const QuarantineRecord& r : records) {
    lines.insert(CsvEncodeLine({std::to_string(r.op_index), r.op_name,
                                r.status_code, r.payload}));
  }
  return std::vector<std::string>(lines.begin(), lines.end());
}

Result<std::shared_ptr<DeadLetterStore>> DeadLetterStore::Wrap(
    DataStorePtr inner) {
  return Wrap(std::move(inner), DeadLetterCap{});
}

Result<std::shared_ptr<DeadLetterStore>> DeadLetterStore::Wrap(
    DataStorePtr inner, DeadLetterCap cap) {
  if (inner == nullptr) {
    return Status::Invalid("DeadLetterStore requires a non-null inner store");
  }
  if (inner->schema() != DeadLetterStoreSchema()) {
    return Status::Invalid("dead-letter inner store '" + inner->name() +
                           "' does not carry DeadLetterStoreSchema()");
  }
  return std::shared_ptr<DeadLetterStore>(
      new DeadLetterStore(std::move(inner), cap));
}

std::shared_ptr<DeadLetterStore> DeadLetterStore::InMemory(
    const std::string& name) {
  return InMemory(name, DeadLetterCap{});
}

std::shared_ptr<DeadLetterStore> DeadLetterStore::InMemory(
    const std::string& name, DeadLetterCap cap) {
  return std::shared_ptr<DeadLetterStore>(new DeadLetterStore(
      std::make_shared<MemTable>(name, DeadLetterStoreSchema()), cap));
}

Status DeadLetterStore::Quarantine(const QuarantineRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!initialized_) {
    // A pre-existing ledger's records continue its checksum chain and
    // count against the cap.
    QOX_ASSIGN_OR_RETURN(const Ledger existing, ReadLedger(*inner_));
    last_checksum_ = existing.last_checksum;
    if (cap_.max_bytes > 0) {
      for (const QuarantineRecord& r : existing.records) {
        bytes_used_ += RecordBytes(r);
      }
    }
    initialized_ = true;
  }
  if (cap_.max_bytes > 0) {
    const size_t incoming = RecordBytes(record);
    if (bytes_used_ + incoming > cap_.max_bytes) {
      if (cap_.policy == DeadLetterOverflowPolicy::kAbort) {
        return Status::ResourceExhausted(
            "dead-letter ledger '" + inner_->name() + "' full: " +
            std::to_string(bytes_used_) + " + " + std::to_string(incoming) +
            " bytes exceeds cap of " + std::to_string(cap_.max_bytes));
      }
      QOX_RETURN_IF_ERROR(EvictForLocked(incoming));
    }
    bytes_used_ += incoming;
  }
  const int64_t checksum = ChecksumOf(record, last_checksum_);
  RowBatch batch(DeadLetterStoreSchema());
  batch.Append(EncodeRecordRow(record, checksum));
  QOX_CRASH_POINT("dlq.quarantine");
  QOX_RETURN_IF_ERROR(inner_->Append(batch));
  last_checksum_ = checksum;
  return Status::OK();
}

Status DeadLetterStore::EvictForLocked(size_t incoming_bytes) {
  if (incoming_bytes > cap_.max_bytes) {
    return Status::ResourceExhausted(
        "dead-letter record of " + std::to_string(incoming_bytes) +
        " bytes cannot fit cap of " + std::to_string(cap_.max_bytes) +
        " even with an empty ledger");
  }
  QOX_ASSIGN_OR_RETURN(Ledger ledger, ReadLedger(*inner_));
  std::vector<QuarantineRecord>& records = ledger.records;
  size_t total = 0;
  for (const QuarantineRecord& r : records) total += RecordBytes(r);
  // Evict whole attempt-groups, oldest first, until the new record fits.
  // A half-evicted attempt would make that attempt's replay silently
  // partial, which is worse than losing the attempt outright.
  while (!records.empty() && total + incoming_bytes > cap_.max_bytes) {
    int64_t oldest = records.front().attempt;
    for (const QuarantineRecord& r : records) {
      if (r.attempt < oldest) oldest = r.attempt;
    }
    std::vector<QuarantineRecord> keep;
    keep.reserve(records.size());
    for (QuarantineRecord& r : records) {
      if (r.attempt == oldest) {
        total -= RecordBytes(r);
      } else {
        keep.push_back(std::move(r));
      }
    }
    records = std::move(keep);
    ++groups_evicted_;
  }
  // The survivors start a new checksum chain.
  RowBatch survivors(DeadLetterStoreSchema());
  survivors.Reserve(records.size());
  int64_t checksum = 0;
  for (const QuarantineRecord& r : records) {
    checksum = ChecksumOf(r, checksum);
    survivors.Append(EncodeRecordRow(r, checksum));
  }
  QOX_RETURN_IF_ERROR(inner_->Truncate());
  last_checksum_ = 0;
  if (!survivors.empty()) {
    QOX_RETURN_IF_ERROR(inner_->Append(survivors));
  }
  last_checksum_ = checksum;
  bytes_used_ = total;
  return Status::OK();
}

size_t DeadLetterStore::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_used_;
}

size_t DeadLetterStore::groups_evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return groups_evicted_;
}

Result<std::vector<QuarantineRecord>> DeadLetterStore::ReadAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  QOX_ASSIGN_OR_RETURN(Ledger ledger, ReadLedger(*inner_));
  return std::move(ledger.records);
}

Result<size_t> DeadLetterStore::NumRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner_->NumRows();
}

}  // namespace qox
