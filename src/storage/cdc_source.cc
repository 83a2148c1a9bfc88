#include "storage/cdc_source.h"

#include <cmath>

#include "common/row.h"
#include "common/schema.h"

namespace qox {

namespace {

/// SplitMix64 finalizer: the stream's whole content hangs off this mix, so
/// it must scramble consecutive offsets into independent-looking draws.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr size_t kNumCategories = 8;

}  // namespace

Schema CdcSchema() {
  return Schema({{"key", DataType::kInt64, false},
                 {"version", DataType::kInt64, false},
                 {"amount", DataType::kDouble, true},
                 {"category", DataType::kString, false}});
}

size_t CdcShardOf(int64_t key, size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<size_t>(Mix(static_cast<uint64_t>(key) ^
                                 0x5bf03635f0a5a6d3ULL) %
                             shards);
}

CdcSource::CdcSource(CdcStreamSpec spec, std::string name)
    : spec_(spec), name_(std::move(name)), schema_(CdcSchema()) {}

Row CdcSource::EventAt(size_t offset) const {
  const uint64_t h = Mix(spec_.seed ^ (0x9e3779b97f4a7c15ULL *
                                       static_cast<uint64_t>(offset + 1)));
  const int64_t key =
      static_cast<int64_t>(h % (spec_.num_keys == 0 ? 1 : spec_.num_keys));
  const uint64_t h2 = Mix(h ^ 0xd1b54a32d192ed03ULL);
  const bool null_amount =
      static_cast<double>(h2 % 10000) < spec_.null_amount_fraction * 10000.0;
  Row row;
  row.Append(Value::Int64(key));
  row.Append(Value::Int64(static_cast<int64_t>(offset + 1)));
  row.Append(null_amount
                 ? Value::Null()
                 : Value::Double(static_cast<double>(h2 % 100000) / 100.0));
  row.Append(Value::String(
      "c" + std::to_string(Mix(h2 ^ 0x8cb92ba72f3d8dd7ULL) % kNumCategories)));
  return row;
}

Result<size_t> CdcSource::NumRows() const { return spec_.total_events; }

Status CdcSource::Scan(size_t batch_size, const FanOut& /*fan_out*/,
                       const Consumer& consumer) const {
  if (batch_size == 0) return Status::Invalid("batch_size must be > 0");
  RowBatch batch(schema_);
  batch.Reserve(batch_size);
  for (size_t i = 0; i < spec_.total_events; ++i) {
    batch.Append(EventAt(i));
    if (batch.num_rows() >= batch_size) {
      QOX_RETURN_IF_ERROR(consumer(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) QOX_RETURN_IF_ERROR(consumer(batch));
  return Status::OK();
}

Status CdcSource::Append(const RowBatch&) {
  return Status::Invalid("CdcSource '" + name_ + "' is read-only");
}

Status CdcSource::Truncate() {
  return Status::Invalid("CdcSource '" + name_ + "' is read-only");
}

std::string CdcSource::ContentVersion() const {
  return "cdc:" + std::to_string(spec_.seed) + ":" +
         std::to_string(spec_.num_keys) + ":" +
         std::to_string(spec_.total_events);
}

CdcShardView::CdcShardView(CdcSourcePtr source, size_t shard, size_t shards,
                           size_t begin, size_t end)
    : source_(std::move(source)),
      shard_(shard),
      shards_(shards == 0 ? 1 : shards),
      begin_(begin),
      end_(end),
      name_(source_->name() + ".s" + std::to_string(shard) + "[" +
            std::to_string(begin) + "," + std::to_string(end) + ")") {}

const Schema& CdcShardView::schema() const { return source_->schema(); }

Result<size_t> CdcShardView::NumRows() const {
  size_t count = 0;
  for (size_t i = begin_; i < end_; ++i) {
    const Row row = source_->EventAt(i);
    if (CdcShardOf(row.value(0).int64_value(), shards_) == shard_) ++count;
  }
  return count;
}

Status CdcShardView::Scan(size_t batch_size, const FanOut& /*fan_out*/,
                          const Consumer& consumer) const {
  if (batch_size == 0) return Status::Invalid("batch_size must be > 0");
  RowBatch batch(source_->schema());
  batch.Reserve(batch_size);
  for (size_t i = begin_; i < end_; ++i) {
    Row row = source_->EventAt(i);
    if (CdcShardOf(row.value(0).int64_value(), shards_) != shard_) continue;
    batch.Append(std::move(row));
    if (batch.num_rows() >= batch_size) {
      QOX_RETURN_IF_ERROR(consumer(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) QOX_RETURN_IF_ERROR(consumer(batch));
  return Status::OK();
}

Status CdcShardView::Append(const RowBatch&) {
  return Status::Invalid("CdcShardView '" + name_ + "' is read-only");
}

Status CdcShardView::Truncate() {
  return Status::Invalid("CdcShardView '" + name_ + "' is read-only");
}

std::string CdcShardView::ContentVersion() const {
  return source_->ContentVersion() + ":s" + std::to_string(shard_) + "/" +
         std::to_string(shards_) + ":" + std::to_string(begin_) + "-" +
         std::to_string(end_);
}

}  // namespace qox
