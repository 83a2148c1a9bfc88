// CdcSource: a deterministic change-data-capture update stream.
//
// Models the continuous update feed of a near-real-time warehouse (the
// DOD-ETL shape referenced by the ROADMAP's distributed mode): an
// unbounded sequence of update events, each assigning a new value to one
// business key. The stream here is synthetic and fully determined by a
// seed — event i is computed O(1) from (seed, i), so the stream is
// offset-addressable: any process incarnation can re-derive any window of
// it without coordination, which is what makes killed shard workers
// trivially replayable.
//
// Versions are GLOBAL sequence numbers (event i carries version i+1).
// Because a key's events appear at increasing offsets, per-key versions
// are strictly monotone — the invariant the warehouse's last-writer-wins
// fold and the coordinator's exactly-once accounting both lean on.
//
// CdcShardView restricts the stream to one hash shard over an offset
// window; it is the extract source of a shard worker's flow. Sharding is
// BY KEY (CdcShardOf), so one key's whole history lives on one shard and
// per-key version order survives the shard merge.

#ifndef QOX_STORAGE_CDC_SOURCE_H_
#define QOX_STORAGE_CDC_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/data_store.h"

namespace qox {

/// Everything that determines the stream's contents.
struct CdcStreamSpec {
  uint64_t seed = 1;
  /// Distinct business keys; events hash onto them (hot keys repeat).
  size_t num_keys = 64;
  /// Window length materialized by this source (the stream is conceptually
  /// unbounded; a source instance exposes a finite prefix).
  size_t total_events = 1024;
  /// Fraction of events whose amount is NULL (food for the NotNull filter
  /// in front of the warehouse — the data-quality leg of the flow).
  double null_amount_fraction = 0.125;
};

/// Schema of a CDC event:
/// key:int64!, version:int64!, amount:double, category:string!.
Schema CdcSchema();

/// Hash shard owning `key` among `shards` workers. Deliberately NOT
/// `key % shards`: a mixed hash keeps shard load balanced under skewed or
/// clustered key draws.
size_t CdcShardOf(int64_t key, size_t shards);

class CdcSource : public DataStore {
 public:
  explicit CdcSource(CdcStreamSpec spec, std::string name = "cdc");

  const CdcStreamSpec& spec() const { return spec_; }

  /// The event at stream offset `offset` (< total_events), derived O(1)
  /// from the seed. Deterministic across processes and calls.
  Row EventAt(size_t offset) const;

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  Result<size_t> NumRows() const override;
  /// Generates the events serially: each costs O(1) from the seed.
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& fan_out,
              const Consumer& consumer) const override;
  /// The stream is a source, not a sink.
  Status Append(const RowBatch& batch) override;
  Status Truncate() override;
  std::string ContentVersion() const override;

 private:
  const CdcStreamSpec spec_;
  const std::string name_;
  const Schema schema_;
};

using CdcSourcePtr = std::shared_ptr<const CdcSource>;

/// One shard's slice of the stream: events in offset window [begin, end)
/// whose key hashes to `shard` of `shards`. Read-only; this is what a
/// shard worker's extract scans.
class CdcShardView : public DataStore {
 public:
  CdcShardView(CdcSourcePtr source, size_t shard, size_t shards,
               size_t begin, size_t end);

  size_t shard() const { return shard_; }
  size_t begin() const { return begin_; }
  size_t end() const { return end_; }

  const std::string& name() const override { return name_; }
  const Schema& schema() const override;
  /// Events of the window owned by this shard (O(window) recount).
  Result<size_t> NumRows() const override;
  using DataStore::Scan;
  Status Scan(size_t batch_size, const FanOut& fan_out,
              const Consumer& consumer) const override;
  Status Append(const RowBatch& batch) override;
  Status Truncate() override;
  std::string ContentVersion() const override;

 private:
  const CdcSourcePtr source_;
  const size_t shard_;
  const size_t shards_;
  const size_t begin_;
  const size_t end_;
  const std::string name_;
};

}  // namespace qox

#endif  // QOX_STORAGE_CDC_SOURCE_H_
