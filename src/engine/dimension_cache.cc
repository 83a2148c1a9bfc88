#include "engine/dimension_cache.h"

#include <algorithm>
#include <utility>

namespace qox {

namespace {

// Dimension scan granularity (mirrors the lookup build's batch size).
constexpr size_t kScanBatch = 1024;

}  // namespace

uint64_t DimensionTable::HashKey(std::string_view key_bytes) {
  // FNV-1a 64, matching the repo's checksum idiom.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key_bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

const Row* DimensionTable::Find(std::string_view key_bytes,
                                uint64_t hash) const {
  const size_t r = index_.Find(
      hash, [&](size_t pos) { return key(pos) == key_bytes; });
  return r == KeyIndex::kNone ? nullptr : &rows_[r];
}

bool DimensionTable::Add(std::string_view key_bytes, uint64_t hash, Row row) {
  if (Find(key_bytes, hash) != nullptr) return false;
  index_.Add(hash);
  const uint32_t offset = static_cast<uint32_t>(key_arena_.size());
  key_arena_.append(key_bytes);
  key_spans_.push_back({offset, static_cast<uint32_t>(key_bytes.size())});
  bytes_ += RowBytes(key_bytes, row);
  rows_.push_back(std::move(row));
  return true;
}

Result<DimensionTablePtr> DimensionTable::Build(const DataStore& dimension,
                                                size_t key_index) {
  auto table = std::make_shared<DimensionTable>();
  std::string encoded;
  QOX_RETURN_IF_ERROR(dimension.Scan(
      kScanBatch, [&](RowBatch& batch) -> Status {
        for (Row& row : batch.rows()) {
          const Value& key = row.value(key_index);
          if (key.is_null()) continue;  // never matches
          encoded.clear();
          AppendValueKeyBytes(key, &encoded);
          table->Add(encoded, HashKey(encoded), std::move(row));
        }
        return Status::OK();
      }));
  return DimensionTablePtr(std::move(table));
}

DimensionCache& DimensionCache::Instance() {
  static DimensionCache* cache = new DimensionCache();
  return *cache;
}

Result<DimensionCache::Acquired> DimensionCache::GetOrBuild(
    const DataStore& dimension, const std::string& version, size_t key_index) {
  if (version.empty()) {
    return Status::Invalid("dimension '" + dimension.name() +
                           "' has no content version (uncacheable)");
  }
  const std::string identity =
      dimension.name() + "#" + std::to_string(key_index);
  const std::string key = identity + "|" + version;
  std::shared_ptr<Flight> flight;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<Flight>();
      entries_[key] = flight;
      builder = true;
      // Supersede the stale version of this dimension+key, if any.
      const auto latest = latest_.find(identity);
      if (latest != latest_.end() && latest->second != key) {
        entries_.erase(latest->second);
        retention_order_.erase(std::remove(retention_order_.begin(),
                                           retention_order_.end(),
                                           latest->second),
                               retention_order_.end());
      }
      latest_[identity] = key;
      retention_order_.push_back(key);
      while (retention_order_.size() > kMaxRetained) {
        const std::string oldest = retention_order_.front();
        retention_order_.pop_front();
        if (oldest == key) continue;  // never evict the entry being built
        entries_.erase(oldest);
      }
    }
  }
  if (builder) {
    Result<DimensionTablePtr> built = DimensionTable::Build(dimension,
                                                            key_index);
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->done = true;
      if (built.ok()) {
        flight->table = built.value();
      } else {
        flight->status = built.status();
      }
    }
    flight->cv.notify_all();
    if (!built.ok()) {
      // Failed builds are not cached: the next caller retries.
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second == flight) {
        entries_.erase(it);
        retention_order_.erase(std::remove(retention_order_.begin(),
                                           retention_order_.end(), key),
                               retention_order_.end());
      }
      return built.status();
    }
    Acquired acquired;
    acquired.table = built.value();
    acquired.built = true;
    return acquired;
  }
  std::unique_lock<std::mutex> lock(flight->mu);
  flight->cv.wait(lock, [&] { return flight->done; });
  QOX_RETURN_IF_ERROR(flight->status);
  Acquired acquired;
  acquired.table = flight->table;
  acquired.built = false;
  return acquired;
}

DimensionTablePtr DimensionCache::TryGet(const DataStore& dimension,
                                         const std::string& version,
                                         size_t key_index) const {
  if (version.empty()) return nullptr;
  const std::string key = dimension.name() + "#" + std::to_string(key_index) +
                          "|" + version;
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    flight = it->second;
  }
  std::lock_guard<std::mutex> lock(flight->mu);
  if (!flight->done || !flight->status.ok()) return nullptr;
  return flight->table;
}

void DimensionCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  latest_.clear();
  retention_order_.clear();
}

size_t DimensionCache::num_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace qox
