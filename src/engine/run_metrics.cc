#include "engine/run_metrics.h"

#include <sstream>

namespace qox {

size_t RunMetrics::TotalRetries() const {
  size_t total = 0;
  for (const auto& [cause, count] : retries_by_cause) total += count;
  return total;
}

void RunMetrics::AccumulateOp(const OpStats& stats) {
  for (OpStats& existing : op_stats) {
    if (existing.name == stats.name) {
      existing.Merge(stats);
      return;
    }
  }
  op_stats.push_back(stats);
}

std::string RunMetrics::Summary() const {
  std::ostringstream oss;
  oss << "total=" << total_micros / 1000.0 << "ms"
      << " extract=" << extract_micros / 1000.0 << "ms"
      << " transform=" << transform_micros / 1000.0 << "ms"
      << " load=" << load_micros / 1000.0 << "ms";
  if (rp_points_written > 0) {
    oss << " rp_write=" << rp_write_micros / 1000.0 << "ms (" << rp_bytes_written
        << "B, " << rp_points_written << " points)";
  }
  if (merge_micros > 0) oss << " merge=" << merge_micros / 1000.0 << "ms";
  oss << " rows_in=" << rows_extracted << " rows_out=" << rows_loaded
      << " rejected=" << rows_rejected << " attempts=" << attempts;
  if (rows_skipped > 0) oss << " skipped=" << rows_skipped;
  if (rows_quarantined > 0) oss << " quarantined=" << rows_quarantined;
  if (rows_shed > 0) oss << " shed=" << rows_shed;
  if (landing_rows_committed > 0) {
    oss << " landing_committed=" << landing_rows_committed;
  }
  if (spill_runs > 0) {
    oss << " spill=" << spill_runs << " runs/" << spill_rows << " rows/"
        << spill_bytes << "B";
  }
  if (mem_high_water_bytes > 0) {
    oss << " mem_hw=" << mem_high_water_bytes << "B";
  }
  if (dim_cache_builds + dim_cache_hits > 0) {
    oss << " dim_cache=" << dim_cache_builds << " builds/" << dim_cache_hits
        << " hits";
  }
  if (columnar_batches > 0) {
    oss << " columnar=" << columnar_batches << " batches/" << columnar_rows
        << " rows";
  }
  if (failures_injected > 0) {
    oss << " failures=" << failures_injected
        << " resumed_from_rp=" << resumed_from_rp
        << " lost=" << lost_work_micros / 1000.0 << "ms";
  }
  if (!retries_by_cause.empty()) {
    oss << " retries={";
    bool first = true;
    for (const auto& [cause, count] : retries_by_cause) {
      if (!first) oss << ",";
      oss << cause << ":" << count;
      first = false;
    }
    oss << "}";
    if (backoff_micros > 0) oss << " backoff=" << backoff_micros / 1000.0 << "ms";
  }
  if (rp_corruption_fallbacks > 0) {
    oss << " rp_corruption_fallbacks=" << rp_corruption_fallbacks;
  }
  if (!shard_stats.empty()) {
    size_t lag = 0;
    size_t dead = 0;
    size_t crashes = 0;
    for (const ShardStats& shard : shard_stats) {
      lag += shard.lag_events;
      if (shard.dead) ++dead;
      crashes += shard.crashes;
    }
    oss << " shards=" << shard_stats.size() << " shard_lag=" << lag
        << " shard_crashes=" << crashes;
    if (dead > 0) oss << " shards_dead=" << dead;
  }
  if (streaming && !stage_stats.empty()) {
    int64_t stall = 0;
    int64_t backpressure = 0;
    for (const StageStats& stage : stage_stats) {
      stall += stage.stall_micros;
      backpressure += stage.backpressure_micros;
    }
    oss << " stages=" << stage_stats.size()
        << " stall=" << stall / 1000.0 << "ms"
        << " backpressure=" << backpressure / 1000.0 << "ms";
  }
  oss << " [threads=" << threads << " partitions=" << partitions
      << " redundancy=" << redundancy << (streaming ? " streaming" : "")
      << "]";
  return oss.str();
}

}  // namespace qox
