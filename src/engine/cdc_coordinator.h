// CdcCoordinator: exactly-once sharded CDC ingestion into one warehouse.
//
// The distributed near-real-time mode of the ROADMAP, built entirely out
// of the engine's existing durability machinery. The stream window is cut
// into time slices (ShardRouter); for each slice, every shard worker runs
// a fully supervised, journaled flow (FlowSupervisor + FlowJournal +
// durable-prefix load skip) that extracts its key partition of the slice,
// transforms it on the ordinary plan IR (streaming or phased, with its own
// per-process DimensionCache when a lookup dimension is configured), and
// stages the result — sorted by version — into a per-(shard, slice) flat
// file. The coordinator then merges the staged outputs of a slice by
// global version and appends them to the warehouse WAL.
//
// Exactly-once across arbitrary SIGKILLs is the sum of four watermarks:
//
//   * Shard workers are supervised flows: a killed worker restarts, skips
//     its journaled durable prefix, and a committed (shard, slice) flow is
//     never re-run (FlowSupervisor's committed check).
//   * The coordinator's own JournalFile records `slice_start(j, wal_base)`
//     BEFORE applying slice j and `slice_applied(j, ...)` after. On
//     restart, applied slices are skipped wholesale; a torn slice resumes
//     by comparing the WAL's current row count against the journaled
//     wal_base — the rows in between are the durable prefix of the merged
//     slice, appended by a dead incarnation, and are not re-appended.
//   * `slice_staged(j, rows...)` pins the slice's merge MEMBERSHIP once
//     every member shard's flow has converged (their staged files are
//     complete on disk from then on). A torn slice re-merges exactly the
//     pinned set from disk without re-running any shard flow, so the
//     durable prefix always extends the same merged list: a shard death
//     in the resume window degrades the run starting from the NEXT slice
//     instead of silently re-partitioning a half-applied one.
//   * Because every slice's merged output is ordered by globally unique
//     versions, the WAL contents are a pure function of (stream, member
//     shards) — the basis of the chaos test's byte-identity invariant
//     against an unkilled single-shard run.
//
// Degradation: a shard whose supervision exhausts its incarnation budget
// is journaled dead; the coordinator keeps applying the remaining shards'
// outputs instead of stalling, and reports the dead shard's backlog as
// per-shard lag in RunMetrics::shard_stats (bounded staleness, attributed).
//
// The coordinator itself may be supervised (and killed): a successor takes
// over the stale coordinator lease (QOX_LEASE_TIMEOUT_MS covers a hung —
// not dead — predecessor) and resumes from the coordinator journal. A
// displaced stale lease is journaled (`takeover`) so tests and operators
// see it after the fact. A live coordinator heartbeats its lease every
// slice and between shard runs, so a configured timeout never steals the
// lease from a healthy long run — and a failed heartbeat (the lease now
// names a live usurper) stops the run instead of split-braining the WAL.

#ifndef QOX_ENGINE_CDC_COORDINATOR_H_
#define QOX_ENGINE_CDC_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/cdc_router.h"
#include "engine/run_metrics.h"
#include "storage/cdc_source.h"
#include "storage/data_store.h"
#include "storage/journal_file.h"

namespace qox {

struct CdcOptions {
  /// Root of everything durable: coordinator lease + journal, warehouse
  /// WAL, and one subdirectory per shard (leases, flow journals, staging
  /// files, recovery points). Created if absent.
  std::string scratch_dir;
  CdcStreamSpec stream;
  CdcTopology topology;
  /// Execution mode of the shard workers' flows.
  bool streaming = false;
  /// Row batch size of the shard flows and the WAL apply.
  size_t batch_size = 32;
  /// Fork each (shard, slice) flow under a FlowSupervisor (the production
  /// shape; required for kill-tolerance). false runs the flows in-process
  /// — the fast path for clean references and benches.
  bool supervised = true;
  /// Per-(shard, slice) supervision budget; exhausting it marks the shard
  /// dead for the rest of the window, and the healthy shards keep loading
  /// (the bounded-staleness degradation).
  size_t max_shard_incarnations = 6;
  JournalSync journal_sync = JournalSync::kAlways;
  /// Optional lookup dimension keyed by `category` (column "cat"
  /// appended). Exercises each worker process's DimensionCache.
  DataStorePtr dimension;
  /// Chaos hook: runs in every forked shard worker immediately after fork
  /// (FlowSupervisor::child_setup), so tests can arm per-(shard,
  /// incarnation) kill schedules. The default DISARMS inherited crash
  /// points — a supervised coordinator's own armed schedule must not
  /// cascade into its grandchildren.
  std::function<void(size_t shard, int incarnation)> shard_child_setup;
};

struct CdcReport {
  /// Aggregate + per-shard accounting (shard_stats is always populated,
  /// one entry per shard). rows_loaded counts WAL rows appended BY THIS
  /// process; wal_rows below is the durable total.
  RunMetrics metrics;
  size_t slices = 0;
  /// Slices durably applied (journaled), including by prior incarnations.
  size_t slices_applied = 0;
  size_t shards_dead = 0;
  /// At least one shard died and the run completed without it.
  bool degraded = false;
  /// This coordinator displaced a stale predecessor's lease.
  bool lease_takeover = false;
  /// The warehouse WAL: every applied update, ordered by global version
  /// (the byte-identity artifact).
  std::string warehouse_path;
  size_t wal_rows = 0;
  /// Wall time of each slice applied by this process (stage + merge +
  /// load) — the measured component of end-to-end freshness.
  std::vector<int64_t> slice_latency_micros;
};

class CdcCoordinator {
 public:
  /// Runs the whole window to convergence (or bounded degradation).
  /// Restart-safe: call again with the same options after a crash and it
  /// resumes from the journals. Validation errors and unrecoverable I/O
  /// surface as the Result's status.
  static Result<CdcReport> Run(const CdcOptions& options);

  /// Schema of the staged / warehouse rows (the shard flow's bound chain
  /// output): key, version, amount, category, scaled [, cat].
  static Result<Schema> StagedSchema(const CdcOptions& options);
};

/// Reads the warehouse WAL and folds it into the canonical warehouse
/// state: one row per key, the highest version winning, ordered by key.
/// Two converged runs agree on this even when one degraded mid-window.
Result<std::vector<Row>> CdcWarehouseState(const std::string& wal_path,
                                           const Schema& schema);

}  // namespace qox

#endif  // QOX_ENGINE_CDC_COORDINATOR_H_
