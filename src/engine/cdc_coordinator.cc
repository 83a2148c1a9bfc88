#include "engine/cdc_coordinator.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/clock.h"
#include "common/crash_point.h"
#include "engine/executor.h"
#include "engine/flow_journal.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/lookup_op.h"
#include "engine/ops/sort_op.h"
#include "engine/supervisor.h"
#include "storage/flat_file.h"
#include "storage/lease_file.h"
#include "storage/recovery_store.h"

namespace qox {

namespace {

// Coordinator journal record types. All are commit records (fsynced under
// JournalSync::kCommit): each one is a watermark correctness depends on.
constexpr char kRecMeta[] = "cdc_meta";
constexpr char kRecTakeover[] = "takeover";
constexpr char kRecSliceStart[] = "slice_start";
constexpr char kRecSliceStaged[] = "slice_staged";
constexpr char kRecSliceApplied[] = "slice_applied";
constexpr char kRecShardDead[] = "shard_dead";
constexpr char kRecCommit[] = "cdc_commit";

/// Per-shard rows count inside a slice_staged / slice_applied record
/// meaning "this shard's output is not part of the merge" (dead by then).
constexpr char kShardExcluded[] = "-";

std::string ShardDir(const CdcOptions& options, size_t shard) {
  return options.scratch_dir + "/shard" + std::to_string(shard);
}

std::string SliceFlowId(size_t shard, size_t slice) {
  return "s" + std::to_string(shard) + "_j" + std::to_string(slice);
}

std::string StagedPath(const CdcOptions& options, size_t shard,
                       size_t slice) {
  return ShardDir(options, shard) + "/slice" + std::to_string(slice) +
         ".csv";
}

std::vector<OperatorFactory> MakeTransforms(const CdcOptions& options) {
  std::vector<OperatorFactory> transforms;
  transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt_nn", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "scale", std::vector<ColumnTransform>{
                     ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  if (options.dimension != nullptr) {
    const DataStorePtr dimension = options.dimension;
    transforms.push_back([dimension]() -> OperatorPtr {
      return std::make_unique<LookupOp>(
          "dim", dimension, "category", "cat_key",
          std::vector<std::string>{"cat_label"}, LookupMissPolicy::kNull);
    });
  }
  // The trailing version sort makes staged order deterministic — the
  // precondition of both the shard flow's durable-prefix load skip and the
  // coordinator's merged-slice prefix math.
  transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<SortOp>("by_version",
                                    std::vector<SortKey>{{"version", false}});
  });
  return transforms;
}

Status ValidateOptions(const CdcOptions& options) {
  if (options.scratch_dir.empty()) {
    return Status::Invalid("CdcOptions.scratch_dir must be set");
  }
  if (options.topology.shards == 0) {
    return Status::Invalid("CdcOptions.topology.shards must be >= 1");
  }
  if (options.topology.slice_events == 0) {
    return Status::Invalid("CdcOptions.topology.slice_events must be >= 1");
  }
  if (options.batch_size == 0) {
    return Status::Invalid("CdcOptions.batch_size must be >= 1");
  }
  if (options.dimension != nullptr) {
    const Schema& dim = options.dimension->schema();
    if (!dim.HasField("cat_key") || !dim.HasField("cat_label")) {
      return Status::Invalid(
          "CdcOptions.dimension must carry 'cat_key' and 'cat_label'");
    }
  }
  return Status::OK();
}

/// Everything replayed from the coordinator journal.
struct CoordinatorState {
  bool has_meta = false;
  bool committed = false;
  bool takeover = false;
  /// slice -> journaled wal_base of its (possibly torn) apply.
  std::map<size_t, size_t> slice_wal_base;
  /// slice -> pinned merge membership: per-shard staged rows (SIZE_MAX =
  /// shard excluded). Present once every member's flow converged.
  std::map<size_t, std::vector<size_t>> staged;
  /// slice -> per-shard applied rows (SIZE_MAX = shard excluded).
  std::map<size_t, std::vector<size_t>> applied;
  std::set<size_t> dead_shards;
};

Result<size_t> ParseCount(const std::string& s) {
  // strtoull alone is too lenient for a watermark field: it parses "" as
  // 0, wraps "-5" to a huge unsigned value, and skips leading whitespace
  // — a corrupted journal cell must surface, not replay as a bogus count.
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return Status::CorruptedData("bad count '" + s +
                                 "' in coordinator journal");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      v > std::numeric_limits<size_t>::max()) {
    return Status::CorruptedData("bad count '" + s +
                                 "' in coordinator journal");
  }
  return static_cast<size_t>(v);
}

/// Parses the per-shard row-count cells of a slice_staged / slice_applied
/// record (kShardExcluded -> SIZE_MAX).
Result<std::vector<size_t>> ParsePerShardCells(const JournalRecord& record,
                                               size_t first_field,
                                               size_t shards) {
  std::vector<size_t> per_shard(shards, 0);
  for (size_t s = 0; s < shards; ++s) {
    const std::string& cell = record.fields[first_field + s];
    if (cell == kShardExcluded) {
      per_shard[s] = static_cast<size_t>(-1);
    } else {
      QOX_ASSIGN_OR_RETURN(per_shard[s], ParseCount(cell));
    }
  }
  return per_shard;
}

Result<CoordinatorState> ReplayCoordinatorJournal(
    const JournalFile& journal, const CdcOptions& options) {
  CoordinatorState state;
  const size_t shards = options.topology.shards;
  for (const JournalRecord& record : journal.records()) {
    if (record.type == kRecMeta) {
      if (record.fields.size() != 4) {
        return Status::CorruptedData("malformed cdc_meta record");
      }
      // A journal from a different stream or topology must not be resumed:
      // every watermark in it is meaningless against this configuration.
      if (record.fields[0] != std::to_string(shards) ||
          record.fields[1] != std::to_string(options.topology.slice_events) ||
          record.fields[2] != std::to_string(options.stream.total_events) ||
          record.fields[3] != std::to_string(options.stream.seed)) {
        return Status::FailedPrecondition(
            "coordinator journal was written for a different stream or "
            "topology (journaled " +
            record.fields[0] + "/" + record.fields[1] + "/" +
            record.fields[2] + "/" + record.fields[3] + ")");
      }
      state.has_meta = true;
    } else if (record.type == kRecTakeover) {
      state.takeover = true;
    } else if (record.type == kRecSliceStart) {
      if (record.fields.size() != 2) {
        return Status::CorruptedData("malformed slice_start record");
      }
      QOX_ASSIGN_OR_RETURN(const size_t slice, ParseCount(record.fields[0]));
      QOX_ASSIGN_OR_RETURN(const size_t base, ParseCount(record.fields[1]));
      // Re-journaled starts after a restart repeat the SAME base (the
      // first one wins — the WAL may have grown since).
      state.slice_wal_base.emplace(slice, base);
    } else if (record.type == kRecSliceStaged) {
      if (record.fields.size() != 1 + shards) {
        return Status::CorruptedData("malformed slice_staged record");
      }
      QOX_ASSIGN_OR_RETURN(const size_t slice, ParseCount(record.fields[0]));
      QOX_ASSIGN_OR_RETURN(std::vector<size_t> per_shard,
                           ParsePerShardCells(record, 1, shards));
      state.staged.emplace(slice, std::move(per_shard));
    } else if (record.type == kRecSliceApplied) {
      if (record.fields.size() != 2 + shards) {
        return Status::CorruptedData("malformed slice_applied record");
      }
      QOX_ASSIGN_OR_RETURN(const size_t slice, ParseCount(record.fields[0]));
      QOX_ASSIGN_OR_RETURN(std::vector<size_t> per_shard,
                           ParsePerShardCells(record, 2, shards));
      state.applied[slice] = std::move(per_shard);
    } else if (record.type == kRecShardDead) {
      if (record.fields.empty()) {
        return Status::CorruptedData("malformed shard_dead record");
      }
      QOX_ASSIGN_OR_RETURN(const size_t shard, ParseCount(record.fields[0]));
      if (shard >= shards) {
        return Status::CorruptedData("shard_dead names shard " +
                                     record.fields[0] + " of " +
                                     std::to_string(shards));
      }
      state.dead_shards.insert(shard);
    } else if (record.type == kRecCommit) {
      state.committed = true;
    }
    // Unknown types are ignored (forward compatibility).
  }
  return state;
}

/// The supervised (or in-process) execution of one (shard, slice) flow:
/// extract the shard's partition of the slice, transform, stage sorted by
/// version. Journaled + resumable in supervised mode.
Status RunShardSliceBody(const CdcOptions& options, const ShardRouter& router,
                         const Schema& staged_schema, size_t shard,
                         size_t slice, const FlowEnv* env) {
  const std::string flow_id = SliceFlowId(shard, slice);
  QOX_ASSIGN_OR_RETURN(
      auto staged, FlatFile::Open("staged_" + flow_id, staged_schema,
                                  StagedPath(options, shard, slice)));
  ExecutionConfig config;
  config.batch_size = options.batch_size;
  config.streaming = options.streaming;
  config.retry.max_attempts = 32;
  config.retry.initial_backoff_micros = 50;
  if (env != nullptr) {
    QOX_ASSIGN_OR_RETURN(auto rp_store,
                         RecoveryPointStore::Open(ShardDir(options, shard) +
                                                  "/rp_" + flow_id));
    QOX_RETURN_IF_ERROR(AdoptJournaledRecoveryPoints(env->journal->state(),
                                                     flow_id, rp_store.get())
                            .status());
    config.recovery_points = {1};
    config.rp_store = rp_store;
    config.journal = env->journal;
    config.resume = env->resume;
  }
  FlowSpec flow;
  flow.id = flow_id;
  flow.source = router.ShardSlice(shard, slice);
  flow.transforms = MakeTransforms(options);
  flow.target = staged;
  return Executor::Run(flow, config).status();
}

}  // namespace

Result<Schema> CdcCoordinator::StagedSchema(const CdcOptions& options) {
  Schema schema = CdcSchema();
  for (const OperatorFactory& factory : MakeTransforms(options)) {
    QOX_ASSIGN_OR_RETURN(schema, factory()->Bind(schema));
  }
  return schema;
}

Result<std::vector<Row>> CdcWarehouseState(const std::string& wal_path,
                                           const Schema& schema) {
  QOX_ASSIGN_OR_RETURN(auto wal,
                       FlatFile::Open("wal_state", schema, wal_path));
  QOX_ASSIGN_OR_RETURN(RowBatch rows, wal->ReadAll());
  QOX_ASSIGN_OR_RETURN(const size_t key_idx, schema.FieldIndex("key"));
  QOX_ASSIGN_OR_RETURN(const size_t ver_idx, schema.FieldIndex("version"));
  std::map<int64_t, Row> state;
  for (const Row& row : rows.rows()) {
    const int64_t key = row.value(key_idx).int64_value();
    const auto it = state.find(key);
    if (it == state.end() ||
        it->second.value(ver_idx).int64_value() <
            row.value(ver_idx).int64_value()) {
      state.insert_or_assign(key, row);
    }
  }
  std::vector<Row> folded;
  folded.reserve(state.size());
  for (auto& [key, row] : state) folded.push_back(std::move(row));
  return folded;
}

Result<CdcReport> CdcCoordinator::Run(const CdcOptions& options) {
  QOX_RETURN_IF_ERROR(ValidateOptions(options));
  const StopWatch total_watch;
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) {
    return Status::IoError("cannot create '" + options.scratch_dir +
                           "': " + ec.message());
  }

  const auto source = std::make_shared<const CdcSource>(options.stream);
  const ShardRouter router(source, options.topology);
  const size_t shards = options.topology.shards;
  for (size_t s = 0; s < shards; ++s) {
    std::filesystem::create_directories(ShardDir(options, s), ec);
    if (ec) {
      return Status::IoError("cannot create '" + ShardDir(options, s) +
                             "': " + ec.message());
    }
  }
  const size_t num_slices = router.num_slices();
  QOX_ASSIGN_OR_RETURN(const Schema staged_schema, StagedSchema(options));

  // Single-writer guard: one coordinator per scratch directory. A crashed
  // predecessor's lease is taken over (pid-dead, or hung past
  // QOX_LEASE_TIMEOUT_MS) and the displacement journaled below.
  QOX_ASSIGN_OR_RETURN(
      auto lease, LeaseFile::Acquire(options.scratch_dir + "/coordinator.lease",
                                     "cdc-coordinator"));

  QOX_ASSIGN_OR_RETURN(
      auto journal, JournalFile::Open(options.scratch_dir + "/coordinator.journal",
                                      options.journal_sync));
  QOX_ASSIGN_OR_RETURN(CoordinatorState state,
                       ReplayCoordinatorJournal(*journal, options));
  if (!state.has_meta) {
    QOX_RETURN_IF_ERROR(journal->Append(
        kRecMeta,
        {std::to_string(shards), std::to_string(options.topology.slice_events),
         std::to_string(options.stream.total_events),
         std::to_string(options.stream.seed)},
        /*commit=*/true));
  }
  if (lease->took_over()) {
    state.takeover = true;
    QOX_RETURN_IF_ERROR(journal->Append(kRecTakeover, {}, /*commit=*/true));
  }

  QOX_ASSIGN_OR_RETURN(
      auto wal, FlatFile::Open("warehouse", staged_schema,
                               options.scratch_dir + "/warehouse.csv"));

  CdcReport report;
  report.slices = num_slices;
  report.lease_takeover = state.takeover;
  report.warehouse_path = options.scratch_dir + "/warehouse.csv";
  report.metrics.streaming = options.streaming;
  report.metrics.shard_stats.resize(shards);
  for (size_t s = 0; s < shards; ++s) {
    report.metrics.shard_stats[s].shard = s;
  }
  for (size_t slice = 0; !state.committed && slice < num_slices; ++slice) {
    const StopWatch slice_watch;
    // Keep the lease fresh: with QOX_LEASE_TIMEOUT_MS set, a coordinator
    // that stops refreshing for longer than the timeout becomes stealable
    // while still alive — two coordinators appending to one WAL. A failed
    // heartbeat means we were already displaced: stop, don't split-brain.
    QOX_RETURN_IF_ERROR(lease->Heartbeat());
    if (state.applied.count(slice) != 0) continue;

    // Watermark 1: pin the WAL row count this slice's apply starts from.
    // A restart after a torn apply reuses the journaled base — the WAL has
    // grown past it by exactly the merged rows already durable.
    size_t wal_base = 0;
    const auto base_it = state.slice_wal_base.find(slice);
    if (base_it != state.slice_wal_base.end()) {
      wal_base = base_it->second;
    } else {
      QOX_ASSIGN_OR_RETURN(wal_base, wal->NumRows());
      QOX_RETURN_IF_ERROR(journal->Append(
          kRecSliceStart, {std::to_string(slice), std::to_string(wal_base)},
          /*commit=*/true));
      QOX_CRASH_POINT("cdc.slice_start");
    }

    // Watermark 2: the slice's merge membership. Once journaled
    // (slice_staged below), the member shards' staged files are complete
    // on disk — the record is only written after every member's flow
    // converged — so a resume re-merges exactly that set from disk without
    // re-running any shard flow. A shard that dies between the pin and a
    // torn apply's resume is therefore excluded starting from the NEXT
    // slice, never from a merged list whose prefix may already be durable
    // in the WAL (excluding it there would silently duplicate some rows
    // of the durable prefix and drop others).
    const auto staged_it = state.staged.find(slice);
    const bool membership_pinned = staged_it != state.staged.end();

    // Run every live shard's worker flow for this slice to convergence
    // (skipped wholesale once the membership is pinned: the staging is
    // done, and a re-run could only add shard deaths this slice must not
    // observe).
    for (size_t s = 0; !membership_pinned && s < shards; ++s) {
      if (state.dead_shards.count(s) != 0) continue;
      Status outcome;
      if (options.supervised) {
        SupervisorOptions sup;
        sup.scratch_dir = ShardDir(options, s);
        sup.max_incarnations = options.max_shard_incarnations;
        sup.journal_sync = options.journal_sync;
        const auto hook = options.shard_child_setup;
        sup.child_setup = [s, hook](int incarnation) {
          // Shard workers inherit the coordinator's crash-point arming
          // across fork; a supervised coordinator's own kill schedule must
          // not cascade into its grandchildren, so the default disarms.
          if (hook) {
            hook(s, incarnation);
          } else {
            ArmCrashPoints("");
          }
        };
        const Result<SupervisorReport> sup_report = FlowSupervisor::Run(
            SliceFlowId(s, slice),
            [&options, &router, &staged_schema, s, slice](const FlowEnv& env) {
              return RunShardSliceBody(options, router, staged_schema, s,
                                       slice, &env);
            },
            sup);
        QOX_RETURN_IF_ERROR(sup_report.status());
        ShardStats& stats = report.metrics.shard_stats[s];
        stats.incarnations += sup_report.value().incarnations;
        stats.crashes += sup_report.value().crashes;
        if (sup_report.value().lease_takeover) ++stats.lease_takeovers;
        outcome = sup_report.value().success
                      ? Status::OK()
                      : sup_report.value().final_status;
      } else {
        outcome =
            RunShardSliceBody(options, router, staged_schema, s, slice,
                              /*env=*/nullptr);
      }
      if (!outcome.ok()) {
        // Sticky degradation: the shard is dead for the rest of the
        // window. Its backlog becomes reported lag; the healthy shards
        // keep loading.
        state.dead_shards.insert(s);
        report.metrics.shard_stats[s].dead = true;
        QOX_RETURN_IF_ERROR(journal->Append(
            kRecShardDead, {std::to_string(s), std::to_string(slice)},
            /*commit=*/true));
      }
      // Shard runs dominate the slice's wall time — refresh the lease
      // between them so a long slice cannot outlast the takeover timeout.
      QOX_RETURN_IF_ERROR(lease->Heartbeat());
    }

    // The shards this slice's merge covers: the pinned membership on a
    // resume, the current live set on first contact.
    std::vector<bool> excluded(shards, false);
    for (size_t s = 0; s < shards; ++s) {
      excluded[s] = membership_pinned
                        ? staged_it->second[s] == static_cast<size_t>(-1)
                        : state.dead_shards.count(s) != 0;
    }

    // Merge the member shards' staged outputs by global version. Versions
    // are unique, so the merged order — and therefore the WAL bytes — are
    // a pure function of (stream, member shard set).
    std::vector<Row> merged;
    std::vector<size_t> per_shard_rows(shards, 0);
    QOX_ASSIGN_OR_RETURN(const size_t ver_idx,
                         staged_schema.FieldIndex("version"));
    for (size_t s = 0; s < shards; ++s) {
      if (excluded[s]) continue;
      QOX_ASSIGN_OR_RETURN(
          auto staged,
          FlatFile::Open("staged", staged_schema, StagedPath(options, s,
                                                             slice)));
      QOX_ASSIGN_OR_RETURN(RowBatch rows, staged->ReadAll());
      per_shard_rows[s] = rows.num_rows();
      for (Row& row : rows.rows()) merged.push_back(std::move(row));
    }
    if (membership_pinned) {
      // The staged files must still reproduce the journaled merge — a
      // shorter (truncated) or longer file would silently shift the
      // durable-prefix math below.
      for (size_t s = 0; s < shards; ++s) {
        if (!excluded[s] && per_shard_rows[s] != staged_it->second[s]) {
          return Status::CorruptedData(
              "staged file of shard " + std::to_string(s) + " slice " +
              std::to_string(slice) + " has " +
              std::to_string(per_shard_rows[s]) +
              " rows; the journal pinned " +
              std::to_string(staged_it->second[s]));
        }
      }
    } else {
      std::vector<std::string> cells{std::to_string(slice)};
      for (size_t s = 0; s < shards; ++s) {
        cells.push_back(excluded[s] ? std::string(kShardExcluded)
                                    : std::to_string(per_shard_rows[s]));
      }
      QOX_RETURN_IF_ERROR(
          journal->Append(kRecSliceStaged, cells, /*commit=*/true));
      QOX_CRASH_POINT("cdc.slice_staged");
    }
    std::sort(merged.begin(), merged.end(),
              [ver_idx](const Row& a, const Row& b) {
                return a.value(ver_idx).int64_value() <
                       b.value(ver_idx).int64_value();
              });

    // Watermark 3: exactly-once apply. Rows past wal_base are the durable
    // prefix a dead incarnation already landed; append only the rest.
    QOX_ASSIGN_OR_RETURN(const size_t wal_rows_now, wal->NumRows());
    if (wal_rows_now < wal_base || wal_rows_now - wal_base > merged.size()) {
      return Status::CorruptedData(
          "warehouse WAL at " + std::to_string(wal_rows_now) +
          " rows does not extend slice " + std::to_string(slice) +
          " base " + std::to_string(wal_base) + " by at most " +
          std::to_string(merged.size()));
    }
    QOX_CRASH_POINT("cdc.apply");
    size_t next = wal_rows_now - wal_base;
    while (next < merged.size()) {
      const size_t batch_end =
          std::min(merged.size(), next + options.batch_size);
      RowBatch batch(staged_schema);
      batch.Reserve(batch_end - next);
      for (size_t i = next; i < batch_end; ++i) {
        batch.Append(merged[i]);
      }
      QOX_RETURN_IF_ERROR(wal->Append(batch));
      report.metrics.rows_loaded += batch.num_rows();
      next = batch_end;
    }
    // The double-apply window: merged rows durable, applied record not yet
    // — the restart path must absorb a kill landing exactly here.
    QOX_CRASH_POINT("cdc.slice_applied");
    std::vector<std::string> fields{std::to_string(slice),
                                    std::to_string(merged.size())};
    for (size_t s = 0; s < shards; ++s) {
      fields.push_back(excluded[s] ? std::string(kShardExcluded)
                                   : std::to_string(per_shard_rows[s]));
    }
    QOX_RETURN_IF_ERROR(journal->Append(kRecSliceApplied, fields,
                                        /*commit=*/true));
    std::vector<size_t> applied_counts(shards, 0);
    for (size_t s = 0; s < shards; ++s) {
      applied_counts[s] =
          excluded[s] ? static_cast<size_t>(-1) : per_shard_rows[s];
    }
    state.applied[slice] = std::move(applied_counts);
    report.slice_latency_micros.push_back(slice_watch.ElapsedMicros());
  }

  if (!state.committed) {
    QOX_RETURN_IF_ERROR(lease->Heartbeat());
    QOX_CRASH_POINT("cdc.commit");
    QOX_RETURN_IF_ERROR(journal->Append(kRecCommit, {}, /*commit=*/true));
    state.committed = true;
  }

  // Final accounting, valid on fresh and resumed runs alike: routing and
  // application counts are re-derived from the (deterministic) stream and
  // the journaled watermarks, staging volume from the staged files.
  report.slices_applied = state.applied.size();
  report.shards_dead = state.dead_shards.size();
  report.degraded = report.shards_dead > 0;
  QOX_ASSIGN_OR_RETURN(report.wal_rows, wal->NumRows());
  for (size_t s = 0; s < shards; ++s) {
    ShardStats& stats = report.metrics.shard_stats[s];
    stats.events_routed =
        router.CountShardEvents(s, 0, options.stream.total_events);
    stats.dead = state.dead_shards.count(s) != 0;
    for (const auto& [slice, per_shard] : state.applied) {
      if (per_shard[s] == static_cast<size_t>(-1)) continue;
      const auto range = router.SliceRange(slice);
      stats.events_applied +=
          router.CountShardEvents(s, range.first, range.second);
      stats.rows_applied += per_shard[s];
    }
    stats.lag_events = stats.events_routed - stats.events_applied;
    for (size_t slice = 0; slice < num_slices; ++slice) {
      // Only count files a worker actually wrote (Open would create one).
      if (!std::filesystem::exists(StagedPath(options, s, slice), ec)) {
        continue;
      }
      const auto staged = FlatFile::Open("staged", staged_schema,
                                         StagedPath(options, s, slice));
      if (!staged.ok()) continue;
      const auto rows = staged.value()->NumRows();
      if (rows.ok()) stats.rows_staged += rows.value();
    }
    report.metrics.rows_extracted += stats.events_applied;
  }
  report.metrics.total_micros = total_watch.ElapsedMicros();
  report.metrics.threads = 1;
  return report;
}

}  // namespace qox
