#include "engine/executor.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <thread>

#include "common/clock.h"
#include "engine/memory_budget.h"
#include "engine/streaming.h"
#include "storage/spill_manager.h"

namespace qox {

Schema RejectStoreSchema() {
  return Schema({{"flow_id", DataType::kString, false},
                 {"instance", DataType::kInt64, false},
                 {"attempt", DataType::kInt64, false},
                 {"rejected_row", DataType::kString, false}});
}

size_t FingerprintRows(const std::vector<Row>& rows) {
  // Order-insensitive combination: commutative sum of mixed row hashes.
  size_t acc = 0x51ed270b0129ULL + rows.size();
  for (const Row& row : rows) {
    const size_t h = row.Hash();
    acc += h * (h | 1);
  }
  return acc;
}

namespace {

std::string CutPointId(int instance, size_t cut) {
  return "i" + std::to_string(instance) + ".cut" + std::to_string(cut);
}

/// Sleeps out a retry backoff and accounts it. Kept out of line so the
/// instance loop and the load loop charge waits identically.
void WaitBackoff(const RetryPolicy& policy, size_t failed_attempt, Rng* rng,
                 RunMetrics* metrics) {
  const int64_t wait = policy.BackoffMicros(failed_attempt, rng);
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(wait));
    metrics->backoff_micros += wait;
  }
}

/// Per-instance flow execution: one attempt driver over the lowered
/// ExecutionPlan with recovery semantics. Produces the rows at the final
/// cut (pre-load). Every attempt spawns one stage per plan node and wires
/// one channel per edge; the plan's streaming property only picks the
/// StageSet mode. Streaming runs the stages as concurrent blocking tasks
/// on bounded channels; phased plans run staged — each stage to completion
/// on this thread, a partitioned unit's branches fanned out together.
/// All work goes through the instance's ExecContext, so it runs on
/// whatever substrate the caller provided (a private pool for solo runs,
/// the shared pool under a FlowService) under the flow's deadline tag.
class FlowRunner {
 public:
  FlowRunner(const FlowSpec& flow, const ExecutionConfig& config,
             const ExecutionPlan& plan,
             const std::vector<Schema>& cut_schemas, const ExecContext& exec,
             int instance_id, std::atomic<bool>* cancelled)
      : flow_(flow),
        config_(config),
        plan_(plan),
        cut_schemas_(cut_schemas),
        exec_(exec),
        instance_id_(instance_id),
        cancelled_(cancelled),
        backoff_rng_(config.retry.jitter_seed +
                     static_cast<uint64_t>(instance_id)),
        budget_state_(config.error_budget),
        memory_budget_(config.memory_budget_bytes),
        spill_(config.spill_dir + "/i" + std::to_string(instance_id)),
        journal_(instance_id == 0 ? config.journal.get() : nullptr) {
    ctx_.cancelled = cancelled;
    ctx_.rejected_rows = &rejected_;
    ctx_.dim_cache_builds = &dim_cache_builds_;
    ctx_.dim_cache_hits = &dim_cache_hits_;
    ctx_.columnar_batches = &columnar_batches_;
    ctx_.columnar_rows = &columnar_rows_;
    ctx_.memory_budget = &memory_budget_;
    ctx_.spill = &spill_;
    if (config_.spill_write_fault) {
      spill_.SetWriteFault(config_.spill_write_fault);
    }
    if (config_.reject_store != nullptr) {
      ctx_.reject_sink = [this](const Row& row) -> Status {
        RowBatch audit(RejectStoreSchema());
        Row record;
        record.Append(Value::String(flow_.id));
        record.Append(Value::Int64(instance_id_));
        record.Append(Value::Int64(current_attempt_.load()));
        record.Append(Value::String(row.ToString()));
        audit.Append(std::move(record));
        return config_.reject_store->Append(audit);
      };
    }
    if (config_.dead_letter != nullptr) {
      quarantine_sink_ = [this](const ContainedRow& contained) -> Status {
        QuarantineRecord record;
        record.flow_id = flow_.id;
        const size_t node =
            plan_.NodeForOp(static_cast<size_t>(contained.op_index));
        record.node_id = node == ExecutionPlan::kNoNode
                             ? -1
                             : static_cast<int64_t>(node);
        record.op_index = contained.op_index;
        record.op_name = contained.op_name;
        record.instance = instance_id_;
        record.attempt = current_attempt_.load();
        record.row_index =
            quarantine_seq_.fetch_add(1, std::memory_order_relaxed);
        record.status_code = StatusCodeName(contained.cause.code());
        record.status_message = contained.cause.message();
        record.payload = EncodeQuarantinePayload(contained.row);
        return config_.dead_letter->Quarantine(record);
      };
    }
  }

  /// Streaming with no redundancy loads inline at the dataflow sink
  /// (redundant instances must still hand their output to the voter).
  bool StreamingInlineLoad() const {
    return config_.streaming && config_.redundancy <= 1;
  }

  /// Whether the inline-load sink ran and made the target current (so the
  /// caller must skip its own load phase).
  bool loaded_inline() const { return loaded_inline_; }

  /// Runs (with per-instance retries unless redundant) and fills `*out`
  /// with the transform output. Metrics cover this instance only. In
  /// inline-load streaming mode `*out` stays empty: rows are already in
  /// the target on success.
  Status RunToOutput(std::vector<Row>* out) {
    const RetryPolicy& policy = config_.retry;
    const size_t max_attempts =
        config_.redundancy > 1 ? 1 : std::max<size_t>(1, policy.max_attempts);
    metrics_.streaming = config_.streaming;
    if (StreamingInlineLoad()) {
      if (config_.resume.has_load_base) {
        // Cross-process resume: the baseline journaled before the flow's
        // first load. Re-reading the target here would count rows a dead
        // incarnation durably landed as pre-existing and re-append them.
        load_base_rows_ = config_.resume.load_base_rows;
      } else {
        // Baseline for cross-attempt incremental restart: rows beyond this
        // count are ours, durably loaded by an earlier (failed) attempt.
        QOX_ASSIGN_OR_RETURN(load_base_rows_, flow_.target->NumRows());
      }
    }
    if (!memory_budget_.unlimited() && journal_ != nullptr) {
      // Durable before any spill write: a SIGKILL mid-spill must leave the
      // successor a pointer to the orphaned `.spill.tmp` files.
      QOX_RETURN_IF_ERROR(journal_->RecordSpillDir(spill_.dir()));
    }
    // Attempt numbering continues where dead incarnations stopped, so the
    // retry budget spans process boundaries.
    size_t attempt = config_.resume.prior_attempts + 1;
    while (true) {
      metrics_.attempts = attempt;
      current_attempt_.store(static_cast<int64_t>(attempt));
      attempt_deadline_micros_ =
          policy.attempt_deadline_micros > 0
              ? NowMicros() + policy.attempt_deadline_micros
              : 0;
      const StopWatch attempt_timer;
      // Budget accounting is per attempt: a retried attempt re-contains the
      // same rows, so carrying counts across attempts would double-charge.
      budget_state_.Reset();
      // Memory accounting likewise: a failed attempt's operators may die
      // before releasing their charges.
      memory_budget_.ResetUsage();
      const int resume_cut =
          FindResumeCut(static_cast<int>(NumOps()) + 1);
      if (journal_ != nullptr) {
        QOX_RETURN_IF_ERROR(journal_->RecordAttemptStart(
            attempt, config_.streaming, resume_cut));
      }
      const Status st = RunDataflow(static_cast<int>(attempt), resume_cut, out);
      // Spill runs are strictly intra-attempt temporaries: delete them on
      // every exit from an attempt, successful or not (best effort on the
      // failure path — a dangling file must not mask the attempt verdict;
      // the restart sweep catches what this misses).
      (void)spill_.RemoveAll();
      if (st.ok()) {
        // Containment counters are reported for the successful attempt only
        // (failed attempts' contained rows were rework, not output).
        metrics_.rows_skipped += budget_state_.skipped();
        metrics_.rows_quarantined += budget_state_.quarantined();
        metrics_.mem_high_water_bytes = memory_budget_.high_water();
        metrics_.dim_cache_builds = dim_cache_builds_.load();
        metrics_.dim_cache_hits = dim_cache_hits_.load();
        metrics_.columnar_batches = columnar_batches_.load();
        metrics_.columnar_rows = columnar_rows_.load();
        metrics_.spill_runs = spill_.runs_created();
        metrics_.spill_rows = spill_.rows_spilled();
        metrics_.spill_bytes = spill_.bytes_spilled();
        if (journal_ != nullptr) {
          QOX_RETURN_IF_ERROR(journal_->RecordBudget(
              attempt, budget_state_.skipped(), budget_state_.quarantined()));
          QOX_RETURN_IF_ERROR(journal_->RecordAttemptEnd(attempt, "ok"));
        }
        return Status::OK();
      }
      if (st.IsInjectedFailure()) ++metrics_.failures_injected;
      if (journal_ != nullptr) {
        // Best effort on the failure path: the attempt's verdict must not
        // be masked by a journal I/O error.
        (void)journal_->RecordAttemptEnd(attempt,
                                         StatusCodeName(st.code()));
      }
      // Only transient failures consume the retry budget; permanent errors
      // (bad schema, corrupted data, real I/O errors) fail the run at once.
      // Under ResourcePolicy::kPauseRetry, resource exhaustion (disk full
      // at a spill or write boundary) is reclassified transient: pause for
      // the backoff — modelling "wait for the operator to free space" —
      // and retry.
      const bool retryable =
          IsTransient(st) ||
          (config_.resource_policy == ResourcePolicy::kPauseRetry &&
           st.code() == StatusCode::kResourceExhausted);
      if (!retryable || attempt >= max_attempts) return st;
      ++metrics_.retries_by_cause[StatusCodeName(st.code())];
      // Lost work = rework: the part of the attempt NOT durably saved by
      // a recovery point written during it.
      metrics_.lost_work_micros += std::max<int64_t>(
          0, attempt_timer.ElapsedMicros() - durable_elapsed_micros_);
      WaitBackoff(policy, attempt, &backoff_rng_, &metrics_);
      ++attempt;
    }
  }

  RunMetrics& metrics() { return metrics_; }
  size_t rejected() const { return rejected_.load(); }

 private:
  size_t NumOps() const { return flow_.transforms.size(); }

  /// Sheds one load row under ResourcePolicy::kShedToQuarantine: routes it
  /// to the dead-letter ledger (count-and-drop when none is configured)
  /// and charges the flow error budget — shedding buys availability with
  /// completeness, and the budget caps how much completeness it may spend.
  Status ShedRow(const Row& row, const Status& cause) {
    if (quarantine_sink_) {
      ContainedRow contained;
      contained.op_index = static_cast<int>(NumOps());  // the load boundary
      contained.op_name = "load";
      contained.row = row;
      contained.cause = cause;
      QOX_RETURN_IF_ERROR(quarantine_sink_(contained));
    }
    {
      std::lock_guard<std::mutex> lock(stage_mu_);
      ++metrics_.rows_shed;
    }
    return budget_state_.Charge(ErrorPolicy::kQuarantine,
                                static_cast<int>(NumOps()));
  }

  /// Latest cut strictly below `below` with a complete recovery point, or
  /// -1 (from scratch). Pass NumOps() + 1 for "the latest anywhere"; pass a
  /// cut that failed verification to find the next older fallback. The
  /// candidate cuts are the plan's (deduplicated, sorted) barrier cuts.
  int FindResumeCut(int below) const {
    if (config_.rp_store == nullptr) return -1;
    int best = -1;
    for (const size_t cut : plan_.rp_cuts()) {
      if (static_cast<int>(cut) >= below) break;
      if (config_.rp_store->Has(
              {flow_.id, CutPointId(instance_id_, cut)})) {
        best = static_cast<int>(cut);
      }
    }
    return best;
  }

  Status WriteRp(size_t cut, const std::vector<Row>& rows) {
    const StopWatch timer;
    QOX_RETURN_IF_ERROR(config_.rp_store->Save(
        {flow_.id, CutPointId(instance_id_, cut)}, cut_schemas_[cut], rows));
    metrics_.rp_write_micros += timer.ElapsedMicros();
    ++metrics_.rp_points_written;
    // Everything up to here is durable: a subsequent failure loses only
    // the work after this point.
    durable_elapsed_micros_ = NowMicros() - attempt_start_micros_;
    if (journal_ != nullptr) {
      // WAL the sealed point so a successor process can re-adopt it: a
      // fresh RecoveryPointStore starts logically empty.
      QOX_RETURN_IF_ERROR(journal_->RecordRpCommit(
          CutPointId(instance_id_, cut), cut, rows.size()));
    }
    return Status::OK();
  }

  Result<std::vector<Row>> LoadRp(size_t cut) {
    const StopWatch timer;
    QOX_ASSIGN_OR_RETURN(
        RowBatch batch,
        config_.rp_store->Load({flow_.id, CutPointId(instance_id_, cut)},
                               cut_schemas_[cut]));
    metrics_.rp_read_micros += timer.ElapsedMicros();
    ++metrics_.resumed_from_rp;
    return std::move(batch.rows());
  }

  /// Resolves the resume point: loads the newest verifiable recovery point
  /// into `*rows`, falling back past corrupted points (dropping them) to
  /// older ones. Returns the cut resumed from, or -1 for a from-scratch
  /// attempt (`*rows` untouched).
  Result<int> ResumeFromRp(int resume_cut, std::vector<Row>* rows) {
    while (resume_cut >= 0) {
      Result<std::vector<Row>> loaded =
          LoadRp(static_cast<size_t>(resume_cut));
      if (loaded.ok()) {
        *rows = loaded.TakeValue();
        return resume_cut;
      }
      if (!loaded.status().IsCorruptedData()) return loaded.status();
      ++metrics_.rp_corruption_fallbacks;
      QOX_RETURN_IF_ERROR(config_.rp_store->Drop(
          {flow_.id,
           CutPointId(instance_id_, static_cast<size_t>(resume_cut))}));
      resume_cut = FindResumeCut(resume_cut);
    }
    return -1;
  }

  // ===== Dataflow execution ===============================================
  //
  // The attempt is wired as a dataflow of stages connected by channels
  // (engine/streaming.h): source (extract, or recovery-point replay) →
  // transform units split exactly as the plan's sections split them →
  // recovery-point barriers → sink (inline load, or a collector handing the
  // output to LoadWithRetry or the redundancy voter). Streaming plans run
  // the stages concurrently on bounded channels; phased plans run them
  // staged, one after another on this thread. Stage bodies never touch
  // metrics_ except under stage_mu_; phase counters are attributed from
  // per-stage busy time after Join. Blocking operators (inside pipelines),
  // the per-branch sorts ahead of a merge, and recovery-point barriers are
  // the only full materialization points of a streaming run.

  /// Appends `row` to `*acc`, flushing full batches into `out`.
  Status EmitRow(Row row, RowBatch* acc, BatchChannel* out,
                 StageStats* stats) {
    acc->Append(std::move(row));
    if (acc->num_rows() >= config_.batch_size) {
      return FlushBatch(acc, out, stats);
    }
    return Status::OK();
  }

  /// Sends `*acc`'s rows into `out` (no-op when empty) and resets it.
  Status FlushBatch(RowBatch* acc, BatchChannel* out, StageStats* stats) {
    if (acc->empty()) return Status::OK();
    RowBatch send(acc->schema_ptr());
    send.rows() = std::move(acc->rows());
    acc->Clear();
    stats->rows += send.num_rows();
    ++stats->batches;
    return out->Push(std::move(send), &stats->backpressure_micros);
  }

  /// Failure-fraction denominator of a stage reading `in`. A staged stage
  /// starts after its upstream finished, so it counts the rows that
  /// actually entered it; a streaming stage only has `estimate`.
  size_t InputRows(const BatchChannel& in, size_t estimate) const {
    if (config_.streaming) return estimate;
    return in.QueuedWeight(
        [](const RowBatch& batch) { return batch.num_rows(); });
  }

  /// Builds a bound pipeline over ops [begin, end), pointed at the flow's
  /// shared containment state and execution mode. Every transform and
  /// branch stage builds its pipeline here, so all of them enforce
  /// identical containment semantics. `expected_rows` feeds the
  /// failure-fraction denominators.
  Result<std::unique_ptr<Pipeline>> MakePipeline(size_t begin, size_t end,
                                                 int attempt,
                                                 size_t expected_rows) {
    std::vector<OperatorPtr> ops;
    ops.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) ops.push_back(flow_.transforms[i]());
    PipelineConfig pc;
    pc.instance_id = instance_id_;
    pc.attempt = attempt;
    pc.op_index_offset = static_cast<int>(begin);
    pc.injector = config_.injector;
    pc.expected_input_rows = expected_rows;
    pc.deadline_micros = attempt_deadline_micros_;
    pc.error_policies = &config_.error_policies;
    pc.error_budget = &budget_state_;
    pc.quarantine_sink = quarantine_sink_;
    return Pipeline::Create(cut_schemas_[begin], std::move(ops), &ctx_, pc);
  }

  void AccumulateOpsLocked(const std::vector<OpStats>& stats) {
    std::lock_guard<std::mutex> lock(stage_mu_);
    for (const OpStats& s : stats) metrics_.AccumulateOp(s);
  }

  /// Source stage: scans the source, streaming batches into `out`.
  void SpawnExtractStage(StageSet* stages, BatchChannelPtr out, int attempt) {
    const size_t node_id = plan_.extract_node();
    stages->Spawn("extract", [this, out, attempt,
                              node_id](StageStats* stats) -> Status {
      stats->node_id = static_cast<int64_t>(node_id);
      QOX_ASSIGN_OR_RETURN(const size_t total, flow_.source->NumRows());
      if (config_.injector != nullptr) {
        // Report the phase start before scanning: an empty source never
        // invokes the scan consumer, so a failure placed at extraction
        // fraction 0 would otherwise never get a chance to fire.
        QOX_RETURN_IF_ERROR(config_.injector->Check(
            instance_id_, attempt, /*op_index=*/-1, 0, total));
      }
      size_t seen = 0;
      QOX_RETURN_IF_ERROR(flow_.source->Scan(
          config_.batch_size, [&](RowBatch& batch) -> Status {
            if (cancelled_ != nullptr && cancelled_->load()) {
              return Status::Cancelled("extraction cancelled");
            }
            if (attempt_deadline_micros_ > 0 &&
                NowMicros() > attempt_deadline_micros_) {
              return Status::DeadlineExceeded(
                  "attempt deadline expired during extraction");
            }
            seen += batch.num_rows();
            if (config_.injector != nullptr) {
              QOX_RETURN_IF_ERROR(config_.injector->Check(
                  instance_id_, attempt, /*op_index=*/-1, seen, total));
            }
            RowBatch send(batch.schema_ptr());
            send.rows() = std::move(batch.rows());
            stats->rows += send.num_rows();
            ++stats->batches;
            return out->Push(std::move(send), &stats->backpressure_micros);
          }));
      stats->channel_high_water = out->stats().high_water;
      out->Close();
      return Status::OK();
    });
  }

  /// Source stage variant: replays recovery-point rows into the dataflow.
  /// Stands in for the extract node, so it reports under its plan id.
  void SpawnReplayStage(StageSet* stages, BatchChannelPtr out,
                        std::vector<Row> rows, size_t cut) {
    auto replay = std::make_shared<std::vector<Row>>(std::move(rows));
    const size_t node_id = plan_.extract_node();
    stages->Spawn(
        "replay",
        [this, out, replay, cut, node_id](StageStats* stats) -> Status {
          stats->node_id = static_cast<int64_t>(node_id);
          RowBatch acc(cut_schemas_[cut]);
          for (Row& row : *replay) {
            QOX_RETURN_IF_ERROR(EmitRow(std::move(row), &acc, out.get(), stats));
          }
          QOX_RETURN_IF_ERROR(FlushBatch(&acc, out.get(), stats));
          replay->clear();
          stats->channel_high_water = out->stats().high_water;
          out->Close();
          return Status::OK();
        });
  }

  /// Recovery-point barrier: materializes the full cut, persists it, then
  /// re-emits downstream. Returns the barrier's output channel.
  BatchChannelPtr SpawnBarrierStage(StageSet* stages, BatchChannelPtr in,
                                    size_t cut, size_t node_id) {
    BatchChannelPtr out = stages->MakeChannel(config_.channel_capacity);
    stages->Spawn(
        plan_.nodes()[node_id].label,
        [this, in, out, cut, node_id](StageStats* stats) -> Status {
          stats->node_id = static_cast<int64_t>(node_id);
          std::vector<Row> rows;
          while (true) {
            QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                                 in->Pop(&stats->stall_micros));
            if (!item.has_value()) break;
            rows.insert(rows.end(),
                        std::make_move_iterator(item->rows().begin()),
                        std::make_move_iterator(item->rows().end()));
          }
          {
            std::lock_guard<std::mutex> lock(stage_mu_);
            QOX_RETURN_IF_ERROR(WriteRp(cut, rows));
          }
          RowBatch acc(cut_schemas_[cut]);
          for (Row& row : rows) {
            QOX_RETURN_IF_ERROR(EmitRow(std::move(row), &acc, out.get(), stats));
          }
          QOX_RETURN_IF_ERROR(FlushBatch(&acc, out.get(), stats));
          stats->channel_high_water = out->stats().high_water;
          out->Close();
          return Status::OK();
        });
    return out;
  }

  /// Sequential transform stage over ops [begin, end): pops input batches,
  /// pushes them through its pipeline, and emits whatever the pipeline has
  /// produced so far — blocking operators inside simply emit nothing until
  /// Finish.
  BatchChannelPtr SpawnTransformStage(StageSet* stages, BatchChannelPtr in,
                                      size_t begin, size_t end, int attempt,
                                      size_t expected_rows, size_t node_id) {
    BatchChannelPtr out = stages->MakeChannel(config_.channel_capacity);
    stages->Spawn(plan_.nodes()[node_id].label,
                  [this, in, out, begin, end, attempt, expected_rows,
                   node_id](StageStats* stats) -> Status {
      stats->node_id = static_cast<int64_t>(node_id);
      QOX_ASSIGN_OR_RETURN(
          std::unique_ptr<Pipeline> pipeline,
          MakePipeline(begin, end, attempt, InputRows(*in, expected_rows)));
      RowBatch acc(cut_schemas_[end]);
      while (true) {
        QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                             in->Pop(&stats->stall_micros));
        if (!item.has_value()) break;
        QOX_RETURN_IF_ERROR(pipeline->Push(std::move(*item)));
        for (Row& row : pipeline->TakeOutput()) {
          QOX_RETURN_IF_ERROR(EmitRow(std::move(row), &acc, out.get(), stats));
        }
      }
      QOX_RETURN_IF_ERROR(pipeline->Finish());
      for (Row& row : pipeline->TakeOutput()) {
        QOX_RETURN_IF_ERROR(EmitRow(std::move(row), &acc, out.get(), stats));
      }
      QOX_RETURN_IF_ERROR(FlushBatch(&acc, out.get(), stats));
      AccumulateOpsLocked(pipeline->op_stats());
      stats->channel_high_water = out->stats().high_water;
      out->Close();
      return Status::OK();
    });
    return out;
  }


  /// Partitioned unit over ops [begin, end): a partitioner stage routes
  /// rows into per-partition channels as they arrive (no pre-split
  /// materialization), one pipeline stage per partition transforms them,
  /// and a merge stage reunifies the branches (SpawnMerge). The branches
  /// run as one stage group, so a staged run fans them out together.
  Result<BatchChannelPtr> SpawnParallelUnit(StageSet* stages,
                                            BatchChannelPtr in,
                                            const PlanUnit& unit, int attempt,
                                            size_t expected_rows) {
    const size_t begin = unit.begin;
    const size_t end = unit.end;
    const size_t num_parts = config_.parallel.partitions;
    size_t hash_col = 0;
    if (config_.parallel.scheme == PartitionScheme::kHash) {
      QOX_ASSIGN_OR_RETURN(hash_col, cut_schemas_[begin].FieldIndex(
                                         config_.parallel.hash_column));
    }
    std::vector<BatchChannelPtr> part_in;
    part_in.reserve(num_parts);
    for (size_t p = 0; p < num_parts; ++p) {
      part_in.push_back(stages->MakeChannel(config_.channel_capacity));
    }
    stages->Spawn(
        plan_.nodes()[unit.router].label,
        [this, in, part_in, begin, hash_col,
         router_id = unit.router](StageStats* stats) -> Status {
          stats->node_id = static_cast<int64_t>(router_id);
          const PartitionScheme scheme = config_.parallel.scheme;
          const size_t num_parts = part_in.size();
          std::vector<RowBatch> acc;
          acc.reserve(num_parts);
          for (size_t p = 0; p < num_parts; ++p) {
            acc.emplace_back(cut_schemas_[begin]);
          }
          size_t rr = 0;
          while (true) {
            QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                                 in->Pop(&stats->stall_micros));
            if (!item.has_value()) break;
            for (Row& row : item->rows()) {
              const size_t p = scheme == PartitionScheme::kHash
                                   ? row.HashColumns({hash_col}) % num_parts
                                   : rr++ % num_parts;
              QOX_RETURN_IF_ERROR(
                  EmitRow(std::move(row), &acc[p], part_in[p].get(), stats));
            }
          }
          size_t high_water = 0;
          for (size_t p = 0; p < num_parts; ++p) {
            QOX_RETURN_IF_ERROR(FlushBatch(&acc[p], part_in[p].get(), stats));
            high_water = std::max(high_water, part_in[p]->stats().high_water);
            part_in[p]->Close();
          }
          stats->channel_high_water = high_water;
          return Status::OK();
        });
    // The unit's virtual-CPU accounting: each branch fills its own slot,
    // and the merge records the whole once every branch has finished.
    auto unit_stats = std::make_shared<ParallelUnitStats>();
    unit_stats->range_begin = begin;
    unit_stats->range_end = end;
    unit_stats->partition_micros.assign(num_parts, 0);
    unit_stats->serialized_micros.assign(num_parts, 0);
    const bool ordered = cut_schemas_[end].num_fields() > 0;
    std::vector<BatchChannelPtr> part_out;
    part_out.reserve(num_parts);
    std::vector<StageSet::Stage> branches;
    branches.reserve(num_parts);
    const size_t per_part_rows = expected_rows / num_parts + 1;
    for (size_t p = 0; p < num_parts; ++p) {
      part_out.push_back(stages->MakeChannel(config_.channel_capacity));
      branches.push_back(StageSet::Stage{
          plan_.nodes()[unit.branches[p]].label,
          [this, p, inp = part_in[p], outp = part_out[p], begin, end,
           attempt, per_part_rows, ordered, unit_stats,
           branch_id = unit.branches[p]](StageStats* stats) -> Status {
            const StopWatch timer;
            stats->node_id = static_cast<int64_t>(branch_id);
            QOX_ASSIGN_OR_RETURN(
                std::unique_ptr<Pipeline> pipeline,
                MakePipeline(begin, end, attempt,
                             InputRows(*inp, per_part_rows)));
            RowBatch acc(cut_schemas_[end]);
            // Ordered merges need each branch to emit one sorted run, so
            // the branch buffers + sorts its whole output (a blocking
            // materialization).
            std::vector<Row> run;
            auto emit = [&](std::vector<Row> produced) -> Status {
              if (ordered) {
                run.insert(run.end(),
                           std::make_move_iterator(produced.begin()),
                           std::make_move_iterator(produced.end()));
                return Status::OK();
              }
              for (Row& row : produced) {
                QOX_RETURN_IF_ERROR(
                    EmitRow(std::move(row), &acc, outp.get(), stats));
              }
              return Status::OK();
            };
            while (true) {
              QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                                   inp->Pop(&stats->stall_micros));
              if (!item.has_value()) break;
              QOX_RETURN_IF_ERROR(pipeline->Push(std::move(*item)));
              QOX_RETURN_IF_ERROR(emit(pipeline->TakeOutput()));
            }
            QOX_RETURN_IF_ERROR(pipeline->Finish());
            QOX_RETURN_IF_ERROR(emit(pipeline->TakeOutput()));
            if (ordered) {
              std::stable_sort(run.begin(), run.end(),
                               [](const Row& a, const Row& b) {
                                 return a.value(0).Compare(b.value(0)) < 0;
                               });
              for (Row& row : run) {
                QOX_RETURN_IF_ERROR(
                    EmitRow(std::move(row), &acc, outp.get(), stats));
              }
            }
            QOX_RETURN_IF_ERROR(FlushBatch(&acc, outp.get(), stats));
            AccumulateOpsLocked(pipeline->op_stats());
            // Time inside the delta's snapshot critical section serializes
            // across partitions; the virtual-CPU makespan keeps it serial.
            int64_t serialized = 0;
            for (const OpStats& op : pipeline->op_stats()) {
              if (op.kind == "delta") serialized += op.micros;
            }
            unit_stats->partition_micros[p] = timer.ElapsedMicros() -
                                              stats->stall_micros -
                                              stats->backpressure_micros;
            unit_stats->serialized_micros[p] = serialized;
            stats->channel_high_water = outp->stats().high_water;
            outp->Close();
            return Status::OK();
          }});
    }
    stages->SpawnGroup(std::move(branches));
    BatchChannelPtr out = stages->MakeChannel(config_.channel_capacity);
    SpawnMerge(stages, std::move(part_out), out, end, unit.merge, ordered,
               std::move(unit_stats));
    return out;
  }

  /// K-way merge over the per-partition runs: repeatedly emits the
  /// smallest head row by first-column order, breaking ties toward the
  /// lowest partition index — the order a stable sort of the
  /// partition-ordered concatenation produces. Without `ordered` (an
  /// output with no columns) every row ties, so the partitions concatenate
  /// in index order. Inputs are consumed through a PartitionFeed so
  /// waiting on one partition's next batch never head-of-line blocks the
  /// others (deadlock under partition skew otherwise). On success the
  /// merge records the unit's ParallelUnitStats.
  void SpawnMerge(StageSet* stages, std::vector<BatchChannelPtr> parts,
                  BatchChannelPtr out, size_t end_cut, size_t node_id,
                  bool ordered,
                  std::shared_ptr<ParallelUnitStats> unit_stats) {
    stages->Spawn(
        plan_.nodes()[node_id].label,
        [this, parts, out, end_cut, node_id, ordered,
         unit_stats](StageStats* stats) -> Status {
          const StopWatch timer;
          stats->node_id = static_cast<int64_t>(node_id);
          struct Run {
            std::vector<Row> rows;
            size_t next = 0;
            bool open = true;
          };
          PartitionFeed feed(parts);
          std::vector<Run> runs(parts.size());
          auto refill = [&](size_t p) -> Status {
            Run& run = runs[p];
            while (run.open && run.next >= run.rows.size()) {
              QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                                   feed.Next(p, &stats->stall_micros));
              if (!item.has_value()) {
                run.open = false;
                break;
              }
              run.rows = std::move(item->rows());
              run.next = 0;
            }
            return Status::OK();
          };
          for (size_t p = 0; p < runs.size(); ++p) {
            QOX_RETURN_IF_ERROR(refill(p));
          }
          RowBatch acc(cut_schemas_[end_cut]);
          while (true) {
            int best = -1;
            for (size_t p = 0; p < runs.size(); ++p) {
              if (runs[p].next >= runs[p].rows.size()) continue;
              if (best < 0 ||
                  (ordered &&
                   runs[p].rows[runs[p].next].value(0).Compare(
                       runs[best].rows[runs[best].next].value(0)) < 0)) {
                best = static_cast<int>(p);
              }
            }
            if (best < 0) break;
            Run& run = runs[best];
            QOX_RETURN_IF_ERROR(EmitRow(std::move(run.rows[run.next]), &acc,
                                        out.get(), stats));
            ++run.next;
            QOX_RETURN_IF_ERROR(refill(static_cast<size_t>(best)));
          }
          QOX_RETURN_IF_ERROR(FlushBatch(&acc, out.get(), stats));
          stats->channel_high_water = out->stats().high_water;
          unit_stats->merge_micros = timer.ElapsedMicros() -
                                     stats->stall_micros -
                                     stats->backpressure_micros;
          {
            std::lock_guard<std::mutex> lock(stage_mu_);
            metrics_.parallel_units.push_back(*unit_stats);
          }
          out->Close();
          return Status::OK();
        });
  }

  /// Terminal stage when the load does not run inline: materializes the
  /// dataflow output (the caller's `*out` buffer, cleared per attempt) for
  /// LoadWithRetry or the redundancy voter. It reports under the plan's
  /// sink node: the kCollect feeding the voter, else the kLoad it feeds.
  void SpawnCollectStage(StageSet* stages, BatchChannelPtr in,
                         std::vector<Row>* out) {
    const size_t node_id = plan_.sink_node();
    stages->Spawn("collect", [this, in, out,
                              node_id](StageStats* stats) -> Status {
      stats->node_id = static_cast<int64_t>(node_id);
      out->clear();
      out->reserve(InputRows(*in, 0));
      while (true) {
        QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                             in->Pop(&stats->stall_micros));
        if (!item.has_value()) break;
        stats->rows += item->num_rows();
        ++stats->batches;
        out->insert(out->end(), std::make_move_iterator(item->rows().begin()),
                    std::make_move_iterator(item->rows().end()));
      }
      return Status::OK();
    });
  }

  /// Terminal stage, inline load: appends arriving batches to the target,
  /// skipping the prefix a prior attempt already made durable. Stage
  /// wiring and merges are deterministic, so rows reach the sink in the
  /// same order every attempt and the durable rows are exactly a prefix
  /// of this attempt's arrival sequence (torn writes included — the skip
  /// is recomputed from the target's row count).
  void SpawnLoadStage(StageSet* stages, BatchChannelPtr in, int attempt) {
    const size_t node_id = plan_.load_node();
    stages->Spawn("load", [this, in, attempt,
                           node_id](StageStats* stats) -> Status {
      stats->node_id = static_cast<int64_t>(node_id);
      QOX_ASSIGN_OR_RETURN(const size_t durable, flow_.target->NumRows());
      const size_t skip = durable - load_base_rows_;
      size_t seen = 0;      // rows that reached the sink this attempt
      size_t appended = 0;  // rows durably landed in the target this attempt
      RowBatch acc(cut_schemas_.back());
      auto flush = [&]() -> Status {
        if (acc.empty()) return Status::OK();
        Status st = Status::OK();
        if (config_.injector != nullptr) {
          // Streaming cannot know the final output count up front, so load
          // progress is reported with an unknown total: the injector fires
          // at_fraction > 0 load specs on the first flush after rows
          // flowed (see FailureInjector::Check; EXPERIMENTS.md notes the
          // phased-vs-streaming comparability caveat).
          st = config_.injector->Check(instance_id_, attempt,
                                       FailureSpec::kAtLoad, seen,
                                       /*rows_total=*/0);
        }
        if (st.ok()) st = flow_.target->Append(acc);
        if (st.ok()) {
          appended += acc.num_rows();
          acc.Clear();
          return Status::OK();
        }
        if (st.code() == StatusCode::kResourceExhausted &&
            config_.resource_policy == ResourcePolicy::kShedToQuarantine) {
          // Degrade instead of failing: whatever prefix of the batch the
          // target durably landed (torn writes included) stays; the
          // remainder is shed to the dead-letter ledger with provenance
          // and the stream continues.
          QOX_ASSIGN_OR_RETURN(const size_t rows_now,
                               flow_.target->NumRows());
          const size_t flow_durable = rows_now - load_base_rows_;
          const size_t landed = flow_durable > skip + appended
                                    ? flow_durable - (skip + appended)
                                    : 0;
          for (size_t i = landed; i < acc.num_rows(); ++i) {
            QOX_RETURN_IF_ERROR(ShedRow(acc.row(i), st));
          }
          appended += landed;
          acc.Clear();
          return Status::OK();
        }
        return st;
      };
      while (true) {
        QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                             in->Pop(&stats->stall_micros));
        if (!item.has_value()) break;
        ++stats->batches;
        for (Row& row : item->rows()) {
          ++seen;
          if (seen <= skip) continue;  // durable from a prior attempt
          acc.Append(std::move(row));
          if (acc.num_rows() >= config_.batch_size) {
            QOX_RETURN_IF_ERROR(flush());
          }
        }
      }
      QOX_RETURN_IF_ERROR(flush());
      stats->rows = seen;
      std::lock_guard<std::mutex> lock(stage_mu_);
      metrics_.rows_loaded += seen;
      loaded_inline_ = true;
      return Status::OK();
    });
  }


  /// Charges per-stage busy time to the phase counters. Streaming stages
  /// overlap, so in that mode the phase counters are busy-time aggregates
  /// rather than exclusive wall-clock phases. Staged transform time is
  /// charged by RunDataflow instead: it must be the wall time of a branch
  /// fan-out, not the branches' summed busy time.
  void AttributeStagePhases(const std::vector<StageStats>& stage_stats) {
    for (const StageStats& s : stage_stats) {
      if (s.name == "extract" || s.name == "replay") {
        metrics_.extract_micros += s.busy_micros;
        if (s.name == "extract") metrics_.rows_extracted += s.rows;
      } else if (s.name.rfind("merge", 0) == 0) {
        metrics_.merge_micros += s.busy_micros;
      } else if (config_.streaming && (s.name.rfind("transform", 0) == 0 ||
                                       s.name.rfind("part", 0) == 0)) {
        metrics_.transform_micros += s.busy_micros;
      } else if (s.name == "load") {
        metrics_.load_micros += s.busy_micros;
      }
      // "rp.cut*" barriers: the persist cost is self-accounted by WriteRp;
      // "collect" is hand-off bookkeeping, not a flow phase.
    }
  }

  /// One attempt: spawns a stage per plan node and wires a channel per
  /// edge, then runs the dataflow to completion — concurrently for
  /// streaming plans, staged for phased ones. Resumes from the newest
  /// verifiable recovery point and persists at every barrier cut.
  Status RunDataflow(int attempt, int resume_cut, std::vector<Row>* out) {
    attempt_start_micros_ = NowMicros();
    durable_elapsed_micros_ = 0;
    // Resume from the newest complete recovery point. A point whose
    // checksum fails verification is dropped and resume falls back to the
    // next older complete one (ultimately from scratch) instead of failing
    // the run on its own persisted state.
    std::vector<Row> resume_rows;
    QOX_ASSIGN_OR_RETURN(const int resumed_cut,
                         ResumeFromRp(resume_cut, &resume_rows));
    size_t current_cut =
        resumed_cut >= 0 ? static_cast<size_t>(resumed_cut) : 0;
    // Streaming stages start before their input exists, so their failure
    // fractions need a row-count estimate up front: the source size, or
    // the replayed cut's size. Staged stages count their actual input
    // instead (InputRows).
    size_t expected_rows = resume_rows.size();
    if (config_.streaming && resumed_cut < 0) {
      QOX_ASSIGN_OR_RETURN(expected_rows, flow_.source->NumRows());
    }

    const bool staged = !config_.streaming;
    StageSet stages(exec_, staged);
    BatchChannelPtr cursor = stages.MakeChannel(config_.channel_capacity);
    if (resumed_cut >= 0) {
      SpawnReplayStage(&stages, cursor, std::move(resume_rows), current_cut);
    } else {
      SpawnExtractStage(&stages, cursor, attempt);
      if (plan_.rp_after_extract()) {
        cursor = SpawnBarrierStage(&stages, cursor, 0,
                                   plan_.rp0_barrier_node());
      }
    }
    // A resume cut is always a section boundary; skip completed sections.
    for (const PlanSection& section : plan_.sections()) {
      if (section.end_cut <= current_cut) continue;
      const StopWatch section_timer;
      for (const PlanUnit& unit : section.units) {
        if (unit.parallel) {
          QOX_ASSIGN_OR_RETURN(cursor,
                               SpawnParallelUnit(&stages, cursor, unit,
                                                 attempt, expected_rows));
        } else {
          cursor = SpawnTransformStage(&stages, cursor, unit.begin, unit.end,
                                       attempt, expected_rows, unit.node);
        }
      }
      // Staged units ran inside the calls above, so the section's wall
      // time (router, branch fan-out, and merge included) is its exclusive
      // transform phase; a failed section's time is lost work instead.
      if (staged && !stages.failed()) {
        metrics_.transform_micros += section_timer.ElapsedMicros();
      }
      current_cut = section.end_cut;
      if (section.rp_at_end) {
        cursor = SpawnBarrierStage(&stages, cursor, current_cut,
                                   section.barrier_node);
      }
    }
    if (StreamingInlineLoad()) {
      SpawnLoadStage(&stages, cursor, attempt);
    } else {
      SpawnCollectStage(&stages, cursor, out);
    }
    std::vector<StageStats> stage_stats;
    const Status st = stages.Join(&stage_stats);
    AttributeStagePhases(stage_stats);
    size_t input_rows = 0;  // rows the source stage fed into the dataflow
    for (StageStats& s : stage_stats) {
      if (s.node_id == static_cast<int64_t>(plan_.extract_node())) {
        input_rows = s.rows;
      }
      metrics_.stage_stats.push_back(std::move(s));
    }
    QOX_RETURN_IF_ERROR(st);
    // Transforms have drained: enforce the budget's fractional ceiling
    // before the output leaves the attempt. With an inline-load sink the
    // rows are already durable by now — a caveat EXPERIMENTS.md documents.
    return budget_state_.CheckFraction(input_rows);
  }

  const FlowSpec& flow_;
  const ExecutionConfig& config_;
  const ExecutionPlan& plan_;
  const std::vector<Schema>& cut_schemas_;
  /// Execution substrate + scheduling tag (flow deadline) for every task
  /// this instance submits.
  ExecContext exec_;
  const int instance_id_;
  std::atomic<bool>* cancelled_;
  OperatorContext ctx_;
  RunMetrics metrics_;
  std::atomic<size_t> rejected_{0};
  /// Shared-dimension-cache and kernel-run accounting, bumped by
  /// operators/pipelines across all attempts of this instance.
  std::atomic<size_t> dim_cache_builds_{0};
  std::atomic<size_t> dim_cache_hits_{0};
  std::atomic<size_t> columnar_batches_{0};
  std::atomic<size_t> columnar_rows_{0};
  std::atomic<int64_t> current_attempt_{1};
  Rng backoff_rng_;
  /// Shared containment state: charged concurrently by every pipeline of
  /// the current attempt, reset at attempt start.
  ErrorBudgetState budget_state_;
  /// Byte accountant shared by every pipeline of this instance; usage is
  /// reset at attempt start (the high-water mark spans the run).
  MemoryBudget memory_budget_;
  /// Spill-run registry for this instance (its own subdirectory, so
  /// redundant instances never collide on run names).
  SpillManager spill_;
  QuarantineSink quarantine_sink_;  ///< null when no dead_letter configured
  std::atomic<int64_t> quarantine_seq_{0};
  int64_t attempt_start_micros_ = 0;
  int64_t durable_elapsed_micros_ = 0;
  int64_t attempt_deadline_micros_ = 0;
  /// Serializes metrics_ (and WriteRp's durable-progress bookkeeping)
  /// across stage threads.
  std::mutex stage_mu_;
  /// Streaming inline load: target row count before the first attempt.
  size_t load_base_rows_ = 0;
  bool loaded_inline_ = false;
  /// Durable lifecycle WAL; null when not journaling (or instance > 0).
  FlowJournal* journal_ = nullptr;
};

/// Loads `rows` into the target with transient-failure retry: rows already
/// durably appended are not re-appended (incremental restart). Progress is
/// re-derived from the target after each failed append, so a torn write
/// that durably landed part of a batch is not loaded twice.
Status LoadWithRetry(const FlowSpec& flow, const ExecutionConfig& config,
                     const std::vector<Row>& rows, const Schema& schema,
                     RunMetrics* metrics) {
  const StopWatch timer;
  const RetryPolicy& policy = config.retry;
  const size_t max_attempts = std::max<size_t>(1, policy.max_attempts);
  Rng backoff_rng(policy.jitter_seed ^ 0x10adULL);
  size_t base_rows = 0;
  size_t loaded = 0;
  if (config.resume.has_load_base) {
    // Cross-process resume: the journaled pre-flow baseline. Rows beyond
    // it are a durable prefix of THIS flow's (deterministic) output,
    // landed by a dead incarnation — skip them instead of re-appending.
    base_rows = config.resume.load_base_rows;
    QOX_ASSIGN_OR_RETURN(const size_t rows_now, flow.target->NumRows());
    if (rows_now > base_rows) {
      loaded = std::min(rows.size(), rows_now - base_rows);
    }
  } else {
    QOX_ASSIGN_OR_RETURN(base_rows, flow.target->NumRows());
  }
  const size_t already_loaded = loaded;
  size_t shed = 0;  // rows diverted to the dead-letter ledger, not landed
  size_t attempt = 1;
  while (loaded < rows.size()) {
    const size_t batch_begin = loaded;
    const size_t n = std::min(config.batch_size, rows.size() - loaded);
    Status st = Status::OK();
    if (config.injector != nullptr) {
      st = config.injector->Check(/*instance=*/0, static_cast<int>(attempt),
                                  FailureSpec::kAtLoad, loaded + n,
                                  rows.size());
    }
    if (st.ok()) {
      RowBatch batch(schema);
      for (size_t i = 0; i < n; ++i) batch.Append(rows[loaded + i]);
      st = flow.target->Append(batch);
      if (st.ok()) {
        loaded += n;
        continue;
      }
    }
    if (st.IsInjectedFailure()) ++metrics->failures_injected;
    if (st.code() == StatusCode::kResourceExhausted &&
        config.resource_policy == ResourcePolicy::kShedToQuarantine) {
      // Degraded load: keep whatever prefix of the batch the target
      // durably landed, shed the remainder to the dead-letter ledger with
      // provenance, and move on. The flow error budget caps the shedding.
      QOX_ASSIGN_OR_RETURN(const size_t rows_now, flow.target->NumRows());
      if (rows_now > base_rows) {
        loaded = std::max(loaded, rows_now - base_rows);
      }
      for (size_t i = loaded; i < batch_begin + n; ++i) {
        if (config.dead_letter != nullptr) {
          QuarantineRecord record;
          record.flow_id = flow.id;
          record.op_index = static_cast<int64_t>(flow.transforms.size());
          record.op_name = "load";
          record.attempt = static_cast<int64_t>(attempt);
          record.row_index = static_cast<int64_t>(i);
          record.status_code = StatusCodeName(st.code());
          record.status_message = st.message();
          record.payload = EncodeQuarantinePayload(rows[i]);
          QOX_RETURN_IF_ERROR(config.dead_letter->Quarantine(record));
        }
        ++metrics->rows_shed;
        ++metrics->rows_quarantined;
        ++shed;
      }
      loaded = batch_begin + n;
      if (metrics->rows_skipped + metrics->rows_quarantined >
          config.error_budget.max_rows) {
        metrics->load_micros += timer.ElapsedMicros();
        return Status::ErrorBudgetExceeded(
            "error budget exhausted: " +
            std::to_string(metrics->rows_skipped +
                           metrics->rows_quarantined) +
            " rows contained (max " +
            std::to_string(config.error_budget.max_rows) +
            "), last shed at the load boundary");
      }
      continue;
    }
    // kPauseRetry reclassifies resource exhaustion as transient: back off
    // (waiting for the operator to free disk) and retry the batch.
    const bool retryable =
        IsTransient(st) ||
        (config.resource_policy == ResourcePolicy::kPauseRetry &&
         st.code() == StatusCode::kResourceExhausted);
    if (!retryable || attempt >= max_attempts) {
      metrics->load_micros += timer.ElapsedMicros();
      return st;
    }
    ++metrics->retries_by_cause[StatusCodeName(st.code())];
    // A torn write may have durably appended a prefix of the failed batch;
    // resync progress from the target so those rows are not re-loaded.
    QOX_ASSIGN_OR_RETURN(const size_t rows_now, flow.target->NumRows());
    if (rows_now > base_rows) {
      loaded = std::max(loaded, rows_now - base_rows);
    }
    WaitBackoff(policy, attempt, &backoff_rng, metrics);
    ++attempt;
  }
  metrics->load_micros += timer.ElapsedMicros();
  metrics->rows_loaded += rows.size() - already_loaded - shed;
  return Status::OK();
}

/// Builds the planner input from flow + config. Blocking flags come from
/// freshly instantiated operators, so the plan's soft barriers match the
/// chain that actually executes.
PlanInput MakePlanInput(const FlowSpec& flow, const ExecutionConfig& config) {
  PlanInput input;
  input.num_ops = flow.transforms.size();
  input.blocking.reserve(flow.transforms.size());
  for (const OperatorFactory& factory : flow.transforms) {
    input.blocking.push_back(factory ? factory()->IsBlocking() : false);
  }
  input.parallel = config.parallel;
  input.recovery_points = config.recovery_points;
  input.redundancy = config.redundancy;
  input.streaming = config.streaming;
  input.channel_capacity = config.channel_capacity;
  input.error_policies = config.error_policies;
  input.error_budget = config.error_budget;
  input.journaled = config.journal != nullptr;
  if (config.journal != nullptr) {
    input.journal_sync = config.journal->sync_policy();
  }
  input.sla_deadline_micros = config.sla.deadline_micros;
  return input;
}

/// Instance dispatch, redundancy 1: a single FlowRunner with retries.
Status RunSingleInstance(const FlowSpec& flow, const ExecutionConfig& config,
                         const ExecutionPlan& plan,
                         const std::vector<Schema>& cut_schemas,
                         const ExecContext& exec, std::vector<Row>* output,
                         bool* loaded_inline, RunMetrics* metrics) {
  std::atomic<bool> cancelled{false};
  FlowRunner runner(flow, config, plan, cut_schemas, exec, /*instance_id=*/0,
                    &cancelled);
  QOX_RETURN_IF_ERROR(runner.RunToOutput(output));
  *loaded_inline = runner.loaded_inline();
  *metrics = runner.metrics();
  metrics->rows_rejected = runner.rejected();
  return Status::OK();
}

/// Instance dispatch, n-modular redundancy: k instances race over the
/// same plan; a majority vote over the output fingerprints accepts a
/// result and cancels the stragglers.
Status RunRedundantInstances(const FlowSpec& flow,
                             const ExecutionConfig& config,
                             const ExecutionPlan& plan,
                             const std::vector<Schema>& cut_schemas,
                             const ExecContext& exec, std::vector<Row>* output,
                             RunMetrics* metrics) {
  const size_t k = config.redundancy;
  const size_t majority = k / 2 + 1;
  std::atomic<bool> cancelled{false};
  struct InstanceSlot {
    std::unique_ptr<FlowRunner> runner;
    std::vector<Row> output;
    Status status = Status::OK();
    bool done = false;
  };
  std::vector<InstanceSlot> slots(k);
  std::mutex vote_mu;
  std::condition_variable vote_cv;
  size_t done_count = 0;
  for (size_t i = 0; i < k; ++i) {
    slots[i].runner = std::make_unique<FlowRunner>(
        flow, config, plan, cut_schemas, exec, static_cast<int>(i),
        &cancelled);
  }
  // Instance drivers are long-lived and park on retries/backoff, so they
  // run as blocking tasks (expansion workers), never starving core workers
  // other flows' CPU work needs.
  TaskGroup instances(exec.pool());
  for (size_t i = 0; i < k; ++i) {
    exec.Post(
        [&, i] {
          InstanceSlot& slot = slots[i];
          slot.status = slot.runner->RunToOutput(&slot.output);
          std::lock_guard<std::mutex> lock(vote_mu);
          slot.done = true;
          ++done_count;
          vote_cv.notify_all();
        },
        &instances, /*blocking=*/true);
  }
  // Wait until a fingerprint reaches majority or all instances finished.
  int accepted_instance = -1;
  {
    std::unique_lock<std::mutex> lock(vote_mu);
    while (true) {
      std::map<size_t, std::vector<size_t>> votes;  // fingerprint -> ids
      for (size_t i = 0; i < k; ++i) {
        if (slots[i].done && slots[i].status.ok()) {
          votes[FingerprintRows(slots[i].output)].push_back(i);
        }
      }
      for (const auto& [fp, ids] : votes) {
        if (ids.size() >= majority) {
          accepted_instance = static_cast<int>(ids.front());
          break;
        }
      }
      if (accepted_instance >= 0 || done_count == k) break;
      vote_cv.wait(lock);
    }
  }
  cancelled.store(true);  // stop stragglers
  instances.Wait();
  if (accepted_instance < 0) {
    // No majority: report the first hard error, else a vote failure.
    for (const InstanceSlot& slot : slots) {
      if (!slot.status.ok() && !slot.status.IsInjectedFailure() &&
          slot.status.code() != StatusCode::kCancelled) {
        return slot.status;
      }
    }
    return Status::Internal("redundancy vote failed: no majority among " +
                            std::to_string(k) + " instances");
  }
  *output = std::move(slots[accepted_instance].output);
  *metrics = slots[accepted_instance].runner->metrics();
  metrics->rows_rejected = slots[accepted_instance].runner->rejected();
  // Failures that killed minority instances still count.
  size_t failures = 0;
  for (const InstanceSlot& slot : slots) {
    failures += slot.runner->metrics().failures_injected;
  }
  metrics->failures_injected = failures;
  return Status::OK();
}

}  // namespace

Result<std::vector<Schema>> Executor::BindChain(const FlowSpec& flow,
                                                const ExecutionConfig& config) {
  if (flow.source == nullptr) return Status::Invalid("flow has no source");
  if (flow.target == nullptr) return Status::Invalid("flow has no target");
  std::vector<Schema> schemas;
  schemas.reserve(flow.transforms.size() + 1);
  schemas.push_back(flow.source->schema());
  for (size_t i = 0; i < flow.transforms.size(); ++i) {
    const OperatorFactory& factory = flow.transforms[i];
    if (!factory) {
      return Status::Invalid("null operator factory at position " +
                             std::to_string(i));
    }
    OperatorPtr op = factory();
    QOX_ASSIGN_OR_RETURN(Schema out, op->Bind(schemas.back()));
    schemas.push_back(std::move(out));
  }
  if (schemas.back() != flow.target->schema()) {
    return Status::Invalid(
        "flow '" + flow.id + "' output schema [" + schemas.back().ToString() +
        "] does not match target schema [" + flow.target->schema().ToString() +
        "]");
  }
  // Config validation.
  if (config.parallel.partitions == 0) {
    return Status::Invalid("partitions must be >= 1");
  }
  if (config.parallel.partitions > 1 &&
      config.parallel.scheme == PartitionScheme::kHash) {
    const size_t begin =
        std::min(config.parallel.range_begin, flow.transforms.size());
    if (!schemas[begin].HasField(config.parallel.hash_column)) {
      return Status::Invalid("hash partition column '" +
                             config.parallel.hash_column +
                             "' absent at the parallel range start");
    }
  }
  for (const size_t cut : config.recovery_points) {
    if (cut > flow.transforms.size()) {
      return Status::Invalid("recovery point cut " + std::to_string(cut) +
                             " beyond chain length " +
                             std::to_string(flow.transforms.size()));
    }
  }
  if (!config.recovery_points.empty() && config.rp_store == nullptr) {
    return Status::Invalid("recovery points configured without an rp_store");
  }
  if (config.redundancy == 0) return Status::Invalid("redundancy must be >= 1");
  if (config.retry.multiplier < 1.0) {
    return Status::Invalid("retry backoff multiplier must be >= 1");
  }
  if (config.retry.jitter < 0.0 || config.retry.jitter > 1.0) {
    return Status::Invalid("retry jitter must be in [0, 1]");
  }
  if (config.retry.initial_backoff_micros < 0 ||
      config.retry.max_backoff_micros < 0 ||
      config.retry.attempt_deadline_micros < 0) {
    return Status::Invalid("retry backoff/deadline durations must be >= 0");
  }
  if (config.reject_store != nullptr &&
      config.reject_store->schema() != RejectStoreSchema()) {
    return Status::Invalid("reject_store must have RejectStoreSchema()");
  }
  if (config.error_policies.size() > flow.transforms.size()) {
    return Status::Invalid(
        "error policies cover " + std::to_string(config.error_policies.size()) +
        " ops but the chain has " + std::to_string(flow.transforms.size()));
  }
  if (config.error_budget.max_fraction < 0.0 ||
      config.error_budget.max_fraction > 1.0) {
    return Status::Invalid("error budget max_fraction must lie in [0, 1]");
  }
  return schemas;
}

Result<ExecutionPlan> Executor::LowerPlan(const FlowSpec& flow,
                                          const ExecutionConfig& config) {
  QOX_RETURN_IF_ERROR(BindChain(flow, config).status());
  return ExecutionPlan::Lower(MakePlanInput(flow, config));
}

Result<RunMetrics> Executor::Run(const FlowSpec& flow,
                                 const ExecutionConfig& original_config) {
  const StopWatch total_timer;
  ExecutionConfig config = original_config;
  if (config.memory_budget_bytes == 0) {
    // The QOX_MEM_BUDGET environment override lets any experiment or test
    // run memory-bounded without touching its config plumbing.
    config.memory_budget_bytes = MemoryBudgetFromEnv();
  }
  if (config.memory_budget_bytes > 0 && config.spill_dir.empty()) {
    config.spill_dir = std::filesystem::temp_directory_path().string() +
                       "/qox_spill_" + flow.id + "." +
                       std::to_string(::getpid());
  }
  if (config.journal != nullptr) {
    // Sweep spill directories a dead incarnation journaled: a SIGKILL
    // mid-spill leaves `.spill` / `.spill.tmp` orphans behind, and they
    // must not accumulate across supervised restarts.
    for (const std::string& dir : config.journal->state().spill_dirs) {
      QOX_RETURN_IF_ERROR(SpillManager::CleanupDir(dir).status());
    }
  }
  if (config.journal != nullptr && !config.resume.has_load_base) {
    // First incarnation of a journaled flow: seal the pre-load target row
    // count before any work, so every successor can tell durable flow
    // output apart from pre-existing target rows.
    QOX_ASSIGN_OR_RETURN(const size_t base, flow.target->NumRows());
    QOX_RETURN_IF_ERROR(config.journal->RecordLoadBase(base));
    config.resume.has_load_base = true;
    config.resume.load_base_rows = base;
  }
  const size_t rp_bytes_before =
      config.rp_store != nullptr ? config.rp_store->total_bytes_written() : 0;
  // Validate, lower to the shared ExecutionPlan IR, then run the plan on
  // one FlowRunner per instance.
  QOX_ASSIGN_OR_RETURN(const std::vector<Schema> cut_schemas,
                       BindChain(flow, config));
  QOX_ASSIGN_OR_RETURN(const ExecutionPlan plan,
                       ExecutionPlan::Lower(MakePlanInput(flow, config)));
  // Execution substrate: the caller's shared pool (FlowService) or a
  // private one sized by num_threads — the solo behavior. Either way every
  // task of this flow carries the flow's absolute deadline, so a shared
  // pool can order runnable work across flows EDF.
  std::unique_ptr<WorkerPool> owned_pool;
  WorkerPool* pool = config.worker_pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<WorkerPool>(config.num_threads);
    pool = owned_pool.get();
  }
  TaskTag tag;
  tag.deadline_micros =
      config.sla.absolute_deadline_micros > 0
          ? config.sla.absolute_deadline_micros
          : (config.sla.deadline_micros > 0
                 ? NowMicros() + config.sla.deadline_micros
                 : 0);
  const ExecContext exec(pool, tag);

  RunMetrics metrics;
  std::vector<Row> accepted_output;
  bool loaded_inline = false;
  if (config.redundancy <= 1) {
    QOX_RETURN_IF_ERROR(RunSingleInstance(flow, config, plan, cut_schemas,
                                          exec, &accepted_output,
                                          &loaded_inline, &metrics));
  } else {
    QOX_RETURN_IF_ERROR(RunRedundantInstances(flow, config, plan, cut_schemas,
                                              exec, &accepted_output,
                                              &metrics));
  }
  metrics.threads = config.num_threads;
  metrics.partitions = config.parallel.partitions;
  metrics.redundancy = config.redundancy;

  if (!loaded_inline) {
    QOX_RETURN_IF_ERROR(LoadWithRetry(flow, config, accepted_output,
                                      cut_schemas.back(), &metrics));
  }
  if (flow.post_success) {
    QOX_RETURN_IF_ERROR(flow.post_success());
  }
  if (config.rp_store != nullptr) {
    QOX_RETURN_IF_ERROR(config.rp_store->DropFlow(flow.id));
  }
  if (config.journal != nullptr) {
    // The commit record is the last durability boundary: a crash anywhere
    // before it re-runs the (idempotent) tail — the durable-prefix skip
    // appends nothing and post_success hooks must tolerate re-execution.
    QOX_RETURN_IF_ERROR(config.journal->RecordFlowCommit());
    QOX_RETURN_IF_ERROR(config.journal->Compact());
  }
  metrics.total_micros = total_timer.ElapsedMicros();
  if (tag.deadline_micros > 0) {
    metrics.deadline_slack_micros = tag.deadline_micros - NowMicros();
  }
  if (config.rp_store != nullptr) {
    metrics.rp_bytes_written =
        config.rp_store->total_bytes_written() - rp_bytes_before;
  }
  return metrics;
}

}  // namespace qox
