#include "engine/executor.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <string_view>
#include <thread>

#include "common/clock.h"
#include "engine/memory_budget.h"
#include "engine/ops/delta_op.h"
#include "engine/ops/group_op.h"
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

/// The landings an attempt's Δs compared, by snapshot and then by
/// partition: part 0 for a Δ outside a partitioned range, one part per
/// branch inside a hash range, whose parts hold disjoint keys. Resume
/// marks made after a Δ ran share its parts.
using StagedLandings =
    std::map<SnapshotStorePtr, std::map<size_t, std::shared_ptr<Landing>>>;

/// The landings a successful run commits, one per Δ snapshot.
using CommitLandings = std::vector<std::pair<SnapshotStorePtr, Landing>>;

/// Per-instance flow execution: one attempt driver over the lowered
/// ExecutionPlan with recovery semantics. Every attempt spawns one stage
/// per plan node and wires one channel per edge, from the source (or the
/// newest recovery point) through the load; the plan's streaming property
/// only picks the StageSet mode. Streaming runs the stages as concurrent
/// blocking tasks on bounded channels; phased plans run staged — each
/// stage to completion on this thread, a partitioned unit's branches
/// fanned out together. A redundant instance's first attempt ends at the
/// collect stage instead, and only the vote's winner goes on to load.
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
    ctx_.stage_landing = [this](const SnapshotStorePtr& store,
                                size_t partition, Landing landing) {
      StageLanding(store, partition, std::move(landing));
    };
    for (first_delta_ = 0; first_delta_ < NumOps(); ++first_delta_) {
      const OperatorPtr op = flow_.transforms[first_delta_]();
      if (std::string_view(op->kind()) == "delta") break;
    }
    metrics_.streaming = config_.streaming;
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

  /// Runs the flow through its load, retrying failed attempts. Metrics
  /// cover this instance only.
  Status Run() {
    QOX_RETURN_IF_ERROR(ReadLoadBase());
    return RunAttempts(/*begun=*/false);
  }

  /// A redundant instance: one attempt up to the collect stage, which
  /// fills `*out` for the voter. The attempt stays open; the vote's winner
  /// finishes it in LoadVoted.
  Status RunToVote(std::vector<Row>* out) {
    vote_out_ = out;
    return RunAttempts(/*begun=*/false);
  }

  /// The vote's winner: continues its attempt into the load of `rows`, the
  /// accepted output, with the retry policy's attempt budget. A failed load
  /// resumes from `rows` as from an in-memory recovery point at the last
  /// cut. The load reads `rows` in place, so they must outlive the call.
  Status LoadVoted(const std::vector<Row>& rows) {
    vote_out_ = nullptr;
    voted_ = &rows;
    // Every instance has finished, so the winner's attempts take over the
    // flow's journal: instance 0 recorded this attempt's start.
    journal_ = config_.journal.get();
    QOX_RETURN_IF_ERROR(ReadLoadBase());
    return RunAttempts(/*begun=*/true);
  }

  RunMetrics& metrics() { return metrics_; }
  size_t rejected() const { return rejected_.load(); }

  /// Hands over the landings of the run's successful attempt, each Δ's
  /// key-disjoint parts appended in partition order.
  Result<CommitLandings> TakeLandings() {
    budget_marks_.clear();  // the parts are now held by landings_ alone
    CommitLandings out;
    for (auto& [store, parts] : landings_) {
      auto part = parts.begin();
      Landing folded = std::move(*part->second);
      for (++part; part != parts.end(); ++part) {
        QOX_RETURN_IF_ERROR(folded.Absorb(std::move(*part->second)));
      }
      out.emplace_back(store, std::move(folded));
    }
    landings_.clear();
    return out;
  }

  /// Frees the landings a losing redundant instance staged.
  void DropLandings() {
    budget_marks_.clear();
    landings_.clear();
  }

 private:
  size_t NumOps() const { return flow_.transforms.size(); }

  /// Reads the target's row count once, before the first load. Rows beyond
  /// the baseline are this flow's output: on a cross-process resume the
  /// baseline is the count journaled before the flow's first load, and the
  /// rows beyond it are a durable prefix a dead incarnation landed. The
  /// first load stage starts from this count instead of reading it again.
  Status ReadLoadBase() {
    QOX_ASSIGN_OR_RETURN(const size_t rows, flow_.target->NumRows());
    load_base_rows_ = config_.resume.has_load_base
                          ? config_.resume.load_base_rows
                          : rows;
    resumed_prefix_rows_ = rows - load_base_rows_;
    target_rows_ = rows;
    return Status::OK();
  }

  /// The attempt loop: runs attempts until one succeeds, a failure is not
  /// retryable, or the attempt budget is spent; every failed attempt backs
  /// off and resumes from the newest recovery point. `begun`: the current
  /// attempt is already under way (the vote's winner continuing into its
  /// load), so its bookkeeping is not reset.
  Status RunAttempts(bool begun) {
    const RetryPolicy& policy = config_.retry;
    if (!begun && !memory_budget_.unlimited() && journal_ != nullptr) {
      // Durable before any spill write: a SIGKILL mid-spill must leave the
      // successor a pointer to the orphaned `.spill.tmp` files.
      QOX_RETURN_IF_ERROR(journal_->RecordSpillDir(spill_.dir()));
    }
    // Attempt numbering continues where dead incarnations stopped, so the
    // retry budget spans process boundaries.
    size_t attempt = begun ? metrics_.attempts
                           : config_.resume.prior_attempts + 1;
    while (true) {
      const int resume_cut = FindResumeCut(static_cast<int>(NumOps()) + 1);
      if (!begun) {
        metrics_.attempts = attempt;
        current_attempt_.store(static_cast<int64_t>(attempt));
        attempt_deadline_micros_ =
            policy.attempt_deadline_micros > 0
                ? NowMicros() + policy.attempt_deadline_micros
                : 0;
        // Memory accounting is per attempt: a failed attempt's operators
        // may die before releasing their charges.
        memory_budget_.ResetUsage();
        if (journal_ != nullptr) {
          QOX_RETURN_IF_ERROR(journal_->RecordAttemptStart(
              attempt, config_.streaming, resume_cut));
        }
      }
      begun = false;
      const StopWatch attempt_timer;
      const Status st = RunDataflow(static_cast<int>(attempt), resume_cut);
      // Spill runs are strictly intra-attempt temporaries: delete them on
      // every exit from an attempt, successful or not (best effort on the
      // failure path — a dangling file must not mask the attempt verdict;
      // the restart sweep catches what this misses).
      (void)spill_.RemoveAll();
      if (st.ok()) {
        if (vote_out_ != nullptr) return Status::OK();  // open for the vote
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
      // One instance failing does not end a redundant run's attempt: the
      // vote's winner ends it. Best effort on the failure path: the
      // attempt's verdict must not be masked by a journal I/O error.
      if (journal_ != nullptr && vote_out_ == nullptr) {
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
      // Redundancy replaces recovery until the vote: an instance gets one
      // attempt, and only the winner's load retries.
      const size_t max_attempts =
          vote_out_ != nullptr ? 1 : std::max<size_t>(1, policy.max_attempts);
      if (!retryable || attempt >= max_attempts) return st;
      ++metrics_.retries_by_cause[StatusCodeName(st.code())];
      // Lost work = rework: the part of the attempt NOT durably saved by
      // a recovery point written during it.
      metrics_.lost_work_micros += std::max<int64_t>(
          0, attempt_timer.ElapsedMicros() - durable_elapsed_micros_);
      const int64_t wait = policy.BackoffMicros(attempt, &backoff_rng_);
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(wait));
        metrics_.backoff_micros += wait;
      }
      ++attempt;
    }
  }

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
  /// candidate cuts are the plan's (deduplicated, sorted) barrier cuts;
  /// the voted output is an in-memory point at the last cut. A point past
  /// a Δ qualifies only if this runner made it: its mark holds the landing
  /// the Δ compared, which the run commits. A point an earlier run or a
  /// dead process left has no mark, so the run resumes below the Δ and
  /// the Δ runs again.
  int FindResumeCut(int below) const {
    if (voted_ != nullptr) return static_cast<int>(NumOps());
    if (config_.rp_store == nullptr) return -1;
    int best = -1;
    for (const size_t cut : plan_.rp_cuts()) {
      if (static_cast<int>(cut) >= below) break;
      if (cut > first_delta_ &&
          !budget_marks_.contains(static_cast<int>(cut))) {
        continue;
      }
      if (config_.rp_store->Has(
              {flow_.id, CutPointId(instance_id_, cut)})) {
        best = static_cast<int>(cut);
      }
    }
    return best;
  }

  /// Records the budget's standing and the landings staged so far at the
  /// point made at `cut` (a recovery point, or the voted output): every Δ
  /// upstream of it has finished, and no stage downstream of it has seen a
  /// row yet. Callers hold stage_mu_.
  void MarkBudget(size_t cut) {
    budget_marks_[static_cast<int>(cut)] = BudgetMark{
        budget_state_.skipped(), budget_state_.quarantined() - shed_before_,
        fed_rows_, landings_};
  }

  /// Keeps the landing a Δ of this attempt compared
  /// (OperatorContext::stage_landing).
  void StageLanding(const SnapshotStorePtr& store, size_t partition,
                    Landing landing) {
    auto part = std::make_shared<Landing>(std::move(landing));
    std::lock_guard<std::mutex> lock(stage_mu_);
    landings_[store][partition] = std::move(part);
  }

  Status WriteRp(size_t cut, const std::vector<Row>& rows) {
    const StopWatch timer;
    QOX_RETURN_IF_ERROR(config_.rp_store->Save(
        {flow_.id, CutPointId(instance_id_, cut)}, cut_schemas_[cut], rows));
    MarkBudget(cut);
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
  // (engine/streaming.h): source (extract, or a replay of a recovery point
  // or of the voted output) → transform units split exactly as the plan's
  // sections split them → recovery-point barriers → sink (the load, or a
  // collector handing a redundant instance's output to the voter).
  // Streaming plans run the stages concurrently on bounded channels;
  // phased plans run them staged, one after another on this thread. Stage
  // bodies never touch metrics_ except under stage_mu_; phase counters are
  // attributed from per-stage busy time after Join. Blocking operators
  // (inside pipelines) and recovery-point barriers are the only full
  // materialization points of a streaming run.

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
  /// failure-fraction denominators; `ctx` (default: the instance's) is a
  /// partition branch's own copy.
  Result<std::unique_ptr<Pipeline>> MakePipeline(
      size_t begin, size_t end, int attempt, size_t expected_rows,
      OperatorContext* ctx = nullptr) {
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
    return Pipeline::Create(cut_schemas_[begin], std::move(ops),
                            ctx != nullptr ? ctx : &ctx_, pc);
  }

  void AccumulateOpsLocked(const std::vector<OpStats>& stats) {
    std::lock_guard<std::mutex> lock(stage_mu_);
    for (const OpStats& s : stats) metrics_.AccumulateOp(s);
  }

  /// Source stage: scans the source, streaming batches into `out`. On a
  /// pool of several core workers the source decodes or copies its batches
  /// as CPU tasks of this flow (a BulkExecute fan-out under the flow's
  /// deadline tag) and hands them over here in order. One worker has no
  /// parallelism to offer, only a hand-off of every row to another core,
  /// so there the scan stays serial on this thread. The stage never runs
  /// on a core worker (a blocking task, or the runner's thread when
  /// staged), so the fan-out's wait does not help: no other task runs
  /// under a store lock the scan holds. `total` is the source's row count,
  /// the injector's extraction-fraction denominator (unused without an
  /// injector).
  void SpawnExtractStage(StageSet* stages, BatchChannelPtr out, int attempt,
                         size_t total) {
    const size_t node_id = plan_.extract_node();
    stages->Spawn("extract", [this, out, attempt, total,
                              node_id](StageStats* stats) -> Status {
      stats->node_id = static_cast<int64_t>(node_id);
      if (config_.injector != nullptr) {
        // Report the phase start before scanning: an empty source never
        // invokes the scan consumer, so a failure placed at extraction
        // fraction 0 would otherwise never get a chance to fire.
        QOX_RETURN_IF_ERROR(config_.injector->Check(
            instance_id_, attempt, /*op_index=*/-1, 0, total));
      }
      const DataStore::FanOut pooled =
          [this](size_t n, const std::function<void(size_t)>& fn) {
            exec_.BulkExecute(n, fn);
          };
      const bool parallel =
          exec_.pool() != nullptr && exec_.pool()->num_workers() > 1;
      size_t seen = 0;
      QOX_RETURN_IF_ERROR(flow_.source->Scan(
          config_.batch_size, parallel ? pooled : DataStore::SerialFanOut(),
          [&](RowBatch& batch) -> Status {
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
      fed_rows_ = stats->rows;
      stats->channel_high_water = out->stats().high_water;
      out->Close();
      return Status::OK();
    });
  }

  /// Source stage variant: replays a recovery point's rows at `cut` into
  /// the dataflow. It stands in for the extract node and reports under its
  /// plan id as "replay".
  void SpawnReplayStage(StageSet* stages, BatchChannelPtr out,
                        std::vector<Row> rows, size_t cut) {
    const size_t node_id = plan_.extract_node();
    auto replay = std::make_shared<std::vector<Row>>(std::move(rows));
    stages->Spawn("replay", [this, out, replay, cut,
                             node_id](StageStats* stats) -> Status {
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


  /// Partitioned unit over ops [begin, end) on a fixed batch schedule: the
  /// router deals every input batch out as exactly one slice per partition
  /// (contiguous rows for round robin, hash-selected rows for hash), each
  /// branch pushes exactly one output batch per slice plus one after
  /// Finish, and the merge (SpawnMerge) takes one batch from each partition
  /// in turn. Round-robin ranges of per-row ops thus emit the serial run's
  /// rows in serial order. The branches run as one stage group, so a staged
  /// run fans them out together.
  Result<BatchChannelPtr> SpawnParallelUnit(StageSet* stages,
                                            BatchChannelPtr in,
                                            const PlanUnit& unit, int attempt,
                                            size_t expected_rows) {
    const size_t begin = unit.begin;
    const size_t end = unit.end;
    const size_t num_parts = config_.parallel.partitions;
    const bool hash = config_.parallel.scheme == PartitionScheme::kHash;
    std::vector<size_t> hash_cols;
    if (hash) {
      QOX_ASSIGN_OR_RETURN(const size_t hash_col,
                           cut_schemas_[begin].FieldIndex(
                               config_.parallel.hash_column));
      hash_cols.push_back(hash_col);
    }
    std::vector<BatchChannelPtr> part_in;
    part_in.reserve(num_parts);
    for (size_t p = 0; p < num_parts; ++p) {
      part_in.push_back(stages->MakeChannel(config_.channel_capacity));
    }
    stages->Spawn(
        plan_.nodes()[unit.router].label,
        [in, part_in, hash, hash_cols,
         router_id = unit.router](StageStats* stats) -> Status {
          stats->node_id = static_cast<int64_t>(router_id);
          const size_t num_parts = part_in.size();
          while (true) {
            QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                                 in->Pop(&stats->stall_micros));
            if (!item.has_value()) break;
            const size_t n = item->num_rows();
            std::vector<RowBatch> slices(num_parts,
                                         RowBatch(item->schema_ptr()));
            for (RowBatch& slice : slices) {
              slice.rows().reserve(n / num_parts + 1);
            }
            for (size_t i = 0; i < n; ++i) {
              Row& row = item->rows()[i];
              const size_t p = hash ? row.HashColumns(hash_cols) % num_parts
                                    : i * num_parts / n;
              slices[p].Append(std::move(row));
            }
            for (size_t p = 0; p < num_parts; ++p) {
              stats->rows += slices[p].num_rows();
              ++stats->batches;
              QOX_RETURN_IF_ERROR(part_in[p]->Push(
                  std::move(slices[p]), &stats->backpressure_micros));
            }
          }
          size_t high_water = 0;
          for (const BatchChannelPtr& part : part_in) {
            high_water = std::max(high_water, part->stats().high_water);
            part->Close();
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
    const SchemaPtr out_schema = MakeSchemaPtr(cut_schemas_[end]);
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
           attempt, per_part_rows, out_schema, unit_stats,
           branch_id = unit.branches[p]](StageStats* stats) -> Status {
            const StopWatch timer;
            stats->node_id = static_cast<int64_t>(branch_id);
            OperatorContext branch_ctx = ctx_;
            branch_ctx.partition = p;
            QOX_ASSIGN_OR_RETURN(
                std::unique_ptr<Pipeline> pipeline,
                MakePipeline(begin, end, attempt,
                             InputRows(*inp, per_part_rows), &branch_ctx));
            // One output batch per input slice, empty or not: the merge
            // relies on every branch keeping the router's schedule.
            auto emit = [&]() -> Status {
              RowBatch batch(out_schema, pipeline->TakeOutput());
              stats->rows += batch.num_rows();
              ++stats->batches;
              return outp->Push(std::move(batch), &stats->backpressure_micros);
            };
            while (true) {
              QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                                   inp->Pop(&stats->stall_micros));
              if (!item.has_value()) break;
              QOX_RETURN_IF_ERROR(pipeline->Push(std::move(*item)));
              QOX_RETURN_IF_ERROR(emit());
            }
            QOX_RETURN_IF_ERROR(pipeline->Finish());
            QOX_RETURN_IF_ERROR(emit());
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
    SpawnMerge(stages, std::move(part_out), out, unit.merge,
               std::move(unit_stats));
    return out;
  }

  /// Replays the router's schedule: pops one batch from each open partition
  /// in turn and forwards the non-empty ones. Every partition gets a slice
  /// of every input batch and answers it with one batch, so the partition
  /// the merge waits on next has always been fed, and a bounded channel
  /// that fills only holds batches the merge is about to take: no wait can
  /// close a cycle, whatever the skew. On success the merge records the
  /// unit's ParallelUnitStats.
  void SpawnMerge(StageSet* stages, std::vector<BatchChannelPtr> parts,
                  BatchChannelPtr out, size_t node_id,
                  std::shared_ptr<ParallelUnitStats> unit_stats) {
    stages->Spawn(
        plan_.nodes()[node_id].label,
        [this, parts, out, node_id, unit_stats](StageStats* stats) -> Status {
          const StopWatch timer;
          stats->node_id = static_cast<int64_t>(node_id);
          std::vector<bool> open(parts.size(), true);
          size_t num_open = parts.size();
          while (num_open > 0) {
            for (size_t p = 0; p < parts.size(); ++p) {
              if (!open[p]) continue;
              QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                                   parts[p]->Pop(&stats->stall_micros));
              if (!item.has_value()) {
                open[p] = false;
                --num_open;
                continue;
              }
              if (item->empty()) continue;
              stats->rows += item->num_rows();
              ++stats->batches;
              QOX_RETURN_IF_ERROR(
                  out->Push(std::move(*item), &stats->backpressure_micros));
            }
          }
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

  /// Terminal stage of a redundant instance: materializes the dataflow
  /// output into the voter's buffer.
  void SpawnCollectStage(StageSet* stages, BatchChannelPtr in) {
    const size_t node_id = plan_.collect_node();
    stages->Spawn("collect", [this, in, out = vote_out_,
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
      // The output is the winner's resume point at the last cut.
      std::lock_guard<std::mutex> lock(stage_mu_);
      MarkBudget(NumOps());
      return Status::OK();
    });
  }

  /// Terminal stage, the flow's only load path: appends the rows arriving
  /// on `in` (when null: the voted output, read in place) to the target in
  /// batches. Stage wiring and merges are deterministic, so rows arrive in
  /// the same order every attempt, and the rows earlier attempts landed
  /// (torn writes included — recounted from the target) or shed, like a
  /// dead incarnation's durable prefix, are a prefix of it that the load
  /// skips. A failed append fails the attempt. A load whose whole input is
  /// queued reports exact load fractions to the injector, and a staged one
  /// checks the budget's fraction before its first row lands.
  void SpawnLoadStage(StageSet* stages, BatchChannelPtr in, int attempt) {
    const size_t node_id = plan_.load_node();
    stages->Spawn("load", [this, in, attempt,
                           node_id](StageStats* stats) -> Status {
      stats->node_id = static_cast<int64_t>(node_id);
      if (!config_.streaming) {
        QOX_RETURN_IF_ERROR(budget_state_.CheckFraction(fed_rows_));
      }
      // A streaming load fed by a channel cannot know its final output
      // count up front, so its progress is reported with an unknown total
      // (0): the injector fires at_fraction > 0 load specs on the first
      // flush after rows flowed (see FailureInjector::Check).
      const size_t total = in != nullptr ? InputRows(*in, 0) : voted_->size();
      size_t durable = 0;
      if (target_rows_.has_value()) {
        durable = *target_rows_;
        target_rows_.reset();
      } else {
        QOX_ASSIGN_OR_RETURN(durable, flow_.target->NumRows());
      }
      const size_t landed_before = durable - load_base_rows_;
      const size_t skip = landed_before + shed_before_;
      size_t seen = 0;      // rows that reached the sink this attempt
      size_t appended = 0;  // rows durably landed in the target this attempt
      RowBatch acc(cut_schemas_.back());
      auto flush = [&]() -> Status {
        if (acc.empty()) return Status::OK();
        Status st = Status::OK();
        if (config_.injector != nullptr) {
          // The flow loads once, whichever redundant instance won the
          // vote, so load progress reports as instance 0.
          st = config_.injector->Check(/*instance=*/0, attempt,
                                       FailureSpec::kAtLoad, seen, total);
        }
        // The target may move the rows in; a failed append leaves the
        // rows it did not land in `acc` for the shed below.
        const size_t rows = acc.num_rows();
        if (st.ok()) st = flow_.target->Append(std::move(acc));
        if (st.ok()) {
          appended += rows;
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
          const size_t landed = rows_now > durable + appended
                                    ? rows_now - (durable + appended)
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
      // Copies a voted row, moves a channel batch's row.
      auto offer = [&](auto&& row) -> Status {
        if (++seen <= skip) return Status::OK();
        acc.Append(std::forward<decltype(row)>(row));
        return acc.num_rows() >= config_.batch_size ? flush() : Status::OK();
      };
      if (in == nullptr) {
        for (const Row& row : *voted_) QOX_RETURN_IF_ERROR(offer(row));
      } else {
        while (true) {
          QOX_ASSIGN_OR_RETURN(std::optional<RowBatch> item,
                               in->Pop(&stats->stall_micros));
          if (!item.has_value()) break;
          ++stats->batches;
          for (Row& row : item->rows()) {
            QOX_RETURN_IF_ERROR(offer(std::move(row)));
          }
        }
      }
      QOX_RETURN_IF_ERROR(flush());
      stats->rows = seen;
      // The rows this process landed: what its earlier attempts left in
      // the target plus this attempt's appends — no shed rows, and no
      // prefix a dead incarnation landed.
      std::lock_guard<std::mutex> lock(stage_mu_);
      metrics_.rows_loaded = landed_before - resumed_prefix_rows_ + appended;
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
  /// verifiable recovery point (or the voted output) and persists at every
  /// barrier cut.
  Status RunDataflow(int attempt, int resume_cut) {
    attempt_start_micros_ = NowMicros();
    durable_elapsed_micros_ = 0;
    std::vector<Row> resume_rows;
    int resumed_cut = resume_cut;
    if (voted_ == nullptr) {
      // Resume from the newest complete recovery point. A point whose
      // checksum fails verification is dropped and resume falls back to
      // the next older complete one (ultimately from scratch) instead of
      // failing the run on its own persisted state.
      QOX_ASSIGN_OR_RETURN(resumed_cut, ResumeFromRp(resume_cut, &resume_rows));
    }
    // The error budget restarts from its standing at the resume point (the
    // rows contained before it are not contained again) plus the rows
    // earlier attempts shed, which this attempt's load skips. A point a
    // dead incarnation made has no standing here and restarts from zero.
    const auto mark = budget_marks_.find(resumed_cut);
    const BudgetMark start = mark != budget_marks_.end()
                                 ? mark->second
                                 : BudgetMark{0, 0, resume_rows.size(), {}};
    // The Δs upstream of the resume point do not run again, so their
    // landings are the ones the point's mark kept (FindResumeCut resumes
    // past a Δ only from a marked point).
    landings_ = start.landings;
    shed_before_ = metrics_.rows_shed;
    budget_state_.Reset(start.skipped, start.quarantined + shed_before_);
    fed_rows_ = start.fed_rows;
    size_t current_cut =
        resumed_cut >= 0 ? static_cast<size_t>(resumed_cut) : 0;
    // The source size only feeds failure-fraction denominators, and
    // counting a file source reads all of it: count it once, and only when
    // an injector will read the count.
    size_t source_rows = 0;
    if (config_.injector != nullptr && resumed_cut < 0) {
      QOX_ASSIGN_OR_RETURN(source_rows, flow_.source->NumRows());
    }
    // Streaming stages start before their input exists, so their failure
    // fractions need a row-count estimate up front: the source size, or
    // the replayed cut's size. Staged stages count their actual input
    // instead (InputRows).
    size_t expected_rows = resume_rows.size();
    if (config_.streaming && resumed_cut < 0) expected_rows = source_rows;

    const bool staged = !config_.streaming;
    StageSet stages(exec_, staged);
    // The load's input; it stays null when the load reads the voted output.
    BatchChannelPtr cursor;
    if (resumed_cut >= 0 && voted_ == nullptr) {
      cursor = stages.MakeChannel(config_.channel_capacity);
      SpawnReplayStage(&stages, cursor, std::move(resume_rows), current_cut);
    } else if (resumed_cut < 0) {
      cursor = stages.MakeChannel(config_.channel_capacity);
      SpawnExtractStage(&stages, cursor, attempt, source_rows);
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
    if (vote_out_ != nullptr) {
      SpawnCollectStage(&stages, cursor);
    } else {
      SpawnLoadStage(&stages, cursor, attempt);
    }
    std::vector<StageStats> stage_stats;
    const Status st = stages.Join(&stage_stats);
    AttributeStagePhases(stage_stats);
    metrics_.stage_stats.insert(metrics_.stage_stats.end(),
                                std::make_move_iterator(stage_stats.begin()),
                                std::make_move_iterator(stage_stats.end()));
    QOX_RETURN_IF_ERROR(st);
    // The attempt has drained: enforce the budget's fractional ceiling,
    // shed rows included, before the output leaves for the voter or the
    // run commits. A streaming load's rows are durable by now — a caveat
    // EXPERIMENTS.md documents.
    return budget_state_.CheckFraction(fed_rows_);
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
  /// the current attempt, restarted at attempt start from the resume
  /// point's standing.
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
  /// Target row count before the flow's first load, and the part of the
  /// rows beyond it that a dead incarnation landed (ReadLoadBase).
  size_t load_base_rows_ = 0;
  size_t resumed_prefix_rows_ = 0;
  /// Rows this process shed at the load before the current attempt.
  size_t shed_before_ = 0;
  /// The target's row count while it is known without reading the target:
  /// from ReadLoadBase until a load stage starts appending.
  std::optional<size_t> target_rows_;
  /// Rows the source fed the attempt that produced the current attempt's
  /// input: the error budget's fraction denominator.
  size_t fed_rows_ = 0;
  /// The landings this attempt's Δs staged (guarded by stage_mu_ while
  /// stages run), and the index of the flow's first Δ (NumOps() if none).
  StagedLandings landings_;
  size_t first_delta_ = 0;
  /// The standing per resume cut: the budget's (the rows contained before
  /// the point, shed rows apart, and the rows the source had fed) and the
  /// landings staged before the point.
  struct BudgetMark {
    size_t skipped, quarantined, fed_rows;
    StagedLandings landings;
  };
  std::map<int, BudgetMark> budget_marks_;
  /// Redundant instance: the voter's buffer, filled by the collect stage
  /// (null once the instance loads).
  std::vector<Row>* vote_out_ = nullptr;
  /// The vote's winner: the accepted output its load reads (null before).
  const std::vector<Row>* voted_ = nullptr;
  /// Durable lifecycle WAL; null when not journaling, and for instances
  /// other than 0 until one wins the vote.
  FlowJournal* journal_ = nullptr;
};

/// Builds the planner input from flow + config. Blocking and sort flags
/// come from freshly instantiated operators, so the plan's soft barriers
/// and parallel range match the chain that actually executes.
PlanInput MakePlanInput(const FlowSpec& flow, const ExecutionConfig& config) {
  PlanInput input;
  input.num_ops = flow.transforms.size();
  input.blocking.reserve(flow.transforms.size());
  input.sorts.reserve(flow.transforms.size());
  for (const OperatorFactory& factory : flow.transforms) {
    const OperatorPtr op = factory ? factory() : nullptr;
    input.blocking.push_back(op != nullptr && op->IsBlocking());
    input.sorts.push_back(op != nullptr &&
                          std::string_view(op->kind()) == "sort");
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

/// Fails unless every Δ or group inside a hash-partitioned range hashes on
/// one of its key columns: the snapshot's key columns for a Δ, the group
/// columns for a group. A branch's keyed op sees only the rows routed to
/// it, so it splits only when every row of a key goes to one branch.
Status CheckHashRangeKeys(const FlowSpec& flow, const ExecutionConfig& config,
                          const ExecutionPlan& plan) {
  if (config.parallel.scheme != PartitionScheme::kHash) return Status::OK();
  const std::string& column = config.parallel.hash_column;
  for (size_t i = plan.parallel_begin(); i < plan.parallel_end(); ++i) {
    const OperatorPtr op = flow.transforms[i]();
    std::vector<std::string> keys;
    if (const auto* delta = dynamic_cast<const DeltaOp*>(op.get())) {
      const SnapshotStore& snapshot = *delta->snapshot();
      for (const size_t c : snapshot.key_columns()) {
        keys.push_back(snapshot.schema().field(c).name);
      }
    } else if (const auto* group = dynamic_cast<const GroupOp*>(op.get())) {
      keys = group->group_columns();
    } else {
      continue;
    }
    if (std::find(keys.begin(), keys.end(), column) == keys.end()) {
      return Status::Invalid(std::string(op->kind()) + " op '" + op->name() +
                             "' inside a range hashed on '" + column +
                             "', which is not one of its key columns");
    }
  }
  return Status::OK();
}

/// Instance dispatch, redundancy 1: a single FlowRunner with retries.
Status RunSingleInstance(const FlowSpec& flow, const ExecutionConfig& config,
                         const ExecutionPlan& plan,
                         const std::vector<Schema>& cut_schemas,
                         const ExecContext& exec, RunMetrics* metrics,
                         CommitLandings* landings) {
  std::atomic<bool> cancelled{false};
  FlowRunner runner(flow, config, plan, cut_schemas, exec, /*instance_id=*/0,
                    &cancelled);
  QOX_RETURN_IF_ERROR(runner.Run());
  QOX_ASSIGN_OR_RETURN(*landings, runner.TakeLandings());
  *metrics = runner.metrics();
  metrics->rows_rejected = runner.rejected();
  return Status::OK();
}

/// Instance dispatch, n-modular redundancy: k instances race over the
/// same plan; a majority vote over the output fingerprints accepts a
/// result and cancels the stragglers, and the winner loads it and hands
/// over its landings.
Status RunRedundantInstances(const FlowSpec& flow,
                             const ExecutionConfig& config,
                             const ExecutionPlan& plan,
                             const std::vector<Schema>& cut_schemas,
                             const ExecContext& exec, RunMetrics* metrics,
                             CommitLandings* landings) {
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
          slot.status = slot.runner->RunToVote(&slot.output);
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
    Status st = Status::Internal("redundancy vote failed: no majority among " +
                                 std::to_string(k) + " instances");
    for (const InstanceSlot& slot : slots) {
      if (!slot.status.ok() && !slot.status.IsInjectedFailure() &&
          slot.status.code() != StatusCode::kCancelled) {
        st = slot.status;
        break;
      }
    }
    if (config.journal != nullptr) {  // no instance loads: end it here
      (void)config.journal->RecordAttemptEnd(
          slots[0].runner->metrics().attempts, StatusCodeName(st.code()));
    }
    return st;
  }
  InstanceSlot& winner = slots[accepted_instance];
  for (InstanceSlot& slot : slots) {  // only the accepted output loads
    if (&slot == &winner) continue;
    std::vector<Row>().swap(slot.output);
    slot.runner->DropLandings();
  }
  QOX_RETURN_IF_ERROR(winner.runner->LoadVoted(winner.output));
  QOX_ASSIGN_OR_RETURN(*landings, winner.runner->TakeLandings());
  *metrics = winner.runner->metrics();
  metrics->rows_rejected = winner.runner->rejected();
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
  QOX_RETURN_IF_ERROR(CheckHashRangeKeys(flow, config, plan));
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
  CommitLandings landings;
  if (config.redundancy <= 1) {
    QOX_RETURN_IF_ERROR(RunSingleInstance(flow, config, plan, cut_schemas,
                                          exec, &metrics, &landings));
  } else {
    QOX_RETURN_IF_ERROR(RunRedundantInstances(
        flow, config, plan, cut_schemas, exec, &metrics, &landings));
  }
  metrics.threads = config.num_threads;
  metrics.partitions = config.parallel.partitions;
  metrics.redundancy = config.redundancy;

  // The load succeeded: each Δ's snapshot becomes the landing it compared.
  for (auto& [store, landing] : landings) {
    metrics.landing_rows_committed += landing.size();
    QOX_RETURN_IF_ERROR(store->Commit(std::move(landing)));
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
