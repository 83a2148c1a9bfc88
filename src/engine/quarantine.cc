#include "engine/quarantine.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/crash_point.h"
#include "common/strings.h"
#include "engine/pipeline.h"
#include "storage/record_io.h"  // Fnv1a64

namespace qox {

namespace {

/// Durable dedup key of one replay group: the op index plus a content
/// fingerprint of its canonical payload set. A restarted replay over the
/// same ledger recomputes the identical key; a ledger that grew between
/// incarnations yields a fresh key (and the superseded group's rows were
/// never appended, so no double-apply either way).
std::string GroupKey(size_t op_index, const std::set<std::string>& payloads) {
  uint64_t fp = Fnv1a64(&op_index, sizeof(op_index));
  for (const std::string& payload : payloads) {
    fp = Fnv1a64(payload.data(), payload.size(), fp);
  }
  return "op" + std::to_string(op_index) + ":" + std::to_string(fp) + ":" +
         std::to_string(payloads.size());
}

}  // namespace

Result<ReplayStats> ReplayQuarantine(const FlowSpec& flow,
                                     const ExecutionConfig& config,
                                     const DeadLetterStore& dead_letter,
                                     FlowJournal* journal) {
  QOX_ASSIGN_OR_RETURN(const std::vector<Schema> cut_schemas,
                       Executor::BindChain(flow, config));
  QOX_ASSIGN_OR_RETURN(const std::vector<QuarantineRecord> records,
                       dead_letter.ReadAll());
  ReplayStats stats;
  stats.records_read = records.size();

  // Deduplicate on (op_index, payload) and order payloads canonically per
  // op, so replay is deterministic regardless of which executor, attempt,
  // or instance wrote the ledger.
  std::map<size_t, std::set<std::string>> payloads_by_op;
  const size_t num_ops = flow.transforms.size();
  for (const QuarantineRecord& record : records) {
    if (record.op_index < 0 ||
        static_cast<size_t>(record.op_index) >= num_ops) {
      return Status::Invalid(
          "quarantine record names transform op " +
          std::to_string(record.op_index) + " but the chain has " +
          std::to_string(num_ops) + " ops");
    }
    const bool fresh = payloads_by_op[static_cast<size_t>(record.op_index)]
                           .insert(record.payload)
                           .second;
    if (!fresh) ++stats.deduplicated;
  }

  const FlowJournalState journal_state =
      journal != nullptr ? journal->state() : FlowJournalState();

  std::atomic<size_t> rejected{0};
  OperatorContext ctx;
  ctx.rejected_rows = &rejected;
  for (const auto& [op_index, payloads] : payloads_by_op) {
    const std::string key =
        journal != nullptr ? GroupKey(op_index, payloads) : std::string();
    if (journal != nullptr) {
      const auto it = journal_state.replay.find(key);
      if (it != journal_state.replay.end() && it->second.done) {
        // A previous incarnation durably finished this group.
        ++stats.groups_already_applied;
        continue;
      }
    }
    RowBatch batch(cut_schemas[op_index]);
    batch.Reserve(payloads.size());
    for (const std::string& payload : payloads) {
      QOX_ASSIGN_OR_RETURN(
          Row row, DecodeQuarantinePayload(payload, cut_schemas[op_index]));
      batch.Append(std::move(row));
    }
    stats.replayed += batch.num_rows();

    std::vector<OperatorPtr> ops;
    ops.reserve(num_ops - op_index);
    for (size_t i = op_index; i < num_ops; ++i) {
      ops.push_back(flow.transforms[i]());
    }
    PipelineConfig pc;
    pc.op_index_offset = static_cast<int>(op_index);
    pc.expected_input_rows = batch.num_rows();
    QOX_ASSIGN_OR_RETURN(
        std::unique_ptr<Pipeline> pipeline,
        Pipeline::Create(cut_schemas[op_index], std::move(ops), &ctx, pc));
    QOX_RETURN_IF_ERROR(pipeline->Push(std::move(batch)));
    QOX_RETURN_IF_ERROR(pipeline->Finish());
    std::vector<Row> produced = pipeline->TakeOutput();

    // Durable-prefix accounting: a torn group (replay_start journaled, no
    // replay_end) already appended target_now - target_base of these rows
    // before the kill; append only the remainder.
    size_t durable = 0;
    if (journal != nullptr) {
      const auto it = journal_state.replay.find(key);
      if (it != journal_state.replay.end()) {
        QOX_ASSIGN_OR_RETURN(const size_t target_now,
                             flow.target->NumRows());
        if (target_now > it->second.target_base) {
          durable = std::min(produced.size(),
                             target_now - it->second.target_base);
        }
        stats.rows_already_durable += durable;
      } else {
        QOX_ASSIGN_OR_RETURN(const size_t target_base,
                             flow.target->NumRows());
        QOX_RETURN_IF_ERROR(journal->RecordReplayStart(
            key, static_cast<int64_t>(op_index), produced.size(),
            target_base));
      }
    }
    if (durable < produced.size()) {
      RowBatch load(cut_schemas.back());
      load.Reserve(produced.size() - durable);
      for (size_t i = durable; i < produced.size(); ++i) {
        load.Append(std::move(produced[i]));
      }
      stats.rows_loaded += load.num_rows();
      QOX_RETURN_IF_ERROR(flow.target->Append(std::move(load)));
    }
    QOX_CRASH_POINT("replay.loaded");
    if (journal != nullptr) {
      QOX_RETURN_IF_ERROR(journal->RecordReplayEnd(key));
    }
  }
  stats.rows_rejected = rejected.load();
  return stats;
}

}  // namespace qox
