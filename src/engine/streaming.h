// StageSet: task + channel coordination for the executor's one dataflow
// scheduler.
//
// Every flow attempt is a set of stages (extract, transform pipelines,
// partition branches, merges, recovery-point barriers, load or collect)
// connected by Channel<RowBatch> edges. The StageSet owns the wiring: it
// creates the channels, runs the stage bodies through its ExecContext, and
// guarantees clean unwinding when any stage fails. It has two modes,
// picked from the plan's `streaming` property:
//
//   * STREAMING: stages run concurrently as BLOCKING tasks on the shared
//     executor substrate (engine/worker_pool.h — stage bodies park on
//     channel edges, so they run on the pool's cached expansion workers,
//     never occupying core workers), joined by channels of
//     kChannelCapacity batches. The context's tag (the flow deadline)
//     rides on every stage submission, which is how a whole streaming
//     dataflow competes EDF against other flows on one shared pool. Every
//     stage waits on one channel at a time; a partitioned unit stays
//     deadlock-free on bounded channels because its router, branches and
//     merge keep one fixed batch schedule (FlowRunner::SpawnParallelUnit
//     in executor.cc).
//   * STAGED (phased plans): Spawn runs the stage to completion on the
//     calling thread before returning, writing into unbounded channels, so
//     every edge is a materialization barrier and a stage knows its whole
//     input when it starts. SpawnGroup runs sibling stages (a partitioned
//     unit's branches) together as one ExecContext::BulkExecute fan-out of
//     CPU tasks on the pool's core workers. Once a stage fails, later
//     spawns are skipped.
//
// Error protocol: a stage body returns a Status. The first non-OK outcome
// poisons EVERY channel in the set with an explicitly tagged *echo* of the
// cause (PoisonEcho), which wakes every stage blocked on a Push or Pop;
// those stages return the echo in turn and are classified as "secondary"
// failures by the tag — never by comparing messages, so two stages failing
// independently with identical text are both recorded as primary. Join()
// then reports one winning status: injected failures beat everything (the
// retry machinery must see the true cause), then the first primary error,
// then any secondary echo.
//
// Accounting: each stage gets a StageStats slot. The stage body records
// rows/batches and its channel waits (Push/Pop expose their blocked time);
// the set derives busy time as wall − stall − backpressure when the body
// finishes (staged stages never wait, so busy == wall). Join() appends all
// slots to the caller's RunMetrics stage list.

#ifndef QOX_ENGINE_STREAMING_H_
#define QOX_ENGINE_STREAMING_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "engine/channel.h"
#include "engine/exec_context.h"
#include "engine/run_metrics.h"

namespace qox {

using BatchChannel = Channel<RowBatch>;
using BatchChannelPtr = std::shared_ptr<BatchChannel>;

class StageSet {
 public:
  /// Batches a streaming channel holds before its producer waits: the
  /// backpressure window between adjacent stages.
  static constexpr size_t kChannelCapacity = 8;

  using Body = std::function<Status(StageStats*)>;
  struct Stage {
    std::string name;
    Body body;
  };

  /// Streaming (`staged` false): stages run as blocking tasks of `ctx`'s
  /// WorkerPool under its tag; the context must carry a pool, since stage
  /// bodies block on bounded channels and inline execution would deadlock
  /// the dataflow. Staged: see the file comment.
  explicit StageSet(const ExecContext& ctx, bool staged = false);
  /// Waits out any stages still running (after poisoning, so this cannot
  /// hang).
  ~StageSet();

  StageSet(const StageSet&) = delete;
  StageSet& operator=(const StageSet&) = delete;

  /// Creates a channel registered for poison-on-failure: unbounded when
  /// staged, kChannelCapacity batches when streaming. If a stage has
  /// already failed, the channel is born poisoned, so stages wired after a
  /// failure unwind immediately instead of processing data nobody reads.
  BatchChannelPtr MakeChannel();

  /// Submits `body` as a blocking task on the substrate (staged: runs it
  /// here). The body fills its StageStats (rows, batches, waits); wall and
  /// busy time — plus the time the task waited queued before a worker
  /// picked it up and the stage's slack against the context's deadline —
  /// are measured here. A non-OK return poisons every channel in the set.
  void Spawn(std::string name, Body body);

  /// Spawns sibling stages: each as Spawn does when streaming; staged, all
  /// of them at once as one BulkExecute fan-out, returning when every one
  /// has finished.
  void SpawnGroup(std::vector<Stage> group);

  /// True once any stage has failed (a staged set then runs nothing more).
  bool failed() const;

  /// Waits for every spawned stage and appends their stats to `*stats`
  /// (may be null). Returns the winning status per the error protocol.
  /// Must be called after all Spawn/MakeChannel calls.
  Status Join(std::vector<StageStats>* stats);

  /// The tagged status channels are poisoned with when `cause` fails a
  /// stage: a distinct code + message prefix, so a stage that merely
  /// returns what it popped from a poisoned channel is recognizable as a
  /// secondary (echo) failure. Idempotent — an echo is not re-wrapped.
  static Status PoisonEcho(const Status& cause);

  /// True iff `status` is a PoisonEcho-tagged echo.
  static bool IsPoisonEcho(const Status& status);

 private:
  /// Runs one stage body on the calling thread and records its outcome in
  /// `slot`.
  void RunStage(size_t slot, int64_t posted_micros, const Body& body);

  /// Poisons every registered channel with `status` (first failure wins).
  void FailAll(const Status& status);

  struct Outcome {
    Status status = Status::OK();
    StageStats stats;
    bool primary = false;  ///< failed before (not because of) the poison
  };

  ExecContext ctx_;
  const bool staged_;
  /// Completion guard over every spawned stage task (replaces the old
  /// per-stage std::thread joins).
  TaskGroup group_;
  mutable std::mutex mu_;
  std::vector<BatchChannelPtr> channels_;
  std::vector<Outcome> outcomes_;
  Status first_failure_ = Status::OK();
  bool joined_ = false;
};

}  // namespace qox

#endif  // QOX_ENGINE_STREAMING_H_
