// FlowSupervisor: runs a flow in a forked child process and re-executes it
// after abnormal death until it converges or the incarnation budget runs
// out.
//
// The supervisor is the process-level analogue of the executor's retry
// loop: where retries heal transient *operation* failures inside one
// process, supervision heals the death of the process itself (SIGKILL, OOM
// kill, power loss of a worker). The protocol:
//
//   1. Acquire the flow's lease under the scratch directory (stale-lease
//      takeover when the previous supervisor died).
//   2. Read the FlowJournal: if the flow already committed, done.
//   3. Fork. The child opens the journal (truncating any torn tail the
//      predecessor's death left), derives a FlowResume, re-adopts journaled
//      recovery points, runs the caller's body, and _exits: 0 on success,
//      nonzero (with the status written to a verdict file, one sealed
//      `code,message` record of storage/record_io.h) on a deterministic
//      failure.
//   4. The parent waits. Normal exit 0 = converged; normal nonzero exit =
//      deterministic failure, do NOT restart (it would loop); death by
//      signal = crash, go to 2.
//
// Sanitizer/fork caveat: Run must be called while the calling process has
// no competing threads (the forked child may create threads freely — both
// executors do). Test binaries and benches satisfy this naturally.

#ifndef QOX_ENGINE_SUPERVISOR_H_
#define QOX_ENGINE_SUPERVISOR_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "engine/flow_journal.h"
#include "storage/journal_file.h"

namespace qox {

/// Everything a supervised incarnation gets from its supervisor. The body
/// builds its stores/config around these: pass `journal` and `resume` into
/// ExecutionConfig, adopt recovery points via AdoptJournaledRecoveryPoints
/// with `journal->state()`.
struct FlowEnv {
  std::string scratch_dir;
  FlowJournalPtr journal;
  FlowResume resume;
  /// 1-based incarnation number (1 = first child).
  int incarnation = 1;
};

/// Runs in the CHILD process. Every durable effect must go through stores
/// rooted on disk (the child's memory dies with it).
using SupervisedBody = std::function<Status(const FlowEnv&)>;

struct SupervisorOptions {
  /// Directory holding the lease, journal, and (by convention) the flow's
  /// durable stores. Created if absent.
  std::string scratch_dir;
  /// Fork budget: total children, including the first. When crashes
  /// exhaust it the run fails with kUnavailable.
  size_t max_incarnations = 8;
  JournalSync journal_sync = JournalSync::kAlways;
  /// Runs in the child immediately after fork, before the journal opens —
  /// the crash-test hook for arming per-incarnation kill schedules
  /// (common/crash_point.h).
  std::function<void(int incarnation)> child_setup;
};

struct SupervisorReport {
  bool success = false;
  /// OK on success; the child's verdict on deterministic failure;
  /// kUnavailable when the incarnation budget ran out.
  Status final_status;
  /// Children forked.
  size_t incarnations = 0;
  /// Children that died abnormally (signal) and triggered a restart.
  size_t crashes = 0;
  /// Acquisition displaced a stale lease left by a dead supervisor.
  bool lease_takeover = false;
  /// Journal state after the last incarnation (the parent's view).
  FlowJournalState journal_state;
  /// High-water mark of journaled attempt starts across all of the
  /// parent's journal peeks. Unlike journal_state.attempts_started this
  /// survives the executor's post-commit Compact (which drops per-attempt
  /// records), so it measures re-execution even for converged flows.
  size_t attempts_observed = 0;
  int64_t total_micros = 0;
};

class FlowSupervisor {
 public:
  /// Supervises `body` for `flow_id` until it converges, fails
  /// deterministically, or exhausts options.max_incarnations. Errors of
  /// the supervision machinery itself (lease held by a live process,
  /// unforkable, unreadable journal) surface as the Result's status; the
  /// flow's own outcome lands in the report.
  static Result<SupervisorReport> Run(const std::string& flow_id,
                                      const SupervisedBody& body,
                                      const SupervisorOptions& options);
};

}  // namespace qox

#endif  // QOX_ENGINE_SUPERVISOR_H_
