#include "engine/supervisor.h"

#include <cerrno>
#include <csignal>
#include <filesystem>
#include <optional>
#include <string_view>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/crash_point.h"
#include "common/strings.h"
#include "storage/lease_file.h"
#include "storage/record_io.h"

namespace qox {

namespace {

/// Exit code a child uses to report a deterministic body failure (the
/// status itself travels through the verdict file).
constexpr int kBodyFailedExit = 3;

std::string VerdictPath(const std::string& scratch_dir,
                        const std::string& flow_id) {
  return scratch_dir + "/" + flow_id + ".verdict";
}

/// Best effort and unsynced: the verdict only has to outlive the child,
/// not the machine.
void WriteVerdict(const std::string& path, const Status& status) {
  std::string record;
  AppendSealed(CsvEncodeLine({StatusCodeName(status.code()), status.message()}),
               &record);
  (void)WriteFile(path, record, /*sync=*/false);
}

/// The child's status, from its sealed `code,message` verdict record. A
/// missing, torn or unsealed verdict, or one naming no failure code, is
/// kInternal rather than an error of the supervisor.
Status ReadVerdict(const std::string& path) {
  RecordReader reader(path);
  std::string record;
  if (!reader.Next(&record) || !reader.terminated()) {
    return Status::Internal("supervised flow failed without a verdict");
  }
  const std::optional<std::string_view> body = OpenSealed(record);
  std::vector<std::string> cells;
  if (body.has_value()) CsvDecodeLine(*body, &cells);
  if (cells.size() != 2) {
    return Status::Internal("supervised flow failed with a torn verdict");
  }
  const std::optional<StatusCode> code = ParseStatusCode(cells[0]);
  if (!code.has_value() || *code == StatusCode::kOk) {
    return Status::Internal("supervised flow failed: " + cells[0] + ": " +
                            cells[1]);
  }
  return Status(*code, cells[1]);
}

/// The child's whole life. Never returns.
[[noreturn]] void RunChild(const std::string& flow_id,
                           const SupervisedBody& body,
                           const SupervisorOptions& options, int incarnation) {
  if (options.child_setup) options.child_setup(incarnation);
  QOX_CRASH_POINT("child.start");
  const std::string verdict = VerdictPath(options.scratch_dir, flow_id);
  Result<FlowJournalPtr> journal =
      FlowJournal::Open(options.scratch_dir, flow_id, options.journal_sync);
  if (!journal.ok()) {
    WriteVerdict(verdict, journal.status());
    ::_exit(kBodyFailedExit);
  }
  FlowEnv env;
  env.scratch_dir = options.scratch_dir;
  env.journal = journal.TakeValue();
  env.resume = ResumeFromJournal(env.journal->state());
  env.incarnation = incarnation;
  const Status st = body(env);
  if (st.ok()) ::_exit(0);
  WriteVerdict(verdict, st);
  ::_exit(kBodyFailedExit);
}

}  // namespace

Result<SupervisorReport> FlowSupervisor::Run(const std::string& flow_id,
                                             const SupervisedBody& body,
                                             const SupervisorOptions& options) {
  const StopWatch timer;
  if (options.scratch_dir.empty()) {
    return Status::Invalid("supervisor needs a scratch_dir");
  }
  if (!body) return Status::Invalid("supervisor needs a body");
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) {
    return Status::IoError("cannot create scratch dir '" +
                           options.scratch_dir + "': " + ec.message());
  }
  QOX_ASSIGN_OR_RETURN(
      const std::unique_ptr<LeaseFile> lease,
      LeaseFile::Acquire(options.scratch_dir + "/" + flow_id + ".lease",
                         "supervisor:" + flow_id));
  SupervisorReport report;
  report.lease_takeover = lease->took_over();
  const size_t budget = std::max<size_t>(1, options.max_incarnations);
  const std::string verdict = VerdictPath(options.scratch_dir, flow_id);

  for (size_t incarnation = 1; incarnation <= budget; ++incarnation) {
    // Parent-side peek: re-opening also truncates any torn tail the last
    // child's death left (safe — the child is reaped, nobody appends).
    {
      QOX_ASSIGN_OR_RETURN(const FlowJournalPtr journal,
                           FlowJournal::Open(options.scratch_dir, flow_id,
                                             options.journal_sync));
      report.journal_state = journal->state();
      report.attempts_observed = std::max(
          report.attempts_observed, report.journal_state.attempts_started);
    }
    if (report.journal_state.committed) {
      // Already converged — either before this supervisor started (a
      // takeover after a crash between commit and exit) or by the child
      // whose death we just absorbed.
      report.success = true;
      report.final_status = Status::OK();
      report.total_micros = timer.ElapsedMicros();
      return report;
    }
    std::filesystem::remove(verdict, ec);

    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::IoError("fork failed for supervised flow '" + flow_id +
                             "'");
    }
    if (pid == 0) {
      RunChild(flow_id, body, options, static_cast<int>(incarnation));
    }
    ++report.incarnations;
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(wstatus)) {
      if (WEXITSTATUS(wstatus) == 0) {
        report.success = true;
        report.final_status = Status::OK();
        break;
      }
      // Deterministic failure: restarting would re-fail identically.
      report.success = false;
      report.final_status = ReadVerdict(verdict);
      break;
    }
    // Death by signal (SIGKILL, sanitizer abort, OOM): crash — restart.
    ++report.crashes;
  }

  {
    QOX_ASSIGN_OR_RETURN(
        const FlowJournalPtr journal,
        FlowJournal::Open(options.scratch_dir, flow_id, options.journal_sync));
    report.journal_state = journal->state();
    report.attempts_observed = std::max(report.attempts_observed,
                                        report.journal_state.attempts_started);
  }
  if (!report.success && report.final_status.ok()) {
    if (report.journal_state.committed) {
      // The last child committed and then died before its clean exit.
      report.success = true;
    } else {
      report.final_status = Status::Unavailable(
          "flow '" + flow_id + "' did not converge within " +
          std::to_string(report.incarnations) + " incarnations (" +
          std::to_string(report.crashes) + " crashes)");
    }
  }
  report.total_micros = timer.ElapsedMicros();
  return report;
}

}  // namespace qox
