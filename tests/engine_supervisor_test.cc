// FlowSupervisor: forked re-execution under a lease. The bodies here run
// in CHILD processes — assertions about what a child did must travel
// through durable state (the journal, marker files), never through child
// memory or gtest expectations inside the body.

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "common/crash_point.h"
#include "engine/supervisor.h"
#include "storage/lease_file.h"

namespace qox {
namespace {

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = ::testing::TempDir() + "/supervisor_test_" +
               std::to_string(::getpid()) + "_" +
               std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(scratch_);
    options_.scratch_dir = scratch_;
    options_.max_incarnations = 8;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(scratch_, ec);
  }

  [[noreturn]] static void Die() {
    ::kill(::getpid(), SIGKILL);
    ::_exit(137);  // unreachable
  }

  std::string scratch_;
  SupervisorOptions options_;
};

TEST_F(SupervisorTest, ConvergesWithoutCrashes) {
  const auto report =
      FlowSupervisor::Run(
          "f",
          [](const FlowEnv& env) {
            QOX_RETURN_IF_ERROR(env.journal->RecordAttemptStart(
                env.resume.prior_attempts + 1, false, -1));
            return env.journal->RecordFlowCommit();
          },
          options_)
          .value();
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.final_status.ok());
  EXPECT_EQ(report.incarnations, 1u);
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_FALSE(report.lease_takeover);
  EXPECT_TRUE(report.journal_state.committed);
  EXPECT_EQ(report.journal_state.attempts_started, 1u);
}

TEST_F(SupervisorTest, RestartsAfterSigkillWithResumeState) {
  const auto report =
      FlowSupervisor::Run(
          "f",
          [](const FlowEnv& env) {
            // The attempt budget must span incarnations: each child numbers
            // its attempt from the journal, not from 1.
            QOX_RETURN_IF_ERROR(env.journal->RecordAttemptStart(
                env.resume.prior_attempts + 1, false, -1));
            if (env.incarnation == 1) Die();
            return env.journal->RecordFlowCommit();
          },
          options_)
          .value();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.incarnations, 2u);
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_TRUE(report.journal_state.committed);
  // Two attempt_start records: one from the dead incarnation, one from the
  // survivor — proof the second child saw prior_attempts == 1.
  EXPECT_EQ(report.journal_state.attempts_started, 2u);
}

TEST_F(SupervisorTest, DeterministicFailureDoesNotRestart) {
  const auto report =
      FlowSupervisor::Run(
          "f",
          [](const FlowEnv&) { return Status::Invalid("schema drift"); },
          options_)
          .value();
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.final_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.final_status.message().find("schema drift"),
            std::string::npos);
  // Restarting a deterministic failure would loop to the budget for
  // nothing: exactly one child, zero crashes.
  EXPECT_EQ(report.incarnations, 1u);
  EXPECT_EQ(report.crashes, 0u);
}

TEST_F(SupervisorTest, IncarnationBudgetExhaustedIsUnavailable) {
  options_.max_incarnations = 3;
  const auto report =
      FlowSupervisor::Run("f", [](const FlowEnv&) -> Status { Die(); },
                          options_)
          .value();
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.final_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(report.incarnations, 3u);
  EXPECT_EQ(report.crashes, 3u);
}

TEST_F(SupervisorTest, AlreadyCommittedFlowForksNoChild) {
  {
    auto journal =
        FlowJournal::Open(scratch_, "f", JournalSync::kAlways).value();
    ASSERT_TRUE(journal->RecordFlowCommit().ok());
  }
  const std::string marker = scratch_ + "/body_ran";
  const auto report =
      FlowSupervisor::Run(
          "f",
          [&marker](const FlowEnv&) {
            std::ofstream(marker) << "ran";
            return Status::OK();
          },
          options_)
          .value();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.incarnations, 0u);
  EXPECT_FALSE(std::filesystem::exists(marker));
}

TEST_F(SupervisorTest, CommitThenCrashStillConverges) {
  const auto report =
      FlowSupervisor::Run(
          "f",
          [](const FlowEnv& env) -> Status {
            const Status st = env.journal->RecordFlowCommit();
            if (!st.ok()) return st;
            Die();  // the window between commit and clean exit
          },
          options_)
          .value();
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.final_status.ok());
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_TRUE(report.journal_state.committed);
}

TEST_F(SupervisorTest, LeaseHeldByLiveProcessRefusesToRun) {
  {
    std::ofstream lease(scratch_ + "/f.lease");
    lease << "1 other-supervisor\n";  // pid 1: always alive, never us
  }
  const auto report = FlowSupervisor::Run(
      "f", [](const FlowEnv&) { return Status::OK(); }, options_);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SupervisorTest, StaleLeaseIsTakenOver) {
  const pid_t dead = ::fork();
  if (dead == 0) ::_exit(0);
  ASSERT_GT(dead, 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(dead, &wstatus, 0), dead);
  {
    std::ofstream lease(scratch_ + "/f.lease");
    lease << dead << " dead-supervisor\n";
  }
  const auto report =
      FlowSupervisor::Run(
          "f",
          [](const FlowEnv& env) { return env.journal->RecordFlowCommit(); },
          options_)
          .value();
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.lease_takeover);
}

TEST_F(SupervisorTest, ChildSetupArmsPerIncarnationCrashPoints) {
  // Arm the child.start crash point for the first incarnation only: the
  // supervisor absorbs the injected SIGKILL and the unarmed second child
  // converges. Arming happens inside the forked child, so the test process
  // itself never has an armed crash point.
  options_.child_setup = [](int incarnation) {
    ArmCrashPoints(incarnation == 1 ? "child.start" : "");
  };
  const auto report =
      FlowSupervisor::Run(
          "f",
          [](const FlowEnv& env) { return env.journal->RecordFlowCommit(); },
          options_)
          .value();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.incarnations, 2u);
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_FALSE(CrashPointsArmed());
}

TEST_F(SupervisorTest, OptionsAreValidated) {
  SupervisorOptions bad;
  bad.scratch_dir = "";
  EXPECT_FALSE(FlowSupervisor::Run(
                   "f", [](const FlowEnv&) { return Status::OK(); }, bad)
                   .ok());
  EXPECT_FALSE(FlowSupervisor::Run("f", nullptr, options_).ok());
}

}  // namespace
}  // namespace qox
