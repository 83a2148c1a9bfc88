// LeaseFile single-writer semantics: live holders block acquisition, dead
// holders are taken over, and — with QOX_LEASE_TIMEOUT_MS set — a hung
// holder that stopped refreshing its lease is displaced after the timeout
// while a heartbeating one keeps it.

#include "storage/lease_file.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace qox {
namespace {

class LeaseFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/lease_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/flow.lease";
    ::unsetenv("QOX_LEASE_TIMEOUT_MS");
  }
  void TearDown() override {
    ::unsetenv("QOX_LEASE_TIMEOUT_MS");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Plants a lease held by `pid`, as a dead or hung holder would leave it.
  void PlantLease(pid_t pid) {
    std::ofstream out(path_, std::ios::trunc);
    out << pid << " planted\n";
  }

  void BackdateLease(std::chrono::milliseconds age) {
    std::filesystem::last_write_time(
        path_, std::filesystem::file_time_type::clock::now() - age);
  }

  std::string dir_;
  std::string path_;
};

TEST_F(LeaseFileTest, AcquireHoldReleaseRoundTrip) {
  auto lease = LeaseFile::Acquire(path_, "t").value();
  EXPECT_FALSE(lease->took_over());
  EXPECT_EQ(LeaseFile::HolderPid(path_).value(), ::getpid());
  ASSERT_TRUE(lease->Release().ok());
  EXPECT_FALSE(std::filesystem::exists(path_));
  EXPECT_FALSE(LeaseFile::HolderPid(path_).ok());
}

TEST_F(LeaseFileTest, LiveHolderBlocksAcquisition) {
  // pid 1 is always alive (kill(1, 0) yields EPERM, which still means
  // "exists"), so the lease reads as held by a live foreign process.
  PlantLease(1);
  const auto denied = LeaseFile::Acquire(path_, "t");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LeaseFileTest, DeadHolderIsTakenOver) {
  // A forked child that exits immediately gives us a pid that is
  // guaranteed dead (and reaped) by the time we plant it.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  PlantLease(child);
  auto lease = LeaseFile::Acquire(path_, "t").value();
  EXPECT_TRUE(lease->took_over());
  EXPECT_EQ(LeaseFile::HolderPid(path_).value(), ::getpid());
}

TEST_F(LeaseFileTest, TimeoutMsParsesEnvironment) {
  EXPECT_EQ(LeaseFile::TimeoutMs(), 0);
  ::setenv("QOX_LEASE_TIMEOUT_MS", "250", 1);
  EXPECT_EQ(LeaseFile::TimeoutMs(), 250);
  ::setenv("QOX_LEASE_TIMEOUT_MS", "-5", 1);
  EXPECT_EQ(LeaseFile::TimeoutMs(), 0);
  ::setenv("QOX_LEASE_TIMEOUT_MS", "nonsense", 1);
  EXPECT_EQ(LeaseFile::TimeoutMs(), 0);
}

TEST_F(LeaseFileTest, StaleLeaseOfLiveHolderTimesOutWhenConfigured) {
  PlantLease(1);
  BackdateLease(std::chrono::milliseconds(5000));

  // Without the timeout, pid liveness rules: the hung holder keeps it.
  ASSERT_FALSE(LeaseFile::Acquire(path_, "t").ok());

  // With the timeout, a lease not refreshed within the window is stale
  // even though its holder pid exists.
  ::setenv("QOX_LEASE_TIMEOUT_MS", "1000", 1);
  auto lease = LeaseFile::Acquire(path_, "t").value();
  EXPECT_TRUE(lease->took_over());
  EXPECT_EQ(LeaseFile::HolderPid(path_).value(), ::getpid());
}

TEST_F(LeaseFileTest, FreshLeaseOfLiveHolderSurvivesTimeout) {
  // The same configuration must NOT displace a holder whose lease was
  // refreshed recently — that is what Heartbeat() is for.
  ::setenv("QOX_LEASE_TIMEOUT_MS", "60000", 1);
  PlantLease(1);
  const auto denied = LeaseFile::Acquire(path_, "t");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LeaseFileTest, DisplacedHolderCannotHeartbeatOrDeleteUsurpersLease) {
  auto lease = LeaseFile::Acquire(path_, "t").value();
  // A timeout-based takeover rewrote the lease behind our back: it now
  // names a different live process (pid 1 always exists). The displaced
  // holder's heartbeat must fail — silently republishing would leave two
  // live holders, neither aware of the other.
  PlantLease(1);
  const Status denied = lease->Heartbeat();
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(LeaseFile::HolderPid(path_).value(), 1);
  // Nor may its release delete the usurper's lease on the way out.
  ASSERT_TRUE(lease->Release().ok());
  EXPECT_EQ(LeaseFile::HolderPid(path_).value(), 1);
}

TEST_F(LeaseFileTest, HeartbeatReclaimsALeaseUsurpedByANowDeadProcess) {
  auto lease = LeaseFile::Acquire(path_, "t").value();
  // The usurper died in turn: reclaiming on heartbeat mirrors Acquire's
  // dead-holder takeover.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  PlantLease(child);
  ASSERT_TRUE(lease->Heartbeat().ok());
  EXPECT_EQ(LeaseFile::HolderPid(path_).value(), ::getpid());
}

TEST_F(LeaseFileTest, HeartbeatRefreshesTheLease) {
  auto lease = LeaseFile::Acquire(path_, "t").value();
  BackdateLease(std::chrono::milliseconds(60000));
  const auto stale_mtime = std::filesystem::last_write_time(path_);
  ASSERT_TRUE(lease->Heartbeat().ok());
  EXPECT_GT(std::filesystem::last_write_time(path_), stale_mtime);
  EXPECT_EQ(LeaseFile::HolderPid(path_).value(), ::getpid());
  // A released lease cannot be heartbeated back to life.
  ASSERT_TRUE(lease->Release().ok());
  EXPECT_FALSE(lease->Heartbeat().ok());
}

}  // namespace
}  // namespace qox
