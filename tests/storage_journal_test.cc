// JournalFile + LeaseFile + FlowJournal: the durable substrate of crash
// recovery. The torn-tail property test is the heart: EVERY byte-length
// prefix of a journal segment must open to a valid record boundary, and
// the resume state derived from it must equal the state as of that record
// — the invariant that makes "SIGKILL at any instant" survivable.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/flow_journal.h"
#include "storage/journal_file.h"
#include "storage/lease_file.h"
#include "storage/recovery_store.h"

namespace qox {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/journal_test_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// JournalFile: segments, checksums, torn tails, rotation.
// ---------------------------------------------------------------------------

TEST_F(JournalTest, AppendReopenRoundTrip) {
  const std::string path = Path("a.journal");
  {
    auto journal = JournalFile::Open(path, JournalSync::kAlways).value();
    ASSERT_TRUE(journal->Append("alpha", {"1", "two"}).ok());
    ASSERT_TRUE(journal->Append("beta", {}).ok());
    ASSERT_TRUE(journal->Append("gamma", {"x,y", "\"quoted\""}).ok());
  }
  auto reopened = JournalFile::Open(path, JournalSync::kAlways).value();
  ASSERT_EQ(reopened->records().size(), 3u);
  EXPECT_EQ(reopened->truncated_bytes(), 0u);
  EXPECT_EQ(reopened->records()[0].seq, 1u);
  EXPECT_EQ(reopened->records()[0].type, "alpha");
  EXPECT_EQ(reopened->records()[0].fields,
            (std::vector<std::string>{"1", "two"}));
  EXPECT_EQ(reopened->records()[1].type, "beta");
  EXPECT_TRUE(reopened->records()[1].fields.empty());
  // CSV-special characters survive the encode/decode round trip.
  EXPECT_EQ(reopened->records()[2].fields,
            (std::vector<std::string>{"x,y", "\"quoted\""}));
}

TEST_F(JournalTest, TornFinalLineIsTruncatedOnOpen) {
  const std::string path = Path("torn.journal");
  {
    auto journal = JournalFile::Open(path, JournalSync::kAlways).value();
    ASSERT_TRUE(journal->Append("alpha", {"1"}).ok());
    ASSERT_TRUE(journal->Append("beta", {"2"}).ok());
  }
  const std::string clean = ReadFile(path);
  WriteFile(path, clean + "3,gamma,partial-line-without-newl");
  auto reopened = JournalFile::Open(path, JournalSync::kAlways).value();
  EXPECT_EQ(reopened->records().size(), 2u);
  EXPECT_GT(reopened->truncated_bytes(), 0u);
  // The tail is gone from disk too, so appends continue at a clean
  // boundary.
  EXPECT_EQ(ReadFile(path), clean);
  ASSERT_TRUE(reopened->Append("gamma", {"3"}).ok());
  auto again = JournalFile::Open(path, JournalSync::kAlways).value();
  ASSERT_EQ(again->records().size(), 3u);
  EXPECT_EQ(again->records()[2].type, "gamma");
}

TEST_F(JournalTest, CorruptRecordCutsTheSegmentThere) {
  const std::string path = Path("corrupt.journal");
  {
    auto journal = JournalFile::Open(path, JournalSync::kAlways).value();
    ASSERT_TRUE(journal->Append("alpha", {"1"}).ok());
    ASSERT_TRUE(journal->Append("beta", {"2"}).ok());
    ASSERT_TRUE(journal->Append("gamma", {"3"}).ok());
  }
  // Flip one byte inside the second record: the checksum fails, and
  // everything from that record on is discarded (a valid-looking suffix
  // after a corrupt record cannot be trusted).
  std::string bytes = ReadFile(path);
  const size_t second_line = bytes.find('\n') + 3;
  bytes[second_line] = bytes[second_line] == '#' ? '@' : '#';
  WriteFile(path, bytes);
  auto reopened = JournalFile::Open(path, JournalSync::kAlways).value();
  ASSERT_EQ(reopened->records().size(), 1u);
  EXPECT_EQ(reopened->records()[0].type, "alpha");
  EXPECT_GT(reopened->truncated_bytes(), 0u);
}

TEST_F(JournalTest, SyncPolicyControlsFsyncCount) {
  const auto appends = [this](JournalSync sync, const std::string& name) {
    auto journal = JournalFile::Open(Path(name), sync).value();
    EXPECT_TRUE(journal->Append("a", {}, /*commit=*/false).ok());
    EXPECT_TRUE(journal->Append("b", {}, /*commit=*/true).ok());
    EXPECT_TRUE(journal->Append("c", {}, /*commit=*/false).ok());
    return journal->syncs();
  };
  EXPECT_EQ(appends(JournalSync::kAlways, "al.journal"), 3u);
  EXPECT_EQ(appends(JournalSync::kCommit, "co.journal"), 1u);
  EXPECT_EQ(appends(JournalSync::kNone, "no.journal"), 0u);
}

TEST_F(JournalTest, RewriteRotatesAtomicallyAndResequences) {
  const std::string path = Path("rot.journal");
  auto journal = JournalFile::Open(path, JournalSync::kAlways).value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(journal->Append("noise", {std::to_string(i)}).ok());
  }
  JournalRecord keep;
  keep.seq = 99;  // arbitrary: Rewrite re-sequences from 1
  keep.type = "kept";
  keep.fields = {"only"};
  ASSERT_TRUE(journal->Rewrite({keep}).ok());
  ASSERT_EQ(journal->records().size(), 1u);
  EXPECT_EQ(journal->records()[0].seq, 1u);
  // Appends after rotation land in the new segment, not the old inode.
  ASSERT_TRUE(journal->Append("after", {}).ok());
  auto reopened = JournalFile::Open(path, JournalSync::kAlways).value();
  ASSERT_EQ(reopened->records().size(), 2u);
  EXPECT_EQ(reopened->records()[0].type, "kept");
  EXPECT_EQ(reopened->records()[1].type, "after");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(JournalTest, FailedRotationLeavesTheOldSegmentIntact) {
  // Regression for rotation under disk pressure: an injected ENOSPC-style
  // write failure or a failed fsync mid-Rewrite must leave the previous
  // segment and the in-memory record list untouched, clean up the temp
  // file, and keep the journal appendable.
  const std::string path = Path("faulty_rot.journal");
  auto journal = JournalFile::Open(path, JournalSync::kAlways).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(journal->Append("rec", {std::to_string(i)}).ok());
  }
  const std::string before = ReadFile(path);

  JournalRecord keep;
  keep.type = "compacted";

  // First fault call fires before the temp segment is written (enospc).
  journal->SetWriteFault(
      [] { return Status::ResourceExhausted("injected enospc"); });
  Status failed = journal->Rewrite({keep});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ReadFile(path), before);
  ASSERT_EQ(journal->records().size(), 4u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Second shape: the write succeeds, the pre-fsync fault fires
  // (fsync_fail) — same guarantees.
  int calls = 0;
  journal->SetWriteFault([&calls]() -> Status {
    return ++calls < 2 ? Status::OK()
                       : Status::IoError("injected fsync failure");
  });
  failed = journal->Rewrite({keep});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(ReadFile(path), before);
  ASSERT_EQ(journal->records().size(), 4u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Still appendable after both failures, and a reopen recovers every
  // record (the old segment was never touched).
  journal->SetWriteFault(nullptr);
  ASSERT_TRUE(journal->Append("after_fault", {}).ok());
  ASSERT_TRUE(journal->Rewrite({keep}).ok());
  auto reopened = JournalFile::Open(path, JournalSync::kAlways).value();
  ASSERT_EQ(reopened->records().size(), 1u);
  EXPECT_EQ(reopened->records()[0].type, "compacted");
}

TEST_F(JournalTest, ParseJournalSyncRoundTrips) {
  for (const JournalSync sync :
       {JournalSync::kNone, JournalSync::kCommit, JournalSync::kAlways}) {
    EXPECT_EQ(ParseJournalSync(JournalSyncName(sync)).value(), sync);
  }
  EXPECT_FALSE(ParseJournalSync("sometimes").ok());
}

// ---------------------------------------------------------------------------
// LeaseFile: single-writer ownership with stale takeover.
// ---------------------------------------------------------------------------

TEST_F(JournalTest, LeaseAcquireReleaseRoundTrip) {
  const std::string path = Path("flow.lease");
  auto lease = LeaseFile::Acquire(path, "tester").value();
  EXPECT_FALSE(lease->took_over());
  EXPECT_EQ(LeaseFile::HolderPid(path).value(), ::getpid());
  ASSERT_TRUE(lease->Release().ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(JournalTest, LeaseHeldByLiveProcessIsBusy) {
  const std::string path = Path("flow.lease");
  // pid 1 is always alive and never us.
  WriteFile(path, "1 other-supervisor\n");
  const auto lease = LeaseFile::Acquire(path, "tester");
  ASSERT_FALSE(lease.ok());
  EXPECT_EQ(lease.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(JournalTest, StaleLeaseIsTakenOver) {
  // A child that exits immediately gives us a pid that is guaranteed dead
  // and was recently valid — exactly what a SIGKILLed supervisor leaves.
  const pid_t dead = ::fork();
  if (dead == 0) ::_exit(0);
  ASSERT_GT(dead, 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(dead, &wstatus, 0), dead);
  const std::string path = Path("flow.lease");
  WriteFile(path, std::to_string(dead) + " dead-supervisor\n");
  auto lease = LeaseFile::Acquire(path, "tester").value();
  EXPECT_TRUE(lease->took_over());
  EXPECT_EQ(LeaseFile::HolderPid(path).value(), ::getpid());
}

// ---------------------------------------------------------------------------
// FlowJournal: lifecycle records -> resume state.
// ---------------------------------------------------------------------------

void ExpectStateEq(const FlowJournalState& got, const FlowJournalState& want,
                   const std::string& context) {
  EXPECT_EQ(got.attempts_started, want.attempts_started) << context;
  EXPECT_EQ(got.attempts_finished, want.attempts_finished) << context;
  EXPECT_EQ(got.last_attempt_status, want.last_attempt_status) << context;
  EXPECT_EQ(got.committed, want.committed) << context;
  EXPECT_EQ(got.has_load_base, want.has_load_base) << context;
  EXPECT_EQ(got.load_base_rows, want.load_base_rows) << context;
  EXPECT_EQ(got.budget_skipped, want.budget_skipped) << context;
  EXPECT_EQ(got.budget_quarantined, want.budget_quarantined) << context;
  ASSERT_EQ(got.rp_commits.size(), want.rp_commits.size()) << context;
  for (const auto& [id, rp] : want.rp_commits) {
    const auto it = got.rp_commits.find(id);
    ASSERT_NE(it, got.rp_commits.end()) << context << " missing rp " << id;
    EXPECT_EQ(it->second.cut, rp.cut) << context;
    EXPECT_EQ(it->second.rows, rp.rows) << context;
  }
  ASSERT_EQ(got.replay.size(), want.replay.size()) << context;
  for (const auto& [key, group] : want.replay) {
    const auto it = got.replay.find(key);
    ASSERT_NE(it, got.replay.end()) << context << " missing group " << key;
    EXPECT_EQ(it->second.op_index, group.op_index) << context;
    EXPECT_EQ(it->second.rows, group.rows) << context;
    EXPECT_EQ(it->second.target_base, group.target_base) << context;
    EXPECT_EQ(it->second.done, group.done) << context;
  }
}

/// Writes a representative flow lifecycle — failed attempt, successful
/// retry with an RP commit, quarantine replay, final commit — capturing a
/// state snapshot after every record.
std::vector<FlowJournalState> WriteLifecycle(const std::string& dir,
                                             const std::string& flow_id) {
  auto journal = FlowJournal::Open(dir, flow_id, JournalSync::kAlways).value();
  std::vector<FlowJournalState> snapshots;
  snapshots.push_back(journal->state());  // empty
  const auto snap = [&](const Status& st) {
    ASSERT_TRUE(st.ok()) << st;
    snapshots.push_back(journal->state());
  };
  snap(journal->RecordLoadBase(100));
  snap(journal->RecordAttemptStart(1, false, -1));
  snap(journal->RecordRpCommit("cut2", 2, 80));
  snap(journal->RecordAttemptEnd(1, "unavailable"));
  snap(journal->RecordAttemptStart(2, false, 2));
  snap(journal->RecordBudget(2, 1, 2));
  snap(journal->RecordAttemptEnd(2, "ok"));
  snap(journal->RecordReplayStart("op3:777:5", 3, 5, 100));
  snap(journal->RecordReplayEnd("op3:777:5"));
  snap(journal->RecordFlowCommit());
  return snapshots;
}

TEST_F(JournalTest, FlowJournalReopenReconstructsState) {
  const std::vector<FlowJournalState> snapshots = WriteLifecycle(dir_, "f");
  ASSERT_EQ(snapshots.size(), 11u);
  auto reopened = FlowJournal::Open(dir_, "f", JournalSync::kAlways).value();
  ExpectStateEq(reopened->state(), snapshots.back(), "reopen");
  const FlowJournalState state = reopened->state();
  EXPECT_EQ(state.attempts_started, 2u);
  EXPECT_EQ(state.attempts_finished, 2u);
  EXPECT_EQ(state.last_attempt_status, "ok");
  EXPECT_TRUE(state.committed);
  EXPECT_TRUE(state.has_load_base);
  EXPECT_EQ(state.load_base_rows, 100u);
  EXPECT_EQ(state.budget_skipped, 1u);
  EXPECT_EQ(state.budget_quarantined, 2u);
  ASSERT_EQ(state.rp_commits.count("cut2"), 1u);
  EXPECT_EQ(state.rp_commits.at("cut2").rows, 80u);
  ASSERT_EQ(state.replay.count("op3:777:5"), 1u);
  EXPECT_TRUE(state.replay.at("op3:777:5").done);

  const FlowResume resume = ResumeFromJournal(state);
  EXPECT_EQ(resume.prior_attempts, 2u);
  EXPECT_TRUE(resume.has_load_base);
  EXPECT_EQ(resume.load_base_rows, 100u);
}

// Satellite: the torn-tail property. For EVERY byte-length prefix of the
// segment, opening (a) truncates to a record boundary and (b) yields
// exactly the state as of the last surviving record. This is the property
// the kill -9 sweep relies on: no matter where the kill lands inside an
// append, the next incarnation resumes from a consistent earlier point.
TEST_F(JournalTest, EveryBytePrefixResumesAtARecordBoundary) {
  const std::vector<FlowJournalState> snapshots = WriteLifecycle(dir_, "f");
  const std::string path = dir_ + "/f.journal";
  const std::string bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());
  // Record boundaries: offset 0 plus the position after every newline.
  std::vector<size_t> boundaries{0};
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') boundaries.push_back(i + 1);
  }
  ASSERT_EQ(boundaries.size(), snapshots.size());  // one per record + start

  const std::string prefix_dir = dir_ + "/prefix";
  std::filesystem::create_directories(prefix_dir);
  const std::string prefix_path = prefix_dir + "/f.journal";
  for (size_t len = 0; len <= bytes.size(); ++len) {
    WriteFile(prefix_path, bytes.substr(0, len));
    const auto opened = FlowJournal::Open(prefix_dir, "f", JournalSync::kNone);
    ASSERT_TRUE(opened.ok()) << "prefix " << len << ": " << opened.status();
    // The largest record boundary <= len is where recovery must land.
    size_t k = 0;
    while (k + 1 < boundaries.size() && boundaries[k + 1] <= len) ++k;
    std::error_code ec;
    EXPECT_EQ(std::filesystem::file_size(prefix_path, ec), boundaries[k])
        << "prefix " << len << " not truncated to a record boundary";
    EXPECT_EQ(opened.value()->truncated_bytes(), len - boundaries[k]);
    ExpectStateEq(opened.value()->state(), snapshots[k],
                  "prefix " + std::to_string(len));
  }
}

TEST_F(JournalTest, CompactAfterCommitKeepsOnlyDurableFacts) {
  WriteLifecycle(dir_, "f");
  auto journal = FlowJournal::Open(dir_, "f", JournalSync::kAlways).value();
  ASSERT_TRUE(journal->Compact().ok());
  auto reopened = FlowJournal::Open(dir_, "f", JournalSync::kAlways).value();
  const FlowJournalState state = reopened->state();
  EXPECT_TRUE(state.committed);
  EXPECT_TRUE(state.has_load_base);
  EXPECT_EQ(state.load_base_rows, 100u);
  // Attempt history and RP commits are noise once committed (the RPs were
  // dropped); the replay dedup groups must survive compaction, or a
  // replayed group would re-apply after a later restart.
  EXPECT_EQ(state.attempts_started, 0u);
  EXPECT_TRUE(state.rp_commits.empty());
  ASSERT_EQ(state.replay.count("op3:777:5"), 1u);
  EXPECT_TRUE(state.replay.at("op3:777:5").done);
}

TEST_F(JournalTest, CompactBeforeCommitPreservesResumeState) {
  auto journal = FlowJournal::Open(dir_, "g", JournalSync::kAlways).value();
  ASSERT_TRUE(journal->RecordLoadBase(50).ok());
  ASSERT_TRUE(journal->RecordAttemptStart(1, false, -1).ok());
  ASSERT_TRUE(journal->RecordRpCommit("cut1", 1, 40).ok());
  ASSERT_TRUE(journal->Compact().ok());
  auto reopened = FlowJournal::Open(dir_, "g", JournalSync::kAlways).value();
  const FlowJournalState state = reopened->state();
  EXPECT_FALSE(state.committed);
  EXPECT_EQ(state.attempts_started, 1u);
  ASSERT_EQ(state.rp_commits.count("cut1"), 1u);
  EXPECT_EQ(state.rp_commits.at("cut1").rows, 40u);
  const FlowResume resume = ResumeFromJournal(state);
  EXPECT_EQ(resume.prior_attempts, 1u);
  EXPECT_EQ(resume.load_base_rows, 50u);
}

// ---------------------------------------------------------------------------
// AdoptJournaledRecoveryPoints: journal + marker -> fresh store registry.
// ---------------------------------------------------------------------------

TEST_F(JournalTest, JournaledRecoveryPointsAdoptIntoFreshStore) {
  const std::string rp_dir = dir_ + "/rp";
  const Schema schema({{"id", DataType::kInt64, false}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 8; ++i) rows.push_back(Row({Value::Int64(i)}));
  auto store = RecoveryPointStore::Open(rp_dir).value();
  ASSERT_TRUE(store->Save({"f", "cut1"}, schema, rows).ok());
  ASSERT_TRUE(store->Save({"f", "cut2"}, schema, rows).ok());

  FlowJournalState state;
  state.rp_commits["cut1"] = {"cut1", 1, 8};
  state.rp_commits["cut2"] = {"cut2", 2, 8};
  state.rp_commits["cut3"] = {"cut3", 3, 8};  // never persisted: skipped

  auto fresh = RecoveryPointStore::Open(rp_dir).value();
  EXPECT_FALSE(fresh->Has({"f", "cut1"}));
  const Result<size_t> adopted =
      AdoptJournaledRecoveryPoints(state, "f", fresh.get());
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_EQ(adopted.value(), 2u);
  EXPECT_TRUE(fresh->Has({"f", "cut1"}));
  EXPECT_TRUE(fresh->Has({"f", "cut2"}));
  EXPECT_FALSE(fresh->Has({"f", "cut3"}));
}

}  // namespace
}  // namespace qox
