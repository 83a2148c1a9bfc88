// Sharded CDC ingestion chaos harness: seeded SIGKILL schedules against
// shard workers and against the coordinator itself. The headline
// invariant: however the kills land, the warehouse WAL converges
// BYTE-IDENTICAL to an unkilled single-shard reference of the same stream
// — every committed update loads exactly once across arbitrary process
// deaths. A shard that stays dead degrades the run instead of stalling
// it: healthy shards keep loading and the dead shard's backlog is
// reported as per-shard lag.
//
// The sweep width defaults to 8 seeds per mode; QOX_CDC_SEEDS tunes it
// (scripts/check.sh --fast sets 2).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crash_point.h"
#include "common/rng.h"
#include "engine/cdc_coordinator.h"
#include "engine/supervisor.h"
#include "storage/flat_file.h"
#include "storage/journal_file.h"
#include "storage/lease_file.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

size_t SweepWidth() {
  const char* env = std::getenv("QOX_CDC_SEEDS");
  if (env == nullptr) return 8;
  const unsigned long parsed = std::strtoul(env, nullptr, 10);
  return parsed == 0 ? 8 : static_cast<size_t>(parsed);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

CdcStreamSpec TestStream(uint64_t seed) {
  CdcStreamSpec stream;
  stream.seed = seed;
  stream.num_keys = 40;
  stream.total_events = 160;
  return stream;
}

/// Events of [begin, end) that survive the NotNull(amount) filter — the
/// exactly-once expectation for the WAL rows a slice range contributes.
size_t CountLoadableEventsInRange(const CdcStreamSpec& spec, size_t begin,
                                  size_t end) {
  const CdcSource source(spec);
  const size_t amount_idx = CdcSchema().FieldIndex("amount").value();
  size_t loadable = 0;
  for (size_t i = begin; i < end && i < spec.total_events; ++i) {
    if (!source.EventAt(i).value(amount_idx).is_null()) ++loadable;
  }
  return loadable;
}

size_t CountLoadableEvents(const CdcStreamSpec& spec) {
  return CountLoadableEventsInRange(spec, 0, spec.total_events);
}

/// WAL versions must be strictly increasing: slices apply in order and
/// each slice is merged by globally unique version.
void ExpectVersionsStrictlyIncreasing(const std::string& wal_path,
                                      const Schema& schema) {
  auto wal = FlatFile::Open("check", schema, wal_path).value();
  const RowBatch rows = wal->ReadAll().value();
  const size_t ver_idx = schema.FieldIndex("version").value();
  int64_t last = 0;
  for (const Row& row : rows.rows()) {
    const int64_t version = row.value(ver_idx).int64_value();
    EXPECT_GT(version, last);
    last = version;
  }
}

class CdcSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/cdc_sweep_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  std::string root_;
};

// ---------------------------------------------------------------------------
// Headline sweep: seeded shard kills, byte-identical convergence.
// ---------------------------------------------------------------------------

TEST_F(CdcSweepTest, WarehouseConvergesByteIdenticalUnderShardKills) {
  const size_t width = SweepWidth();
  size_t total_crashes = 0;
  for (size_t seed = 0; seed < width; ++seed) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE("cdc seed " + std::to_string(seed) +
                   (streaming ? " streaming" : " phased"));
      const CdcStreamSpec stream = TestStream(100 + seed);
      const std::string tag = std::to_string(seed) + (streaming ? "s" : "p");

      // Unkilled single-shard reference: same stream, same slicing, one
      // in-process worker. The WAL is a pure function of the stream, so
      // the sharded chaotic run must reproduce it byte for byte.
      CdcOptions ref;
      ref.scratch_dir = root_ + "/ref" + tag;
      ref.stream = stream;
      ref.topology.shards = 1;
      ref.topology.slice_events = 64;
      ref.streaming = streaming;
      ref.supervised = false;
      const Result<CdcReport> ref_report = CdcCoordinator::Run(ref);
      ASSERT_TRUE(ref_report.ok()) << ref_report.status();

      // Chaos run: 3 supervised shards with a seeded kill schedule armed
      // per (shard, incarnation). Kills land on the shard flows' own
      // durability boundaries; an unreached spec just converges early.
      CdcOptions chaos = ref;
      chaos.scratch_dir = root_ + "/chaos" + tag;
      chaos.topology.shards = 3;
      chaos.supervised = true;
      chaos.max_shard_incarnations = 8;
      static const char* kCatalog[] = {
          "child.start",    "journal.append", "journal.appended",
          "flat.append",    "flat.mid_append", "flat.appended",
          "rp.publish",     "rp.published",    "rp.sealed",
      };
      Rng rng(seed * 7907 + 3);
      auto kills = std::make_shared<
          std::map<std::pair<size_t, int>, std::string>>();
      for (size_t s = 0; s < chaos.topology.shards; ++s) {
        const size_t num_kills = static_cast<size_t>(rng.Uniform(0, 2));
        for (size_t k = 0; k < num_kills; ++k) {
          const size_t point = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(std::size(kCatalog)) - 1));
          // Most points are hit once per incarnation of these small slice
          // flows, so a count above 1 would never fire; journal appends
          // happen several times per attempt and can kill deeper in.
          const int64_t count =
              std::string(kCatalog[point]) == "journal.append"
                  ? rng.Uniform(1, 3)
                  : 1;
          (*kills)[{s, static_cast<int>(k) + 1}] =
              std::string(kCatalog[point]) + ":" + std::to_string(count);
        }
      }
      chaos.shard_child_setup = [kills](size_t shard, int incarnation) {
        const auto it = kills->find({shard, incarnation});
        ArmCrashPoints(it != kills->end() ? it->second : "");
      };
      const Result<CdcReport> report = CdcCoordinator::Run(chaos);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_FALSE(report.value().degraded);
      EXPECT_EQ(report.value().slices_applied, report.value().slices);

      EXPECT_EQ(ReadFileBytes(report.value().warehouse_path),
                ReadFileBytes(ref_report.value().warehouse_path));
      EXPECT_EQ(report.value().wal_rows, CountLoadableEvents(stream));
      ExpectVersionsStrictlyIncreasing(
          report.value().warehouse_path,
          CdcCoordinator::StagedSchema(chaos).value());

      // Per-shard accounting: routing covers the whole window, nothing
      // lags on a converged run.
      size_t routed = 0;
      for (const ShardStats& stats : report.value().metrics.shard_stats) {
        EXPECT_FALSE(stats.dead);
        EXPECT_EQ(stats.lag_events, 0u);
        routed += stats.events_routed;
        total_crashes += stats.crashes;
      }
      EXPECT_EQ(routed, stream.total_events);
    }
  }
  // The sweep is only evidence if the kills actually land: across all
  // seeds a meaningful share of armed specs must have fired.
  EXPECT_GE(total_crashes, std::max<size_t>(2, width / 2));
}

// ---------------------------------------------------------------------------
// Coordinator kills: stale-lease takeover + watermark resume.
// ---------------------------------------------------------------------------

TEST_F(CdcSweepTest, CoordinatorSurvivesKillsWithLeaseTakeover) {
  // One scenario per coordinator crash point, including the double-apply
  // window between the WAL append and the slice_applied record. Each
  // killed incarnation leaves a stale coordinator lease its successor must
  // take over (the holder pid is a dead child).
  const std::vector<std::string> scenarios = {
      "cdc.slice_start:1",   "cdc.slice_staged:1", "cdc.slice_staged:2",
      "cdc.apply:1",         "cdc.apply:2",        "cdc.slice_applied:1",
      "cdc.commit:1",        "flat.append:2",      "journal.append:3",
  };
  const CdcStreamSpec stream = TestStream(4242);

  CdcOptions clean;
  clean.scratch_dir = root_ + "/coord_clean";
  clean.stream = stream;
  clean.topology.shards = 2;
  clean.topology.slice_events = 64;
  clean.supervised = false;
  const Result<CdcReport> clean_report = CdcCoordinator::Run(clean);
  ASSERT_TRUE(clean_report.ok()) << clean_report.status();

  for (size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE("coordinator kill " + scenarios[i]);
    CdcOptions options = clean;
    options.scratch_dir = root_ + "/coord" + std::to_string(i);
    options.supervised = true;

    SupervisorOptions sup;
    sup.scratch_dir = root_ + "/coord_sup" + std::to_string(i);
    sup.max_incarnations = 4;
    const std::string kill = scenarios[i];
    sup.child_setup = [&kill](int incarnation) {
      // Kill the first coordinator incarnation only; the successor
      // converges. Shard workers it forks are disarmed by the default
      // CdcOptions::shard_child_setup.
      ArmCrashPoints(incarnation == 1 ? kill : "");
    };
    const Result<SupervisorReport> report = FlowSupervisor::Run(
        "cdc_coord",
        [&options](const FlowEnv& env) {
          const Result<CdcReport> run = CdcCoordinator::Run(options);
          if (!run.ok()) return run.status();
          return env.journal->RecordFlowCommit();
        },
        sup);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report.value().success)
        << report.value().final_status.ToString();
    EXPECT_GE(report.value().crashes, 1u);

    // Byte identity survives the coordinator's own death and resume.
    EXPECT_EQ(ReadFileBytes(options.scratch_dir + "/warehouse.csv"),
              ReadFileBytes(clean.scratch_dir + "/warehouse.csv"));

    // The successor journaled its displacement of the stale lease and the
    // final commit — visible to operators after the fact.
    auto journal = JournalFile::Open(
                       options.scratch_dir + "/coordinator.journal",
                       JournalSync::kAlways)
                       .value();
    bool saw_takeover = false;
    bool saw_commit = false;
    for (const JournalRecord& record : journal->records()) {
      if (record.type == "takeover") saw_takeover = true;
      if (record.type == "cdc_commit") saw_commit = true;
    }
    EXPECT_TRUE(saw_takeover) << "stale coordinator lease not taken over";
    EXPECT_TRUE(saw_commit);
  }
}

// ---------------------------------------------------------------------------
// Torn-slice resume × shard death on the SAME slice: pinned membership.
// ---------------------------------------------------------------------------

TEST_F(CdcSweepTest, TornSliceResumeSurvivesShardDeathsOnTheSameSlice) {
  // The hardest exactly-once interleaving: incarnation A pins slice 1,
  // stages every shard, appends PART of the merged slice to the WAL and
  // dies; before the resume, every shard's slice-1 commit record is lost
  // (a machine crash under a lazy sync policy) and every shard dies for
  // good. Without the journaled slice_staged membership the successor
  // would re-partition the half-applied slice around the now-dead shards
  // and mis-skip the durable prefix (duplicating some rows, dropping
  // others, or dying on the prefix guard). With it, slice 1 re-merges
  // from the staged files on disk and the deaths only degrade slice 2.
  const CdcStreamSpec stream = TestStream(31337);
  CdcOptions options;
  options.scratch_dir = root_ + "/torn";
  options.stream = stream;
  options.topology.shards = 3;
  options.topology.slice_events = 64;  // slices [0,64) [64,128) [128,160)
  options.supervised = true;
  options.batch_size = 8;

  const size_t slice0_rows = CountLoadableEventsInRange(stream, 0, 64);
  const size_t slice1_rows = CountLoadableEventsInRange(stream, 64, 128);
  ASSERT_GT(slice0_rows, 0u);
  ASSERT_GT(slice1_rows, options.batch_size);  // the prefix stays partial
  const size_t slice0_appends =
      (slice0_rows + options.batch_size - 1) / options.batch_size;

  // Phase 1: a single-incarnation coordinator dies right after the first
  // WAL batch of slice 1 lands. Its shard workers (grandchildren) are
  // disarmed by the default shard_child_setup, so the kill is the
  // coordinator's own — slice 1 is torn with a nonempty durable prefix
  // and every shard flow of slice 1 already converged.
  SupervisorOptions sup;
  sup.scratch_dir = root_ + "/torn_sup";
  sup.max_incarnations = 1;
  const std::string kill =
      "flat.appended:" + std::to_string(slice0_appends + 1);
  sup.child_setup = [&kill](int) { ArmCrashPoints(kill); };
  const Result<SupervisorReport> phase1 = FlowSupervisor::Run(
      "cdc_coord",
      [&options](const FlowEnv& env) {
        const Result<CdcReport> run = CdcCoordinator::Run(options);
        if (!run.ok()) return run.status();
        return env.journal->RecordFlowCommit();
      },
      sup);
  ASSERT_TRUE(phase1.ok()) << phase1.status();
  EXPECT_FALSE(phase1.value().success);
  EXPECT_EQ(phase1.value().crashes, 1u);
  const Schema schema = CdcCoordinator::StagedSchema(options).value();
  const std::string wal_path = options.scratch_dir + "/warehouse.csv";
  {
    auto wal = FlatFile::Open("peek", schema, wal_path).value();
    ASSERT_EQ(wal->NumRows().value(), slice0_rows + options.batch_size);
  }

  // Lose the shard flows' slice-1 commit records: their journals are the
  // only thing marking those flows converged, and a lazily-synced journal
  // does not survive a machine crash the way the staged CSVs already on
  // disk do.
  for (size_t s = 0; s < options.topology.shards; ++s) {
    const std::string journal = options.scratch_dir + "/shard" +
                                std::to_string(s) + "/s" +
                                std::to_string(s) + "_j1.journal";
    ASSERT_TRUE(std::filesystem::remove(journal)) << journal;
  }

  // Phase 2: resume with every shard dying on entry, forever. The torn
  // slice must re-merge its pinned membership without re-running (and
  // thereby killing) any shard; the deaths land on slice 2.
  CdcOptions resume = options;
  resume.max_shard_incarnations = 2;
  resume.shard_child_setup = [](size_t, int) {
    ArmCrashPoints("child.start:1");
  };
  const Result<CdcReport> report = CdcCoordinator::Run(resume);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().lease_takeover);
  EXPECT_TRUE(report.value().degraded);
  EXPECT_EQ(report.value().shards_dead, 3u);
  EXPECT_EQ(report.value().slices_applied, report.value().slices);
  EXPECT_EQ(report.value().wal_rows, slice0_rows + slice1_rows);
  EXPECT_EQ(report.value().metrics.rows_loaded,
            slice1_rows - options.batch_size);

  // Byte determinism of the surviving window: slices 0–1 must equal the
  // clean reference exactly — nothing duplicated, dropped, or reordered
  // around the torn apply.
  CdcOptions clean;
  clean.scratch_dir = root_ + "/torn_ref";
  clean.stream = stream;
  clean.topology = options.topology;
  clean.batch_size = options.batch_size;
  clean.supervised = false;
  const Result<CdcReport> clean_report = CdcCoordinator::Run(clean);
  ASSERT_TRUE(clean_report.ok()) << clean_report.status();
  const std::string chaos_bytes = ReadFileBytes(wal_path);
  const std::string ref_bytes =
      ReadFileBytes(clean_report.value().warehouse_path);
  ASSERT_LT(chaos_bytes.size(), ref_bytes.size());
  EXPECT_EQ(chaos_bytes, ref_bytes.substr(0, chaos_bytes.size()));
}

// ---------------------------------------------------------------------------
// Lease heartbeat: a usurped coordinator stops instead of split-braining.
// ---------------------------------------------------------------------------

TEST_F(CdcSweepTest, UsurpedLeaseStopsTheCoordinatorInsteadOfSplitBrain) {
  // Simulate a QOX_LEASE_TIMEOUT_MS takeover landing while the
  // coordinator is busy supervising shard flows: shard 1's worker
  // rewrites the coordinator lease to a foreign live pid (pid 1 always
  // exists). The coordinator's next heartbeat must detect the
  // displacement and fail the run BEFORE any further WAL append — and
  // must not reclaim or delete the usurper's lease on the way out.
  const CdcStreamSpec stream = TestStream(555);
  CdcOptions options;
  options.scratch_dir = root_ + "/usurped";
  options.stream = stream;
  options.topology.shards = 2;
  options.topology.slice_events = 1000;  // one slice: no later heartbeat
  options.supervised = true;
  const std::string lease_path = options.scratch_dir + "/coordinator.lease";
  options.shard_child_setup = [lease_path](size_t shard, int) {
    ArmCrashPoints("");
    if (shard == 1) testing_util::PlantLease(lease_path, 1, "usurper");
  };
  const Result<CdcReport> report = CdcCoordinator::Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(LeaseFile::HolderPid(lease_path).value(), 1);

  // Nothing reached the warehouse after the displacement.
  const Schema schema = CdcCoordinator::StagedSchema(options).value();
  auto wal = FlatFile::Open("peek", schema,
                            options.scratch_dir + "/warehouse.csv")
                 .value();
  EXPECT_EQ(wal->NumRows().value(), 0u);
}

// ---------------------------------------------------------------------------
// Journal hygiene: corrupted watermark counts surface, never replay.
// ---------------------------------------------------------------------------

TEST_F(CdcSweepTest, CorruptedJournalCountsAreRejected) {
  // strtoull quietly maps "" to 0 and wraps "-5" — a corrupted journal
  // cell must fail the resume as CorruptedData instead of replaying as a
  // bogus watermark.
  const std::vector<std::string> bad_counts = {"", "-5", "7x", "+3"};
  for (size_t i = 0; i < bad_counts.size(); ++i) {
    SCOPED_TRACE("bad count '" + bad_counts[i] + "'");
    CdcOptions options;
    options.scratch_dir = root_ + "/corrupt" + std::to_string(i);
    options.stream = TestStream(1);
    options.topology.shards = 2;
    options.topology.slice_events = 64;
    options.supervised = false;
    std::filesystem::create_directories(options.scratch_dir);
    {
      auto journal = JournalFile::Open(
                         options.scratch_dir + "/coordinator.journal",
                         JournalSync::kAlways)
                         .value();
      ASSERT_TRUE(journal
                      ->Append("cdc_meta",
                               {"2", "64",
                                std::to_string(options.stream.total_events),
                                std::to_string(options.stream.seed)},
                               /*commit=*/true)
                      .ok());
      ASSERT_TRUE(journal
                      ->Append("slice_start", {"0", bad_counts[i]},
                               /*commit=*/true)
                      .ok());
    }
    const Result<CdcReport> report = CdcCoordinator::Run(options);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kCorruptedData);
  }
}

// ---------------------------------------------------------------------------
// Dead-shard degradation: bounded staleness, attributed lag.
// ---------------------------------------------------------------------------

TEST_F(CdcSweepTest, DeadShardDegradesWithAttributedLag) {
  const CdcStreamSpec stream = TestStream(777);
  const size_t kDeadShard = 2;

  CdcOptions options;
  options.scratch_dir = root_ + "/degraded";
  options.stream = stream;
  options.topology.shards = 3;
  options.topology.slice_events = 64;
  options.supervised = true;
  options.max_shard_incarnations = 2;
  // Shard 2's every incarnation dies on entry: its supervision exhausts
  // the budget and the coordinator must journal it dead and keep going.
  options.shard_child_setup = [](size_t shard, int /*incarnation*/) {
    ArmCrashPoints(shard == kDeadShard ? "child.start:1" : "");
  };
  const Result<CdcReport> report = CdcCoordinator::Run(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().degraded);
  EXPECT_EQ(report.value().shards_dead, 1u);
  EXPECT_EQ(report.value().slices_applied, report.value().slices);

  // Lag attribution: the dead shard is behind by exactly its share of the
  // stream (it died before applying anything); healthy shards are current.
  const auto& stats = report.value().metrics.shard_stats;
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_TRUE(stats[kDeadShard].dead);
  EXPECT_GT(stats[kDeadShard].events_routed, 0u);
  EXPECT_EQ(stats[kDeadShard].lag_events, stats[kDeadShard].events_routed);
  EXPECT_EQ(stats[kDeadShard].events_applied, 0u);
  for (const size_t healthy : {size_t{0}, size_t{1}}) {
    EXPECT_FALSE(stats[healthy].dead);
    EXPECT_EQ(stats[healthy].lag_events, 0u);
    EXPECT_EQ(stats[healthy].events_applied, stats[healthy].events_routed);
  }
  const std::string summary = report.value().metrics.Summary();
  EXPECT_NE(summary.find("shards_dead=1"), std::string::npos) << summary;

  // The degraded warehouse equals the clean warehouse minus the dead
  // shard's keys: healthy data kept loading, nothing else leaked in.
  CdcOptions clean;
  clean.scratch_dir = root_ + "/degraded_ref";
  clean.stream = stream;
  clean.topology = options.topology;
  clean.supervised = false;
  const Result<CdcReport> clean_report = CdcCoordinator::Run(clean);
  ASSERT_TRUE(clean_report.ok()) << clean_report.status();
  const Schema schema = CdcCoordinator::StagedSchema(options).value();
  const size_t key_idx = schema.FieldIndex("key").value();
  std::vector<Row> expected;
  std::vector<Row> clean_state =
      CdcWarehouseState(clean_report.value().warehouse_path, schema).value();
  for (Row& row : clean_state) {
    if (CdcShardOf(row.value(key_idx).int64_value(),
                   options.topology.shards) != kDeadShard) {
      expected.push_back(std::move(row));
    }
  }
  EXPECT_EQ(CdcWarehouseState(report.value().warehouse_path, schema).value(),
            expected);

  // Death is sticky across coordinator restarts: a rerun of the committed
  // window stays degraded and appends nothing (exactly-once idempotence).
  CdcOptions rerun = options;
  rerun.shard_child_setup = [](size_t, int) { ArmCrashPoints(""); };
  const Result<CdcReport> again = CdcCoordinator::Run(rerun);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again.value().degraded);
  EXPECT_EQ(again.value().wal_rows, report.value().wal_rows);
  EXPECT_EQ(again.value().metrics.rows_loaded, 0u);
}

// ---------------------------------------------------------------------------
// Mechanics: in-process mode, dimension lookups, meta validation.
// ---------------------------------------------------------------------------

Schema DimensionSchema() {
  return Schema{{"cat_key", DataType::kString, false},
                {"cat_label", DataType::kString, false}};
}

TEST_F(CdcSweepTest, InProcessRunLoadsExactlyOnceWithDimensionLookups) {
  const CdcStreamSpec stream = TestStream(9001);
  // Dimension covering only half the categories: kNull misses must load
  // with a NULL label instead of rejecting the event.
  auto dimension = std::make_shared<MemTable>("dim", DimensionSchema());
  RowBatch dim_rows(DimensionSchema());
  for (const int c : {0, 2, 4, 6}) {
    dim_rows.Append(Row(std::vector<Value>{
        Value::String("c" + std::to_string(c)),
        Value::String("label" + std::to_string(c))}));
  }
  ASSERT_TRUE(dimension->Append(dim_rows).ok());

  CdcOptions options;
  options.scratch_dir = root_ + "/inproc";
  options.stream = stream;
  options.topology.shards = 2;
  options.topology.slice_events = 48;
  options.supervised = false;
  options.dimension = dimension;
  const Result<CdcReport> report = CdcCoordinator::Run(options);
  ASSERT_TRUE(report.ok()) << report.status();

  const Schema schema = CdcCoordinator::StagedSchema(options).value();
  EXPECT_TRUE(schema.HasField("cat_label"));
  EXPECT_TRUE(schema.HasField("scaled"));
  EXPECT_EQ(report.value().wal_rows, CountLoadableEvents(stream));
  EXPECT_EQ(report.value().slices, 4u);  // ceil(160 / 48)
  EXPECT_EQ(report.value().slice_latency_micros.size(), 4u);
  ExpectVersionsStrictlyIncreasing(report.value().warehouse_path, schema);

  // The folded warehouse state carries one row per key, keyed ascending.
  const std::vector<Row> state =
      CdcWarehouseState(report.value().warehouse_path, schema).value();
  const size_t key_idx = schema.FieldIndex("key").value();
  int64_t last_key = -1;
  for (const Row& row : state) {
    EXPECT_GT(row.value(key_idx).int64_value(), last_key);
    last_key = row.value(key_idx).int64_value();
  }
  EXPECT_LE(state.size(), stream.num_keys);

  // A journal written for this stream refuses to resume a different one:
  // its watermarks would be meaningless against other contents.
  CdcOptions mismatched = options;
  mismatched.stream.seed = stream.seed + 1;
  const Result<CdcReport> rejected = CdcCoordinator::Run(mismatched);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CdcSweepTest, EmptyStreamCommitsAnEmptyWarehouse) {
  CdcOptions options;
  options.scratch_dir = root_ + "/empty";
  options.stream.total_events = 0;
  options.topology.shards = 2;
  options.supervised = false;
  const Result<CdcReport> report = CdcCoordinator::Run(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().slices, 1u);
  EXPECT_EQ(report.value().wal_rows, 0u);
  EXPECT_EQ(report.value().slices_applied, 1u);
}

}  // namespace
}  // namespace qox
