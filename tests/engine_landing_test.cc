// The Δ landing path end to end. A Δ hands the landing it compared to the
// run, and Executor::Run commits that landing into the Δ's snapshot once
// the load has succeeded. The snapshot must then equal the de-duplicated
// landing the Δ compared — in serial, partitioned (a round-robin range
// runs the Δ serially, a range hashed on its key splits it into
// key-disjoint parts), streaming, retried, resumed and redundant runs — and
// a failed run must commit nothing. A run resumes past a Δ only from a
// recovery point it made itself, since only then does it hold the landing
// the Δ compared. The partition branches of a hash-partitioned Δ and the
// instances of a redundant run hand their landings over concurrently, so
// this binary is in the TSan leg of scripts/check.sh.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/sales_workflow.h"
#include "core/translate.h"
#include "engine/executor.h"
#include "engine/flow_journal.h"
#include "engine/ops/delta_op.h"
#include "storage/recovery_store.h"
#include "test_util.h"

namespace qox {

// Failure messages show rows as "(v1, v2, ...)".
void PrintTo(const Row& row, std::ostream* os) { *os << row.ToString(); }

namespace {

using testing_util::MakeSource;
using testing_util::SimpleRow;
using testing_util::SimpleSchema;

/// A store that forwards to `inner`, counting scans and running `after_scan`
/// (once) when the first scan has handed over its last batch.
class ForwardingStore : public DataStore {
 public:
  explicit ForwardingStore(DataStorePtr inner) : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  Result<size_t> NumRows() const override { return inner_->NumRows(); }
  Status Scan(size_t batch_size,
              const std::function<Status(RowBatch&)>& consumer)
      const override {
    ++scans_;
    QOX_RETURN_IF_ERROR(inner_->Scan(batch_size, consumer));
    if (after_scan_) {
      const std::function<Status()> hook = std::move(after_scan_);
      after_scan_ = nullptr;
      return hook();
    }
    return Status::OK();
  }
  Status Append(const RowBatch& batch) override {
    if (fail_appends_) return Status::IoError("target offline");
    return inner_->Append(batch);
  }
  Status Truncate() override { return inner_->Truncate(); }

  size_t scans() const { return scans_.load(); }
  void set_after_scan(std::function<Status()> hook) {
    after_scan_ = std::move(hook);
  }
  void set_fail_appends(bool fail) { fail_appends_ = fail; }

 private:
  const DataStorePtr inner_;
  mutable std::atomic<size_t> scans_{0};
  mutable std::function<Status()> after_scan_;
  bool fail_appends_ = false;
};

/// `flow` reading from `source` instead, with the same ops, target and
/// post-success hook.
LogicalFlow WithSource(const LogicalFlow& flow, DataStorePtr source) {
  LogicalFlow out(flow.id(), std::move(source), flow.ops(), flow.target());
  out.set_post_success(flow.post_success());
  return out;
}

/// Rows keyed by their column 0 (an int64 business key); a repeated key
/// keeps its last row.
std::map<int64_t, Row> ByKey(const std::vector<Row>& rows) {
  std::map<int64_t, Row> keyed;
  for (const Row& row : rows) keyed[row.value(0).int64_value()] = row;
  return keyed;
}

/// The de-duplicated landing of `source`: what a Δ over it compares.
std::map<int64_t, Row> ExpectedLanding(const DataStore& source) {
  return ByKey(source.ReadAll().value().rows());
}

/// The snapshot's rows by key; a key held twice fails the test.
std::map<int64_t, Row> SnapshotByKey(const SnapshotStore& snapshot) {
  const std::vector<Row> rows = snapshot.Rows();
  const std::map<int64_t, Row> keyed = ByKey(rows);
  EXPECT_EQ(keyed.size(), rows.size()) << "a key is held twice";
  return keyed;
}

std::unique_ptr<SalesScenario> MakeScenario() {
  SalesScenarioConfig config;
  config.s1_rows = 2500;
  config.s2_rows = 400;
  config.s3_rows = 100;
  Result<std::unique_ptr<SalesScenario>> scenario =
      SalesScenario::Create(config);
  EXPECT_TRUE(scenario.ok()) << scenario.status();
  return scenario.TakeValue();
}

Result<RunMetrics> RunFlow(const LogicalFlow& flow,
                           const ExecutionConfig& config = {}) {
  return Executor::Run(flow.ToFlowSpec(), config);
}

TEST(LandingTest, SerialRunScansTheSourceOnceAndCommitsItsLanding) {
  auto scenario = MakeScenario();
  auto source = std::make_shared<ForwardingStore>(scenario->s1());
  const LogicalFlow flow = WithSource(scenario->bottom_flow(), source);
  const Result<RunMetrics> metrics = RunFlow(flow);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(source->scans(), 1u);
  const std::map<int64_t, Row> expected = ExpectedLanding(*scenario->s1());
  EXPECT_EQ(metrics.value().landing_rows_committed, expected.size());
  EXPECT_EQ(SnapshotByKey(*scenario->sales_snapshot()), expected);
}

TEST(LandingTest, RowsAppendedAfterTheExtractLoadInTheNextRun) {
  auto scenario = MakeScenario();
  auto source = std::make_shared<ForwardingStore>(scenario->s1());
  SalesScenario* s = scenario.get();
  // The source grows between the extract and the commit: the snapshot
  // must hold only what the Δ compared, so the next run loads the rest.
  source->set_after_scan([s] { return s->AppendS1Batch(10); });
  const LogicalFlow flow = WithSource(scenario->bottom_flow(), source);
  const Result<RunMetrics> first = RunFlow(flow);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(scenario->sales_snapshot()->snapshot_size(), 2500u);

  const Result<RunMetrics> second = RunFlow(flow);
  ASSERT_TRUE(second.ok()) << second.status();
  size_t changes = 0;
  for (const OpStats& op : second.value().op_stats) {
    if (op.kind == "delta") changes = op.rows_out;
  }
  EXPECT_EQ(changes, 10u);
  EXPECT_GT(second.value().rows_loaded, 0u);
  EXPECT_EQ(scenario->sales_snapshot()->snapshot_size(), 2510u);
}

TEST(LandingTest, TranslatedDeltaFlowCommitsItsLanding) {
  auto scenario = MakeScenario();
  const Result<LogicalFlow> flow =
      TranslateToLogical(SalesBottomConceptual(), *scenario);
  ASSERT_TRUE(flow.ok()) << flow.status();
  const Result<RunMetrics> first = RunFlow(flow.value());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GT(first.value().rows_loaded, 0u);
  const Result<RunMetrics> second = RunFlow(flow.value());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().rows_loaded, 0u);
}

struct Shape {
  std::string name;
  size_t partitions = 1;
  size_t range_begin = 0;
  size_t range_end = static_cast<size_t>(-1);
  std::vector<size_t> recovery_points;
  size_t redundancy = 1;
};

/// The planner sweep's ten configurations.
std::vector<Shape> SweepShapes() {
  const size_t kMax = static_cast<size_t>(-1);
  return {
      {"1PF", 1, 0, kMax, {}, 1},
      {"4PF-p", 4, 1, 5, {}, 1},
      {"4PF-f", 4, 0, kMax, {}, 1},
      {"8PF-p", 8, 1, 5, {}, 1},
      {"1PF+RPend", 1, 0, kMax, {5}, 1},
      {"4PF-p+RP", 4, 1, 5, {0, 2}, 1},
      {"4PF-f+RP++", 4, 0, kMax, {0, 2, 4}, 1},
      {"TMR", 1, 0, kMax, {}, 3},
      {"5MR", 1, 0, kMax, {}, 5},
      {"TMR+4PF-p", 4, 1, 5, {}, 3},
  };
}

class LandingSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = MakeScenario();
    rp_dir_ = ::testing::TempDir() + "/landing_sweep_" +
              std::to_string(::getpid()) + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(rp_dir_);
    rp_store_ = RecoveryPointStore::Open(rp_dir_).value();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(rp_dir_, ec);
  }

  ExecutionConfig ConfigFor(const Shape& shape, size_t num_ops,
                            bool streaming) const {
    ExecutionConfig config;
    config.num_threads = shape.partitions;
    config.parallel.partitions = shape.partitions;
    config.parallel.range_begin = std::min(shape.range_begin, num_ops);
    config.parallel.range_end = shape.range_end;
    for (const size_t cut : shape.recovery_points) {
      if (cut <= num_ops) config.recovery_points.push_back(cut);
    }
    if (!config.recovery_points.empty()) config.rp_store = rp_store_;
    config.redundancy = shape.redundancy;
    config.streaming = streaming;
    return config;
  }

  std::unique_ptr<SalesScenario> scenario_;
  std::string rp_dir_;
  RecoveryPointStorePtr rp_store_;
};

TEST_F(LandingSweepTest, SnapshotIsTheDeduplicatedLandingInEveryShape) {
  const std::map<int64_t, Row> sales = ExpectedLanding(*scenario_->s1());
  const std::map<int64_t, Row> staff = ExpectedLanding(*scenario_->s2());
  ASSERT_EQ(sales.size(), 2500u);
  // S2 repeats rep_ids: its landing keeps each one's last row.
  ASSERT_LT(staff.size(), 400u);
  struct Case {
    const LogicalFlow* flow;
    const SnapshotStore* snapshot;
    const std::map<int64_t, Row>* expected;
  };
  const std::vector<Case> cases = {
      {&scenario_->bottom_flow(), scenario_->sales_snapshot().get(), &sales},
      {&scenario_->middle_flow(), scenario_->staff_snapshot().get(), &staff}};
  for (const Shape& shape : SweepShapes()) {
    for (const bool streaming : {false, true}) {
      for (const Case& c : cases) {
        SCOPED_TRACE(shape.name + (streaming ? "+S " : " ") + c.flow->id());
        ASSERT_TRUE(scenario_->ResetWarehouse().ok());
        const ExecutionConfig config =
            ConfigFor(shape, c.flow->num_ops(), streaming);
        const Result<RunMetrics> first = RunFlow(*c.flow, config);
        ASSERT_TRUE(first.ok()) << first.status();
        EXPECT_EQ(SnapshotByKey(*c.snapshot), *c.expected);
        EXPECT_EQ(first.value().landing_rows_committed, c.expected->size());
        // A round-robin range never splits the Δ, so the rerun over an
        // unchanged source is quiet in every shape.
        const Result<RunMetrics> second = RunFlow(*c.flow, config);
        ASSERT_TRUE(second.ok()) << second.status();
        EXPECT_EQ(second.value().rows_loaded, 0u);
      }
    }
  }
}

TEST_F(LandingSweepTest, HashRangeOnTheKeyCommitsTheSerialSnapshot) {
  const std::map<int64_t, Row> staff = ExpectedLanding(*scenario_->s2());
  for (const bool streaming : {false, true}) {
    SCOPED_TRACE(streaming ? "streaming" : "phased");
    ASSERT_TRUE(scenario_->ResetWarehouse().ok());
    ExecutionConfig config;
    config.num_threads = 4;
    config.parallel.partitions = 4;
    config.parallel.scheme = PartitionScheme::kHash;
    config.parallel.hash_column = "rep_id";
    config.streaming = streaming;
    const Result<RunMetrics> first = RunFlow(scenario_->middle_flow(), config);
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(SnapshotByKey(*scenario_->staff_snapshot()), staff);
    const Result<RunMetrics> second = RunFlow(scenario_->middle_flow(), config);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(second.value().rows_loaded, 0u);
  }
}

TEST_F(LandingSweepTest, HashRangeOnAnotherColumnIsRefused) {
  // A hash on `branch` can send one rep_id's rows to two branches, and
  // each would emit and land its own row of the key.
  ASSERT_TRUE(scenario_->ResetWarehouse().ok());
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  config.parallel.scheme = PartitionScheme::kHash;
  config.parallel.hash_column = "branch";
  const Result<RunMetrics> metrics = RunFlow(scenario_->middle_flow(), config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(scenario_->staff_snapshot()->snapshot_size(), 0u);
  EXPECT_EQ(scenario_->dw2()->NumRows().value(), 0u);
  // Behind the Δ, the same hash is fine.
  config.parallel.range_begin = 1;
  ASSERT_TRUE(RunFlow(scenario_->middle_flow(), config).ok());
  EXPECT_EQ(SnapshotByKey(*scenario_->staff_snapshot()),
            ExpectedLanding(*scenario_->s2()));
}

// A flow of one Δ over SimpleSchema rows keyed by id.
FlowSpec DeltaFlow(DataStorePtr source, const SnapshotStorePtr& snapshot,
                   DataStorePtr target) {
  FlowSpec flow;
  flow.id = "delta_only";
  flow.source = std::move(source);
  flow.transforms = {[snapshot]() -> OperatorPtr {
    return std::make_unique<DeltaOp>("Delta", snapshot);
  }};
  flow.target = std::move(target);
  return flow;
}

/// Rows with ids [first, first + n), keys repeating every `period` ids when
/// `period` > 0 (then each repeat carries a different amount).
std::vector<Row> KeyedRows(int64_t first, size_t n, int64_t period = 0) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    const int64_t offset = static_cast<int64_t>(i);
    const int64_t id = first + (period > 0 ? offset % period : offset);
    rows.push_back(SimpleRow(id, "c" + std::to_string(offset % 3),
                             static_cast<double>(offset)));
  }
  return rows;
}

TEST(LandingTest, HashPartitionedDeltaAppendsItsKeyDisjointParts) {
  // Keys repeat across batches; a hash on the key sends every occurrence
  // of a key to one branch, so each branch's part keeps that key's last
  // row and the parts append without a shared key.
  const std::vector<Row> rows = KeyedRows(0, 300, 37);
  for (const bool streaming : {false, true}) {
    SCOPED_TRACE(streaming ? "streaming" : "phased");
    auto snapshot = std::make_shared<SnapshotStore>("snap", SimpleSchema(),
                                                    std::vector<size_t>{0});
    auto target = std::make_shared<MemTable>("dw", SimpleSchema());
    ExecutionConfig config;
    config.num_threads = 4;
    config.parallel.partitions = 4;
    config.parallel.scheme = PartitionScheme::kHash;
    config.parallel.hash_column = "id";
    config.batch_size = 16;
    config.streaming = streaming;
    const Result<RunMetrics> metrics = Executor::Run(
        DeltaFlow(MakeSource(SimpleSchema(), rows), snapshot, target), config);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(SnapshotByKey(*snapshot), ByKey(rows));
    EXPECT_EQ(metrics.value().landing_rows_committed, 37u);
  }
}

TEST(LandingTest, FailedRunLeavesTheSnapshotAndALaterRunReplacesIt) {
  auto snapshot = std::make_shared<SnapshotStore>("snap", SimpleSchema(),
                                                  std::vector<size_t>{0});
  auto target = std::make_shared<ForwardingStore>(
      std::make_shared<MemTable>("dw", SimpleSchema()));
  const std::vector<Row> first = KeyedRows(0, 100);
  ASSERT_TRUE(Executor::Run(DeltaFlow(MakeSource(SimpleSchema(), first),
                                      snapshot, target),
                            {})
                  .ok());
  ASSERT_EQ(SnapshotByKey(*snapshot), ByKey(first));

  // A load that fails for good: the run commits nothing.
  target->set_fail_appends(true);
  const Result<RunMetrics> failed = Executor::Run(
      DeltaFlow(MakeSource(SimpleSchema(), KeyedRows(50, 150)), snapshot,
                target),
      {});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(SnapshotByKey(*snapshot), ByKey(first));

  // A smaller landing then replaces the snapshot exactly.
  target->set_fail_appends(false);
  const std::vector<Row> last = KeyedRows(300, 40);
  const Result<RunMetrics> metrics = Executor::Run(
      DeltaFlow(MakeSource(SimpleSchema(), last), snapshot, target), {});
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(SnapshotByKey(*snapshot), ByKey(last));
  EXPECT_EQ(metrics.value().landing_rows_committed, 40u);
}

class LandingRecoveryTest : public LandingSweepTest {};

TEST_F(LandingRecoveryTest, RetriedAndResumedRunsCommitTheCleanLanding) {
  const LogicalFlow& flow = scenario_->bottom_flow();
  ASSERT_TRUE(scenario_->ResetWarehouse().ok());
  ASSERT_TRUE(RunFlow(flow).ok());
  const std::vector<Row> clean_dw = scenario_->dw1()->ReadAll().value().rows();
  const std::map<int64_t, Row> clean_snapshot =
      SnapshotByKey(*scenario_->sales_snapshot());

  struct Failure {
    std::string name;
    int at_op;
    std::vector<size_t> recovery_points;
  };
  const std::vector<Failure> failures = {
      {"op 3, from scratch", 3, {}},
      {"load, from scratch", FailureSpec::kAtLoad, {}},
      {"op 3, resumed past the delta", 3, {1}},
      {"load, resumed past the delta", FailureSpec::kAtLoad, {1, 4}},
  };
  for (const Failure& failure : failures) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(failure.name + (streaming ? " streaming" : " phased"));
      ASSERT_TRUE(scenario_->ResetWarehouse().ok());
      FailureInjector injector;
      FailureSpec spec;
      spec.at_op = failure.at_op;
      spec.at_fraction = 0.5;
      injector.AddFailure(spec);
      ExecutionConfig config;
      config.streaming = streaming;
      config.injector = &injector;
      config.retry.max_attempts = 3;
      config.retry.initial_backoff_micros = 0;
      config.recovery_points = failure.recovery_points;
      if (!failure.recovery_points.empty()) config.rp_store = rp_store_;
      const Result<RunMetrics> metrics = RunFlow(flow, config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_EQ(metrics.value().attempts, 2u);
      EXPECT_EQ(metrics.value().resumed_from_rp,
                failure.recovery_points.empty() ? 0u : 1u);
      EXPECT_TRUE(scenario_->dw1()->ReadAll().value().rows() == clean_dw);
      EXPECT_EQ(SnapshotByKey(*scenario_->sales_snapshot()), clean_snapshot);
      EXPECT_EQ(metrics.value().landing_rows_committed, clean_snapshot.size());
    }
  }
}

TEST_F(LandingRecoveryTest, RedundantRunCommitsTheWinnersLanding) {
  const std::map<int64_t, Row> expected = ExpectedLanding(*scenario_->s2());
  for (const size_t k : {3u, 5u}) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(std::to_string(k) + (streaming ? "MR streaming" : "MR"));
      ASSERT_TRUE(scenario_->ResetWarehouse().ok());
      // One instance dies after its Δ handed over a landing.
      FailureInjector injector;
      FailureSpec spec;
      spec.at_op = 2;
      spec.target_instance = 1;
      injector.AddFailure(spec);
      ExecutionConfig config;
      config.num_threads = 2;
      config.redundancy = k;
      config.streaming = streaming;
      config.injector = &injector;
      const Result<RunMetrics> metrics =
          RunFlow(scenario_->middle_flow(), config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_EQ(SnapshotByKey(*scenario_->staff_snapshot()), expected);
      EXPECT_EQ(metrics.value().landing_rows_committed, expected.size());
    }
  }
}

TEST_F(LandingRecoveryTest, PointAnEarlierRunLeftPastTheDeltaIsNotResumed) {
  auto snapshot = std::make_shared<SnapshotStore>("snap", SimpleSchema(),
                                                  std::vector<size_t>{0});
  auto target = std::make_shared<ForwardingStore>(
      std::make_shared<MemTable>("dw", SimpleSchema()));
  const DataStorePtr source = MakeSource(SimpleSchema(), KeyedRows(0, 200));
  const FlowSpec flow = DeltaFlow(source, snapshot, target);
  ExecutionConfig config;
  config.recovery_points = {1};
  config.rp_store = rp_store_;
  // The first run writes the point past the Δ, and its load fails for good.
  target->set_fail_appends(true);
  ASSERT_FALSE(Executor::Run(flow, config).ok());
  ASSERT_TRUE(rp_store_->Has({flow.id, "i0.cut1"}));
  EXPECT_EQ(snapshot->snapshot_size(), 0u);
  // The next run over the same store holds no landing for that point, so
  // its Δ runs again, and the run commits what it compared.
  target->set_fail_appends(false);
  const Result<RunMetrics> second = Executor::Run(flow, config);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().resumed_from_rp, 0u);
  EXPECT_EQ(second.value().rows_loaded, 200u);
  EXPECT_EQ(second.value().landing_rows_committed, 200u);
  EXPECT_EQ(SnapshotByKey(*snapshot), ByKey(KeyedRows(0, 200)));
  // A third run over the unchanged source loads nothing.
  const Result<RunMetrics> third = Executor::Run(flow, config);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third.value().rows_loaded, 0u);
  EXPECT_EQ(target->NumRows().value(), 200u);
}

TEST_F(LandingRecoveryTest, JournalAdoptedPointPastTheDeltaIsNotResumed) {
  auto snapshot = std::make_shared<SnapshotStore>("snap", SimpleSchema(),
                                                  std::vector<size_t>{0});
  auto target = std::make_shared<MemTable>("dw", SimpleSchema());
  const DataStorePtr source = MakeSource(SimpleSchema(), KeyedRows(0, 200));
  const FlowSpec flow = DeltaFlow(source, snapshot, target);
  const std::string journal_dir = rp_dir_ + "/journal";
  std::filesystem::create_directories(journal_dir);
  {
    // The first process: its load fails after the point past the Δ.
    FlowJournalPtr journal =
        FlowJournal::Open(journal_dir, flow.id, JournalSync::kNone).value();
    FailureInjector injector;
    FailureSpec spec;
    spec.at_op = FailureSpec::kAtLoad;
    injector.AddFailure(spec);
    ExecutionConfig config;
    config.recovery_points = {1};
    config.rp_store = rp_store_;
    config.injector = &injector;
    config.retry.max_attempts = 1;
    config.journal = journal;
    ASSERT_FALSE(Executor::Run(flow, config).ok());
    EXPECT_EQ(snapshot->snapshot_size(), 0u);
  }
  // The next process adopts the point from the journal. The landing that
  // point's Δ compared died with the first process, so the Δ runs again;
  // the load skips the rows the first process landed.
  FlowJournalPtr journal =
      FlowJournal::Open(journal_dir, flow.id, JournalSync::kNone).value();
  auto store = RecoveryPointStore::Open(rp_dir_).value();
  ASSERT_EQ(AdoptJournaledRecoveryPoints(journal->state(), flow.id,
                                         store.get())
                .value(),
            1u);
  ExecutionConfig config;
  config.recovery_points = {1};
  config.rp_store = store;
  config.retry.max_attempts = 2;
  config.journal = journal;
  config.resume = ResumeFromJournal(journal->state());
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().resumed_from_rp, 0u);
  EXPECT_EQ(target->NumRows().value(), 200u);
  EXPECT_EQ(metrics.value().landing_rows_committed, 200u);
  EXPECT_EQ(SnapshotByKey(*snapshot), ByKey(KeyedRows(0, 200)));
  // A third run over the unchanged source loads nothing.
  const Result<RunMetrics> third = Executor::Run(flow, {});
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third.value().rows_loaded, 0u);
  EXPECT_EQ(target->NumRows().value(), 200u);
}

}  // namespace
}  // namespace qox
