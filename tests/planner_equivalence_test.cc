// Planner equivalence sweep.
//
// (a) Phased (staged) and streaming runs execute the SAME lowered
//     ExecutionPlan through the same stage builders, so across the
//     paper's Fig. 4-8 configurations (1PF / 4PF-p / 4PF-f / 8PF-p,
//     recovery-point placements, NMR 3-5) both modes must produce
//     byte-identical warehouse contents — and every configuration must
//     agree with the sequential baseline as a row multiset (partitioned
//     configs reorder: the merge orders by the first column).
//
// (b) The planner's section/chunk boundaries must exactly match the cost
//     model's historical section split (barriers at recovery cuts, after
//     blocking ops, and at chain end; borders adding cut 0 and the
//     parallel range edges) for the Fig. 3 flows — the model prices the
//     same drain structure the engine executes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/sales_workflow.h"
#include "engine/executor.h"
#include "storage/recovery_store.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SameMultiset;

struct SweepCase {
  std::string name;
  size_t threads = 1;
  size_t partitions = 1;
  size_t range_begin = 0;
  size_t range_end = static_cast<size_t>(-1);
  std::vector<size_t> recovery_points;
  size_t redundancy = 1;
};

std::vector<SweepCase> SweepCases() {
  const size_t kMax = static_cast<size_t>(-1);
  return {
      {"1PF", 1, 1, 0, kMax, {}, 1},
      {"4PF-p", 4, 4, 1, 5, {}, 1},
      {"4PF-f", 4, 4, 0, kMax, {}, 1},
      {"8PF-p", 8, 8, 1, 5, {}, 1},
      {"1PF+RPend", 1, 1, 0, kMax, {5}, 1},
      {"4PF-p+RP", 4, 4, 1, 5, {0, 2}, 1},
      {"4PF-f+RP++", 4, 4, 0, kMax, {0, 2, 4}, 1},
      {"TMR", 1, 1, 0, kMax, {}, 3},
      {"5MR", 1, 1, 0, kMax, {}, 5},
      {"TMR+4PF-p", 4, 4, 1, 5, {}, 3},
  };
}

class PlannerSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SalesScenarioConfig config;
    config.s1_rows = 2500;
    config.s2_rows = 400;
    config.s3_rows = 400;
    Result<std::unique_ptr<SalesScenario>> scenario =
        SalesScenario::Create(config);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = scenario.TakeValue();
    // Suffix the dir with the pid: ctest runs each test of this fixture
    // as its own concurrent process, and a shared path would let one
    // test's SetUp/TearDown remove_all another's live recovery store.
    rp_dir_ = (std::filesystem::temp_directory_path() /
               ("qox_planner_equivalence_rp_" +
                std::to_string(::getpid())))
                  .string();
    std::filesystem::remove_all(rp_dir_);
    rp_store_ = RecoveryPointStore::Open(rp_dir_).value();
  }

  void TearDown() override { std::filesystem::remove_all(rp_dir_); }

  ExecutionConfig ConfigFor(const SweepCase& c, bool streaming) const {
    ExecutionConfig config;
    config.num_threads = c.threads;
    config.parallel.partitions = c.partitions;
    config.parallel.range_begin = c.range_begin;
    config.parallel.range_end = c.range_end;
    config.recovery_points = c.recovery_points;
    if (!c.recovery_points.empty()) config.rp_store = rp_store_;
    config.redundancy = c.redundancy;
    config.streaming = streaming;
    return config;
  }

  /// Runs the bottom flow under `config` and returns the DW1 contents.
  std::vector<Row> RunBottom(const ExecutionConfig& config) {
    EXPECT_TRUE(scenario_->ResetWarehouse().ok());
    const Result<RunMetrics> metrics =
        Executor::Run(scenario_->bottom_flow().ToFlowSpec(), config);
    EXPECT_TRUE(metrics.ok()) << metrics.status();
    return scenario_->dw1()->ReadAll().value().rows();
  }

  std::unique_ptr<SalesScenario> scenario_;
  std::string rp_dir_;
  RecoveryPointStorePtr rp_store_;
};

TEST_F(PlannerSweepTest, PhasedAndStreamingLoadIdenticalWarehouses) {
  const std::vector<Row> baseline = RunBottom(ConfigFor(SweepCases()[0],
                                                        /*streaming=*/false));
  ASSERT_FALSE(baseline.empty());
  for (const SweepCase& c : SweepCases()) {
    SCOPED_TRACE(c.name);
    const std::vector<Row> phased = RunBottom(ConfigFor(c, false));
    const std::vector<Row> streaming = RunBottom(ConfigFor(c, true));
    // Same plan, two modes: contents must match byte for byte.
    ASSERT_EQ(phased.size(), streaming.size());
    for (size_t i = 0; i < phased.size(); ++i) {
      ASSERT_TRUE(phased[i] == streaming[i])
          << "row " << i << " differs between phased and streaming";
    }
    // And every configuration computes the same result set.
    EXPECT_TRUE(SameMultiset(phased, baseline));
  }
}

// The engine's lowering (blocking derived from bound operators) and the
// cost model's lowering (blocking from LogicalOp metadata) must agree on
// the whole graph for the scenario flows, or predictions would price a
// different plan than the one that runs.
TEST_F(PlannerSweepTest, EngineAndModelLowerTheSamePlan) {
  const std::vector<const LogicalFlow*> flows = {&scenario_->bottom_flow(),
                                                 &scenario_->middle_flow(),
                                                 &scenario_->top_flow()};
  for (const LogicalFlow* flow : flows) {
    for (const SweepCase& c : SweepCases()) {
      SCOPED_TRACE(flow->id() + " " + c.name);
      PhysicalDesign design;
      design.flow = *flow;
      design.threads = c.threads;
      design.parallel.partitions = c.partitions;
      design.parallel.range_begin = c.range_begin;
      design.parallel.range_end = c.range_end;
      for (const size_t cut : c.recovery_points) {
        if (cut <= flow->num_ops()) design.recovery_points.push_back(cut);
      }
      design.redundancy = c.redundancy;

      const Result<ExecutionPlan> engine_plan = Executor::LowerPlan(
          flow->ToFlowSpec(), design.ToExecutionConfig(rp_store_, nullptr));
      ASSERT_TRUE(engine_plan.ok()) << engine_plan.status();
      const ExecutionPlan model_plan = CostModel::PlanFor(design);
      EXPECT_EQ(engine_plan.value().ToJson(), model_plan.ToJson());
    }
  }
}

/// The historical cost-model split, recomputed independently of the
/// planner: the test fails if either side drifts.
struct LegacySplit {
  std::set<size_t> barriers;
  std::vector<size_t> borders;
};

LegacySplit LegacySplitOf(const PhysicalDesign& design) {
  const size_t n = design.flow.num_ops();
  const bool parallel = design.parallel.partitions > 1;
  const size_t rb = parallel ? std::min(design.parallel.range_begin, n) : 0;
  const size_t re = parallel ? std::min(design.parallel.range_end, n) : 0;
  LegacySplit split;
  for (const size_t cut : design.recovery_points) {
    if (cut <= n) split.barriers.insert(cut);
  }
  for (size_t i = 0; i < n; ++i) {
    if (design.flow.ops()[i].blocking) split.barriers.insert(i + 1);
  }
  split.barriers.insert(n);
  std::set<size_t> borders(split.barriers.begin(), split.barriers.end());
  borders.insert(0);
  if (parallel && rb < re) {
    borders.insert(rb);
    borders.insert(re);
  }
  split.borders.assign(borders.begin(), borders.end());
  return split;
}

TEST_F(PlannerSweepTest, SectionBoundariesMatchCostModelSplit) {
  const std::vector<const LogicalFlow*> flows = {&scenario_->bottom_flow(),
                                                 &scenario_->middle_flow(),
                                                 &scenario_->top_flow()};
  for (const LogicalFlow* flow : flows) {
    for (const SweepCase& c : SweepCases()) {
      SCOPED_TRACE(flow->id() + " " + c.name);
      PhysicalDesign design;
      design.flow = *flow;
      design.threads = c.threads;
      design.parallel.partitions = c.partitions;
      design.parallel.range_begin = c.range_begin;
      design.parallel.range_end = c.range_end;
      for (const size_t cut : c.recovery_points) {
        if (cut <= flow->num_ops()) design.recovery_points.push_back(cut);
      }
      design.redundancy = c.redundancy;

      const ExecutionPlan plan = CostModel::PlanFor(design);
      const LegacySplit legacy = LegacySplitOf(design);

      // Channel borders and chunk edges reproduce the legacy border list.
      EXPECT_EQ(plan.channel_borders(), legacy.borders);
      ASSERT_EQ(plan.cost_chunks().size(),
                legacy.borders.empty() ? 0 : legacy.borders.size() - 1);
      for (size_t i = 0; i < plan.cost_chunks().size(); ++i) {
        const ExecutionPlan::CostChunk& chunk = plan.cost_chunks()[i];
        EXPECT_EQ(chunk.begin, legacy.borders[i]);
        EXPECT_EQ(chunk.end, legacy.borders[i + 1]);
        EXPECT_EQ(chunk.drains_at_end, legacy.barriers.count(chunk.end) > 0);
      }

      // Execution sections split at the HARD barriers only (recovery
      // cuts), exactly the rp_cuts the model's recoverability law uses.
      size_t previous = 0;
      for (const PlanSection& section : plan.sections()) {
        EXPECT_EQ(section.begin_cut, previous);
        EXPECT_EQ(section.rp_at_end, plan.rp_at(section.end_cut));
        previous = section.end_cut;
      }
      EXPECT_EQ(previous, flow->num_ops());
    }
  }
}

}  // namespace
}  // namespace qox
