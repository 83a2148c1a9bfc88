// ExecutionPlan lowering: node taxonomy, section and unit structure,
// recovery-cut normalization, the cost-chunk drain structure, validation
// errors, and the DOT/JSON renderings.

#include "engine/plan.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace qox {
namespace {

PlanInput SimpleInput(size_t num_ops) {
  PlanInput input;
  input.num_ops = num_ops;
  return input;
}

ExecutionPlan MustLower(const PlanInput& input) {
  Result<ExecutionPlan> plan = ExecutionPlan::Lower(input);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.TakeValue();
}

size_t CountKind(const ExecutionPlan& plan, PlanNodeKind kind) {
  size_t count = 0;
  for (const PlanNode& node : plan.nodes()) {
    if (node.kind == kind) ++count;
  }
  return count;
}

TEST(PlanNodeKindTest, NamesRoundTrip) {
  for (const PlanNodeKind kind :
       {PlanNodeKind::kExtract, PlanNodeKind::kTransform,
        PlanNodeKind::kPartitionRouter, PlanNodeKind::kPartitionBranch,
        PlanNodeKind::kMerge, PlanNodeKind::kRpBarrier, PlanNodeKind::kCollect,
        PlanNodeKind::kReplicaGroup, PlanNodeKind::kLoad}) {
    const Result<PlanNodeKind> parsed =
        ParsePlanNodeKind(PlanNodeKindName(kind));
    ASSERT_TRUE(parsed.ok()) << PlanNodeKindName(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParsePlanNodeKind("warp_drive").ok());
}

TEST(ExecutionPlanTest, SequentialChainLowersToThreeNodes) {
  const ExecutionPlan plan = MustLower(SimpleInput(3));
  ASSERT_EQ(plan.nodes().size(), 3u);  // extract, transform[0,3), load
  EXPECT_EQ(plan.nodes()[0].kind, PlanNodeKind::kExtract);
  EXPECT_EQ(plan.nodes()[1].kind, PlanNodeKind::kTransform);
  EXPECT_EQ(plan.nodes()[1].begin, 0u);
  EXPECT_EQ(plan.nodes()[1].end, 3u);
  EXPECT_EQ(plan.nodes()[2].kind, PlanNodeKind::kLoad);
  EXPECT_EQ(plan.sink_node(), plan.load_node());
  ASSERT_EQ(plan.sections().size(), 1u);
  EXPECT_EQ(plan.sections()[0].begin_cut, 0u);
  EXPECT_EQ(plan.sections()[0].end_cut, 3u);
  EXPECT_FALSE(plan.sections()[0].rp_at_end);
  ASSERT_EQ(plan.sections()[0].units.size(), 1u);
  EXPECT_FALSE(plan.sections()[0].units[0].parallel);
  // Ids are topological indexes; edges mirror into inputs/outputs.
  for (size_t i = 0; i < plan.nodes().size(); ++i) {
    EXPECT_EQ(plan.nodes()[i].id, i);
  }
  ASSERT_EQ(plan.edges().size(), 2u);
  EXPECT_EQ(plan.nodes()[0].outputs, std::vector<size_t>{1});
  EXPECT_EQ(plan.nodes()[2].inputs, std::vector<size_t>{1});
}

TEST(ExecutionPlanTest, EmptyChainConnectsExtractToLoad) {
  const ExecutionPlan plan = MustLower(SimpleInput(0));
  ASSERT_EQ(plan.nodes().size(), 2u);
  EXPECT_TRUE(plan.sections().empty());
  EXPECT_TRUE(plan.cost_chunks().empty());
  EXPECT_TRUE(plan.drains_after_extract());  // nothing to overlap with
}

TEST(ExecutionPlanTest, PartialParallelRangeSplitsUnits) {
  PlanInput input = SimpleInput(4);
  input.parallel.partitions = 3;
  input.parallel.range_begin = 1;
  input.parallel.range_end = 3;
  const ExecutionPlan plan = MustLower(input);

  ASSERT_EQ(plan.sections().size(), 1u);
  const PlanSection& section = plan.sections()[0];
  ASSERT_EQ(section.units.size(), 3u);  // [0,1) seq, [1,3) par, [3,4) seq
  EXPECT_FALSE(section.units[0].parallel);
  EXPECT_EQ(section.units[0].begin, 0u);
  EXPECT_EQ(section.units[0].end, 1u);
  EXPECT_TRUE(section.units[1].parallel);
  EXPECT_EQ(section.units[1].begin, 1u);
  EXPECT_EQ(section.units[1].end, 3u);
  EXPECT_EQ(section.units[1].branches.size(), 3u);
  EXPECT_FALSE(section.units[2].parallel);

  EXPECT_EQ(CountKind(plan, PlanNodeKind::kPartitionRouter), 1u);
  EXPECT_EQ(CountKind(plan, PlanNodeKind::kPartitionBranch), 3u);
  EXPECT_EQ(CountKind(plan, PlanNodeKind::kMerge), 1u);

  // The router fans out to every branch; the merge fans back in.
  const PlanUnit& par = section.units[1];
  EXPECT_EQ(plan.nodes()[par.router].outputs.size(), 3u);
  EXPECT_EQ(plan.nodes()[par.merge].inputs.size(), 3u);
  for (const size_t branch : par.branches) {
    EXPECT_EQ(plan.nodes()[branch].kind, PlanNodeKind::kPartitionBranch);
  }
}

TEST(ExecutionPlanTest, SortEndsTheParallelRange) {
  PlanInput input = SimpleInput(5);
  input.blocking = {false, false, true, false, false};
  input.sorts = {false, false, true, false, false};
  input.parallel.partitions = 4;
  input.parallel.range_begin = 1;
  const ExecutionPlan plan = MustLower(input);
  EXPECT_EQ(plan.parallel_begin(), 1u);
  EXPECT_EQ(plan.parallel_end(), 2u);
  ASSERT_EQ(plan.sections().size(), 1u);
  const std::vector<PlanUnit>& units = plan.sections()[0].units;
  ASSERT_EQ(units.size(), 3u);  // [0,1) seq, [1,2) par, [2,5) seq
  EXPECT_TRUE(units[1].parallel);
  EXPECT_EQ(units[1].end, 2u);
  EXPECT_FALSE(units[2].parallel);
  EXPECT_EQ(units[2].begin, 2u);
  EXPECT_EQ(units[2].end, 5u);

  // A range that starts at the sort starts after it.
  input.parallel.range_begin = 2;
  const ExecutionPlan after = MustLower(input);
  EXPECT_EQ(after.parallel_begin(), 3u);
  EXPECT_EQ(after.parallel_end(), 5u);
  ASSERT_EQ(after.sections()[0].units.size(), 2u);  // [0,3) seq, [3,5) par
  EXPECT_FALSE(after.sections()[0].units[0].parallel);
  EXPECT_TRUE(after.sections()[0].units[1].parallel);

  // A hash range splits no sort either, but it keeps other blocking ops.
  input.parallel.scheme = PartitionScheme::kHash;
  input.parallel.range_begin = 1;
  EXPECT_EQ(MustLower(input).parallel_end(), 2u);
  input.sorts.assign(5, false);
  EXPECT_EQ(MustLower(input).parallel_end(), 5u);
}

// Round robin deals rows by position, so a branch's group or Δ would see a
// part of every key: a round-robin range splits no blocking op.
TEST(ExecutionPlanTest, RoundRobinRangeSplitsNoBlockingOp) {
  PlanInput input = SimpleInput(6);
  input.blocking = {true, false, false, true, false, false};
  input.parallel.partitions = 4;
  // A group in the middle of the range ends it.
  input.parallel.range_begin = 1;
  ExecutionPlan plan = MustLower(input);
  EXPECT_EQ(plan.parallel_begin(), 1u);
  EXPECT_EQ(plan.parallel_end(), 3u);
  // A Δ at the range start moves the start past it.
  input.parallel.range_begin = 0;
  plan = MustLower(input);
  EXPECT_EQ(plan.parallel_begin(), 1u);
  EXPECT_EQ(plan.parallel_end(), 3u);
  // Only the first splittable run is partitioned.
  input.parallel.range_begin = 3;
  plan = MustLower(input);
  EXPECT_EQ(plan.parallel_begin(), 4u);
  EXPECT_EQ(plan.parallel_end(), 6u);
  // A range of blocking ops alone partitions nothing.
  input.blocking = {true, true, false, false, false, false};
  input.parallel.range_begin = 0;
  input.parallel.range_end = 2;
  plan = MustLower(input);
  EXPECT_EQ(plan.parallel_begin(), plan.parallel_end());
  EXPECT_EQ(CountKind(plan, PlanNodeKind::kPartitionRouter), 0u);
}

// A requested range that covers no op (empty, inverted, or starting past
// the chain) partitions nothing: the section stays one sequential unit
// instead of splitting at the range's edges.
TEST(ExecutionPlanTest, EmptyParallelRangeLowersToOneSequentialUnit) {
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {2, 2}, {3, 1}, {7, static_cast<size_t>(-1)}};
  for (const auto& [begin, end] : ranges) {
    SCOPED_TRACE("[" + std::to_string(begin) + ", " + std::to_string(end) +
                 ")");
    PlanInput input = SimpleInput(5);
    input.parallel.partitions = 4;
    input.parallel.range_begin = begin;
    input.parallel.range_end = end;
    const ExecutionPlan plan = MustLower(input);
    EXPECT_EQ(plan.parallel_begin(), plan.parallel_end());
    EXPECT_LE(plan.parallel_end(), 5u);
    EXPECT_EQ(CountKind(plan, PlanNodeKind::kPartitionRouter), 0u);
    EXPECT_EQ(CountKind(plan, PlanNodeKind::kMerge), 0u);
    ASSERT_EQ(plan.sections().size(), 1u);
    ASSERT_EQ(plan.sections()[0].units.size(), 1u);
    EXPECT_EQ(plan.sections()[0].units[0].begin, 0u);
    EXPECT_EQ(plan.sections()[0].units[0].end, 5u);
    EXPECT_EQ(plan.channel_borders(), (std::vector<size_t>{0, 5}));
  }
}

TEST(ExecutionPlanTest, RecoveryCutsSortedDedupedAndSectioned) {
  PlanInput input = SimpleInput(4);
  input.recovery_points = {2, 0, 2, 4};
  const ExecutionPlan plan = MustLower(input);

  EXPECT_EQ(plan.rp_cuts(), (std::vector<size_t>{0, 2, 4}));
  EXPECT_TRUE(plan.rp_after_extract());
  EXPECT_TRUE(plan.drains_after_extract());
  EXPECT_NE(plan.rp0_barrier_node(), ExecutionPlan::kNoNode);
  EXPECT_TRUE(plan.rp_at(2));
  EXPECT_FALSE(plan.rp_at(3));

  // Cut 0 gets its own barrier before the sections; the cut at n ends the
  // last section rather than opening an empty one.
  ASSERT_EQ(plan.sections().size(), 2u);
  EXPECT_EQ(plan.sections()[0].begin_cut, 0u);
  EXPECT_EQ(plan.sections()[0].end_cut, 2u);
  EXPECT_TRUE(plan.sections()[0].rp_at_end);
  EXPECT_NE(plan.sections()[0].barrier_node, ExecutionPlan::kNoNode);
  EXPECT_EQ(plan.sections()[1].begin_cut, 2u);
  EXPECT_EQ(plan.sections()[1].end_cut, 4u);
  EXPECT_TRUE(plan.sections()[1].rp_at_end);
  EXPECT_EQ(CountKind(plan, PlanNodeKind::kRpBarrier), 3u);
}

TEST(ExecutionPlanTest, RedundancyAddsCollectAndReplicaGroup) {
  PlanInput input = SimpleInput(2);
  input.redundancy = 3;
  const ExecutionPlan plan = MustLower(input);
  ASSERT_NE(plan.collect_node(), ExecutionPlan::kNoNode);
  ASSERT_NE(plan.replica_group_node(), ExecutionPlan::kNoNode);
  EXPECT_EQ(plan.sink_node(), plan.collect_node());
  EXPECT_EQ(plan.nodes()[plan.replica_group_node()].partition, 3u);
  // collect -> replica group -> load.
  EXPECT_EQ(plan.nodes()[plan.replica_group_node()].inputs,
            std::vector<size_t>{plan.collect_node()});
  EXPECT_EQ(plan.nodes()[plan.load_node()].inputs,
            std::vector<size_t>{plan.replica_group_node()});
}

// The cost-chunk structure must reproduce the cost model's historical
// barrier/border derivation: barriers at recovery cuts, after blocking
// ops, and at n; borders additionally at 0 and the parallel range edges;
// a chunk is parallel iff it lies fully inside the clamped range.
TEST(ExecutionPlanTest, CostChunksMatchHandDerivedBarriers) {
  PlanInput input = SimpleInput(6);
  input.blocking = {false, true, false, false, true, false};
  input.recovery_points = {3};
  input.parallel.partitions = 4;
  // Hashed, so the range keeps the blocking op 4 (round robin would end
  // the range before it).
  input.parallel.scheme = PartitionScheme::kHash;
  input.parallel.hash_column = "id";
  input.parallel.range_begin = 2;
  input.parallel.range_end = 5;
  const ExecutionPlan plan = MustLower(input);

  // barriers = {3} rp, {2, 5} blocking, {6} end.
  // borders  = {0, 2, 3, 5, 6}  (range edges 2 and 5 already present).
  const std::vector<size_t> expect_borders = {0, 2, 3, 5, 6};
  EXPECT_EQ(plan.channel_borders(), expect_borders);

  const std::set<size_t> barriers = {2, 3, 5, 6};
  ASSERT_EQ(plan.cost_chunks().size(), 4u);
  for (size_t i = 0; i < plan.cost_chunks().size(); ++i) {
    const ExecutionPlan::CostChunk& chunk = plan.cost_chunks()[i];
    EXPECT_EQ(chunk.begin, expect_borders[i]);
    EXPECT_EQ(chunk.end, expect_borders[i + 1]);
    EXPECT_EQ(chunk.drains_at_end, barriers.count(chunk.end) > 0)
        << "chunk [" << chunk.begin << "," << chunk.end << ")";
    EXPECT_EQ(chunk.parallel, chunk.begin >= 2 && chunk.end <= 5)
        << "chunk [" << chunk.begin << "," << chunk.end << ")";
  }
}

TEST(ExecutionPlanTest, LoweringValidatesStructuralImpossibilities) {
  PlanInput zero_partitions = SimpleInput(2);
  zero_partitions.parallel.partitions = 0;
  EXPECT_FALSE(ExecutionPlan::Lower(zero_partitions).ok());

  PlanInput zero_redundancy = SimpleInput(2);
  zero_redundancy.redundancy = 0;
  EXPECT_FALSE(ExecutionPlan::Lower(zero_redundancy).ok());

  PlanInput cut_beyond = SimpleInput(2);
  cut_beyond.recovery_points = {3};
  EXPECT_FALSE(ExecutionPlan::Lower(cut_beyond).ok());

  PlanInput bad_blocking = SimpleInput(2);
  bad_blocking.blocking = {true};
  EXPECT_FALSE(ExecutionPlan::Lower(bad_blocking).ok());

  PlanInput bad_sorts = SimpleInput(2);
  bad_sorts.sorts = {true};
  EXPECT_FALSE(ExecutionPlan::Lower(bad_sorts).ok());
}

TEST(ExecutionPlanTest, LoweringValidatesContainmentKnobs) {
  PlanInput too_many_policies = SimpleInput(2);
  too_many_policies.error_policies.assign(3, ErrorPolicy::kSkip);
  EXPECT_FALSE(ExecutionPlan::Lower(too_many_policies).ok());

  PlanInput shorter_is_fine = SimpleInput(2);
  shorter_is_fine.error_policies.assign(1, ErrorPolicy::kQuarantine);
  EXPECT_TRUE(ExecutionPlan::Lower(shorter_is_fine).ok());

  PlanInput bad_fraction = SimpleInput(2);
  bad_fraction.error_budget.max_fraction = 1.5;
  EXPECT_FALSE(ExecutionPlan::Lower(bad_fraction).ok());
}

TEST(ExecutionPlanTest, NodeForOpCoversTheChain) {
  PlanInput input = SimpleInput(3);
  input.parallel.partitions = 2;
  input.parallel.range_begin = 1;
  input.parallel.range_end = 3;
  const ExecutionPlan plan = MustLower(input);
  // Every op maps to a covering transform/branch node (partition 0 as the
  // representative branch for the parallel range).
  for (size_t op = 0; op < 3; ++op) {
    const size_t node = plan.NodeForOp(op);
    ASSERT_NE(node, ExecutionPlan::kNoNode);
    EXPECT_LE(plan.nodes()[node].begin, op);
    EXPECT_GT(plan.nodes()[node].end, op);
    EXPECT_EQ(plan.nodes()[node].partition, 0u);
  }
  EXPECT_EQ(plan.NodeForOp(7), ExecutionPlan::kNoNode);
}

TEST(ExecutionPlanTest, DotAndJsonRenderTheGraph) {
  PlanInput input = SimpleInput(3);
  input.recovery_points = {1};
  input.parallel.partitions = 2;
  input.parallel.range_begin = 1;
  const ExecutionPlan plan = MustLower(input);

  const std::string dot = plan.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("cluster_section0"), std::string::npos);
  EXPECT_NE(dot.find("extract"), std::string::npos);
  EXPECT_NE(dot.find("rp.cut1"), std::string::npos);

  const std::string json = plan.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line, for logs
  EXPECT_NE(json.find("\"nodes\":"), std::string::npos);
  EXPECT_NE(json.find("\"edges\":"), std::string::npos);
  EXPECT_NE(json.find("\"sections\":"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"partition_router\""), std::string::npos);
}

TEST(ExecutionPlanTest, ContainmentAnnotationsRenderInDotAndJson) {
  PlanInput input = SimpleInput(3);
  input.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                          ErrorPolicy::kSkip};
  input.error_budget.max_rows = 100;
  input.error_budget.max_fraction = 0.1;
  const ExecutionPlan plan = MustLower(input);

  const std::string dot = plan.ToDot();
  EXPECT_NE(dot.find("op1:quarantine"), std::string::npos);
  EXPECT_NE(dot.find("op2:skip"), std::string::npos);
  EXPECT_EQ(dot.find("op0:"), std::string::npos);  // fail_fast: unannotated
  EXPECT_NE(dot.find("error_budget"), std::string::npos);

  // Ops past a shorter policy list fail fast: unannotated.
  PlanInput shorter = SimpleInput(3);
  shorter.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine};
  const std::string shorter_dot = MustLower(shorter).ToDot();
  EXPECT_NE(shorter_dot.find("op1:quarantine"), std::string::npos);
  EXPECT_EQ(shorter_dot.find("op2:"), std::string::npos);

  const std::string json = plan.ToJson();
  EXPECT_NE(json.find("\"error_policies\":[\"fail_fast\",\"quarantine\","
                      "\"skip\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"error_budget\":{\"max_rows\":100,"
                      "\"max_fraction\":0.1"),
            std::string::npos);

  // A plan without containment renders exactly as before: no annotations.
  const ExecutionPlan bare = MustLower(SimpleInput(3));
  EXPECT_EQ(bare.ToDot().find("error_budget"), std::string::npos);
  EXPECT_EQ(bare.ToJson().find("error_policies"), std::string::npos);
}

}  // namespace
}  // namespace qox
