// Plan dump: renders the ExecutionPlan IR (engine/plan.h) that physical
// designs lower to before execution.
//
// The paper's Fig. 3 bottom flow (S1 -> Δ -> Lkp -> Flt_NN -> Func -> SK
// -> DW1) is lowered under several physical configurations — sequential,
// partitioned-part (4PF-p), partitioned-full with recovery points, NMR,
// and streaming — and each plan is printed as a one-line JSON record plus
// a Graphviz DOT graph (sections as dashed clusters, recovery-point
// barriers as grey boxes).
//
// Run: ./build/examples/plan_dump            # JSON + DOT for every config
//      ./build/examples/plan_dump json       # JSON lines only
//      ./build/examples/plan_dump dot        # DOT graphs only
//
// Render a graph:  ./build/examples/plan_dump dot | dot -Tpng -o plans.png

#include <iostream>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/sales_workflow.h"
#include "engine/plan.h"

using namespace qox;  // example code; library code never does this

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "both";
  const bool want_json = mode == "both" || mode == "json";
  const bool want_dot = mode == "both" || mode == "dot";
  if (!want_json && !want_dot) {
    std::cerr << "usage: plan_dump [json|dot]\n";
    return 2;
  }

  SalesScenarioConfig config;
  config.s1_rows = 100;  // structure only; row counts are irrelevant here
  config.s2_rows = 50;
  config.s3_rows = 50;
  std::unique_ptr<SalesScenario> scenario =
      SalesScenario::Create(config).TakeValue();
  const LogicalFlow& flow = scenario->bottom_flow();
  const auto range = flow.PipelineableRange();

  std::vector<PhysicalDesign> designs;
  {
    PhysicalDesign d;  // 1PF: one sequential pipeline
    d.flow = flow;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;  // 4PF-p: partition the per-row run only
    d.flow = flow;
    d.threads = 4;
    d.parallel.partitions = 4;
    d.parallel.range_begin = range.first;
    d.parallel.range_end = range.second;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;  // 4PF-f + RP: whole chain partitioned, two RPs
    d.flow = flow;
    d.threads = 4;
    d.parallel.partitions = 4;
    d.recovery_points = {0, flow.num_ops() / 2};
    designs.push_back(d);
  }
  {
    PhysicalDesign d;  // TMR: three redundant instances, majority vote
    d.flow = flow;
    d.redundancy = 3;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;  // streaming with a mid-chain RP barrier
    d.flow = flow;
    d.streaming = true;
    d.recovery_points = {flow.num_ops() / 2};
    designs.push_back(d);
  }
  {
    PhysicalDesign d;  // DLQ: quarantine at the lookup, skip at the filter,
    d.flow = flow;     // bounded by a flow-level error budget
    d.error_policies.assign(flow.num_ops(), ErrorPolicy::kFailFast);
    for (size_t i = 0; i < flow.num_ops(); ++i) {
      const std::string& kind = flow.ops()[i].kind;
      if (kind == "lookup") d.error_policies[i] = ErrorPolicy::kQuarantine;
      if (kind == "filter") d.error_policies[i] = ErrorPolicy::kSkip;
    }
    d.error_budget.max_rows = 1000;
    d.error_budget.max_fraction = 0.05;
    designs.push_back(d);
  }

  for (const PhysicalDesign& design : designs) {
    const ExecutionPlan plan = CostModel::PlanFor(design);
    if (want_json) {
      std::cout << design.ConfigTag() << " " << plan.ToJson() << "\n";
    }
    if (want_dot) {
      std::cout << "// " << design.ConfigTag() << ": " << design.Describe()
                << "\n";
      std::cout << plan.ToDot() << "\n";
    }
  }
  return 0;
}
