#include "engine/plan.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace qox {

const char* PlanNodeKindName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kExtract:
      return "extract";
    case PlanNodeKind::kTransform:
      return "transform";
    case PlanNodeKind::kPartitionRouter:
      return "partition_router";
    case PlanNodeKind::kPartitionBranch:
      return "partition_branch";
    case PlanNodeKind::kMerge:
      return "merge";
    case PlanNodeKind::kRpBarrier:
      return "rp_barrier";
    case PlanNodeKind::kCollect:
      return "collect";
    case PlanNodeKind::kReplicaGroup:
      return "replica_group";
    case PlanNodeKind::kLoad:
      return "load";
  }
  return "unknown";
}

Result<PlanNodeKind> ParsePlanNodeKind(const std::string& name) {
  static constexpr PlanNodeKind kAll[] = {
      PlanNodeKind::kExtract,        PlanNodeKind::kTransform,
      PlanNodeKind::kPartitionRouter, PlanNodeKind::kPartitionBranch,
      PlanNodeKind::kMerge,          PlanNodeKind::kRpBarrier,
      PlanNodeKind::kCollect,        PlanNodeKind::kReplicaGroup,
      PlanNodeKind::kLoad};
  for (const PlanNodeKind kind : kAll) {
    if (name == PlanNodeKindName(kind)) return kind;
  }
  return Status::Invalid("unknown plan node kind '" + name + "'");
}

bool ExecutionPlan::rp_at(size_t cut) const {
  return std::binary_search(rp_cuts_.begin(), rp_cuts_.end(), cut);
}

size_t ExecutionPlan::NodeForOp(size_t op_index) const {
  if (op_index >= input_.num_ops) return kNoNode;
  for (const PlanNode& node : nodes_) {
    const bool runs_ops = node.kind == PlanNodeKind::kTransform ||
                          node.kind == PlanNodeKind::kPartitionBranch;
    if (!runs_ops || node.partition != 0) continue;
    if (node.begin <= op_index && op_index < node.end) return node.id;
  }
  return kNoNode;
}

size_t ExecutionPlan::AddNode(PlanNodeKind kind, std::string label,
                              size_t begin, size_t end, size_t partition,
                              size_t section) {
  PlanNode node;
  node.id = nodes_.size();
  node.kind = kind;
  node.label = std::move(label);
  node.begin = begin;
  node.end = end;
  node.partition = partition;
  node.section = section;
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

void ExecutionPlan::Connect(size_t from, size_t to) {
  PlanEdge edge;
  edge.from = from;
  edge.to = to;
  edges_.push_back(edge);
  nodes_[from].outputs.push_back(to);
  nodes_[to].inputs.push_back(from);
}

namespace {

std::string OpRange(size_t begin, size_t end) {
  return "[" + std::to_string(begin) + "," + std::to_string(end) + ")";
}

}  // namespace

Result<ExecutionPlan> ExecutionPlan::Lower(const PlanInput& input) {
  const size_t n = input.num_ops;
  if (input.parallel.partitions == 0) {
    return Status::Invalid("partitions must be >= 1");
  }
  if (input.redundancy == 0) {
    return Status::Invalid("redundancy must be >= 1");
  }
  if (!input.blocking.empty() && input.blocking.size() != n) {
    return Status::Invalid("blocking flags cover " +
                           std::to_string(input.blocking.size()) +
                           " ops but the chain has " + std::to_string(n));
  }
  if (!input.sorts.empty() && input.sorts.size() != n) {
    return Status::Invalid("sort flags cover " +
                           std::to_string(input.sorts.size()) +
                           " ops but the chain has " + std::to_string(n));
  }
  for (const size_t cut : input.recovery_points) {
    if (cut > n) {
      return Status::Invalid("recovery point cut " + std::to_string(cut) +
                             " beyond chain length " + std::to_string(n));
    }
  }
  if (input.error_policies.size() > n) {
    return Status::Invalid("error policies cover " +
                           std::to_string(input.error_policies.size()) +
                           " ops but the chain has " + std::to_string(n));
  }
  if (input.error_budget.max_fraction < 0.0 ||
      input.error_budget.max_fraction > 1.0) {
    return Status::Invalid("error budget max_fraction must lie in [0, 1]");
  }

  ExecutionPlan plan;
  plan.input_ = input;
  plan.rp_cuts_ = input.recovery_points;
  std::sort(plan.rp_cuts_.begin(), plan.rp_cuts_.end());
  plan.rp_cuts_.erase(
      std::unique(plan.rp_cuts_.begin(), plan.rp_cuts_.end()),
      plan.rp_cuts_.end());
  plan.rp_after_extract_ = plan.rp_at(0);

  // ---- Stage graph: extract -> [rp0] -> sections -> sink ----------------
  plan.extract_node_ =
      plan.AddNode(PlanNodeKind::kExtract, "extract", 0, 0, 0, kNoSection);
  size_t cursor = plan.extract_node_;
  if (plan.rp_after_extract_) {
    plan.rp0_barrier_node_ =
        plan.AddNode(PlanNodeKind::kRpBarrier, "rp.cut0", 0, 0, 0, kNoSection);
    plan.Connect(cursor, plan.rp0_barrier_node_);
    cursor = plan.rp0_barrier_node_;
  }

  // The partitioned range is the first run of ops inside the requested
  // range that the scheme can split. A sort never splits: the merge
  // re-joins the branches in the router's batch order, which a sort's
  // output order does not survive. A branch's Δ or group sees only the
  // rows routed to it, so round robin, which deals rows by position,
  // splits no blocking op; a hash range keeps them, and the executor
  // checks that it hashes on their key.
  if (input.parallel.partitions > 1) {
    const bool hash = input.parallel.scheme == PartitionScheme::kHash;
    const auto splits = [&](size_t i) {
      if (i < input.sorts.size() && input.sorts[i]) return false;
      return hash || i >= input.blocking.size() || !input.blocking[i];
    };
    const size_t end = std::min(input.parallel.range_end, n);
    size_t begin = std::min(input.parallel.range_begin, n);
    while (begin < end && !splits(begin)) ++begin;
    plan.parallel_begin_ = plan.parallel_end_ = begin;
    while (plan.parallel_end_ < end && splits(plan.parallel_end_)) {
      ++plan.parallel_end_;
    }
  }
  const size_t rb = plan.parallel_begin_;
  const size_t re = plan.parallel_end_;
  const bool parallel_on = rb < re;

  // Section bounds: cut 0, every interior recovery-point cut, and the chain
  // end. A recovery point exactly at cut n does not open an extra section —
  // it marks the last section's rp_at_end.
  std::vector<size_t> bounds{0};
  for (const size_t cut : plan.rp_cuts_) {
    if (cut > 0 && cut < n) bounds.push_back(cut);
  }
  if (n > 0) bounds.push_back(n);

  for (size_t s = 0; s + 1 < bounds.size(); ++s) {
    PlanSection section;
    section.begin_cut = bounds[s];
    section.end_cut = bounds[s + 1];
    const size_t sec_index = plan.sections_.size();
    // Split the section into maximal sequential / partitioned units at the
    // parallel range's edges.
    size_t pos = section.begin_cut;
    while (pos < section.end_cut) {
      PlanUnit unit;
      if (parallel_on && pos >= rb && pos < re) {
        const size_t next = std::min(section.end_cut, re);
        unit.parallel = true;
        unit.begin = pos;
        unit.end = next;
        const std::string range = OpRange(pos, next);
        unit.router = plan.AddNode(PlanNodeKind::kPartitionRouter,
                                   "partition" + range, pos, next, 0,
                                   sec_index);
        plan.Connect(cursor, unit.router);
        for (size_t p = 0; p < input.parallel.partitions; ++p) {
          const size_t branch = plan.AddNode(
              PlanNodeKind::kPartitionBranch,
              "part" + std::to_string(p) + range, pos, next, p, sec_index);
          plan.Connect(unit.router, branch);
          unit.branches.push_back(branch);
        }
        unit.merge = plan.AddNode(PlanNodeKind::kMerge, "merge" + range, pos,
                                  next, 0, sec_index);
        for (const size_t branch : unit.branches) {
          plan.Connect(branch, unit.merge);
        }
        cursor = unit.merge;
        pos = next;
      } else {
        const size_t next = (parallel_on && pos < rb)
                                ? std::min(section.end_cut, rb)
                                : section.end_cut;
        unit.parallel = false;
        unit.begin = pos;
        unit.end = next;
        unit.node =
            plan.AddNode(PlanNodeKind::kTransform, "transform" +
                         OpRange(pos, next), pos, next, 0, sec_index);
        plan.Connect(cursor, unit.node);
        cursor = unit.node;
        pos = next;
      }
      section.units.push_back(std::move(unit));
    }
    section.rp_at_end = plan.rp_at(section.end_cut);
    section.barrier_node = kNoNode;
    if (section.rp_at_end) {
      section.barrier_node = plan.AddNode(
          PlanNodeKind::kRpBarrier,
          "rp.cut" + std::to_string(section.end_cut), section.end_cut,
          section.end_cut, 0, sec_index);
      plan.Connect(cursor, section.barrier_node);
      cursor = section.barrier_node;
    }
    plan.sections_.push_back(std::move(section));
  }

  if (input.redundancy > 1) {
    plan.collect_node_ =
        plan.AddNode(PlanNodeKind::kCollect, "collect", n, n, 0, kNoSection);
    plan.Connect(cursor, plan.collect_node_);
    plan.replica_group_node_ = plan.AddNode(
        PlanNodeKind::kReplicaGroup,
        "vote(" + std::to_string(input.redundancy) + ")", n, n,
        input.redundancy, kNoSection);
    plan.Connect(plan.collect_node_, plan.replica_group_node_);
    plan.load_node_ =
        plan.AddNode(PlanNodeKind::kLoad, "load", n, n, 0, kNoSection);
    plan.Connect(plan.replica_group_node_, plan.load_node_);
  } else {
    plan.load_node_ =
        plan.AddNode(PlanNodeKind::kLoad, "load", n, n, 0, kNoSection);
    plan.Connect(cursor, plan.load_node_);
  }

  // ---- Streaming-overlap cost structure ---------------------------------
  // Hard barriers (recovery points) plus soft barriers (blocking ops) plus
  // the chain end; borders additionally include cut 0 and the parallel
  // range's clamped edges. Between consecutive borders lies one CostChunk.
  std::set<size_t> barriers(plan.rp_cuts_.begin(), plan.rp_cuts_.end());
  for (size_t i = 0; i < n && i < input.blocking.size(); ++i) {
    if (input.blocking[i]) barriers.insert(i + 1);
  }
  barriers.insert(n);
  std::set<size_t> borders(barriers.begin(), barriers.end());
  borders.insert(0);
  if (parallel_on) {
    borders.insert(rb);
    borders.insert(re);
  }
  plan.channel_borders_.assign(borders.begin(), borders.end());
  const std::vector<size_t> border_list(borders.begin(), borders.end());
  for (size_t k = 0; k + 1 < border_list.size(); ++k) {
    CostChunk chunk;
    chunk.begin = border_list[k];
    chunk.end = border_list[k + 1];
    chunk.parallel = parallel_on && chunk.begin >= rb && chunk.end <= re;
    chunk.drains_at_end = barriers.count(chunk.end) > 0;
    plan.cost_chunks_.push_back(chunk);
  }

  return plan;
}

namespace {

const char* DotShape(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kExtract:
      return "ellipse";
    case PlanNodeKind::kTransform:
    case PlanNodeKind::kPartitionBranch:
      return "box";
    case PlanNodeKind::kPartitionRouter:
      return "invtrapezium";
    case PlanNodeKind::kMerge:
      return "trapezium";
    case PlanNodeKind::kRpBarrier:
      return "box3d";
    case PlanNodeKind::kCollect:
      return "ellipse";
    case PlanNodeKind::kReplicaGroup:
      return "doubleoctagon";
    case PlanNodeKind::kLoad:
      return "house";
  }
  return "box";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string ExecutionPlan::ToDot() const {
  std::ostringstream oss;
  oss << "digraph execution_plan {\n";
  oss << "  rankdir=LR;\n";
  oss << "  node [fontname=\"Helvetica\"];\n";
  // Section clusters first, then the out-of-section nodes.
  for (size_t s = 0; s < sections_.size(); ++s) {
    oss << "  subgraph cluster_section" << s << " {\n";
    oss << "    label=\"section [" << sections_[s].begin_cut << ","
        << sections_[s].end_cut << ")\";\n";
    oss << "    style=dashed;\n";
    for (const PlanNode& node : nodes_) {
      if (node.section == s) oss << "    n" << node.id << ";\n";
    }
    oss << "  }\n";
  }
  for (const PlanNode& node : nodes_) {
    oss << "  n" << node.id << " [label=\"" << node.label << "\\n#"
        << node.id;
    // Containment policies render on the nodes that enforce them.
    if (node.kind == PlanNodeKind::kTransform ||
        node.kind == PlanNodeKind::kPartitionBranch) {
      for (size_t op = node.begin;
           op < std::min(node.end, input_.error_policies.size()); ++op) {
        const ErrorPolicy policy = input_.error_policies[op];
        if (policy == ErrorPolicy::kFailFast) continue;
        oss << "\\nop" << op << ":" << ErrorPolicyName(policy);
      }
    }
    oss << "\" shape=" << DotShape(node.kind);
    if (node.kind == PlanNodeKind::kRpBarrier) {
      oss << " style=filled fillcolor=lightgrey";
    }
    oss << "];\n";
  }
  if (!input_.error_budget.unlimited()) {
    oss << "  label=\"error_budget: max_rows="
        << (input_.error_budget.max_rows == static_cast<size_t>(-1)
                ? std::string("inf")
                : std::to_string(input_.error_budget.max_rows))
        << " max_fraction=" << input_.error_budget.max_fraction << "\";\n";
  }
  for (const PlanEdge& edge : edges_) {
    oss << "  n" << edge.from << " -> n" << edge.to << ";\n";
  }
  oss << "}\n";
  return oss.str();
}

std::string ExecutionPlan::ToJson() const {
  std::ostringstream oss;
  oss << "{\"num_ops\":" << input_.num_ops << ",\"streaming\":"
      << (input_.streaming ? "true" : "false") << ",\"redundancy\":"
      << input_.redundancy;
  if (!input_.error_policies.empty()) {
    oss << ",\"error_policies\":[";
    for (size_t i = 0; i < input_.error_policies.size(); ++i) {
      if (i > 0) oss << ",";
      oss << "\"" << ErrorPolicyName(input_.error_policies[i]) << "\"";
    }
    oss << "]";
  }
  if (!input_.error_budget.unlimited()) {
    oss << ",\"error_budget\":{\"max_rows\":";
    if (input_.error_budget.max_rows == static_cast<size_t>(-1)) {
      oss << -1;
    } else {
      oss << input_.error_budget.max_rows;
    }
    oss << ",\"max_fraction\":" << input_.error_budget.max_fraction << "}";
  }
  oss << ",\"nodes\":[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const PlanNode& node = nodes_[i];
    if (i > 0) oss << ",";
    oss << "{\"id\":" << node.id << ",\"kind\":\""
        << PlanNodeKindName(node.kind) << "\",\"label\":\""
        << JsonEscape(node.label) << "\",\"begin\":" << node.begin
        << ",\"end\":" << node.end << ",\"partition\":" << node.partition
        << ",\"section\":"
        << (node.section == kNoSection
                ? std::string("-1")
                : std::to_string(node.section))
        << "}";
  }
  oss << "],\"edges\":[";
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i > 0) oss << ",";
    oss << "{\"from\":" << edges_[i].from << ",\"to\":" << edges_[i].to
        << "}";
  }
  oss << "],\"sections\":[";
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (i > 0) oss << ",";
    oss << "{\"begin\":" << sections_[i].begin_cut << ",\"end\":"
        << sections_[i].end_cut << ",\"rp_at_end\":"
        << (sections_[i].rp_at_end ? "true" : "false") << "}";
  }
  oss << "]}";
  return oss.str();
}

}  // namespace qox
