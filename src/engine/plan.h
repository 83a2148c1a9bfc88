// ExecutionPlan: the explicit stage-graph IR every physical design lowers
// to before execution.
//
// The paper's layered methodology ends at a *physical* design; this module
// is the next lowering step: FlowSpec + physical choices -> a DAG of typed
// stage nodes (extract, transform segment, partition router, partition
// branch, merge, recovery-point barrier, collect, NMR replica vote, load)
// with channel edges and barrier/section annotations. One plan serves
// every consumer:
//
//   * the EXECUTOR's one scheduler spawns one stage per node and wires a
//     channel per edge. The plan's `streaming` property picks how the
//     stages run: concurrently over bounded channels, or — for a phased
//     plan — staged, each stage to completion before the next, which puts
//     a materialization barrier on every edge,
//   * the COST MODEL prices streaming overlap from the plan's drain
//     structure (CostChunks) and recovery cost from the plan's RP cuts,
//   * plan_io exports/imports the node/edge structure as XML metadata,
//     and examples/plan_dump renders it as Graphviz DOT / JSON.
//
// Having exactly one place that answers "where are the barriers, how does
// the chain split into units, what runs concurrently" is what keeps the
// two execution modes and the model's predictions mutually consistent —
// and is the seam future multi-process sharding plugs into (a shard is a
// subgraph cut along channel edges).
//
// Terminology. The transform chain of n operators defines CUT positions
// 0..n (cut 0 = after extraction, cut i = after op i). A recovery point
// at a cut is a HARD barrier: both modes fully materialize there and
// persist the rows. A blocking operator (sort/group/delta) is a SOFT
// barrier: execution does not split there (the operator buffers inside
// its pipeline stage), but the streaming dataflow drains there, which is
// what the cost model's overlap law needs. Sections split at hard
// barriers; CostChunks split at both.

#ifndef QOX_ENGINE_PLAN_H_
#define QOX_ENGINE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/error_policy.h"
#include "storage/journal_file.h"

namespace qox {

/// How rows are distributed across partitioned branches.
enum class PartitionScheme {
  kRoundRobin,
  kHash,  ///< by hash of `hash_column` (keeps keyed ops partition-local)
};

/// Which slice of the transform chain runs partitioned.
struct ParallelSpec {
  size_t partitions = 1;  ///< 1 = no parallelism
  PartitionScheme scheme = PartitionScheme::kRoundRobin;
  std::string hash_column;  ///< required for kHash
  /// Global op range [range_begin, range_end) executed partitioned; ops
  /// outside the range run sequentially. Defaults cover the whole chain
  /// ("4PF-f"); narrowing them yields the paper's "parallelize parts of the
  /// flow" ("4PF-p").
  size_t range_begin = 0;
  size_t range_end = static_cast<size_t>(-1);
};

/// Structural facts a plan is lowered from. Engine callers build this from
/// FlowSpec + ExecutionConfig (Executor::LowerPlan); the cost model and
/// plan_io build it from design-level metadata — the planner itself never
/// needs live stores or operator instances.
struct PlanInput {
  size_t num_ops = 0;
  /// Per-op blocking flags (soft barriers). May be empty = none blocking.
  std::vector<bool> blocking;
  ParallelSpec parallel;
  std::vector<size_t> recovery_points;  ///< cut positions (hard barriers)
  size_t redundancy = 1;
  bool streaming = false;
  size_t channel_capacity = 8;
  /// Per-op row-error containment policy (by global index). Empty or
  /// shorter than the chain = kFailFast for the uncovered ops. Longer than
  /// the chain is a lowering error. Carried on the plan so dumps, the XML
  /// interchange format, and the cost model all see the same containment
  /// configuration the executor enforces.
  std::vector<ErrorPolicy> error_policies;
  /// Flow-level ceiling on contained (skipped + quarantined) rows.
  ErrorBudget error_budget;
  /// Crash-safety knobs: whether the run writes a durable FlowJournal and
  /// under which fsync policy (storage/journal_file.h). Carried on the
  /// plan — not interpreted by lowering — so the XML interchange format
  /// and the cost model's restart term see the same journaling
  /// configuration the executor runs under.
  bool journaled = false;
  JournalSync journal_sync = JournalSync::kAlways;
  /// Freshness-SLA deadline budget of the flow (relative microseconds from
  /// admission; 0 = none). Carried on the plan — not interpreted by
  /// lowering — so plan dumps, the XML interchange format, and the
  /// FlowService's admission control all see the SLA the executor runs
  /// under.
  int64_t sla_deadline_micros = 0;
};

enum class PlanNodeKind {
  kExtract,          ///< source scan (or recovery-point replay on resume)
  kTransform,        ///< sequential pipeline over ops [begin, end)
  kPartitionRouter,  ///< routes rows into per-partition channels
  kPartitionBranch,  ///< one partition's pipeline over ops [begin, end)
  kMerge,            ///< reunifies partition branches (k-way, column 0)
  kRpBarrier,        ///< recovery-point cut: materialize + persist + re-emit
  kCollect,          ///< materializes output for the redundancy voter
  kReplicaGroup,     ///< NMR majority vote over `partition` = k replicas
  kLoad,             ///< warehouse load sink
};

/// Stable lowercase name ("extract", "transform", ...), used by plan
/// dumps and the XML interchange format.
const char* PlanNodeKindName(PlanNodeKind kind);

/// Parses a PlanNodeKindName back. Unknown names error.
Result<PlanNodeKind> ParsePlanNodeKind(const std::string& name);

struct PlanNode {
  /// Stable node id: index into ExecutionPlan::nodes(), assigned in
  /// topological order. RunMetrics::StageStats are keyed by this id.
  size_t id = 0;
  PlanNodeKind kind = PlanNodeKind::kTransform;
  /// Display label, identical to the streaming stage name ("extract",
  /// "transform[0,3)", "part2[1,4)", "rp.cut1", "merge[0,3)", "load").
  std::string label;
  /// Op range [begin, end) for transform/router/branch/merge nodes; for a
  /// kRpBarrier, begin == end == the cut position.
  size_t begin = 0;
  size_t end = 0;
  /// Branch index for kPartitionBranch; replica count for kReplicaGroup.
  size_t partition = 0;
  /// Index of the execution section this node belongs to, or kNoSection
  /// (extract, the cut-0 barrier, and sink nodes sit outside sections).
  size_t section = 0;
  std::vector<size_t> inputs;   ///< upstream node ids
  std::vector<size_t> outputs;  ///< downstream node ids
};

/// A channel edge of the dataflow (bounded to `capacity` batches when the
/// plan runs in streaming mode).
struct PlanEdge {
  size_t from = 0;
  size_t to = 0;
  size_t capacity = 8;
};

/// One scheduling unit of a section: a maximal op run that is either fully
/// sequential or fully inside the parallel range.
struct PlanUnit {
  bool parallel = false;
  size_t begin = 0;  ///< op range [begin, end)
  size_t end = 0;
  /// Sequential: the kTransform node. Parallel: unused.
  size_t node = 0;
  /// Parallel only: router / per-partition branches / merge node ids.
  size_t router = 0;
  size_t merge = 0;
  std::vector<size_t> branches;
};

/// A run of ops between hard (recovery-point) barriers. The executor
/// wires sections in order and inserts a kRpBarrier stage (materialize +
/// persist) at each rp_at_end.
struct PlanSection {
  size_t begin_cut = 0;  ///< ops [begin_cut, end_cut)
  size_t end_cut = 0;
  bool rp_at_end = false;
  /// kRpBarrier node ending this section (kNoNode when !rp_at_end).
  size_t barrier_node = 0;
  std::vector<PlanUnit> units;
};

class ExecutionPlan {
 public:
  static constexpr size_t kNoNode = static_cast<size_t>(-1);
  static constexpr size_t kNoSection = static_cast<size_t>(-1);

  /// One chunk of the streaming-overlap cost structure: a maximal op run
  /// between channel borders (hard barriers, soft barriers, and the
  /// parallel range's edges). `drains_at_end` marks chunks whose end is a
  /// barrier — the dataflow fully drains there, so concurrent-stage
  /// overlap stops and wall times sum across the boundary.
  struct CostChunk {
    size_t begin = 0;  ///< ops [begin, end)
    size_t end = 0;
    bool parallel = false;      ///< runs partitioned (router + branches + merge)
    bool drains_at_end = false;
  };

  /// Lowers the structural input into a stage graph. Errors on structural
  /// impossibilities (0 partitions, 0 redundancy, recovery point beyond
  /// the chain); store/schema-level validation stays with
  /// Executor::BindChain.
  static Result<ExecutionPlan> Lower(const PlanInput& input);

  const PlanInput& input() const { return input_; }
  size_t num_ops() const { return input_.num_ops; }

  const std::vector<PlanNode>& nodes() const { return nodes_; }
  const std::vector<PlanEdge>& edges() const { return edges_; }
  const std::vector<PlanSection>& sections() const { return sections_; }

  /// Recovery-point cuts, sorted and deduplicated, all <= num_ops. The
  /// single source of truth for "where are the hard barriers" — the
  /// executors' resume search and the cost model's RP laws both read it.
  const std::vector<size_t>& rp_cuts() const { return rp_cuts_; }
  bool rp_at(size_t cut) const;
  /// True when a recovery point sits at cut 0 (right after extraction).
  bool rp_after_extract() const { return rp_after_extract_; }

  // Well-known nodes (kNoNode when absent).
  size_t extract_node() const { return extract_node_; }
  size_t rp0_barrier_node() const { return rp0_barrier_node_; }
  size_t collect_node() const { return collect_node_; }
  size_t replica_group_node() const { return replica_group_node_; }
  size_t load_node() const { return load_node_; }
  /// The dataflow's terminal per-instance stage: kCollect feeding the
  /// voter with redundancy, else kLoad (inline in streaming runs; a phased
  /// run's collect stage reports under it).
  size_t sink_node() const {
    return collect_node_ != kNoNode ? collect_node_ : load_node_;
  }

  /// The plan node executing transform op `op_index`: the kTransform node
  /// covering it, or — when the op runs partitioned — the partition-0
  /// kPartitionBranch (the representative branch; all branches share the op
  /// range). kNoNode when op_index is outside the chain. Quarantine
  /// provenance records carry this id.
  size_t NodeForOp(size_t op_index) const;

  /// The containment policy in force for op `op_index` (kFailFast for ops
  /// beyond the configured policy vector).
  ErrorPolicy PolicyForOp(size_t op_index) const;

  /// Streaming-overlap structure for the cost model's performance law.
  const std::vector<CostChunk>& cost_chunks() const { return cost_chunks_; }
  /// Cut positions rows cross a channel edge at (0, every barrier, the
  /// parallel range's edges) — the per-row channel-transfer cost sites.
  const std::vector<size_t>& channel_borders() const {
    return channel_borders_;
  }
  /// True when the dataflow drains immediately after extraction (RP at 0,
  /// or an empty chain): extraction then overlaps nothing.
  bool drains_after_extract() const {
    return rp_after_extract_ || input_.num_ops == 0;
  }

  /// Graphviz DOT rendering (sections as clusters, barriers as boxes).
  std::string ToDot() const;
  /// Single-line JSON rendering (nodes, edges, sections) for logs.
  std::string ToJson() const;

 private:
  size_t AddNode(PlanNodeKind kind, std::string label, size_t begin,
                 size_t end, size_t partition, size_t section);
  /// Adds a channel edge and mirrors it into the nodes' inputs/outputs.
  void Connect(size_t from, size_t to);

  PlanInput input_;
  std::vector<PlanNode> nodes_;
  std::vector<PlanEdge> edges_;
  std::vector<PlanSection> sections_;
  std::vector<size_t> rp_cuts_;
  std::vector<CostChunk> cost_chunks_;
  std::vector<size_t> channel_borders_;
  bool rp_after_extract_ = false;
  size_t extract_node_ = kNoNode;
  size_t rp0_barrier_node_ = kNoNode;
  size_t collect_node_ = kNoNode;
  size_t replica_group_node_ = kNoNode;
  size_t load_node_ = kNoNode;
};

}  // namespace qox

#endif  // QOX_ENGINE_PLAN_H_
