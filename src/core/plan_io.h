// Design metadata interchange (XML).
//
// The paper positions QoX tooling as engine-agnostic: "It can work on top
// of any ETL engine that provides export and import capabilities (e.g.,
// the metadata of an ETL workflow can be exported as or imported from an
// XML file)." This module implements that boundary: a PhysicalDesign's
// structure and physical choices serialize to XML, and XML parses back
// into a DesignSpec — the structural description a consultant (or another
// tool) exchanges. Re-binding a spec to executable stores/operators is
// deliberately out of scope for import (operators need live stores and
// registries); SpecOf() lets callers verify a design matches a spec.

#ifndef QOX_CORE_PLAN_IO_H_
#define QOX_CORE_PLAN_IO_H_

#include <string>
#include <vector>

#include "core/design.h"

namespace qox {

/// One node of the lowered ExecutionPlan (engine/plan.h) as exported
/// metadata: enough for an external tool to reconstruct the stage graph
/// without re-running the planner.
struct PlanStageSpec {
  size_t id = 0;
  std::string kind;  ///< PlanNodeKindName ("extract", "transform", ...)
  std::string label;
  size_t begin = 0;  ///< op range [begin, end); cut position for barriers
  size_t end = 0;
  size_t partition = 0;
  /// Section index, or size_t(-1) for nodes outside sections (serialized
  /// as section="none").
  size_t section = static_cast<size_t>(-1);

  bool operator==(const PlanStageSpec& other) const;
};

/// One channel edge of the lowered plan.
struct PlanEdgeSpec {
  size_t from = 0;
  size_t to = 0;
  size_t capacity = 8;

  bool operator==(const PlanEdgeSpec& other) const;
};

/// Structural description of one operator (no factory).
struct OpSpec {
  std::string name;
  std::string kind;
  bool blocking = false;
  double cost_per_row = 1.0;
  double selectivity = 1.0;
  std::vector<std::string> reads;
  std::vector<std::string> creates;
  std::vector<std::string> drops;
  /// Row-error containment policy (ErrorPolicyName): "fail_fast", "skip",
  /// or "quarantine".
  std::string error_policy = "fail_fast";

  bool operator==(const OpSpec& other) const;
};

/// Structural description of a physical design: everything XML carries.
struct DesignSpec {
  std::string flow_id;
  std::string source;
  std::string target;
  std::vector<OpSpec> ops;

  size_t threads = 1;
  size_t partitions = 1;
  std::string partition_scheme = "round_robin";  ///< or "hash"
  std::string hash_column;
  size_t range_begin = 0;
  size_t range_end = static_cast<size_t>(-1);
  std::vector<size_t> recovery_points;
  size_t redundancy = 1;
  size_t loads_per_day = 24;
  bool provenance_columns = false;
  bool audit_rejects = false;
  bool streaming = false;
  size_t channel_capacity = 8;
  /// Flow-level error budget; the defaults mean unlimited (no budget).
  size_t error_budget_max_rows = static_cast<size_t>(-1);
  double error_budget_max_fraction = 1.0;
  /// Crash safety: durable flow journal + its sync policy
  /// (JournalSyncName: "none", "commit", "always").
  bool journaled = false;
  std::string journal_sync = "always";
  /// Resource pressure: memory budget for blocking-operator state (0 =
  /// unlimited) and the degradation policy on resource exhaustion
  /// (ResourcePolicyName: "fail_flow", "pause_retry", "shed").
  size_t memory_budget_bytes = 0;
  std::string resource_policy = "fail_flow";
  /// Freshness SLA expressed as an execution deadline, seconds
  /// (PhysicalDesign::sla_deadline_s). 0 = none; the attribute appears in
  /// the document only when set, so pre-SLA documents stay byte-stable
  /// and still parse (schema evolution).
  double sla_deadline_s = 0.0;
  /// Multi-flow service context the design is meant to be admitted under
  /// (engine/flow_service.h FlowServiceConfig), exported as an optional
  /// <service> element: shared-pool workers, concurrency slots, queue
  /// policy ("edf" or "fifo"), and admission control. has_service == false
  /// (the default) omits the element entirely — older documents without it
  /// load unchanged.
  bool has_service = false;
  size_t service_workers = 4;
  size_t service_max_concurrent = 4;
  std::string service_policy = "edf";
  bool service_admit_only_feasible = false;
  /// Sharded CDC ingestion shape (PhysicalDesign::cdc_*), exported as an
  /// optional <cdc> element. cdc_shards == 0 (the default) omits the
  /// element entirely, so pre-CDC documents stay byte-stable and parse
  /// unchanged.
  size_t cdc_shards = 0;
  size_t cdc_slice_events = 64;
  double cdc_update_rate_per_s = 0.0;

  /// The lowered ExecutionPlan (stage nodes + channel edges), exported as
  /// read-only metadata. SpecOf fills it by lowering the design; import
  /// reads it back verbatim. It is descriptive — re-imported designs are
  /// re-lowered from the structural fields, and the planner equivalence
  /// tests keep the two views consistent.
  std::vector<PlanStageSpec> plan_stages;
  std::vector<PlanEdgeSpec> plan_edges;

  bool operator==(const DesignSpec& other) const;
};

/// Extracts the structural spec of a design (for export / comparison).
DesignSpec SpecOf(const PhysicalDesign& design);

/// Serializes a design spec as a self-contained XML document.
std::string ExportDesignXml(const DesignSpec& spec);
std::string ExportDesignXml(const PhysicalDesign& design);

/// Parses a document produced by ExportDesignXml (or a compatible tool).
/// Unknown elements are ignored; malformed XML or missing required
/// attributes error.
Result<DesignSpec> ParseDesignXml(const std::string& xml);

}  // namespace qox

#endif  // QOX_CORE_PLAN_IO_H_
