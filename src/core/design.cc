#include "core/design.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace qox {

LogicalOp MakeFilter(std::string name, std::vector<Predicate> conjuncts,
                     double estimated_selectivity) {
  LogicalOp op;
  op.name = name;
  op.kind = "filter";
  op.op_class = OpClass::kPerRow;
  op.blocking = false;
  op.selectivity = estimated_selectivity;
  const FilterOp prototype(name, conjuncts, estimated_selectivity);
  op.cost_per_row = prototype.CostPerRow();
  op.reads = prototype.InputColumns();
  op.factory = [name, conjuncts, estimated_selectivity]() -> OperatorPtr {
    return std::make_unique<FilterOp>(name, conjuncts, estimated_selectivity);
  };
  return op;
}

LogicalOp MakeFunction(std::string name,
                       std::vector<ColumnTransform> transforms) {
  LogicalOp op;
  op.name = name;
  op.kind = "function";
  op.op_class = OpClass::kPerRow;
  const FunctionOp prototype(name, transforms);
  op.cost_per_row = prototype.CostPerRow();
  op.selectivity = 1.0;
  op.reads = prototype.InputColumns();
  op.creates = prototype.CreatedColumns();
  op.drops = prototype.DroppedColumns();
  op.factory = [name, transforms]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(name, transforms);
  };
  return op;
}

LogicalOp MakeLookup(std::string name, DataStorePtr dimension,
                     std::string input_key, std::string dim_key,
                     std::vector<std::string> append_columns,
                     LookupMissPolicy miss_policy, double estimated_hit_rate) {
  LogicalOp op;
  op.name = name;
  op.kind = "lookup";
  op.op_class = OpClass::kPerRow;
  LookupOp prototype(name, dimension, input_key, dim_key, append_columns,
                     miss_policy, estimated_hit_rate);
  op.cost_per_row = prototype.CostPerRow();
  op.selectivity = prototype.Selectivity();
  op.reads = {input_key};
  // The appended (possibly renamed) output columns need a bind to resolve;
  // use the raw dimension column names — collisions are rare and rebind
  // validation is authoritative for legality anyway.
  op.creates = append_columns;
  op.factory = [name, dimension, input_key, dim_key, append_columns,
                miss_policy, estimated_hit_rate]() -> OperatorPtr {
    return std::make_unique<LookupOp>(name, dimension, input_key, dim_key,
                                      append_columns, miss_policy,
                                      estimated_hit_rate);
  };
  return op;
}

LogicalOp MakeSurrogateKey(std::string name, SurrogateKeyRegistryPtr registry,
                           std::string natural_column,
                           std::string surrogate_column, bool drop_natural) {
  LogicalOp op;
  op.name = name;
  op.kind = "surrogate_key";
  op.op_class = OpClass::kPerRow;
  const SurrogateKeyOp prototype(name, registry, natural_column,
                                 surrogate_column, drop_natural);
  op.cost_per_row = prototype.CostPerRow();
  op.selectivity = 1.0;
  op.reads = {natural_column};
  op.creates = {surrogate_column};
  if (drop_natural) op.drops = {natural_column};
  op.factory = [name, registry, natural_column, surrogate_column,
                drop_natural]() -> OperatorPtr {
    return std::make_unique<SurrogateKeyOp>(name, registry, natural_column,
                                            surrogate_column, drop_natural);
  };
  return op;
}

LogicalOp MakeDelta(std::string name, SnapshotStorePtr snapshot,
                    std::string change_type_column,
                    double estimated_selectivity) {
  LogicalOp op;
  op.name = name;
  op.kind = "delta";
  op.op_class = OpClass::kMultiset;
  op.blocking = true;
  const DeltaOp prototype(name, snapshot, change_type_column);
  op.cost_per_row = prototype.CostPerRow();
  op.selectivity = estimated_selectivity;
  if (!change_type_column.empty()) op.creates = {change_type_column};
  op.factory = [name, snapshot, change_type_column]() -> OperatorPtr {
    return std::make_unique<DeltaOp>(name, snapshot, change_type_column);
  };
  return op;
}

LogicalOp MakeSort(std::string name, std::vector<SortKey> keys) {
  LogicalOp op;
  op.name = name;
  op.kind = "sort";
  op.op_class = OpClass::kOrderOnly;
  op.blocking = true;
  const SortOp prototype(name, keys);
  op.cost_per_row = prototype.CostPerRow();
  op.selectivity = 1.0;
  op.reads = prototype.InputColumns();
  op.factory = [name, keys]() -> OperatorPtr {
    return std::make_unique<SortOp>(name, keys);
  };
  return op;
}

LogicalOp MakeGroup(std::string name, std::vector<std::string> group_columns,
                    std::vector<Aggregate> aggregates) {
  LogicalOp op;
  op.name = name;
  op.kind = "group";
  op.op_class = OpClass::kMultiset;
  op.blocking = true;
  const GroupOp prototype(name, group_columns, aggregates);
  op.cost_per_row = prototype.CostPerRow();
  op.selectivity = prototype.Selectivity();
  op.reads = prototype.InputColumns();
  op.factory = [name, group_columns, aggregates]() -> OperatorPtr {
    return std::make_unique<GroupOp>(name, group_columns, aggregates);
  };
  return op;
}

FlowSpec LogicalFlow::ToFlowSpec() const {
  FlowSpec spec;
  spec.id = id_;
  spec.source = source_;
  spec.target = target_;
  spec.transforms.reserve(ops_.size());
  for (const LogicalOp& op : ops_) spec.transforms.push_back(op.factory);
  spec.post_success = post_success_;
  return spec;
}

Result<std::vector<Schema>> BindLogicalChain(
    const Schema& input, const std::vector<LogicalOp>& ops) {
  std::vector<Schema> schemas;
  schemas.reserve(ops.size() + 1);
  schemas.push_back(input);
  for (const LogicalOp& op : ops) {
    if (!op.factory) {
      return Status::Invalid("logical op '" + op.name + "' has no factory");
    }
    OperatorPtr instance = op.factory();
    QOX_ASSIGN_OR_RETURN(Schema out, instance->Bind(schemas.back()));
    schemas.push_back(std::move(out));
  }
  return schemas;
}

Result<std::vector<Schema>> LogicalFlow::BindSchemas() const {
  if (source_ == nullptr) return Status::Invalid("flow has no source");
  QOX_ASSIGN_OR_RETURN(std::vector<Schema> schemas,
                       BindLogicalChain(source_->schema(), ops_));
  if (target_ != nullptr && schemas.back() != target_->schema()) {
    return Status::Invalid("flow '" + id_ + "' output schema [" +
                           schemas.back().ToString() +
                           "] does not match target schema [" +
                           target_->schema().ToString() + "]");
  }
  return schemas;
}

Result<FlowGraph> LogicalFlow::ToGraph() const {
  FlowGraph graph;
  QOX_RETURN_IF_ERROR(
      graph.AddDataStore(source_ != nullptr ? source_->name() : "source",
                         "source"));
  std::string prev = source_ != nullptr ? source_->name() : "source";
  for (const LogicalOp& op : ops_) {
    QOX_RETURN_IF_ERROR(graph.AddOperation(op.name, op.kind));
    QOX_RETURN_IF_ERROR(graph.AddEdge(prev, op.name));
    prev = op.name;
  }
  QOX_RETURN_IF_ERROR(
      graph.AddDataStore(target_ != nullptr ? target_->name() : "target",
                         "target"));
  QOX_RETURN_IF_ERROR(
      graph.AddEdge(prev, target_ != nullptr ? target_->name() : "target"));
  return graph;
}

std::pair<size_t, size_t> LogicalFlow::PipelineableRange() const {
  size_t best_begin = 0;
  size_t best_end = 0;
  size_t begin = 0;
  for (size_t i = 0; i <= ops_.size(); ++i) {
    const bool per_row = i < ops_.size() && ops_[i].op_class == OpClass::kPerRow;
    if (!per_row) {
      if (i - begin > best_end - best_begin) {
        best_begin = begin;
        best_end = i;
      }
      begin = i + 1;
    }
  }
  return {best_begin, best_end};
}

std::string LogicalFlow::Describe() const {
  std::ostringstream oss;
  oss << (source_ != nullptr ? source_->name() : "?");
  for (const LogicalOp& op : ops_) {
    oss << " -> " << op.name << ":" << op.kind;
  }
  oss << " -> " << (target_ != nullptr ? target_->name() : "?");
  return oss.str();
}

ExecutionConfig PhysicalDesign::ToExecutionConfig(
    RecoveryPointStorePtr rp_store, FailureInjector* injector) const {
  ExecutionConfig config;
  config.num_threads = threads;
  config.parallel = parallel;
  config.recovery_points = recovery_points;
  config.rp_store = std::move(rp_store);
  config.redundancy = redundancy;
  config.retry = retry;
  config.injector = injector;
  config.streaming = streaming;
  config.channel_capacity = channel_capacity;
  config.error_policies = error_policies;
  config.error_budget = error_budget;
  config.memory_budget_bytes = memory_budget_bytes;
  config.resource_policy = resource_policy;
  if (sla_deadline_s > 0.0) {
    config.sla.deadline_micros = static_cast<int64_t>(sla_deadline_s * 1e6);
  }
  return config;
}

std::string PhysicalDesign::ConfigTag() const {
  std::ostringstream oss;
  if (redundancy > 1) {
    if (redundancy == 3) {
      oss << "TMR";
    } else {
      oss << redundancy << "MR";
    }
  } else if (parallel.partitions > 1) {
    oss << parallel.partitions << "PF";
    const bool whole = parallel.range_begin == 0 &&
                       parallel.range_end >= flow.num_ops();
    oss << (whole ? "-f" : "-p");
  } else {
    oss << "1F";
  }
  if (!recovery_points.empty()) {
    oss << (recovery_points.size() >= 3 ? "+RP++" : "+RP");
  }
  if (streaming) oss << "+S";
  if (journaled) oss << "+J";
  // Containment shows up only when a non-default policy is set.
  bool any_skip = false;
  bool any_quarantine = false;
  for (const ErrorPolicy policy : error_policies) {
    any_skip |= policy == ErrorPolicy::kSkip;
    any_quarantine |= policy == ErrorPolicy::kQuarantine;
  }
  if (any_quarantine) {
    oss << "+DLQ";
  } else if (any_skip) {
    oss << "+SKIP";
  }
  if (!error_budget.unlimited()) oss << "+EB";
  if (memory_budget_bytes > 0) oss << "+M";
  if (cdc_shards > 0) oss << "+CDC" << cdc_shards;
  return oss.str();
}

std::string PhysicalDesign::Describe() const {
  std::ostringstream oss;
  oss << ConfigTag() << " threads=" << threads
      << " partitions=" << parallel.partitions << " rp={";
  for (size_t i = 0; i < recovery_points.size(); ++i) {
    if (i > 0) oss << ",";
    oss << recovery_points[i];
  }
  oss << "} redundancy=" << redundancy << " loads/day=" << loads_per_day;
  if (journaled) {
    oss << " journal=" << JournalSyncName(journal_sync);
  }
  bool any_contained = false;
  for (const ErrorPolicy policy : error_policies) {
    any_contained |= policy != ErrorPolicy::kFailFast;
  }
  if (any_contained) {
    oss << " policies={";
    for (size_t i = 0; i < error_policies.size(); ++i) {
      if (i > 0) oss << ",";
      oss << ErrorPolicyName(error_policies[i]);
    }
    oss << "}";
  }
  if (!error_budget.unlimited()) {
    oss << " budget={rows=";
    if (error_budget.max_rows == std::numeric_limits<size_t>::max()) {
      oss << "inf";
    } else {
      oss << error_budget.max_rows;
    }
    oss << ",fraction=" << error_budget.max_fraction << "}";
  }
  if (memory_budget_bytes > 0) {
    oss << " mem_budget=" << memory_budget_bytes
        << " resource_policy=" << ResourcePolicyName(resource_policy);
  }
  if (cdc_shards > 0) {
    oss << " cdc={shards=" << cdc_shards
        << ",slice_events=" << cdc_slice_events
        << ",rate=" << cdc_update_rate_per_s << "/s}";
  }
  oss << " :: " << flow.Describe();
  return oss.str();
}

}  // namespace qox
