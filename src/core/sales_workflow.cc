#include "core/sales_workflow.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "storage/throttled_store.h"

namespace qox {

namespace {

/// Builds a source store either as a CSV flat file (real extraction I/O)
/// or an in-memory table.
Result<DataStorePtr> MakeSource(const std::string& name, const Schema& schema,
                                const std::vector<Row>& rows,
                                const std::string& data_dir) {
  if (data_dir.empty()) {
    auto table = std::make_shared<MemTable>(name, schema);
    QOX_RETURN_IF_ERROR(table->Append(RowBatch(schema, rows)));
    return DataStorePtr(table);
  }
  QOX_ASSIGN_OR_RETURN(
      std::shared_ptr<FlatFile> file,
      FlatFile::Open(name, schema, data_dir + "/" + name + ".csv",
                     /*sync_every_append=*/false));
  QOX_RETURN_IF_ERROR(file->Truncate());  // fresh data each scenario build
  QOX_RETURN_IF_ERROR(file->Append(RowBatch(schema, rows)));
  return DataStorePtr(file);
}

/// Merges a flow's linear graph into `graph` (shared node ids tolerated).
Status AddFlowToGraph(const LogicalFlow& flow, FlowGraph* graph) {
  if (!graph->HasNode(flow.source()->name())) {
    QOX_RETURN_IF_ERROR(
        graph->AddDataStore(flow.source()->name(), "source"));
  }
  std::string prev = flow.source()->name();
  for (const LogicalOp& op : flow.ops()) {
    if (!graph->HasNode(op.name)) {
      QOX_RETURN_IF_ERROR(graph->AddOperation(op.name, op.kind));
    }
    QOX_RETURN_IF_ERROR(graph->AddEdge(prev, op.name));
    prev = op.name;
  }
  if (!graph->HasNode(flow.target()->name())) {
    QOX_RETURN_IF_ERROR(graph->AddDataStore(flow.target()->name(), "target"));
  }
  QOX_RETURN_IF_ERROR(graph->AddEdge(prev, flow.target()->name()));
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SalesScenario>> SalesScenario::Create(
    const SalesScenarioConfig& config) {
  auto scenario = std::unique_ptr<SalesScenario>(new SalesScenario());
  QOX_RETURN_IF_ERROR(scenario->Build(config));
  return scenario;
}

Status SalesScenario::Build(const SalesScenarioConfig& config) {
  config_ = config;
  rng_ = Rng(config.workload.seed);

  // --- dimensions -----------------------------------------------------------
  {
    auto l1 = std::make_shared<MemTable>("STORE_DT", StoreDimSchema());
    QOX_RETURN_IF_ERROR(l1->Append(
        RowBatch(StoreDimSchema(), GenerateStoreDim(config.workload, &rng_))));
    l1_ = l1;
    auto l2 = std::make_shared<MemTable>("PRODUCT", ProductDimSchema());
    QOX_RETURN_IF_ERROR(l2->Append(RowBatch(
        ProductDimSchema(), GenerateProductDim(config.workload, &rng_))));
    l2_ = l2;
  }

  // --- sources --------------------------------------------------------------
  {
    const std::vector<Row> s1_rows = GenerateSalesTransactions(
        config.workload, config.s1_rows, /*first_tran_id=*/0, &rng_);
    next_tran_id_ = static_cast<int64_t>(config.s1_rows);
    QOX_ASSIGN_OR_RETURN(s1_, MakeSource("SALES_TRAN", SalesTranSchema(),
                                         s1_rows, config.data_dir));
    const std::vector<Row> s2_rows =
        GenerateStaffLogs(config.workload, config.s2_rows,
                          config.staff_update_fraction, &rng_);
    QOX_ASSIGN_OR_RETURN(s2_, MakeSource("SALES_STAFF", SalesStaffSchema(),
                                         s2_rows, config.data_dir));
    if (config.source_bandwidth_bytes_per_s > 0) {
      s1_ = std::make_shared<ThrottledStore>(
          s1_, config.source_bandwidth_bytes_per_s);
      s2_ = std::make_shared<ThrottledStore>(
          s2_, config.source_bandwidth_bytes_per_s);
    }
    const std::vector<Row> s3_rows =
        GenerateClickstream(config.workload, config.s3_rows, &rng_);
    // The clickstream is a streaming source; it stays in memory but still
    // arrives over the web-portal channel, so the bandwidth cap applies.
    auto s3 = std::make_shared<MemTable>("CUSTWEB_CS", ClickstreamSchema());
    QOX_RETURN_IF_ERROR(s3->Append(RowBatch(ClickstreamSchema(), s3_rows)));
    s3_ = s3;
    if (config.source_bandwidth_bytes_per_s > 0) {
      s3_ = std::make_shared<ThrottledStore>(
          s3_, config.source_bandwidth_bytes_per_s);
    }
  }

  // --- shared state ----------------------------------------------------------
  sales_snapshot_ = std::make_shared<SnapshotStore>(
      "SALES_SNAPSHOT", SalesTranSchema(), std::vector<size_t>{0});
  staff_snapshot_ = std::make_shared<SnapshotStore>(
      "STAFF_SNAPSHOT", SalesStaffSchema(), std::vector<size_t>{0});
  sale_keys_ = std::make_shared<SurrogateKeyRegistry>(1);
  customer_keys_ = std::make_shared<SurrogateKeyRegistry>(1);
  rep_keys_ = std::make_shared<SurrogateKeyRegistry>(1);

  // --- bottom flow: S1 -> DW1 SALES (paper-faithful op order) ----------------
  {
    std::vector<LogicalOp> ops;
    // Selectivity 1.0: the experiments run initial/full loads (every row
    // is a change); steady-state incremental flows would declare less.
    ops.push_back(MakeDelta("Delta_sales", sales_snapshot_, "",
                            /*estimated_selectivity=*/1.0));
    ops.push_back(MakeLookup("Lkp_store", l1_, "store_code", "store_code",
                             {"store_key"}, LookupMissPolicy::kReject,
                             /*estimated_hit_rate=*/0.94));
    ops.push_back(MakeLookup("Lkp_product", l2_, "product_code",
                             "product_code", {"product_key", "category"},
                             LookupMissPolicy::kReject,
                             /*estimated_hit_rate=*/0.98));
    ops.push_back(MakeFilter(
        "Flt_NN",
        {Predicate::NotNull("amount"), Predicate::NotNull("store_code")},
        /*estimated_selectivity=*/0.92));
    ops.push_back(MakeFunction(
        "Func_sales",
        {ColumnTransform::Arith("net_amount", "amount",
                                ColumnTransform::ArithOp::kMul, "quantity"),
         ColumnTransform::Upper("category"),
         ColumnTransform::Drop("store_code"),
         ColumnTransform::Drop("product_code")}));
    ops.push_back(MakeSurrogateKey("SK_sales", sale_keys_, "tran_id",
                                   "sale_key", /*drop_natural=*/true));
    ops.push_back(MakeSurrogateKey("SK_customer", customer_keys_,
                                   "customer_id", "customer_key",
                                   /*drop_natural=*/true));
    QOX_ASSIGN_OR_RETURN(const std::vector<Schema> schemas,
                         BindLogicalChain(s1_->schema(), ops));
    dw1_ = std::make_shared<MemTable>("SALES", schemas.back());
    bottom_flow_ = LogicalFlow("sales_bottom", s1_, std::move(ops), dw1_);
  }

  // --- middle flow: S2 -> DW2 SALES_REP ---------------------------------------
  {
    std::vector<LogicalOp> ops;
    ops.push_back(MakeDelta("Delta_staff", staff_snapshot_));
    ops.push_back(MakeFunction(
        "Func_staff",
        {ColumnTransform::Upper("status"),
         ColumnTransform::Coalesce("working_hours", Value::Int64(0))}));
    ops.push_back(MakeSurrogateKey("SK_rep", rep_keys_, "rep_id", "rep_key",
                                   /*drop_natural=*/false));
    QOX_ASSIGN_OR_RETURN(const std::vector<Schema> schemas,
                         BindLogicalChain(s2_->schema(), ops));
    dw2_ = std::make_shared<MemTable>("SALES_REP", schemas.back());
    middle_flow_ = LogicalFlow("staff_middle", s2_, std::move(ops), dw2_);
  }

  // --- top flow: S3 -> DW3 CUSTOMER (streaming, freshness-pressed) -----------
  {
    std::vector<LogicalOp> ops;
    ops.push_back(MakeFilter("Flt_anon", {Predicate::NotNull("customer_id")},
                             /*estimated_selectivity=*/0.9));
    ops.push_back(MakeFunction(
        "Func_click", {ColumnTransform::Upper("action"),
                       ColumnTransform::Constant(
                           "channel", Value::String("WEB"))}));
    ops.push_back(MakeSurrogateKey("SK_cust_click", customer_keys_,
                                   "customer_id", "customer_key",
                                   /*drop_natural=*/true));
    QOX_ASSIGN_OR_RETURN(const std::vector<Schema> schemas,
                         BindLogicalChain(s3_->schema(), ops));
    dw3_ = std::make_shared<MemTable>("CUSTOMER", schemas.back());
    top_flow_ = LogicalFlow("click_top", s3_, std::move(ops), dw3_);
  }
  return Status::OK();
}

Status SalesScenario::ResetWarehouse() {
  QOX_RETURN_IF_ERROR(dw1_->Truncate());
  QOX_RETURN_IF_ERROR(dw2_->Truncate());
  QOX_RETURN_IF_ERROR(dw3_->Truncate());
  QOX_RETURN_IF_ERROR(sales_snapshot_->Clear());
  QOX_RETURN_IF_ERROR(staff_snapshot_->Clear());
  return Status::OK();
}

Status SalesScenario::AppendS1Batch(size_t rows) {
  const std::vector<Row> fresh = GenerateSalesTransactions(
      config_.workload, rows, next_tran_id_, &rng_);
  next_tran_id_ += static_cast<int64_t>(rows);
  return s1_->Append(RowBatch(SalesTranSchema(), fresh));
}

Result<FlowGraph> SalesScenario::ScenarioGraph() const {
  FlowGraph graph;
  QOX_RETURN_IF_ERROR(AddFlowToGraph(bottom_flow_, &graph));
  QOX_RETURN_IF_ERROR(AddFlowToGraph(middle_flow_, &graph));
  QOX_RETURN_IF_ERROR(AddFlowToGraph(top_flow_, &graph));
  // Lookup dimension feeds the lookup operator.
  QOX_RETURN_IF_ERROR(graph.AddDataStore("STORE_DT", "source"));
  QOX_RETURN_IF_ERROR(graph.AddEdge("STORE_DT", "Lkp_store"));
  // Views on top of the warehouse tables.
  QOX_RETURN_IF_ERROR(graph.AddDataStore("CUSTOMER_SALE_RELS", "view"));
  QOX_RETURN_IF_ERROR(graph.AddEdge("SALES", "CUSTOMER_SALE_RELS"));
  QOX_RETURN_IF_ERROR(graph.AddEdge("CUSTOMER", "CUSTOMER_SALE_RELS"));
  QOX_RETURN_IF_ERROR(graph.AddDataStore("SAL_SALES_REP_RELS", "view"));
  QOX_RETURN_IF_ERROR(graph.AddEdge("SALES", "SAL_SALES_REP_RELS"));
  QOX_RETURN_IF_ERROR(graph.AddEdge("SALES_REP", "SAL_SALES_REP_RELS"));
  return graph;
}

Result<RowBatch> SalesScenario::QueryCustomerSaleRels() const {
  // DW1 columns after the bottom flow (see Build): ..., customer_key last.
  QOX_ASSIGN_OR_RETURN(const RowBatch sales, dw1_->ReadAll());
  QOX_ASSIGN_OR_RETURN(const RowBatch customers, dw3_->ReadAll());
  QOX_ASSIGN_OR_RETURN(const size_t sales_ck,
                       dw1_->schema().FieldIndex("customer_key"));
  QOX_ASSIGN_OR_RETURN(const size_t sales_net,
                       dw1_->schema().FieldIndex("net_amount"));
  QOX_ASSIGN_OR_RETURN(const size_t cust_ck,
                       dw3_->schema().FieldIndex("customer_key"));
  std::unordered_set<int64_t> active;
  for (const Row& row : customers.rows()) {
    if (!row.value(cust_ck).is_null()) {
      active.insert(row.value(cust_ck).int64_value());
    }
  }
  struct Totals {
    double spend = 0.0;
    int64_t count = 0;
  };
  std::unordered_map<int64_t, Totals> per_customer;
  for (const Row& row : sales.rows()) {
    if (row.value(sales_ck).is_null()) continue;
    const int64_t key = row.value(sales_ck).int64_value();
    Totals& totals = per_customer[key];
    ++totals.count;
    if (!row.value(sales_net).is_null()) {
      totals.spend += row.value(sales_net).double_value();
    }
  }
  const Schema view_schema({{"customer_key", DataType::kInt64, false},
                            {"total_spend", DataType::kDouble, true},
                            {"num_sales", DataType::kInt64, false},
                            {"status", DataType::kString, false}});
  RowBatch out(view_schema);
  std::vector<int64_t> keys;
  for (const auto& [key, totals] : per_customer) {
    if (active.count(key) > 0) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (const int64_t key : keys) {
    const Totals& totals = per_customer.at(key);
    const char* status = totals.spend >= 5000.0   ? "platinum"
                         : totals.spend >= 1000.0 ? "gold"
                                                  : "silver";
    Row row;
    row.Append(Value::Int64(key));
    row.Append(Value::Double(totals.spend));
    row.Append(Value::Int64(totals.count));
    row.Append(Value::String(status));
    out.Append(std::move(row));
  }
  return out;
}

Result<RowBatch> SalesScenario::QuerySalesRepRels() const {
  QOX_ASSIGN_OR_RETURN(const RowBatch sales, dw1_->ReadAll());
  QOX_ASSIGN_OR_RETURN(const RowBatch reps, dw2_->ReadAll());
  QOX_ASSIGN_OR_RETURN(const size_t sales_rep,
                       dw1_->schema().FieldIndex("sales_rep_id"));
  QOX_ASSIGN_OR_RETURN(const size_t sales_net,
                       dw1_->schema().FieldIndex("net_amount"));
  QOX_ASSIGN_OR_RETURN(const size_t rep_id, dw2_->schema().FieldIndex("rep_id"));
  QOX_ASSIGN_OR_RETURN(const size_t rep_key,
                       dw2_->schema().FieldIndex("rep_key"));
  QOX_ASSIGN_OR_RETURN(const size_t rep_branch,
                       dw2_->schema().FieldIndex("branch"));
  struct Totals {
    double amount = 0.0;
    int64_t count = 0;
  };
  std::unordered_map<int64_t, Totals> per_rep;
  double grand_total = 0.0;
  for (const Row& row : sales.rows()) {
    if (row.value(sales_rep).is_null()) continue;
    Totals& totals = per_rep[row.value(sales_rep).int64_value()];
    ++totals.count;
    if (!row.value(sales_net).is_null()) {
      totals.amount += row.value(sales_net).double_value();
      grand_total += row.value(sales_net).double_value();
    }
  }
  const double mean = per_rep.empty()
                          ? 0.0
                          : grand_total / static_cast<double>(per_rep.size());
  const Schema view_schema({{"rep_key", DataType::kInt64, false},
                            {"branch", DataType::kString, true},
                            {"num_sales", DataType::kInt64, false},
                            {"total_amount", DataType::kDouble, true},
                            {"category", DataType::kString, false}});
  RowBatch out(view_schema);
  for (const Row& rep : reps.rows()) {
    if (rep.value(rep_id).is_null()) continue;
    const auto it = per_rep.find(rep.value(rep_id).int64_value());
    if (it == per_rep.end()) continue;
    const Totals& totals = it->second;
    const char* category = totals.amount >= 1.5 * mean   ? "lead"
                           : totals.amount >= 0.5 * mean ? "core"
                                                         : "developing";
    Row row;
    row.Append(rep.value(rep_key));
    row.Append(rep.value(rep_branch));
    row.Append(Value::Int64(totals.count));
    row.Append(Value::Double(totals.amount));
    row.Append(Value::String(category));
    out.Append(std::move(row));
  }
  return out;
}

Result<FlowGraph> BuildFigure3PaperGraph() {
  FlowGraph g;
  // Stores.
  QOX_RETURN_IF_ERROR(g.AddDataStore("S1_SALES_TRAN", "source"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("S2_SALES_STAFF", "source"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("S3_CUSTWEB_CS", "source"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("L1_STORE_DT", "source"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("SNAPSHOT", "staging"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("SP1", "recovery_point"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("SP2", "recovery_point"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("DW1_SALES", "target"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("DW2_SALES_REP", "target"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("DW3_CUSTOMER", "target"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("V1_CUSTOMER_SALE_RELS", "view"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("V2_SAL_SALES_REP_RELS", "view"));
  // The Δ with the paper's fan-in 3 (S1, S2, snapshot) and fan-out 3
  // (bottom chain, middle chain, SP1) — the "vulnerable" node.
  QOX_RETURN_IF_ERROR(g.AddOperation("Delta", "delta"));
  QOX_RETURN_IF_ERROR(g.AddEdge("S1_SALES_TRAN", "Delta"));
  QOX_RETURN_IF_ERROR(g.AddEdge("S2_SALES_STAFF", "Delta"));
  QOX_RETURN_IF_ERROR(g.AddEdge("SNAPSHOT", "Delta"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Delta", "SP1"));
  // Bottom chain.
  QOX_RETURN_IF_ERROR(g.AddOperation("Lkp", "lookup"));
  QOX_RETURN_IF_ERROR(g.AddOperation("Flt_NN", "filter"));
  QOX_RETURN_IF_ERROR(g.AddOperation("Func", "function"));
  QOX_RETURN_IF_ERROR(g.AddOperation("SK", "surrogate_key"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Delta", "Lkp"));
  QOX_RETURN_IF_ERROR(g.AddEdge("L1_STORE_DT", "Lkp"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Lkp", "Flt_NN"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Flt_NN", "Func"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Func", "SK"));
  QOX_RETURN_IF_ERROR(g.AddEdge("SK", "DW1_SALES"));
  // Middle chain (transformations hidden under the load task).
  QOX_RETURN_IF_ERROR(g.AddOperation("Load_DW2", "load"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Delta", "Load_DW2"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Load_DW2", "DW2_SALES_REP"));
  // Top chain with SP2.
  QOX_RETURN_IF_ERROR(g.AddOperation("Load_DW3", "load"));
  QOX_RETURN_IF_ERROR(g.AddEdge("S3_CUSTWEB_CS", "Load_DW3"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Load_DW3", "SP2"));
  QOX_RETURN_IF_ERROR(g.AddEdge("SP2", "DW3_CUSTOMER"));
  // Views.
  QOX_RETURN_IF_ERROR(g.AddEdge("DW1_SALES", "V1_CUSTOMER_SALE_RELS"));
  QOX_RETURN_IF_ERROR(g.AddEdge("DW3_CUSTOMER", "V1_CUSTOMER_SALE_RELS"));
  QOX_RETURN_IF_ERROR(g.AddEdge("DW1_SALES", "V2_SAL_SALES_REP_RELS"));
  QOX_RETURN_IF_ERROR(g.AddEdge("DW2_SALES_REP", "V2_SAL_SALES_REP_RELS"));
  return g;
}

Result<FlowGraph> BuildFigure3RestructuredGraph() {
  FlowGraph g;
  QOX_RETURN_IF_ERROR(g.AddDataStore("S1_SALES_TRAN", "source"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("S2_SALES_STAFF", "source"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("S3_CUSTWEB_CS", "source"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("L1_STORE_DT", "source"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("SNAPSHOT_1", "staging"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("SNAPSHOT_2", "staging"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("SP1", "recovery_point"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("SP2", "recovery_point"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("DW1_SALES", "target"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("DW2_SALES_REP", "target"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("DW3_CUSTOMER", "target"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("V1_CUSTOMER_SALE_RELS", "view"));
  QOX_RETURN_IF_ERROR(g.AddDataStore("V2_SAL_SALES_REP_RELS", "view"));
  // Independent bottom flow: Δ1 now has fan-in 2 (S1, its snapshot) and
  // fan-out 2 (chain + SP1) — strictly less vulnerable.
  QOX_RETURN_IF_ERROR(g.AddOperation("Delta_1", "delta"));
  QOX_RETURN_IF_ERROR(g.AddEdge("S1_SALES_TRAN", "Delta_1"));
  QOX_RETURN_IF_ERROR(g.AddEdge("SNAPSHOT_1", "Delta_1"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Delta_1", "SP1"));
  QOX_RETURN_IF_ERROR(g.AddOperation("Lkp", "lookup"));
  QOX_RETURN_IF_ERROR(g.AddOperation("Flt_NN", "filter"));
  QOX_RETURN_IF_ERROR(g.AddOperation("Func", "function"));
  QOX_RETURN_IF_ERROR(g.AddOperation("SK", "surrogate_key"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Delta_1", "Lkp"));
  QOX_RETURN_IF_ERROR(g.AddEdge("L1_STORE_DT", "Lkp"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Lkp", "Flt_NN"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Flt_NN", "Func"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Func", "SK"));
  QOX_RETURN_IF_ERROR(g.AddEdge("SK", "DW1_SALES"));
  // Independent middle flow with its own link to S2 (Sec. 3.4's proposal).
  QOX_RETURN_IF_ERROR(g.AddOperation("Delta_2", "delta"));
  QOX_RETURN_IF_ERROR(g.AddOperation("Load_DW2", "load"));
  QOX_RETURN_IF_ERROR(g.AddEdge("S2_SALES_STAFF", "Delta_2"));
  QOX_RETURN_IF_ERROR(g.AddEdge("SNAPSHOT_2", "Delta_2"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Delta_2", "Load_DW2"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Load_DW2", "DW2_SALES_REP"));
  // Top flow unchanged.
  QOX_RETURN_IF_ERROR(g.AddOperation("Load_DW3", "load"));
  QOX_RETURN_IF_ERROR(g.AddEdge("S3_CUSTWEB_CS", "Load_DW3"));
  QOX_RETURN_IF_ERROR(g.AddEdge("Load_DW3", "SP2"));
  QOX_RETURN_IF_ERROR(g.AddEdge("SP2", "DW3_CUSTOMER"));
  QOX_RETURN_IF_ERROR(g.AddEdge("DW1_SALES", "V1_CUSTOMER_SALE_RELS"));
  QOX_RETURN_IF_ERROR(g.AddEdge("DW3_CUSTOMER", "V1_CUSTOMER_SALE_RELS"));
  QOX_RETURN_IF_ERROR(g.AddEdge("DW1_SALES", "V2_SAL_SALES_REP_RELS"));
  QOX_RETURN_IF_ERROR(g.AddEdge("DW2_SALES_REP", "V2_SAL_SALES_REP_RELS"));
  return g;
}

}  // namespace qox
