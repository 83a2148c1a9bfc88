// DimensionCache tests: flat-table build semantics (dedup, NULL keys,
// probe-key equality), single-flight sharing under concurrency, version
// supersession, and the end-to-end acceptance property: two concurrent
// flows probing the same dimension perform exactly one build between them,
// and a budgeted flow charges the shared table to its MemoryBudget.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/dimension_cache.h"
#include "engine/executor.h"
#include "engine/ops/lookup_op.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

Schema DimSchema() {
  return Schema({{"code", DataType::kInt64, true},
                 {"label", DataType::kString, true}});
}

std::shared_ptr<MemTable> MakeDim(size_t keys) {
  auto dim = std::make_shared<MemTable>("dim", DimSchema());
  RowBatch batch(DimSchema());
  for (size_t k = 0; k < keys; ++k) {
    batch.Append(Row({Value::Int64(static_cast<int64_t>(k)),
                      Value::String("label" + std::to_string(k))}));
  }
  // A duplicate key (first occurrence must win) and a NULL key (skipped:
  // unreachable by probe).
  batch.Append(Row({Value::Int64(0), Value::String("shadowed")}));
  batch.Append(Row({Value::Null(), Value::String("nullkey")}));
  EXPECT_TRUE(dim->Append(batch).ok());
  return dim;
}

TEST(DimensionTableTest, BuildDedupsAndSkipsNullKeys) {
  auto dim = MakeDim(10);
  Result<DimensionTablePtr> table = DimensionTable::Build(*dim, 0);
  ASSERT_TRUE(table.ok()) << table.status();
  // 12 source rows: 10 unique keys + 1 duplicate + 1 NULL key.
  EXPECT_EQ(table.value()->num_rows(), 10u);
  EXPECT_GT(table.value()->ByteSize(), 0u);

  const auto probe = [&](const Value& key) {
    std::string bytes;
    AppendValueKeyBytes(key, &bytes);
    return table.value()->Probe(bytes);
  };
  const Row* hit = probe(Value::Int64(0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value(1).string_value(), "label0");  // first wins
  EXPECT_EQ(probe(Value::Int64(99)), nullptr);
  // Numeric near-miss: a double probe must not match an int64 build key
  // (Value::Hash keeps them distinct, and so does the byte encoding).
  EXPECT_EQ(probe(Value::Double(0.0)), nullptr);
}

TEST(DimensionCacheTest, SingleFlightBuildsExactlyOnce) {
  DimensionCache::Instance().Clear();
  auto dim = MakeDim(50);
  const std::string version = dim->ContentVersion();
  ASSERT_FALSE(version.empty());

  constexpr size_t kThreads = 8;
  std::vector<DimensionCache::Acquired> acquired(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<DimensionCache::Acquired> result =
          DimensionCache::Instance().GetOrBuild(*dim, version, 0);
      ASSERT_TRUE(result.ok()) << result.status();
      acquired[t] = result.TakeValue();
    });
  }
  for (std::thread& t : threads) t.join();

  size_t builds = 0;
  for (const DimensionCache::Acquired& a : acquired) {
    ASSERT_NE(a.table, nullptr);
    EXPECT_EQ(a.table.get(), acquired[0].table.get());  // one shared table
    if (a.built) ++builds;
  }
  EXPECT_EQ(builds, 1u);
}

TEST(DimensionCacheTest, NewVersionSupersedesAndTryGetNeverBuilds) {
  DimensionCache::Instance().Clear();
  auto dim = MakeDim(5);
  const std::string v1 = dim->ContentVersion();

  // TryGet on a cold cache must not build.
  EXPECT_EQ(DimensionCache::Instance().TryGet(*dim, v1, 0), nullptr);
  EXPECT_EQ(DimensionCache::Instance().num_entries(), 0u);

  Result<DimensionCache::Acquired> first =
      DimensionCache::Instance().GetOrBuild(*dim, v1, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().built);
  EXPECT_NE(DimensionCache::Instance().TryGet(*dim, v1, 0), nullptr);

  // Mutating the store changes its version; the old entry is superseded.
  RowBatch extra(DimSchema());
  extra.Append(Row({Value::Int64(100), Value::String("new")}));
  ASSERT_TRUE(dim->Append(extra).ok());
  const std::string v2 = dim->ContentVersion();
  ASSERT_NE(v1, v2);

  Result<DimensionCache::Acquired> second =
      DimensionCache::Instance().GetOrBuild(*dim, v2, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().built);
  EXPECT_EQ(DimensionCache::Instance().num_entries(), 1u);
  EXPECT_EQ(DimensionCache::Instance().TryGet(*dim, v1, 0), nullptr);
  EXPECT_NE(DimensionCache::Instance().TryGet(*dim, v2, 0), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end: flows share one build through the executor.
// ---------------------------------------------------------------------------

Schema FactSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"code", DataType::kInt64, true}});
}

FlowSpec MakeLookupFlow(const std::string& id, DataStorePtr source,
                        DataStorePtr dim, DataStorePtr target) {
  FlowSpec spec;
  spec.id = id;
  spec.source = std::move(source);
  spec.transforms.push_back([dim]() -> OperatorPtr {
    return std::make_unique<LookupOp>("lkp", dim, "code", "code",
                                      std::vector<std::string>{"label"},
                                      LookupMissPolicy::kNull);
  });
  spec.target = std::move(target);
  return spec;
}

std::vector<Row> FactRows(size_t n) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row({Value::Int64(static_cast<int64_t>(i)),
                        Value::Int64(static_cast<int64_t>(i % 64))}));
  }
  return rows;
}

TEST(DimensionCacheTest, ConcurrentFlowsPerformExactlyOneBuild) {
  DimensionCache::Instance().Clear();
  auto dim = MakeDim(64);
  const Schema out_schema =
      LookupOp("lkp", dim, "code", "code", {"label"}, LookupMissPolicy::kNull)
          .Bind(FactSchema())
          .value();

  constexpr size_t kFlows = 2;
  std::vector<RunMetrics> metrics(kFlows);
  std::vector<Status> statuses(kFlows, Status::OK());
  std::vector<std::thread> threads;
  for (size_t f = 0; f < kFlows; ++f) {
    threads.emplace_back([&, f] {
      DataStorePtr source =
          testing_util::MakeSource(FactSchema(), FactRows(500));
      auto target = std::make_shared<MemTable>("dw", out_schema);
      ExecutionConfig config;
      const Result<RunMetrics> run = Executor::Run(
          MakeLookupFlow("flow" + std::to_string(f), source, dim, target),
          config);
      if (!run.ok()) {
        statuses[f] = run.status();
        return;
      }
      metrics[f] = run.value();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st;

  size_t builds = 0;
  size_t hits = 0;
  for (const RunMetrics& m : metrics) {
    builds += m.dim_cache_builds;
    hits += m.dim_cache_hits;
  }
  // Exactly one of the two concurrent flows pays the build; the other
  // shares it (either a finished entry or the in-flight single flight).
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(hits, kFlows - 1);
}

TEST(DimensionCacheTest, BudgetedFlowChargesSharedTableToItsBudget) {
  DimensionCache::Instance().Clear();
  auto dim = MakeDim(64);
  const Schema out_schema =
      LookupOp("lkp", dim, "code", "code", {"label"}, LookupMissPolicy::kNull)
          .Bind(FactSchema())
          .value();

  // First run (unbudgeted) populates the cache.
  {
    DataStorePtr source = testing_util::MakeSource(FactSchema(), FactRows(200));
    auto target = std::make_shared<MemTable>("dw", out_schema);
    ExecutionConfig config;
    const Result<RunMetrics> run = Executor::Run(
        MakeLookupFlow("warm", source, dim, target), config);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run.value().dim_cache_builds, 1u);
  }

  const DimensionTablePtr table =
      DimensionCache::Instance().TryGet(*dim, dim->ContentVersion(), 0);
  ASSERT_NE(table, nullptr);

  // Second run under a finite budget: the enforced flow reuses the shared
  // build (never building unbudgeted) and charges its bytes to the budget.
  {
    DataStorePtr source = testing_util::MakeSource(FactSchema(), FactRows(200));
    auto target = std::make_shared<MemTable>("dw", out_schema);
    ExecutionConfig config;
    config.memory_budget_bytes = 64 * 1024 * 1024;
    const Result<RunMetrics> run = Executor::Run(
        MakeLookupFlow("budgeted", source, dim, target), config);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run.value().dim_cache_builds, 0u);
    EXPECT_EQ(run.value().dim_cache_hits, 1u);
    EXPECT_GE(run.value().mem_high_water_bytes, table->ByteSize());
  }
}

}  // namespace
}  // namespace qox
