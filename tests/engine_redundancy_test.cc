// n-modular redundancy: majority voting, instance-failure tolerance, and
// output equivalence with the non-redundant run (Sec. 3.3 / Fig. 7).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/surrogate_key_op.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const DataStorePtr& source,
                  const std::shared_ptr<MemTable>& target,
                  const SurrogateKeyRegistryPtr& registry = nullptr) {
  FlowSpec spec;
  spec.id = "nmr_flow";
  spec.source = source;
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  if (registry != nullptr) {
    spec.transforms.push_back([registry]() -> OperatorPtr {
      return std::make_unique<SurrogateKeyOp>("sk", registry, "category",
                                              "category_key", true);
    });
  }
  spec.target = target;
  return spec;
}

Schema BoundSchema(bool with_sk,
                   const SurrogateKeyRegistryPtr& registry = nullptr) {
  Schema schema = SimpleSchema();
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  schema = fn.Bind(schema).value();
  if (with_sk) {
    SurrogateKeyOp sk("sk", registry, "category", "category_key", true);
    schema = sk.Bind(schema).value();
  }
  return schema;
}

/// Per-row pass-through whose Finish holds its instance until `injector`
/// has fired once (giving up after 10 s). Instances that reach it cannot
/// finish, so the voter cannot accept a majority and cancel the instance a
/// test kills, before that instance has failed.
class HoldUntilFailureOp : public Operator {
 public:
  explicit HoldUntilFailureOp(const FailureInjector* injector)
      : injector_(injector) {}
  const char* kind() const override { return "hold"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override { return input; }
  Status PushColumnar(ColumnBatch*, ColumnarPushContext*) override {
    return Status::OK();
  }
  Status Finish(RowBatch*) override {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (injector_->triggered_count() < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  }

 private:
  const FailureInjector* injector_;
  std::string name_ = "hold";
};

class RedundancyDegreeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RedundancyDegreeTest, VotedOutputEqualsSequential) {
  const size_t k = GetParam();
  const std::vector<Row> input = SimpleRows(400);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);

  auto reference = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, reference), ExecutionConfig{}).ok());

  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = k;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().redundancy, k);
  EXPECT_TRUE(SameMultiset(reference->ReadAll().value().rows(),
                           target->ReadAll().value().rows()));
}

INSTANTIATE_TEST_SUITE_P(Degrees, RedundancyDegreeTest,
                         ::testing::Values(2, 3, 4, 5));

TEST(RedundancyTest, ToleratesMinorityInstanceFailures) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(300));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  FailureInjector injector;
  // Kill instance 1 (TMR tolerates one dead instance).
  FailureSpec spec;
  spec.at_op = 0;
  spec.at_fraction = 0.3;
  spec.target_instance = 1;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  config.injector = &injector;
  // Instances 0 and 2 wait at the end of their chain for instance 1 to die.
  FlowSpec flow = MakeFlow(source, target);
  flow.transforms.push_back([&injector]() -> OperatorPtr {
    return std::make_unique<HoldUntilFailureOp>(&injector);
  });
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().failures_injected, 1u);
  // 37 of the 300 rows (ids 7, 15, ..., 295) carry NULL amounts.
  EXPECT_EQ(target->NumRows().value(), 263u);
}

TEST(RedundancyTest, MajorityLossFailsTheRun) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(100));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  FailureInjector injector;
  // Kill 2 of 3 instances: no majority of successes possible... but the
  // surviving instance still constitutes a 1-of-3 result, which is below
  // majority. The run must fail.
  for (int instance = 0; instance < 2; ++instance) {
    FailureSpec spec;
    spec.at_op = 0;
    spec.at_fraction = 0.0;
    spec.target_instance = instance;
    injector.AddFailure(spec);
  }
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  config.injector = &injector;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  EXPECT_FALSE(metrics.ok());
}

TEST(RedundancyTest, SharedSurrogateRegistryKeepsInstancesConsistent) {
  // All redundant instances assign surrogates through one registry, so
  // their outputs are identical and the vote succeeds.
  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(true, registry));
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target, registry), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(registry->size(), 3u);  // categories a, b, c
}

TEST(RedundancyTest, MetricsComeFromAcceptedInstance) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ExecutionConfig config;
  config.num_threads = 2;
  config.redundancy = 3;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().rows_extracted, 200u);
  EXPECT_GT(metrics.value().extract_micros, 0);
  EXPECT_EQ(metrics.value().rows_loaded, target->NumRows().value());
}

}  // namespace
}  // namespace qox
