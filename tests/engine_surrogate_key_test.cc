#include "engine/ops/surrogate_key_op.h"

#include <gtest/gtest.h>

#include <thread>

#include "test_util.h"

namespace qox {
namespace {

using testing_util::RunOperator;
using testing_util::SimpleRow;
using testing_util::SimpleSchema;

TEST(SurrogateKeyRegistryTest, AssignsDenseKeys) {
  SurrogateKeyRegistry registry(1);
  EXPECT_EQ(registry.GetOrAssign(Value::String("a")), 1);
  EXPECT_EQ(registry.GetOrAssign(Value::String("b")), 2);
  EXPECT_EQ(registry.GetOrAssign(Value::String("a")), 1);  // stable
  EXPECT_EQ(registry.size(), 2u);
}

TEST(SurrogateKeyRegistryTest, NullMapsToZero) {
  SurrogateKeyRegistry registry(1);
  EXPECT_EQ(registry.GetOrAssign(Value::Null()), 0);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(SurrogateKeyRegistryTest, GetWithoutAssign) {
  SurrogateKeyRegistry registry(1);
  EXPECT_FALSE(registry.Get(Value::String("x")).ok());
  registry.GetOrAssign(Value::String("x"));
  EXPECT_EQ(registry.Get(Value::String("x")).value(), 1);
  EXPECT_EQ(registry.Get(Value::Null()).value(), 0);
}

// Int64 and timestamp naturals form one equality group: the same payload is
// one natural key whichever type and entry point (boxed or unboxed batch)
// first saw it, and the registry stores it once.
TEST(SurrogateKeyRegistryTest, Int64AndTimestampShareOneSurrogate) {
  SurrogateKeyRegistry registry(1);
  EXPECT_EQ(registry.GetOrAssign(Value::Timestamp(42)), 1);
  EXPECT_EQ(registry.GetOrAssign(Value::Int64(42)), 1);
  std::vector<int64_t> out;
  const int64_t raw[] = {42, 43};
  registry.GetOrAssignI64Batch(raw, nullptr, 2, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2}));
  registry.GetOrAssignBatch({Value::Timestamp(43), Value::Int64(42),
                             Value::String("42"), Value::Double(42.0)},
                            &out);
  // A string and a double never equal an int64 natural.
  EXPECT_EQ(out, (std::vector<int64_t>{2, 1, 3, 4}));
  EXPECT_EQ(registry.Get(Value::Timestamp(42)).value(), 1);
  EXPECT_EQ(registry.Get(Value::Int64(43)).value(), 2);
  EXPECT_EQ(registry.Get(Value::String("42")).value(), 3);
  EXPECT_EQ(registry.size(), 4u);

  // Unboxed first, boxed second: the other direction agrees too.
  SurrogateKeyRegistry reverse(10);
  const int64_t seven = 7;
  reverse.GetOrAssignI64Batch(&seven, nullptr, 1, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{10}));
  EXPECT_EQ(reverse.GetOrAssign(Value::Timestamp(7)), 10);
  EXPECT_EQ(reverse.size(), 1u);
}

TEST(SurrogateKeyRegistryTest, ConcurrentAssignIsConsistent) {
  SurrogateKeyRegistry registry(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 500; ++i) {
        registry.GetOrAssign(Value::Int64(i % 100));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.size(), 100u);
  // All keys in [1, 100], unique.
  std::vector<bool> seen(101, false);
  for (int i = 0; i < 100; ++i) {
    const int64_t key = registry.Get(Value::Int64(i)).value();
    ASSERT_GE(key, 1);
    ASSERT_LE(key, 100);
    EXPECT_FALSE(seen[static_cast<size_t>(key)]);
    seen[static_cast<size_t>(key)] = true;
  }
}

TEST(SurrogateKeyOpTest, ReplacesNaturalKey) {
  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  SurrogateKeyOp op("sk", registry, "category", "category_key", true);
  const Result<Schema> bound = op.Bind(SimpleSchema());
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(bound.value().HasField("category"));
  EXPECT_TRUE(bound.value().HasField("category_key"));
  const Result<std::vector<Row>> out = RunOperator(
      &op, SimpleSchema(),
      {SimpleRow(1, "x", 1.0), SimpleRow(2, "y", 2.0), SimpleRow(3, "x", 3.0)});
  ASSERT_TRUE(out.ok());
  const size_t key_index = bound.value().FieldIndex("category_key").value();
  EXPECT_EQ(out.value()[0].value(key_index).int64_value(), 1);
  EXPECT_EQ(out.value()[1].value(key_index).int64_value(), 2);
  EXPECT_EQ(out.value()[2].value(key_index).int64_value(), 1);
  EXPECT_EQ(out.value()[0].num_values(), SimpleSchema().num_fields());
}

TEST(SurrogateKeyOpTest, KeepNaturalWhenRequested) {
  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  SurrogateKeyOp op("sk", registry, "category", "category_key", false);
  const Result<Schema> bound = op.Bind(SimpleSchema());
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound.value().HasField("category"));
  EXPECT_TRUE(bound.value().HasField("category_key"));
}

TEST(SurrogateKeyOpTest, SharedRegistryAcrossOpsAgrees) {
  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  SurrogateKeyOp op1("sk1", registry, "category", "ck", true);
  SurrogateKeyOp op2("sk2", registry, "category", "ck", true);
  const Result<std::vector<Row>> out1 =
      RunOperator(&op1, SimpleSchema(), {SimpleRow(1, "shared", 1.0)});
  const Result<std::vector<Row>> out2 =
      RunOperator(&op2, SimpleSchema(), {SimpleRow(2, "shared", 2.0)});
  ASSERT_TRUE(out1.ok());
  ASSERT_TRUE(out2.ok());
  const size_t key_index = 3;  // after category dropped, appended key slot
  EXPECT_EQ(out1.value()[0].value(key_index).int64_value(),
            out2.value()[0].value(key_index).int64_value());
}

TEST(SurrogateKeyOpTest, NullNaturalGetsUnknownKey) {
  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  SurrogateKeyOp op("sk", registry, "category", "ck", true);
  std::vector<Row> rows;
  rows.push_back(Row({Value::Int64(1), Value::Null(), Value::Double(1),
                      Value::String("n")}));
  const Result<std::vector<Row>> out =
      RunOperator(&op, SimpleSchema(), rows);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0].value(3).int64_value(), 0);
}

TEST(SurrogateKeyOpTest, BindValidates) {
  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  SurrogateKeyOp missing("sk", registry, "missing", "k", true);
  EXPECT_FALSE(missing.Bind(SimpleSchema()).ok());
  SurrogateKeyOp no_registry("sk", nullptr, "category", "k", true);
  EXPECT_FALSE(no_registry.Bind(SimpleSchema()).ok());
}

}  // namespace
}  // namespace qox
