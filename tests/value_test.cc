// Tests for common/value.h and common/schema.h.
#include "common/value.h"

#include <gtest/gtest.h>

#include "common/schema.h"

namespace pacman {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, Int64RoundTrip) {
  Value v(int64_t{42});
  EXPECT_EQ(v.AsInt64(), 42);
  EXPECT_EQ(v.type(), ValueType::kInt64);
}

TEST(ValueTest, DoubleRoundTrip) {
  Value v(3.25);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.25);
}

TEST(ValueTest, StringRoundTrip) {
  Value v(std::string("hello"));
  EXPECT_EQ(v.AsString(), "hello");
}

TEST(ValueTest, IntPromotesToDoubleInArithmetic) {
  Value a(int64_t{2});
  Value b(1.5);
  EXPECT_DOUBLE_EQ(a.Add(b).AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ(a.Sub(b).AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(a.Mul(b).AsDouble(), 3.0);
}

TEST(ValueTest, IntArithmeticStaysInt) {
  Value a(int64_t{7});
  Value b(int64_t{3});
  EXPECT_EQ(a.Add(b).type(), ValueType::kInt64);
  EXPECT_EQ(a.Add(b).AsInt64(), 10);
  EXPECT_EQ(a.Sub(b).AsInt64(), 4);
  EXPECT_EQ(a.Mul(b).AsInt64(), 21);
}

TEST(ValueTest, EqualityAcrossTypes) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // Different types.
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value(std::string("a")), Value(std::string("b")));
}

TEST(ValueTest, HashStableAndDiscriminating) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(int64_t{6}).Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(5.0).Hash());
  EXPECT_EQ(Value(std::string("x")).Hash(), Value(std::string("x")).Hash());
}

TEST(ValueTest, HashesMatchGoldenValues) {
  // Pinned from an earlier build: ContentHash fingerprints compare across
  // builds, so value hashes must never drift.
  EXPECT_EQ(Value::Null().Hash(), 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(Value(int64_t{42}).Hash(), 0xd22a11e8efed3febull);
  EXPECT_EQ(Value(1.5).Hash(), 0x8969974999917623ull);
  EXPECT_EQ(Value(-0.0).Hash(), 0x8a5e64499a618af2ull);
  EXPECT_EQ(Value(std::string("ab")).Hash(), 0x02266a0001d3862cull);
  EXPECT_EQ(HashRow({Value(int64_t{42}), Value(1.5), Value(std::string("ab")),
                     Value::Null()}),
            0x9901261a5eea5a8dull);
}

TEST(ValueTest, RowHashOrderSensitive) {
  Row r1 = {Value(int64_t{1}), Value(int64_t{2})};
  Row r2 = {Value(int64_t{2}), Value(int64_t{1})};
  EXPECT_NE(HashRow(r1), HashRow(r2));
  EXPECT_EQ(HashRow(r1), HashRow({Value(int64_t{1}), Value(int64_t{2})}));
}

TEST(SchemaTest, RowByteSizeCountsFixedWidths) {
  Schema s({{"a", ValueType::kInt64, 0},
            {"b", ValueType::kDouble, 0},
            {"c", ValueType::kString, 24}});
  EXPECT_EQ(s.RowByteSize(), 8u + 8u + 24u);
  EXPECT_EQ(s.NumColumns(), 3u);
  EXPECT_EQ(s.ColumnIndex("b"), 1);
  EXPECT_EQ(s.ColumnIndex("nope"), -1);
}

TEST(SchemaTest, ValidateChecksArityAndTypes) {
  Schema s({{"a", ValueType::kInt64, 0}, {"b", ValueType::kString, 8}});
  EXPECT_TRUE(s.Validate({Value(int64_t{1}), Value(std::string("x"))}));
  EXPECT_TRUE(s.Validate({Value::Null(), Value::Null()}));  // Nulls OK.
  EXPECT_FALSE(s.Validate({Value(int64_t{1})}));            // Arity.
  EXPECT_FALSE(s.Validate({Value(1.0), Value(std::string("x"))}));
}

}  // namespace
}  // namespace pacman
