// Aggregate (COUNT/SUM/AVG/MIN/MAX, GROUP BY) tests, including the
// interaction with expensive predicates: "how many tuples pass the costly
// filter per group" is the natural reporting query over this engine.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace ppp {
namespace {

using types::Tuple;
using types::TypeId;
using types::Value;

class AggregateTest : public ::testing::Test {
 protected:
  AggregateTest() : pool_(&disk_, 128), catalog_(&pool_) {
    // 100 rows: grp = i % 4, val = i.
    auto table = catalog_.CreateTable(
        "t", {{"grp", TypeId::kInt64}, {"val", TypeId::kInt64}});
    EXPECT_TRUE(table.ok());
    for (int64_t i = 0; i < 100; ++i) {
      EXPECT_TRUE((*table)->Insert(Tuple({Value(i % 4), Value(i)})).ok());
    }
    EXPECT_TRUE((*table)->Analyze().ok());
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("pricey", 10, 0.5)
            .ok());
    // A table with NULL values for null-handling tests.
    auto nullable = catalog_.CreateTable(
        "n", {{"grp", TypeId::kInt64}, {"val", TypeId::kInt64}});
    EXPECT_TRUE(nullable.ok());
    for (int64_t i = 0; i < 10; ++i) {
      std::vector<Value> values;
      values.emplace_back(i % 2);
      if (i < 4) {
        values.emplace_back();
      } else {
        values.emplace_back(i);
      }
      EXPECT_TRUE((*nullable)->Insert(Tuple(std::move(values))).ok());
    }
    EXPECT_TRUE((*nullable)->Analyze().ok());
  }

  std::vector<Tuple> Run(const std::string& sql) {
    auto spec = parser::ParseAndBind(sql, catalog_);
    EXPECT_TRUE(spec.ok()) << spec.status();
    if (!spec.ok()) return {};
    optimizer::Optimizer opt(&catalog_, {});
    auto result = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) return {};
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    for (const plan::TableRef& ref : spec->tables) {
      ctx.binding[ref.alias] = *catalog_.GetTable(ref.table_name);
    }
    auto rows = exec::ExecutePlan(*result->plan, &ctx, nullptr);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? std::move(rows).value() : std::vector<Tuple>{};
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
};

TEST_F(AggregateTest, GlobalCountStar) {
  const std::vector<Tuple> rows = Run("SELECT count(*) FROM t");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 100);
}

TEST_F(AggregateTest, GlobalSumAvgMinMax) {
  const std::vector<Tuple> rows = Run(
      "SELECT sum(t.val), avg(t.val), min(t.val), max(t.val) FROM t");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].Get(0).AsDouble(), 4950);
  EXPECT_DOUBLE_EQ(rows[0].Get(1).AsDouble(), 49.5);
  EXPECT_EQ(rows[0].Get(2).AsInt64(), 0);
  EXPECT_EQ(rows[0].Get(3).AsInt64(), 99);
}

TEST_F(AggregateTest, GroupByCounts) {
  const std::vector<Tuple> rows =
      Run("SELECT t.grp, count(*) FROM t GROUP BY t.grp");
  ASSERT_EQ(rows.size(), 4u);
  for (const Tuple& row : rows) {
    EXPECT_EQ(row.Get(1).AsInt64(), 25);
  }
}

TEST_F(AggregateTest, GroupBySums) {
  const std::vector<Tuple> rows =
      Run("SELECT t.grp, sum(t.val) FROM t GROUP BY t.grp ");
  ASSERT_EQ(rows.size(), 4u);
  double total = 0;
  for (const Tuple& row : rows) total += row.Get(1).AsDouble();
  EXPECT_DOUBLE_EQ(total, 4950);
}

TEST_F(AggregateTest, WhereAppliesBeforeAggregation) {
  const std::vector<Tuple> rows =
      Run("SELECT count(*) FROM t WHERE t.val < 10");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 10);
}

TEST_F(AggregateTest, ExpensivePredicateUnderAggregate) {
  const std::vector<Tuple> rows =
      Run("SELECT t.grp, count(*) FROM t WHERE pricey(t.val) GROUP BY "
          "t.grp");
  // pricey has true selectivity ~0.5: counts must sum to the number of
  // passing rows, and every group row must be 0 < n <= 25.
  int64_t total = 0;
  for (const Tuple& row : rows) {
    EXPECT_LE(row.Get(1).AsInt64(), 25);
    total += row.Get(1).AsInt64();
  }
  EXPECT_GT(total, 20);
  EXPECT_LT(total, 80);
}

TEST_F(AggregateTest, CountExprSkipsNulls) {
  const std::vector<Tuple> rows =
      Run("SELECT count(n.val), count(*) FROM n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 6);   // 4 NULLs skipped.
  EXPECT_EQ(rows[0].Get(1).AsInt64(), 10);  // COUNT(*) counts rows.
}

TEST_F(AggregateTest, MinMaxIgnoreNulls) {
  const std::vector<Tuple> rows =
      Run("SELECT min(n.val), max(n.val) FROM n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 4);
  EXPECT_EQ(rows[0].Get(1).AsInt64(), 9);
}

TEST_F(AggregateTest, EmptyInputGlobalAggregate) {
  const std::vector<Tuple> rows =
      Run("SELECT count(*), sum(t.val) FROM t WHERE t.val < 0");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 0);
  EXPECT_TRUE(rows[0].Get(1).is_null());  // SUM of nothing is NULL.
}

TEST_F(AggregateTest, EmptyInputGroupedAggregateHasNoRows) {
  const std::vector<Tuple> rows = Run(
      "SELECT t.grp, count(*) FROM t WHERE t.val < 0 GROUP BY t.grp");
  EXPECT_TRUE(rows.empty());
}

TEST_F(AggregateTest, AggregateOverJoin) {
  const std::vector<Tuple> rows = Run(
      "SELECT a.grp, count(*) FROM t a, t b WHERE a.val = b.val "
      "GROUP BY a.grp");
  ASSERT_EQ(rows.size(), 4u);
  for (const Tuple& row : rows) {
    EXPECT_EQ(row.Get(1).AsInt64(), 25);  // Self-join on unique val.
  }
}

TEST_F(AggregateTest, SelectItemNotInGroupByFails) {
  auto spec = parser::ParseAndBind(
      "SELECT t.val, count(*) FROM t GROUP BY t.grp", catalog_);
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&catalog_, {});
  EXPECT_FALSE(opt.Optimize(*spec, optimizer::Algorithm::kPushDown).ok());
}

TEST_F(AggregateTest, AggregateInWhereRejected) {
  EXPECT_FALSE(parser::ParseAndBind(
                   "SELECT count(*) FROM t WHERE sum(t.val) > 10", catalog_)
                   .ok());
}

TEST_F(AggregateTest, SelectStarWithGroupByRejected) {
  auto spec =
      parser::ParseAndBind("SELECT * FROM t GROUP BY t.grp", catalog_);
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&catalog_, {});
  EXPECT_FALSE(opt.Optimize(*spec, optimizer::Algorithm::kPushDown).ok());
}

TEST_F(AggregateTest, CaseInsensitiveAggregateNames) {
  const std::vector<Tuple> rows = Run("SELECT COUNT(*), SUM(t.val) FROM t");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 100);
}


TEST_F(AggregateTest, HavingFiltersGroups) {
  const std::vector<Tuple> rows = Run(
      "SELECT t.grp, count(*) FROM t WHERE t.val < 42 GROUP BY t.grp "
      "HAVING count(*) > 10");
  // vals 0..41: groups 0,1 have 11 members; groups 2,3 have 10.
  ASSERT_EQ(rows.size(), 2u);
  for (const Tuple& row : rows) {
    EXPECT_EQ(row.Get(1).AsInt64(), 11);
  }
}

TEST_F(AggregateTest, HavingWithHiddenAggregate) {
  // The HAVING aggregate (sum) is not in the select list.
  const std::vector<Tuple> rows = Run(
      "SELECT t.grp FROM t GROUP BY t.grp HAVING sum(t.val) > 1237");
  // Per-group sums: grp g has sum 25*g + 4*(0+4+...+96)=1200+25g.
  // Sums: 1200, 1225, 1250, 1275 -> groups 2 and 3 pass.
  ASSERT_EQ(rows.size(), 2u);
}

TEST_F(AggregateTest, HavingWithoutGroupingRejected) {
  auto spec = parser::ParseAndBind(
      "SELECT t.val FROM t HAVING t.val > 1", catalog_);
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&catalog_, {});
  EXPECT_FALSE(opt.Optimize(*spec, optimizer::Algorithm::kPushDown).ok());
}

TEST_F(AggregateTest, DistinctDeduplicates) {
  const std::vector<Tuple> rows = Run("SELECT DISTINCT t.grp FROM t");
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(AggregateTest, DistinctOnMultipleColumns) {
  const std::vector<Tuple> rows =
      Run("SELECT DISTINCT t.grp, t.val FROM t WHERE t.val < 8");
  EXPECT_EQ(rows.size(), 8u);  // val unique: no dedup effect.
}

TEST_F(AggregateTest, DistinctStarRejected) {
  auto spec = parser::ParseAndBind("SELECT DISTINCT * FROM t", catalog_);
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&catalog_, {});
  EXPECT_FALSE(opt.Optimize(*spec, optimizer::Algorithm::kPushDown).ok());
}

}  // namespace
}  // namespace ppp
