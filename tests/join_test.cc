// Merge and hash joins over column batches: the ColumnBatch cell helpers
// they key on (comparison, hash and joined-row construction pinned to the
// Value/Tuple semantics), MergeJoin and HashJoin output pinned row for row,
// in order, to a test-local oracle across key types x batch sizes x
// vectorized x child kinds, the Bloom-transfer probe counters of
// HashJoin(bloom), and the page reads a merge join of two scans charges
// on a 3-frame buffer pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/bloom_filter.h"
#include "exec/executor.h"
#include "expr/predicate.h"
#include "plan/plan_node.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "types/column_batch.h"

namespace ppp {
namespace {

using exec::ExecParams;
using exec::ExecStats;
using expr::Cmp;
using expr::Col;
using expr::CompareOp;
using expr::Eq;
using expr::Int;
using types::ColumnBatch;
using types::ColumnInfo;
using types::RowSchema;
using types::Tuple;
using types::TypeId;
using types::Value;

int Sign(int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

// ---------------------------------------------------------------------------
// ColumnBatch cell helpers.
// ---------------------------------------------------------------------------

/// Rows covering every type, NULLs, int/double/bool cross-type equality
/// (2 == 2.0, true == 1) and, in column `m`, a boxed column (declared
/// INT64, some rows strings or doubles).
std::vector<Tuple> CellRows() {
  return {
      Tuple({Value(int64_t{2}), Value(2.0), Value("b"), Value(true),
             Value(int64_t{1})}),
      Tuple({Value(), Value(), Value(), Value(), Value()}),
      Tuple({Value(int64_t{-3}), Value(-2.5), Value(""), Value(false),
             Value("1")}),
      Tuple({Value(int64_t{1}), Value(1.0), Value("ab"), Value(true),
             Value(2.0)}),
      Tuple({Value(int64_t{0}), Value(0.5), Value(std::string(40, 'z')),
             Value(false), Value()}),
  };
}

RowSchema CellSchema() {
  return RowSchema({ColumnInfo{"t", "i", TypeId::kInt64},
                    ColumnInfo{"t", "d", TypeId::kDouble},
                    ColumnInfo{"t", "s", TypeId::kString},
                    ColumnInfo{"t", "b", TypeId::kBool},
                    ColumnInfo{"t", "m", TypeId::kInt64}});
}

TEST(ColumnBatchCellTest, CompareHashAndConcatMatchValueSemantics) {
  const std::vector<Tuple> rows = CellRows();
  ColumnBatch batch(CellSchema());
  for (const Tuple& row : rows) batch.AppendTuple(row);
  ASSERT_TRUE(batch.column(4).boxed);
  ASSERT_FALSE(batch.column(0).boxed);
  const size_t cols = batch.num_columns();
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const Value& v = rows[r].Get(c);
      EXPECT_EQ(batch.HashCell(c, r), static_cast<uint64_t>(v.Hash()))
          << "row " << r << " col " << c;
      for (size_t r2 = 0; r2 < rows.size(); ++r2) {
        for (size_t c2 = 0; c2 < cols; ++c2) {
          const Value& w = rows[r2].Get(c2);
          EXPECT_EQ(Sign(batch.CompareCells(c, r, batch, c2, r2)),
                    v.Compare(w))
              << v.ToString() << " vs " << w.ToString();
          EXPECT_EQ(Sign(batch.CompareCell(c, r, w)), v.Compare(w))
              << v.ToString() << " vs " << w.ToString();
        }
      }
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t r2 = 0; r2 < rows.size(); ++r2) {
      const std::string expected =
          Tuple::Concat(rows[r], rows[r2]).Serialize();
      EXPECT_EQ(batch.ConcatRow(batch, r, r2).Serialize(), expected);
      EXPECT_EQ(batch.ConcatRow(rows[r], r2).Serialize(), expected);
      Tuple prefix = rows[r];
      EXPECT_EQ(batch.ConcatRow(std::move(prefix), r2).Serialize(),
                expected);
    }
  }
}

// ---------------------------------------------------------------------------
// MergeJoin / HashJoin parity.
// ---------------------------------------------------------------------------

/// Two tables, o (60 rows) and i (45 rows), whose key columns cover int64,
/// double and string keys with NULLs and duplicate groups, an int64 column
/// joined against a double one, and a boxed column (declared INT64, every
/// fifth row a string). `id` ascends in insertion order, and `n` feeds a
/// cheap filter.
class JoinParityTest : public ::testing::Test {
 protected:
  enum class Child { kScan, kFilter, kRowOnly };

  JoinParityTest() : pool_(&disk_, 64), catalog_(&pool_) {
    const std::vector<catalog::ColumnDef> columns = {
        {"id", TypeId::kInt64},  {"ki", TypeId::kInt64},
        {"kd", TypeId::kDouble}, {"ks", TypeId::kString},
        {"kb", TypeId::kInt64},  {"kx", TypeId::kDouble},
        {"n", TypeId::kInt64}};
    const char* strings[] = {"a", "ab", "b", "", "ba"};
    auto load = [&](const std::string& name, int64_t rows, int64_t salt,
                    std::vector<Tuple>* out) {
      auto table = catalog_.CreateTable(name, columns);
      ASSERT_TRUE(table.ok());
      for (int64_t k = 0; k < rows; ++k) {
        const int64_t h = k + salt;
        std::vector<Value> values;
        values.emplace_back(k);
        if (h % 7 == 0) {
          values.emplace_back();
        } else {
          values.emplace_back((h * 5) % 9);
        }
        if (h % 6 == 0) {
          values.emplace_back();
        } else {
          values.emplace_back(0.5 * static_cast<double>((h * 3) % 7));
        }
        if (h % 8 == 0) {
          values.emplace_back();
        } else {
          values.emplace_back(strings[(h * 7) % 5]);
        }
        if (h % 11 == 0) {
          values.emplace_back();
        } else if (h % 5 == 0) {
          values.emplace_back(h % 2 == 0 ? "s0" : "s1");
        } else {
          values.emplace_back(h % 4);
        }
        if (h % 9 == 0) {
          values.emplace_back();
        } else if (h % 3 == 0) {
          values.emplace_back(1.5);
        } else {
          values.emplace_back(static_cast<double>((h * 2) % 9));
        }
        values.emplace_back(h % 10);
        out->emplace_back(std::move(values));
        ASSERT_TRUE((*table)->Insert(out->back()).ok());
      }
    };
    load("o", 60, 0, &outer_rows_);
    load("i", 45, 3, &inner_rows_);
    binding_ = {{"o", *catalog_.GetTable("o")},
                {"i", *catalog_.GetTable("i")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  }

  expr::PredicateInfo Analyze(const expr::ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  static size_t ColumnIndex(const std::string& column) {
    const char* names[] = {"id", "ki", "kd", "ks", "kb", "kx", "n"};
    for (size_t i = 0; i < 7; ++i) {
      if (column == names[i]) return i;
    }
    ADD_FAILURE() << "no column " << column;
    return 0;
  }

  /// The plan of `kind` over table `alias`, and the rows it yields in order.
  plan::PlanPtr ChildPlan(const std::string& alias, Child kind) {
    switch (kind) {
      case Child::kScan:
        return plan::MakeSeqScan(alias, alias);
      case Child::kFilter:
        // Vectorized (a compiled kernel) when the run turns vectorized on.
        return plan::MakeFilter(
            plan::MakeSeqScan(alias, alias),
            Analyze(Cmp(CompareOp::kLt, Col(alias, "n"), Int(7))));
      case Child::kRowOnly:
        // Sort has no columnar fill: the join pulls it through the default
        // row-to-column adapter. Sorting on `id` keeps insertion order.
        return plan::MakeSort(plan::MakeSeqScan(alias, alias), alias + ".id");
    }
    return nullptr;
  }
  static std::vector<Tuple> ChildRows(const std::vector<Tuple>& rows,
                                      Child kind) {
    std::vector<Tuple> out;
    for (const Tuple& row : rows) {
      if (kind != Child::kFilter || row.Get(6).AsInt64() < 7) {
        out.push_back(row);
      }
    }
    return out;
  }

  /// Merge-join oracle: each side without its NULL keys, stable-sorted by
  /// key; then every outer row, in order, joined with its equal-key inner
  /// group, in order.
  static std::vector<std::string> MergeOracle(std::vector<Tuple> outer,
                                              size_t ok,
                                              std::vector<Tuple> inner,
                                              size_t ik) {
    auto sort_side = [](std::vector<Tuple>* rows, size_t key) {
      rows->erase(std::remove_if(rows->begin(), rows->end(),
                                 [key](const Tuple& t) {
                                   return t.Get(key).is_null();
                                 }),
                  rows->end());
      std::stable_sort(rows->begin(), rows->end(),
                       [key](const Tuple& a, const Tuple& b) {
                         return a.Get(key).Compare(b.Get(key)) < 0;
                       });
    };
    sort_side(&outer, ok);
    sort_side(&inner, ik);
    return GroupProduct(outer, ok, inner, ik);
  }

  /// Hash-join oracle: outer rows in input order, each joined with its
  /// equal-key inner rows in input order.
  static std::vector<std::string> HashOracle(const std::vector<Tuple>& outer,
                                             size_t ok,
                                             const std::vector<Tuple>& inner,
                                             size_t ik) {
    return GroupProduct(outer, ok, inner, ik);
  }

  static std::vector<std::string> GroupProduct(
      const std::vector<Tuple>& outer, size_t ok,
      const std::vector<Tuple>& inner, size_t ik) {
    // Inner rows grouped by key (Value::Compare equality), in order.
    std::map<Value, std::vector<const Tuple*>> groups;
    for (const Tuple& i : inner) {
      if (!i.Get(ik).is_null()) groups[i.Get(ik)].push_back(&i);
    }
    std::vector<std::string> out;
    for (const Tuple& o : outer) {
      if (o.Get(ok).is_null()) continue;
      const auto it = groups.find(o.Get(ok));
      if (it == groups.end()) continue;
      for (const Tuple* i : it->second) {
        out.push_back(Tuple::Concat(o, *i).Serialize());
      }
    }
    return out;
  }

  /// Serialized output rows, in order.
  std::vector<std::string> Run(const plan::PlanNode& plan,
                               const ExecParams& params,
                               std::unique_ptr<exec::Operator>* root =
                                   nullptr) {
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.binding = binding_;
    ctx.params = params;
    ExecStats stats;
    auto rows = exec::ExecutePlan(plan, &ctx, &stats, nullptr, root);
    EXPECT_TRUE(rows.ok()) << rows.status();
    std::vector<std::string> out;
    if (rows.ok()) {
      for (const Tuple& t : *rows) out.push_back(t.Serialize());
    }
    return out;
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
  expr::TableBinding binding_;
  std::unique_ptr<expr::PredicateAnalyzer> analyzer_;
  std::vector<Tuple> outer_rows_;
  std::vector<Tuple> inner_rows_;
};

TEST_F(JoinParityTest, MergeAndHashRowsMatchOracleInOrder) {
  struct KeyCase {
    const char* name;
    const char* outer_column;
    const char* inner_column;
  };
  const KeyCase cases[] = {{"int64", "ki", "ki"},
                           {"double", "kd", "kd"},
                           {"string", "ks", "ks"},
                           {"int-vs-double", "ki", "kx"},
                           {"boxed", "kb", "kb"}};
  for (const KeyCase& key : cases) {
    const size_t ok = ColumnIndex(key.outer_column);
    const size_t ik = ColumnIndex(key.inner_column);
    const expr::PredicateInfo pred =
        Analyze(Eq(Col("o", key.outer_column), Col("i", key.inner_column)));
    for (const Child kind : {Child::kScan, Child::kFilter, Child::kRowOnly}) {
      const std::vector<Tuple> outer = ChildRows(outer_rows_, kind);
      const std::vector<Tuple> inner = ChildRows(inner_rows_, kind);
      const std::vector<std::string> merge_expected =
          MergeOracle(outer, ok, inner, ik);
      const std::vector<std::string> hash_expected =
          HashOracle(outer, ok, inner, ik);
      // Duplicate keys on both sides: some outer row has several partners.
      ASSERT_GT(merge_expected.size(), outer.size() / 2) << key.name;
      ASSERT_NE(merge_expected, hash_expected) << key.name;
      for (const bool vectorized : {false, true}) {
        for (const size_t batch_size :
             {size_t{1}, size_t{7}, size_t{1024}}) {
          SCOPED_TRACE(std::string("key=") + key.name +
                       " child=" + std::to_string(static_cast<int>(kind)) +
                       " vectorized=" + std::to_string(vectorized) +
                       " batch=" + std::to_string(batch_size));
          ExecParams params;
          params.vectorized = vectorized;
          params.batch_size = batch_size;
          const plan::PlanPtr merge =
              plan::MakeJoin(plan::JoinMethod::kMerge, ChildPlan("o", kind),
                             ChildPlan("i", kind), pred);
          EXPECT_EQ(Run(*merge, params), merge_expected);
          const plan::PlanPtr hash =
              plan::MakeJoin(plan::JoinMethod::kHash, ChildPlan("o", kind),
                             ChildPlan("i", kind), pred);
          EXPECT_EQ(Run(*hash, params), hash_expected);
        }
      }
    }
  }
}

/// HashJoin(bloom): the build hashes key cells, the outer scan probes with
/// Value hashes. The probe counters must equal a replay against a filter
/// built the row way (Value::Hash of each distinct build key): the outer
/// scan probes once per row until the kill switch fires, and a row that
/// passes but finds no partner is a join miss while the filter is live.
/// Table p (20000 rows) probes q (2048 rows, each key twice, so the filter
/// is sized by distinct keys, not rows): on `k` mostly absent keys (so the
/// filter stays live and lets a few false positives through), on `a` keys
/// that all pass (so a low probe floor kills the filter).
TEST_F(JoinParityTest, BloomHashJoinKeepsProbeCounts) {
  std::vector<Tuple> p_rows;
  std::vector<Tuple> q_rows;
  auto load = [&](const std::string& name, int64_t rows, int64_t k_step,
                  int64_t copies, std::vector<Tuple>* out) {
    auto table = catalog_.CreateTable(
        name, {{"k", TypeId::kInt64}, {"a", TypeId::kInt64}});
    ASSERT_TRUE(table.ok());
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t key = r / copies;
      std::vector<Value> values;
      if (r % 13 == 0) {
        values.emplace_back();
      } else {
        values.emplace_back(key * k_step % 100000);
      }
      values.emplace_back(key % 1024);
      out->emplace_back(std::move(values));
      ASSERT_TRUE((*table)->Insert(out->back()).ok());
    }
    binding_[name] = *table;
  };
  load("p", 20000, 7, 1, &p_rows);
  load("q", 2048, 31, 2, &q_rows);
  analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);

  bool saw_kill = false;
  bool saw_miss = false;
  for (const size_t key : {size_t{0}, size_t{1}}) {
    const std::string column = key == 0 ? "k" : "a";
    std::set<Value> build_keys;
    for (const Tuple& row : q_rows) {
      if (!row.Get(key).is_null()) build_keys.insert(row.Get(key));
    }
    exec::BloomFilter filter(build_keys.size());
    for (const Value& v : build_keys) {
      filter.InsertHash(static_cast<uint64_t>(v.Hash()));
    }
    for (const uint64_t min_probes : {uint64_t{512}, uint64_t{8}}) {
      uint64_t probed = 0;
      uint64_t passed = 0;
      uint64_t misses = 0;
      bool killed = false;
      for (const Tuple& row : p_rows) {
        if (killed) break;
        const Value& v = row.Get(key);
        const bool pass =
            filter.MightContainHash(static_cast<uint64_t>(v.Hash()));
        ++probed;
        if (pass) ++passed;
        killed = probed >= min_probes &&
                 static_cast<double>(passed) / static_cast<double>(probed) >
                     exec::kTransferKillPassRate;
        if (pass && !killed && !v.is_null() && build_keys.count(v) == 0) {
          ++misses;
        }
      }
      saw_kill = saw_kill || killed;
      saw_miss = saw_miss || misses > 0;
      const uint64_t negatives = probed - passed + misses;
      const double fpr =
          negatives == 0 ? -1.0
                         : static_cast<double>(misses) /
                               static_cast<double>(negatives);
      const expr::PredicateInfo pred =
          Analyze(Eq(Col("p", column), Col("q", column)));
      const std::vector<std::string> expected =
          HashOracle(p_rows, key, q_rows, key);
      for (const bool vectorized : {false, true}) {
        for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
          SCOPED_TRACE("key=" + column +
                       " min_probes=" + std::to_string(min_probes) +
                       " vectorized=" + std::to_string(vectorized) +
                       " batch=" + std::to_string(batch_size));
          ExecParams params;
          params.predicate_transfer = true;
          params.transfer_min_probes = min_probes;
          params.vectorized = vectorized;
          params.batch_size = batch_size;
          const plan::PlanPtr plan = plan::MakeJoin(
              plan::JoinMethod::kHash, plan::MakeSeqScan("p", "p"),
              plan::MakeSeqScan("q", "q"), pred);
          std::unique_ptr<exec::Operator> root;
          EXPECT_EQ(Run(*plan, params, &root), expected);
          ASSERT_NE(root, nullptr);
          ASSERT_EQ(root->Describe(), "HashJoin(bloom)");
          const exec::OperatorStats& scan = root->Children()[0]->stats();
          ASSERT_TRUE(scan.has_transfer);
          EXPECT_EQ(scan.transfer_probed, probed);
          EXPECT_EQ(scan.transfer_passed, passed);
          EXPECT_EQ(scan.transfer_killed, killed);
          EXPECT_DOUBLE_EQ(scan.transfer_fpr, fpr);
        }
      }
    }
  }
  // The replays cover a live filter with join misses and a killed one.
  EXPECT_TRUE(saw_kill);
  EXPECT_TRUE(saw_miss);
}

// ---------------------------------------------------------------------------
// I/O parity on a tiny pool.
// ---------------------------------------------------------------------------

/// A merge join drains both scans as column batches it keeps, but it keeps
/// no page pinned: on a 3-frame pool it reads every page of both tables
/// exactly once, sequentially except for the first page of the outer
/// (the inner's pages were allocated right after the outer's), and writes
/// nothing.
TEST(JoinIoParityTest, MergeJoinOfTwoScansReadsEachPageOnce) {
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 3);
  catalog::Catalog catalog(&pool);
  auto load = [&](const std::string& name, int64_t rows) {
    auto table = catalog.CreateTable(
        name, {{"k", TypeId::kInt64}, {"pad", TypeId::kString}});
    EXPECT_TRUE(table.ok());
    for (int64_t r = 0; r < rows; ++r) {
      EXPECT_TRUE((*table)
                      ->Insert(Tuple({Value(r % 37),
                                      Value(std::string(60, 'p'))}))
                      .ok());
    }
    return *table;
  };
  const catalog::Table* a = load("a", 900);
  const catalog::Table* b = load("b", 700);
  const uint64_t pages =
      static_cast<uint64_t>(a->NumPages() + b->NumPages());
  ASSERT_GT(a->NumPages(), 3);
  ASSERT_GT(b->NumPages(), 3);
  expr::TableBinding binding = {{"a", *catalog.GetTable("a")},
                                {"b", *catalog.GetTable("b")}};
  expr::PredicateAnalyzer analyzer(&catalog, binding);
  auto pred = analyzer.Analyze(Eq(Col("a", "k"), Col("b", "k")));
  ASSERT_TRUE(pred.ok());
  // Key r % 37 over 900 and 700 rows: count(a, k) * count(b, k) pairs.
  uint64_t expected_rows = 0;
  for (int64_t k = 0; k < 37; ++k) {
    expected_rows += static_cast<uint64_t>((900 - k + 36) / 37) *
                     static_cast<uint64_t>((700 - k + 36) / 37);
  }
  const plan::PlanPtr plan =
      plan::MakeJoin(plan::JoinMethod::kMerge, plan::MakeSeqScan("a", "a"),
                     plan::MakeSeqScan("b", "b"), *pred);
  for (const bool vectorized : {false, true}) {
    for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      SCOPED_TRACE("vectorized=" + std::to_string(vectorized) +
                   " batch=" + std::to_string(batch_size));
      pool.EvictAll();
      exec::ExecContext ctx;
      ctx.catalog = &catalog;
      ctx.binding = binding;
      ctx.params.vectorized = vectorized;
      ctx.params.batch_size = batch_size;
      ExecStats stats;
      auto rows = exec::ExecutePlan(*plan, &ctx, &stats);
      ASSERT_TRUE(rows.ok()) << rows.status();
      EXPECT_EQ(rows->size(), expected_rows);
      EXPECT_EQ(stats.io.sequential_reads + stats.io.random_reads, pages);
      EXPECT_EQ(stats.io.sequential_reads, pages - 1);
      EXPECT_EQ(stats.io.writes, 0u);
    }
  }
}

}  // namespace
}  // namespace ppp
