// Serving-layer checks: the statistics-keyed plan cache (hit/miss,
// ANALYZE invalidation, snapshot-identity keying, byte-bounded LRU), SQL
// normalization, the cross-query shared predicate-cache registry, and —
// the load-bearing one — concurrent sessions producing byte-identical
// results with exact engine-wide UDF invocation parity against the
// plan-cache-off baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/shared_caches.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "parser/normalize.h"
#include "serve/plan_cache.h"
#include "serve/session.h"
#include "stats/collector.h"
#include "subquery/rewrite.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() {
    config_.scale = 150;
    config_.table_numbers = {1, 3, 6, 7, 9, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  std::vector<std::string> QueryTexts() {
    std::vector<std::string> sql;
    for (const workload::BenchmarkQuery& q :
         workload::BenchmarkQueries(config_)) {
      sql.push_back(q.sql);
    }
    return sql;
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

// --------------------------------------------------------------------------
// Normalization

TEST(NormalizeTest, WhitespaceAndKeywordCaseDoNotChangeIdentity) {
  auto a = parser::NormalizeSql("SELECT t3.a FROM t3 WHERE t3.a > 5;");
  auto b = parser::NormalizeSql("select   t3.a\nfrom t3   where t3.a>5");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->text, b->text);
  EXPECT_EQ(a->text_hash, b->text_hash);
  EXPECT_EQ(a->family_hash, b->family_hash);
}

TEST(NormalizeTest, LiteralsChangeTextHashButNotFamily) {
  auto a = parser::NormalizeSql("SELECT t3.a FROM t3 WHERE t3.a > 5");
  auto b = parser::NormalizeSql("SELECT t3.a FROM t3 WHERE t3.a > 7");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // A plan embeds its constants, so the cache key must distinguish them…
  EXPECT_NE(a->text_hash, b->text_hash);
  // …while the $n-slotted family groups them for observability.
  EXPECT_EQ(a->family_hash, b->family_hash);
  ASSERT_EQ(a->params.size(), 1u);
  ASSERT_EQ(b->params.size(), 1u);
  EXPECT_EQ(a->params[0], "5");
  EXPECT_EQ(b->params[0], "7");
}

TEST(NormalizeTest, IdentifierCaseIsPreserved) {
  auto a = parser::NormalizeSql("SELECT T3.a FROM t3");
  auto b = parser::NormalizeSql("SELECT t3.a FROM t3");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->text_hash, b->text_hash);
}

// --------------------------------------------------------------------------
// PlacementParamsHash

TEST(PlanCacheKeyTest, PlacementKnobsChangeParamsHash) {
  const cost::CostParams base;
  const uint64_t h = serve::PlacementParamsHash(base, "migration");
  EXPECT_NE(h, serve::PlacementParamsHash(base, "pushdown"));
  EXPECT_EQ(h, serve::PlacementParamsHash(base, "migration"));
  // Every settable CostParams field keys the slot.
  const std::vector<std::pair<const char*, void (*)(cost::CostParams*)>>
      flips = {
          {"predicate_caching",
           [](cost::CostParams* p) { p->predicate_caching = false; }},
          {"parallel_workers",
           [](cost::CostParams* p) { p->parallel_workers = 4; }},
          {"vectorized", [](cost::CostParams* p) { p->vectorized = false; }},
          {"predicate_transfer",
           [](cost::CostParams* p) { p->predicate_transfer = true; }},
          {"buffer_pages", [](cost::CostParams* p) { p->buffer_pages = 64; }},
          {"sort_fanout", [](cost::CostParams* p) { p->sort_fanout = 4; }},
          {"per_input_selectivity",
           [](cost::CostParams* p) { p->per_input_selectivity = false; }},
          {"current_cardinality_estimate",
           [](cost::CostParams* p) {
             p->current_cardinality_estimate = false;
           }},
          {"use_feedback", [](cost::CostParams* p) { p->use_feedback = true; }},
          {"use_collected_stats",
           [](cost::CostParams* p) { p->use_collected_stats = false; }},
          {"cpu_tuple_cost",
           [](cost::CostParams* p) { p->cpu_tuple_cost = 0.01; }},
      };
  for (const auto& [field, flip] : flips) {
    cost::CostParams changed = base;
    flip(&changed);
    EXPECT_NE(h, serve::PlacementParamsHash(changed, "migration")) << field;
  }
}

// --------------------------------------------------------------------------
// Shared predicate-cache registry

TEST(SharedCachesTest, SameIdentitySharesOneCache) {
  exec::SharedPredicateCacheRegistry registry;
  exec::ShardedPredicateCache::Options options;
  const std::string key =
      exec::BuildSharedCacheKey("costly100(t10.ua)", "t10=t10;", options);
  auto a = registry.GetOrCreate(key, options);
  auto b = registry.GetOrCreate(key, options);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.reuses(), 1u);

  const std::string other =
      exec::BuildSharedCacheKey("costly100(t10.ua)", "t10=t9;", options);
  EXPECT_NE(key, other);
  auto c = registry.GetOrCreate(other, options);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(registry.size(), 2u);
}

// --------------------------------------------------------------------------
// Plan cache, session level

TEST_F(ServeTest, RepeatQueryHitsAndAnalyzeInvalidates) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];  // Q1: t3 ⋈ t10.

  auto first = session->Execute(sql);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().entries(), 1u);

  auto second = session->Execute(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().hits(), 1u);
  EXPECT_EQ(second->plan_fingerprint, first->plan_fingerprint);
  EXPECT_EQ(workload::CanonicalResults(second->rows, second->schema),
            workload::CanonicalResults(first->rows, first->schema));

  // ANALYZE of a bound table swaps its statistics snapshot; the catalog
  // listener must drop the entry before the next probe.
  auto analyze = session->Execute("ANALYZE t3");
  ASSERT_TRUE(analyze.ok()) << analyze.status();
  EXPECT_EQ(analyze->analyzed_tables, 1u);
  EXPECT_EQ(manager.plan_cache().entries(), 0u);
  EXPECT_GE(manager.plan_cache().invalidations(), 1u);

  auto third = session->Execute(sql);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->plan_cache_hit);
  EXPECT_EQ(workload::CanonicalResults(third->rows, third->schema),
            workload::CanonicalResults(first->rows, first->schema));
}

TEST_F(ServeTest, AnalyzeOfUnboundTableKeepsEntry) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];  // Binds t3 and t10 only.
  ASSERT_TRUE(session->Execute(sql).ok());
  ASSERT_TRUE(session->Execute("ANALYZE t9").ok());
  EXPECT_EQ(manager.plan_cache().entries(), 1u);
  auto again = session->Execute(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);
}

TEST_F(ServeTest, SnapshotIdentityCatchesStatsSwapWithoutListener) {
  // Probe-time epoch validation is the backstop when no listener fired
  // (e.g. stats were swapped through a path that raced the insert). Drive
  // the PlanCache directly: record the epochs, swap stats, probe.
  auto spec = subquery::ParseBindRewrite(QueryTexts()[0], &db_.catalog());
  ASSERT_TRUE(spec.ok()) << spec.status();
  optimizer::Optimizer opt(&db_.catalog(), cost::CostParams{});
  auto optimized = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
  ASSERT_TRUE(optimized.ok());

  serve::PlanCache cache;
  serve::CachedPlan entry;
  entry.plan = std::shared_ptr<const plan::PlanNode>(
      std::move(optimized->plan));
  for (const plan::TableRef& ref : spec->tables) {
    catalog::Table* table = *db_.catalog().GetTable(ref.table_name);
    entry.bindings.emplace_back(ref.alias, ref.table_name);
    entry.stats_epochs.push_back(table->stats_epoch());
  }
  serve::PlanCacheKey key{1, 2};
  cache.Insert(key, std::move(entry));
  EXPECT_NE(cache.Probe(key, db_.catalog()), nullptr);

  catalog::Table* t3 = *db_.catalog().GetTable("t3");
  ASSERT_TRUE(
      stats::AnalyzeTable(t3, stats::AnalyzeOptions::Default()).ok());
  // Same key, new statistics snapshot: the entry must not be served.
  EXPECT_EQ(cache.Probe(key, db_.catalog()), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST_F(ServeTest, DifferentCostParamsGetDifferentSlots) {
  serve::SessionManager manager(&db_);
  auto a = manager.CreateSession();
  serve::SessionOptions options;
  options.cost_params.predicate_caching = false;
  auto b = manager.CreateSession(options);
  const std::string sql = QueryTexts()[0];
  ASSERT_TRUE(a->Execute(sql).ok());
  auto r = b->Execute(sql);
  ASSERT_TRUE(r.ok());
  // Same normalized text, different placement knobs: b must not reuse a's
  // plan (it was optimized under different costs).
  EXPECT_FALSE(r->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().entries(), 2u);
}

// A session runs the strategy its cost_params priced: asking the model for
// predicate transfer is enough for the executor to build and probe the
// Bloom filters.
TEST_F(ServeTest, CostParamsTransferRunsInTheExecutor) {
  obs::Counter* probed =
      obs::MetricsRegistry::Global().GetCounter("exec.transfer.probed");
  obs::Counter* pruned =
      obs::MetricsRegistry::Global().GetCounter("exec.transfer.pruned");
  const uint64_t probed_before = probed->value();
  const uint64_t pruned_before = pruned->value();
  obs::QueryLog::Global().Clear();

  serve::SessionManager manager(&db_);
  serve::SessionOptions options;
  options.cost_params.predicate_transfer = true;
  auto session = manager.CreateSession(options);
  // Q3: a hash join on t1.ua = t10.u100 whose t1 probe side carries the
  // costly predicate.
  auto r = session->Execute(QueryTexts()[2]);
  ASSERT_TRUE(r.ok()) << r.status();

  EXPECT_GT(probed->value(), probed_before);
  EXPECT_GT(pruned->value(), pruned_before);
  const auto records = obs::QueryLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(records[0].transfer_pruned, 0u);
}

TEST_F(ServeTest, ByteBoundedLruEviction) {
  serve::PlanCache::Options options;
  options.max_bytes = 1;  // Far below one entry: cache keeps exactly one.
  serve::PlanCache cache(options);
  auto spec = subquery::ParseBindRewrite(QueryTexts()[0], &db_.catalog());
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&db_.catalog(), cost::CostParams{});
  for (uint64_t i = 0; i < 4; ++i) {
    auto optimized = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
    ASSERT_TRUE(optimized.ok());
    serve::CachedPlan entry;
    entry.plan = std::shared_ptr<const plan::PlanNode>(
        std::move(optimized->plan));
    cache.Insert(serve::PlanCacheKey{i, 0}, std::move(entry));
    EXPECT_EQ(cache.entries(), 1u);
  }
  EXPECT_EQ(cache.evictions(), 3u);
  // Only the newest key survives.
  EXPECT_EQ(cache.Probe(serve::PlanCacheKey{0, 0}, db_.catalog()), nullptr);
  EXPECT_NE(cache.Probe(serve::PlanCacheKey{3, 0}, db_.catalog()), nullptr);
}

TEST_F(ServeTest, EntryBoundLruKeepsHotEntries) {
  serve::PlanCache::Options options;
  options.max_entries = 2;
  serve::PlanCache cache(options);
  auto spec = subquery::ParseBindRewrite(QueryTexts()[0], &db_.catalog());
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&db_.catalog(), cost::CostParams{});
  auto make_entry = [&]() {
    auto optimized = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
    EXPECT_TRUE(optimized.ok());
    serve::CachedPlan entry;
    entry.plan = std::shared_ptr<const plan::PlanNode>(
        std::move(optimized->plan));
    return entry;
  };
  cache.Insert(serve::PlanCacheKey{1, 0}, make_entry());
  cache.Insert(serve::PlanCacheKey{2, 0}, make_entry());
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.Probe(serve::PlanCacheKey{1, 0}, db_.catalog()), nullptr);
  cache.Insert(serve::PlanCacheKey{3, 0}, make_entry());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.Probe(serve::PlanCacheKey{1, 0}, db_.catalog()), nullptr);
  EXPECT_EQ(cache.Probe(serve::PlanCacheKey{2, 0}, db_.catalog()), nullptr);
}

TEST_F(ServeTest, PlanCacheDisabledByManagerOption) {
  serve::SessionManager::Options options;
  options.plan_cache_enabled = false;
  serve::SessionManager manager(&db_, options);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];
  ASSERT_TRUE(session->Execute(sql).ok());
  auto second = session->Execute(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().entries(), 0u);
}

// --------------------------------------------------------------------------
// Observability plumbing

TEST_F(ServeTest, QueryLogRecordsSessionId) {
  obs::QueryLog::Global().Clear();
  serve::SessionManager manager(&db_);
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();
  ASSERT_TRUE(a->Execute(QueryTexts()[0]).ok());
  ASSERT_TRUE(b->Execute(QueryTexts()[1]).ok());
  const auto records = obs::QueryLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].session_id, a->id());
  EXPECT_EQ(records[1].session_id, b->id());
}

TEST_F(ServeTest, SystemTablesAreQueryableThroughASession) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];
  ASSERT_TRUE(session->Execute(sql).ok());
  ASSERT_TRUE(session->Execute(sql).ok());

  // The introspection query itself enters the cache before executing, so
  // filter down to the (repeated) Q1 entry by its hit count.
  auto cache_rows = session->Execute(
      "SELECT ppp_plan_cache.text_hash, ppp_plan_cache.hits, "
      "ppp_plan_cache.tables FROM ppp_plan_cache "
      "WHERE ppp_plan_cache.hits >= 1");
  ASSERT_TRUE(cache_rows.ok()) << cache_rows.status();
  ASSERT_EQ(cache_rows->rows.size(), 1u);

  auto session_rows = session->Execute(
      "SELECT ppp_sessions.session_id, ppp_sessions.queries "
      "FROM ppp_sessions WHERE ppp_sessions.active = 1");
  ASSERT_TRUE(session_rows.ok()) << session_rows.status();
  ASSERT_EQ(session_rows->rows.size(), 1u);

  EXPECT_EQ(manager.active_sessions(), 1u);
  const auto rows = manager.SessionRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GE(rows[0].queries, 4u);
  EXPECT_GE(rows[0].plan_cache_hits, 1u);
}

TEST_F(ServeTest, ServeMetricsAreRegistered) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];
  ASSERT_TRUE(session->Execute(sql).ok());
  ASSERT_TRUE(session->Execute(sql).ok());
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(snap.counters.count("serve.plan_cache.hits"));
  ASSERT_TRUE(snap.counters.count("serve.plan_cache.misses"));
  ASSERT_TRUE(snap.gauges.count("serve.sessions.active"));
  EXPECT_GT(snap.counters.at("serve.plan_cache.hits"), 0u);
  EXPECT_GT(snap.counters.at("serve.plan_cache.misses"), 0u);
  EXPECT_GE(snap.gauges.at("serve.sessions.active"), 1.0);
}

// --------------------------------------------------------------------------
// Concurrent sessions: correctness + exact invocation parity

TEST_F(ServeTest, ConcurrentSessionsAreByteIdenticalWithExactUdfParity) {
  const std::vector<std::string> queries = QueryTexts();

  // Single-session, plan-cache-off reference answers.
  std::vector<std::vector<std::string>> reference;
  {
    serve::SessionManager::Options options;
    options.plan_cache_enabled = false;
    serve::SessionManager manager(&db_, options);
    auto session = manager.CreateSession();
    for (const std::string& sql : queries) {
      auto r = session->Execute(sql);
      ASSERT_TRUE(r.ok()) << r.status();
      reference.push_back(workload::CanonicalResults(r->rows, r->schema));
    }
  }

  // One config = fresh manager, N session threads, each runs Q1..Q5.
  // Returns the engine-wide UDF invocation total (summed from the query
  // log, whose per-record counts are per-context exact).
  auto run_config = [&](size_t n_sessions, bool plan_cache) -> uint64_t {
    obs::QueryLog::Global().Clear();
    serve::SessionManager::Options options;
    options.plan_cache_enabled = plan_cache;
    serve::SessionManager manager(&db_, options);
    std::vector<std::unique_ptr<serve::Session>> sessions;
    for (size_t i = 0; i < n_sessions; ++i) {
      sessions.push_back(manager.CreateSession());
    }
    std::vector<std::thread> threads;
    std::vector<std::string> errors(n_sessions);
    for (size_t i = 0; i < n_sessions; ++i) {
      threads.emplace_back([&, i]() {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto r = sessions[i]->Execute(queries[q]);
          if (!r.ok()) {
            errors[i] = r.status().ToString();
            return;
          }
          if (workload::CanonicalResults(r->rows, r->schema) !=
              reference[q]) {
            errors[i] = "results diverge on " + queries[q];
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    uint64_t udf_total = 0;
    for (const obs::QueryLogRecord& r : obs::QueryLog::Global().Snapshot()) {
      udf_total += r.udf_invocations;
    }
    EXPECT_EQ(obs::QueryLog::Global().total(),
              n_sessions * queries.size());
    return udf_total;
  };

  for (size_t n : {1u, 4u, 8u}) {
    const uint64_t with_cache = run_config(n, true);
    const uint64_t without_cache = run_config(n, false);
    // The plan cache changes where plans come from, never what executes:
    // invocation totals must match exactly (shared predicate caches make
    // them deterministic under concurrency via pending-entry dedup).
    EXPECT_EQ(with_cache, without_cache) << n << " sessions";
    EXPECT_GT(with_cache, 0u);
  }
}

}  // namespace
}  // namespace ppp
