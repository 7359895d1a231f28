// Tests for the §5.1 caching design space: predicate-level caching
// (Montage), function-level caching ([Jhi88]), bounded caches with FIFO
// replacement, and the adaptive self-disable ("planned for Montage").

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <list>
#include <map>
#include <random>
#include <thread>

#include "common/sharded_memo.h"
#include "exec/executor.h"
#include "expr/predicate.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace ppp::exec {
namespace {

using expr::Call;
using expr::Col;
using types::Tuple;
using types::TypeId;
using types::Value;

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : pool_(&disk_, 64), catalog_(&pool_) {
    // 1000 rows; grp cycles over 20 values, uniq is unique.
    auto table = catalog_.CreateTable(
        "t", {{"uniq", TypeId::kInt64}, {"grp", TypeId::kInt64}});
    EXPECT_TRUE(table.ok());
    for (int64_t i = 0; i < 1000; ++i) {
      EXPECT_TRUE((*table)->Insert(Tuple({Value(i), Value(i % 20)})).ok());
    }
    EXPECT_TRUE((*table)->Analyze().ok());
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("f", 10, 0.5).ok());
    // A second, non-cacheable function.
    catalog::FunctionDef nc;
    nc.name = "volatile_f";
    nc.cost_per_call = 10;
    nc.selectivity = 0.5;
    nc.cacheable = false;
    nc.impl = [](const std::vector<Value>& args) {
      return Value(args[0].AsInt64() % 2 == 0);
    };
    EXPECT_TRUE(catalog_.functions().Register(std::move(nc)).ok());

    binding_ = {{"t", *catalog_.GetTable("t")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  }

  expr::PredicateInfo Analyze(const expr::ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  /// Runs Filter(f(t.<col>)) over the table under `params`; returns stats.
  ExecStats RunFilter(const std::string& col, const ExecParams& params,
                      const std::string& fn = "f") {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.binding = binding_;
    ctx.params = params;
    plan::PlanPtr plan = plan::MakeFilter(
        plan::MakeSeqScan("t", "t"), Analyze(Call(fn, {Col("t", col)})));
    ExecStats stats;
    auto rows = ExecutePlan(*plan, &ctx, &stats);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return stats;
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
  expr::TableBinding binding_;
  std::unique_ptr<expr::PredicateAnalyzer> analyzer_;
};

TEST_F(CacheTest, PredicateModeDeduplicates) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 20u);
}

TEST_F(CacheTest, FunctionModeDeduplicates) {
  ExecParams params;
  params.cache_mode = CacheMode::kFunction;
  EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 20u);
}

TEST_F(CacheTest, NoneModeEvaluatesEverything) {
  ExecParams params;
  params.cache_mode = CacheMode::kNone;
  // kNone disables even with the master switch on.
  EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 1000u);
}

TEST_F(CacheTest, MasterSwitchOffDisablesAllModes) {
  for (const CacheMode mode :
       {CacheMode::kPredicate, CacheMode::kFunction}) {
    ExecParams params;
    params.predicate_caching = false;
    params.cache_mode = mode;
    EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 1000u);
  }
}

TEST_F(CacheTest, AllModesProduceIdenticalResults) {
  std::vector<uint64_t> row_counts;
  for (const CacheMode mode :
       {CacheMode::kNone, CacheMode::kPredicate, CacheMode::kFunction}) {
    ExecParams params;
    params.cache_mode = mode;
    row_counts.push_back(RunFilter("grp", params).output_rows);
  }
  EXPECT_EQ(row_counts[0], row_counts[1]);
  EXPECT_EQ(row_counts[0], row_counts[2]);
}

TEST_F(CacheTest, BoundedPredicateCacheStillCorrect) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.cache_max_entries = 4;  // Far below the 20 distinct bindings.
  ExecParams unbounded;
  const ExecStats bounded_stats = RunFilter("grp", params);
  const ExecStats unbounded_stats = RunFilter("grp", unbounded);
  EXPECT_EQ(bounded_stats.output_rows, unbounded_stats.output_rows);
  // A 4-entry FIFO over a cycling 20-value stream thrashes: every probe
  // misses, so the invocation count approaches the no-cache count.
  EXPECT_GT(bounded_stats.invocations.at("f"),
            unbounded_stats.invocations.at("f"));
}

TEST_F(CacheTest, BoundedFunctionCacheEvicts) {
  ExecParams params;
  params.cache_mode = CacheMode::kFunction;
  params.cache_max_entries = 4;
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.binding = binding_;
  ctx.params = params;
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("t", "t"), Analyze(Call("f", {Col("t", "grp")})));
  ExecStats stats;
  ASSERT_TRUE(ExecutePlan(*plan, &ctx, &stats).ok());
  EXPECT_LE(ctx.function_cache_storage.entries(), 4u);
  EXPECT_GT(ctx.function_cache_storage.evictions(), 0u);
}

TEST_F(CacheTest, NonCacheableFunctionNeverCached) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  EXPECT_EQ(RunFilter("grp", params, "volatile_f").invocations
                .at("volatile_f"),
            1000u);
  params.cache_mode = CacheMode::kFunction;
  EXPECT_EQ(RunFilter("grp", params, "volatile_f").invocations
                .at("volatile_f"),
            1000u);
}

TEST_F(CacheTest, AdaptiveCachingDisablesOnUniqueInputs) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.adaptive_caching = true;
  // All 1000 bindings distinct: the cache sees zero hits, disables itself
  // after the probe window, and everything still evaluates exactly once.
  const ExecStats stats = RunFilter("uniq", params);
  EXPECT_EQ(stats.invocations.at("f"), 1000u);
  EXPECT_EQ(stats.output_rows, RunFilter("uniq", ExecParams{}).output_rows);
}

TEST_F(CacheTest, AdaptiveCachingKeepsUsefulCaches) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.adaptive_caching = true;
  // 20 distinct bindings: plenty of hits, cache must stay on.
  EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 20u);
}

TEST_F(CacheTest, AdaptiveProbeWindowIsConfigurable) {
  // With a window larger than the input, the zero-hit check never fires
  // and the (useless) cache keeps absorbing entries: same invocation count
  // but one entry per distinct binding remains live.
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.adaptive_caching = true;
  params.adaptive_probe_window = 100000;
  EXPECT_EQ(RunFilter("uniq", params).invocations.at("f"), 1000u);

  // A tiny window disables almost immediately on unique inputs.
  params.adaptive_probe_window = 8;
  EXPECT_EQ(RunFilter("uniq", params).invocations.at("f"), 1000u);
}

TEST_F(CacheTest, AdaptiveWindowHonoredInFunctionMode) {
  // The adaptive self-disable applies to the [Jhi88] function cache too:
  // unique inputs, zero hits, cache disables after the window and the
  // query still evaluates every tuple exactly once.
  ExecParams params;
  params.cache_mode = CacheMode::kFunction;
  params.adaptive_caching = true;
  params.adaptive_probe_window = 64;
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.binding = binding_;
  ctx.params = params;
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("t", "t"), Analyze(Call("f", {Col("t", "uniq")})));
  ExecStats stats;
  ASSERT_TRUE(ExecutePlan(*plan, &ctx, &stats).ok());
  EXPECT_EQ(stats.invocations.at("f"), 1000u);
  EXPECT_TRUE(ctx.function_cache_storage.disabled());
  // Entries were freed on disable (the footnote-4 swap concern).
  EXPECT_EQ(ctx.function_cache_storage.entries(), 0u);
}

TEST_F(CacheTest, ShardedCacheEvictsUnderParallelConfig) {
  // parallel_workers > 1 shards the predicate cache; the FIFO bound still
  // holds across shards and results stay correct.
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.cache_max_entries = 4;
  params.parallel_workers = 4;
  params.batch_size = 64;
  const ExecStats sharded = RunFilter("grp", params);
  const ExecStats unbounded = RunFilter("grp", ExecParams{});
  EXPECT_EQ(sharded.output_rows, unbounded.output_rows);
  EXPECT_GT(sharded.invocations.at("f"), unbounded.invocations.at("f"));
}

TEST_F(CacheTest, ShardedAdaptiveDisableUnderParallelConfig) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.adaptive_caching = true;
  params.parallel_workers = 4;
  params.batch_size = 128;
  const ExecStats stats = RunFilter("uniq", params);
  // Every distinct binding evaluated exactly once even while the cache
  // disables itself mid-run: pending-entry dedup keeps counters exact.
  EXPECT_EQ(stats.invocations.at("f"), 1000u);
  EXPECT_EQ(stats.output_rows, RunFilter("uniq", ExecParams{}).output_rows);
}

TEST_F(CacheTest, CachedPredicateAccessors) {
  ExecParams params;
  auto pred = CachedPredicate::Bind(
      Analyze(Call("f", {Col("t", "grp")})),
      (*catalog_.GetTable("t"))->RowSchemaForAlias("t"), catalog_, params);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(pred->cache_enabled());
  expr::EvalContext eval;
  Tuple row({Value(int64_t{1}), Value(int64_t{5})});
  pred->Eval(row, &eval);
  pred->Eval(row, &eval);
  EXPECT_EQ(pred->cache_entries(), 1u);
  EXPECT_EQ(pred->cache_hits(), 1u);
  EXPECT_EQ(eval.InvocationsOf("f"), 1u);
}

TEST_F(CacheTest, LruKeepsHotKeysWhereFifoEvictsThem) {
  // Probe pattern: one hot key touched between every pair of cold keys.
  // FIFO evicts by insertion order, so the hot key ages out and recomputes;
  // LRU refreshes it on every hit, so it is computed exactly once.
  const auto run = [](bool lru) {
    common::ShardedMemo<bool>::Options options;
    options.max_entries = 4;
    options.lru = lru;
    common::ShardedMemo<bool> memo(options);
    size_t hot_computes = 0;
    for (int i = 0; i < 64; ++i) {
      memo.GetOrCompute("hot", [&] {
        ++hot_computes;
        return true;
      });
      memo.GetOrCompute("cold" + std::to_string(i), [] { return false; });
    }
    return hot_computes;
  };
  EXPECT_EQ(run(/*lru=*/true), 1u);
  EXPECT_GT(run(/*lru=*/false), 1u);
}

TEST_F(CacheTest, ByteBoundTriggersEvictions) {
  common::ShardedMemo<bool>::Options options;
  // Room for roughly four entries of ~(key + overhead) bytes.
  options.max_bytes =
      4 * (8 + common::ShardedMemo<bool>::kEntryOverhead);
  common::ShardedMemo<bool> memo(options);
  for (int i = 0; i < 100; ++i) {
    memo.GetOrCompute("key" + std::to_string(i), [] { return true; });
    EXPECT_LE(memo.approx_bytes(), options.max_bytes);
  }
  EXPECT_GT(memo.evictions(), 0u);
  EXPECT_LT(memo.entries(), 100u);
}

/// Reference model of the memo's serial behaviour: one std::map for the
/// entries, one std::list for the eviction order (front = next victim).
class MemoModel {
 public:
  using Options = common::ShardedMemo<std::string>::Options;

  explicit MemoModel(const Options& options) : options_(options) {}

  /// Mirrors GetOrCompute; returns true on a hit.
  bool Probe(const std::string& key) {
    ++probes_;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      if (options_.lru) order_.splice(order_.end(), order_, it->second);
      return true;
    }
    if (options_.adaptive && probes_ >= options_.probe_window &&
        hits_ == 0) {
      disabled_ = true;
      entries_.clear();
      order_.clear();
      bytes_ = 0;
      return false;
    }
    const size_t charge = key.size() + kOverhead;
    while (!order_.empty() &&
           ((options_.max_entries > 0 &&
             entries_.size() >= options_.max_entries) ||
            (options_.max_bytes > 0 &&
             bytes_ + charge > options_.max_bytes))) {
      bytes_ -= order_.front().size() + kOverhead;
      entries_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
    order_.push_back(key);
    entries_[key] = std::prev(order_.end());
    bytes_ += charge;
    return false;
  }

  static constexpr size_t kOverhead =
      common::ShardedMemo<std::string>::kEntryOverhead;
  Options options_;
  std::map<std::string, std::list<std::string>::iterator> entries_;
  std::list<std::string> order_;
  size_t bytes_ = 0;
  uint64_t probes_ = 0;
  uint64_t hits_ = 0;
  uint64_t evictions_ = 0;
  bool disabled_ = false;
};

TEST(ShardedMemoModelTest, SerialProbesMatchReferenceModel) {
  // Keys on both sides of the memo's inline key size: 8-byte and 40-byte.
  std::vector<std::string> universe;
  for (int i = 0; i < 12; ++i) {
    std::string key = "k";
    key += std::to_string(1000000 + i);
    if (i % 3 == 0) key += std::string(32, static_cast<char>('a' + i));
    universe.push_back(key);
  }
  struct Case {
    const char* name;
    size_t max_entries;
    size_t max_bytes;
    bool adaptive;
  };
  const size_t entry = 8 + MemoModel::kOverhead;
  const Case cases[] = {
      {"entries", 5, 0, false},
      {"bytes", 0, 5 * entry, false},
      {"both", 3, 4 * entry, false},
      {"adaptive", 0, 0, true},
      {"adaptive-bounded", 6, 0, true},
  };
  for (const Case& c : cases) {
    int disabled_runs = 0;
    for (const bool lru : {false, true}) {
      for (uint32_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(std::string(c.name) + (lru ? " lru" : " fifo") +
                     " seed " + std::to_string(seed));
        common::ShardedMemo<std::string>::Options options;
        options.max_entries = c.max_entries;
        options.max_bytes = c.max_bytes;
        options.lru = lru;
        options.adaptive = c.adaptive;
        options.probe_window = 6;
        common::ShardedMemo<std::string> memo(options);
        MemoModel model(options);
        std::mt19937 rng(seed);
        std::uniform_int_distribution<size_t> pick(0, universe.size() - 1);
        size_t computes = 0;
        for (int step = 0; step < 400 && !memo.disabled(); ++step) {
          const std::string& key = universe[pick(rng)];
          const size_t before = computes;
          const std::string value = memo.GetOrCompute(key, [&] {
            ++computes;
            return "v" + key;
          });
          const bool hit = model.Probe(key);
          ASSERT_EQ(value, "v" + key);
          ASSERT_EQ(computes == before, hit) << "step " << step;
          ASSERT_EQ(memo.disabled(), model.disabled_);
          ASSERT_EQ(memo.probes(), model.probes_);
          ASSERT_EQ(memo.hits(), model.hits_);
          ASSERT_EQ(memo.evictions(), model.evictions_);
          ASSERT_EQ(memo.entries(), model.entries_.size());
          ASSERT_EQ(memo.approx_bytes(), model.bytes_);
          if (c.max_bytes > 0) {
            ASSERT_LE(memo.approx_bytes(), c.max_bytes);
          }
        }
        ASSERT_EQ(computes, model.probes_ - model.hits_);
        if (model.disabled_) ++disabled_runs;
      }
    }
    // Adaptive runs must cover both outcomes: a hit inside the 6-probe
    // window keeps the memo, none disables it.
    if (c.adaptive) {
      EXPECT_GT(disabled_runs, 0) << c.name;
      EXPECT_LT(disabled_runs, 16) << c.name;
    }
  }
}

TEST(ShardedMemoModelTest, BatchedProbesMatchReferenceModel) {
  // The serial test's keys and bounds, probed a batch at a time. A batch
  // must behave as one GetOrCompute per key: the model probes key by key
  // and, once disabled, computes without probing (what a serial caller
  // checking disabled() per key does).
  std::vector<std::string> universe;
  for (int i = 0; i < 12; ++i) {
    std::string key = "k";
    key += std::to_string(1000000 + i);
    if (i % 3 == 0) key += std::string(32, static_cast<char>('a' + i));
    universe.push_back(key);
  }
  struct Case {
    const char* name;
    size_t max_entries;
    size_t max_bytes;
    bool adaptive;
  };
  const size_t entry = 8 + MemoModel::kOverhead;
  const Case cases[] = {
      {"entries", 5, 0, false},
      {"bytes", 0, 5 * entry, false},
      {"both", 3, 4 * entry, false},
      {"adaptive", 0, 0, true},
      {"adaptive-bounded", 6, 0, true},
  };
  for (const Case& c : cases) {
    int disabled_runs = 0;
    int runs = 0;
    for (const size_t batch_size : {size_t{1}, size_t{3}, size_t{64}}) {
      for (const bool lru : {false, true}) {
        for (uint32_t seed = 1; seed <= 8; ++seed) {
          SCOPED_TRACE(std::string(c.name) + (lru ? " lru" : " fifo") +
                       " batch " + std::to_string(batch_size) + " seed " +
                       std::to_string(seed));
          common::ShardedMemo<std::string>::Options options;
          options.max_entries = c.max_entries;
          options.max_bytes = c.max_bytes;
          options.lru = lru;
          options.adaptive = c.adaptive;
          // 5 probes: the window ends inside a batch of 3 or 64.
          options.probe_window = 5;
          common::ShardedMemo<std::string> memo(options);
          MemoModel model(options);
          std::mt19937 rng(seed);
          std::uniform_int_distribution<size_t> pick(0, universe.size() - 1);
          std::vector<std::string> computed;
          std::vector<std::string> expected_computed;
          for (int step = 0; step < 12; ++step) {
            std::vector<std::string> batch;
            for (size_t i = 0; i < batch_size; ++i) {
              batch.push_back(universe[pick(rng)]);
            }
            for (const std::string& key : batch) {
              if (model.disabled_ || !model.Probe(key)) {
                expected_computed.push_back(key);
              }
            }
            const std::vector<std::string_view> keys(batch.begin(),
                                                     batch.end());
            size_t emitted = 0;
            memo.GetOrComputeBatch(
                keys,
                [&](size_t i) {
                  computed.push_back(batch[i]);
                  return "v" + batch[i];
                },
                [&](size_t i, const std::string& value) {
                  ASSERT_EQ(i, emitted);
                  ASSERT_EQ(value, "v" + batch[i]);
                  ++emitted;
                });
            ASSERT_EQ(emitted, batch.size()) << "step " << step;
            ASSERT_EQ(computed, expected_computed) << "step " << step;
            ASSERT_EQ(memo.disabled(), model.disabled_);
            ASSERT_EQ(memo.probes(), model.probes_);
            ASSERT_EQ(memo.hits(), model.hits_);
            ASSERT_EQ(memo.evictions(), model.evictions_);
            ASSERT_EQ(memo.entries(), model.entries_.size());
            ASSERT_EQ(memo.approx_bytes(), model.bytes_);
            if (c.max_bytes > 0) {
              ASSERT_LE(memo.approx_bytes(), c.max_bytes);
            }
          }
          ++runs;
          if (model.disabled_) ++disabled_runs;
        }
      }
    }
    // Adaptive runs must cover both outcomes: a hit inside the window
    // keeps the memo, none disables it (mid-batch for batches of 3, 64).
    if (c.adaptive) {
      EXPECT_GT(disabled_runs, 0) << c.name;
      EXPECT_LT(disabled_runs, runs) << c.name;
    }
  }
}

TEST(ShardedMemoConcurrencyTest, OverlappingProbersComputeEachKeyOnce) {
  common::ShardedMemo<int64_t>::Options options;
  options.shards = 8;
  common::ShardedMemo<int64_t> memo(options);
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  common::ShardedMemo<int64_t>::Listener listener;
  listener.on_hit = [&hits](uint64_t count) { hits.fetch_add(count); };
  listener.on_miss = [&misses] { misses.fetch_add(1); };
  memo.set_listener(std::move(listener));

  constexpr int kThreads = 8;
  constexpr int kProbesPerThread = 300;
  constexpr int kDistinct = 64;
  std::atomic<uint64_t> computes{0};
  std::atomic<bool> wrong{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kProbesPerThread; ++i) {
        // Each thread walks the keys from its own offset, so every key is
        // probed by several threads, often while it is still computing.
        const int64_t k = (i * 7 + t * 5) % kDistinct;
        const int64_t got =
            memo.GetOrCompute(std::to_string(k) + "-key", [&] {
              computes.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              return k * k;
            });
        if (got != k * k) wrong.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(computes.load(), static_cast<uint64_t>(kDistinct));
  EXPECT_EQ(memo.probes(), static_cast<uint64_t>(kThreads) * kProbesPerThread);
  EXPECT_EQ(hits.load() + misses.load(), memo.probes());
  EXPECT_EQ(memo.hits(), hits.load());
  EXPECT_EQ(misses.load(), computes.load());
  EXPECT_EQ(memo.entries(), static_cast<size_t>(kDistinct));
}

TEST(ShardedMemoConcurrencyTest, OverlappingBatchProbersComputeEachKeyOnce) {
  common::ShardedMemo<int64_t>::Options options;
  options.shards = 8;
  common::ShardedMemo<int64_t> memo(options);
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  common::ShardedMemo<int64_t>::Listener listener;
  listener.on_hit = [&hits](uint64_t count) { hits.fetch_add(count); };
  listener.on_miss = [&misses] { misses.fetch_add(1); };
  memo.set_listener(std::move(listener));

  constexpr int kThreads = 4;
  constexpr int kBatches = 40;
  constexpr int kBatchSize = 24;
  constexpr int kDistinct = 64;
  std::atomic<uint64_t> computes{0};
  std::atomic<bool> wrong{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBatches; ++b) {
        // Overlapping walks from per-thread offsets, with keys repeated
        // inside a batch, so keys are often pending in another thread.
        std::vector<int64_t> ks;
        std::vector<std::string> keys;
        for (int i = 0; i < kBatchSize; ++i) {
          const int64_t k = (b * 5 + (i % 16) * 3 + t * 11) % kDistinct;
          ks.push_back(k);
          keys.push_back(std::to_string(k) + "-key");
        }
        const std::vector<std::string_view> views(keys.begin(), keys.end());
        size_t next = 0;
        memo.GetOrComputeBatch(
            views,
            [&](size_t i) {
              computes.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::microseconds(100));
              return ks[i] * ks[i];
            },
            [&](size_t i, int64_t value) {
              if (i != next++ || value != ks[i] * ks[i]) wrong.store(true);
            });
        if (next != keys.size()) wrong.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(computes.load(), static_cast<uint64_t>(kDistinct));
  EXPECT_EQ(memo.probes(),
            static_cast<uint64_t>(kThreads) * kBatches * kBatchSize);
  EXPECT_EQ(memo.hits() + computes.load(), memo.probes());
  EXPECT_EQ(memo.hits(), hits.load());
  EXPECT_EQ(misses.load(), computes.load());
  EXPECT_EQ(memo.entries(), static_cast<size_t>(kDistinct));
}

TEST(ShardedMemoGrowthTest, EveryKeyHitsAfterManyIndexGrowths) {
  constexpr int kKeys = 50000;
  for (const size_t shards : {size_t{4}, size_t{64}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    common::ShardedMemo<int>::Options options;
    options.shards = shards;
    common::ShardedMemo<int> memo(options);
    // Alternate short and long keys so both key layouts move on growth.
    const auto key_of = [](int i) {
      std::string key = "g";
      key += std::to_string(i);
      if (i % 2 == 1) key += "-with-a-suffix-past-the-inline-size";
      return key;
    };
    for (int i = 0; i < kKeys; ++i) {
      memo.GetOrCompute(key_of(i), [i] { return i; });
    }
    ASSERT_EQ(memo.entries(), static_cast<size_t>(kKeys));
    int recomputes = 0;
    for (int i = 0; i < kKeys; ++i) {
      const int got = memo.GetOrCompute(key_of(i), [&] {
        ++recomputes;
        return -1;
      });
      ASSERT_EQ(got, i);
    }
    EXPECT_EQ(recomputes, 0);
    EXPECT_EQ(memo.hits(), static_cast<uint64_t>(kKeys));
    EXPECT_EQ(memo.evictions(), 0u);
  }
}

TEST_F(CacheTest, ByteBoundedPredicateCacheEndToEnd) {
  obs::Counter* evictions =
      obs::MetricsRegistry::Global().GetCounter("exec.pred_cache.evictions");
  const uint64_t before = evictions->value();
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  // Far below the 20 distinct 9-byte serialized bindings: must evict.
  params.cache_max_bytes = 300;
  const ExecStats bounded = RunFilter("grp", params);
  EXPECT_EQ(bounded.output_rows, RunFilter("grp", ExecParams{}).output_rows);
  EXPECT_GT(evictions->value(), before);
}

TEST_F(CacheTest, LruPredicateCacheEndToEnd) {
  // LRU with a bound below the distinct-binding count stays correct; with
  // a bound above it, LRU and FIFO behave identically (no evictions).
  ExecParams lru;
  lru.cache_mode = CacheMode::kPredicate;
  lru.cache_max_entries = 8;
  lru.cache_lru = true;
  const ExecStats bounded = RunFilter("grp", lru);
  EXPECT_EQ(bounded.output_rows, RunFilter("grp", ExecParams{}).output_rows);

  lru.cache_max_entries = 64;
  EXPECT_EQ(RunFilter("grp", lru).invocations.at("f"), 20u);
}

TEST_F(CacheTest, CheapPredicateNotCached) {
  ExecParams params;
  auto pred = CachedPredicate::Bind(
      Analyze(expr::Eq(Col("t", "grp"), expr::Int(1))),
      (*catalog_.GetTable("t"))->RowSchemaForAlias("t"), catalog_, params);
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE(pred->cache_enabled());
}

}  // namespace
}  // namespace ppp::exec
