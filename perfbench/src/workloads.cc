#include "workloads.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "common/random.h"
#include "common/string_util.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace perfbench {

namespace {

using ppp::common::Random;
using ppp::common::StringPrintf;

/// Independent random stream `stream` of `seed`.
Random Stream(uint64_t seed, uint64_t stream) {
  return Random(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
                1);
}

/// Measured requests: `seconds` at a nominal rate, at least 1,000 (so the
/// p99 has ten samples beyond it), rounded up to a multiple of `unit`.
size_t MeasuredCount(int seconds, double nominal_qps, size_t unit) {
  const size_t wanted =
      static_cast<size_t>(std::max(1000.0, seconds * nominal_qps)) + 1;
  return (wanted + unit - 1) / unit * unit;
}

// hot_mix: Q1-Q5 with fixed text at scale 200 (376 pages; the mix touches
// 192 of them, inside the 256-page pool). After the warm-up pass every
// request is a plan-cache hit whose expensive predicates are answered by
// the shared caches, so operator execution and result encoding do the
// work. The client sends blocks of 19 requests, each block shuffled
// with the seed: Q5's expensive-join nested loop takes ~50x longer than the
// others, so it comes once per block (~5% of the requests: it sets the
// p99); Q1 fills most of the block so that the p50 falls inside one
// query's latency band, not on the edge between two bands, where it
// jumped by 15% between seeds.
constexpr size_t kHotWeights[] = {12, 2, 2, 2, 1};  // Q1..Q5.

void HotMix(uint64_t seed, int seconds, WorkloadSpec* out) {
  out->scale = 200;
  ppp::workload::BenchmarkConfig config;
  config.scale = out->scale;
  std::vector<std::string> block;
  for (const ppp::workload::BenchmarkQuery& q :
       ppp::workload::BenchmarkQueries(config)) {
    out->warmup.push_back("QUERY " + q.sql);
    block.insert(block.end(), kHotWeights[out->warmup.size() - 1],
                 out->warmup.back());
  }
  const size_t n = MeasuredCount(seconds, 110.0, block.size());
  Random rng = Stream(seed, 100);
  while (out->measured.size() < n) {
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.NextUint64(i + 1)]);
    }
    out->measured.insert(out->measured.end(), block.begin(), block.end());
  }
}

/// Statements per adhoc block: one of each shape.
constexpr size_t kAdhocBlock = 45;

/// The six benchmark tables and the expensive predicates an ad hoc
/// statement draws from.
constexpr int kAdhocTables[] = {1, 3, 6, 7, 9, 10};
constexpr const char* kAdhocFns[] = {"costly1", "costly10", "costly100"};

/// One ad hoc statement over `tables` (four of the six, in chain order)
/// with the expensive predicate `fn`: a chain join over near-unique columns
/// whose first table is cut to 16-32 rows by an indexed range, an optional
/// cheap range selection, and `fn` on a random column. Four tables with an
/// expensive predicate make predicate placement (the System R DP plus
/// Predicate Migration) the bulk of the request (~10 ms), while the
/// selective range keeps execution to a few milliseconds. Five tables
/// would take the DP over a second per statement.
std::string AdhocStatement(Random* rng, int64_t scale,
                           const std::vector<int>& tables, const char* fn) {
  static const char* const kJoinColumns[] = {"a", "ua", "a1", "ua1"};
  static const char* const kUdfInputs[] = {"ua", "ua1", "u10", "a1"};
  std::string sql = "SELECT * FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    sql += StringPrintf("%st%d", i == 0 ? "" : ", ", tables[i]);
  }
  sql += StringPrintf(" WHERE t%d.a < %llu", tables[0],
                      static_cast<unsigned long long>(
                          16 + rng->NextUint64(17)));
  // A middle table joins its two neighbours on different columns, so no
  // equivalence class spans three tables: implied join predicates would
  // grow the DP (and its memory) several-fold for a few statements.
  size_t left = rng->NextUint64(4);
  for (size_t i = 1; i < tables.size(); ++i) {
    const size_t right = rng->NextUint64(4);
    sql += StringPrintf(" AND t%d.%s = t%d.%s", tables[i - 1],
                        kJoinColumns[left], tables[i], kJoinColumns[right]);
    left = (right + 1 + rng->NextUint64(3)) % 4;
  }
  if (rng->NextUint64(2) == 0) {
    const int k = tables[1 + rng->NextUint64(3)];
    const uint64_t domain = static_cast<uint64_t>(k * scale / 10);
    sql += StringPrintf(" AND t%d.u10 < %llu", k,
                        static_cast<unsigned long long>(
                            domain / 4 + rng->NextUint64(domain)));
  }
  sql += StringPrintf(" AND %s(t%d.%s)", fn, tables[rng->NextUint64(4)],
                      kUdfInputs[rng->NextUint64(4)]);
  return sql;
}

/// Every (four-table set, expensive predicate) pair: 15 x 3 = 45.
struct AdhocShape {
  std::vector<int> tables;
  const char* fn;
};

std::vector<AdhocShape> AdhocShapes() {
  std::vector<AdhocShape> shapes;
  constexpr size_t kTables = std::size(kAdhocTables);
  for (size_t skip1 = 0; skip1 < kTables; ++skip1) {
    for (size_t skip2 = skip1 + 1; skip2 < kTables; ++skip2) {
      std::vector<int> tables;
      for (size_t i = 0; i < kTables; ++i) {
        if (i != skip1 && i != skip2) tables.push_back(kAdhocTables[i]);
      }
      for (const char* fn : kAdhocFns) shapes.push_back({tables, fn});
    }
  }
  return shapes;
}

// adhoc: distinct seed-generated statements at scale 200; every text is
// new, so every request misses the plan cache and runs parse, bind,
// rewrite and the DP placement, and UDFs see fresh bindings. The
// statements come in blocks of kAdhocBlock, one per shape (table set and
// expensive predicate), in seeded order with seeded table order, columns
// and literals: what a statement costs depends mostly on its shape, so a
// run's mix of shapes does not move with the seed. The warm-up statements come from a fixed stream, not from the
// seed: each costs 5-30 ms, so with seeded warm-ups setup_s moved with the
// seed's first statements (spread 0.22 across ten seeds).
void Adhoc(uint64_t seed, int seconds, WorkloadSpec* out) {
  out->scale = 200;
  std::set<std::string> seen;
  const std::vector<AdhocShape> shapes = AdhocShapes();
  const auto append = [&](Random* rng, size_t n,
                          std::vector<std::string>* sequence) {
    std::vector<AdhocShape> block;
    for (size_t i = 0; i < n; ++i) {
      if (block.empty()) {
        block = shapes;
        for (size_t j = block.size() - 1; j > 0; --j) {
          std::swap(block[j], block[rng->NextUint64(j + 1)]);
        }
      }
      AdhocShape shape = block.back();
      block.pop_back();
      for (;;) {
        std::vector<int>& t = shape.tables;
        for (size_t j = t.size() - 1; j > 0; --j) {
          std::swap(t[j], t[rng->NextUint64(j + 1)]);
        }
        std::string sql = AdhocStatement(rng, out->scale, t, shape.fn);
        if (seen.insert(sql).second) {
          sequence->push_back("QUERY " + sql);
          break;
        }
      }
    }
  };
  Random warmup_rng = Stream(0, 2);
  append(&warmup_rng, 8, &out->warmup);
  Random rng = Stream(seed, 1);
  append(&rng, MeasuredCount(seconds, 65.0, kAdhocBlock), &out->measured);
}

// prepared_refresh: the client PREPAREs a Q4-shaped family once and
// EXECUTEs it with seed-drawn literals (the generic-plan path), and sends
// ANALYZE on one of the family's tables every kAnalyzeEvery requests,
// invalidating every cached plan that binds it.
// Scale 800 is 1,431 pages against the 256-page pool, so scans read pages.
constexpr size_t kAnalyzeEvery = 5;

void PreparedRefresh(uint64_t seed, int seconds, WorkloadSpec* out) {
  out->scale = 800;
  static const char* const kAnalyzed[] = {"t10", "t6", "t3"};
  const std::string prepare =
      "PREPARE q AS SELECT * FROM t3, t6, t10 WHERE t3.a10 = t6.a10 AND "
      "t6.ua = t10.ua1 AND t10.u10 < $1 AND costly100(t3.ua)";
  const int64_t tenth = out->scale / 10;
  out->warmup = {prepare, StringPrintf("EXECUTE q(%lld)",
                                       static_cast<long long>(tenth))};
  const size_t n = MeasuredCount(seconds, 80.0, kAnalyzeEvery);
  Random rng = Stream(seed, 200);
  for (size_t i = 0; i < n; ++i) {
    if (i % kAnalyzeEvery == kAnalyzeEvery - 1) {
      out->measured.push_back(std::string("QUERY ANALYZE ") +
                              kAnalyzed[(i / kAnalyzeEvery) % 3]);
      continue;
    }
    // t10.u10 is uniform over [0, scale): 1%-3% of t10 qualifies, so
    // answers stay small next to the scans that produce them.
    const int64_t literal = out->scale / 100 +
                            static_cast<int64_t>(rng.NextUint64(
                                static_cast<uint64_t>(out->scale / 50) + 1));
    out->measured.push_back(
        StringPrintf("EXECUTE q(%lld)", static_cast<long long>(literal)));
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                  WorkloadSpec* out) {
  *out = WorkloadSpec();
  out->name = name;
  if (name == "hot_mix") {
    HotMix(seed, seconds, out);
  } else if (name == "adhoc") {
    Adhoc(seed, seconds, out);
  } else if (name == "prepared_refresh") {
    PreparedRefresh(seed, seconds, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
