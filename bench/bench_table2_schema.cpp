// Table 2: physical characteristics of the benchmark relations — the
// reconstructed Hong–Stonebraker schema (cardinality, pages, tuple width,
// distinct counts of the attributes the queries use).

#include <cstdio>

#include "bench/bench_util.h"
#include "storage/page.h"

int main() {
  using namespace ppp;
  const int64_t scale = bench::BenchScale();
  auto db = bench::MakeBenchDatabase(scale, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});

  bench::PrintHeader("Table 2 — Benchmark relations (scale " +
                     std::to_string(scale) + "; paper scale 10000)");
  std::printf("%-6s %10s %8s %8s %10s %10s %10s %10s\n", "table", "tuples",
              "pages", "width", "d(a)", "d(a20)", "d(ua1)", "d(u100)");

  uint64_t total_pages = 0;
  for (int k = 1; k <= 10; ++k) {
    const std::string name = workload::BenchmarkTableName(k);
    auto table = db->catalog().GetTable(name);
    if (!table.ok()) continue;
    const catalog::Table* t = *table;
    const double width =
        t->NumTuples() > 0
            ? static_cast<double>(t->NumPages()) * storage::kPageSize /
                  static_cast<double>(t->NumTuples())
            : 0;
    total_pages += static_cast<uint64_t>(t->NumPages());
    std::printf("%-6s %10lld %8lld %7.0fB %10lld %10lld %10lld %10lld\n",
                name.c_str(), static_cast<long long>(t->NumTuples()),
                static_cast<long long>(t->NumPages()), width,
                static_cast<long long>(t->GetColumnStats("a").num_distinct),
                static_cast<long long>(
                    t->GetColumnStats("a20").num_distinct),
                static_cast<long long>(
                    t->GetColumnStats("ua1").num_distinct),
                static_cast<long long>(
                    t->GetColumnStats("u100").num_distinct));
  }
  std::printf("\ntotal heap size: %.1f MB (paper: ~110 MB with indexes "
              "and catalogs at scale 10000)\n",
              static_cast<double>(total_pages) * storage::kPageSize / 1e6);
  std::printf("indexes: B-trees on a, a1, a10, a20 of every table; "
              "'u'-prefixed attributes unindexed (paper §2).\n");
  return 0;
}
