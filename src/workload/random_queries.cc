#include "workload/random_queries.h"

#include <algorithm>

namespace ppp::workload {

namespace {

/// Join-column candidates; near-unique columns keep random join outputs
/// from exploding.
const char* const kJoinColumns[] = {"ua", "ua1", "a1", "a", "u10"};
const char* const kUdfInputs[] = {"ua", "ua1", "u10", "a1"};
const char* const kCostlyFns[] = {"costly1", "costly10", "costly100"};

}  // namespace

plan::QuerySpec RandomQuery(const BenchmarkConfig& config,
                            const RandomQueryOptions& options,
                            common::Random* rng) {
  plan::QuerySpec spec;

  const int num_tables = static_cast<int>(rng->NextInt64(
      options.min_tables, options.max_tables));
  std::vector<int> pool = config.table_numbers;
  for (int i = 0; i < num_tables && !pool.empty(); ++i) {
    const size_t pick = rng->NextUint64(pool.size());
    const int k = pool[pick];
    pool.erase(pool.begin() + static_cast<long>(pick));
    const std::string name = BenchmarkTableName(k);
    spec.tables.push_back({name, name});
  }

  // Chain joins between adjacent FROM entries.
  for (size_t i = 1; i < spec.tables.size(); ++i) {
    const char* left_col =
        kJoinColumns[rng->NextUint64(std::size(kJoinColumns))];
    const char* right_col =
        kJoinColumns[rng->NextUint64(std::size(kJoinColumns))];
    spec.conjuncts.push_back(
        expr::Eq(expr::Col(spec.tables[i - 1].alias, left_col),
                 expr::Col(spec.tables[i].alias, right_col)));
  }

  // Cheap range selections: tK.u10 < c with c a fraction of the domain.
  const int cheap = static_cast<int>(
      rng->NextUint64(static_cast<uint64_t>(options.max_cheap_predicates) +
                      1));
  for (int i = 0; i < cheap; ++i) {
    const size_t t = rng->NextUint64(spec.tables.size());
    const std::string& alias = spec.tables[t].alias;
    const int k = std::stoi(alias.substr(1));
    const int64_t domain =
        std::max<int64_t>(1, k * config.scale / 10);
    const int64_t threshold = rng->NextInt64(domain / 4, domain);
    spec.conjuncts.push_back(
        expr::Cmp(expr::CompareOp::kLt, expr::Col(alias, "u10"),
                  expr::Int(threshold)));
  }

  // Expensive predicates.
  const int expensive = static_cast<int>(rng->NextUint64(
      static_cast<uint64_t>(options.max_expensive_predicates) + 1));
  for (int i = 0; i < expensive; ++i) {
    const size_t t = rng->NextUint64(spec.tables.size());
    const std::string& alias = spec.tables[t].alias;
    const char* fn = kCostlyFns[rng->NextUint64(std::size(kCostlyFns))];
    const char* input = kUdfInputs[rng->NextUint64(std::size(kUdfInputs))];
    spec.conjuncts.push_back(
        expr::Call(fn, {expr::Col(alias, input)}));
  }
  return spec;
}

}  // namespace ppp::workload
