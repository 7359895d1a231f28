#ifndef PPP_WORKLOAD_SCHEMA_GEN_H_
#define PPP_WORKLOAD_SCHEMA_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/database.h"

namespace ppp::workload {

/// The benchmark database of §2, reconstructed: the Hong–Stonebraker
/// schema with cardinalities scaled by `scale` per table number.
///
/// Table `tK` holds `K * scale` 100-byte tuples (the paper uses
/// scale = 10 000 for ~110 MB total; the default here keeps benches fast)
/// with columns following the paper's naming conventions:
///
///   a     indexed, unique (a permutation of 0..n-1)
///   a1    indexed, each value repeated ~1 time   (uniform over [0, n))
///   a10   indexed, ~10 repetitions               (uniform over [0, n/10))
///   a20   indexed, ~20 repetitions               (uniform over [0, n/20))
///   ua    unindexed, unique
///   ua1   unindexed, ~1 repetition
///   u10   unindexed, ~10 repetitions
///   u100  unindexed, ~100 repetitions
///   pad   string padding to ~100 bytes/tuple
///
/// Attributes starting with 'u' are unindexed; the rest carry B-trees.
/// "~1 repetition" draws uniformly from a domain equal to the cardinality,
/// so the distinct count is ≈ 0.632 n — which is how the paper's t9.ua
/// (exactly unique, 0.9n') can have *more* values than t10.ua1 (≈0.632 n).
struct BenchmarkConfig {
  int64_t scale = 2000;
  /// Which tK tables to create (the paper's queries use these six).
  std::vector<int> table_numbers = {1, 3, 6, 7, 9, 10};
  uint64_t seed = 42;
};

/// The name of benchmark table number `k`: "tK".
std::string BenchmarkTableName(int k);

/// Creates, loads, indexes and analyzes the benchmark tables.
common::Status LoadBenchmarkDatabase(Database* db,
                                     const BenchmarkConfig& config);

/// Registers the paper's function families: costly1/10/100/1000 (boolean
/// selections with the named cost in random I/Os, selectivity 0.5) and
/// match100 (an expensive join predicate, cost 100, selectivity 0.002).
common::Status RegisterBenchmarkFunctions(Database* db);

}  // namespace ppp::workload

#endif  // PPP_WORKLOAD_SCHEMA_GEN_H_
