#include "workload/schema_gen.h"

#include <numeric>

#include "common/random.h"
#include "common/string_util.h"
#include "types/tuple.h"

namespace ppp::workload {

namespace {

/// A fixed-point permutation value: (i * step) % n with gcd(step, n) == 1,
/// giving a deterministic shuffle of 0..n-1.
int64_t CoprimeStep(int64_t n) {
  int64_t step = 1000003;  // A prime well above any benchmark cardinality.
  while (std::gcd(step, n) != 1) step += 2;
  return step;
}

}  // namespace

std::string BenchmarkTableName(int k) {
  std::string name = "t";
  name += std::to_string(k);
  return name;
}

common::Status LoadBenchmarkDatabase(Database* db,
                                     const BenchmarkConfig& config) {
  for (const int k : config.table_numbers) {
    const std::string name = BenchmarkTableName(k);
    const int64_t n = static_cast<int64_t>(k) * config.scale;

    std::vector<catalog::ColumnDef> columns = {
        {"a", types::TypeId::kInt64},    {"a1", types::TypeId::kInt64},
        {"a10", types::TypeId::kInt64},  {"a20", types::TypeId::kInt64},
        {"ua", types::TypeId::kInt64},   {"ua1", types::TypeId::kInt64},
        {"u10", types::TypeId::kInt64},  {"u100", types::TypeId::kInt64},
        {"pad", types::TypeId::kString},
    };
    PPP_ASSIGN_OR_RETURN(catalog::Table * table,
                         db->catalog().CreateTable(name, std::move(columns)));

    common::Random rng(config.seed + static_cast<uint64_t>(k) * 7919);
    // Two distinct steps coprime with n, so `a` and `ua` are different
    // shuffles of 0..n-1.
    const int64_t step_a = CoprimeStep(n);
    int64_t step_ua = step_a + 2;
    while (std::gcd(step_ua, n) != 1) step_ua += 2;
    const int64_t dom10 = std::max<int64_t>(1, n / 10);
    const int64_t dom20 = std::max<int64_t>(1, n / 20);
    const int64_t dom100 = std::max<int64_t>(1, n / 100);
    // ua1 draws from a domain slightly below the cardinality (~1.1 repeats
    // per value). Chosen as 0.9 n so that t9.ua (a permutation of
    // 0..0.9|t10|-1) covers t10.ua1's domain exactly: the t9 ⋈ t10 join of
    // Query 2 then has true selectivity 1 over t10, as the paper states.
    const int64_t dom_ua1 = std::max<int64_t>(1, (n * 9) / 10);
    const std::string pad(20, 'x');

    for (int64_t i = 0; i < n; ++i) {
      types::Tuple tuple({
          types::Value((i * step_a) % n),                       // a
          types::Value(static_cast<int64_t>(rng.NextUint64(
              static_cast<uint64_t>(n)))),                      // a1
          types::Value(static_cast<int64_t>(rng.NextUint64(
              static_cast<uint64_t>(dom10)))),                  // a10
          types::Value(static_cast<int64_t>(rng.NextUint64(
              static_cast<uint64_t>(dom20)))),                  // a20
          types::Value((i * step_ua + 1) % n),                  // ua
          types::Value(static_cast<int64_t>(rng.NextUint64(
              static_cast<uint64_t>(dom_ua1)))),                // ua1
          types::Value(static_cast<int64_t>(rng.NextUint64(
              static_cast<uint64_t>(dom10)))),                  // u10
          types::Value(static_cast<int64_t>(rng.NextUint64(
              static_cast<uint64_t>(dom100)))),                 // u100
          types::Value(pad),                                    // pad
      });
      PPP_RETURN_IF_ERROR(table->Insert(tuple));
    }

    for (const char* indexed : {"a", "a1", "a10", "a20"}) {
      PPP_RETURN_IF_ERROR(table->CreateIndex(indexed));
    }
    PPP_RETURN_IF_ERROR(table->Analyze());
  }
  return common::Status::OK();
}

common::Status RegisterBenchmarkFunctions(Database* db) {
  catalog::FunctionRegistry& functions = db->catalog().functions();
  PPP_RETURN_IF_ERROR(
      functions.RegisterCostlyPredicate("costly1", 1.0, 0.5));
  PPP_RETURN_IF_ERROR(
      functions.RegisterCostlyPredicate("costly10", 10.0, 0.5));
  PPP_RETURN_IF_ERROR(
      functions.RegisterCostlyPredicate("costly100", 100.0, 0.5));
  PPP_RETURN_IF_ERROR(
      functions.RegisterCostlyPredicate("costly1000", 1000.0, 0.5));
  // An expensive *join* predicate: the Q5 ingredient. Selectivity is in the
  // ballpark of an equi-join over ~500-value domains.
  PPP_RETURN_IF_ERROR(
      functions.RegisterCostlyPredicate("match100", 100.0, 0.002));
  // A highly selective expensive selection (Q5's costly filter): keeping it
  // low in the plan shrinks the cross product the expensive join sees.
  PPP_RETURN_IF_ERROR(
      functions.RegisterCostlyPredicate("selective100", 100.0, 0.1));
  return common::Status::OK();
}

}  // namespace ppp::workload
