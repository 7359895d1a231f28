#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <map>
#include <string>

#include "answer.h"
#include "optimizer/algorithm.h"
#include "workload/database.h"

namespace perfbench {

/// The placement algorithm reference answers are planned with. The server
/// and the replay plan with serve::SessionOptions' default (Predicate
/// Migration); the reference must use another, so that a plan that drops,
/// duplicates or misplaces a predicate gives a different answer instead of
/// the same wrong one on both sides.
inline constexpr ppp::optimizer::Algorithm kReferenceAlgorithm =
    ppp::optimizer::Algorithm::kPushDown;

/// Answers wire requests without the serving path: each SELECT is parsed
/// and bound, optimized with kReferenceAlgorithm, and executed over a
/// fresh ExecContext with no plan cache, no shared predicate caches, no
/// predicate caching at all and the row-at-a-time (not the columnar)
/// path. The UDFs give their verdicts without the realized-cost work
/// (VerdictOnlyScope). Rows are digested as produced, not through the
/// wire codec. ANALYZE and PREPARE answer an empty OK (the
/// statistics do not change an answer, so ANALYZE is not run).
class ReferenceEngine {
 public:
  explicit ReferenceEngine(ppp::workload::Database* db) : db_(db) {}

  /// The answer `payload` ("QUERY ...", "PREPARE ...", "EXECUTE ...")
  /// must get. A PREPARE is remembered for the EXECUTEs that follow it.
  Answer Compute(const std::string& payload);

 private:
  ppp::workload::Database* db_;
  std::map<std::string, std::string> prepared_;  ///< Name -> $n body.
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
