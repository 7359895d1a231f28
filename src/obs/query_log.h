#ifndef PPP_OBS_QUERY_LOG_H_
#define PPP_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/ring.h"

namespace ppp::obs {

/// How much the optimizer trusted its selectivity/cost inputs for a plan:
/// the *weakest* source among the plan's predicates (a single declared-only
/// guess taints the whole plan's provenance). Ordered from weakest to
/// strongest, matching the provenance ladder feedback > stats > declared.
enum class StatsTier : int {
  kDeclared = 0,  // Catalog declarations only.
  kStats = 1,     // ANALYZE histograms/MCVs/NDV sketches.
  kFeedback = 2,  // Profiled observed costs and selectivities.
};

/// Lowercase name ("declared", "stats", "feedback") for display and the
/// ppp_query_log system table.
const char* StatsTierName(StatsTier tier);

/// One completed query, recorded at executor close time. Counter-valued
/// fields are exact per-query deltas of the global MetricsRegistry taken
/// around execution (see DESIGN §7), so concurrent instrumentation in the
/// same process never bleeds across records within one single-query engine.
struct QueryLogRecord {
  uint64_t query_id = 0;
  /// Serving-layer session that ran the query (0 outside the serve layer,
  /// e.g. direct bench/test ExecutePlan calls).
  uint64_t session_id = 0;
  /// FNV-1a of the bound QuerySpec's canonical text — the normalized query,
  /// stable across literal formatting but not across constants.
  uint64_t text_hash = 0;
  /// FNV-1a of the plan's structural signature (shape + placement), so
  /// repeated runs of one query group by plan.
  uint64_t plan_fingerprint = 0;
  std::string algorithm;
  double wall_seconds = 0.0;
  double optimize_seconds = 0.0;
  double execute_seconds = 0.0;
  uint64_t rows_in = 0;   // Tuples produced by leaf scans.
  uint64_t rows_out = 0;  // Tuples returned to the caller.
  uint64_t udf_invocations = 0;    // expr.udf.invocations delta.
  uint64_t cache_hits = 0;         // expr.function_cache.hits delta.
  uint64_t transfer_pruned = 0;    // exec.transfer.pruned delta.
  /// Predicates whose observed rank drifted past the profiler threshold.
  uint64_t drift_flags = 0;
  StatsTier stats_tier = StatsTier::kDeclared;
  /// 1 s time-series bucket (TimeSeries clock) the query finished in;
  /// equi-joins ppp_query_log against ppp_metrics_window.
  int64_t bucket = 0;
  /// PlanHistory verdicts for this execution: the plan's fingerprint
  /// differed from this text_hash's previous plan (plan_changed), and the
  /// changed-to plan was established as measurably slower (plan_regressed).
  bool plan_changed = false;
  bool plan_regressed = false;
};

/// Process-wide bounded ring of QueryLogRecords, the backing store of the
/// ppp_query_log system table. On by default; PPP_QUERY_LOG=0 (or \log off
/// in the shell) disables appends.
class QueryLog : public Ring<QueryLogRecord> {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  /// The log every executor records into. Standalone instances are legal
  /// (tests build private rings); the engine only ever touches Global().
  static QueryLog& Global();

  QueryLog();

  /// Issues the next query id (1, 2, ...). Ids are issued even while
  /// disabled, and Clear() does not reset them, so spans stay correlatable
  /// across a \log off window (they are identities, not positions).
  uint64_t NextQueryId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  std::atomic<uint64_t> next_id_{0};
};

}  // namespace ppp::obs

#endif  // PPP_OBS_QUERY_LOG_H_
