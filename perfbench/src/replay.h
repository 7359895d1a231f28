#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "answer.h"
#include "exec/shared_caches.h"
#include "optimizer/algorithm.h"
#include "serve/plan_cache.h"
#include "workload/database.h"
#include "workloads.h"

namespace perfbench {

/// The layers a replayed request passes through, one span each, in
/// serve::Session's order. kRequest is the root span around them all.
enum class Layer {
  kRequest,
  kNormalize,         ///< NormalizeSql / ParseStatement of the verb.
  kProbe,             ///< PlanCache::Probe (+ bindings or generic clone).
  kParseBindRewrite,  ///< subquery::ParseBindRewrite, on a miss.
  kOptimize,          ///< Optimizer::Optimize, on a miss.
  kInsert,            ///< PlanCache::Insert after a miss or generic hit.
  kExecute,           ///< exec::ExecutePlan.
  kAnalyze,           ///< stats::AnalyzeTable.
  kEncode,            ///< EncodeRowPayload + EncodeFrame of the response.
  kDecode,            ///< FrameParser::Feed + DecodeRowPayload/Schema.
  kCount,
};
inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);

/// Operator kinds, by the leading word of Operator::Describe().
inline constexpr std::array<const char*, 12> kOperatorKinds = {
    "SeqScan",   "IndexScan",      "Filter",     "NestedLoopJoin",
    "IndexNestedLoopJoin", "HashJoin", "MergeJoin", "Sort",
    "Materialize", "Aggregate",    "Project",    "Other"};
/// Index of an operator kind whose self time is page access and decoding
/// (the storage layer's share of execution).
bool IsScanKind(size_t kind);

/// One recorded span (traced replays only).
struct SpanRecord {
  Layer layer = Layer::kRequest;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< Index into the same replay's spans; -1 for roots.
  uint64_t request_id = 0;
};

/// One replayed request: its answer and, when traced, its layer split.
struct ReplayResult {
  Answer answer;
  double wall_us = 0.0;
  std::array<double, kNumLayers> layer_self_us{};
  std::array<bool, kNumLayers> layer_ran{};
  /// Request wall not covered by any layer span.
  double unattributed_us = 0.0;
  /// Executed tree's self time per kOperatorKinds entry (inclusive minus
  /// children, from OperatorStats).
  std::array<double, kOperatorKinds.size()> operator_self_us{};
  bool optimized = false;
  ppp::optimizer::DpStats dp_stats;
};

/// Re-runs a workload's request sequences in-process through each layer's
/// public entry point, in serve::Session::ExecuteSelect's order (and
/// ExecutePrepared's for EXECUTE), over a fresh plan cache and shared
/// predicate-cache registry of its own: normalize, probe, parse/bind/
/// rewrite and optimize on a miss, ExecutePlan, then the response encode
/// and decode. With `traced`, every call is wrapped in a span.
class Replay {
 public:
  Replay(ppp::workload::Database* db, bool traced);
  ~Replay();
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Replays the warm-up, then the measured sequence, on the calling
  /// thread as one connection. Returns the measured wall seconds.
  double Run(const WorkloadSpec& spec, std::vector<ReplayResult>* warmup,
             std::vector<ReplayResult>* measured);

  /// Spans of the measured sequence, for the Chrome trace (traced
  /// replays only).
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  class Client;

  ppp::workload::Database* db_;
  bool traced_;
  ppp::serve::PlanCache plan_cache_;
  ppp::exec::SharedPredicateCacheRegistry shared_caches_;
  uint64_t listener_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Writes the spans as Chrome trace-event JSON through obs::trace_export.
bool WriteTrace(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
