#ifndef PPP_COST_COST_PARAMS_H_
#define PPP_COST_COST_PARAMS_H_

#include <cstddef>

namespace ppp::cost {

/// Cost of reading one page, sequentially or randomly. The paper's unit of
/// charge is one random I/O and it does not distinguish sequential reads, so
/// both are 1.
inline constexpr double kSeqPageIo = 1.0;
inline constexpr double kRandPageIo = 1.0;

/// Cost of one B-tree descent ("typically 3 I/Os or less", §3.2).
inline constexpr double kIndexProbeIos = 3.0;

/// Throughput multiplier of the vectorized cheap-predicate kernels over
/// scalar evaluation (bench_vector measures ≥5×; 8 is the model's figure).
inline constexpr double kVectorSpeedup = 8.0;

/// How the executor runs a plan, as far as the cost model prices it. Both
/// CostParams and exec::ExecParams inherit these fields, so the optimizer
/// and the executor read one declaration of each knob.
struct ExecStrategy {
  /// When true, rank calculations assume predicate caching (§5.1):
  /// join selectivities are computed on *values* rather than tuples and
  /// clamped at 1, and a Filter is charged for at most one evaluation per
  /// distinct input binding. The executor memoizes predicates (or
  /// functions, per ExecParams::cache_mode) only when it is set.
  /// Ablation A2.
  bool predicate_caching = true;

  /// Total threads (including the coordinator) that evaluate an expensive
  /// filter predicate's batch concurrently. 1 = serial execution,
  /// bit-identical to the tuple-at-a-time engine; counters stay exact at
  /// any setting (see ParallelPredicateEvaluator). The model divides a
  /// Filter's per-tuple predicate charge by the effective parallelism:
  /// expensive predicates are latency-bound (their cost is declared in
  /// random-I/O units), so concurrent workers overlap that latency. Join
  /// primaries are not parallelized by the executor and keep full cost.
  size_t parallel_workers = 1;

  /// Columnar fast path: scans decode pages straight into column-major
  /// ColumnBatches and FilterOp runs cheap conjuncts as vectorized kernels
  /// over a selection vector, evaluating expensive UDFs late against only
  /// the surviving positions. Results and invocation counters are
  /// identical either way (parity-tested); off forces the row-oriented
  /// batch pipeline everywhere. The model divides the cheap per-row charge
  /// (CostParams::cpu_tuple_cost) by kVectorSpeedup: making cheap
  /// predicates cheaper *sharpens* expensive predicate placement, it never
  /// reorders ranks (cheap predicates keep rank -inf and always apply
  /// first).
  bool vectorized = true;

  /// Predicate transfer: hash-join builds emit a Bloom filter over the
  /// build-side join key, and probe-side scans pre-filter their rows
  /// against it before any (expensive) predicate above them runs. The
  /// model applies every such join's probe-input selectivity at the scan,
  /// so expensive predicates on the probe side are ranked against
  /// post-transfer cardinalities, which keeps them below the join (a
  /// near-free filter has rank ≈ -1/0 — nothing beats it).
  bool predicate_transfer = false;
};

/// Knobs of the cost model. All costs are in random-I/O units, the same
/// currency as FunctionDef::cost_per_call, so "costly100 = 100" means one
/// hundred random page reads per invocation exactly as in the paper.
struct CostParams : ExecStrategy {
  /// Pages of working memory available to a sort or hash join before it
  /// must spill. Chosen well below the benchmark table sizes, mirroring the
  /// paper's 32 MB memory vs 110 MB database.
  double buffer_pages = 256.0;

  /// Merge fanout of the external sort.
  double sort_fanout = 8.0;

  /// When true (the Montage model of §3.2), a join node has a *different*
  /// selectivity for each input stream: sel over R = s * {S}. When false,
  /// the "global" cost model of [HS93a] is used (same selectivity `s` for
  /// both inputs) — the model the paper discards as inaccurate. Ablation A1.
  bool per_input_selectivity = true;

  /// When true (Montage behaviour, §5.2), `{R}` in per-input selectivities
  /// and differential costs is the *current* planned cardinality, including
  /// expensive selections currently placed below the join — risking
  /// over-eager pullup. When false, expensive selections below are assumed
  /// to pass everything (the under-eager direction). Ablation A4.
  bool current_cardinality_estimate = true;

  /// When true, predicate analysis consults obs::PredicateFeedbackStore for
  /// observed UDF cost/selectivity, overriding the static catalog numbers
  /// for any function that has been profiled (the \calibrate path).
  bool use_feedback = false;

  /// When true, predicate analysis consults collected ANALYZE statistics
  /// (histograms, MCVs, NDV sketches) for column selectivities and join
  /// distinct counts, overriding the declared catalog numbers for any
  /// table that has been analyzed. Sits between feedback and declared in
  /// the provenance ladder: feedback > stats > declared.
  bool use_collected_stats = true;

  /// Per-row CPU charge of evaluating a *cheap* (zero-declared-cost) filter
  /// predicate, in random-I/O units. Zero by default — the paper treats
  /// simple predicates as free, and the default keeps historical plans and
  /// cost assertions unchanged. Set it > 0 to study placement sensitivity
  /// to cheap-predicate CPU (e.g. very wide scans on fast storage).
  double cpu_tuple_cost = 0.0;
};

}  // namespace ppp::cost

#endif  // PPP_COST_COST_PARAMS_H_
