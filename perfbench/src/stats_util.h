#ifndef PERFBENCH_STATS_UTIL_H_
#define PERFBENCH_STATS_UTIL_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (`p` in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// The highest percentile of the ladder 99.9, 99, 95, 90, 75, 50 that
/// leaves at least `min_beyond` of `n` samples strictly above its rank, so
/// a reported tail is never one or two stray samples. 0 when even the
/// median has fewer than `min_beyond` samples beyond it.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// A closed interval on one clock, in microseconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of `parent`: its duration minus the part of it covered by the
/// union of `children` (clipped to the parent). Overlapping children, such
/// as parallel workers, are counted once.
double SelfTime(const Interval& parent, std::vector<Interval> children);

/// Outcome of checking that a request's layer self times add up to its
/// wall time.
struct LayerSum {
  double wall_us = 0.0;
  double layers_us = 0.0;
  /// wall_us - layers_us: time inside the request but in no layer.
  double unattributed_us = 0.0;
  bool ok = false;
};

/// The stated tolerance: layers may leave unattributed at most
/// max(kLayerSumRelTol * wall, kLayerSumAbsTolUs), and may never sum to
/// more than the wall (beyond float rounding), which would mean a layer
/// was counted twice.
inline constexpr double kLayerSumRelTol = 0.05;
inline constexpr double kLayerSumAbsTolUs = 25.0;

LayerSum CheckLayerSum(double wall_us, double layers_us);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_UTIL_H_
