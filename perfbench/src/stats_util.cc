#include "stats_util.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps float error (99.9 / 100 * 10000 = 9990.000000000002) from
/// bumping an exact rank up by one.
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 1 : static_cast<size_t>(rank);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = NearestRank(p, values.size()) - 1;
  return values[std::min(index, values.size() - 1)];
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // n - rank samples lie beyond the nearest rank.
    if (n >= NearestRank(p, n) + min_beyond) return p;
  }
  return 0.0;
}

double SelfTime(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = -1.0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (parent.end - parent.start) - covered;
}

LayerSum CheckLayerSum(double wall_us, double layers_us) {
  LayerSum out;
  out.wall_us = wall_us;
  out.layers_us = layers_us;
  out.unattributed_us = wall_us - layers_us;
  const double slack =
      std::max(kLayerSumRelTol * wall_us, kLayerSumAbsTolUs);
  out.ok = out.unattributed_us <= slack && out.unattributed_us >= -1e-3;
  return out;
}

}  // namespace perfbench
