#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One workload's inputs: the database scale, an untimed warm-up sequence
/// and the measured sequence, sent by one closed-loop client. Every entry
/// is a wire request payload ("QUERY ...", "PREPARE ...", "EXECUTE ...").
struct WorkloadSpec {
  std::string name;
  int64_t scale = 0;
  std::vector<std::string> warmup;
  std::vector<std::string> measured;
};

/// Builds `name`'s request sequences from `seed`. The measured sequence
/// has a fixed length derived from `seconds` (a per-workload nominal rate,
/// at least 1,000 requests in all), so the same seed and seconds always
/// send exactly the same requests. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                  WorkloadSpec* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
