// The repository benchmark: one workload of wire requests against an
// in-process net::Server on loopback, checked answer by answer against a
// reference planned with another placement algorithm, and replayed
// in-process, which must give the same answers and UDF totals; with
// --trace 1 a traced replay gives the per-layer split. The last line of
// standard output is the JSON result object. See perfbench/README.md.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "answer.h"
#include "engine.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "reference.h"
#include "replay.h"
#include "serve/session.h"
#include "stats_util.h"
#include "wire_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per run: at least kMinSetups, and more until kSetupBudgetS has
/// been spent, so a set-up of a tenth of a second is repeated enough for a
/// steady median. setup_s is the median; the last set-up is measured.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;

/// The server's statement workers. One closed-loop client sends the
/// requests, and the admission queue admits one statement per session, so
/// more workers would sit idle.
constexpr size_t kWorkers = 1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Heap the process holds, in MiB: bytes the allocator has handed out and
/// not had back, over all arenas, mmapped chunks included. The resident
/// set was not steady: with one arena per thread it depended on which
/// arena each server thread landed in, and jumped from 43 to 60 MiB in
/// about one run in four of the same seed.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

uint64_t CounterValue(const char* name) {
  return ppp::obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// Engine-wide counters read around a phase.
struct Counters {
  ppp::storage::IoStats io;
  uint64_t pred_cache_hits = 0;
  uint64_t pred_cache_misses = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_family_hits = 0;
  uint64_t plan_invalidations = 0;
  uint64_t plan_evictions = 0;
  uint64_t shed = 0;
  uint64_t timeouts = 0;
};

Counters ReadCounters(ppp::workload::Database* db,
                      ppp::serve::SessionManager* manager,
                      const ppp::net::Server* server) {
  Counters c;
  c.io = db->pool().stats();
  c.pred_cache_hits = CounterValue("exec.predicate_cache.hits");
  c.pred_cache_misses = CounterValue("exec.predicate_cache.misses");
  c.plan_hits = manager->plan_cache().hits();
  c.plan_misses = manager->plan_cache().misses();
  c.plan_family_hits = manager->plan_cache().family_hits();
  c.plan_invalidations = manager->plan_cache().invalidations();
  c.plan_evictions = manager->plan_cache().evictions();
  c.shed = server->admission().total_shed();
  c.timeouts = server->admission().total_timeouts();
  return c;
}

class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out;
    for (const Metric& m : metrics_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    out.empty() ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
      out += buf;
    }
    return "{" + out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Everything the wire phase produced.
struct WirePhase {
  std::vector<double> setup_seconds;      ///< Wall time of each set-up.
  std::vector<double> setup_cpu_seconds;  ///< Process CPU time of each.
  std::vector<WireResult> warmup;
  std::vector<WireResult> measured;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< Process CPU time of the measured phase.
  Counters before;
  Counters after;
  /// From server start (cold caches) to the last reply.
  UdfCounts udf;
  uint64_t lifetime_page_reads = 0;
  uint64_t shared_acquisitions = 0;
  uint64_t shared_reuses = 0;
  double heap_mb = 0.0;
};

/// Sets up repeatedly (data, load, ANALYZE, UDFs, server, warm-up),
/// keeping the last, then runs the measured phase over the wire.
bool RunWire(const WorkloadSpec& spec,
             std::unique_ptr<ppp::workload::Database>* db_out,
             WirePhase* out) {
  double setup_total_s = 0.0;
  for (int k = 0; k < kMaxSetups; ++k) {
    const auto start = std::chrono::steady_clock::now();
    const double cpu_start_us = ProcessCpuUs();
    auto db = BuildDatabase(spec.scale);
    const UdfCounts udf_base = ReadUdfMeter();
    const ppp::storage::IoStats io_base = db->pool().stats();
    auto manager = std::make_unique<ppp::serve::SessionManager>(db.get());
    ppp::net::Server::Options options;
    options.workers = kWorkers;
    auto server = std::make_unique<ppp::net::Server>(db.get(), manager.get(),
                                                     options);
    if (!server->Start().ok()) {
      std::fprintf(stderr, "server failed to start\n");
      return false;
    }
    auto client = std::make_unique<WireClient>();
    if (!client->Connect(server->port())) {
      std::fprintf(stderr, "client failed to connect\n");
      server->Stop();
      return false;
    }
    RunSequence(client.get(), spec.warmup, &out->warmup);
    out->setup_seconds.push_back(SecondsSince(start));
    out->setup_cpu_seconds.push_back((ProcessCpuUs() - cpu_start_us) / 1e6);
    setup_total_s += out->setup_seconds.back();
    const bool last = k + 1 == kMaxSetups ||
                      (k + 1 >= kMinSetups && setup_total_s >= kSetupBudgetS);
    if (last) {
      out->before = ReadCounters(db.get(), manager.get(), server.get());
      const double measured_cpu_us = ProcessCpuUs();
      out->wall_s = RunSequence(client.get(), spec.measured, &out->measured);
      out->cpu_s = (ProcessCpuUs() - measured_cpu_us) / 1e6;
      out->after = ReadCounters(db.get(), manager.get(), server.get());
      out->udf = ReadUdfMeter() - udf_base;
      out->lifetime_page_reads =
          out->after.io.TotalReads() - io_base.TotalReads();
      out->shared_acquisitions = manager->shared_caches().acquisitions();
      out->shared_reuses = manager->shared_caches().reuses();
      out->heap_mb = HeapInUseMb();
    }
    client.reset();  // The client hangs up before the server drains.
    server->Stop();
    server.reset();
    manager.reset();
    if (last) {
      *db_out = std::move(db);
      return true;
    }
  }
  return false;
}

/// Expected answers by request payload, from the ReferenceEngine: a
/// payload always has one answer (ANALYZE and PREPARE answer an empty OK),
/// so each distinct payload is answered once, in first-occurrence order.
class Expected {
 public:
  Expected(ppp::workload::Database* db, const WorkloadSpec& spec) {
    ReferenceEngine engine(db);
    for (const auto* seq : {&spec.warmup, &spec.measured}) {
      for (const std::string& payload : *seq) {
        if (answers_.count(payload) == 0) {
          answers_.emplace(payload, engine.Compute(payload));
        }
      }
    }
  }

  /// Checks the answer to each request of `spec` (warm-up, then
  /// measured) against the expected one; an error is never expected.
  template <typename Result>
  void Check(const WorkloadSpec& spec, const std::vector<Result>& warmup,
             const std::vector<Result>& measured, const char* what) {
    const size_t n = spec.warmup.size() + spec.measured.size();
    if (failed_.size() < n) failed_.resize(n, false);
    for (size_t i = 0; i < n; ++i) {
      const bool warm = i < spec.warmup.size();
      const size_t k = warm ? i : i - spec.warmup.size();
      const std::string& payload = warm ? spec.warmup[k] : spec.measured[k];
      const Answer& got = warm ? warmup[k].answer : measured[k].answer;
      const Answer& want = answers_.at(payload);
      if (got.ok && got == want) continue;
      if (reports_++ < 3) {
        std::printf("MISMATCH (%s): %.160s\n  expected ok=%d rows=%zu %s, "
                    "got ok=%d rows=%zu %s\n",
                    what, payload.c_str(), want.ok, want.rows,
                    want.error.c_str(), got.ok, got.rows, got.error.c_str());
      }
      failed_[i] = true;
    }
  }

  /// Requests whose answer was wrong, or an error, in any checked run.
  size_t failed_requests() const {
    return static_cast<size_t>(
        std::count(failed_.begin(), failed_.end(), true));
  }

 private:
  std::map<std::string, Answer> answers_;
  std::vector<bool> failed_;
  size_t reports_ = 0;
};

/// Compares a replay's UDF calls, per function, with the wire run's;
/// returns 1 on a difference, else 0.
size_t CheckUdfTotals(const UdfCounts& wire, const UdfCounts& replay,
                      const char* what) {
  if (replay.calls == wire.calls) return 0;
  std::printf("MISMATCH: UDF calls wire %llu vs %s %llu\n",
              static_cast<unsigned long long>(wire.TotalCalls()), what,
              static_cast<unsigned long long>(replay.TotalCalls()));
  return 1;
}

/// The per-layer split of the traced replay, plus the layer-sum check.
void AddTraceMetrics(const WorkloadSpec& spec,
                     const std::vector<ReplayResult>& traced,
                     MetricSink* sink) {
  std::array<std::vector<double>, kNumLayers> layer_us;
  std::array<double, kOperatorKinds.size()> op_us{};
  double wall = 0.0;
  double unattributed = 0.0;
  size_t layer_sum_ok = 0;
  double dp_generated = 0.0;
  double dp_pruned = 0.0;
  double dp_retained = 0.0;
  std::map<std::string, double> group;
  for (const ReplayResult& r : traced) {
    wall += r.wall_us;
    unattributed += r.unattributed_us;
    if (CheckLayerSum(r.wall_us, r.wall_us - r.unattributed_us).ok) {
      ++layer_sum_ok;
    }
    for (size_t l = 1; l < kNumLayers; ++l) {
      if (r.layer_ran[l]) layer_us[l].push_back(r.layer_self_us[l]);
    }
    double scan_us = 0.0;
    for (size_t k = 0; k < kOperatorKinds.size(); ++k) {
      op_us[k] += r.operator_self_us[k];
      if (IsScanKind(k)) scan_us += r.operator_self_us[k];
    }
    const auto at = [&r](Layer l) {
      return r.layer_self_us[static_cast<size_t>(l)];
    };
    group["front"] += at(Layer::kNormalize) + at(Layer::kEncode) +
                      at(Layer::kDecode);
    group["serve"] += at(Layer::kProbe) + at(Layer::kInsert);
    group["plan"] += at(Layer::kParseBindRewrite) + at(Layer::kOptimize);
    group["exec"] += at(Layer::kExecute) - scan_us;
    group["storage"] += scan_us;
    group["stats"] += at(Layer::kAnalyze);
    if (r.optimized) {
      dp_generated += static_cast<double>(r.dp_stats.subplans_generated);
      dp_pruned += static_cast<double>(r.dp_stats.subplans_pruned);
      dp_retained += static_cast<double>(r.dp_stats.subplans_retained);
    }
  }
  const auto layer = [&](Layer l, const std::string& name, double scale,
                         const std::string& unit) {
    const std::vector<double>& v = layer_us[static_cast<size_t>(l)];
    sink->Add(name + ".p50", Percentile(v, 50) * scale, unit);
    sink->Add(name + ".p99", Percentile(v, 99) * scale, unit);
  };
  layer(Layer::kNormalize, "parser.normalize_us", 1.0, "us");
  layer(Layer::kParseBindRewrite, "parser.parse_bind_rewrite_us", 1.0, "us");
  layer(Layer::kProbe, "serve.plan_cache.probe_us", 1.0, "us");
  layer(Layer::kOptimize, "optimizer.optimize_us", 1.0, "us");
  layer(Layer::kExecute, "exec.execute_us", 1.0, "us");
  layer(Layer::kAnalyze, "stats.analyze_ms", 1e-3, "ms");
  layer(Layer::kEncode, "net.encode_us", 1.0, "us");
  layer(Layer::kDecode, "net.decode_us", 1.0, "us");
  const size_t n = traced.size();
  const double dn = static_cast<double>(n);
  sink->Add("optimizer.subplans_generated", Ratio(dp_generated, dn),
            "count/query");
  sink->Add("optimizer.subplans_pruned", Ratio(dp_pruned, dn), "count/query");
  sink->Add("optimizer.plans_retained", Ratio(dp_retained, dn),
            "count/query");
  for (size_t k = 0; k < kOperatorKinds.size(); ++k) {
    sink->Add(std::string("exec.self_us.") + kOperatorKinds[k],
              Ratio(op_us[k], dn), "us/query");
  }
  sink->Add("trace.layer_sum_ok_frac",
            Ratio(static_cast<double>(layer_sum_ok), dn), "fraction");
  sink->Add("trace.unattributed_frac", Ratio(unattributed, wall),
            "fraction");
  for (const auto& [name, us] : group) {
    sink->Add("layer.share." + name, Ratio(us, wall), "fraction");
  }

  // The layer split each workload was chosen for.
  std::vector<std::string> intended;
  if (spec.name == "hot_mix") intended = {"exec"};
  if (spec.name == "adhoc") intended = {"plan"};
  if (spec.name == "prepared_refresh") intended = {"storage", "stats", "plan"};
  double intended_us = 0.0;
  double largest_other = 0.0;
  for (const auto& [name, us] : group) {
    if (std::find(intended.begin(), intended.end(), name) != intended.end()) {
      intended_us += us;
    } else {
      largest_other = std::max(largest_other, us);
    }
  }
  const bool largest = intended_us > largest_other;
  sink->Add("layer.intended_largest", largest ? 1.0 : 0.0, "bool");
  std::printf("layer split: intended share %.3f vs largest other %.3f (%s); "
              "layer sums within max(%.0f%% of wall, %.0f us) on %zu/%zu "
              "requests\n",
              Ratio(intended_us, wall), Ratio(largest_other, wall),
              largest ? "as intended" : "NOT the largest",
              kLayerSumRelTol * 100, kLayerSumAbsTolUs, layer_sum_ok, n);
}

volatile uint64_t calibration_sink = 0;

/// Wall time of a fixed chain of integer mixing (~3 ms). Wall time, so a
/// CPU another process keeps busy, or the host keeps taking away, reads
/// slow.
double CalibrationUs() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  calibration_sink = x;
  return SecondsSince(start) * 1e6;
}

/// Pins the process, and every thread it starts later, to the allowed CPU
/// on which CalibrationUs runs fastest (median of three passes); returns
/// that CPU, or -1 if the affinity could not be read or set. The machine
/// is a few cores of a shared host: with the client and server threads
/// free to move, one seed's figures moved by up to 25% between runs with
/// where the threads landed, and the cores themselves run at different
/// speeds as the host's other load comes and goes. On one core every
/// hand-off between the client and the server's threads is a local
/// context switch.
int PinToFastestCpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<std::vector<double>> times(cpus.size());
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < cpus.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      if (::sched_setaffinity(0, sizeof(one), &one) != 0) continue;
      times[i].push_back(CalibrationUs());
    }
  }
  int best = -1;
  double best_us = 0.0;
  for (size_t i = 0; i < cpus.size(); ++i) {
    if (times[i].empty()) continue;
    const double us = Percentile(times[i], 50);
    if (best < 0 || us < best_us) {
      best = cpus[i];
      best_us = us;
    }
  }
  if (best < 0) {
    ::sched_setaffinity(0, sizeof(allowed), &allowed);
    return -1;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? best : -1;
}

int Run(const Args& args) {
  if (ppp::serve::SessionOptions().algorithm == kReferenceAlgorithm) {
    std::fprintf(stderr, "the reference must plan with another algorithm "
                 "than the sessions\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.seed, args.seconds, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int cpu = PinToFastestCpu();
  std::printf("workload %s seed %llu: scale %lld, 1 client, %zu worker, "
              "%zu warm-up + %zu measured requests, %.0f mixing rounds per "
              "cost unit; pinned to CPU %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(spec.scale), kWorkers,
              spec.warmup.size(), spec.measured.size(), kRoundsPerCostUnit,
              cpu);
  std::fflush(stdout);

  std::unique_ptr<ppp::workload::Database> db;
  WirePhase wire;
  if (!RunWire(spec, &db, &wire)) return 1;

  const auto reference_start = std::chrono::steady_clock::now();
  Expected expected(db.get(), spec);
  const double reference_s = SecondsSince(reference_start);
  expected.Check(spec, wire.warmup, wire.measured, "wire");

  // In-process replays of the whole sequence over fresh caches: an
  // untraced one, and with --trace 1 a traced one and a second untraced
  // one. Each must give the expected answers and the wire run's UDF totals
  // per function. The machine's speed drifts by up to ~15% over a run, so
  // the traced wall is compared with the mean of the untraced walls before
  // and after it.
  size_t udf_mismatches = 0;
  std::vector<double> untraced_walls_s;
  double traced_wall_s = 0.0;
  std::vector<ReplayResult> traced;
  const std::vector<bool> passes = args.trace
                                      ? std::vector<bool>{false, true, false}
                                      : std::vector<bool>{false};
  for (const bool traced_pass : passes) {
    const char* what = traced_pass ? "traced replay" : "replay";
    const UdfCounts base = ReadUdfMeter();
    std::vector<ReplayResult> warmup;
    std::vector<ReplayResult> measured;
    Replay replay(db.get(), traced_pass);
    const double wall_s = replay.Run(spec, &warmup, &measured);
    expected.Check(spec, warmup, measured, what);
    udf_mismatches += CheckUdfTotals(wire.udf, ReadUdfMeter() - base, what);
    if (!traced_pass) {
      untraced_walls_s.push_back(wall_s);
      continue;
    }
    traced_wall_s = wall_s;
    traced = std::move(measured);
    if (!args.trace_out.empty() &&
        !WriteTrace(args.trace_out, replay.spans())) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }
  const double untraced_wall_s =
      (untraced_walls_s.front() + untraced_walls_s.back()) / 2;

  const size_t attempted = spec.warmup.size() + spec.measured.size();
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms;
  std::vector<double> overhead_us;
  uint64_t bytes = 0;
  uint64_t frames = 0;
  for (const WireResult& r : wire.measured) {
    latency_ms.push_back(r.latency_us / 1e3);
    cpu_ms.push_back(r.cpu_us / 1e3);
    overhead_us.push_back(r.latency_us - r.server_us);
    bytes += r.bytes;
    frames += r.frames;
  }

  const double n = static_cast<double>(latency_ms.size());
  if (HighestSupportedPercentile(latency_ms.size()) < 99.0) {
    std::fprintf(stderr, "too few samples (%zu) for a p99\n",
                 latency_ms.size());
    return 1;
  }
  const ppp::storage::IoStats& io0 = wire.before.io;
  const ppp::storage::IoStats& io1 = wire.after.io;
  const double page_reads = static_cast<double>(io1.TotalReads()) -
                            static_cast<double>(io0.TotalReads());
  const double buffer_hits = static_cast<double>(io1.buffer_hits) -
                             static_cast<double>(io0.buffer_hits);

  MetricSink e2e;
  // Times are process CPU time (client and server threads), not wall
  // time: the machine is a few cores of a shared host, and wall time
  // moved by 30-50% between runs of the same code with the host's load.
  // CPU time leaves out time the process waited for a core or was
  // preempted (the kernel accounts steal time apart).
  e2e.Add("setup_s", Percentile(wire.setup_cpu_seconds, 50), "s");
  e2e.Add("throughput_cpu_qps", n / wire.cpu_s, "1/s");
  e2e.Add("latency_cpu_p50_ms", Percentile(cpu_ms, 50), "ms");
  e2e.Add("latency_cpu_p99_ms", Percentile(cpu_ms, 99), "ms");
  e2e.Add("udf_calls_per_query",
          static_cast<double>(wire.udf.TotalCalls()) / attempted, "count");
  e2e.Add("charged_units_per_query",
          (static_cast<double>(wire.lifetime_page_reads) +
           wire.udf.ChargedUnits()) /
              attempted,
          "units");
  e2e.Add("heap_mb", wire.heap_mb, "MiB");

  MetricSink layers;
  if (args.trace) {
    const Counters& b = wire.before;
    const Counters& a = wire.after;
    size_t executes = 0;
    for (const std::string& payload : spec.measured) {
      if (payload.rfind("EXECUTE", 0) == 0) ++executes;
    }
    layers.Add("net.overhead_us.p50", Percentile(overhead_us, 50), "us");
    layers.Add("net.overhead_us.p99", Percentile(overhead_us, 99), "us");
    layers.Add("net.bytes_per_query", static_cast<double>(bytes) / n,
               "bytes");
    layers.Add("net.frames_per_query", static_cast<double>(frames) / n,
               "count");
    layers.Add("net.shed", static_cast<double>(a.shed - b.shed), "count");
    layers.Add("net.timeouts", static_cast<double>(a.timeouts - b.timeouts),
               "count");
    layers.Add("net.front_door_frac",
               Ratio(wire.wall_s - untraced_wall_s, wire.wall_s), "fraction");
    const double hits = static_cast<double>(a.plan_hits - b.plan_hits);
    const double misses = static_cast<double>(a.plan_misses - b.plan_misses);
    layers.Add("serve.plan_cache.hit_ratio", Ratio(hits, hits + misses),
               "fraction");
    layers.Add("serve.plan_cache.generic_hit_ratio",
               Ratio(static_cast<double>(a.plan_family_hits -
                                         b.plan_family_hits),
                     static_cast<double>(executes)),
               "fraction");
    layers.Add("serve.plan_cache.invalidations",
               static_cast<double>(a.plan_invalidations -
                                   b.plan_invalidations),
               "count");
    layers.Add("serve.plan_cache.evictions",
               static_cast<double>(a.plan_evictions - b.plan_evictions),
               "count");
    layers.Add("serve.shared_caches.reuse_ratio",
               Ratio(static_cast<double>(wire.shared_reuses),
                     static_cast<double>(wire.shared_acquisitions)),
               "fraction");
    const double pc_hits =
        static_cast<double>(a.pred_cache_hits - b.pred_cache_hits);
    const double pc_misses =
        static_cast<double>(a.pred_cache_misses - b.pred_cache_misses);
    layers.Add("exec.pred_cache.hit_ratio", Ratio(pc_hits, pc_hits + pc_misses),
               "fraction");
    for (size_t i = 0; i < kUdfs.size(); ++i) {
      layers.Add(std::string("expr.udf_calls.") + kUdfs[i].name,
                 static_cast<double>(wire.udf.calls[i]) / attempted,
                 "count/query");
    }
    layers.Add("expr.udf_busy_us",
               static_cast<double>(wire.udf.busy_ns) / 1e3 / attempted,
               "us/query");
    layers.Add("storage.page_reads_per_query", page_reads / n, "count");
    layers.Add("storage.buffer_hit_ratio",
               Ratio(buffer_hits, buffer_hits + page_reads), "fraction");
    layers.Add("trace.overhead_frac",
               Ratio(traced_wall_s - untraced_wall_s, untraced_wall_s),
               "fraction");
    AddTraceMetrics(spec, traced, &layers);
  }

  // A replay whose UDF totals differ from the wire run's counts as one
  // failure.
  const size_t failed =
      std::min(attempted, expected.failed_requests() + udf_mismatches);
  const bool correct = failed == 0;
  std::printf("answers: %zu wire requests and %zu replays checked against "
              "the %s reference, %zu failed or mismatched; UDF calls %llu "
              "on the wire, equal in every replay: %s; %zu set-ups\n",
              attempted, untraced_walls_s.size() + (args.trace ? 1 : 0),
              ppp::optimizer::AlgorithmName(kReferenceAlgorithm),
              failed, static_cast<unsigned long long>(wire.udf.TotalCalls()),
              udf_mismatches == 0 ? "yes" : "NO", wire.setup_seconds.size());
  std::printf("latency samples %zu (p99 has %zu beyond it); failed_frac "
              "%.6f; wire %.3f s, reference %.3f s, untraced replay %.3f "
              "s",
              latency_ms.size(),
              latency_ms.size() - static_cast<size_t>(std::ceil(0.99 * n)),
              Ratio(static_cast<double>(failed), attempted), wire.wall_s,
              reference_s, untraced_walls_s.front());
  if (args.trace) {
    std::printf(", traced replay %.3f s, second untraced replay %.3f s",
                traced_wall_s, untraced_walls_s.back());
  }
  std::printf("\n");
  std::printf("wall clock (not a metric: it moves with the host's load): "
              "set-up %.3f s, %.2f requests/s, latency p50 %.3f ms, p99 "
              "%.3f ms\n",
              Percentile(wire.setup_seconds, 50), n / wire.wall_s,
              Percentile(latency_ms, 50), Percentile(latency_ms, 99));
  std::printf("end-to-end metrics:\n");
  e2e.Print();
  if (args.trace) {
    std::printf("per-layer metrics:\n");
    layers.Print();
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              (args.trace ? layers : e2e).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload hot_mix|adhoc|prepared_refresh "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
