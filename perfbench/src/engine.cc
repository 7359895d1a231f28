#include "engine.h"

#include <chrono>
#include <utility>
#include <vector>

#include "catalog/function_registry.h"
#include "common/logging.h"
#include "workload/schema_gen.h"

namespace perfbench {

namespace {

struct Meter {
  std::array<std::atomic<uint64_t>, kUdfs.size()> calls{};
  std::atomic<uint64_t> busy_ns{0};
};

Meter& GlobalMeter() {
  static Meter meter;
  return meter;
}

/// Keeps the mixing loop from being optimized away.
std::atomic<uint64_t> g_sink{0};

thread_local bool t_verdict_only = false;

}  // namespace

uint64_t UdfCounts::TotalCalls() const {
  uint64_t total = 0;
  for (const uint64_t c : calls) total += c;
  return total;
}

double UdfCounts::ChargedUnits() const {
  double units = 0.0;
  for (size_t i = 0; i < kUdfs.size(); ++i) {
    units += static_cast<double>(calls[i]) * kUdfs[i].cost;
  }
  return units;
}

UdfCounts UdfCounts::operator-(const UdfCounts& base) const {
  UdfCounts out;
  for (size_t i = 0; i < kUdfs.size(); ++i) {
    out.calls[i] = calls[i] - base.calls[i];
  }
  out.busy_ns = busy_ns - base.busy_ns;
  return out;
}

VerdictOnlyScope::VerdictOnlyScope() { t_verdict_only = true; }

VerdictOnlyScope::~VerdictOnlyScope() { t_verdict_only = false; }

UdfCounts ReadUdfMeter() {
  const Meter& meter = GlobalMeter();
  UdfCounts out;
  for (size_t i = 0; i < kUdfs.size(); ++i) {
    out.calls[i] = meter.calls[i].load(std::memory_order_relaxed);
  }
  out.busy_ns = meter.busy_ns.load(std::memory_order_relaxed);
  return out;
}

std::unique_ptr<ppp::workload::Database> BuildDatabase(int64_t scale) {
  auto db = std::make_unique<ppp::workload::Database>();
  ppp::workload::BenchmarkConfig config;
  config.scale = scale;
  const ppp::common::Status loaded =
      ppp::workload::LoadBenchmarkDatabase(db.get(), config);
  PPP_CHECK(loaded.ok()) << loaded.ToString();

  ppp::catalog::FunctionRegistry stock;
  for (size_t i = 0; i < kUdfs.size(); ++i) {
    const UdfSpec& spec = kUdfs[i];
    PPP_CHECK(stock.RegisterCostlyPredicate(spec.name, spec.cost,
                                            spec.selectivity)
                  .ok());
    ppp::catalog::FunctionDef def = **stock.Lookup(spec.name);
    const uint64_t rounds =
        static_cast<uint64_t>(spec.cost * kRoundsPerCostUnit);
    def.impl = [verdict = std::move(def.impl), rounds,
                i](const std::vector<ppp::types::Value>& args) {
      if (t_verdict_only) return verdict(args);
      const auto start = std::chrono::steady_clock::now();
      ppp::types::Value result = verdict(args);
      uint64_t burn = args.empty() ? rounds : args[0].Hash();
      for (uint64_t r = 0; r < rounds; ++r) {
        burn ^= burn >> 33;
        burn *= 0xFF51AFD7ED558CCDULL;
        burn += r;
      }
      g_sink.store(burn, std::memory_order_relaxed);
      Meter& meter = GlobalMeter();
      meter.calls[i].fetch_add(1, std::memory_order_relaxed);
      meter.busy_ns.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()),
          std::memory_order_relaxed);
      return result;
    };
    PPP_CHECK(db->catalog().functions().Register(std::move(def)).ok());
  }
  return db;
}

}  // namespace perfbench
