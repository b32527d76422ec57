// Shared declarations of the bvf_perf workloads (see benchmark/README.md).

#ifndef BENCHMARK_WORKLOADS_H_
#define BENCHMARK_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/trace.h"
#include "src/sanitizer/instrument.h"

namespace bvfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // measured time; 0 = one pass over the inputs
  bool trace = false;
  std::string trace_out;          // CSV span dump of a traced run ("" = none)
  std::vector<uint64_t> inputs;   // explicit input seeds (overrides the panel)
  int jobs = 0;                   // worker-count override (0 = the workload's)
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// One input the pins cover: a campaign (keyed by campaign seed) or the
// selftest corpus run on one set of contexts (keyed by context seed).
struct InputResult {
  uint64_t seed = 0;
  std::string digest;   // StatsDigest / run checksum
  double bugs = 0;      // distinct armed root causes triaged
  double coverage = 0;  // verifier branches covered
  uint64_t cases = 0;   // cases this run spent on the input
};

struct RunResult {
  std::vector<Metric> metrics;
  std::vector<InputResult> inputs;
  uint64_t attempted = 0;  // cases (or program loads) run
  uint64_t failed = 0;     // unclassified cases + cases of inputs failing a check
  std::vector<std::string> check_failures;
};

// Raw material of the per-layer metrics, filled by a workload's traced run.
// The "main" phase is single-threaded and runs the case call sequence with
// spans (the campaign replay, or the selftest rounds); the engine phase is
// the traced campaign engine (absent for selftest_exec).
struct LayerData {
  SpanTotals spans;    // main phase
  SpanTotals workers;  // engine workers: generate + epoch.shard
  SpanTotals coord;    // engine coordinator: epoch.wait + epoch.merge
  int64_t main_wall_ns = 0;
  int64_t engine_wall_ns = 0;
  int64_t engine_covered_ns = 0;  // engine wall with a shard or a merge running
  int jobs = 1;
  std::vector<int64_t> case_ns;  // per-case wall of the main phase
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t e2big_loads = 0;
  int64_t e2big_ns = 0;
  uint64_t accept_insns = 0;   // VerifierResult::insns_processed, accepts only
  uint64_t accept_pruned = 0;  // VerifierResult::states_pruned, accepts only
  uint32_t peak_states_max = 0;
  uint64_t exec_results = 0;  // ProgTestRun / XdpRun results
  uint64_t exec_failed = 0;   // ... with a non-zero err
  bvf::SanitizerStats sanitizer;
  uint64_t dcache_hits = 0;
  uint64_t dcache_lookups = 0;
  uint64_t dcache_evictions = 0;
  uint64_t campaigns = 0;
  uint64_t mm_bases = 0;
  uint64_t mm_variants = 0;
  uint64_t boots_derived = 0;  // substrate boots inside opaque library calls
  double overhead_pct = 0;     // traced vs untraced wall of the same work
};

// The least share of the traced wall that layer calls must cover.
constexpr double kMinAttributedShare = 0.95;

// Sets every per-layer metric, in BENCHMARK.json order, and fails the run
// when layer calls cover less than kMinAttributedShare of the traced wall.
// Also prints the main phase's self time per layer.
void SetLayerMetrics(const LayerData& data, RunResult& result);

// Inputs are drawn from a fixed pool of seeds 1..kInputPool so that every
// input a run can draw has a recorded pin (benchmark/pins.json).
constexpr uint64_t kInputPool = 64;

// The first |count| seeds of a |seed|-determined shuffle of
// first..kInputPool.
std::vector<uint64_t> DrawInputs(uint64_t seed, size_t count, uint64_t first = 1);

bool IsCampaignWorkload(const std::string& name);
RunResult RunCampaignWorkload(const RunArgs& args);
RunResult RunSelftestWorkload(const RunArgs& args);

// Moves the calling thread, and the threads it creates from then on, to the
// allowed CPU that currently runs a fixed calibration loop fastest. On a
// shared host each virtual CPU is slowed down for seconds at a time,
// independently of the others; a single-threaded measurement pinned to the
// quickest CPU before each campaign or round does not inherit those stretches.
// With |single_threaded| false, restores the process's original CPU set.
void PinToFastestCpu(bool single_threaded);

// Peak resident set of this process in MiB.
double PeakRssMb();

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace bvfbench

#endif  // BENCHMARK_WORKLOADS_H_
