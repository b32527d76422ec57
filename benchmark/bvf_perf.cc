// bvf_perf: runs one benchmark workload and prints its metrics.
//
//   bvf_perf --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out PATH] [--inputs A,B,...] [--jobs N]
//
// Workloads: campaign, oracles_j4, selftest_exec (benchmark/README.md).
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// --inputs replaces the seed-drawn inputs (campaign seeds or a corpus seed);
// --jobs overrides the workload's worker count (used to record pins).
//
// Human-readable lines go first; the last line of standard output is one JSON
// object: host, metrics (name -> {value, unit}), the per-input results the
// pins cover, attempted/failed counts and failed in-run checks.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "benchmark/workloads.h"
#include "src/kernel/rng.h"
#include "src/runtime/jit_prog.h"

#ifndef BVF_BENCH_BUILD_TYPE
#define BVF_BENCH_BUILD_TYPE "unknown"
#endif

namespace bvfbench {

std::vector<uint64_t> DrawInputs(uint64_t seed, size_t count, uint64_t first) {
  std::vector<uint64_t> pool;
  for (uint64_t s = first; s <= kInputPool; ++s) {
    pool.push_back(s);
  }
  bpf::Rng rng(seed ^ 0x62766662656e6368ull);
  for (size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[rng.Next() % (i + 1)]);
  }
  pool.resize(std::min(count, pool.size()));
  return pool;
}

namespace {

// About 0.1 ms of dependent loads and integer work over a 64 KiB table, the
// same on every call.
int64_t CalibrationNs() {
  static std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(16384);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    return t;
  }();
  const int64_t start = NowNs();
  uint32_t x = 1;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    x += table[x & 16383];
  }
  volatile uint32_t sink = x;
  static_cast<void>(sink);
  return NowNs() - start;
}

}  // namespace

void PinToFastestCpu(bool single_threaded) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  if (!single_threaded) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
  int best_cpu = -1;
  int64_t best_ns = INT64_MAX;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      continue;
    }
    const int64_t ns = std::min(CalibrationNs(), CalibrationNs());
    if (ns < best_ns) {
      best_ns = ns;
      best_cpu = cpu;
    }
  }
  if (best_cpu < 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best_cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void SetLayerMetrics(const LayerData& d, RunResult& result) {
  const auto per = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const SpanTotals& s = d.spans;
  const double cases = static_cast<double>(d.case_ns.size());
  const double main_us = d.main_wall_ns / 1e3;
  const auto self_share = [&](SpanKind kind) { return per(s.SelfUs(kind), main_us); };

  // Per-case latency of the main phase.
  std::vector<int64_t> sorted = d.case_ns;
  std::sort(sorted.begin(), sorted.end());
  const auto pct_us = [&](double q) {
    return sorted.empty() ? 0.0
                          : sorted[std::min(sorted.size() - 1,
                                            static_cast<size_t>(q * sorted.size()))] /
                                1e3;
  };
  double all_ns = 0;
  double tail_ns = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    all_ns += sorted[i];
    tail_ns += i >= sorted.size() - sorted.size() / 100 ? sorted[i] : 0;
  }

  // Traced wall: the engine's wall plus the main phase's. Attributed: engine
  // wall during which some worker runs a shard or the coordinator merges, and
  // the main phase's self time in library calls (not in container spans).
  const double traced_us = (d.engine_wall_ns + d.main_wall_ns) / 1e3;
  const double attributed_us = (d.engine_covered_ns + s.attributed_ns) / 1e3;
  const double unattributed = 1.0 - per(attributed_us, traced_us);
  if (unattributed > 1.0 - kMinAttributedShare) {
    char why[128];
    snprintf(why, sizeof(why), "layer calls cover %.1f%% of the traced wall, below %.0f%%",
             100.0 * (1.0 - unattributed), 100.0 * kMinAttributedShare);
    result.check_failures.push_back(why);
  }
  const double loads = static_cast<double>(d.accepted + d.rejected);

  std::map<std::string, double> layer_us;
  for (size_t k = 0; k < kNumSpanKinds; ++k) {
    layer_us[SpanLayer(static_cast<SpanKind>(k))] += s.SelfUs(static_cast<SpanKind>(k));
  }
  printf("main-phase self time by layer (%.0f cases, %.3f s traced):\n", cases, main_us / 1e6);
  for (const auto& [layer, us] : layer_us) {
    printf("  %-10s %6.2f%%\n", layer.c_str(), 100.0 * per(us, main_us));
  }

  result.metrics = {
      {"generator.us_per_case", d.workers.UsPer(SpanKind::kGenerate), "us"},
      {"case.p50_us", pct_us(0.50), "us"},
      {"case.p99_us", pct_us(0.99), "us"},
      {"case.tail1pct_share", per(tail_ns, all_ns), "share"},
      {"load.us_per_call", per(s.SelfUs(SpanKind::kLoad), s.Count(SpanKind::kLoad)), "us"},
      {"load.time_share", self_share(SpanKind::kLoad), "share"},
      {"load.reject_share", per(d.rejected, loads), "share"},
      {"load.e2big_calls", 1000.0 * per(d.e2big_loads, cases), "count/kcase"},
      {"load.e2big_time_share", per(d.e2big_ns / 1e3, main_us), "share"},
      {"verifier.insns_per_accept", per(d.accept_insns, d.accepted), "count"},
      {"verifier.states_pruned_per_accept", per(d.accept_pruned, d.accepted), "count"},
      {"verifier.peak_states_max", static_cast<double>(d.peak_states_max), "count"},
      {"audit.us_per_exec", s.UsPer(SpanKind::kAudit), "us"},
      {"maps.us_per_case", per(s.TotalUs(SpanKind::kMaps), cases), "us"},
      {"oracle.classify_us_per_case", per(s.TotalUs(SpanKind::kClassify), cases), "us"},
      {"dcache.hit_rate", per(d.dcache_hits, d.dcache_lookups), "share"},
      {"dcache.evictions", per(d.dcache_evictions, d.campaigns), "count/campaign"},
      {"reset.us_per_case", per(s.TotalUs(SpanKind::kReset), cases), "us"},
      {"exec.us_per_run", per(s.SelfUs(SpanKind::kExec), d.exec_results), "us"},
      {"exec.time_share", self_share(SpanKind::kExec), "share"},
      {"exec.fail_share", per(d.exec_failed, d.exec_results), "share"},
      {"sanitizer.us_per_rewrite", s.UsPer(SpanKind::kSanitize), "us"},
      {"sanitizer.mem_sites_per_prog",
       per(d.sanitizer.mem_sites, d.sanitizer.programs), "count"},
      {"epoch.worker_busy_share",
       per(d.workers.TotalUs(SpanKind::kShard), d.engine_wall_ns / 1e3 * d.jobs), "share"},
      {"epoch.merge_us", d.coord.UsPer(SpanKind::kEpochMerge), "us"},
      {"metamorph.us_per_base", per(s.TotalUs(SpanKind::kMetamorph), d.mm_bases), "us"},
      {"metamorph.variants_per_base", per(d.mm_variants, d.mm_bases), "count"},
      {"jit.compile_us_per_prog", s.UsPer(SpanKind::kJitCompile), "us"},
      {"boot.us_per_substrate", s.UsPer(SpanKind::kBoot), "us"},
      {"boot.count", per(s.Count(SpanKind::kBoot) + d.boots_derived, cases), "count/case"},
      {"confirm.us_per_finding", s.UsPer(SpanKind::kConfirm), "us"},
      {"trace.overhead_pct", d.overhead_pct, "%"},
      {"trace.unattributed_share", unattributed, "share"},
  };
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The build and host the numbers come from. Only optimized, unsanitized
// builds give comparable timings.
std::string HostJson() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#else
  const bool sanitized = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"build_type\": " + JsonString(BVF_BENCH_BUILD_TYPE);
  out += ", \"optimized\": " + std::string(optimized ? "true" : "false");
  out += ", \"sanitized\": " + std::string(sanitized ? "true" : "false");
  out += ", \"comparable\": " + std::string(optimized && !sanitized ? "true" : "false");
  out += ", \"jit_available\": " + std::string(bpf::JitAvailable() ? "true" : "false");
  out += ", \"compiler\": " + JsonString(compiler);
  return out + "}";
}

[[noreturn]] void Usage(const char* why) {
  fprintf(stderr, "bvf_perf: %s\n", why);
  fprintf(stderr,
          "usage: bvf_perf --workload campaign|oracles_j4|selftest_exec --seed N "
          "--seconds S --trace 0|1 [--trace-out PATH] [--inputs A,B,...] [--jobs N]\n");
  exit(2);
}

uint64_t ParseU64(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return value;
}

RunArgs ParseArgs(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = ParseU64(value, "--seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds >= 0)) {
        Usage("bad value for --seconds");
      }
    } else if (flag == "--trace") {
      if (strcmp(value, "0") != 0 && strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--inputs") {
      std::string list = value;
      for (size_t pos = 0; pos <= list.size();) {
        const size_t comma = std::min(list.find(',', pos), list.size());
        args.inputs.push_back(ParseU64(list.substr(pos, comma - pos).c_str(), "--inputs"));
        pos = comma + 1;
      }
    } else if (flag == "--jobs") {
      args.jobs = static_cast<int>(ParseU64(value, "--jobs"));
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload ||
      (!IsCampaignWorkload(args.workload) && args.workload != "selftest_exec")) {
    Usage("--workload must be campaign, oracles_j4 or selftest_exec");
  }
  return args;
}

}  // namespace
}  // namespace bvfbench

int main(int argc, char** argv) {
  using namespace bvfbench;
  const RunArgs args = ParseArgs(argc, argv);
  const RunResult result = IsCampaignWorkload(args.workload) ? RunCampaignWorkload(args)
                                                             : RunSelftestWorkload(args);

  for (const Metric& m : result.metrics) {
    printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : result.check_failures) {
    printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"host\": " + HostJson() + ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}, \"inputs\": [";
  for (size_t i = 0; i < result.inputs.size(); ++i) {
    const InputResult& in = result.inputs[i];
    json += std::string(i ? ", " : "") + "{\"seed\": " + std::to_string(in.seed) +
            ", \"digest\": " + JsonString(in.digest) + ", \"bugs\": " + JsonNumber(in.bugs) +
            ", \"coverage\": " + JsonNumber(in.coverage) +
            ", \"cases\": " + std::to_string(in.cases) + "}";
  }
  json += "], \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) + ", \"checks_failed\": [";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    json += (i ? ", " : "") + JsonString(result.check_failures[i]);
  }
  json += "]}";
  printf("%s\n", json.c_str());
  return result.check_failures.empty() ? 0 : 1;
}
