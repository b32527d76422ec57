// The `selftest_exec` workload: the paper's §6.4 self-test stand-in
// (bench/bench_overhead.cc's recipe), run as a closed loop.
//
// Set-up builds the corpus: 708 programs from risky=false structured
// generation that contain a load or store and that the verifier accepts.
// Like the paper's self-test suite, the corpus is the same for every run
// (bench_overhead's generator seed); the run's input seed picks the contexts
// the programs run on. Each round walks the corpus on one substrate: create
// the program's maps, load it sanitized, run it 50 times through
// BPF_PROG_TEST_RUN, hand the kernel's reports to the oracle, and reset the
// substrate. Every round checksums the (r0, err) of every run; all rounds of
// a run must agree.

#include <array>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "benchmark/trace.h"
#include "benchmark/workloads.h"
#include "src/core/oracle.h"
#include "src/core/structured_gen.h"
#include "src/kernel/coverage.h"
#include "src/runtime/bpf_syscall.h"
#include "src/runtime/jit_prog.h"
#include "src/sanitizer/asan_funcs.h"

namespace bvfbench {
namespace {

constexpr size_t kCorpusSize = 708;
constexpr int kRunsPerProgram = 50;
constexpr size_t kArenaSize = 512 * 1024;  // CampaignOptions::arena_size
constexpr uint64_t kCorpusSeed = 7;         // bench/bench_overhead.cc's

// Same simulated kernel as the campaign workloads: bpf-next, every bug armed.
std::unique_ptr<bpf::Kernel> NewKernel() {
  return std::make_unique<bpf::Kernel>(bpf::KernelVersion::kBpfNext, bpf::BugConfig::All(),
                                       kArenaSize);
}

bool HasLoadStore(const bpf::Program& prog) {
  for (const bpf::Insn& insn : prog.insns) {
    if (insn.IsMemLoad() || insn.IsMemStore() || insn.IsAtomic()) {
      return true;
    }
  }
  return false;
}

std::vector<bvf::FuzzCase> BuildCorpus() {
  std::vector<bvf::FuzzCase> corpus;
  bvf::StructuredGenOptions gen_options;
  gen_options.risky = false;
  bvf::StructuredGenerator generator(bpf::KernelVersion::kBpfNext, gen_options);
  bpf::Rng rng(kCorpusSeed);
  std::unique_ptr<bpf::Kernel> kernel = NewKernel();
  bpf::Bpf bpf(*kernel);
  while (corpus.size() < kCorpusSize) {
    bvf::FuzzCase the_case = generator.Generate(rng);
    if (!HasLoadStore(the_case.prog)) {
      continue;  // tests without load/store are skipped, as in the paper
    }
    for (const bpf::MapDef& def : the_case.maps) {
      bpf.MapCreate(def);
    }
    const int fd = bpf.ProgLoad(the_case.prog);
    bpf.ResetCaseState();
    if (fd > 0) {
      corpus.push_back(std::move(the_case));
    }
  }
  return corpus;
}

// The round's substrate: booted once in set-up, reset after every program,
// rebooted only after a simulated panic.
class Substrate {
 public:
  Substrate() { Boot(); }

  void Boot() {
    ScopedSpan span(tracer, SpanKind::kBoot);
    bpf_.reset();
    kernel_ = NewKernel();
    bpf_ = std::make_unique<bpf::Bpf>(*kernel_);
    bpf::BpfAsan::Register(*kernel_);
    bpf_->set_instrument([this](bpf::Program& prog, std::vector<bpf::InsnAux>& aux) {
      ScopedSpan rewrite(tracer, SpanKind::kSanitize);
      sanitizer_.Instrument(prog, aux);
    });
    bpf::ExecLimits limits;
    limits.wall_budget_ms = 2000;
    bpf_->set_exec_limits(limits);
  }

  bpf::Kernel& kernel() { return *kernel_; }
  bpf::Bpf& bpf() { return *bpf_; }
  const bvf::SanitizerStats& sanitizer_stats() const { return sanitizer_.stats(); }

  Tracer* tracer = nullptr;  // spans of the current round (null = untraced)

 private:
  bvf::Sanitizer sanitizer_;
  std::unique_ptr<bpf::Kernel> kernel_;
  std::unique_ptr<bpf::Bpf> bpf_;
};

struct Round {
  int64_t wall_ns = 0;
  std::vector<int64_t> program_ns;  // wall time per corpus program
  uint64_t checksum = 0xcbf29ce484222325ull;  // FNV-1a over every run's (r0, err)
  std::set<bvf::KnownBug> bugs;
  size_t last_bug = 0;  // programs up to the last root cause's first triage
  uint64_t accepted = 0;
  uint64_t execs = 0;
  size_t coverage = 0;
  bvf::SanitizerStats sanitizer;  // this round's rewrites
};

void Mix(uint64_t& hash, const void* bytes, size_t len) {
  const auto* p = static_cast<const uint8_t*>(bytes);
  for (size_t i = 0; i < len; ++i) {
    hash = (hash ^ p[i]) * 0x100000001b3ull;
  }
}

Round RunRound(Substrate& sub, const std::vector<bvf::FuzzCase>& corpus, uint64_t ctx_seed,
               LayerData* data) {
  Round round;
  bpf::Coverage::Get().ResetHits();
  const bvf::SanitizerStats san_before = sub.sanitizer_stats();
  Tracer* tracer = sub.tracer;
  const int64_t start = NowNs();
  for (size_t n = 0; n < corpus.size(); ++n) {
    const bvf::FuzzCase& the_case = corpus[n];
    const int64_t case_start = NowNs();
    ScopedSpan case_span(tracer, SpanKind::kCase);
    bpf::Bpf& bpf = sub.bpf();
    {
      ScopedSpan span(tracer, SpanKind::kMaps);
      for (const bpf::MapDef& def : the_case.maps) {
        bpf.MapCreate(def);
      }
    }
    bpf::VerifierResult verdict;
    int fd = 0;
    {
      ScopedSpan span(tracer, SpanKind::kLoad);
      fd = bpf.ProgLoad(the_case.prog, &verdict);
    }
    Mix(round.checksum, &fd, sizeof(fd));
    if (fd > 0) {
      ++round.accepted;
      // One span for all runs: a span per 1 us run would time the tracer.
      std::array<bpf::ExecResult, kRunsPerProgram> results;
      {
        ScopedSpan span(tracer, SpanKind::kExec);
        for (int run = 0; run < kRunsPerProgram; ++run) {
          results[run] = bpf.ProgTestRun(fd, 64, ctx_seed * kRunsPerProgram + run);
        }
      }
      for (const bpf::ExecResult& result : results) {
        Mix(round.checksum, &result.r0, sizeof(result.r0));
        Mix(round.checksum, &result.err, sizeof(result.err));
        ++round.execs;
        if (data != nullptr) {
          ++data->exec_results;
          data->exec_failed += result.err != 0 ? 1 : 0;
        }
      }
    }
    std::vector<bvf::Finding> findings;
    {
      ScopedSpan span(tracer, SpanKind::kClassify);
      findings = bvf::ClassifyReports(sub.kernel().reports(), 0, n + 1);
    }
    for (const bvf::Finding& finding : findings) {
      if (finding.triaged != bvf::KnownBug::kUnknown &&
          round.bugs.insert(finding.triaged).second) {
        round.last_bug = n + 1;
      }
    }
    if (sub.kernel().reports().panicked()) {
      sub.Boot();
    } else {
      ScopedSpan span(tracer, SpanKind::kReset);
      bpf.ResetCaseState();
    }
    round.program_ns.push_back(NowNs() - case_start);
    if (data != nullptr) {
      data->case_ns.push_back(round.program_ns.back());
      if (fd > 0) {
        ++data->accepted;
        data->accept_insns += verdict.insns_processed;
        data->accept_pruned += verdict.states_pruned;
        data->peak_states_max = std::max(data->peak_states_max, verdict.peak_states);
      } else {
        ++data->rejected;
      }
    }
  }
  round.wall_ns = NowNs() - start;
  round.coverage = bpf::Coverage::Get().hit_count();
  round.sanitizer = sub.sanitizer_stats().Since(san_before);
  return round;
}

struct Setup {
  std::vector<bvf::FuzzCase> corpus;
  std::unique_ptr<Substrate> substrate;
};

// Corpus build, the first substrate boot and the JIT probe, |reps| times;
// returns the median and keeps the last set-up.
double MedianSetup(int reps, Setup& setup) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    PinToFastestCpu(true);
    const int64_t start = NowNs();
    setup.corpus = BuildCorpus();
    setup.substrate = std::make_unique<Substrate>();
    static_cast<void>(bpf::JitAvailable());
    samples.push_back((NowNs() - start) / 1e9);
  }
  return Median(samples);
}

std::string Hex(uint64_t value) {
  char buf[17];
  snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

RunResult RunSelftestWorkload(const RunArgs& args) {
  RunResult result;
  const uint64_t ctx_seed = args.inputs.empty() ? DrawInputs(args.seed, 1)[0] : args.inputs[0];
  Setup setup;
  const double setup_s = MedianSetup(args.trace ? 1 : 5, setup);
  Substrate& sub = *setup.substrate;

  // Rounds until the time budget is spent (at least two; a traced run
  // alternates untraced and traced rounds for the overhead comparison).
  // Each traced round's spans are folded into the totals; the first few
  // rounds' spans are kept for the span dump.
  constexpr size_t kDumpedRounds = 4;
  std::vector<Round> rounds;
  std::vector<Round> traced_rounds;
  LayerData data;
  std::vector<std::unique_ptr<Tracer>> dumped;
  const int64_t start = NowNs();
  while (rounds.size() < 2 || (NowNs() - start) / 1e9 < args.seconds) {
    PinToFastestCpu(true);
    rounds.push_back(RunRound(sub, setup.corpus, ctx_seed, nullptr));
    if (args.trace) {
      PinToFastestCpu(true);
      auto tracer = std::make_unique<Tracer>();
      sub.tracer = tracer.get();
      traced_rounds.push_back(RunRound(sub, setup.corpus, ctx_seed, &data));
      sub.tracer = nullptr;
      data.spans.Add(*tracer);
      if (dumped.size() < kDumpedRounds) {
        dumped.push_back(std::move(tracer));
      }
    }
  }

  const Round& first = rounds.front();
  bool ok = true;
  for (const std::vector<Round>* set : {&rounds, &traced_rounds}) {
    for (const Round& round : *set) {
      result.attempted += setup.corpus.size();
      if (round.checksum != first.checksum || round.bugs != first.bugs ||
          round.last_bug != first.last_bug || round.coverage != first.coverage) {
        ok = false;
      }
    }
  }
  if (!ok) {
    result.check_failures.push_back("contexts " + std::to_string(ctx_seed) +
                                    ": rounds disagree on checksum, bugs or coverage");
    result.failed = result.attempted;
  }
  InputResult input;
  input.seed = ctx_seed;
  input.digest = Hex(first.checksum);
  input.bugs = static_cast<double>(first.bugs.size());
  input.coverage = static_cast<double>(first.coverage);
  input.cases = result.attempted;
  result.inputs.push_back(input);

  // Each program's fastest time over the rounds: on a shared host, seconds
  // of slowed-down execution then only count if they hit a program in every
  // round.
  const auto fastest = [](const std::vector<Round>& set) {
    std::vector<int64_t> best = set.front().program_ns;
    for (const Round& round : set) {
      for (size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], round.program_ns[i]);
      }
    }
    return best;
  };
  const std::vector<int64_t> best = fastest(rounds);
  int64_t wall_ns = 0;
  int64_t last_bug_ns = 0;
  for (size_t i = 0; i < best.size(); ++i) {
    wall_ns += best[i];
    last_bug_ns += i < first.last_bug ? best[i] : 0;
  }

  if (args.trace) {
    int64_t traced_ns = 0;
    for (const int64_t ns : fastest(traced_rounds)) {
      traced_ns += ns;
    }
    for (const Round& round : traced_rounds) {
      data.main_wall_ns += round.wall_ns;
      data.sanitizer.Add(round.sanitizer);
    }
    data.overhead_pct = 100.0 * static_cast<double>(traced_ns - wall_ns) / wall_ns;
    SetLayerMetrics(data, result);
    std::vector<const Tracer*> tracers;
    for (const auto& tracer : dumped) {
      tracers.push_back(tracer.get());
    }
    if (!args.trace_out.empty() && !WriteSpans(args.trace_out, tracers, start)) {
      result.check_failures.push_back("cannot write spans to " + args.trace_out);
    }
    return result;
  }

  const double programs = static_cast<double>(setup.corpus.size());
  const double wall = wall_ns / 1e9;
  result.metrics = {
      {"cases_per_s", programs / wall, "1/s"},
      {"execs_per_s", static_cast<double>(first.execs) / wall, "1/s"},
      {"time_to_all_bugs_s", last_bug_ns / 1e9, "s"},
      {"bugs_found", static_cast<double>(first.bugs.size()), "count"},
      {"coverage_branches", static_cast<double>(first.coverage), "count"},
      {"acceptance_pct", 100.0 * static_cast<double>(first.accepted) / programs, "%"},
      {"sanitizer_footprint_x", first.sanitizer.Footprint(), "x"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return result;
}

}  // namespace bvfbench
