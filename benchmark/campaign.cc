// The `campaign` and `oracles_j4` workloads: closed-loop BVF campaigns run
// through the library's parallel epoch engine, one campaign at a time.
//
// Untraced runs drive bvf::ParallelFuzzer itself. The generator is wrapped
// in a CaseTap that reads the steady clock once per Generate/Mutate call.
// That is the only probe. It recovers each epoch's wall time, and so the
// time at which each root cause was first triaged: an epoch's findings are
// merged at the barrier that ends it.
//
// Traced runs add three parts per campaign:
//  1. the same campaign through a benchmark-owned copy of the epoch
//     coordinator, which spans every RunEpochShard call (per worker) and
//     every barrier merge, while the CaseTap spans each generator call and
//     keeps a copy of each case;
//  2. a replay of the recorded cases, in iteration order, through the
//     public call sequence of CaseRunner::RunOne on a benchmark-owned
//     bpf::Kernel + bpf::Bpf, with spans around every call;
//  3. checks that the traced campaign's digest equals the untraced one and
//     that the replay reproduces the campaign's accept/reject, execution and
//     outcome counts exactly.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/trace.h"
#include "benchmark/workloads.h"
#include "src/analysis/state_audit.h"
#include "src/core/checkpoint.h"
#include "src/core/epoch.h"
#include "src/core/metamorph/metamorph.h"
#include "src/core/metamorph/witness.h"
#include "src/core/oracle.h"
#include "src/core/parallel.h"
#include "src/core/structured_gen.h"
#include "src/kernel/coverage.h"
#include "src/runtime/bpf_syscall.h"
#include "src/runtime/decoded_prog.h"
#include "src/runtime/jit_prog.h"
#include "src/sanitizer/asan_funcs.h"
#include "src/sanitizer/instrument.h"

namespace bvfbench {
namespace {

using bvf::CampaignOptions;
using bvf::CampaignStats;
using bvf::CaseOutcome;
using bvf::Finding;
using bvf::FuzzCase;

// A run's campaigns are the bug panel (seeds 1..fixed, the same in every
// run) followed by |drawn| seeds the run's seed draws from the rest of the
// pinned pool. Time to all bugs and bugs found come from the bug panel: how
// soon one campaign finds its last bug is mostly luck of its seed, so only a
// fixed panel makes that number comparable from run to run. Every other
// metric covers all of the run's campaigns.
struct CampaignWorkload {
  const char* name;
  uint64_t iterations;  // per campaign
  size_t fixed;         // bug-panel campaigns
  size_t drawn;         // seed-drawn campaigns
  int jobs;
  bool oracles;         // --metamorph (K=2) --jit-oracle --confirm-runs=3
};

constexpr CampaignWorkload kWorkloads[] = {
    {"campaign", 5000, 5, 3, 1, false},
    {"oracles_j4", 5000, 3, 2, 4, true},
};

const CampaignWorkload* FindWorkload(const std::string& name) {
  for (const CampaignWorkload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// fuzz_campaign's defaults with every bug armed, plus the workload's oracles.
CampaignOptions MakeOptions(const CampaignWorkload& w, uint64_t seed, int jobs) {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::All();
  options.iterations = w.iterations;
  options.seed = seed;
  options.limits.wall_budget_ms = 2000;
  options.jobs = jobs;
  if (w.oracles) {
    options.metamorph = true;
    options.metamorph_k = 2;
    options.jit_oracle = true;
    options.confirm_runs = 3;
  }
  return options;
}

// ---- Generator tap ----

struct TapLog {
  std::vector<int64_t> stamps;  // steady-clock ns at each call's entry
  std::vector<FuzzCase> cases;  // each call's output, when keep_cases
  Tracer* tracer = nullptr;
  bool keep_cases = false;
  // Single-threaded campaigns: every kRepinNs the calling (worker) thread
  // moves to the CPU that is fastest at that moment (PinToFastestCpu).
  bool repin = false;
  int64_t pinned_ns = 0;
};
constexpr int64_t kRepinNs = 500'000'000;
using TapLogs = std::vector<std::unique_ptr<TapLog>>;

// Wraps a generator. Every instance (including each Clone the engine makes
// for a worker) appends its own log to the shared registry, so logs[w] is
// worker w's log: the engine drives the prototype as worker 0 and clones in
// worker order.
class CaseTap : public bvf::Generator {
 public:
  CaseTap(std::unique_ptr<bvf::Generator> inner, std::shared_ptr<TapLogs> logs,
          bool keep_cases)
      : inner_(std::move(inner)), logs_(std::move(logs)) {
    logs_->push_back(std::make_unique<TapLog>());
    log_ = logs_->back().get();
    log_->keep_cases = keep_cases;
  }

  const char* name() const override { return inner_->name(); }

  FuzzCase Generate(bpf::Rng& rng) override {
    MaybeRepin();
    log_->stamps.push_back(NowNs());
    FuzzCase the_case;
    {
      ScopedSpan span(log_->tracer, SpanKind::kGenerate);
      the_case = inner_->Generate(rng);
    }
    Keep(the_case);
    return the_case;
  }

  void Mutate(bpf::Rng& rng, FuzzCase& the_case) override {
    MaybeRepin();
    log_->stamps.push_back(NowNs());
    {
      ScopedSpan span(log_->tracer, SpanKind::kGenerate);
      inner_->Mutate(rng, the_case);
    }
    Keep(the_case);
  }

  std::unique_ptr<bvf::Generator> Clone() const override {
    std::unique_ptr<bvf::Generator> inner = inner_->Clone();
    if (inner == nullptr) {
      return nullptr;
    }
    return std::make_unique<CaseTap>(std::move(inner), logs_, log_->keep_cases);
  }

  TapLog& log() { return *log_; }

 private:
  void MaybeRepin() {
    if (log_->repin && NowNs() - log_->pinned_ns >= kRepinNs) {
      PinToFastestCpu(true);
      log_->pinned_ns = NowNs();
    }
  }

  void Keep(const FuzzCase& the_case) {
    if (log_->keep_cases) {
      log_->cases.push_back(the_case);
    }
  }

  std::unique_ptr<bvf::Generator> inner_;
  std::shared_ptr<TapLogs> logs_;
  TapLog* log_ = nullptr;
};

// Iterations each worker runs, in its call order (epoch.h: iteration i of an
// epoch starting at s runs on worker (i - s) % jobs, ascending).
std::vector<std::vector<uint64_t>> ShardIterations(uint64_t iterations, uint64_t epoch_len,
                                                   int jobs) {
  std::vector<std::vector<uint64_t>> shards(static_cast<size_t>(jobs));
  for (uint64_t start = 1; start <= iterations; start += epoch_len) {
    const uint64_t end = std::min(iterations, start + epoch_len - 1);
    for (uint64_t i = start; i <= end; ++i) {
      shards[static_cast<size_t>((i - start) % static_cast<uint64_t>(jobs))].push_back(i);
    }
  }
  return shards;
}

// Distinct armed root causes among a campaign's findings.
std::set<bvf::KnownBug> RootCauses(const CampaignStats& stats) {
  std::set<bvf::KnownBug> bugs;
  for (const Finding& finding : stats.findings) {
    if (finding.triaged != bvf::KnownBug::kUnknown) {
      bugs.insert(finding.triaged);
    }
  }
  return bugs;
}

// Wall time of each epoch of a campaign, from the tap's clock stamps. The
// barrier ending epoch e is observed as the first generator call of epoch
// e+1 on any worker (workers start an epoch only after the previous
// barrier's merge), or as |end_ns| for the final epoch; epoch 0 also counts
// the engine's start-up before its first case. Returns false when the tap
// logs do not match the engine's sharding.
bool EpochWalls(uint64_t iterations, const TapLogs& logs, uint64_t epoch_len, int jobs,
                int64_t start_ns, int64_t end_ns, std::vector<int64_t>& walls) {
  const std::vector<std::vector<uint64_t>> shards = ShardIterations(iterations, epoch_len, jobs);
  if (logs.size() != shards.size()) {
    return false;
  }
  const uint64_t epochs = (iterations + epoch_len - 1) / epoch_len;
  std::vector<int64_t> first(epochs + 1, INT64_MAX);
  for (size_t w = 0; w < shards.size(); ++w) {
    if (logs[w]->stamps.size() != shards[w].size()) {
      return false;
    }
    for (size_t k = 0; k < shards[w].size(); ++k) {
      int64_t& stamp = first[(shards[w][k] - 1) / epoch_len];
      stamp = std::min(stamp, logs[w]->stamps[k]);
    }
  }
  first[0] = start_ns;
  first[epochs] = end_ns;
  walls.clear();
  for (uint64_t e = 0; e < epochs; ++e) {
    walls.push_back(first[e + 1] - first[e]);
  }
  return true;
}

// The epoch whose barrier triages the campaign's last root cause (-1: none).
int64_t LastBugEpoch(const CampaignStats& stats, uint64_t epoch_len) {
  int64_t last = -1;
  for (const bvf::KnownBug bug : RootCauses(stats)) {
    last = std::max(last, static_cast<int64_t>((stats.FoundAtIteration(bug) - 1) / epoch_len));
  }
  return last;
}

// ---- Untraced campaign ----

struct CampaignRun {
  CampaignStats stats;
  std::string digest;
  double wall_s = 0;
  std::vector<int64_t> epoch_ns;  // empty when the tap logs did not line up
};

CampaignRun RunUntraced(const CampaignOptions& options) {
  CampaignRun run;
  auto logs = std::make_shared<TapLogs>();
  CaseTap tap(std::make_unique<bvf::StructuredGenerator>(options.version), logs,
              /*keep_cases=*/false);
  tap.log().repin = options.jobs == 1;
  bvf::ParallelFuzzer fuzzer(tap, options);
  const int64_t start = NowNs();
  run.stats = fuzzer.Run();
  const int64_t end = NowNs();
  run.wall_s = (end - start) / 1e9;
  if (!EpochWalls(run.stats.iterations, *logs, options.epoch_len, std::max(1, options.jobs),
                  start, end, run.epoch_ns)) {
    run.epoch_ns.clear();
  }
  run.digest = bvf::StatsDigest(run.stats);
  return run;
}

// ---- Traced campaign: the epoch coordinator of ParallelFuzzer::Run (no
// resume, journal, checkpoint or conformance prologue; verdict cache off;
// decoded engine), with spans. ----

struct TracedCampaign {
  CampaignStats stats;
  std::vector<FuzzCase> cases;  // cases[i - 1] ran as iteration i
  std::unique_ptr<Tracer> coordinator = std::make_unique<Tracer>();
  std::vector<std::unique_ptr<Tracer>> workers;
  double wall_s = 0;
};

struct EngineWorker {
  std::unique_ptr<CaseTap> gen;
  std::unique_ptr<bvf::CaseRunner> runner;
  std::unique_ptr<bpf::DecodeCacheShard> dshard;
  bpf::CoverageSink sink;
  bvf::EpochShardResult out;
};

void RunTracedEngine(const CampaignOptions& options, TracedCampaign& traced) {
  CampaignStats& stats = traced.stats;
  const int jobs = std::max(1, options.jobs);
  const uint64_t epoch_len = options.epoch_len;
  stats.tool = "bvf";
  stats.options = options;
  bpf::Coverage::Get().ResetHits();

  auto logs = std::make_shared<TapLogs>();
  bpf::DecodeCache dcache;
  std::vector<bpf::DecodeCacheShard*> dshards;
  std::vector<EngineWorker> workers(static_cast<size_t>(jobs));
  for (EngineWorker& worker : workers) {
    worker.gen = std::make_unique<CaseTap>(
        std::make_unique<bvf::StructuredGenerator>(options.version), logs,
        /*keep_cases=*/true);
    traced.workers.push_back(std::make_unique<Tracer>());
    worker.gen->log().tracer = traced.workers.back().get();
    worker.gen->log().repin = jobs == 1;
    worker.runner = std::make_unique<bvf::CaseRunner>(options);
    worker.dshard = std::make_unique<bpf::DecodeCacheShard>(dcache, /*immediate=*/false);
    worker.runner->set_decode_shard(worker.dshard.get());
    dshards.push_back(worker.dshard.get());
  }
  const uint64_t sample_every =
      options.coverage_points > 0
          ? std::max<uint64_t>(1, options.iterations / options.coverage_points)
          : 0;

  std::vector<FuzzCase> corpus;
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  uint64_t generation = 0;
  uint64_t epoch_start = 0;
  uint64_t epoch_end = 0;
  int done_count = 0;
  bool shutdown = false;

  const int64_t start_ns = NowNs();
  std::vector<std::thread> threads;
  for (int w = 0; w < jobs; ++w) {
    threads.emplace_back([&, w] {
      EngineWorker& worker = workers[static_cast<size_t>(w)];
      Tracer* tracer = traced.workers[static_cast<size_t>(w)].get();
      bpf::Coverage::InstallThreadSink(&worker.sink);
      uint64_t seen = 0;
      for (;;) {
        uint64_t start = 0;
        uint64_t end = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv_work.wait(lock, [&] { return shutdown || generation != seen; });
          if (shutdown) {
            break;
          }
          seen = generation;
          start = epoch_start;
          end = epoch_end;
        }
        {
          ScopedSpan span(tracer, SpanKind::kShard);
          bvf::RunEpochShard(options, *worker.gen, *worker.runner, worker.sink, corpus,
                             stats.finding_signatures, w, jobs, start, end, worker.out);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          if (++done_count == jobs) {
            cv_done.notify_one();
          }
        }
      }
      bpf::Coverage::InstallThreadSink(nullptr);
    });
  }

  Tracer* coord = traced.coordinator.get();
  for (uint64_t next = 1; next <= options.iterations;) {
    const uint64_t end = std::min(options.iterations, next + epoch_len - 1);
    {
      ScopedSpan span(coord, SpanKind::kEpochWait);
      {
        std::lock_guard<std::mutex> lock(mu);
        epoch_start = next;
        epoch_end = end;
        done_count = 0;
        ++generation;
      }
      cv_work.notify_all();
      std::unique_lock<std::mutex> lock(mu);
      cv_done.wait(lock, [&] { return done_count == jobs; });
    }
    {
      ScopedSpan span(coord, SpanKind::kEpochMerge);
      for (EngineWorker& worker : workers) {
        bvf::MergeEpochCounters(stats, worker.out.partial);
      }
      for (EngineWorker& worker : workers) {
        bpf::Coverage::Get().Commit(worker.sink);
      }
      dcache.CommitShards(dshards);
      for (EngineWorker& worker : workers) {
        stats.decode_cache_hits += worker.dshard->TakeHits();
        stats.decode_cache_misses += worker.dshard->TakeMisses();
      }
      stats.decode_cache_evictions = dcache.evictions();
      std::vector<bvf::CaseRecord*> merged;
      for (EngineWorker& worker : workers) {
        for (bvf::CaseRecord& record : worker.out.records) {
          merged.push_back(&record);
        }
      }
      bvf::MergeEpochRecords(std::move(merged), stats, corpus);
      for (EngineWorker& worker : workers) {
        worker.out.records.clear();
      }
      bvf::AppendEpochCurve(stats, next, end, sample_every, bpf::Coverage::Get().hit_count());
    }
    next = end + 1;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    shutdown = true;
  }
  cv_work.notify_all();
  for (std::thread& thread : threads) {
    thread.join();
  }
  stats.final_coverage = bpf::Coverage::Get().hit_count();
  traced.wall_s = (NowNs() - start_ns) / 1e9;

  // Cases back into iteration order.
  const std::vector<std::vector<uint64_t>> shards =
      ShardIterations(options.iterations, epoch_len, jobs);
  traced.cases.resize(options.iterations);
  for (size_t w = 0; w < shards.size(); ++w) {
    TapLog& log = *(*logs)[w];
    for (size_t k = 0; k < shards[w].size() && k < log.cases.size(); ++k) {
      traced.cases[shards[w][k] - 1] = std::move(log.cases[k]);
    }
  }
}

// ---- Replay of recorded cases through CaseRunner::RunOne's call sequence ----

// What the replay must reproduce of the campaign it replays.
struct ReplayCounts {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t exec_runs = 0;  // counted exactly as CaseRunner counts them
  std::map<CaseOutcome, uint64_t> outcomes;
};

CaseOutcome ClassifyOutcome(bool panicked, int prog_fd, const std::vector<int>& errs) {
  if (panicked) {
    return CaseOutcome::kPanic;
  }
  if (prog_fd < 0) {
    return CaseOutcome::kRejected;
  }
  bool resource = false;
  bool timeout = false;
  bool fault = false;
  for (const int err : errs) {
    switch (-err) {
      case 0:
        break;
      case ENOMEM:
      case E2BIG:
      case ENOSPC:
      case EAGAIN:
        resource = true;
        break;
      case ELOOP:
      case ETIMEDOUT:
        timeout = true;
        break;
      default:
        fault = true;
    }
  }
  if (resource) {
    return CaseOutcome::kResourceExhausted;
  }
  if (timeout) {
    return CaseOutcome::kExecTimeout;
  }
  if (fault) {
    return CaseOutcome::kExecFault;
  }
  return CaseOutcome::kExecOk;
}

class Replayer {
 public:
  Replayer(const CampaignOptions& options, Tracer* tracer, LayerData& data,
           ReplayCounts& counts)
      : options_(options),
        tracer_(tracer),
        data_(data),
        counts_(counts),
        metamorph_(options),
        confirm_runner_(options) {}

  void Run(const std::vector<FuzzCase>& cases) {
    bpf::CoverageSink sink;  // same hit path as a campaign worker
    bpf::Coverage::InstallThreadSink(&sink);
    const int64_t start = NowNs();
    Boot();
    for (size_t n = 0; n < cases.size(); ++n) {
      if (n % options_.epoch_len == 0) {
        sink.ClearEpoch();
      }
      sink.BeginCase();
      ReplayCase(cases[n], n + 1);
    }
    data_.main_wall_ns += NowNs() - start;
    bpf::Coverage::InstallThreadSink(nullptr);
    data_.sanitizer.Add(sanitizer_.stats());
  }

 private:
  void Boot() {
    ScopedSpan span(tracer_, SpanKind::kBoot);
    bpf_.reset();
    kernel_ = std::make_unique<bpf::Kernel>(options_.version, options_.bugs, options_.arena_size);
    bpf_ = std::make_unique<bpf::Bpf>(*kernel_);
    bpf_->set_exec_engine(options_.interp_engine);
    if (options_.sanitize) {
      bpf::BpfAsan::Register(*kernel_);
      bpf_->set_instrument([this](bpf::Program& prog, std::vector<bpf::InsnAux>& aux) {
        ScopedSpan rewrite(tracer_, SpanKind::kSanitize);
        sanitizer_.Instrument(prog, aux);
      });
    }
    if (options_.audit_state) {
      bpf_->set_exec_observer(
          [this](const bpf::LoadedProgram& prog, const bpf::WitnessTrace& trace) {
            ScopedSpan audit(tracer_, SpanKind::kAudit);
            bvf::AuditAndReport(prog, trace, kernel_->reports());
          });
    }
    kernel_->arena().set_alloc_budget(options_.arena_budget);
    kernel_->arena().set_dirty_reset(options_.dirty_reset);
    bpf_->set_exec_limits(options_.limits);
    bpf_->set_decode_cache(&dshard_);
  }

  void CreateMaps(bpf::Bpf& bpf, const FuzzCase& the_case) {
    ScopedSpan span(tracer_, SpanKind::kMaps);
    for (const bpf::MapDef& def : the_case.maps) {
      const int fd = bpf.MapCreate(def);
      if (fd < 0) {
        continue;
      }
      if (def.type == bpf::MapType::kHash || def.type == bpf::MapType::kArray) {
        for (uint32_t k = 0; k < 2 && k < def.max_entries; ++k) {
          std::vector<uint8_t> key(def.key_size, 0);
          std::memcpy(key.data(), &k, std::min<size_t>(sizeof(k), key.size()));
          std::vector<uint8_t> value(def.value_size, 0);
          bpf.MapUpdateElem(fd, key.data(), value.data());
        }
      }
    }
  }

  bpf::ExecResult Exec(bpf::ExecResult result) {
    ++data_.exec_results;
    data_.exec_failed += result.err != 0 ? 1 : 0;
    return result;
  }

  // One leg of the JIT differential oracle (CollectWitness on a throwaway
  // substrate), with the JIT leg's compile split out of PROG_LOAD: the
  // program loads decoded and CompileJit runs on its micro-ops, which is what
  // ProgLoad does when the JIT tier is selected.
  bvf::ExecWitness WitnessLeg(const FuzzCase& the_case, bool jit) {
    bvf::ExecWitness witness;
    std::unique_ptr<bpf::Kernel> kernel;
    std::unique_ptr<bpf::Bpf> bpf;
    bvf::Sanitizer sanitizer;
    {
      ScopedSpan span(tracer_, SpanKind::kBoot);
      kernel = std::make_unique<bpf::Kernel>(options_.version, options_.bugs,
                                             options_.arena_size);
      bpf = std::make_unique<bpf::Bpf>(*kernel);
      if (options_.sanitize) {
        bpf::BpfAsan::Register(*kernel);
        bpf->set_instrument([this, &sanitizer](bpf::Program& prog,
                                               std::vector<bpf::InsnAux>& aux) {
          ScopedSpan rewrite(tracer_, SpanKind::kSanitize);
          sanitizer.Instrument(prog, aux);
        });
      }
      if (options_.audit_state) {
        bpf::Kernel* k = kernel.get();
        bpf->set_exec_observer(
            [this, k](const bpf::LoadedProgram& prog, const bpf::WitnessTrace& trace) {
              ScopedSpan audit(tracer_, SpanKind::kAudit);
              bvf::AuditAndReport(prog, trace, k->reports());
            });
      }
      bpf->set_exec_limits(options_.limits);
      bpf->set_exec_engine(bpf::ExecEngine::kDecoded);
      kernel->arena().set_alloc_budget(options_.arena_budget);
    }
    CreateMaps(*bpf, the_case);
    int fd = 0;
    {
      ScopedSpan span(tracer_, SpanKind::kLoad);
      fd = bpf->ProgLoad(the_case.prog);
    }
    witness.accepted = fd > 0;
    witness.load_err = fd > 0 ? 0 : fd;
    if (fd > 0) {
      if (jit) {
        ScopedSpan span(tracer_, SpanKind::kJitCompile);
        bpf::LoadedProgram* loaded = bpf->FindProg(fd);
        loaded->jit = bpf::CompileJit(*loaded->decoded);
      }
      for (int run = 0; run < the_case.test_runs; ++run) {
        ScopedSpan span(tracer_, SpanKind::kExec);
        const bpf::ExecResult result = Exec(bpf->ProgTestRun(
            fd, static_cast<uint32_t>(32 + 16 * run), static_cast<uint64_t>(run)));
        witness.run_errs.push_back(result.err);
        witness.run_r0.push_back(result.r0);
      }
    }
    for (const bpf::KernelReport& report : kernel->reports().reports()) {
      witness.report_kinds.insert(report.kind);
    }
    witness.panicked = kernel->reports().panicked();
    return witness;
  }

  bool JitDiverges(const FuzzCase& the_case) {
    ScopedSpan span(tracer_, SpanKind::kJitOracle);
    bpf::ScopedCoverageSuppress suppress;
    const bvf::ExecWitness decoded = WitnessLeg(the_case, /*jit=*/false);
    const bvf::ExecWitness jit = WitnessLeg(the_case, /*jit=*/true);
    return decoded.accepted != jit.accepted || !decoded.SameExecution(jit) ||
           decoded.panicked != jit.panicked || decoded.report_kinds != jit.report_kinds;
  }

  // CaseRunner::DriveCase; returns the load result and fills |errs|.
  int Drive(const FuzzCase& the_case, uint64_t iteration, std::vector<int>& errs) {
    bpf::Bpf& bpf = *bpf_;
    CreateMaps(bpf, the_case);
    bpf::VerifierResult verdict;
    int fd = 0;
    {
      ScopedSpan span(tracer_, SpanKind::kLoad);
      const int64_t load_start = NowNs();
      fd = bpf.ProgLoad(the_case.prog, &verdict);
      if (fd == -E2BIG) {
        ++data_.e2big_loads;
        data_.e2big_ns += NowNs() - load_start;
      }
    }
    if (fd < 0) {
      ++counts_.rejected;
      return fd;
    }
    ++counts_.accepted;
    data_.accept_insns += verdict.insns_processed;
    data_.accept_pruned += verdict.states_pruned;
    data_.peak_states_max = std::max(data_.peak_states_max, verdict.peak_states);
    for (int run = 0; run < the_case.test_runs; ++run) {
      ScopedSpan span(tracer_, SpanKind::kExec);
      errs.push_back(Exec(bpf.ProgTestRun(fd, static_cast<uint32_t>(32 + 16 * run),
                                          iteration * 16 + static_cast<uint64_t>(run)))
                         .err);
      ++counts_.exec_runs;
    }
    if (the_case.do_attach) {
      bool attached = false;
      {
        ScopedSpan span(tracer_, SpanKind::kAttach);
        attached = bpf.ProgAttach(fd, the_case.attach_target) == 0;
      }
      if (attached) {
        {
          ScopedSpan span(tracer_, SpanKind::kExec);
          for (bpf::TracepointId event : the_case.events) {
            bpf.FireEvent(event);
          }
        }
        {
          ScopedSpan span(tracer_, SpanKind::kExec);
          errs.push_back(Exec(bpf.ProgTestRun(fd, 64, iteration)).err);
          ++counts_.exec_runs;
        }
        ScopedSpan span(tracer_, SpanKind::kAttach);
        bpf.DetachAll();
      }
    }
    if (the_case.do_xdp_install && the_case.prog.type == bpf::ProgType::kXdp) {
      bool installed = false;
      {
        ScopedSpan span(tracer_, SpanKind::kAttach);
        installed = bpf.XdpInstall(fd) == 0;
      }
      if (installed) {
        ScopedSpan span(tracer_, SpanKind::kExec);
        errs.push_back(Exec(bpf.XdpRun(64, iteration)).err);
        errs.push_back(Exec(bpf.XdpRun(96, iteration + 1)).err);
        ++counts_.exec_runs;
      }
    }
    if (the_case.do_map_batch) {
      ScopedSpan span(tracer_, SpanKind::kMaps);
      for (const auto& map : kernel_->maps().maps()) {
        if (map->def().type == bpf::MapType::kHash) {
          for (int round = 0; round < 4; ++round) {
            bpf.MapLookupBatch(map->id(), 16);
          }
        }
      }
    }
    return fd;
  }

  void ReplayCase(const FuzzCase& the_case, uint64_t iteration) {
    const int64_t case_start = NowNs();
    std::vector<Finding> findings;
    uint64_t variants = 0;
    {
      ScopedSpan case_span(tracer_, SpanKind::kCase);
      dshard_.set_iteration(iteration);
      std::vector<int> errs;
      const int fd = Drive(the_case, iteration, errs);

      // The rest of CaseRunner::RunOne: classification, the oracle, the
      // metamorphic and JIT oracles, then the substrate policy.
      const bool panicked = kernel_->reports().panicked();
      CaseOutcome outcome = ClassifyOutcome(panicked, fd, errs);
      {
        ScopedSpan span(tracer_, SpanKind::kClassify);
        findings = bvf::ClassifyReports(kernel_->reports(), 0, iteration);
      }
      if (options_.metamorph && !panicked && fd > 0) {
        bvf::MetamorphOracle::Result mm;
        {
          ScopedSpan span(tracer_, SpanKind::kMetamorph);
          mm = metamorph_.Examine(the_case, iteration);
        }
        data_.mm_bases += mm.bases_examined;
        data_.mm_variants += mm.variants_executed;
        variants = mm.variants_executed;
        // Examine boots one substrate per witness: the base and each variant.
        data_.boots_derived += 1 + mm.variants_executed;
        findings.insert(findings.end(), mm.findings.begin(), mm.findings.end());
        if (mm.escalated != CaseOutcome::kUnclassified) {
          outcome = mm.escalated;
        }
      }
      if (options_.jit_oracle && bpf::JitAvailable() && !panicked && fd > 0 &&
          JitDiverges(the_case)) {
        outcome = CaseOutcome::kJitDivergence;
      }
      if (panicked) {
        Boot();
      } else {
        ScopedSpan span(tracer_, SpanKind::kReset);
        bpf_->ResetCaseState();
      }
      ++counts_.outcomes[outcome];
    }
    data_.case_ns.push_back(NowNs() - case_start);

    // RunEpochShard confirms a finding the first time its signature shows up.
    if (options_.confirm_runs <= 0) {
      return;
    }
    const uint64_t k = static_cast<uint64_t>(options_.confirm_runs);
    for (Finding& finding : findings) {
      if (!confirmed_.insert(finding.signature).second) {
        continue;
      }
      {
        ScopedSpan span(tracer_, SpanKind::kConfirm);
        confirm_runner_.ConfirmFinding(finding, the_case, iteration, bpf::FaultLog{});
      }
      // Re-execution boots: a metamorph re-examination per run, two witness
      // legs per JIT re-comparison, one throwaway substrate otherwise.
      data_.boots_derived += finding.indicator == 4   ? k * (1 + variants)
                             : finding.indicator == 5 ? 2 * k
                                                      : k;
    }
  }

  const CampaignOptions& options_;
  Tracer* tracer_;
  LayerData& data_;
  ReplayCounts& counts_;
  bvf::Sanitizer sanitizer_;
  bpf::DecodeCache dcache_;
  bpf::DecodeCacheShard dshard_{dcache_, /*immediate=*/true};
  std::unique_ptr<bpf::Kernel> kernel_;
  std::unique_ptr<bpf::Bpf> bpf_;
  bvf::MetamorphOracle metamorph_;
  bvf::CaseRunner confirm_runner_;
  std::set<std::string> confirmed_;
};

// ---- Set-up ----

// Everything a campaign needs before its first case: the generator and one
// clone per extra worker, a CaseRunner per worker, the first substrate boot
// (configured as CaseRunner configures it) and the JIT availability probe.
double SetupOnce(const CampaignOptions& options) {
  const int64_t start = NowNs();
  bvf::StructuredGenerator generator(options.version);
  std::vector<std::unique_ptr<bvf::Generator>> clones;
  std::vector<std::unique_ptr<bvf::CaseRunner>> runners;
  for (int w = 0; w < std::max(1, options.jobs); ++w) {
    if (w > 0) {
      clones.push_back(generator.Clone());
    }
    runners.push_back(std::make_unique<bvf::CaseRunner>(options));
  }
  bpf::Kernel kernel(options.version, options.bugs, options.arena_size);
  bpf::Bpf bpf(kernel);
  bvf::Sanitizer sanitizer;
  bpf.set_exec_engine(options.interp_engine);
  bpf::BpfAsan::Register(kernel);
  bpf.set_instrument(sanitizer.Hook());
  bpf.set_exec_observer([&kernel](const bpf::LoadedProgram& prog,
                                  const bpf::WitnessTrace& trace) {
    bvf::AuditAndReport(prog, trace, kernel.reports());
  });
  bpf.set_exec_limits(options.limits);
  static_cast<void>(bpf::JitAvailable());
  return (NowNs() - start) / 1e9;
}

double MedianSetupSeconds(const CampaignOptions& options, int reps) {
  std::vector<double> samples;
  PinToFastestCpu(true);
  for (int r = 0; r < reps; ++r) {
    samples.push_back(SetupOnce(options));
  }
  return Median(samples);
}

uint64_t Unclassified(const CampaignStats& stats) {
  const auto it = stats.outcomes.find(CaseOutcome::kUnclassified);
  return it == stats.outcomes.end() ? 0 : it->second;
}

void AddInput(RunResult& result, uint64_t seed, const CampaignStats& stats,
              const std::string& digest, size_t runs) {
  InputResult input;
  input.seed = seed;
  input.cases = stats.iterations * runs;
  input.digest = digest;
  input.bugs = static_cast<double>(RootCauses(stats).size());
  input.coverage = static_cast<double>(stats.final_coverage);
  result.inputs.push_back(input);
}

std::string CampaignLabel(uint64_t seed) { return "campaign " + std::to_string(seed); }

// ---- Untraced run: every end-to-end metric ----

RunResult RunEndToEnd(const CampaignWorkload& w, const RunArgs& args,
                      const std::vector<uint64_t>& seeds, size_t bug_panel, int jobs) {
  RunResult result;
  const double setup_s = MedianSetupSeconds(MakeOptions(w, seeds[0], jobs), 51);

  // Whole passes over the run's campaigns, in order, until two passes are
  // complete and the time budget is spent, so every campaign runs equally
  // often. Each epoch of a campaign is timed on every run of it and the
  // fastest run counts: on a shared host, a stretch of slowed-down seconds
  // then only counts where it hit the same epoch every time. A repeat must
  // reproduce its first digest.
  struct PerSeed {
    CampaignRun first;
    std::vector<int64_t> fastest_ns;  // per epoch, over runs
    size_t runs = 0;
    bool failed = false;
  };
  std::vector<PerSeed> per(seeds.size());
  const int64_t start = NowNs();
  for (size_t n = 0; n % seeds.size() != 0 || n < 2 * seeds.size() ||
                     (NowNs() - start) / 1e9 < args.seconds;
       ++n) {
    const size_t k = n % seeds.size();
    PinToFastestCpu(jobs == 1);
    CampaignRun run = RunUntraced(MakeOptions(w, seeds[k], jobs));
    PerSeed& p = per[k];
    ++p.runs;
    result.attempted += run.stats.iterations;
    result.failed += Unclassified(run.stats);
    if (run.epoch_ns.empty()) {
      result.check_failures.push_back(CampaignLabel(seeds[k]) +
                                      ": generator calls do not match the engine's sharding");
      p.failed = true;
    } else if (p.fastest_ns.empty()) {
      p.fastest_ns = run.epoch_ns;
    } else {
      for (size_t e = 0; e < p.fastest_ns.size(); ++e) {
        p.fastest_ns[e] = std::min(p.fastest_ns[e], run.epoch_ns[e]);
      }
    }
    if (n < seeds.size()) {
      p.first = std::move(run);
    } else if (run.digest != p.first.digest) {
      result.check_failures.push_back(CampaignLabel(seeds[k]) + ": repeat digest " +
                                      run.digest + " != " + p.first.digest);
      p.failed = true;
    }
  }

  int64_t wall_ns = 0;
  int64_t ttab_ns = 0;
  double execs = 0;
  double bugs = 0;
  double coverage = 0;
  uint64_t accepted = 0;
  uint64_t loads = 0;
  uint64_t insns_before = 0;
  uint64_t insns_after = 0;
  for (size_t k = 0; k < seeds.size(); ++k) {
    const PerSeed& p = per[k];
    const CampaignStats& stats = p.first.stats;
    const int64_t last_bug = LastBugEpoch(stats, stats.options.epoch_len);
    for (size_t e = 0; e < p.fastest_ns.size(); ++e) {
      wall_ns += p.fastest_ns[e];
      if (k < bug_panel && static_cast<int64_t>(e) <= last_bug) {
        ttab_ns += p.fastest_ns[e];
      }
    }
    execs += static_cast<double>(stats.exec_runs);
    if (k < bug_panel) {
      bugs += static_cast<double>(RootCauses(stats).size());
    }
    coverage += static_cast<double>(stats.final_coverage);
    accepted += stats.accepted;
    loads += stats.accepted + stats.rejected;
    insns_before += stats.sanitizer.insns_before;
    insns_after += stats.sanitizer.insns_after;
    AddInput(result, seeds[k], stats, p.first.digest, p.runs);
    if (p.failed) {
      result.failed += stats.iterations * p.runs;
    }
  }
  const double n = static_cast<double>(seeds.size());
  const double wall = wall_ns / 1e9;
  result.metrics = {
      {"cases_per_s", static_cast<double>(w.iterations) * n / wall, "1/s"},
      {"execs_per_s", execs / wall, "1/s"},
      {"time_to_all_bugs_s", ttab_ns / 1e9, "s"},
      {"bugs_found", bugs / static_cast<double>(bug_panel), "count"},
      {"coverage_branches", coverage / n, "count"},
      {"acceptance_pct", 100.0 * static_cast<double>(accepted) / static_cast<double>(loads),
       "%"},
      {"sanitizer_footprint_x",
       static_cast<double>(insns_after) / static_cast<double>(insns_before), "x"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return result;
}

// ---- Traced run: every per-layer metric ----

bool SameCounts(const CampaignStats& stats, const ReplayCounts& replay, std::string* why) {
  if (stats.accepted != replay.accepted || stats.rejected != replay.rejected) {
    *why = "accepted/rejected " + std::to_string(replay.accepted) + "/" +
           std::to_string(replay.rejected) + " vs campaign " + std::to_string(stats.accepted) +
           "/" + std::to_string(stats.rejected);
    return false;
  }
  if (stats.exec_runs != replay.exec_runs) {
    *why = "exec runs " + std::to_string(replay.exec_runs) + " vs campaign " +
           std::to_string(stats.exec_runs);
    return false;
  }
  if (stats.outcomes != replay.outcomes) {
    *why = "outcome histogram differs";
    return false;
  }
  return true;
}

RunResult RunTraced(const CampaignWorkload& w, const RunArgs& args,
                    const std::vector<uint64_t>& seeds, int jobs) {
  RunResult result;
  LayerData data;
  data.jobs = jobs;
  Tracer replay_tracer;
  std::vector<std::unique_ptr<TracedCampaign>> keep;  // spans live until exit
  double untraced_wall = 0;
  double traced_wall = 0;
  const int64_t origin = NowNs();

  for (size_t k = 0; k < seeds.size(); ++k) {
    if (k > 0 && (NowNs() - origin) / 1e9 >= args.seconds) {
      break;
    }
    const CampaignOptions options = MakeOptions(w, seeds[k], jobs);
    PinToFastestCpu(jobs == 1);
    const CampaignRun plain = RunUntraced(options);
    PinToFastestCpu(jobs == 1);
    auto traced = std::make_unique<TracedCampaign>();
    RunTracedEngine(options, *traced);
    const CampaignStats& stats = traced->stats;
    const std::string digest = bvf::StatsDigest(stats);
    untraced_wall += plain.wall_s;
    traced_wall += traced->wall_s;
    result.attempted += stats.iterations;
    result.failed += Unclassified(stats);
    AddInput(result, seeds[k], stats, digest, 1);
    bool ok = true;
    if (digest != plain.digest) {
      result.check_failures.push_back(CampaignLabel(seeds[k]) + ": traced engine digest " +
                                      digest + " != untraced " + plain.digest);
      ok = false;
    }
    ReplayCounts counts;
    {
      Replayer replayer(options, &replay_tracer, data, counts);
      PinToFastestCpu(true);
      replayer.Run(traced->cases);
    }
    std::string why;
    if (!SameCounts(stats, counts, &why)) {
      result.check_failures.push_back(CampaignLabel(seeds[k]) + ": replay " + why);
      ok = false;
    }
    if (!ok) {
      result.failed += stats.iterations;
    }

    data.accepted += counts.accepted;
    data.rejected += counts.rejected;
    data.dcache_hits += stats.decode_cache_hits;
    data.dcache_lookups += stats.decode_cache_hits + stats.decode_cache_misses;
    data.dcache_evictions += stats.decode_cache_evictions;
    ++data.campaigns;
    data.engine_wall_ns += static_cast<int64_t>(traced->wall_s * 1e9);
    data.coord.Add(*traced->coordinator);
    std::vector<const Tracer*> engine_tracers = {traced->coordinator.get()};
    for (const auto& tracer : traced->workers) {
      data.workers.Add(*tracer);
      engine_tracers.push_back(tracer.get());
    }
    data.engine_covered_ns +=
        CoveredNs(engine_tracers, {SpanKind::kShard, SpanKind::kEpochMerge});
    traced->cases.clear();
    traced->cases.shrink_to_fit();
    keep.push_back(std::move(traced));
  }
  data.spans.Add(replay_tracer);
  data.overhead_pct = 100.0 * (traced_wall - untraced_wall) / untraced_wall;
  SetLayerMetrics(data, result);

  if (!args.trace_out.empty()) {
    std::vector<const Tracer*> tracers;
    for (const auto& traced : keep) {
      tracers.push_back(traced->coordinator.get());
      for (const auto& tracer : traced->workers) {
        tracers.push_back(tracer.get());
      }
    }
    tracers.push_back(&replay_tracer);
    if (!WriteSpans(args.trace_out, tracers, origin)) {
      result.check_failures.push_back("cannot write spans to " + args.trace_out);
    }
  }
  return result;
}

}  // namespace

bool IsCampaignWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

RunResult RunCampaignWorkload(const RunArgs& args) {
  const CampaignWorkload& w = *FindWorkload(args.workload);
  // Explicit inputs all count as the bug panel.
  std::vector<uint64_t> seeds = args.inputs;
  if (seeds.empty()) {
    for (uint64_t s = 1; s <= w.fixed; ++s) {
      seeds.push_back(s);
    }
    for (const uint64_t s : DrawInputs(args.seed, w.drawn, w.fixed + 1)) {
      seeds.push_back(s);
    }
  }
  const size_t bug_panel = args.inputs.empty() ? w.fixed : seeds.size();
  const int jobs = args.jobs > 0 ? args.jobs : w.jobs;
  return args.trace ? RunTraced(w, args, seeds, jobs)
                    : RunEndToEnd(w, args, seeds, bug_panel, jobs);
}

}  // namespace bvfbench
