// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public entry points, one Tracer per thread. A span knows its kind,
// its parent (the innermost span open on the same thread) and its start/end on
// the steady clock. Nothing is written while the workload runs; the spans are
// aggregated into per-kind self times and dumped to a CSV file at exit.

#ifndef BENCHMARK_TRACE_H_
#define BENCHMARK_TRACE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace bvfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Every span kind the benchmark records, with the repository layer it times.
enum class SpanKind : uint8_t {
  kGenerate,    // core: Generator::Generate / Mutate
  kShard,       // core: RunEpochShard, one per worker per epoch
  kEpochWait,   // core: coordinator waiting for the epoch's shards
  kEpochMerge,  // core: MergeEpoch* + coverage / decode-cache commits
  kCase,        // core: one replayed CaseRunner::RunOne call sequence
  kClassify,    // core: ClassifyReports (the oracle)
  kMetamorph,   // core: MetamorphOracle::Examine
  kJitOracle,   // core: decoded-vs-JIT witness comparison
  kConfirm,     // core: CaseRunner::ConfirmFinding
  kLoad,        // runtime: Bpf::ProgLoad (verify + decode), sanitizer excluded
  kExec,        // runtime: ProgTestRun / FireEvent / XdpRun
  kAttach,      // runtime: ProgAttach / DetachAll / XdpInstall
  kJitCompile,  // runtime: CompileJit
  kSanitize,    // sanitizer: Sanitizer::Instrument
  kAudit,       // analysis: AuditAndReport
  kBoot,        // kernel: bpf::Kernel construction + substrate configuration
  kReset,       // kernel: Bpf::ResetCaseState
  kMaps,        // maps: MapCreate / MapUpdateElem / MapLookupBatch
  kCount,
};

constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kCount);

inline const char* SpanName(SpanKind kind) {
  static constexpr std::array<const char*, kNumSpanKinds> kNames = {
      "generate",  "epoch.shard", "epoch.wait", "epoch.merge",  "case",
      "classify",  "metamorph",   "jit_oracle", "confirm",      "load",
      "exec",      "attach",      "jit_compile", "sanitize",    "audit",
      "boot",      "reset",       "maps"};
  return kNames[static_cast<size_t>(kind)];
}

inline const char* SpanLayer(SpanKind kind) {
  switch (kind) {
    case SpanKind::kLoad:
    case SpanKind::kExec:
    case SpanKind::kAttach:
    case SpanKind::kJitCompile:
      return "runtime";
    case SpanKind::kSanitize:
      return "sanitizer";
    case SpanKind::kAudit:
      return "analysis";
    case SpanKind::kBoot:
    case SpanKind::kReset:
      return "kernel";
    case SpanKind::kMaps:
      return "maps";
    default:
      return "core";
  }
}

// Spans that group other spans rather than time a library call: the
// coordinator's wait for a barrier and the replay's per-case frame. Their self
// time is not attributed to any layer.
inline bool IsContainer(SpanKind kind) {
  return kind == SpanKind::kEpochWait || kind == SpanKind::kCase;
}

struct Span {
  SpanKind kind;
  int32_t parent;  // index into the same Tracer's spans, -1 for a root span
  int64_t start_ns;
  int64_t end_ns;
};

// Single-thread span log. A null Tracer* turns every ScopedSpan into a no-op,
// which is how the untraced runs share code with the traced ones.
class Tracer {
 public:
  size_t Begin(SpanKind kind) {
    const int32_t parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
    spans_.push_back(Span{kind, parent, NowNs(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(kind) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

// Per-kind totals over any number of tracers. Self time is a span's duration
// minus the durations of its direct children.
struct SpanTotals {
  std::array<uint64_t, kNumSpanKinds> count{};
  std::array<int64_t, kNumSpanKinds> total_ns{};
  std::array<int64_t, kNumSpanKinds> self_ns{};
  int64_t attributed_ns = 0;  // self time of every span that is not a container

  void Add(const Tracer& tracer) {
    const std::vector<Span>& spans = tracer.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const size_t k = static_cast<size_t>(spans[i].kind);
      const int64_t dur = spans[i].end_ns - spans[i].start_ns;
      ++count[k];
      total_ns[k] += dur;
      self_ns[k] += dur - child_ns[i];
      attributed_ns += IsContainer(spans[i].kind) ? 0 : dur - child_ns[i];
    }
  }
  uint64_t Count(SpanKind kind) const { return count[static_cast<size_t>(kind)]; }
  double TotalUs(SpanKind kind) const { return total_ns[static_cast<size_t>(kind)] / 1e3; }
  double SelfUs(SpanKind kind) const { return self_ns[static_cast<size_t>(kind)] / 1e3; }
  double UsPer(SpanKind kind) const {
    return Count(kind) == 0 ? 0.0 : TotalUs(kind) / static_cast<double>(Count(kind));
  }
};

// Wall time during which at least one root span of |kinds| is open on any of
// |tracers|: the union of those spans' intervals.
inline int64_t CoveredNs(const std::vector<const Tracer*>& tracers,
                         const std::vector<SpanKind>& kinds) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      if (span.parent < 0 &&
          std::find(kinds.begin(), kinds.end(), span.kind) != kinds.end()) {
        intervals.emplace_back(span.start_ns, span.end_ns);
      }
    }
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = INT64_MIN;
  for (const auto& [start, end] : intervals) {
    if (end > reach) {
      covered += end - std::max(start, reach);
      reach = end;
    }
  }
  return covered;
}

// Dumps every span as one CSV row: tracer,index,parent,kind,layer,start_ns,
// end_ns (start/end relative to |origin_ns|). Returns false on I/O failure.
inline bool WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers,
                       int64_t origin_ns) {
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  fprintf(out, "tracer,index,parent,kind,layer,start_ns,end_ns\n");
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      fprintf(out, "%zu,%zu,%d,%s,%s,%lld,%lld\n", t, i, s.parent, SpanName(s.kind),
              SpanLayer(s.kind), static_cast<long long>(s.start_ns - origin_ns),
              static_cast<long long>(s.end_ns - origin_ns));
    }
  }
  return fclose(out) == 0;
}

}  // namespace bvfbench

#endif  // BENCHMARK_TRACE_H_
