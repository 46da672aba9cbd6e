// One scope primitive for every timed region: the op profiler's per-(op,
// shape, phase) tables, the Chrome trace-event buffer, and the optional
// latency histogram all read the same pair of clock reads.
//
//   obs::StartProfiling();                // profiler gate on
//   obs::SetTracingEnabled(true);         // trace gate on
//   { HEAD_SCOPE("sim.step", hist); ... } // row + trace event + histogram
//   obs::StopProfiling();
//   std::cout << obs::ProfileToText(obs::CollectProfile(), /*top_n=*/10);
//   obs::WriteProfileJsonFile("prof.json");   // "head-profile-v1" JSON
//   obs::WriteChromeTraceFile("trace.json");  // chrome://tracing / Perfetto
//
// Gates: profiling and tracing are two bits of one relaxed atomic. A region
// scope with both off costs one relaxed load and a branch (a few ns — cheap
// enough for permanent residence in every hot path; tools/check.sh fails
// when bench/perf_gates' scope_disabled_ns exceeds 5 ns).
// Enabled, a scope takes two clock reads; the profiler output adds ~a dozen
// relaxed atomic adds into a per-thread open-addressed stats table (no
// lock, no heap), the trace output one mutex-guarded append. Three scope
// shapes:
//   * HEAD_SCOPE(name): region — profiler row and trace event, each behind
//     its own gate;
//   * HEAD_SCOPE(name, histogram): the same, and always timed into the
//     latency histogram (the coarse stages behind the efficiency tables);
//   * HEAD_PROF_OP(op, m, n, k, flops, bytes): shaped kernel/autograd op —
//     profiler only, so traces stay at stage granularity.
//
// Attribution model — profiled scopes nest on their thread:
//   * total time: wall ns between a scope's open and close;
//   * self time:  total minus the total of directly nested scopes — the
//     sorted report ranks by self so nothing is double-counted;
//   * roots:      scopes with no profiled parent (rl.update, the perception
//     train epoch, env.step, agent.act). coverage = 1 − root_self /
//     root_total is the fraction of root wall time attributed to nested rows;
//   * phase:      forward by default; nn::Backward flips a thread-local so
//     the same GEMM shape reports separately for fwd and bwd.
//
// Flops/bytes are attributed exactly once per call tree: kernel-table entry
// points (gemm_nn/tn/nt, axpy, activations, adam, rowwise-max) report
// their own flops via kernels::FlopsFor; autograd nodes whose math runs
// through those kernels report zero at node level (their cost shows as the
// kernel rows nested beneath), while pure-loop nodes (Add, Tanh, Softmax,
// gathers, …) carry their own counts.
//
// Hardware counters: per-thread perf_event groups (see perf_counters.h)
// accumulate cycles/instructions/cache-misses/branch-misses for the session;
// when perf_event_open is unavailable (EACCES/ENOSYS/seccomp/non-Linux) the
// report simply carries hw.status — every wall-clock/flops column is
// unaffected.
#ifndef HEAD_OBS_PROFILER_H_
#define HEAD_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace head::obs {

class Histogram;

/// The one steady clock of the code base: nanoseconds, process-monotonic.
uint64_t NowNs();

enum class ProfPhase : uint8_t { kForward = 0, kBackward = 1 };

namespace prof_internal {
inline constexpr uint8_t kProfileGate = 1;
inline constexpr uint8_t kTraceGate = 2;
extern std::atomic<uint8_t> g_gates;
extern thread_local ProfPhase t_phase;

inline uint8_t Gates() { return g_gates.load(std::memory_order_relaxed); }
}  // namespace prof_internal

inline bool ProfilingEnabled() {
  return (prof_internal::Gates() & prof_internal::kProfileGate) != 0;
}
inline bool TracingEnabled() {
  return (prof_internal::Gates() & prof_internal::kTraceGate) != 0;
}

struct ProfilerOptions {
  /// Try to open per-thread perf_event hardware counters. Falls back to
  /// wall-clock-only silently when the kernel refuses; HEAD_PERF_COUNTERS=0
  /// pins the fallback regardless.
  bool hw_counters = true;
};

/// Zeroes all accumulated stats, then enables collection. Hardware counter
/// groups are (re)armed per thread on first profiled op.
void StartProfiling(const ProfilerOptions& options = {});
/// Disables collection (stats are retained for CollectProfile).
void StopProfiling();
/// Zeroes all accumulated stats without toggling the gate.
void ResetProfile();

/// Runtime switch of the trace gate; scopes opened while it is off emit no
/// trace event.
void SetTracingEnabled(bool enabled);

/// RAII timed scope — see the header comment for its three shapes. Each
/// output is decided when the scope opens, so a gate flipped mid-scope
/// never unbalances the nesting bookkeeping.
class Scope {
 public:
  /// Region scope: profiler row and trace event, each behind its gate.
  explicit Scope(const char* name) {
    const uint8_t gates = prof_internal::Gates();
    if (gates == 0) return;
    Begin(name, gates, nullptr, 0, 0, 0, 0, 0);
  }
  /// Region scope that also observes its duration (seconds) into `hist`;
  /// timed whatever the gates say.
  Scope(const char* name, Histogram& hist) {
    Begin(name, prof_internal::Gates(), &hist, 0, 0, 0, 0, 0);
  }
  /// Shaped op scope: profiler row only.
  Scope(const char* op, int m, int n, int k, int64_t flops, int64_t bytes) {
    if ((prof_internal::Gates() & prof_internal::kProfileGate) == 0) return;
    Begin(op, prof_internal::kProfileGate, nullptr, m, n, k, flops, bytes);
  }
  ~Scope() {
    if (name_ != nullptr) End();
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void Begin(const char* name, uint8_t outputs, Histogram* hist, int m,
             int n, int k, int64_t flops, int64_t bytes);
  void End();

  // Only name_ is initialized on the disabled path (the destructor's gate);
  // Begin fills everything else, keeping the disabled constructor at one
  // relaxed load, a branch and one store.
  const char* name_ = nullptr;
  uint8_t outputs_;  // gate bits captured at open
  ProfPhase phase_;
  int depth_;        // trace nesting depth on this thread
  Histogram* hist_;
  int m_, n_, k_;
  int64_t flops_, bytes_;
  uint64_t start_ns_;
  uint64_t child_ns_;       // filled by directly nested profiled scopes
  uint64_t* parent_child_;  // nullptr ⇒ this scope is a profiler root
};

/// Marks the current thread as running the given phase for its scope
/// (nn::Backward wraps itself in kBackward).
class ScopedProfPhase {
 public:
  explicit ScopedProfPhase(ProfPhase phase)
      : prev_(prof_internal::t_phase) {
    prof_internal::t_phase = phase;
  }
  ~ScopedProfPhase() { prof_internal::t_phase = prev_; }
  ScopedProfPhase(const ScopedProfPhase&) = delete;
  ScopedProfPhase& operator=(const ScopedProfPhase&) = delete;

 private:
  ProfPhase prev_;
};

// ---- Report ----

struct OpStats {
  std::string op;
  ProfPhase phase = ProfPhase::kForward;
  int m = 0, n = 0, k = 0;  ///< shape key; (count,1,1)-style for elementwise
  int64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  int64_t flops = 0;
  int64_t bytes = 0;

  double AvgNs() const {
    return count > 0 ? static_cast<double>(total_ns) / count : 0.0;
  }
  /// Achieved GFLOP/s over the op's own (total) wall time.
  double Gflops() const {
    return total_ns > 0 ? static_cast<double>(flops) / total_ns : 0.0;
  }
  /// Arithmetic intensity in flops/byte (0 when bytes were not attributed).
  double Intensity() const {
    return bytes > 0 ? static_cast<double>(flops) / bytes : 0.0;
  }
};

struct HwCounterReport {
  bool available = false;
  std::string status = "unopened";  ///< "ok" or the fallback reason tag
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_misses = 0;
  uint64_t branch_misses = 0;
  double ipc = 0.0;
};

/// Measured machine peaks the roofline is drawn against. Benches calibrate
/// via kernels::CalibrateProfilerRoofline() (a cache-resident GEMM through
/// the active backend); the built-in fallback is a portable FMA-loop +
/// stream sweep that underestimates SIMD peaks but keeps ratios meaningful.
struct RooflinePeaks {
  double gflops = 0.0;
  double gbps = 0.0;
  std::string source = "uncalibrated";
};

void SetRooflinePeaks(const RooflinePeaks& peaks);
/// Current peaks; runs the portable fallback calibration on first use if
/// nothing was injected.
RooflinePeaks GetRooflinePeaks();

/// The roofline bound for an op of the given intensity (flops/byte):
/// min(peak_gflops, intensity · peak_gbps). 0 when uncalibrated.
double RooflineBoundGflops(double intensity, const RooflinePeaks& peaks);

/// Portable stream-bandwidth sweep (read+write over a buffer past L2) —
/// the memory roof shared by the fallback calibration here and the
/// kernel-layer calibration. ~10 ms.
double MeasurePeakBandwidthGbps();

struct ProfileReport {
  uint64_t session_wall_ns = 0;  ///< Start→Stop (or →Collect while running)
  uint64_t root_total_ns = 0;
  uint64_t root_self_ns = 0;
  /// 1 − root_self/root_total: fraction of root-scope wall time attributed
  /// to nested per-op rows. 0 when nothing was profiled.
  double coverage = 0.0;
  int threads = 0;          ///< shards (≈ threads) that recorded ops
  int64_t dropped_ops = 0;  ///< records lost to per-thread table overflow
  HwCounterReport hw;
  RooflinePeaks roofline;
  std::vector<OpStats> ops;  ///< sorted by self_ns descending
};

/// Merges every thread's stats into one report (sorted by self time).
/// Intended at quiescence or under only-relaxed-counter racing — concurrent
/// profiled ops may be partially reflected but never corrupt the report.
ProfileReport CollectProfile();

/// Human-readable table; top_n = 0 prints every row.
std::string ProfileToText(const ProfileReport& report, size_t top_n = 0);
/// Schema "head-profile-v1": per-(op, shape, phase) rows plus coverage.
std::string ProfileToJson(const ProfileReport& report);
/// CollectProfile() → ProfileToJson → `path`; false on I/O error.
bool WriteProfileJsonFile(const std::string& path);

// ---- Trace events ----

/// One completed traced scope. Depth is the nesting level on its thread
/// (0 = root).
struct TraceEvent {
  const char* name;  ///< stored unowned: must outlive the trace
  uint32_t tid;      ///< small sequential per-thread id
  int depth;
  uint64_t start_ns;  ///< NowNs() clock
  uint64_t dur_ns;
};

/// Moves out every completed trace event recorded so far (all threads).
std::vector<TraceEvent> DrainTraceEvents();

/// Trace events dropped because the in-memory buffer hit its cap.
int64_t DroppedTraceEvents();

/// Chrome trace-event JSON ({"traceEvents":[...]}): one "ph":"X" complete
/// event per scope (microsecond timestamps), followed by the profiler's
/// achieved-GFLOP/s and GB/s counter tracks ("ph":"C") when the current
/// profiling session has sampled any.
void WriteChromeTrace(const std::vector<TraceEvent>& events, std::ostream& os);

/// Drains all trace events and writes them to `path`; false on I/O error.
bool WriteChromeTraceFile(const std::string& path);

}  // namespace head::obs

#define HEAD_OBS_CONCAT_INNER(a, b) a##b
#define HEAD_OBS_CONCAT(a, b) HEAD_OBS_CONCAT_INNER(a, b)

/// Timed region covering the rest of the enclosing scope:
/// HEAD_SCOPE(name) or HEAD_SCOPE(name, histogram).
#define HEAD_SCOPE(...) \
  ::head::obs::Scope HEAD_OBS_CONCAT(head_scope_, __LINE__)(__VA_ARGS__)

/// Shaped profiled op (kernels, autograd nodes).
#define HEAD_PROF_OP(op, m, n, k, flops, bytes)                  \
  ::head::obs::Scope HEAD_OBS_CONCAT(head_prof_, __LINE__)(op, m, n, k, \
                                                           flops, bytes)

#endif  // HEAD_OBS_PROFILER_H_
