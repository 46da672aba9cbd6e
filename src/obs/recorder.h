// Flight recorder: an aircraft-style black box for maneuver decisions.
//
// Every step of an episode, the instrumented pipeline fills one structured
// StepRecord — perceived/phantom neighbors, prediction summary, Q-values and
// action parameters, reward decomposition, chosen maneuver, RNG cursor — in
// a thread-local scratch slot, and commits it into a per-thread fixed-
// capacity ring buffer. Safety triggers (collision, TTC below a threshold,
// hard braking, episode failure, or a manual request) freeze the ring and
// dump the last N steps of pre/post-trigger context as JSONL alongside a
// replay manifest (scenario + policy + seed + episode index), so every
// failure becomes an inspectable, deterministically replayable artifact
// (`head_cli replay <manifest>` — see eval/replay.h).
//
// Cost model mirrors HEAD_SCOPE: with recording disabled (the default) every
// instrumentation site is one relaxed atomic load and a branch. Enabled,
// fills are plain stores into the preallocated thread-local scratch and a
// commit copies it into a preallocated ring slot — no heap allocation on
// the hot path; files are only touched when a trigger fires.
//
// Doubles are serialized with %.17g and parsed with strtod, so a dumped
// trajectory round-trips bitwise — the foundation of the replay-parity
// contract.
#ifndef HEAD_OBS_RECORDER_H_
#define HEAD_OBS_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace head::obs {

/// Mirrors perception::kNumAreas / rl::kNumBehaviors without depending on
/// those higher layers (obs sits at the bottom of the link order).
inline constexpr int kRecordNeighbors = 6;
inline constexpr int kRecordBehaviors = 3;

/// How the recorded episode ended (layer-neutral copy of sim::EpisodeStatus).
enum class EpisodeEnd : int8_t {
  kRunning = 0,
  kArrived = 1,
  kCollision = 2,
  kTimeout = 3,
};

const char* ToString(EpisodeEnd e);

/// One perceived (or phantom-completed) neighbor at the decision step,
/// ego-relative — the raw inputs of paper Eqs. (1)-(3).
struct NeighborRecord {
  int32_t id = -1;          ///< kInvalidVehicleId for phantoms
  uint8_t is_phantom = 0;
  double d_lat_m = 0.0;
  double d_lon_m = 0.0;
  double v_rel_mps = 0.0;
};

/// Predicted t+1 relative state of one target (LST-GAT output, Eq. 13).
struct PredictionRecord {
  double d_lat_m = 0.0;
  double d_lon_m = 0.0;
  double v_rel_mps = 0.0;
};

/// One decision step, as the black box stores it. Fixed-size (no heap) so a
/// commit is a struct copy into a preallocated ring slot.
struct StepRecord {
  int32_t step = -1;   ///< simulator step index after the maneuver applied
  double time_s = 0.0;

  // Ego state after the maneuver was applied.
  int32_t ego_lane = 0;
  double ego_lon_m = 0.0;
  double ego_v_mps = 0.0;

  // Perception: the six target slots of the completed scene.
  std::array<NeighborRecord, kRecordNeighbors> neighbors{};
  uint8_t has_neighbors = 0;
  std::array<PredictionRecord, kRecordNeighbors> prediction{};
  uint8_t has_prediction = 0;

  // Decision internals (RL agents only; rule-based policies leave has_* 0).
  std::array<double, kRecordBehaviors> q{};       ///< Q(s,x) per behavior
  uint8_t has_q = 0;
  std::array<double, kRecordBehaviors> params{};  ///< x(s) action parameters
  uint8_t has_params = 0;
  double epsilon = 0.0;

  // The maneuver actually applied.
  int32_t behavior = -1;   ///< discrete index (−1 = not an RL decision)
  int8_t lane_change = 0;  ///< −1 left / 0 keep / +1 right
  double accel_mps2 = 0.0;

  // Outcome of the transition.
  double r_safety = 0.0;
  double r_efficiency = 0.0;
  double r_comfort = 0.0;
  double r_impact = 0.0;
  double r_total = 0.0;
  uint8_t has_reward = 0;
  double ttc_s = -1.0;  ///< TTC to the front vehicle; −1 = not closing/none

  uint64_t rng_cursor = 0;  ///< action-RNG draw count after this decision
  EpisodeEnd end = EpisodeEnd::kRunning;
};

/// Why a dump was produced.
enum class DumpTrigger : int8_t {
  kManual = 0,
  kCollision = 1,
  kImpactRisk = 2,   ///< TTC fell below RecorderConfig::ttc_trigger_s
  kHardBrake = 3,    ///< accel ≤ −RecorderConfig::hard_brake_mps2
  kEpisodeFailure = 4,
};

const char* ToString(DumpTrigger t);

/// Identifies the episode a ring's records belong to — everything replay
/// needs to re-run it deterministically.
struct EpisodeContext {
  std::string scenario;  ///< sim::ScenarioByName key ("" = unnamed env)
  std::string policy;    ///< eval::MakeNamedPolicy key or agent name
  uint64_t seed = 0;     ///< simulation reset seed of the episode
  int episode_index = 0;
};

struct RecorderConfig {
  /// Ring slots per thread. At Δt = 0.5 s the default holds ~8.5 minutes of
  /// pre-trigger context (~0.6 MB per recording thread).
  int capacity = 1024;
  /// Directory for JSONL dumps + manifests; empty disables file output
  /// (records stay inspectable in memory via SnapshotRecords()).
  std::string dump_dir;
  /// Extra steps recorded after a trigger before the dump is written (post-
  /// trigger context). The dump is flushed early if the episode ends first.
  int post_trigger_steps = 0;
  bool dump_on_collision = true;
  /// Also dump when an episode ends in a timeout (divergence guard hit).
  bool dump_on_timeout = false;
  /// TTC threshold in seconds; > 0 arms the impact-risk trigger.
  double ttc_trigger_s = 0.0;
  /// Deceleration threshold in m/s²; > 0 arms the hard-brake trigger.
  double hard_brake_mps2 = 0.0;
};

namespace internal {
extern std::atomic<bool> g_recording_enabled;
}

/// Runtime switch (same idiom as SetTracingEnabled). While disabled, every
/// recorder call site costs one relaxed atomic load.
void SetRecordingEnabled(bool enabled);
inline bool RecordingEnabled() {
  return internal::g_recording_enabled.load(std::memory_order_relaxed);
}

/// Installs the configuration used by rings created/reset after this call
/// (capacity changes take effect at the next BeginEpisode on each thread).
void ConfigureRecorder(const RecorderConfig& config);
RecorderConfig GetRecorderConfig();

/// The calling thread's under-construction record. Instrumentation sites
/// fill their slice; the step loop commits. Only meaningful while
/// RecordingEnabled() — callers must gate:
///
///   if (obs::RecordingEnabled()) obs::ScratchRecord().ttc_s = ttc;
StepRecord& ScratchRecord();

/// Pushes the scratch record into the ring (overwriting the oldest record
/// when full), clears the scratch, and evaluates the dump triggers against
/// the just-committed record. No-op while disabled.
void CommitStepRecord();

/// Clears the calling thread's ring + scratch and installs the episode
/// context for subsequent commits/dumps. No-op while disabled.
void BeginEpisode(const EpisodeContext& ctx);

/// Marks episode end: flushes a pending (post-context) dump and fires the
/// episode-failure trigger when `end` is a failure the config dumps on.
/// No-op while disabled.
void EndEpisode(EpisodeEnd end);

/// Manually freeze + dump the calling thread's ring. Returns false when
/// recording is disabled, the ring is empty, or no dump_dir is configured.
/// On success `*manifest_path` (if non-null) receives the manifest path.
bool DumpNow(std::string* manifest_path = nullptr);

/// Records currently in the calling thread's ring, oldest first.
std::vector<StepRecord> SnapshotRecords();

/// Ring records overwritten before they could be dumped (all threads, since
/// process start). Also exported as the `obs.recorder.overwritten` counter.
int64_t OverwrittenRecords();

/// Records committed (all threads) — `obs.recorder.committed` counter.
int64_t CommittedRecords();

/// Dumps written to disk so far (all threads).
int64_t DumpsWritten();

// ---- Serialization (exposed for replay + tests) ----

/// One JSONL line per record, oldest first.
void WriteRecordsJsonl(const std::vector<StepRecord>& records,
                       std::ostream& os);

/// Parses one JSONL line produced by WriteRecordsJsonl. Doubles round-trip
/// bitwise. Returns false on malformed input.
bool ParseRecordLine(const std::string& line, StepRecord* out);

/// A loaded dump: manifest context + records.
struct FlightDump {
  EpisodeContext ctx;
  DumpTrigger trigger = DumpTrigger::kManual;
  EpisodeEnd end = EpisodeEnd::kRunning;
  std::vector<StepRecord> records;
};

std::string ManifestJson(const FlightDump& dump,
                         const std::string& jsonl_filename);

/// Loads a dump from its manifest path (the records JSONL is resolved
/// relative to the manifest's directory). Returns false on I/O or parse
/// error; `*error` (if non-null) receives a description.
bool LoadFlightDump(const std::string& manifest_path, FlightDump* out,
                    std::string* error = nullptr);

}  // namespace head::obs

#endif  // HEAD_OBS_RECORDER_H_
