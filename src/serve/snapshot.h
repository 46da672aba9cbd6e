// RCU-style model publication for the decision service.
//
// A ModelSnapshot is one immutable published model version: deep-copied
// decision networks (and optionally a state predictor) whose Params never
// change after construction, plus this version's own static-plan caches.
// Plans bind replay graphs to the *live* Params they were captured against
// (nn/plan.h "external parents stay shared"), so plan caches can never be
// shared across versions — each snapshot compiles and owns its own.
//
// The ModelSnapshotRegistry is the publication point: a training thread
// calls Publish(online_x, online_q, predictor) and readers pick up the new
// version with a single shared_ptr copy under the registry mutex
// (Current()). The read serializes only with the publisher's pointer swap —
// the deep parameter copies happen before the critical section — and the
// batcher reads once per *batch*, so the lock amortizes over up to
// max_batch requests. (std::atomic<std::shared_ptr> would make the read
// lock-free, but libstdc++'s _Sp_atomic guards its pointer member with an
// embedded lock bit ThreadSanitizer cannot model, and a publication seam
// the race detector cannot verify is worth less than the ~40ns.) The
// registry keeps the last `keep` versions alive in a ring; pushing a version
// out of the ring *retires* it — Publish blocks until the retiree's
// in-flight batches drain (its WaitToken), which bounds publisher-observable
// staleness without ever pausing the serving path. Memory safety does not
// depend on the drain: every dispatched batch holds a shared_ptr to the
// snapshot it reads, so a retired version's storage survives until its last
// batch completes regardless.
//
// Batch shape discipline: DecideBatch/PredictBatch pad each batch up to the
// next power of two with snapshot-owned zero states, so at most
// log2(max_batch) plans exist per snapshot. Padding is sound because every
// kernel on these paths computes each output row with arithmetic that is
// independent of the other rows and of the total row count (the uniform-
// arithmetic GEMM contract, tested as packed-path row invariance), and both
// network families are row-independent per sample — a request's reply is
// bitwise identical whatever co-batched traffic it shared a forward with.
#ifndef HEAD_SERVE_SNAPSHOT_H_
#define HEAD_SERVE_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "nn/plan.h"
#include "parallel/thread_pool.h"
#include "perception/predictor.h"
#include "rl/nets.h"
#include "rl/pamdp.h"

namespace head::serve {

/// How the registry materializes a published version: fresh nets from the
/// same factories the agent used, then CopyParamsFrom the live source.
/// `make_predictor` may be empty when the deployment serves decisions only.
struct ModelFactories {
  std::function<std::unique_ptr<rl::XNet>(Rng&)> make_x;
  std::function<std::unique_ptr<rl::QNet>(Rng&)> make_q;
  std::function<std::unique_ptr<perception::StatePredictor>(Rng&)>
      make_predictor;
};

/// The greedy maneuver decision for one request: argmax behavior over the
/// critic's Q row plus the actor's acceleration for that behavior (and the
/// full Q/x rows for auditability).
struct DecisionOutput {
  int behavior = rl::kBehaviorKeep;
  double accel = 0.0;
  std::array<double, rl::kNumBehaviors> q{};
  std::array<double, rl::kNumBehaviors> params{};
};

class ModelSnapshot {
 public:
  /// Takes ownership of already-frozen nets. `predictor` may be null.
  /// Normally constructed by ModelSnapshotRegistry::Publish.
  ModelSnapshot(uint64_t version, std::unique_ptr<rl::XNet> x,
                std::unique_ptr<rl::QNet> q,
                std::unique_ptr<perception::StatePredictor> predictor);

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  uint64_t version() const { return version_; }
  bool has_predictor() const { return predictor_ != nullptr; }

  /// One batched greedy forward (actor then critic) under NoGrad; writes
  /// states.size() outputs into `out`. Replays this snapshot's compiled
  /// plan for the padded bucket size (captured on first use); falls back to
  /// eager execution when plans are disabled or the nets aren't capturable.
  /// Safe to call concurrently from any number of threads.
  void DecideBatch(const std::vector<const rl::AugmentedState*>& states,
                   DecisionOutput* out) const;

  /// Batched one-step prediction; writes graphs.size() Predictions. Graphs
  /// of mixed history depth are grouped by z (a plan needs a fixed shape).
  /// Requires has_predictor().
  void PredictBatch(const std::vector<const perception::StGraph*>& graphs,
                    perception::Prediction* out) const;

  /// In-flight batch counter. The service dispatches every batch through
  /// ThreadPool::SubmitWithToken(&snapshot->inflight(), ...), so retirement
  /// waits on exactly this version's outstanding work.
  parallel::WaitToken& inflight() const { return inflight_; }

 private:
  const uint64_t version_;
  std::unique_ptr<rl::XNet> x_;
  std::unique_ptr<rl::QNet> q_;
  std::unique_ptr<perception::StatePredictor> predictor_;
  /// Padding row for decision batches: all-zero h/f blocks.
  rl::AugmentedState zero_state_;

  /// This version's plan caches (decide keyed by bucket, predict keyed by
  /// bucket<<32|z) plus the zero-graph padding rows per z. Guarded: batches
  /// race on first-use capture. Logically const — the snapshot's observable
  /// outputs never change.
  mutable std::mutex plan_mu_;
  mutable std::unordered_map<int, std::shared_ptr<const nn::ExecPlan>>
      decide_plans_;
  mutable std::unordered_map<int64_t, std::shared_ptr<const nn::ExecPlan>>
      predict_plans_;
  mutable std::unordered_map<int, std::unique_ptr<perception::StGraph>>
      zero_graphs_;

  mutable parallel::WaitToken inflight_;
};

class ModelSnapshotRegistry {
 public:
  /// `keep` >= 1 versions stay live after each Publish. `seed` feeds the
  /// factory Rng (the values are overwritten by CopyParamsFrom; the seed
  /// only decorrelates any internal factory draws).
  explicit ModelSnapshotRegistry(ModelFactories factories, size_t keep = 3,
                                 uint64_t seed = 0x5eedu);

  /// Deep-copies the live nets into a new immutable version, publishes it
  /// as Current(), and retires versions beyond `keep` — blocking until each
  /// retiree's in-flight batches drain. Returns the new snapshot (tests
  /// hold these to validate replies against historical versions). Safe to
  /// call concurrently with Current()/serving; Publish itself is expected
  /// from one training thread at a time.
  std::shared_ptr<const ModelSnapshot> Publish(
      const rl::XNet& x, const rl::QNet& q,
      const perception::StatePredictor* predictor = nullptr);

  /// Newest published version (null before the first Publish). One
  /// shared_ptr copy under the registry mutex; called once per batch. See
  /// the file header for why this is a mutex and not atomic<shared_ptr>.
  std::shared_ptr<const ModelSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  uint64_t current_version() const;
  std::vector<uint64_t> live_versions() const;

 private:
  ModelFactories factories_;
  const size_t keep_;

  mutable std::mutex mu_;  ///< guards ring_, next_version_, rng_, current_
  Rng rng_;
  std::deque<std::shared_ptr<const ModelSnapshot>> ring_;
  uint64_t next_version_ = 0;
  std::shared_ptr<const ModelSnapshot> current_;
};

}  // namespace head::serve

#endif  // HEAD_SERVE_SNAPSHOT_H_
