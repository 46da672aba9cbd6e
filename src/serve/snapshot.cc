#include "serve/snapshot.h"

#include <utility>

#include "common/check.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace head::serve {

namespace {

/// Power-of-two bucket caps the number of plans a snapshot compiles at
/// log2(largest batch) while wasting at most 2× forward work on a ragged
/// tail batch.
int BucketFor(int n) {
  int b = 1;
  while (b < n) b <<= 1;
  return b;
}

/// Plans per cache map; buckets beyond the cap run eagerly. Power-of-two
/// keys make 8 enough for batches up to 128.
constexpr size_t kMaxPlansPerCache = 8;

int ArgMaxRow(const nn::Tensor& t, int row) {
  int best = 0;
  for (int c = 1; c < t.cols(); ++c) {
    if (t.At(row, c) > t.At(row, best)) best = c;
  }
  return best;
}

}  // namespace

ModelSnapshot::ModelSnapshot(uint64_t version, std::unique_ptr<rl::XNet> x,
                             std::unique_ptr<rl::QNet> q,
                             std::unique_ptr<perception::StatePredictor> predictor)
    : version_(version),
      x_(std::move(x)),
      q_(std::move(q)),
      predictor_(std::move(predictor)) {
  HEAD_CHECK(x_ != nullptr);
  HEAD_CHECK(q_ != nullptr);
  zero_state_.h = nn::Tensor::Zeros(rl::kStateHRows, rl::kStateCols);
  zero_state_.f = nn::Tensor::Zeros(rl::kStateFRows, rl::kStateCols);
}

void ModelSnapshot::DecideBatch(
    const std::vector<const rl::AugmentedState*>& states,
    DecisionOutput* out) const {
  const int n = static_cast<int>(states.size());
  HEAD_CHECK_GT(n, 0);
  HEAD_SCOPE("serve.decide");
  nn::ResetTape();  // recycle the previous batch's nodes on this thread
  const nn::NoGradGuard no_grad;

  nn::Tensor xv;  // (B×3) accelerations
  nn::Tensor qv;  // (B×3) action values
  bool have = false;
  if (nn::PlansEnabled()) {
    const int bucket = BucketFor(n);
    std::vector<const rl::AugmentedState*> padded = states;
    padded.resize(static_cast<size_t>(bucket), &zero_state_);
    std::shared_ptr<const nn::ExecPlan> plan;
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      const auto it = decide_plans_.find(bucket);
      if (it != decide_plans_.end()) {
        plan = it->second;
      } else if (decide_plans_.size() < kMaxPlansPerCache) {
        // Capture runs the step eagerly as it records — its outputs serve
        // this batch; replay starts at the next batch of this bucket.
        nn::PlanCapture capture;
        const nn::Var x = x_->ForwardBatch(padded);
        const nn::Var q = q_->ForwardBatch(padded, x);
        xv = x.value();
        qv = q.value();
        have = true;
        decide_plans_.emplace(bucket, capture.Finish({x, q}));
      }
    }
    if (plan != nullptr) {
      // Slot order follows capture-time PlanInput creation: the actor's
      // state tensors first, then the critic's (x flows as a graph edge).
      std::vector<nn::Tensor> in;
      x_->AppendPlanInputsBatch(padded, &in);
      q_->AppendPlanInputsBatch(padded, &in);
      const std::vector<const nn::Tensor*> outs = plan->Replay(std::move(in));
      xv = *outs[0];
      qv = *outs[1];
      have = true;
    }
  }
  if (!have) {
    const nn::Var x = x_->ForwardBatch(states);
    const nn::Var q = q_->ForwardBatch(states, x);
    xv = x.value();
    qv = q.value();
  }

  HEAD_CHECK_GE(xv.rows(), n);
  HEAD_CHECK_EQ(xv.cols(), rl::kNumBehaviors);
  HEAD_CHECK_EQ(qv.cols(), rl::kNumBehaviors);
  for (int i = 0; i < n; ++i) {
    DecisionOutput& d = out[i];
    d.behavior = ArgMaxRow(qv, i);
    d.accel = xv.At(i, d.behavior);
    for (int c = 0; c < rl::kNumBehaviors; ++c) {
      d.q[c] = qv.At(i, c);
      d.params[c] = xv.At(i, c);
    }
  }
}

void ModelSnapshot::PredictBatch(
    const std::vector<const perception::StGraph*>& graphs,
    perception::Prediction* out) const {
  const int n = static_cast<int>(graphs.size());
  HEAD_CHECK_GT(n, 0);
  HEAD_CHECK(predictor_ != nullptr);
  HEAD_SCOPE("serve.predict");
  nn::ResetTape();
  const nn::NoGradGuard no_grad;
  const perception::FeatureScale& scale = predictor_->scale();

  // Group requests by history depth z — a plan's shape is fixed per z, and
  // the vectorized LST-GAT pass requires a uniform-z batch anyway. Serving
  // deployments see a single z, so this is one group in practice.
  std::vector<std::pair<int, std::vector<int>>> groups;
  for (int i = 0; i < n; ++i) {
    const int z = graphs[i]->z();
    auto it = groups.begin();
    for (; it != groups.end() && it->first != z; ++it) {
    }
    if (it == groups.end()) {
      groups.emplace_back(z, std::vector<int>{});
      it = groups.end() - 1;
    }
    it->second.push_back(i);
  }

  const bool use_plans = nn::PlansEnabled() && predictor_->PlanCapturable();
  for (const auto& [z, idxs] : groups) {
    const int m = static_cast<int>(idxs.size());
    std::vector<const perception::StGraph*> group;
    group.reserve(idxs.size());
    for (const int i : idxs) group.push_back(graphs[i]);

    nn::Tensor value;  // (bucket·6×3) scaled residuals, sample-major
    bool have = false;
    if (use_plans) {
      const int bucket = BucketFor(m);
      std::shared_ptr<const nn::ExecPlan> plan;
      const perception::StGraph* zero_graph = nullptr;
      {
        std::lock_guard<std::mutex> lock(plan_mu_);
        auto& zg = zero_graphs_[z];
        if (zg == nullptr) {
          zg = std::make_unique<perception::StGraph>();
          zg->steps.resize(static_cast<size_t>(z));
        }
        zero_graph = zg.get();
      }
      std::vector<const perception::StGraph*> padded = group;
      padded.resize(static_cast<size_t>(bucket), zero_graph);
      const int64_t key = (static_cast<int64_t>(bucket) << 32) | z;
      {
        std::lock_guard<std::mutex> lock(plan_mu_);
        const auto it = predict_plans_.find(key);
        if (it != predict_plans_.end()) {
          plan = it->second;
        } else if (predict_plans_.size() < kMaxPlansPerCache) {
          nn::PlanCapture capture;
          const nn::Var v = predictor_->ForwardScaledBatch(padded);
          value = v.value();
          have = true;
          predict_plans_.emplace(key, capture.Finish({v}));
        }
      }
      if (plan != nullptr) {
        HEAD_SCOPE(predictor_->ForwardScopeName());
        std::vector<nn::Tensor> in;
        predictor_->AppendPlanInputsBatch(padded, &in);
        value = *plan->Replay(std::move(in))[0];
        have = true;
      }
    }
    if (!have) value = predictor_->ForwardScaledBatch(group).value();

    HEAD_CHECK_GE(value.rows(), m * perception::kNumAreas);
    HEAD_CHECK_EQ(value.cols(), 3);
    for (int j = 0; j < m; ++j) {
      const perception::StGraph& g = *group[j];
      perception::Prediction& pred = out[idxs[j]];
      for (int i = 0; i < perception::kNumAreas; ++i) {
        const int row = j * perception::kNumAreas + i;
        pred[i].d_lat_m =
            g.target_rel_current[i][0] + value.At(row, 0) / scale.lat;
        pred[i].d_lon_m =
            g.target_rel_current[i][1] + value.At(row, 1) / scale.lon;
        pred[i].v_rel_mps =
            g.target_rel_current[i][2] + value.At(row, 2) / scale.v;
      }
    }
  }
}

ModelSnapshotRegistry::ModelSnapshotRegistry(ModelFactories factories,
                                             size_t keep, uint64_t seed)
    : factories_(std::move(factories)), keep_(keep), rng_(seed) {
  HEAD_CHECK_GE(keep_, 1u);
  HEAD_CHECK(factories_.make_x != nullptr);
  HEAD_CHECK(factories_.make_q != nullptr);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshotRegistry::Publish(
    const rl::XNet& x, const rl::QNet& q,
    const perception::StatePredictor* predictor) {
  HEAD_SCOPE("serve.publish");
  // Deep copies run outside the ring lock — weight copies are the expensive
  // part of a publish and must not block Current() readers' lock-free path
  // (they don't) nor live_versions() introspection (they would).
  Rng fork(0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fork = rng_.Fork();
  }
  std::unique_ptr<rl::XNet> x_copy = factories_.make_x(fork);
  x_copy->CopyParamsFrom(x);
  std::unique_ptr<rl::QNet> q_copy = factories_.make_q(fork);
  q_copy->CopyParamsFrom(q);
  std::unique_ptr<perception::StatePredictor> pred_copy;
  if (predictor != nullptr) {
    HEAD_CHECK(factories_.make_predictor != nullptr);
    pred_copy = factories_.make_predictor(fork);
    pred_copy->CopyParamsFrom(*predictor);
  }

  std::shared_ptr<const ModelSnapshot> snap;
  std::vector<std::shared_ptr<const ModelSnapshot>> retired;
  size_t live = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap = std::make_shared<const ModelSnapshot>(
        ++next_version_, std::move(x_copy), std::move(q_copy),
        std::move(pred_copy));
    ring_.push_back(snap);
    current_ = snap;
    while (ring_.size() > keep_) {
      retired.push_back(std::move(ring_.front()));
      ring_.pop_front();
    }
    live = ring_.size();
  }

  static obs::Counter& published = obs::GetCounter("serve.snapshots_published");
  static obs::Counter& retired_count =
      obs::GetCounter("serve.snapshots_retired");
  static obs::Gauge& live_gauge = obs::GetGauge("serve.live_snapshots");
  published.Add();
  live_gauge.Set(static_cast<double>(live));
  for (const std::shared_ptr<const ModelSnapshot>& r : retired) {
    // Drain outside the lock: a retiree's in-flight batches keep their own
    // shared_ptr, so this wait is a staleness bound, not a safety need.
    r->inflight().Wait();
    retired_count.Add();
  }
  return snap;
}

uint64_t ModelSnapshotRegistry::current_version() const {
  const std::shared_ptr<const ModelSnapshot> snap = Current();
  return snap == nullptr ? 0 : snap->version();
}

std::vector<uint64_t> ModelSnapshotRegistry::live_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> versions;
  versions.reserve(ring_.size());
  for (const std::shared_ptr<const ModelSnapshot>& s : ring_) {
    versions.push_back(s->version());
  }
  return versions;
}

}  // namespace head::serve
