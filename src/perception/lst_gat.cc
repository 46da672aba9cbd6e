#include "perception/lst_gat.h"

#include <cstdint>

#include "common/check.h"
#include "obs/profiler.h"
#include "parallel/thread_pool.h"

namespace head::perception {

namespace {

/// Stacks every sample's step-k nodes into one (B·42×4) tensor — the data
/// matrix ForwardScaledBatch consumes per step, and what the batch replay
/// feeder re-feeds. Each sample packs into a disjoint block, so the loop
/// fans out across the pool (grain keeps small batches on one worker).
nn::Tensor StackStepBatch(const std::vector<const StGraph*>& graphs, int k) {
  const int batch = static_cast<int>(graphs.size());
  const int rows_per_sample = kNumAreas * kNodesPerTarget;
  nn::Tensor m(batch * rows_per_sample, kFeatureDim);
  double* base = m.data().data();
  parallel::ThreadPool& pool = parallel::ThreadPool::Global();
  const int64_t block = int64_t{rows_per_sample} * kFeatureDim;
  pool.ParallelFor(0, batch, /*grain=*/16, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      double* dst = base + b * block;
      const StepNodes& nodes = graphs[b]->steps[k];
      for (int i = 0; i < kNumAreas; ++i) {
        for (int n = 0; n < kNodesPerTarget; ++n) {
          for (int f = 0; f < kFeatureDim; ++f) {
            *dst++ = nodes.feat[i][n][f];
          }
        }
      }
    }
  });
  return m;
}

}  // namespace

LstGat::LstGat(const LstGatConfig& config, Rng& rng, FeatureScale scale)
    : StatePredictor(scale),
      config_(config),
      phi1_(nn::Var::Param(
          nn::Tensor::XavierUniform(kFeatureDim, config.d_phi1, rng))),
      phi2_(nn::Var::Param(
          nn::Tensor::XavierUniform(2 * config.d_phi1, 1, rng))),
      phi3_(nn::Var::Param(
          nn::Tensor::XavierUniform(kFeatureDim, config.d_phi3, rng))),
      lstm_(config.d_phi3, config.d_lstm, rng),
      head_(config.d_lstm, 3, rng) {}

std::vector<nn::Var> LstGat::Params() const {
  std::vector<nn::Var> params = {phi1_, phi2_, phi3_};
  for (const nn::Var& p : lstm_.Params()) params.push_back(p);
  for (const nn::Var& p : head_.Params()) params.push_back(p);
  return params;
}

nn::Var LstGat::FoldedAttention() const {
  if (!config_.use_attention) return nn::Var();  // uniform weights: no W
  const int d = config_.d_phi1;
  return nn::MatMulTransposeB(phi1_, nn::Reshape(phi2_, 2, d));  // (4×2)
}

nn::Var LstGat::Attention(const nn::Var& m, const nn::Var& w,
                          int groups) const {
  if (!config_.use_attention) {
    return nn::Var::Constant(
        nn::Tensor::Full(groups, kNodesPerTarget, 1.0 / kNodesPerTarget));
  }
  // Every group's target (node 0) against each of its nodes — Eq. (10) for
  // all groups at once, without slicing per target.
  const nn::Var scores = nn::LeakyRelu(
      nn::GroupPairSum(nn::MatMul(m, w), kNodesPerTarget),
      config_.leaky_slope);
  return nn::SoftmaxRows(scores);
}

nn::Var LstGat::GatStepStacked(const nn::Var& m, const nn::Var& w,
                               int groups) const {
  HEAD_CHECK_EQ(m.value().rows(), groups * kNodesPerTarget);
  const nn::Var alpha_col =  // (G·7×1)
      nn::Reshape(Attention(m, w, groups), groups * kNodesPerTarget, 1);
  // Weighted aggregation (Eq. 11) as scale-rows + within-group row sums on
  // the 4-wide features, then one (G×4)·(4×Dφ3) product: a fixed
  // multiply-then-accumulate order per row, so a sample's rows are bitwise
  // the same at any batch size B.
  const nn::Var mixed =
      nn::SumRowGroups(nn::ScaleRows(m, alpha_col), kNodesPerTarget);
  return nn::MatMul(mixed, phi3_);
}

nn::Var LstGat::ForwardScaledBatch(
    const std::vector<const StGraph*>& graphs) const {
  HEAD_SCOPE("perception.lstgat.forward");
  HEAD_CHECK(!graphs.empty());
  const int z = graphs[0]->z();
  HEAD_CHECK_GT(z, 0);
  for (const StGraph* g : graphs) {
    if (g->z() != z) return StatePredictor::ForwardScaledBatch(graphs);
  }
  const int batch = static_cast<int>(graphs.size());
  nn::LstmState state = lstm_.InitialState(batch * kNumAreas);
  const nn::Var w = FoldedAttention();
  for (int k = 0; k < z; ++k) {
    const nn::Var h_updated = GatStepStacked(
        nn::PlanInput(StackStepBatch(graphs, k)), w, batch * kNumAreas);
    state = lstm_.Forward(h_updated, state);  // Eq. (12), batched over B·6
  }
  return head_.Forward(state.h);  // (B·6×3), Eq. (13)
}

void LstGat::AppendPlanInputsBatch(const std::vector<const StGraph*>& graphs,
                                   std::vector<nn::Tensor>* inputs) const {
  HEAD_CHECK(!graphs.empty());
  for (int k = 0; k < graphs[0]->z(); ++k) {
    inputs->push_back(StackStepBatch(graphs, k));
  }
}

nn::Var LstGat::ForwardScaled(const StGraph& graph) const {
  return ForwardScaledBatch({&graph});
}

std::vector<double> LstGat::AttentionWeights(const StGraph& graph,
                                             int i) const {
  HEAD_CHECK(i >= 0 && i < kNumAreas);
  HEAD_CHECK_GT(graph.z(), 0);
  // Introspection only — values, no recorded graph. Tape-neutral (no reset):
  // callers may hold live Vars; these nodes recycle at the next region entry.
  const nn::NoGradGuard no_grad;
  const nn::Var m = nn::Var::Constant(StackStepBatch({&graph}, graph.z() - 1));
  const nn::Var w = FoldedAttention();
  const nn::Tensor alpha = Attention(m, w, kNumAreas).value();  // (6×7)
  std::vector<double> row(kNodesPerTarget);
  for (int n = 0; n < kNodesPerTarget; ++n) row[n] = alpha.At(i, n);
  return row;
}

}  // namespace head::perception
