#include "nn/lstm.h"

#include "common/check.h"

namespace head::nn {

LstmCell::LstmCell(int input_size, int hidden_size, Rng& rng)
    : hidden_size_(hidden_size),
      w_ih_(Var::Param(Tensor::XavierUniform(input_size, 4 * hidden_size, rng))),
      w_hh_(Var::Param(
          Tensor::XavierUniform(hidden_size, 4 * hidden_size, rng))),
      b_(Var::Param(Tensor::Zeros(1, 4 * hidden_size))) {
  HEAD_CHECK_GT(input_size, 0);
  HEAD_CHECK_GT(hidden_size, 0);
  // Forget-gate bias starts at 1 — the usual trick for gradient flow early
  // in training.
  Tensor& b = b_.mutable_value();
  for (int c = hidden_size; c < 2 * hidden_size; ++c) b.At(0, c) = 1.0;
}

LstmState LstmCell::InitialState(int batch) const {
  return LstmState{Var::Constant(Tensor::Zeros(batch, hidden_size_)),
                   Var::Constant(Tensor::Zeros(batch, hidden_size_))};
}

LstmState LstmCell::Forward(const Var& x, const LstmState& state) const {
  HEAD_CHECK_EQ(x.value().cols(), w_ih_.value().rows());
  HEAD_CHECK_EQ(x.value().rows(), state.h.value().rows());
  // One fused node for the gate pre-activation b + x·W_ih + h·W_hh: the
  // recurrent product accumulates into the input product's output, saving
  // an Add node and a (batch × 4h) temporary per step.
  const Var gates = DualAffine(x, w_ih_, state.h, w_hh_, b_);
  // The gate activations, c and h in two fused nodes (see LstmCellStep).
  const LstmCellVars next = LstmCellStep(gates, state.c);
  return LstmState{next.h, next.c};
}

}  // namespace head::nn
