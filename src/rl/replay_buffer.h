// Fixed-capacity experience replay (ring buffer) with uniform sampling —
// the buffer ℬ of Eq. (22).
#ifndef HEAD_RL_REPLAY_BUFFER_H_
#define HEAD_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "rl/pamdp.h"

namespace head::rl {

struct Transition {
  AugmentedState state;
  /// The discrete action index of AgentAction::behavior, in the producing
  /// agent's layout: a behavior for the P-DQN family, the flat
  /// behavior × DrlScAgent::kAccelLevels + level index for DRL-SC.
  int behavior = 0;
  nn::Tensor params;       ///< full action-parameter vector as applied
  double reward = 0.0;
  AugmentedState next_state;
  bool terminal = false;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity);

  void Push(Transition t);
  size_t size() const { return storage_.size(); }
  size_t capacity() const { return capacity_; }

  /// Uniformly samples `n` transitions (with replacement). Requires size>0.
  std::vector<const Transition*> Sample(size_t n, Rng& rng) const;

 private:
  size_t capacity_;
  size_t next_ = 0;
  std::vector<Transition> storage_;
};

}  // namespace head::rl

#endif  // HEAD_RL_REPLAY_BUFFER_H_
