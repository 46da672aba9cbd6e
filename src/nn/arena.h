// Per-thread arena for the autograd tape. Every op node (internal::VarImpl)
// is handed out by the calling thread's GraphArena and recycled — not freed —
// when the tape is reset at the start of the next graph-building region
// (optimizer step, Act, Predict). Nodes live in chunked storage so their
// addresses never move, and they keep their vector capacities (parents,
// index lists) across resets; combined with the TensorPool behind Tensor
// storage this makes steady-state training steps allocation-free.
//
// Handles (nn::Var) carry the arena epoch at creation time; a handle used
// after its node was recycled into a newer epoch trips HEAD_DCHECK in debug
// builds (see Var::alive()). Trainable parameters are not arena nodes — they
// are heap-allocated leaves owned by their Var handles and survive resets.
#ifndef HEAD_NN_ARENA_H_
#define HEAD_NN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nn/tensor.h"

namespace head::nn {

namespace internal {

/// One autograd tape node. Backward closures are plain function pointers;
/// per-op state lives in the node itself (aux_d / aux_i / indices) and the
/// inputs are read back from `parents` (same order the op listed them).
struct VarImpl {
  Tensor value;
  Tensor grad;  // lazily allocated on first accumulation
  bool requires_grad = false;
  void (*backward)(VarImpl&) = nullptr;  // reads this.grad, feeds parents
  /// Recomputes `value` from `parents` — the op's eager arithmetic re-run
  /// verbatim. Set on every MakeResult node; consumed by ExecPlan::Replay
  /// (plan.h), which walks nodes in creation order instead of rebuilding
  /// the graph. nullptr on leaves (Params, Constants, plan inputs).
  void (*forward)(VarImpl&) = nullptr;
  std::vector<VarImpl*> parents;
  double aux_d = 0.0;        // Scale factor, LeakyRelu slope
  int aux_i = 0;             // SliceCols c0 / SliceRows r0 / group size
  std::vector<int> indices;  // gather rows / selected cols / argmax
  /// Activations an op's backward reads besides its output (the fused LSTM
  /// cell's gates and tanh(c)); written by its forward, empty elsewhere.
  Tensor saved;
  /// Op literal for profiler backward attribution; set by MakeResult
  /// whenever `backward` is, so it is never read stale after recycling.
  const char* op_name = nullptr;
  uint64_t epoch = 0;        // arena epoch at creation; 0 = persistent leaf
  uint64_t visit_mark = 0;   // Backward traversal stamp

  void AccumGrad(const Tensor& g) {
    if (grad.empty()) {
      grad = g;  // first consumer: one pooled copy, no zero-fill pass
    } else {
      grad.AddScaled(g, 1.0);
    }
  }

  /// First accumulation adopts the temporary instead of copying — closures
  /// feed freshly built tensors here, so the common single-consumer case
  /// does no extra allocation or pass.
  void AccumGrad(Tensor&& g) {
    if (grad.empty()) {
      grad = std::move(g);
    } else {
      grad.AddScaled(g, 1.0);
    }
  }
};

}  // namespace internal

/// Cumulative statistics of one thread's arena (plain fields — thread-local).
struct GraphArenaStats {
  uint64_t nodes_created = 0;  ///< monotonic; grows only when chunks are added
  uint64_t resets = 0;
  size_t capacity = 0;     ///< nodes currently held (all chunks)
  size_t peak_in_use = 0;  ///< high-water mark of live nodes in one epoch
};

class GraphArena {
 public:
  static GraphArena& ThreadLocal();

  GraphArena();
  ~GraphArena();
  GraphArena(const GraphArena&) = delete;
  GraphArena& operator=(const GraphArena&) = delete;

  /// The next recycled node, reset to a clean state (no backward, no
  /// parents, no grad; parent/index capacities and the value tensor's
  /// pooled buffer are retained from the node's previous life).
  internal::VarImpl* New();

  /// Recycles every node handed out since the last Reset: the cursor
  /// rewinds and the epoch advances so stale Var handles become detectable.
  /// Nothing is freed — node storage and capacities are reused.
  void Reset();

  uint64_t epoch() const { return epoch_; }
  size_t nodes_in_use() const { return cursor_; }
  const GraphArenaStats& stats() const { return stats_; }

  /// Persistent Backward scratch: cleared per call, capacity retained, so
  /// the topo sort reserves itself to the previous step's node count.
  std::vector<internal::VarImpl*>& order_scratch() { return order_scratch_; }
  std::vector<std::pair<internal::VarImpl*, size_t>>& stack_scratch() {
    return stack_scratch_;
  }

  static constexpr size_t kChunkNodes = 256;

 private:
  struct Chunk;  // fixed VarImpl array — node addresses never move

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t cursor_ = 0;
  uint64_t epoch_ = 1;  // starts above the persistent-leaf epoch 0
  GraphArenaStats stats_;
  std::vector<internal::VarImpl*> order_scratch_;
  std::vector<std::pair<internal::VarImpl*, size_t>> stack_scratch_;
};

/// Recycles the calling thread's tape (GraphArena::ThreadLocal().Reset()).
/// Call at the start of each graph-building region; any Var from an earlier
/// region (except Params and other persistent leaves) becomes invalid.
void ResetTape();

/// Publishes the calling thread's arena + tensor-pool statistics to the obs
/// metrics registry as nn_alloc_* gauges (see DESIGN.md "Memory management").
void PublishAllocMetrics();

/// Steady-state allocation probe: arena chunk growth plus tensor-pool misses
/// on the calling thread. The delta across a warmed-up training step is zero
/// when the step ran entirely out of recycled memory (the PlanAllocTest and
/// serve_test zero-allocation tests).
uint64_t AllocEvents();

}  // namespace head::nn

#endif  // HEAD_NN_ARENA_H_
