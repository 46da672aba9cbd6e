#include "parallel/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace head::parallel {

namespace {

/// True on threads that are currently inside a pool worker (or inside an
/// inline ParallelFor chunk). Nested parallel constructs run inline instead
/// of re-submitting to the pool, so a full pool can never deadlock on its
/// own tasks.
thread_local bool tls_in_worker = false;

ThreadPool* g_override = nullptr;  // see GlobalPoolOverride

}  // namespace

void WaitToken::Release() {
  // The decrement, the notify, and Wait's predicate reads all happen under
  // the lock. That closes two lifetime/lost-wakeup holes at once: a waiter
  // cannot miss the notify between its predicate check and its block, and a
  // waiter that returns from Wait() is ordered strictly after the final
  // releaser has left the mutex — so the caller may destroy the token
  // immediately after Wait() (DecisionService does exactly that at
  // shutdown). A lock-free fast path that observes pending_ == 0 outside
  // the lock would let Wait return while a releaser is still inside
  // notify_all on the about-to-be-destroyed condvar.
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

void WaitToken::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [this] { return pending_.load(std::memory_order_acquire) == 0; });
}

int HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int ConfiguredThreadCount() {
  static const int count = [] {
    const char* env = std::getenv("HEAD_THREADS");
    if (env != nullptr) {
      const int parsed = std::atoi(env);
      if (parsed >= 1) return parsed;
    }
    return HardwareThreads();
  }();
  return count;
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads), start_seconds_(obs::NowNs() * 1e-9) {
  HEAD_CHECK_GE(threads, 1);
  if (threads_ == 1) return;  // inline mode: no workers, no queue traffic
  workers_.reserve(threads_);
  for (int i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  Task t;
  t.fn = [task] { (*task)(); };
  t.enqueue_seconds = obs::NowNs() * 1e-9;
  if (threads_ == 1) {
    RunTask(std::move(t));  // inline: ready before Submit returns
    return future;
  }
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    HEAD_CHECK(!stop_);
    queue_.push_back(std::move(t));
    depth = queue_.size();
  }
  static obs::Gauge& queue_depth = obs::GetGauge("parallel.pool.queue_depth");
  queue_depth.Set(static_cast<double>(depth));
  cv_.notify_one();
  return future;
}

std::future<void> ThreadPool::SubmitWithToken(WaitToken* token,
                                              std::function<void()> fn) {
  HEAD_CHECK(token != nullptr);
  token->Acquire();
  return Submit([token, fn = std::move(fn)] {
    struct Releaser {
      WaitToken* t;
      ~Releaser() { t->Release(); }
    } releaser{token};
    fn();
  });
}

bool ThreadPool::PopTask(Task* task) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // stop_ with a drained queue
  *task = std::move(queue_.front());
  queue_.pop_front();
  const size_t depth = queue_.size();
  lock.unlock();
  static obs::Gauge& queue_depth = obs::GetGauge("parallel.pool.queue_depth");
  queue_depth.Set(static_cast<double>(depth));
  return true;
}

void ThreadPool::RunTask(Task task) {
  static obs::Counter& tasks = obs::GetCounter("parallel.pool.tasks");
  static obs::Histogram& queue_wait =
      obs::LatencyHistogram("parallel.task.queue_wait");
  static obs::Histogram& run_latency =
      obs::LatencyHistogram("parallel.task.run");
  const double start = obs::NowNs() * 1e-9;
  queue_wait.Observe(start - task.enqueue_seconds);
  task.fn();
  const double elapsed = obs::NowNs() * 1e-9 - start;
  run_latency.Observe(elapsed);
  tasks.Add();
  busy_ns_.fetch_add(static_cast<int64_t>(elapsed * 1e9),
                     std::memory_order_relaxed);
  // Utilization = busy time across workers / (wall time × pool size). Only
  // meaningful for multi-thread pools; updated per task, which is cheap
  // because tasks are coarse (episodes, ParallelFor chunk batches).
  const double wall = obs::NowNs() * 1e-9 - start_seconds_;
  if (wall > 0 && threads_ > 1) {
    static obs::Gauge& utilization =
        obs::GetGauge("parallel.pool.utilization");
    utilization.Set(busy_ns_.load(std::memory_order_relaxed) * 1e-9 /
                    (wall * threads_));
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  Task task;
  while (PopTask(&task)) {
    RunTask(std::move(task));
    task = Task{};
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  if (threads_ == 1 || tls_in_worker || n <= grain) {
    fn(begin, end);
    return;
  }

  // Fixed chunk boundaries: a pure function of (n, grain, thread_count), so
  // per-chunk accumulation order never depends on scheduling. Cap the chunk
  // count at 4 per thread — enough slack to balance uneven chunks without
  // paying dispatch overhead per tiny slice.
  const int64_t max_chunks = static_cast<int64_t>(threads_) * 4;
  const int64_t num_chunks =
      std::min((n + grain - 1) / grain, std::max<int64_t>(2, max_chunks));
  const int64_t chunk = (n + num_chunks - 1) / num_chunks;

  struct Ctrl {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto ctrl = std::make_shared<Ctrl>();
  auto run_chunks = [ctrl, begin, end, chunk, num_chunks, &fn] {
    int64_t i;
    int64_t ran = 0;
    while ((i = ctrl->next.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks) {
      const int64_t lo = begin + i * chunk;
      const int64_t hi = std::min(end, lo + chunk);
      fn(lo, hi);
      ++ran;
    }
    if (ran > 0 &&
        ctrl->done.fetch_add(ran, std::memory_order_acq_rel) + ran ==
            num_chunks) {
      std::lock_guard<std::mutex> lock(ctrl->mu);
      ctrl->cv.notify_all();
    }
  };

  // The caller claims chunks too, so at most threads_ - 1 helpers are ever
  // useful. Helpers that wake up after the cursor is exhausted return
  // without touching fn — fn is only dereferenced while the caller is
  // blocked here, so the by-reference capture is safe.
  const int64_t helpers =
      std::min<int64_t>(threads_ - 1, num_chunks - 1);
  static obs::Counter& dispatches =
      obs::GetCounter("parallel.pfor.dispatches");
  dispatches.Add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    HEAD_CHECK(!stop_);
    const double now = obs::NowNs() * 1e-9;
    for (int64_t h = 0; h < helpers; ++h) {
      Task t;
      t.fn = run_chunks;
      t.enqueue_seconds = now;
      queue_.push_back(std::move(t));
    }
  }
  cv_.notify_all();

  // Participate, then wait for stragglers. The tls flag makes any nested
  // ParallelFor inside fn run inline.
  const bool was_in_worker = tls_in_worker;
  tls_in_worker = true;
  run_chunks();
  tls_in_worker = was_in_worker;
  std::unique_lock<std::mutex> lock(ctrl->mu);
  ctrl->cv.wait(lock, [&] {
    return ctrl->done.load(std::memory_order_acquire) == num_chunks;
  });
}

ThreadPool& ThreadPool::Global() {
  if (g_override != nullptr) return *g_override;
  static ThreadPool* pool = new ThreadPool(ConfiguredThreadCount());
  return *pool;
}

GlobalPoolOverride::GlobalPoolOverride(ThreadPool* pool)
    : previous_(g_override) {
  g_override = pool;
}

GlobalPoolOverride::~GlobalPoolOverride() { g_override = previous_; }

}  // namespace head::parallel
