// Op-level profiler: aggregation correctness, self-time/root/coverage
// accounting, fwd/bwd phase split, perf-counter fallback (EACCES/ENOSYS
// must leave every wall-clock and GFLOP/s column populated), export
// formats, and — the TSan target in tools/check.sh — profiled multi-env
// rollouts through a 4-thread EnvPool.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "parallel/env_pool.h"
#include "parallel/thread_pool.h"
#include "rl/env.h"
#include "rl/pdqn_agent.h"

namespace head {
namespace {

/// Busy-waits so a scope has measurable, strictly positive duration even
/// on coarse clocks (no sleeps: keeps the TSan run fast).
void SpinNs(uint64_t ns) {
  const uint64_t until = obs::NowNs() + ns;
  while (obs::NowNs() < until) {
  }
}

const obs::OpStats* FindOp(const obs::ProfileReport& report,
                           const std::string& name,
                           obs::ProfPhase phase = obs::ProfPhase::kForward) {
  for (const obs::OpStats& op : report.ops) {
    if (op.op == name && op.phase == phase) return &op;
  }
  return nullptr;
}

/// Starts a wall-clock-only session (hardware counters off: these tests
/// pin the aggregation math, not the kernel's perf_event support).
void StartWallClockProfiling() {
  obs::ProfilerOptions options;
  options.hw_counters = false;
  obs::StartProfiling(options);
}

TEST(ProfilerTest, DisabledRecordsNothing) {
  obs::StopProfiling();
  obs::ResetProfile();
  EXPECT_FALSE(obs::ProfilingEnabled());
  for (int i = 0; i < 100; ++i) {
    HEAD_PROF_OP("test.ignored", 8, 8, 8, 1024, 1536);
  }
  const obs::ProfileReport report = obs::CollectProfile();
  EXPECT_EQ(report.ops.size(), 0u);
  EXPECT_EQ(report.coverage, 0.0);
}

TEST(ProfilerTest, AggregatesCountShapeAndFlops) {
  StartWallClockProfiling();
  constexpr int kCalls = 32;
  for (int i = 0; i < kCalls; ++i) {
    HEAD_PROF_OP("test.gemm", 16, 24, 8, /*flops=*/2 * 16 * 24 * 8,
                 /*bytes=*/8 * (16 * 8 + 8 * 24 + 16 * 24));
    SpinNs(2000);
  }
  obs::StopProfiling();
  const obs::ProfileReport report = obs::CollectProfile();

  const obs::OpStats* op = FindOp(report, "test.gemm");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->count, kCalls);
  EXPECT_EQ(op->m, 16);
  EXPECT_EQ(op->n, 24);
  EXPECT_EQ(op->k, 8);
  EXPECT_EQ(op->flops, static_cast<int64_t>(kCalls) * 2 * 16 * 24 * 8);
  EXPECT_GE(op->total_ns, kCalls * 2000u);
  EXPECT_GT(op->Gflops(), 0.0);
  EXPECT_GT(op->Intensity(), 0.0);
  // Order statistics are internally consistent (histogram approximation
  // stays within its bucket, so p50/p95 sit inside [min, max]·(1±25%)).
  EXPECT_LE(op->min_ns, op->max_ns);
  EXPECT_LE(op->p50_ns, op->p95_ns);
  EXPECT_GE(static_cast<double>(op->p95_ns), 0.75 * op->min_ns);
  EXPECT_LE(static_cast<double>(op->p50_ns), 1.25 * op->max_ns);
  EXPECT_DOUBLE_EQ(op->AvgNs(),
                   static_cast<double>(op->total_ns) / kCalls);
}

TEST(ProfilerTest, SelfTimeAndCoverageFromNesting) {
  StartWallClockProfiling();
  { HEAD_SCOPE("test.warmup"); }  // one-time slot-claim cost off-path
  for (int i = 0; i < 8; ++i) {
    HEAD_SCOPE("test.root");
    SpinNs(1000);  // root self work
    {
      HEAD_PROF_OP("test.child", 4, 4, 0, 0, 0);
      SpinNs(8000);  // dominates: coverage should be high
    }
  }
  obs::StopProfiling();
  const obs::ProfileReport report = obs::CollectProfile();

  const obs::OpStats* root = FindOp(report, "test.root");
  const obs::OpStats* child = FindOp(report, "test.child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  // The child's total is subtracted from the root's self.
  EXPECT_LE(root->self_ns, root->total_ns - child->total_ns);
  EXPECT_EQ(child->self_ns, child->total_ns);
  // test.root dominates the roots (the warmup scope adds a few ns), and
  // the child work dominates the coverage split (8:1 spin ratio ⇒ well
  // above 60% even with scope overhead on a noisy box).
  EXPECT_GE(report.root_total_ns, root->total_ns);
  EXPECT_LT(report.root_total_ns, root->total_ns + 100 * 1000u);
  EXPECT_GT(report.coverage, 0.6);
  EXPECT_LE(report.coverage, 1.0);
}

TEST(ProfilerTest, PhaseSplitsSameShape) {
  StartWallClockProfiling();
  {
    HEAD_PROF_OP("test.op", 8, 8, 8, 100, 100);
    SpinNs(500);
  }
  {
    obs::ScopedProfPhase bwd(obs::ProfPhase::kBackward);
    for (int i = 0; i < 2; ++i) {
      HEAD_PROF_OP("test.op", 8, 8, 8, 100, 100);
      SpinNs(500);
    }
  }
  obs::StopProfiling();
  const obs::ProfileReport report = obs::CollectProfile();
  const obs::OpStats* fwd = FindOp(report, "test.op", obs::ProfPhase::kForward);
  const obs::OpStats* bwd =
      FindOp(report, "test.op", obs::ProfPhase::kBackward);
  ASSERT_NE(fwd, nullptr);
  ASSERT_NE(bwd, nullptr);
  EXPECT_EQ(fwd->count, 1);
  EXPECT_EQ(bwd->count, 2);
}

TEST(ProfilerTest, RooflineInjectionAndBound) {
  obs::RooflinePeaks peaks;
  peaks.gflops = 40.0;
  peaks.gbps = 20.0;
  peaks.source = "test-injected";
  obs::SetRooflinePeaks(peaks);
  EXPECT_EQ(obs::GetRooflinePeaks().source, "test-injected");
  // Memory-bound below the ridge (40/20 = 2 flops/byte), compute-bound above.
  EXPECT_DOUBLE_EQ(obs::RooflineBoundGflops(1.0, peaks), 20.0);
  EXPECT_DOUBLE_EQ(obs::RooflineBoundGflops(16.0, peaks), 40.0);
}

// The ISSUE 8 fallback contract: when perf_event_open fails (permissions,
// seccomp, no kernel support), profiling must neither crash nor lose any
// wall-clock-derived column — only hw.available flips off with the errno
// tag as the status.
class PerfFallbackTest : public ::testing::TestWithParam<int> {
  void TearDown() override {
    obs::internal::SetPerfOpenFailureForTest(0);  // restore real probing
  }
};

TEST_P(PerfFallbackTest, WallClockColumnsSurviveOpenFailure) {
  obs::internal::SetPerfOpenFailureForTest(GetParam());

  obs::PerfCounterGroup group;
  EXPECT_FALSE(group.Open());
  EXPECT_FALSE(group.open());
  EXPECT_FALSE(obs::PerfCountersAvailable());

  obs::ProfilerOptions options;
  options.hw_counters = true;  // ask for counters; the open must fail cleanly
  obs::StartProfiling(options);
  for (int i = 0; i < 16; ++i) {
    HEAD_PROF_OP("test.fallback", 32, 32, 32, 2 * 32 * 32 * 32, 3 * 8192);
    SpinNs(1000);
  }
  obs::StopProfiling();
  const obs::ProfileReport report = obs::CollectProfile();

  EXPECT_FALSE(report.hw.available);
  EXPECT_EQ(report.hw.status, GetParam() == EACCES ? "eacces" : "enosys");
  const obs::OpStats* op = FindOp(report, "test.fallback");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->count, 16);
  EXPECT_GT(op->total_ns, 0u);
  EXPECT_GT(op->Gflops(), 0.0);  // GFLOP/s must not zero out without hw
  EXPECT_GT(op->p95_ns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Errnos, PerfFallbackTest,
                         ::testing::Values(EACCES, ENOSYS));

TEST(ProfilerTest, TextAndJsonExports) {
  StartWallClockProfiling();
  {
    HEAD_PROF_OP("test.export", 10, 20, 30, 12000, 4000);
    SpinNs(500);
  }
  obs::StopProfiling();
  const obs::ProfileReport report = obs::CollectProfile();

  const std::string text = obs::ProfileToText(report, 0);
  EXPECT_NE(text.find("test.export"), std::string::npos);
  EXPECT_NE(text.find("10x20x30"), std::string::npos);
  EXPECT_NE(text.find("coverage"), std::string::npos);

  const std::string json = obs::ProfileToJson(report);
  EXPECT_NE(json.find("\"schema\":\"head-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"test.export\""), std::string::npos);

  const std::string path =
      ::testing::TempDir() + "/obs_profiler_test_profile.json";
  ASSERT_TRUE(obs::WriteProfileJsonFile(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("head-profile-v1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ProfilerTest, ChromeTraceCarriesCounterTracks) {
  StartWallClockProfiling();
  // Flops-carrying ops spread past the 500 µs sampling throttle so the
  // session records at least two cumulative-throughput samples.
  for (int i = 0; i < 8; ++i) {
    HEAD_PROF_OP("test.counters", 32, 32, 32, 1 << 20, 1 << 18);
    SpinNs(200 * 1000);
  }
  obs::StopProfiling();

  const std::string path =
      ::testing::TempDir() + "/obs_profiler_test_trace.json";
  ASSERT_TRUE(obs::WriteChromeTraceFile(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace.find("GFLOP/s"), std::string::npos);
  EXPECT_NE(trace.find("GB/s"), std::string::npos);
  std::remove(path.c_str());
}

// TSan target: four worker threads each stepping its own env, every step
// recording dozens of ops into per-thread shards concurrently with the
// main thread's own profiled scopes.
TEST(ProfilerTest, MultiThreadedEnvPoolRollout) {
  rl::EnvConfig env_config;
  env_config.sim.road.length_m = 400.0;
  env_config.sim.spawn.back_margin_m = 120.0;
  env_config.sim.spawn.front_margin_m = 120.0;
  env_config.use_prediction = false;
  rl::PdqnConfig agent_config;
  Rng rng(21);
  auto agent = rl::MakePDqnAgent(agent_config, rng);

  parallel::ThreadPool pool(4);
  parallel::EnvPool envs(
      4,
      [&](int) {
        return std::make_unique<rl::DrivingEnv>(env_config, nullptr, 1);
      },
      &pool);
  parallel::EnvPool::RolloutOptions opts;
  opts.seed_base = 31;
  opts.max_steps_per_episode = 60;

  StartWallClockProfiling();
  {
    HEAD_SCOPE("test.rollout");
    const auto results = envs.RunEpisodes(*agent, 0, 8, opts);
    EXPECT_EQ(results.size(), 8u);
  }
  obs::StopProfiling();
  const obs::ProfileReport report = obs::CollectProfile();

  EXPECT_GE(report.threads, 1);
  EXPECT_EQ(report.dropped_ops, 0);
  const obs::OpStats* step = FindOp(report, "env.step");
  ASSERT_NE(step, nullptr);
  EXPECT_GT(step->count, 0);
  EXPECT_NE(FindOp(report, "env.perceive"), nullptr);
  EXPECT_NE(FindOp(report, "rl.act"), nullptr);
  EXPECT_GT(report.coverage, 0.0);
}

}  // namespace
}  // namespace head
