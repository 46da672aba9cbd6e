// head_cli — command-line front end for the library.
//
//   head_cli scenarios
//       List the built-in traffic scenarios.
//   head_cli run <scenario> <policy> [episodes] [seed]
//       Evaluate a policy (idm | acc | tpbts | head) in a scenario and print
//       the Table I metrics row. `head` loads cached weights from
//       .head_cache/ (training them first if absent).
//   head_cli trace <scenario> <policy> <out.csv> [seed]
//       Record one episode and write the per-step CSV.
//   head_cli render <scenario> [seed]
//       Print a short ASCII replay of an IDM-LC episode.
//   head_cli replay <manifest.json>
//       Re-run a flight-recorder dump and verify bitwise agreement with the
//       recorded trajectory (exit 0 = parity, 1 = divergence).
//
// Global flags (any position):
//   --metrics-out=<path>   Write a JSON metrics snapshot on exit.
//   --trace-out=<path>     Enable tracing; write Chrome trace-event
//                          JSON on exit (open in chrome://tracing/Perfetto).
//   --record-dir=<path>    Enable the flight recorder; collisions (and other
//                          configured triggers) dump JSONL + manifest there.
//   --profile-out=<path>   Enable the op profiler; write the per-(op, shape)
//                          profile JSON ("head-profile-v1") on exit and print
//                          the top-10 table to stderr. Combined
//                          with --trace-out, the trace additionally carries
//                          the profiler's GFLOP/s / GB/s counter tracks.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "decision/idm_lc.h"
#include "eval/episode_runner.h"
#include "eval/replay.h"
#include "eval/table.h"
#include "eval/trace.h"
#include "nn/kernels/simd.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "sim/scenario.h"

namespace {

using namespace head;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  head_cli [flags] scenarios\n"
               "  head_cli [flags] run <scenario> <policy> [episodes] [seed]\n"
               "  head_cli [flags] trace <scenario> <policy> <out.csv> "
               "[seed]\n"
               "  head_cli [flags] render <scenario> [seed]\n"
               "  head_cli [flags] replay <manifest.json>\n"
               "flags: --metrics-out=<path> | --trace-out=<path> | "
               "--record-dir=<path> | --profile-out=<path>\n"
               "policies: idm | acc | tpbts | crash | head\n"
               "scenarios:");
  for (const std::string& name : sim::ScenarioNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int CmdRun(int argc, char** argv) {
  if (argc < 4) return Usage();
  const sim::SimConfig scenario = sim::ScenarioByName(argv[2]);
  auto policy = eval::MakeNamedPolicy(argv[3], scenario.road);
  if (policy == nullptr) return Usage();

  eval::RunnerConfig runner;
  runner.sim = scenario;
  runner.scenario_name = argv[2];
  runner.episodes = argc > 4 ? std::atoi(argv[4]) : 10;
  runner.seed_base = argc > 5 ? std::atoll(argv[5]) : 1000;
  const eval::AggregateMetrics m = eval::RunPolicy(*policy, runner);

  eval::TablePrinter table(
      {"Policy", "AvgDT-A(s)", "AvgDT-C(s)", "Avg#-CA", "MinTTC-A(s)",
       "AvgV-A(m/s)", "AvgJ-A(m/s2)", "AvgD-CA(m/s)", "Done/Coll"});
  table.AddRow({policy->name(), eval::FormatDouble(m.avg_dt_a_s, 1),
                eval::FormatDouble(m.avg_dt_c_s, 1),
                eval::FormatDouble(m.avg_num_ca, 1),
                eval::FormatDouble(m.min_ttc_a_s, 2),
                eval::FormatDouble(m.avg_v_a_mps, 2),
                eval::FormatDouble(m.avg_j_a_mps2, 2),
                eval::FormatDouble(m.avg_d_ca_mps, 2),
                std::to_string(m.completed) + "/" +
                    std::to_string(m.collisions)});
  table.Print(std::cout, std::string(argv[2]) + " scenario, " +
                             std::to_string(runner.episodes) + " episodes");
  return 0;
}

int CmdTrace(int argc, char** argv) {
  if (argc < 5) return Usage();
  eval::TraceConfig config;
  config.sim = sim::ScenarioByName(argv[2]);
  auto policy = eval::MakeNamedPolicy(argv[3], config.sim.road);
  if (policy == nullptr) return Usage();
  const uint64_t seed = argc > 5 ? std::atoll(argv[5]) : 7;
  const eval::EpisodeTrace trace =
      eval::RecordEpisode(*policy, config, seed);
  std::ofstream os(argv[4]);
  if (!os.good()) {
    std::fprintf(stderr, "cannot open %s for writing\n", argv[4]);
    return 1;
  }
  eval::WriteTraceCsv(trace, os);
  std::printf("%zu steps (%s) written to %s\n", trace.steps.size(),
              ToString(trace.final_status), argv[4]);
  return 0;
}

int CmdRender(int argc, char** argv) {
  if (argc < 3) return Usage();
  eval::TraceConfig config;
  config.sim = sim::ScenarioByName(argv[2]);
  decision::IdmLcPolicy policy(
      decision::RuleBasedConfig::ForRoad(config.sim.road));
  const uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 7;
  const eval::EpisodeTrace trace = eval::RecordEpisode(policy, config, seed);
  const size_t n = trace.steps.size();
  for (size_t k = 0; k < 5 && n > 0; ++k) {
    const size_t idx = std::min(n - 1, k * (n / 5 + 1));
    std::cout << eval::RenderStep(trace.steps[idx], config.sim.road) << "\n";
  }
  return 0;
}

int CmdReplay(int argc, char** argv) {
  if (argc < 3) return Usage();
  const eval::ReplayResult r = eval::ReplayFile(argv[2]);
  if (r.ok) {
    std::printf(
        "replay OK: %d recorded steps matched bitwise "
        "(%d steps replayed, end=%s)\n",
        r.records_compared, r.steps_replayed, obs::ToString(r.replay_end));
    return 0;
  }
  std::fprintf(stderr, "replay FAILED: %s\n", r.error.c_str());
  if (r.first_mismatch_step >= 0) {
    std::fprintf(stderr, "first divergence at step %d (%d records matched)\n",
                 r.first_mismatch_step, r.records_compared);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the observability flags before command dispatch.
  std::string metrics_out;
  std::string trace_out;
  std::string record_dir;
  std::string profile_out;
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::string("--metrics-out=").size());
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg.rfind("--record-dir=", 0) == 0) {
      record_dir = arg.substr(std::string("--record-dir=").size());
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      profile_out = arg.substr(std::string("--profile-out=").size());
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!trace_out.empty()) head::obs::SetTracingEnabled(true);
  if (!profile_out.empty()) {
    head::nn::kernels::CalibrateProfilerRoofline();
    head::obs::StartProfiling();
  }
  if (!record_dir.empty()) {
    head::obs::RecorderConfig rc;
    rc.dump_dir = record_dir;
    head::obs::ConfigureRecorder(rc);
    head::obs::SetRecordingEnabled(true);
  }

  int rc = 2;
  const int n = static_cast<int>(args.size());
  const std::string cmd = n > 1 ? args[1] : "";
  if (cmd == "scenarios") {
    for (const std::string& name : head::sim::ScenarioNames()) {
      std::printf("%s\n", name.c_str());
    }
    rc = 0;
  } else if (cmd == "run") {
    rc = CmdRun(n, args.data());
  } else if (cmd == "trace") {
    rc = CmdTrace(n, args.data());
  } else if (cmd == "render") {
    rc = CmdRender(n, args.data());
  } else if (cmd == "replay") {
    rc = CmdReplay(n, args.data());
  } else {
    rc = Usage();
  }

  if (!profile_out.empty()) {
    head::obs::StopProfiling();
    const head::obs::ProfileReport report = head::obs::CollectProfile();
    std::fputs(head::obs::ProfileToText(report, 10).c_str(), stderr);
    if (head::obs::WriteProfileJsonFile(profile_out)) {
      std::fprintf(stderr, "profile written to %s\n", profile_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write profile to %s\n",
                   profile_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!trace_out.empty()) {
    // With the profiler on, the trace carries its throughput counter tracks.
    if (head::obs::WriteChromeTraceFile(trace_out)) {
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!record_dir.empty()) {
    std::fprintf(stderr, "%lld flight dump(s) written to %s\n",
                 static_cast<long long>(head::obs::DumpsWritten()),
                 record_dir.c_str());
  }
  if (!metrics_out.empty()) {
    if (head::obs::WriteMetricsJsonFile(metrics_out)) {
      std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
