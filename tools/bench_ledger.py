#!/usr/bin/env python3
"""The perf ledger: BENCH_drive.json and BENCH_train.json at the repo root.

    python3 tools/bench_ledger.py record   # 10 untraced 30 s runs each
    python3 tools/bench_ledger.py check    # one run per workload, gated

Run from the repository root. Both commands drive perfbench
(`python3 perfbench/run.py`) at the ledger's fixed seed and read the JSON
object on the last line of its output.

`record` alternates drive and train runs and writes, per workload, every
run's result line plus the median and interquartile range of each
end-to-end metric. Every change that moves performance re-records both.

`check` fails when
  * an untraced drive or train run is not `correct` or has a failed
    operation;
  * one of its BENCHMARK.json end-to-end metrics is worse than the worst
    recorded run by more than that metric's bound;
  * a traced drive run is not `correct`, has a failed operation, or does not
    serve a batch of 32 decisions cheaper per row than a batch of 1
    (`model.decide_row_us.b32` < `model.decide_row_us.b1`).
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 5          # fixed before the first recording
SECONDS = 30
# Ten alternating pairs (~12 min on a 4-vCPU VM). The host's speed drifts
# over minutes: a first five-pair recording caught only a fast spell, and
# runs in the next half hour read train's lat_p50_us up to 28% above all
# five of its runs.
RUNS = 10
WORKLOADS = ("drive", "train")


def perfbench(workload, trace, seconds=SECONDS):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           f"--workload={workload}", f"--seed={SEED}",
           f"--seconds={seconds}", f"--trace={trace}"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True).stdout
    try:
        return json.loads(out.rstrip("\n").split("\n")[-1])
    except (ValueError, IndexError):
        sys.exit(f"bench_ledger: no result line from {' '.join(cmd)}")


def ledger_path(workload):
    return os.path.join(ROOT, f"BENCH_{workload}.json")


def record():
    runs = {w: [] for w in WORKLOADS}
    for i in range(RUNS):
        for w in WORKLOADS:
            result = perfbench(w, trace=0)
            print(f"{w} run {i + 1}/{RUNS}: correct={result['correct']} "
                  f"failed={result['failed']}", flush=True)
            if not result["correct"] or result["failed"]:
                sys.exit("bench_ledger: not recording a failed run")
            runs[w].append(result)
    for w in WORKLOADS:
        names = runs[w][0]["metrics"].keys()
        median, iqr = {}, {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median[name], iqr[name] = q2, q3 - q1
        with open(ledger_path(w), "w") as f:
            json.dump({"workload": w, "seed": SEED, "seconds": SECONDS,
                       "median": median, "iqr": iqr, "runs": runs[w]},
                      f, indent=1)
            f.write("\n")
        print(f"wrote {ledger_path(w)}")


def check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = json.load(f)["end_to_end"]
    failed = False

    def verdict(ok, line):
        nonlocal failed
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {line}")

    for w in WORKLOADS:
        with open(ledger_path(w)) as f:
            ledger = json.load(f)
        result = perfbench(w, trace=0, seconds=ledger["seconds"])
        verdict(result["correct"] and result["failed"] == 0,
                f"{w}: correct={result['correct']} failed={result['failed']}")
        for m in bounds:
            name, bound = m["name"], m["bound"]
            recorded = [r["metrics"][name]["value"] for r in ledger["runs"]]
            value = result["metrics"][name]["value"]
            if m["better"] == "lower":
                limit = max(recorded) * (1 + bound)
                ok = value <= limit
            else:
                limit = min(recorded) * (1 - bound)
                ok = value >= limit
            verdict(ok, f"{w} {name}: {value:.4g} (limit {limit:.4g}, "
                        f"recorded median {ledger['median'][name]:.4g})")

    traced = perfbench("drive", trace=1, seconds=10)
    verdict(traced["correct"] and traced["failed"] == 0,
            f"traced drive: correct={traced['correct']} "
            f"failed={traced['failed']}")
    b1 = traced["metrics"]["model.decide_row_us.b1"]["value"]
    b32 = traced["metrics"]["model.decide_row_us.b32"]["value"]
    verdict(0 < b32 < b1,
            f"serve batching: decide row {b32:.3g} us at B=32 < "
            f"{b1:.3g} us at B=1")
    sys.exit("bench_ledger: perf gate failed" if failed else 0)


if __name__ == "__main__":
    commands = {"record": record, "check": check}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    commands[sys.argv[1]]()
