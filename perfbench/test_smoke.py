#!/usr/bin/env python3
"""Self-test of the iotax benchmark, on its smoke mode (tiny inputs).

    python3 perfbench/test_smoke.py

Checks that
  * every workload passes in smoke mode, untraced and traced, and prints
    one result line holding exactly the BENCHMARK.json metrics;
  * a corrupted served value (serve-direct, serve-routed) and a corrupted
    offline report (offline-theta, untraced and traced) each fail the run:
    nonzero exit and "correct": false;
  * a step far beyond the server's capacity, which leaves requests
    unsent because the sender blocks on server backpressure, still passes
    the server accounting checks (they compare against requests actually
    written);
  * without the iotax sources next to it, the benchmark exits nonzero and
    prints no result.
Exits nonzero on the first failed expectation.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    cmd = ["python3", str(Path(cwd) / "perfbench" / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True,
                          timeout=600)
    results = []
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
    return proc, results


def expect(cond, what, proc=None):
    if cond:
        print(f"ok   {what}")
        return
    print(f"FAIL {what}")
    if proc is not None:
        print(proc.stdout[-3000:])
        print(proc.stderr[-3000:], file=sys.stderr)
    sys.exit(1)


def main():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        proc, results = run("--smoke", "--trace", str(trace))
        expect(proc.returncode == 0, f"smoke --trace {trace} exits 0", proc)
        expect(len(results) == len(SPEC["workloads"]),
               f"smoke --trace {trace} prints one result per workload", proc)
        for result in results:
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"smoke --trace {trace} result is correct", proc)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units,
                   f"smoke --trace {trace} metrics match BENCHMARK.json {key}",
                   proc)

    for workload, corrupt, trace in (("serve-direct", "served", 0),
                                     ("serve-routed", "served", 0),
                                     ("offline-theta", "report", 0),
                                     ("offline-theta", "report", 1)):
        proc, results = run("--smoke", "--workload", workload, "--trace",
                            str(trace), "--corrupt", corrupt)
        what = f"{workload} --trace {trace} with a corrupted {corrupt} value"
        expect(proc.returncode != 0, f"{what} exits nonzero", proc)
        expect(len(results) == 1 and results[0]["correct"] is False,
               f"{what} reports correct: false", proc)

    for workload in ("serve-direct", "serve-routed"):
        proc, results = run("--smoke", "--workload", workload, "--trace", "0",
                            "--overload")
        what = f"{workload} with an overloaded step"
        flood = re.search(r"^# step flood .* unsent\s+(\d+)", proc.stdout,
                          re.MULTILINE)
        expect(flood is not None, f"{what} runs the flood step", proc)
        if workload == "serve-routed":
            # The stop-and-wait router cannot take 50,000 requests in
            # 0.3 s: the sender must have been blocked.
            expect(int(flood.group(1)) > 0, f"{what} leaves requests unsent",
                   proc)
        expect(proc.returncode == 0 and len(results) == 1
               and results[0]["correct"] is True,
               f"{what} keeps exact accounting and passes", proc)

    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc, results = run("--workload", "serve-direct", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not results,
           "without the iotax sources the run fails and prints no result",
           proc)


if __name__ == "__main__":
    main()
