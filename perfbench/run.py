#!/usr/bin/env python3
"""iotax end-to-end benchmark entry point.

Builds iotax and the benchmark harness from the sources of this checkout
(into .bench_build/, incrementally) and runs one workload:

    python3 perfbench/run.py --workload offline-theta --seed 1 --seconds 10 --trace 0

Workloads: offline-theta, serve-direct, serve-routed (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is nonzero when a
correctness check fails.

Without --workload it runs all three in turn, each printing its own
result line, and exits nonzero if any of them failed.

    python3 perfbench/run.py --smoke

runs every workload on a tiny input in seconds (add --workload to pick one).
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
WORKLOADS = ("offline-theta", "serve-direct", "serve-routed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "tools" / "iotax_main.cpp"
    ).is_file():
        fail(f"iotax sources not found under {ROOT} (need src/ and tools/iotax_main.cpp)")
    BUILD.mkdir(parents=True, exist_ok=True)
    # Concurrent runs in one checkout build one at a time.
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build_locked()


def build_locked():
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_rev():
    """git revision when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return rev.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "tools" / "iotax_main.cpp"]
    for tree in (ROOT / "src", HERE):
        files += [p for p in tree.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def run_workload(args, workload, rev):
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("IOTAX_OBS", None)  # timed runs keep observability off
    cmd = [str(BUILD / "iotax_perfbench"),
           "--workload", workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--iotax-bin", str(BUILD / "iotax"),
           "--work-dir", str(work),
           "--rev", rev]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.overload:
        cmd.append("--overload")
    try:
        return subprocess.run(cmd, env=env, cwd=str(ROOT),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and short steps")
    parser.add_argument("--corrupt", choices=("served", "report"),
                        help="inject a wrong served value or report (self-test)")
    parser.add_argument("--overload", action="store_true",
                        help="serving: end with a step far beyond capacity, "
                             "so requests go unsent (self-test)")
    args = parser.parse_args()

    build()
    rev = source_rev()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    worst = 0
    for workload in workloads:
        worst = max(worst, run_workload(args, workload, rev))
    sys.exit(worst)


if __name__ == "__main__":
    main()
