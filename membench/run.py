#!/usr/bin/env python3
"""Build and run the SCMP membership benchmark (membench/).

Run from the repository root:

    python3 membench/run.py --workload flash_crowd --seed 1 --seconds 25 --trace 0

builds membench from the sources in src/ (CMake, Release, into
$CARGO_TARGET_DIR/membench, default .bench_build/membench) and runs one
workload. The last line of standard output is the result JSON object; the
line before it is the per-run ledger (see membench/README.md).

Two extra modes, for people rather than the benchmark harness:

    python3 membench/run.py --selftest
        build and run the unit tests of the benchmark's own arithmetic.
    python3 membench/run.py --check-determinism --workload W --seed N
        run W twice untraced and twice traced at seed N and require the
        deterministic values (sim-time metrics, tree quality, per-layer
        counts) to be bit-identical.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flash_crowd", "zipf_epoch_lossy", "steady_data")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"membench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no SCMP sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(base if os.path.isabs(base)
                             else os.path.join(ROOT, base), "membench")
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=out, stderr=out)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], check=True, stdout=out, stderr=out)
    return build_dir


def run_bench(build_dir, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns its stdout lines."""
    cmd = [os.path.join(build_dir, "membench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def check_determinism(build_dir, workload, seed):
    seen = {}
    for trace in (0, 0, 1, 1):
        code, lines = run_bench(build_dir, workload, seed, 1, trace)
        if code != 0:
            log(f"run failed with exit code {code}")
            return 1
        det = json.loads(lines[-2])["ledger"]["deterministic"]
        for key, value in det.items():
            if key in seen and seen[key] != value:
                log(f"NOT deterministic: {key} = {seen[key]!r} vs {value!r}")
                return 1
            seen[key] = value
    log(f"{workload} seed {seed}: {len(seen)} deterministic values "
        "bit-identical across 4 runs")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--check-determinism", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        build_dir = build("ledger_test")
        return subprocess.run([os.path.join(build_dir, "ledger_test")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    build_dir = build("membench")
    if args.check_determinism:
        return check_determinism(build_dir, args.workload, args.seed)
    code, lines = run_bench(build_dir, args.workload, args.seed, args.seconds,
                            args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
