#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <cold_repro|warm_replay|server_jobs|all>
                             --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the benchmark (perfbench/, a
package of its own) and the dcg-server binary in release mode, pins the
environment the library reads, runs one workload (or `all` three) and
prints a summary followed by the result line:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

The full report, with machine provenance, is written under
perfbench/work/results/. Exits non-zero, without a result line, when the
sources cannot be built, and non-zero when an output check fails.
"""

import argparse
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold_repro", "warm_replay", "server_jobs")

# Variables that would make a run crash on purpose, inject faults, shrink
# the workload or evict traces mid-run.
FORBIDDEN = re.compile(r"^DCG_\w*_CRASH$|^DCG_FAULT_SEED$|^DCG_BENCH_QUICK$|^DCG_TRACE_CACHE_BUDGET$")

# Worker threads and client connections, capped by the CPUs this process
# may use.
MAX_THREADS = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def capture(cmd, cwd):
    try:
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(root, args, threads):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    uname = platform.uname()
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        commit = capture(["git", "rev-parse", "HEAD"], root)
    return {
        "nproc": os.cpu_count(),
        "available_parallelism": len(os.sched_getaffinity(0)),
        "threads": threads,
        "os": f"{uname.system} {uname.release}",
        "kernel": uname.version,
        "machine": uname.machine,
        "cpu_model": cpu,
        "rustc": capture(["rustc", "-V"], root),
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
    }


def build(root, env):
    steps = [
        # No --locked here: the benchmark's lock file lists only path
        # crates of this repository and must follow their dependency edges.
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "dcg-server", "--bin", "dcg-server"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def reap(pgid):
    """Kill whatever is left of the benchmark's process group and wait
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be non-negative and --seconds positive")
        return 2

    forbidden = sorted(k for k in os.environ if FORBIDDEN.match(k))
    if forbidden:
        log(f"refusing to run with {', '.join(forbidden)} set: unset them for a clean measurement")
        return 2

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        log(f"repository sources not found under {root}")
        return 1

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    build_env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(root, build_env):
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(root, target, workload, args) for workload in workloads)


def run_workload(root, target, workload, args):
    threads = max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))
    work = os.path.join(root, "perfbench", "work")
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCG_")}
    env.update(
        # Every store the library would open by default stays inside the
        # benchmark's work directory, never the repository's results/.
        DCG_TRACE_CACHE=os.path.join(work, workload, "default-cache"),
        DCG_WORKERS=str(threads),
        DCG_SWEEP_THREADS=str(threads),
    )
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "dcg-perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        # Relative to the root (the working directory), which keeps the
        # server's socket path under the 108-byte limit however deep the
        # checkout is.
        "--work", os.path.relpath(work, root),
        "--golden", "results",
        "--server-bin", os.path.join(release, "dcg-server"),
        "--threads", str(threads),
    ]
    stderr_path = os.path.join(work, f"{workload}.stderr.log")
    with open(stderr_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=900)
        except subprocess.TimeoutExpired:
            out = ""
            log("benchmark timed out")
        finally:
            reap(proc.pid)
            proc.wait()

    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        with open(stderr_path, encoding="utf-8") as f:
            sys.stderr.write(f.read()[-4000:])
        log(f"benchmark exited with {proc.returncode} and no result")
        return 1

    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    report["provenance"] = provenance(root, args, threads)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(work, "results", name), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")

    print(f"# {workload} seed {args.seed} trace {args.trace}: "
          f"{report['latency_samples']['count']} latency samples, "
          f"{len(report['pass_wall_s'])} passes, {len(report['setup_s'])} set-ups")
    for metric, m in result["metrics"].items():
        print(f"{metric}: {m['value']} {m['unit']}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
