#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`). The host-drift probe runs in its own process
before and after the workload, so its buffer never counts toward the
workload's peak RSS; the CPU time the hypervisor stole during the workload
is printed beside it. The last line of standard output is the result JSON;
any failure (build, run, invalid run) exits non-zero without one.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-solve", "serve-full", "serve-road-st")
# A run must end within 180 s; the build before it is not counted here.
RUN_LIMIT_S = 170
PROBE_LIMIT_S = 30


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def probe(binary):
    """Nanoseconds per step of the fixed pointer chase."""
    done = subprocess.run([binary, "probe"], capture_output=True, text=True,
                          timeout=PROBE_LIMIT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def cpu_jiffies():
    """`(steal, total)` CPU jiffies from /proc/stat; `None` where unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already inside user and nice.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_pct(before, after):
    """Share of CPU time the hypervisor took from this guest in between."""
    if before is None or after is None or after[1] <= before[1]:
        return "unavailable"
    return f"{100.0 * (after[0] - before[0]) / (after[1] - before[1]):.2f} %"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]

    started = time.monotonic()
    try:
        chase = [probe(binary)]
        jiffies = cpu_jiffies()
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_LIMIT_S - PROBE_LIMIT_S)
        stolen = steal_pct(jiffies, cpu_jiffies())
        chase.append(probe(binary))
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        print(f"perfbench: run did not finish: {e}", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: workload exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1

    result = json.loads(lines[-1])
    chase_ns = sum(chase) / len(chase)
    if args.trace:
        result["metrics"]["host.chase_ns"] = {"value": chase_ns, "unit": "ns"}
    for line in lines[:-1]:
        print(line)
    print(f"# host.chase_ns = {chase_ns} ns (before {chase[0]:.1f}, after {chase[1]:.1f}; "
          f"diagnostic, never gated)")
    print(f"# host.steal = {stolen} of CPU time during the workload (diagnostic, never gated)")
    print(f"# wall {time.monotonic() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
