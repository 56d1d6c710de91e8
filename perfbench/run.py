#!/usr/bin/env python3
"""pfsym benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload numeric --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout; pfsym is imported from ./src.  Each
workload runs in a fresh single-threaded child process (child.py), which
sets up, repeats the workload's operation list for --seconds, and checks
every output against an oracle that does not use pfsym (oracles.py).
Set-up is also measured in SETUP_RUNS extra fresh processes, half before
and half after the measured one, and setup_s is the median of all of them.

Workloads (built from --seed by workloads.py), all closed loop with one
caller:
  numeric   double-precision pfaffians of cosine-kernel and random skew
            arrays, 2n = 4..14 (the float kernel, backend.pf_double)
  exact     Fraction arrays in every mode at 2n = 4..10 (pfaffian, hook
            expansion, determinant), symbolic pfaffians at 2n = 4..8 and
            Poly determinants at sizes 2..5 (the generic scalar path)
  symmetry  symmetry-group searches in S_m, m = 4..8, by the matching
            classifier and by the polynomial action (group search)

Output: one JSON line with the run context, then the result as the last
line: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
whose counts and self times are means per pass of the operation list.
Exits non-zero without a result when pfsym cannot be imported or a child
fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("numeric", "exact", "symmetry")
SETUP_RUNS = 8  # extra fresh processes that only set up
TIMEOUT_S = 170  # for all children of one workload together


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def child(args: list[str], deadline: float) -> dict:
    """Run child.py in a fresh process and return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(context, result) for one workload."""
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setup = lambda: child([*common, "--setup-only"], deadline)["setup_s"]
    setups = [setup() for _ in range(SETUP_RUNS // 2)]
    out = child([*common, "--trace", str(trace)], deadline)
    setups += [out["setup_s"]] + [setup() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    metrics = out["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    detail = out["detail"]
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": detail.pop("python"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "backend": detail.pop("backend"),
        "PFSYM_BACKEND": os.environ.get("PFSYM_BACKEND"),
        "PF_CAP": os.environ.get("PF_CAP"),
        "inputs_digest": detail.pop("inputs_digest"),
        "setup_runs_s": setups,
        **detail,
    }
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return context, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            context, result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
            print(f"workload {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"context": context}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
