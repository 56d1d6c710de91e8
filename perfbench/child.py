"""One workload in one fresh process: set-up, timed passes, checks.

Run by `run.py`, not by hand.  Prints one JSON object as its last line.

Set-up is the import of pfsym plus one warm-up operation of each kind.
A pass runs the workload's whole operation list once; passes repeat
until the next one would end after --seconds.  Each operation is timed
on its own, and its time in the run is its fastest over the passes: on
a shared machine, contention only ever adds time, in bursts of seconds,
so the fastest of several passes is steady where a median is not.
wall_s is the sum of these per-operation times, and the latency
percentiles are taken over them (one value per operation in the list).

The machine's speed also drifts, by up to a factor of two for minutes,
and the drift hits interpreter code with a working set like pfsym's far
harder than a tight loop.  So before each operation (outside its timing)
the child times a fixed calibration: the benchmark's own oracles on fixed
inputs plus a pass over the 720 permutation tuples of S_6, code of the
same kind as pfsym's (Fractions, recursion, tuple and set churn) that no
pfsym change can touch.
Every reported time is scaled by REFERENCE_S over the calibration's
1/(P+1) quantile, P being the number of untraced passes (see
Calibration.scale): times are seconds at a fixed machine speed, about
the real seconds of an idle 2-core Xeon with Python 3.11.  The raw times
and the scale are reported too.

With --trace 1, untraced and traced passes alternate, so that the
tracing overhead is measured in the same process.  Each output is
reduced to a plain canonical form: the first pass's forms are checked
against the oracles after the last pass (and after the peak memory is
read), later passes must reproduce them.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_pfsym():
    """Import pfsym from this checkout's sources, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import pfsym
    except ImportError as exc:
        print(f"cannot import pfsym from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(pfsym.__file__).resolve().parents:
        print(f"pfsym was imported from {pfsym.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return pfsym


REFERENCE_S = 0.6e-3  # about the calibration's time on an idle machine

_CALIBRATION_ENTRIES = {p: Fraction(i % 7 - 3, i % 5 + 1) for i, p in enumerate(oracles.upper_pairs(6))}


class Calibration:
    """Times of a fixed piece of oracle work, sampled through the run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        oracles.reference_pfaffian(_CALIBRATION_ENTRIES, (1, 2, 3, 4, 5, 6))
        oracles.exact_det(oracles.completed_matrix(6, True, _CALIBRATION_ENTRIES))
        oracles.conjugate(oracles.dihedral_group(6), (3, 1, 4, 6, 5, 2))
        seen = set()
        for p in oracles.full_group(6):
            seen.add((p, tuple(sorted(p)) == (1, 2, 3, 4, 5, 6)))
        self.samples.append(time.perf_counter() - start)

    def scale(self, passes: int) -> float:
        """REFERENCE_S over the calibration's 1/(passes+1) quantile.

        An operation's time is its fastest of `passes` tries, and the
        fastest of n tries sits near the 1/(n+1) quantile, so this
        compares like with like, however many calibration samples there are.
        """
        ranked = sorted(self.samples)
        return REFERENCE_S / ranked[len(ranked) // (passes + 1)]


def run_pass(ops, outputs, matched, best, calibration, tracer=None) -> float:
    """Run every operation once; returns the summed operation time.

    `best` keeps each operation's fastest time.  The first pass stores
    each output's canonical form; every pass counts, per operation,
    whether it reproduced that form.
    """
    from workloads import canonical

    gc.collect()
    total = 0.0
    first = not outputs
    for k, op in enumerate(ops):
        calibration.sample()
        root = tracer.open(tracing.ROOT) if tracer else None
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(root)
            tracer.fold()
        total += elapsed
        best[k] = min(best[k], elapsed)
        if isinstance(out, Exception):
            print(f"{op.kind} size {op.size} raised {out!r}", file=sys.stderr)
            form = None
        else:
            form = canonical(out)
        if first:
            outputs.append(form)
            matched.append(0)
        if form is not None and form == outputs[k]:
            matched[k] += 1
    return total


def check_outputs(ops, outputs) -> tuple[list[bool], float]:
    """Oracle verdict for each operation's first-pass output, and the worst residual."""
    verdicts = []
    worst = 0.0
    for op, form in zip(ops, outputs):
        ok = False
        if form is not None:
            ok, residual = op.check(form)
            worst = max(worst, residual)
            if not ok:
                print(f"{op.kind} size {op.size} failed its check", file=sys.stderr)
        verdicts.append(ok)
    return verdicts, worst


def layer_metrics(tracer, absent, traced_passes: int) -> dict:
    """Per-pass means of the traced counts and self times."""
    per_pass = lambda v: v / traced_passes
    totals, counts = tracer.totals, tracer.counts
    out = {}
    generators = {layer.span for layer in tracing.LAYERS if layer.generator}
    spans = sorted({layer.span for layer in tracing.LAYERS} - set(absent)) + [tracing.ROOT]
    for span in spans:
        calls, seconds = totals.get(span, (0, 0.0))
        if span in generators:
            out[f"{span}.yielded"] = (per_pass(counts.get(span + ".yielded", 0)), "count")
        else:
            out[f"{span}.calls"] = (per_pass(calls), "count")
        out[f"{span}.self_s"] = (per_pass(seconds), "s")
    if "backend.classify_pf_action" not in absent:
        calls = totals.get("backend.classify_pf_action", (0, 0.0))[0]
        accepted = counts.get("backend.classify_pf_action.accepted", 0)
        out["backend.classify_pf_action.accept_ratio"] = (accepted / calls if calls else 0.0, "ratio")
    if "symmetry.search" not in absent and "permutations.enumerate_sym" not in absent:
        tested = counts.get("permutations.enumerate_sym.yielded", 0)
        members = counts.get("symmetry.search.members", 0)
        out["symmetry.search.members_per_tested"] = (members / tested if tested else 0.0, "ratio")
    return out


def diagnostics(ops, best, margin: float = 0.04) -> dict:
    """Per-kind times, the share of each half, and the kinds around each percentile.

    One kind (or one size class) near a percentile's rank means it sits
    inside a block of like operations, away from a boundary.
    """
    labels = [f"{op.kind}@{op.size}" for op in ops]
    by_kind: dict[str, list[float]] = {}
    halves: dict[str, float] = {}
    for op, label, t in zip(ops, labels, best):
        by_kind.setdefault(label, []).append(t * 1e3)
        halves[op.half] = halves.get(op.half, 0.0) + t
    ranked = [label for _, label in sorted(zip(best, labels))]
    n = len(ranked)
    blocks = {
        name: sorted(set(ranked[int(n * (q - margin)) : int(n * (q + margin)) + 1]))
        for name, q in (("p50", 0.5), ("p90", 0.9))
    }
    return {
        "half_shares": {k: v / sum(best) for k, v in sorted(halves.items())},
        "percentile_blocks": blocks,
        "kind_ms": {k: round(statistics.median(v), 3) for k, v in sorted(by_kind.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    pfsym = import_pfsym()
    import_s = time.perf_counter() - start

    import workloads  # imports pfsym

    ops = workloads.build(args.workload, args.seed)
    start = time.perf_counter()
    for op in workloads.warmup(ops):
        op.run()
    setup_s = import_s + time.perf_counter() - start
    calibration = Calibration()
    if args.setup_only:
        for _ in range(50):
            calibration.sample()
        print(json.dumps({"setup_s": setup_s * calibration.scale(passes=1)}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    absent: list[str] = []

    outputs: list = []
    matched: list[int] = []
    best = {False: [math.inf] * len(ops), True: [math.inf] * len(ops)}
    walls = {False: [], True: []}
    began = time.perf_counter()
    traced = False
    while True:
        if traced:
            undo, absent = tracing.install(tracer)
            try:
                walls[True].append(run_pass(ops, outputs, matched, best[True], calibration, tracer))
            finally:
                undo()
        else:
            walls[False].append(run_pass(ops, outputs, matched, best[False], calibration))
        if args.trace:
            traced = not traced
        enough = walls[False] and (walls[True] or not args.trace)
        next_wall = (walls[traced] or walls[not traced])[-1]
        if enough and time.perf_counter() - began + next_wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts, residual_max = check_outputs(ops, outputs)
    passes = len(walls[False]) + len(walls[True])
    attempted = passes * len(ops)
    # an operation fails in a pass when it raised, did not reproduce the
    # first pass's output, or reproduced an output that failed its check
    failed = sum(passes - m if ok else passes for ok, m in zip(verdicts, matched))

    if args.trace:
        metrics = layer_metrics(tracer, absent, len(walls[True]))
        # the self times above add up to trace.wall_s
        metrics["trace.wall_s"] = (statistics.fmean(walls[True]), "s")
        metrics["trace.overhead_s"] = (sum(best[True]) - sum(best[False]), "s")
        metrics["check.numeric.residual_max"] = (residual_max, "1")
    else:
        cuts = statistics.quantiles([t * 1e3 for t in best[False]], n=10)
        metrics = {
            "wall_s": (sum(best[False]), "s"),
            "op_p50_ms": (cuts[4], "ms"),
            "op_p90_ms": (cuts[8], "ms"),
            "success_frac": ((attempted - failed) / attempted, "fraction"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    scale = calibration.scale(len(walls[False]))
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            metrics[name] = (value * scale, unit)
    result = {
        "setup_s": setup_s * scale,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": {
            "time_scale": scale,
            "raw_wall_s": sum(best[False]),
            "passes": passes,
            "ops_per_pass": len(ops),
            "untraced_walls_s": walls[False],
            "traced_walls_s": walls[True],
            **diagnostics(ops, best[False]),
            "absent_layers": absent,
            "inputs_digest": workloads.digest(ops),
            "backend": pfsym.backend_name() if hasattr(pfsym, "backend_name") else None,
            "python": sys.version.split()[0],
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
