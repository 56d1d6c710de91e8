"""In-memory spans around pfsym's layers, and self time derived from them.

A layer is a public function (or method) of pfsym.  `install` replaces it
by a wrapper in every namespace that holds it under a name, so that a
module that imported it by name (`from .matchings import enumerate_pfaff`)
calls the wrapper too.  A layer that no longer exists is reported as
absent; its metrics are left out rather than reported as zero.

A span is [name, start, end, parent index].  A generator layer gets one
span per `next()`, so its self time is the time spent producing items.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    module: str  # defining module, e.g. "pfsym.backend"
    attr: str  # "name" or "Class.method"
    span: str  # span name; several layers may share one
    generator: bool = False
    on_result: Callable | None = None  # (tracer, result) -> None


def _count_accepted(tracer, result) -> None:
    if result != 0:
        tracer.count("backend.classify_pf_action.accepted")


def _count_members(tracer, report) -> None:
    tracer.count("symmetry.search.members", report.order)


LAYERS = (
    Layer("pfsym.backend", "pf_double", "backend.pf_double"),
    Layer("pfsym.backend", "classify_pf_action", "backend.classify_pf_action", on_result=_count_accepted),
    Layer("pfsym.pfaffian", "pfaffian_direct", "pfaffian.pfaffian_direct"),
    Layer("pfsym.pfaffian", "hook_expand_symmetric", "pfaffian.hook_expand"),
    Layer("pfsym.pfaffian", "hook_expand_skew", "pfaffian.hook_expand"),
    Layer("pfsym.pfaffian", "determinant", "pfaffian.determinant"),
    Layer("pfsym.pfaffian", "completed_determinant", "pfaffian.completed_determinant"),
    Layer("pfsym.matchings", "enumerate_pfaff", "matchings.enumerate_pfaff", generator=True),
    Layer("pfsym.permutations", "enumerate_sym", "permutations.enumerate_sym", generator=True),
    Layer("pfsym.permutations", "classify_runs", "permutations.classify_runs"),
    Layer("pfsym.polyring", "Poly.__mul__", "polyring.Poly.mul"),
    Layer("pfsym.polyring", "Poly.substitute", "polyring.Poly.substitute"),
    Layer("pfsym.symmetry", "act", "symmetry.act"),
    Layer("pfsym.symmetry", "symmetry_group", "symmetry.search", on_result=_count_members),
    Layer("pfsym.symmetry", "pfaffian_symmetry_group", "symmetry.search", on_result=_count_members),
    Layer("pfsym.symmetry", "sym_of_g", "symmetry.search", on_result=_count_members),
    Layer("pfsym.symmetry", "make_group_report", "symmetry.make_group_report"),
)

ROOT = "bench.op"  # one span per benchmark operation


class Tracer:
    """Spans of the current operation, folded into totals after each one."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.totals: dict[str, list] = {}  # span name -> [spans, self seconds]

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def fold(self) -> None:
        """Add the finished spans' self times to the totals and drop them."""
        for name, (calls, seconds) in self_times(self.spans).items():
            total = self.totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
        self.spans.clear()


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, summed self time).

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a tree add up to its root's duration.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for k, (name, start, end, _) in enumerate(spans):
        calls, seconds = out.get(name, (0, 0.0))
        out[name] = (calls + 1, seconds + (end - start) - covered[k])
    return out


def _wrap_call(tracer: Tracer, layer: Layer, fn):
    on_result = layer.on_result

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(layer.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, layer: Layer, fn):
    yielded = layer.span + ".yielded"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            index = tracer.open(layer.span)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            tracer.count(yielded)
            yield item

    return wrapper


def _resolve(layer: Layer):
    """(owner namespace, original) or None when the layer does not exist."""
    owner = sys.modules.get(layer.module)
    *outer, name = layer.attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = getattr(owner, name, None) if owner is not None else None
    return None if original is None else (owner, original)


def install(tracer: Tracer, layers=LAYERS, package: str = "pfsym"):
    """Wrap every existing layer; returns (undo, absent span names)."""
    restore = []
    present, missing = set(), set()
    for layer in layers:
        found = _resolve(layer)
        if found is None:
            missing.add(layer.span)
            continue
        present.add(layer.span)
        owner, original = found
        make = _wrap_generator if layer.generator else _wrap_call
        wrapper = make(tracer, layer, original)
        if isinstance(owner, type):
            namespaces = [owner]
        else:
            namespaces = [
                mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == package or name.startswith(package + "."))
            ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    restore.append((ns, attr, original))

    def undo():
        for ns, attr, original in reversed(restore):
            setattr(ns, attr, original)

    return undo, sorted(missing - present)
