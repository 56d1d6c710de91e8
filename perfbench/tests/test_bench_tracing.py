"""Span bookkeeping and layer wrapping, on synthetic spans and a fake package.

    python3 -m pytest perfbench/tests -q
"""
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import child  # noqa: E402
import tracing  # noqa: E402
from tracing import Layer, Tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
        ["root", 20.0, 21.5, -1],
    ]
    times = tracing.self_times(spans)
    assert times["root"] == (2, pytest.approx(6.0 + 1.5))
    assert times["a"] == (2, pytest.approx(2.0 + 1.0))
    assert times["b"] == (1, pytest.approx(1.0))
    # self times of a tree add up to its root's duration
    assert sum(s for _, s in times.values()) == pytest.approx(10.0 + 1.5)


def test_fold_accumulates_and_clears():
    tracer = Tracer()
    tracer.spans.extend([["x", 0.0, 2.0, -1], ["y", 0.5, 1.0, 0]])
    tracer.fold()
    tracer.spans.append(["x", 3.0, 4.0, -1])
    tracer.fold()
    assert tracer.spans == []
    assert tracer.totals["x"] == [2, pytest.approx(2.5)]
    assert tracer.totals["y"] == [1, pytest.approx(0.5)]


CORE_SOURCE = """
def work(n):
    return sum(helper() for _ in range(n))

def helper():
    return 1

def items(n):
    yield from range(n)

class Box:
    def get(self):
        return 7
"""


@pytest.fixture
def fakepkg():
    """A package whose `user` module imports `core.work` by name."""
    core = types.ModuleType("fakepkg.core")
    exec(CORE_SOURCE, vars(core))
    user = types.ModuleType("fakepkg.user")
    user.work = core.work
    pkg = types.ModuleType("fakepkg")
    pkg.core, pkg.user = core, user
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    yield pkg
    for name in modules:
        del sys.modules[name]


def test_install_wraps_every_name_and_undo_restores(fakepkg):
    original = fakepkg.core.work
    layers = (
        Layer("fakepkg.core", "work", "core.work"),
        Layer("fakepkg.core", "helper", "core.helper"),
        Layer("fakepkg.core", "items", "core.items", generator=True),
        Layer("fakepkg.core", "Box.get", "core.Box.get"),
    )
    tracer = Tracer()
    undo, absent = tracing.install(tracer, layers, package="fakepkg")
    assert absent == []
    root = tracer.open("op")
    assert fakepkg.user.work(3) == 3
    assert list(fakepkg.core.items(4)) == [0, 1, 2, 3]
    assert fakepkg.core.Box().get() == 7
    tracer.close(root)
    duration = tracer.spans[root][2] - tracer.spans[root][1]
    tracer.fold()
    undo()
    assert fakepkg.user.work is original and fakepkg.core.work is original
    assert tracer.totals["core.work"][0] == 1
    # helper is called through core's namespace, inside work
    assert tracer.totals["core.helper"][0] == 3
    assert tracer.counts["core.items.yielded"] == 4
    assert tracer.totals["core.Box.get"][0] == 1
    assert sum(seconds for _, seconds in tracer.totals.values()) == pytest.approx(duration)


def test_missing_layer_is_absent_not_an_error(fakepkg):
    layers = (
        Layer("fakepkg.core", "work", "core.work"),
        Layer("fakepkg.core", "deleted", "core.deleted"),
        Layer("fakepkg.gone", "anything", "gone.anything"),
        Layer("fakepkg.core", "Missing.method", "core.Missing.method"),
    )
    undo, absent = tracing.install(Tracer(), layers, package="fakepkg")
    undo()
    assert absent == ["core.Missing.method", "core.deleted", "gone.anything"]


def test_absent_layers_have_no_metrics():
    tracer = Tracer()
    tracer.totals["pfaffian.pfaffian_direct"] = [4, 0.5]
    absent = ["backend.classify_pf_action", "backend.pf_double"]
    metrics = child.layer_metrics(tracer, absent, traced_passes=2)
    assert not any(name.startswith("backend.") for name in metrics)
    assert metrics["pfaffian.pfaffian_direct.calls"] == (2.0, "count")
    assert metrics["pfaffian.pfaffian_direct.self_s"] == (0.25, "s")
    # present but never called: a real zero
    assert metrics["polyring.Poly.substitute.calls"] == (0.0, "count")
