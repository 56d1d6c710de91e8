"""Committed mutants: a verify check must FAIL when the kernel it guards is broken.

A check that compares a route with itself passes whatever the route
computes.  Each test here breaks one kernel, runs the check at n <= 3 and
requires a FAIL line for every n, after a clean run that passes.
"""
import inspect

import pytest

from pfsym import cli, pfaffian


def _verify(capsys, check: str, n: str):
    code = cli.run(["verify", check, "--n", n])
    return code, capsys.readouterr().out.splitlines()


def _flip_first_term(kernel):
    """`kernel` rebuilt from its source with the sign of its t = 1 term flipped."""
    source = inspect.getsource(kernel)
    target = "        if t % 2 == 0:\n"
    assert source.count(target) == 1, "the kernel's sign rule moved; update the mutant"
    namespace = dict(vars(pfaffian))
    exec(source.replace(target, "        if (t % 2 == 0) != (t == 1):\n"), namespace)
    return namespace[kernel.__name__]


@pytest.mark.parametrize(
    "check, mode, target, mutate",
    [
        ("skew-det", "exact,50 arrays", "_pf_eliminate", lambda kernel: lambda *args: 2 * kernel(*args)),
        ("hook-oracle", "exact,both modes,50 arrays", "_subset_pf", _flip_first_term),
    ],
    ids=["skew-det", "hook-oracle"],
)
def test_check_fails_on_its_mutant(monkeypatch, capsys, check, mode, target, mutate):
    code, lines = _verify(capsys, check, "2..3")
    assert code == 0 and lines == [f"PASS {check} n={n} [{mode}] residual=0" for n in (2, 3)]
    monkeypatch.setattr(pfaffian, target, mutate(getattr(pfaffian, target)))
    code, lines = _verify(capsys, check, "2..3")
    assert code == 1
    assert [line for line in lines if not line.startswith("  ")] == [
        f"FAIL {check} n={n} [{mode}] residual=0" for n in (2, 3)
    ]
