"""Committed mutants: a check must FAIL when the kernel it guards is broken.

A check that compares a route with itself passes whatever the route
computes.  Each test here breaks one kernel, runs the check at a small n
and requires a FAIL line for every n, after a clean run that passes; the
`_sym_det` mutants must make its oracle comparison find a mismatch, the
`_pf_eliminate` mutants Schur's pfaffian at 2n = 20 and 40, and the swap
mutant the exact direct-sum identity.
"""
import inspect
import random

import pytest

from pf_oracles import cofactor_det
from pfsym import cli, pfaffian, symmetry
from test_elimination import direct_sum_mismatches, sym_det_mismatches
from test_schur import schur_mismatches


def _verify(capsys, check: str, n: str):
    code = cli.run(["verify", check, "--n", n])
    return code, capsys.readouterr().out.splitlines()


def _rewritten(module, kernel, old: str, new: str):
    """`kernel` of `module` rebuilt from its source with the one line `old` replaced."""
    source = inspect.getsource(kernel)
    assert source.count(old) == 1, f"{old.strip()!r} moved in {kernel.__name__}; update the mutant"
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[kernel.__name__]


def _flip_first_term(kernel):
    """`kernel` rebuilt from its source with the sign of its t = 1 term flipped."""
    return _rewritten(pfaffian, kernel, "        if t % 2 == 0:\n", "        if (t % 2 == 0) != (t == 1):\n")


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


def _no_swap_sign(kernel):
    """`_pf_eliminate` that forgets the sign flip of a pivot swap."""
    return _rewritten(pfaffian, kernel, "            result = -result\n", "            pass\n")


def _drop_d_j(kernel):
    """`_pfaffian` that scales entry (i, j) of a Fraction array by d_i only,
    not d_i d_j, so the products of a matching no longer share one factor."""
    return _rewritten(pfaffian, kernel, "(d[i] * d[j] // v.denominator)", "(d[i] // v.denominator)")


def _no_row_signs(kernel):
    """`_expand` that reads a `negated` position without its sign, so hook
    row s holds a(j,s) below s in place of -a(j,s)."""
    return _rewritten(pfaffian, kernel, "-entries[(i, j) if i < j else (j, i)]", "entries[(i, j) if i < j else (j, i)]")


def _no_hook_sign(kernel):
    """`_hook_expand` that drops the factor (-1)^(s-1) of the relabeling."""
    old = '    return _finite(-value if s % 2 == 0 else value, "hook expansion")\n'
    return _rewritten(pfaffian, kernel, old, '    return _finite(value, "hook expansion")\n')


def _one_beta(kernel):
    """`_cut_search` that tries only beta = 0, so it misses the reflections' cuts."""
    return _rewritten(symmetry, kernel, "    for beta in (0, 1):\n", "    for beta in (0,):\n")


THEOREM1 = "theorem1 n={} [symmetric-gens/{}] residual=0"


@pytest.mark.parametrize(
    "check, n, module, target, mutate, verdicts",
    [
        (
            "hook-oracle", "2..3", pfaffian, "_pf_eliminate", _no_swap_sign,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "hook-oracle", "2..3", pfaffian, "_pfaffian", _drop_d_j,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "hook-oracle", "2..3", pfaffian, "_expand", _no_row_signs,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "hook-oracle", "2..3", pfaffian, "_hook_expand", _no_hook_sign,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "theorem1", "4..5", symmetry, "_cut_search", _one_beta,
            [
                (THEOREM1.format(4, "cut-search"), "order 8", "dihedral subgroup, order 16"),
                (THEOREM1.format(5, "cut-search"), "order 10", "dihedral subgroup, order 20"),
            ],
        ),
        (
            "theorem1", "3", symmetry, "_is_member", lambda kernel: lambda *args: True,
            [(THEOREM1.format(3, "polynomial-action"), "order 72", "dihedral subgroup, order 12")],
        ),
    ],
    ids=[
        "hook-oracle/swap-sign", "hook-oracle/scaling", "hook-oracle/row-signs", "hook-oracle/hook-sign",
        "theorem1/cut-search", "theorem1/membership",
    ],
)
def test_check_fails_on_its_kernel_mutant(monkeypatch, capsys, check, n, module, target, mutate, verdicts):
    """A search or elimination kernel broken where its check still runs to the end.

    - `_pf_eliminate` without the sign flip of a pivot swap: `hook-oracle`
      compares the elimination with `_subset_pf` and fails.  `skew-det` does
      not catch this mutant, because pf squared hides the sign.
    - `_pfaffian` scaling a Fraction entry (i, j) by d_i alone: the hook
      expansions, on the memo, no longer equal the elimination.
    - `_expand` reading a `negated` position without its sign: on the memo,
      every hook s > 1 loses the sign of -a(j,s) below s, and fails.
    - `_hook_expand` without the factor (-1)^(s-1): every even hook has the
      wrong sign.
    - `_cut_search` with beta = 0 only finds the rotations, order 2n of 4n.
      Dropping one member instead would make `make_group_report` raise a
      RuntimeError, a traceback and not a FAIL line.
    - `_is_member` always True: the pair colours alone decide the group at
      n = 2, and in `g-symmetry` at n = 2..3, so the mutant shows at n = 3.
    """
    code, lines = _verify(capsys, check, n)
    assert code == 0 and lines == [f"PASS {head}" for head, _, _ in verdicts]
    monkeypatch.setattr(module, target, mutate(getattr(module, target)))
    code, lines = _verify(capsys, check, n)
    assert code == 1
    assert lines == [
        line for head, lhs, rhs in verdicts for line in (f"FAIL {head}", f"  lhs: {lhs}", f"  rhs: {rhs}")
    ]


@pytest.mark.parametrize(
    "old, new",
    [
        # the 2x2 pivot [[0, b], [b, 0]] with det +b^2
        ("            result *= -p * p\n", "            result *= p * p\n"),
        # the swap of the 1x1 pivot moves rows only, not the columns with them
        ("                    r[0], r[k] = r[k], r[0]\n", "                    pass\n"),
    ],
    ids=["2x2 pivot +b^2", "1x1 swap of rows only"],
)
def test_sym_det_oracle_fails_on_its_mutant(monkeypatch, old, new):
    assert sym_det_mismatches(random.Random(1), range(1, 7), cofactor_det) == []
    monkeypatch.setattr(pfaffian, "_sym_det", _rewritten(pfaffian, pfaffian._sym_det, old, new))
    assert sym_det_mismatches(random.Random(1), range(1, 7), cofactor_det) != []


@pytest.mark.parametrize(
    "mutate", [lambda kernel: lambda *args: 2 * kernel(*args), _no_swap_sign], ids=["twice the value", "no swap sign"]
)
def test_schur_oracle_fails_on_elimination_mutants(monkeypatch, mutate):
    # Fraction elimination pivots on the first nonzero entry and never swaps
    # on these arrays, so the swap mutant shows in the float half only
    monkeypatch.setattr(pfaffian, "_pf_eliminate", mutate(pfaffian._pf_eliminate))
    assert {two_n for two_n, _, _ in schur_mismatches((20, 40))} == {20, 40}


def test_direct_sum_fails_on_the_swap_mutant(monkeypatch):
    # the zero entry (1, 2) of each direct sum makes Fraction elimination
    # swap; the mutant flips the sign where it swaps an odd number of times
    monkeypatch.setattr(pfaffian, "_pf_eliminate", _no_swap_sign(pfaffian._pf_eliminate))
    assert direct_sum_mismatches(random.Random(3)) == [14, 20, 24, 22]
