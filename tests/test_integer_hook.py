"""Fraction hook expansions on integers, against two oracles.

A Fraction hook expansion runs `_pf_fraction_free`, which places entry
(i, j) as the int d_i d_j a(i, j), with d_i the lcm of the denominators
of row i, and divides by the product of the d_i: pf(DAD) = det D pf A.
Every hook of both modes, at 2n = 2 to 14, must equal the paper's rule
with its minors evaluated by `pf_oracles.subset_pf` on the Fraction
entries themselves (the unscaled route), and the pfaffian by
`_pf_eliminate` in Fractions, which shares no code with the integer
route.  Int arrays keep their int result.
"""
import random
from fractions import Fraction

import pytest

from pf_oracles import subset_pf
from pfsym.pfaffian import (
    SKEW,
    SYMMETRIC,
    TriangularArray,
    _pf_eliminate,
    hook_expand_skew,
    hook_expand_symmetric,
    upper_pairs,
)

HOOKS = ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew))


def eliminated(arr):
    return _pf_eliminate(arr.entries, tuple(range(1, arr.two_n + 1)), Fraction)

DENOMINATORS = {"den<=9": (9, 9), "den 6 digits": (10**6, 10**6 - 1)}


def fraction_hooks(arr):
    """Every hook of `arr` by the rule term by term: (-1)^(s+j+1+h) a(s,j)
    pf(A without s, j), each minor by `subset_pf` on the Fraction entries,
    with one memo for the whole array."""
    two_n, memo = arr.two_n, {}
    hooks = []
    for s in range(1, two_n + 1):
        total = 0
        for j in range(1, two_n + 1):
            if j == s:
                continue
            rest = tuple(k for k in range(1, two_n + 1) if k not in (s, j))
            h = 1 if arr.mode == SKEW and j < s else 0
            term = arr.lookup(s, j) * subset_pf(arr.entries, rest, memo)
            total += -term if (s + j + 1 + h) % 2 else term
        hooks.append(total)
    return hooks


def _cases(rng, two_n, mode, numerators, denominators):
    def fraction():
        return Fraction(rng.randint(-numerators, numerators), rng.randint(1, denominators))

    full = {p: fraction() for p in upper_pairs(two_n)}
    cases = {"random": full}
    # a zero first row: d_1 = 1 and every hook along it sums to zero
    cases["zero row 1"] = {(i, j): Fraction(0) if i == 1 else v for (i, j), v in full.items()}
    # an all-zero hook row somewhere inside
    k = rng.randint(1, two_n)
    cases[f"zero row {k}"] = {(i, j): Fraction(0) if k in (i, j) else v for (i, j), v in full.items()}
    # ints mixed with Fractions, entry (1, 2) a Fraction
    cases["ints among Fractions"] = {(i, j): rng.randint(-9, 9) if (i + j) % 2 == 0 else v for (i, j), v in full.items()}
    return cases


@pytest.mark.parametrize("family", DENOMINATORS)
@pytest.mark.parametrize("mode, expand", HOOKS, ids=[SYMMETRIC, SKEW])
def test_fraction_hooks_match_the_unscaled_route(family, mode, expand):
    rng = random.Random(f"{family}:{mode}")
    numerators, denominators = DENOMINATORS[family]
    for two_n in range(2, 15, 2):
        for name, entries in _cases(rng, two_n, mode, numerators, denominators).items():
            arr = TriangularArray(two_n, mode, entries)
            direct = eliminated(arr)
            want = fraction_hooks(arr)
            for s in range(1, two_n + 1):
                got = expand(arr, s)
                assert type(got) is Fraction, (two_n, name, s)
                assert got == want[s - 1] == direct, (two_n, name, s)


@pytest.mark.parametrize("mode, expand", HOOKS, ids=[SYMMETRIC, SKEW])
def test_int_hooks_stay_int(rng, mode, expand):
    for two_n in (2, 6, 10):
        arr = TriangularArray(two_n, mode, {p: rng.randint(-9, 9) for p in upper_pairs(two_n)})
        direct = eliminated(arr)
        for s in range(1, two_n + 1):
            got = expand(arr, s)
            assert type(got) is int and got == direct, (two_n, s)
    zero = TriangularArray(4, mode, dict.fromkeys(upper_pairs(4), 0))
    assert all(type(expand(zero, s)) is int and expand(zero, s) == 0 for s in range(1, 5))
    # integral Fractions are Fractions still
    ones = TriangularArray(4, mode, dict.fromkeys(upper_pairs(4), Fraction(1)))
    assert all(type(expand(ones, s)) is Fraction for s in range(1, 5))
