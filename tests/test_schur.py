"""Schur's pfaffian against its closed form, at 2n = 4 to 40.

pf[(x_i - x_j)/(x_i + x_j)] = prod_{i<j} (x_i - x_j)/(x_i + x_j) needs no
pfsym route (`pf_oracles.schur_pfaffian`), so it checks elimination on
integers (every Fraction array) and in floats at sizes where the
matching sum is out of reach: `pfaffian_direct` and the hooks s = 1,
n + 1 and 2n of both rules, in Fractions exactly and in floats to a
relative tolerance.
"""
import math
import random
from fractions import Fraction

from pf_oracles import pfaffian_sum, schur_pfaffian
from pfsym.pfaffian import (
    SKEW,
    SYMMETRIC,
    TriangularArray,
    hook_expand_skew,
    hook_expand_symmetric,
    pfaffian_direct,
    upper_pairs,
)

SIZES = (4, 12, 14, 20, 40)


def schur_array(xs, mode):
    """The array (x_i - x_j)/(x_i + x_j), i < j, in `mode`."""
    entries = {(i, j): (xs[i - 1] - xs[j - 1]) / (xs[i - 1] + xs[j - 1]) for i, j in upper_pairs(len(xs))}
    return TriangularArray(len(xs), mode, entries)


def schur_mismatches(sizes):
    """The (2n, domain, route) of each route that misses Schur's closed form."""
    rng = random.Random(26)
    bad = []
    for two_n in sizes:
        # geometric nodes keep the float array well conditioned: with the
        # nodes 1..2n, float elimination has no correct digit left at 2n = 14
        xs = [Fraction(2) ** k for k in range(two_n)]
        rng.shuffle(xs)
        want = schur_pfaffian(xs)
        for domain, nodes in ((Fraction, xs), (float, [float(x) for x in xs])):
            sym, skew = schur_array(nodes, SYMMETRIC), schur_array(nodes, SKEW)
            routes = {"pfaffian_direct": lambda: pfaffian_direct(skew)}
            for s in (1, two_n // 2 + 1, two_n):
                routes[f"symmetric hook {s}"] = lambda s=s: hook_expand_symmetric(sym, s)
                routes[f"skew hook {s}"] = lambda s=s: hook_expand_skew(skew, s)
            for route, evaluate in routes.items():
                got = evaluate()
                if domain is Fraction:
                    ok = got == want
                else:
                    # measured worst relative error: 4e-11 at 2n = 40
                    ok = math.isclose(got, want, rel_tol=1e-9)
                if type(got) is not domain or not ok:
                    bad.append((two_n, domain.__name__, route))
    return bad


def test_schur_closed_form_is_the_matching_sum():
    rng = random.Random(1911)
    for two_n in (2, 4, 6, 8):
        xs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(two_n)]
        assert pfaffian_sum(schur_array(xs, SKEW)) == schur_pfaffian(xs), xs


def test_pfaffian_and_hooks_match_schur_closed_form():
    assert schur_mismatches(SIZES) == []
