"""Matching-level test oracles: the pfaffian action classifier and a
float pfaffian by the matching sum.

Both walk the perfect matchings of `matchings._matchings`, the package's
one matching recursion, on 0-based indices.  `classify_pf_action`
applies the definition of the action to every matching, and reads the
sign of each image matching from the table of that recursion.  It is on
no search path: `pfaffian_symmetry_group` uses the cut criterion for
symmetric generators and the sign character for skew ones, and the test
suite checks both against a scan of all of S_m with this classifier.
`pf_double` serves no evaluation (`pfaffian_direct` eliminates) and
checks the float elimination in the tests.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .matchings import HARD_CAP, _matchings
from .permutations import Permutation

TABLE_MAX = 12  # largest size the classifier accepts


@lru_cache(maxsize=None)
def _pairs_table(m: int) -> dict:
    """Every matching of range(m) as {((i, j), ...): sign}, in lexicographic order."""
    return dict(_matchings(tuple(range(m))))


def pf_double(two_n: int, packed) -> float:
    """Pfaffian of the packed upper triangle, in doubles.

    `packed` holds the entries in lexicographic (i, j) order; each is
    converted with float().
    """
    packed = [float(v) for v in packed]
    if two_n < 0 or two_n % 2 != 0 or two_n > HARD_CAP:
        raise ValueError(f"two_n must be even and in 0..{HARD_CAP}, got {two_n}")
    want = two_n * (two_n - 1) // 2
    if len(packed) != want:
        raise ValueError(f"expected {want} packed entries, got {len(packed)}")
    a = dict(zip(combinations(range(two_n), 2), packed))
    total = 0.0
    for pairs, sgn in _matchings(tuple(range(two_n))):
        p = 1.0
        for pair in pairs:
            p *= a[pair]
        if sgn == 1:
            total += p
        else:
            total -= p
    return total


def classify_pf_action(two_n: int, p: Permutation, skew: bool) -> int:
    """Effect of acting with p on the generic pfaffian of order two_n.

    The action relabels indices through p^{-1}.  Each matching's monomial
    is relabeled, normalized (with a sign per swapped pair when `skew`)
    and compared against the pfaffian's own coefficient at the image
    matching, its sign in `_pairs_table`.  Returns +1 if every coefficient
    matches, -1 if every coefficient is negated, 0 otherwise.
    """
    if two_n < 2 or two_n % 2 != 0 or two_n > TABLE_MAX:
        raise ValueError(f"two_n must be even and in 2..{TABLE_MAX}, got {two_n}")
    if p.size != two_n:
        raise ValueError(f"permutation of size {p.size} cannot act on 1..{two_n}")
    q = [v - 1 for v in p.inverse().images]
    table = _pairs_table(two_n)
    target = 0
    for pairs, sgn in table.items():
        flip = 1
        image = []
        for i, j in pairs:
            u, v = q[i], q[j]
            if u > v:
                u, v = v, u
                if skew:
                    flip = -flip
            image.append((u, v))
        image.sort()
        t = sgn * flip * table[tuple(image)]
        if target == 0:
            target = t
        elif t != target:
            return 0
    return target
