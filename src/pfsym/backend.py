"""Matching-level kernels: the pfaffian action classifier and a float
pfaffian by the matching sum.

`classify_pf_action` is the per-permutation test of
`pfaffian_symmetry_group`.  `pf_double` no longer serves evaluation
(`pfaffian_direct` eliminates) and is kept as a float test oracle.
"""
from __future__ import annotations

from functools import lru_cache

from .permutations import Permutation

TABLE_MAX = 12  # largest size with a materialized matching table


def _pack_index(m: int, i: int, j: int) -> int:
    # lexicographic rank of the 0-based pair (i, j), i < j < m
    return i * (2 * m - i - 1) // 2 + (j - i - 1)


@lru_cache(maxsize=None)
def _pairs_table(m: int) -> tuple:
    """All matchings of range(m) as (sign, ((i, j), ...)), lexicographic."""
    out = []
    acc: list[tuple[int, int]] = []

    def rec(free: tuple[int, ...], sgn: int):
        if not free:
            out.append((sgn, tuple(acc)))
            return
        i = free[0]
        for k in range(1, len(free)):
            acc.append((i, free[k]))
            rec(free[1:k] + free[k + 1 :], sgn if k % 2 == 1 else -sgn)
            acc.pop()

    rec(tuple(range(m)), 1)
    return tuple(out)


@lru_cache(maxsize=None)
def _offsets_table(m: int) -> tuple:
    return tuple(
        (sgn, tuple(_pack_index(m, i, j) for i, j in pairs))
        for sgn, pairs in _pairs_table(m)
    )


def pf_double(two_n: int, packed) -> float:
    """Pfaffian of the packed upper triangle, in doubles.

    `packed` holds the entries in lexicographic (i, j) order; each is
    converted with float().
    """
    packed = [float(v) for v in packed]
    if two_n < 0 or two_n % 2 != 0 or two_n > 16:
        raise ValueError(f"two_n must be even and in 0..16, got {two_n}")
    want = two_n * (two_n - 1) // 2
    if len(packed) != want:
        raise ValueError(f"expected {want} packed entries, got {len(packed)}")
    if two_n == 0:
        return 1.0
    if two_n <= TABLE_MAX:
        total = 0.0
        for sgn, offs in _offsets_table(two_n):
            p = 1.0
            for o in offs:
                p *= packed[o]
            if sgn == 1:
                total += p
            else:
                total -= p
        return total
    return _pf_rec(tuple(range(two_n)), packed, two_n)


def _pf_rec(free: tuple[int, ...], a, m: int) -> float:
    if not free:
        return 1.0
    i = free[0]
    total = 0.0
    sgn = 1
    for k in range(1, len(free)):
        term = a[_pack_index(m, i, free[k])] * _pf_rec(free[1:k] + free[k + 1 :], a, m)
        total += term if sgn == 1 else -term
        sgn = -sgn
    return total


def _flat_sign(flat: list[int]) -> int:
    inv = 0
    n = len(flat)
    for i in range(n):
        fi = flat[i]
        for j in range(i + 1, n):
            if fi > flat[j]:
                inv += 1
    return -1 if inv % 2 else 1


def classify_pf_action(two_n: int, p: Permutation, skew: bool) -> int:
    """Effect of acting with p on the generic pfaffian of order two_n.

    The action relabels indices through p^{-1}.  Each matching's monomial
    is relabeled, normalized (with a sign per swapped pair when `skew`)
    and compared against the pfaffian's own coefficient at the image
    matching.  Returns +1 if every coefficient matches, -1 if every
    coefficient is negated, 0 otherwise.
    """
    if two_n < 2 or two_n % 2 != 0 or two_n > TABLE_MAX:
        raise ValueError(f"two_n must be even and in 2..{TABLE_MAX}, got {two_n}")
    if p.size != two_n:
        raise ValueError(f"permutation of size {p.size} cannot act on 1..{two_n}")
    q = [v - 1 for v in p.inverse().images]
    target = 0
    for sgn, pairs in _pairs_table(two_n):
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
        flat = [k for uv in image for k in uv]
        t = sgn * flip * _flat_sign(flat)
        if target == 0:
            target = t
        elif t != target:
            return 0
    return target
