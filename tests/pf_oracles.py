"""Definitional oracles for the pfaffian and determinant kernels.

Each one follows its textbook definition and is generic over the scalar
domain (ints, Fractions, floats, Poly).  They are exponential, so the
tests call them only at sizes where that is affordable.
"""
from pfsym.matchings import PfaffPermutation, enumerate_pfaff
from pfsym.permutations import Permutation


def matching_sign(m: PfaffPermutation) -> int:
    """Sign of the flattened matching, by a full inversion count."""
    return Permutation(m.flatten()).sign


def pfaffian_sum(arr):
    """The alternating sum over the perfect matchings of upper-entry products."""
    if arr.two_n == 0:
        return 1
    entries = arr.entries
    total = None
    for m, s in enumerate_pfaff(arr.two_n):
        prod = None
        for pair in m.pairs:
            e = entries[pair]
            prod = e if prod is None else prod * e
        term = prod if s == 1 else -prod
        total = term if total is None else total + term
    return total


def completed_rows(size: int, mode: str, entries) -> list[list]:
    """The size x size matrix with zero diagonal, completed symmetrically or skewly."""
    flip = -1 if mode == "skew" else 1
    return [
        [0 if i == j else entries[(i, j)] if i < j else flip * entries[(j, i)] for j in range(1, size + 1)]
        for i in range(1, size + 1)
    ]


def cofactor_det(rows: list[list]):
    """Laplace expansion along the first row: m! leaves, zero entries skipped."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total
