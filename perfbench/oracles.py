"""Reference results for the benchmark's correctness checks.

Nothing here imports pfsym.  Each oracle takes plain data (Fractions,
floats, image tuples, or the public JSON term format that
`Poly.to_json_obj` writes) and recomputes the expected answer by a route
of its own: the definitional matching sum, integer Bareiss elimination,
the closed forms of the squared-difference and cosine pfaffians, and
permutation groups built directly from their images.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations


def upper_pairs(size: int):
    return [(i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)]


def reference_pfaffian(entries, points: tuple[int, ...]):
    """Matching sum over `points`, expanding along the smallest point.

    Pairing the smallest point with the k-th remaining one carries the
    sign (-1)**(k-1).  Only upper entries (i < j) are read.
    """
    if not points:
        return 1
    first = points[0]
    total = 0
    for k in range(1, len(points)):
        rest = points[1:k] + points[k + 1 :]
        term = entries[(first, points[k])] * reference_pfaffian(entries, rest)
        total += term if k % 2 == 1 else -term
    return total


def matchings(size: int):
    """(sign, pairs) for every perfect matching of 1..size."""
    out = []

    def rec(free, acc, sign):
        if not free:
            out.append((sign, tuple(acc)))
            return
        for k in range(1, len(free)):
            acc.append((free[0], free[k]))
            rec(free[1:k] + free[k + 1 :], acc, sign if k % 2 == 1 else -sign)
            acc.pop()

    rec(tuple(range(1, size + 1)), [], 1)
    return out


def completed_matrix(size: int, skew: bool, entries) -> list[list[Fraction]]:
    """Square matrix with zero diagonal from upper entries, as Fractions."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), v in entries.items():
        v = Fraction(v)
        rows[i - 1][j - 1] = v
        rows[j - 1][i - 1] = -v if skew else v
    return rows


def exact_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Bareiss elimination on the integer matrix D*rows."""
    n = len(rows)
    den = 1
    for row in rows:
        for v in row:
            den = math.lcm(den, v.denominator)
    m = [[int(v * den) for v in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return Fraction(sign * m[-1][-1], den**n)


def cosine_closed_form(xs) -> float:
    """pf(cos(x_i - x_j)) = cos(x_1 - x_2 + x_3 - ... - x_2n)."""
    return math.cos(sum(v if k % 2 == 0 else -v for k, v in enumerate(xs)))


def square_diff_closed_form(labels, point) -> Fraction:
    """pf((z_i - z_j)^2) = -(-2)^(n-1) (z_1-z_2)(z_2-z_3)...(z_2n-z_1).

    Position k of the array holds z_k = x_{labels[k]}; `point` maps each
    label to a rational value.
    """
    zs = [point[label] for label in labels]
    n = len(zs) // 2
    prod = Fraction(1)
    for k in range(len(zs)):
        prod *= zs[k] - zs[(k + 1) % len(zs)]
    return -((-2) ** (n - 1)) * prod


def eval_terms(terms, point) -> Fraction:
    """Value of a polynomial in the JSON term format at a rational point.

    `point` maps ("x", i) and ("a", i, j) to rationals.
    """
    total = Fraction(0)
    for term in terms:
        value = Fraction(term["coeff"])
        for family, *rest in term["vars"]:
            *index, exponent = rest
            value *= point[(family, *index)] ** exponent
        total += value
    return total


# -- permutation groups, as sets of image tuples ------------------------------


def is_even(images) -> bool:
    inversions = sum(
        1 for i in range(len(images)) for j in range(i + 1, len(images)) if images[i] > images[j]
    )
    return inversions % 2 == 0


def full_group(m: int) -> set[tuple[int, ...]]:
    return set(permutations(range(1, m + 1)))


def alternating_group(m: int) -> set[tuple[int, ...]]:
    return {p for p in permutations(range(1, m + 1)) if is_even(p)}


def dihedral_group(m: int) -> set[tuple[int, ...]]:
    """Symmetries of the m-gon with vertices 1..m in cyclic order."""
    group = set()
    for r in range(m):
        group.add(tuple((k - 1 + r) % m + 1 for k in range(1, m + 1)))
        group.add(tuple((r - k) % m + 1 for k in range(1, m + 1)))
    return group


def compose(p, q) -> tuple[int, ...]:
    """p after q, on image tuples."""
    return tuple(p[v - 1] for v in q)


def inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for k, v in enumerate(p, start=1):
        inv[v - 1] = k
    return tuple(inv)


def conjugate(group, r) -> set[tuple[int, ...]]:
    """{r g r^-1 : g in group}."""
    r_inv = inverse(r)
    return {compose(r, compose(g, r_inv)) for g in group}
