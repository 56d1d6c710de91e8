"""Definitional oracles for the pfaffian and determinant kernels, and for
the pair colours and run shapes of the symmetry searches.

Each pfaffian or determinant oracle follows its textbook definition and is
generic over the scalar domain (ints, Fractions, floats, Poly).  They are
exponential, so the tests call them only at sizes where that is
affordable.
"""
from pfsym.matchings import PfaffPermutation, enumerate_pfaff
from pfsym.pfaffian import TriangularArray


def inversion_sign(images) -> int:
    """(-1)^(#pairs i < j with images[i] > images[j]): the sign by its
    definition, O(m^2), sharing no code with `Permutation.sign`."""
    inversions = sum(a > b for i, a in enumerate(images) for b in images[i + 1 :])
    return -1 if inversions % 2 else 1


def matching_sign(m: PfaffPermutation) -> int:
    """Sign of the flattened matching, by a full inversion count."""
    return inversion_sign(m.flatten())


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


def hook_sum(arr, s: int):
    """The hook rule along s, term by term over j != s, as the paper states it:
    (-1)^(s+j+1+h) a(s,j) pf(A without s, j), with a(s,j) read from the
    mode's completion and h = H(s-j) for a skew array, 0 for a symmetric one.
    The minors are evaluated by `pfaffian_sum`.  At 2n = 4 each minor is one
    entry, whatever route evaluates it, so a float result is the rule's own
    float, the sign of a zero included.
    """
    total = None
    for j in range(1, arr.two_n + 1):
        if j == s:
            continue
        keep = [k for k in range(1, arr.two_n + 1) if k not in (s, j)]
        minor = TriangularArray.from_function(len(keep), "plain", lambda u, v: arr.entries[(keep[u - 1], keep[v - 1])])
        h = 1 if arr.mode == "skew" and j < s else 0
        term = arr.lookup(s, j) * pfaffian_sum(minor)
        term = -term if (s + j + 1 + h) % 2 else term
        total = term if total is None else total + term
    return total


def subset_pf(entries, live: tuple, memo: dict):
    """Pfaffian of the sub-array on the indices `live`, in that order, by
    expansion along the first live hook with the scalars' own operators.

    Entry (u, v) of the relabeled sub-array, u < v, is
    entries[(live[u], live[v])], so a sorted `live` reads only upper
    entries, valid in every mode.  Zero entries are skipped, and a hook
    whose entries are all zero gives its last entry, so the result stays
    in the scalar domain of the entries.  `memo` caches each subset's
    pfaffian across the calls of one expansion.  It needs only `*`, `+`,
    unary `-` and truth testing, and shares no code with the packed
    kernel of the package.
    """
    if not live:
        return 1
    if live in memo:
        return memo[live]
    i = live[0]
    total = None
    for t in range(1, len(live)):
        e = entries[(i, live[t])]
        if not e:
            continue
        term = e * subset_pf(entries, live[1:t] + live[t + 1 :], memo)
        if t % 2 == 0:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = e
    memo[live] = total
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


def schur_pfaffian(xs):
    """Schur's closed form, J. reine angew. Math. 139 (1911): the pfaffian
    of the array (x_i - x_j)/(x_i + x_j), i < j, is the product of its
    entries, for x_i with no x_i + x_j = 0.  It calls no pfsym route."""
    total = 1
    for i, xi in enumerate(xs):
        for xj in xs[i + 1 :]:
            total *= (xi - xj) / (xi + xj)
    return total


def pair_colours(poly, m: int, skew: bool, signed: bool) -> list[list[int]]:
    """The m x m table w of pair colours (0-based points) of poly, by the
    general path of `symmetry._pair_colours` for every monomial, without
    its short path for monomials with no a(.,.).

    For each monomial and each ordered pair (i, j) of the points it
    involves, i = j included, the hash of (|coeff|, total degree, local
    data at i, local data at j, exponent of a(i,j)) is added to a sum for
    (i, j); the local data at a point are its x exponent and the sorted
    exponents of the a(.,.) at it.  A member p maps the monomials of poly
    onto themselves keeping all of that, so w[q i][q j] = w[i][j] for
    q = p^{-1}.  On symmetric generators p multiplies every coefficient by
    the same s (+1, or sgn p for SSym), so positive and negative terms get
    a sum each, kept as an ordered pair, or as an unordered one for SSym.
    On skew generators p can flip single terms, and there is one sum.
    Equal multisets give equal sums: a hash collision can only merge two
    colours, never split one.
    """
    tables = ([[0] * m for _ in range(m)], [[0] * m for _ in range(m)])  # coeff > 0, < 0
    for mono, coeff in poly._terms.items():
        x_exp: dict[int, int] = {}
        a_exp: dict[int, dict[int, int]] = {}  # point -> {other end: exponent}
        degree = 0
        for v, e in mono:
            degree += e
            if v[0] == "x":
                x_exp[v[1] - 1] = e
            else:
                i, j = v[1] - 1, v[2] - 1
                a_exp.setdefault(i, {})[j] = e
                a_exp.setdefault(j, {})[i] = e
        c = hash((abs(coeff), degree))
        local = [
            (i, hash((c, x_exp.get(i, 0), *sorted(a_exp.get(i, {}).values()))), a_exp.get(i, {}))
            for i in x_exp.keys() | a_exp.keys()
        ]
        w = tables[not skew and coeff < 0]
        for i, li, ends in local:
            row = w[i]
            for j, lj, _ in local:
                row[j] += hash((li, lj, ends.get(j, 0)))
    pos, neg = tables
    if skew:
        return pos
    if signed:
        return [[hash((min(a, b), max(a, b))) for a, b in zip(r, s)] for r, s in zip(pos, neg)]
    return [[hash((a, b)) for a, b in zip(r, s)] for r, s in zip(pos, neg)]


def run_shapes(m: int) -> dict:
    """(kind, split) of every permutation of 1..m (m even) that has one of
    the four dihedral run shapes, keyed by its images, written from the
    shapes themselves; a one-run shape, listed first, wins a tie.  Any
    other permutation is ("not-dihedral", None).  It calls no pfsym route."""
    shapes = [("one-up-run", None, tuple(range(1, m + 1))), ("one-down-run", None, tuple(range(m, 0, -1)))]
    # the up-run from s steps +1 from s around the cycle 1..m, the down-run -1
    shapes += [("two-up-runs", s, tuple((s - 1 + k) % m + 1 for k in range(m))) for s in range(2, m + 1)]
    shapes += [("two-down-runs", s, tuple((s - 1 - k) % m + 1 for k in range(m))) for s in range(1, m)]
    table = {}
    for kind, split, images in shapes:
        table.setdefault(images, (kind, split))
    return table
