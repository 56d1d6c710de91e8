"""Triangular arrays and their pfaffians.

A triangular array stores only the entries above the diagonal; the mode
says how lookups below the diagonal are completed (symmetrically, skewly,
or not at all).  The pfaffian itself never needs the completion: by
definition it is the alternating sum over perfect matchings of products
of upper entries, so in every mode it equals the pfaffian of the skew
completion.  The hook expansions and the determinant do use the mode.

Scalars are pluggable: ints, Fractions, floats, Poly or any other ring.
Each route reads the scalar domain once (`_domain`) and returns its
result in it; a determinant of ints is a Fraction.  `_pfaffian` alone
picks a pfaffian algorithm, from the domain: floats take pivoted skew
elimination in O(n^3) operations (`_pf_eliminate`), ints and Fractions
the same elimination on integers (`_pf_fraction_free`), Poly and other
rings the memoized expansion `_subset_pf` up to 2n = EXPAND_CAP.  A
relabeling is an order `live` alone: each kernel places entry (i, j) at
the positions of i and j in `live` and its negative at the mirror
position.  `pfaffian_direct` and both hook rules (`_hook_expand`: hook s
is (-1)^(s-1) times the pfaffian of the array relabeled to put s first)
call it.  A skew determinant is pf^2 (0 at odd size), and a symmetric
one Bareiss elimination on integers (`_bareiss_det`) for numbers and
`_expand` of the skew embedding [[0, M], [-M^T, 0]] for rings; `_expand`
packs each entry once per call, at any size.  A float result that
overflows, or a float entry that is +-inf or nan, is a ValueError that
names it, never +-inf or nan, which JSON cannot hold.  No route
enumerates matchings; the definitional oracles live with the tests
(`tests/pf_oracles.py`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from .polyring import Poly, _add_product, _exact, _packing, gen

SYMMETRIC = "symmetric"
SKEW = "skew"
PLAIN = "plain"
MODES = (SYMMETRIC, SKEW, PLAIN)


def heaviside(s: int) -> int:
    """1 for positive arguments, 0 otherwise."""
    return 1 if s > 0 else 0


def upper_pairs(size: int):
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            yield i, j


def _check_keys(size: int, entries: Mapping[tuple[int, int], object]) -> None:
    """Refuse entries other than the upper pairs of `size`: name the least missing pair, else the first extra key."""
    expected = set(upper_pairs(size))
    got = set(entries)
    if got != expected:
        missing = sorted(expected - got)
        if missing:
            raise ValueError(f"missing entry {missing[0]}")
        raise ValueError(f"unexpected entry {next(k for k in entries if k not in expected)}")


class TriangularArray:
    """Upper-triangular data (a_{i,j})_{1<=i<j<=two_n} plus a completion mode."""

    __slots__ = ("two_n", "mode", "entries")

    def __init__(self, two_n: int, mode: str, entries: Mapping[tuple[int, int], object]):
        if two_n < 0 or two_n % 2 != 0:
            raise ValueError(f"two_n must be even and >= 0, got {two_n}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        _check_keys(two_n, entries)
        self.two_n = two_n
        self.mode = mode
        self.entries = dict(entries)

    @classmethod
    def from_function(cls, two_n: int, mode: str, fill: Callable[[int, int], object]) -> TriangularArray:
        return cls(two_n, mode, {(i, j): fill(i, j) for i, j in upper_pairs(two_n)})

    def lookup(self, i: int, j: int):
        """Entry (i, j) of the mode-completed square matrix."""
        if not (1 <= i <= self.two_n and 1 <= j <= self.two_n):
            raise IndexError(f"indices ({i},{j}) outside 1..{self.two_n}")
        if i == j:
            if self.mode == PLAIN:
                raise ValueError("plain arrays have no diagonal")
            return 0
        if i < j:
            return self.entries[(i, j)]
        if self.mode == SYMMETRIC:
            return self.entries[(j, i)]
        if self.mode == SKEW:
            return -self.entries[(j, i)]
        raise ValueError("plain arrays have no entries below the diagonal")

    def to_json_obj(self) -> dict:
        return {
            "two_n": self.two_n,
            "mode": self.mode,
            "entries": {f"{i},{j}": scalar_to_json(v) for (i, j), v in sorted(self.entries.items())},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> TriangularArray:
        size, mode, entries = parse_square_json(obj)
        return cls(size, mode, entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TriangularArray)
            and self.two_n == other.two_n
            and self.mode == other.mode
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"TriangularArray(two_n={self.two_n}, mode={self.mode!r})"


def scalar_to_json(v):
    if isinstance(v, Poly):
        return v.to_json_obj()
    if isinstance(v, float):
        return v
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    raise TypeError(f"cannot serialize scalar of type {type(v).__name__}")


def scalar_from_json(v):
    if isinstance(v, (str, int)) and not isinstance(v, bool):
        return Fraction(_exact(v, "scalar"))
    if isinstance(v, float) and math.isfinite(v):
        return v
    if isinstance(v, list):
        try:
            return Poly.from_json_obj(v)
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"bad polynomial scalar: {exc}") from exc
    raise ValueError(f"bad scalar {v!r}")


def parse_square_json(obj: dict) -> tuple[int, str, dict]:
    """Parse the array file format; also accepts odd sizes (key "size")."""
    if not isinstance(obj, dict):
        raise ValueError("array file must be a JSON object")
    if "two_n" in obj:
        size = obj["two_n"]
    elif "size" in obj:
        size = obj["size"]
    else:
        raise ValueError("missing key 'two_n'")
    if isinstance(size, bool) or not isinstance(size, int) or size < 0:
        raise ValueError(f"bad size {size!r}")
    mode = obj.get("mode")
    if mode not in MODES:
        raise ValueError(f"key 'mode' must be one of {MODES}, got {mode!r}")
    raw = obj.get("entries")
    if not isinstance(raw, dict):
        raise ValueError("missing key 'entries'")
    entries = {}
    for key, value in raw.items():
        try:
            i_text, j_text = key.split(",")
            i, j = int(i_text), int(j_text)
        except ValueError as exc:
            raise ValueError(f"entry key {key!r} is not of the form 'i,j'") from exc
        if not 1 <= i < j <= size:
            raise ValueError(f"entry key {key!r} outside the upper triangle of size {size}")
        try:
            entries[(i, j)] = scalar_from_json(value)
        except ValueError as exc:
            raise ValueError(f"entry {key!r}: {exc}") from exc
    for i, j in upper_pairs(size):
        if (i, j) not in entries:
            raise ValueError(f"missing entry key '{i},{j}'")
    return size, mode, entries


_KINDS = (bool, Poly, float, Fraction, int)  # a subclass counts as the first base listed


def _domain(entries: Mapping[tuple[int, int], object]):
    """The scalar domain of the entries: Poly, any other ring (object), float,
    Fraction or int, the first of these that some entry belongs to.

    A boolean entry is a ValueError, and so is a float beside a Poly: Poly
    coefficients are exact, and a binary fraction would hide an inexact
    input.  The message names the first such entry.
    """
    types = set(map(type, entries.values()))
    kinds = {t if t in _KINDS else next((d for d in _KINDS if issubclass(t, d)), object) for t in types}
    if bool in kinds or (Poly in kinds and float in kinds):
        for (i, j), v in sorted(entries.items()):
            if isinstance(v, bool):
                raise ValueError(f"entry '{i},{j}': bad scalar {v!r}")
            if Poly in kinds and isinstance(v, float):
                raise ValueError(
                    f"entry '{i},{j}' is the float {v!r}; an array with polynomial entries takes exact scalars only"
                )
    return next((d for d in (Poly, object, float, Fraction) if d in kinds), int)


def _expand(domain, entries: Mapping[tuple[int, int], object], live: tuple[int, ...]):
    """Pfaffian in `domain` (Poly or another ring) of the skew completion
    of the upper `entries`, relabeled on `live` as in `_pfaffian`, by
    `_subset_pf`.  Each distinct value is packed once (`polyring._packing`):
    a Poly into its packed monomials, any other scalar into a constant
    under key 0, a zero into the empty dict.  A new dict keys each packed
    entry by the positions of its labels in `live`, in increasing order,
    negated into a new dict where `live` reverses them, as one packed dict
    serves every position of its value.  The sum is unpacked into a Poly,
    even when constant, or read as the ring's value; another ring's sum
    that met only int entries, such as the int 0 of a row of int zeros,
    takes the ring's zero."""
    # a value placed at several positions is one object, scanned and packed once
    distinct = {id(v): v for v in entries.values()}
    pack, unpack = _packing(distinct.values(), len(live) // 2)
    packed = {k: pack(v) for k, v in distinct.items()}
    at = {i: u for u, i in enumerate(live)}
    ordered = {}
    for (i, j), v in entries.items():
        u, t = at[i], at[j]
        e = packed[id(v)]
        ordered[min(u, t), max(u, t)] = e if u < t else {m: -c for m, c in e.items()}
    total = _subset_pf(ordered, tuple(range(len(live))), {})
    if domain is Poly:
        return unpack(total)
    value = total.get(0, 0)
    if isinstance(value, int):
        return next(v for v in entries.values() if not isinstance(v, int)) * 0 + value
    return value


def _finite(value, what: str):
    """`value`, unless it is a float that overflowed to +-inf or nan, which
    JSON cannot hold: then a ValueError naming the overflow."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"the {what} overflows a float; exact entries give its exact value")
    return value


def _refuse_non_finite(entries: Mapping[tuple[int, int], object]) -> None:
    """A ValueError naming the first float entry that is +-inf or nan, in the
    wording of the array file parser; nothing if there is none."""
    for (i, j), v in sorted(entries.items()):
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"entry '{i},{j}': bad scalar {v!r}")


# Largest 2n that a Poly or other-ring pfaffian or hook expansion takes;
# generic_pfaffian(14) already takes about 1.3 s and 111 MB (2-core VM,
# Python 3.11.7).
# 16 is not yet a limit derived from the expansion's measured cost.
# Determinants take no cap.
EXPAND_CAP = 16


# -- pfaffians ---------------------------------------------------------------


def pfaffian_direct(arr: TriangularArray):
    """Pfaffian of the array, by the route `_pfaffian` picks for its scalar domain.

    Only upper entries appear, so every mode gives the pfaffian of the skew
    completion.  `_domain` reads the result type from the entries: ints
    give an int, Fractions (ints among them) a Fraction, floats a float,
    Poly entries a Poly and any other scalar its own ring.  A boolean
    entry, or a float beside a Poly, is a ValueError, and so are a float
    entry +-inf or nan, a float result that overflowed to +-inf or nan,
    and a Poly or other-ring array above 2n = EXPAND_CAP.
    """
    return _finite(_pfaffian(arr.entries, tuple(range(1, arr.two_n + 1)), _domain(arr.entries)), "pfaffian")


def _pfaffian(entries: Mapping[tuple[int, int], object], live: tuple[int, ...], domain):
    """Pfaffian in `domain` of the skew completion A of the upper `entries`,
    relabeled on `live`, an ordering of 1..2n: the array A[live[u]][live[v]],
    whose pfaffian is sgn(live) pf A.  Each kernel places a(i, j) at
    (at[i], at[j]), at[i] the position of i in `live`, and -a(i, j) at the
    mirror position.  The one place that picks a pfaffian algorithm; see
    the module docstring.  A float result that is zero or not finite has
    the entries scanned for a float +-inf or nan, a ValueError naming it:
    elimination that meets one ends in such a result.
    """
    if domain is float:
        value = _pf_eliminate(entries, live, float)
        if not (value and math.isfinite(value)):
            _refuse_non_finite(entries)
        return value
    if domain in (int, Fraction):
        value = _pf_fraction_free(entries, live)
        return value if domain is Fraction else value.numerator
    if len(live) > EXPAND_CAP:
        raise ValueError(f"two_n={len(live)} exceeds the memoized-expansion cap {EXPAND_CAP}")
    return _expand(domain, entries, live)


def _pf_eliminate(entries: Mapping[tuple[int, int], object], live: tuple[int, ...], cast):
    """Pfaffian of the skew completion of the upper `entries`, relabeled on
    `live` as in `_pfaffian`, by pivoted Schur elimination.

    Parlett & Reid, BIT 10 (1970); Wimmer, ACM TOMS 38(4) (2012).  Each
    entry, cast to `cast` (float or Fraction), is placed once, in the order
    `live`.  Each step swaps the pivot column into position 1 (a swap flips
    the sign), takes p = a[0][1] as a factor of the result and, with u, v
    the rows 0 and 1, updates the trailing block to its Schur complement
    a[i][j] + (v[i]*u[j] - u[i]*v[j]) / p, above the diagonal and mirrored.
    Floats pivot on the entry of largest magnitude, Fractions on the first
    nonzero entry.  `_pfaffian` runs it on floats; in Fractions it is the
    independent route of `verify hook-oracle` and `skew-det` and the tests.
    """
    size = len(live)
    at = [0] * (size + 1)
    for u, i in enumerate(live):
        at[i] = u
    a = [[0] * size for _ in range(size)]
    for (i, j), v in entries.items():
        u, t = at[i], at[j]
        a[u][t] = w = cast(v)
        a[t][u] = -w
    result = cast(1)
    while a:
        row = a[0]
        if cast is float:
            mags = list(map(abs, row))
            piv = mags.index(max(mags[1:]), 1)
        else:
            piv = next((j for j in range(1, len(row)) if row[j] != 0), 1)
        p = row[piv]
        if p == 0:
            return cast(0)
        if piv != 1:
            a[1], a[piv] = a[piv], a[1]
            for r in a:
                r[1], r[piv] = r[piv], r[1]
            result = -result
        result *= p
        u = [x / p for x in row[2:]]
        v = a[1][2:]
        m = len(u)
        b = [[0] * m for _ in range(m)]
        for i, (ui, vi, r) in enumerate(zip(u, v, a[2:])):
            for j in range(i + 1, m):
                w = r[j + 2] + vi * u[j] - ui * v[j]
                b[i][j] = w
                b[j][i] = -w
        a = b
    return result


def _pf_fraction_free(entries: Mapping[tuple[int, int], object], live: tuple[int, ...]) -> Fraction:
    """Pfaffian, a Fraction, of the skew completion of the int or Fraction
    upper `entries`, relabeled on `live` as in `_pfaffian`, by fraction-free
    pivoted skew elimination on the ints d_i d_j a(i, j), with d_i the lcm
    of the denominators of row i; pf(DAD) = det D pf A undoes the scaling.

    As in `_pf_eliminate`, the first nonzero entry of row 0 is swapped into
    position 1 (a swap flips the sign) and p = a[0][1]; with u, v the rows
    0 and 1, the trailing block becomes (p*a[i][j] - u[i]*v[j] + v[i]*u[j])
    // prev, prev the pivot before (1 at first), computed above the
    diagonal and mirrored.  Its entry (i, j) is the pfaffian on the
    eliminated indices and i, j, so the division is exact (Knuth,
    "Overlapping Pfaffians", Electron. J. Combin. 3(2), 1996; Bareiss,
    Math. Comp. 22, 1968), and the last pivot is the pfaffian.
    """
    size = len(live)
    # pf(DAD) = det D pf A, D = diag(d_i) with d_i the lcm of the denominators of row i
    d = [1] * (size + 1)
    for (i, _), v in entries.items():
        d[i] = math.lcm(d[i], v.denominator)
    at = {i: u for u, i in enumerate(live)}
    a = [[0] * size for _ in range(size)]
    for (i, j), v in entries.items():
        u, t = at[i], at[j]
        a[u][t] = w = v.numerator * (d[i] * d[j] // v.denominator)
        a[t][u] = -w
    sign = prev = 1
    while a:
        row = a[0]
        piv = 1 if row[1] else next((j for j in range(2, len(row)) if row[j]), 0)
        if not piv:
            return Fraction(0)
        if piv != 1:
            a[1], a[piv] = a[piv], a[1]
            for r in a:
                r[1], r[piv] = r[piv], r[1]
            sign = -sign
        p, u, v = row[1], row[2:], a[1][2:]
        m = len(u)
        b = [[0] * m for _ in range(m)]
        for i, (ui, vi, r) in enumerate(zip(u, v, a[2:])):
            bi = b[i]
            for j in range(i + 1, m):
                bi[j] = w = (p * r[j + 2] - ui * v[j] + vi * u[j]) // prev
                b[j][i] = -w
        a, prev = b, p
    return Fraction(sign * prev, math.prod(d))


def generic_pfaffian(two_n: int) -> Poly:
    """The pfaffian with generator entries a(i,j), as a polynomial: `pfaffian_direct` of that array."""
    if two_n == 0:
        return Poly.const(1)
    return pfaffian_direct(TriangularArray.from_function(two_n, SKEW, lambda i, j: Poly.variable(gen(i, j))))


def _subset_pf(entries: Mapping[tuple[int, int], dict], live: tuple[int, ...], memo: dict) -> dict:
    """Pfaffian, a packed term dict, of the sub-array on the positions
    `live`, in that order, with `entries` the packed term dicts that
    `_expand` keys by position pairs u < v.

    Expands along the first live hook: the products of its nonzero
    entries with the pfaffians of their minors are added into one new
    dict by `polyring._add_product`, the sign of partner t folded into the
    small entry, so an all-zero hook gives the empty dict, the zero of
    every domain.  `memo` caches each subset's pfaffian across the calls
    of one expansion; no dict it holds, and no entry, is written into.
    """
    if not live:
        return {0: 1}
    if live in memo:
        return memo[live]
    i = live[0]
    total: dict = {}
    for t in range(1, len(live)):
        e = entries[i, live[t]]
        if e:
            _add_product(total, e, _subset_pf(entries, live[1:t] + live[t + 1 :], memo), t % 2 == 0)
    memo[live] = total
    return total


def hook_expand_symmetric(arr: TriangularArray, s: int):
    """Expansion along hook s for symmetric completion: no Heaviside sign."""
    return _hook_expand(arr, s, SYMMETRIC)


def hook_expand_skew(arr: TriangularArray, s: int):
    """Expansion along hook s for skew completion, with the Heaviside sign."""
    return _hook_expand(arr, s, SKEW)


def _hook_expand(arr: TriangularArray, s: int, mode: str):
    """The hook rule of `mode` along s: (-1)^(s-1) times the pfaffian of
    the array relabeled on live = (s, 1..s-1, s+1..2n), by `_pfaffian` in
    the domain of the entries.  An array of another mode is a ValueError,
    and s outside 1..2n an IndexError.

    The rule for s is the sum over j != s of (-1)^(s+j+1+h) a(s,j)
    pf(A without s, j): h = 0 and a(s,j) = a(j,s) for j < s in a symmetric
    array, h = H(s-j) and a(s,j) = -a(j,s) in a skew one.  For j < s both
    give the term (-1)^(s+j+1) a(j,s) pf, so the rules are one sum: the
    expansion along the first row of the skew completion relabeled on live,
    whose row s holds a(s,j) for j > s and -a(j,s) for j < s, times
    (-1)^(s-1), as `_subset_pf` signs partner j by its position
    t = j - [j > s].  That expansion is the pfaffian of the relabeled
    array, so every hook equals the pfaffian.  `_pfaffian` places each pair
    (j, s), j < s, that `live` reverses as -a(j, s) in row s.  A float
    result that overflowed is a ValueError.
    """
    if arr.mode != mode:
        raise ValueError(f"{mode} hook expansion needs a {mode} array, got mode {arr.mode!r}")
    if not 1 <= s <= arr.two_n:
        raise IndexError(f"hook {s} outside 1..{arr.two_n}")
    live = (s, *range(1, s), *range(s + 1, arr.two_n + 1))
    value = _pfaffian(arr.entries, live, _domain(arr.entries))
    return _finite(-value if s % 2 == 0 else value, "hook expansion")


# -- determinants -------------------------------------------------------------


def determinant(arr: TriangularArray):
    """Exact determinant of the mode-completed square matrix, by
    `completed_determinant`, which refuses a plain array."""
    return completed_determinant(arr.two_n, arr.mode, arr.entries)


def completed_determinant(size: int, mode: str, entries: Mapping[tuple[int, int], object]):
    """Determinant of the size x size completion; `size` may be odd.

    This is the entry point for square matrices built from a triangular
    half by symmetry or skew-symmetry, with zero diagonal.  The entries
    must be exactly the upper pairs of `size`; a missing or an extra one
    is a ValueError, as for a TriangularArray.  `_domain` picks the route
    and the result type: ints and Fractions give a Fraction, floats the
    float of that exact value, Poly entries a Poly and any other scalar
    its own ring.  A skew matrix is 0 in that type at odd size and pf^2 at
    even size, by `_pfaffian` in Fractions for numbers and by `_expand`,
    with no size cap, for rings.  A symmetric matrix M of size m goes
    through `_bareiss_det`, Bareiss elimination on its rows scaled to ints,
    for numbers, and for rings through `_expand` of the skew embedding,
    det M = (-1)^(m(m-1)/2) pf [[0, M], [-M^T, 0]], with no size cap: each
    entry is packed once in both halves, and the memo holds only the m 2^m
    column-subset minors of M.  A float entry +-inf or nan is a ValueError
    naming it, and so is a value that overflows a float, never +-inf,
    which JSON cannot hold.  A boolean entry, or a float beside a Poly, is
    a ValueError.
    """
    if mode not in (SYMMETRIC, SKEW):
        raise ValueError(f"mode must be symmetric or skew, got {mode!r}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    _check_keys(size, entries)
    domain = _domain(entries)
    if domain is float:
        _refuse_non_finite(entries)
        entries = {p: Fraction(v) for p, v in entries.items()}
    live = tuple(range(1, size + 1))
    if mode == SKEW and size % 2:
        # a skew matrix of odd size is singular; a ring's zero is v - v for an entry v
        value = next((v - v for v in entries.values() if not isinstance(v, (int, Fraction))), Fraction(0))
    elif mode == SKEW:
        pf = _pfaffian(entries, live, Fraction) if domain in (int, Fraction, float) else _expand(domain, entries, live)
        value = pf * pf
    else:
        rows = [[0] * size for _ in range(size)]
        for (i, j), v in entries.items():
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = v
        if domain in (int, Fraction, float):
            value = _bareiss_det(rows)
        else:
            embedded = {(i, j): rows[i - 1][j - size - 1] if i <= size < j else 0 for i, j in upper_pairs(2 * size)}
            value = _expand(domain, embedded, tuple(range(1, 2 * size + 1)))
            value = -value if size * (size - 1) // 2 % 2 else value
    try:
        return float(value) if domain is float else value
    except OverflowError:
        e = round(math.log10(abs(value.numerator)) - math.log10(value.denominator))
        raise ValueError(
            f"the determinant overflows a float (|det| is about 10^{e}); exact entries give its exact value"
        ) from None


def _bareiss_det(rows: list[list]) -> Fraction:
    """Determinant of the square matrix `rows` of ints or Fractions, by
    Bareiss elimination with row pivoting (Math. Comp. 22, 1968) on ints.

    Row i is scaled by the lcm d_i of its denominators: det(diag(d) M) =
    prod d_i det M.  Step k swaps a row with a nonzero entry in column k
    up to row k (a swap flips the sign) and updates the rows below to
    (a[i][j]*a[k][k] - a[i][k]*a[k][j]) // prev, prev the pivot before (1 at
    first): each entry is a minor of the scaled matrix, so this is exact.
    """
    a, scale = [], 1
    for row in rows:
        d = math.lcm(*(v.denominator for v in row))
        a.append([v.numerator * (d // v.denominator) for v in row])
        scale *= d
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            r = next((r for r in range(k + 1, n) if a[r][k]), 0)
            if not r:
                return Fraction(0)
            a[k], a[r] = a[r], a[k]
            sign = -sign
        top, pivot = a[k], a[k][k]
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return Fraction(sign * a[-1][-1], scale)
