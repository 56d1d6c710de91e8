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
picks a pfaffian algorithm, from the domain and 2n: floats take pivoted
skew elimination in O(n^3) operations (`_pf_eliminate`), ints and
Fractions the memoized expansion `_subset_pf` on integers up to
2n = MEMO_MAX and elimination in Fractions above it, Poly and other rings
the memoized expansion up to 2n = EXPAND_CAP.  `pfaffian_direct`, both
hook rules (`_hook_expand`: hook s is (-1)^(s-1) times the pfaffian of the
array relabeled to put s first) and the skew determinant (pf^2, 0 at odd
size) call it.  Symmetric determinants of numbers come from symmetric
elimination with 1x1 and 2x2 pivots (`_sym_det`), in Fractions; Bareiss
elimination (`_bareiss_det`) stays as the independent route of `verify
skew-det`.  Poly and other-ring determinants expand the skew embedding
[[0, M], [-M^T, 0]] by `_expand`, which packs Poly entries once per call,
at any size.  A float result that overflows, or a float entry that is
+-inf or nan, is a ValueError that names it, never +-inf or nan, which
JSON cannot hold.  No route enumerates matchings; the definitional
oracles live with the tests (`tests/pf_oracles.py`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from .polyring import Poly, _exact, _packing, gen

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


def _expand(domain, entries: Mapping[tuple[int, int], object], live: tuple[int, ...], negated=()):
    """`_subset_pf(entries, live)` in `domain` (int, Poly or another ring),
    where a position (i, j) in `negated` holds -entries[(i, j)], or
    -entries[(j, i)] for i > j.  Poly entries are packed
    (`polyring._packing`), so a product of monomials is one integer
    addition, and the sum is unpacked into a Poly even when it is an int.
    Another ring's sum that met only int entries, such as the int 0 ending
    a row of int zeros, takes the ring's zero."""
    if domain is Poly:
        # a value placed at several positions is one object, scanned and packed once
        distinct = {id(v): v for v in entries.values()}
        pack, unpack = _packing(distinct.values(), len(live) // 2)
        packed = {k: pack(v) for k, v in distinct.items()}
        entries = {p: packed[id(v)] for p, v in entries.items()}
    if negated:
        entries = entries | {(i, j): -entries[(i, j) if i < j else (j, i)] for i, j in negated}
    total = _subset_pf(entries, live, {})
    if domain is Poly:
        return unpack(total)
    if domain is object and isinstance(total, int):
        return next(v for v in entries.values() if not isinstance(v, int)) * 0 + total
    return total


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
# generic_pfaffian(14) already takes about 2.4 s and 112 MB (2-core VM).
# 16 is not yet a limit derived from the expansion's measured cost.
# Determinants take no cap.
EXPAND_CAP = 16

# Largest 2n at which an int or Fraction pfaffian runs the memo on integers;
# above it, elimination in Fractions is faster.  Per pfaffian of a random
# array with one-digit denominators (2-core VM, Python 3.11), memo against
# elimination: 0.42 against 0.95 ms at 2n = 10, 1.4 against 1.7 ms at 12,
# 3.0 against 1.6 ms at 14.  One-digit ints and six-digit denominators
# cross between 12 and 14 too.
MEMO_MAX = 12


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


def _pfaffian(entries: Mapping[tuple[int, int], object], live: tuple[int, ...], domain, negated=()):
    """Pfaffian in `domain` of the skew completion A of the upper `entries`,
    relabeled on `live`, an ordering of 1..2n: the array A[live[u]][live[v]].

    `negated` lists the pairs (i, j), i > j, that `live` puts in that order,
    where the entry is -a(j, i); there are none exactly when `live` is 1..2n
    in order.  The one place that picks a pfaffian algorithm, from the
    domain and 2n; see the module docstring.  A float result that is zero
    or not finite has the entries scanned for a float +-inf or nan, which is
    a ValueError naming it: elimination that meets one ends in such a result.
    """
    two_n = len(live)
    if domain is float:
        value = _pf_eliminate(entries, live, float, negated)
        if not (value and math.isfinite(value)):
            _refuse_non_finite(entries)
        return value
    if domain in (int, Fraction):
        if two_n > MEMO_MAX:
            value = _pf_eliminate(entries, live, Fraction, negated)
            return int(value) if domain is int else value
        # pf(DAD) = det D pf A, D = diag(d_i) with d_i the lcm of the denominators of row i
        d = [1] * (two_n + 1)
        for (i, _), v in entries.items():
            d[i] = math.lcm(d[i], v.denominator)
        scaled = {(i, j): v.numerator * (d[i] * d[j] // v.denominator) for (i, j), v in entries.items()}
        total = _expand(int, scaled, live, negated)
        return total if domain is int else Fraction(total, math.prod(d))
    if two_n > EXPAND_CAP:
        raise ValueError(f"two_n={two_n} exceeds the memoized-expansion cap {EXPAND_CAP}")
    return _expand(domain, entries, live, negated)


def _pf_eliminate(entries: Mapping[tuple[int, int], object], live: tuple[int, ...], cast, negated=()):
    """Pfaffian of the skew completion of the upper `entries`, relabeled on
    `live` as in `_pfaffian`, by pivoted Schur elimination.

    Parlett & Reid, BIT 10 (1970); Wimmer, ACM TOMS 38(4) (2012).  The
    entries are cast to `cast` (float or Fraction).  Each step eliminates
    the leading two rows and columns.  The pivot column is swapped into
    position 1 (a swap flips the sign) and p = a[0][1] becomes a factor
    of the result; with u, v the rows 0 and 1, the trailing block then
    takes the Schur complement update a[i][j] += (v[i]*u[j] - u[i]*v[j]) / p.
    The update is skew, so it is computed above the diagonal and mirrored.
    Floats pivot on the entry of largest magnitude, Fractions on the first
    nonzero entry.
    """
    size = len(live)
    a = [[0] * size for _ in range(size)]
    for (i, j), v in entries.items():
        w = cast(v)
        a[i - 1][j - 1] = w
        a[j - 1][i - 1] = -w
    if negated:
        # `live` is not 1..2n in order
        a = [[a[i - 1][j - 1] for j in live] for i in live]
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


def _sym_det(size: int, entries: Mapping[tuple[int, int], object]) -> Fraction:
    """Determinant of the symmetric completion, zero diagonal, by symmetric
    pivoted elimination in Fractions.

    The exact form of Bunch & Kaufman, Math. Comp. 31 (1977), written as
    `_pf_eliminate`.  A symmetric swap of two indices (rows and columns
    together) leaves the determinant unchanged.  If some diagonal entry is
    nonzero, the first one is swapped to the front and is a 1x1 pivot d:
    the result takes the factor d, and the trailing block the update
    a[i][j] -= a[0][i] * (a[0][j] / d).  Otherwise the first nonzero b of row
    0 is swapped into position 1, and [[0, b], [b, 0]] is a 2x2 pivot: the
    factor is -b^2, and with x = row 0 / b and y = row 1 the update is
    a[i][j] -= x[i]*y[j] + y[i]*x[j], `_pf_eliminate`'s update with the sign
    of one term changed.  A zero row 0 under a zero diagonal gives 0.  Each
    update is computed on and above the diagonal and mirrored.
    """
    a = [[0] * size for _ in range(size)]
    for (i, j), v in entries.items():
        a[i - 1][j - 1] = a[j - 1][i - 1] = Fraction(v)
    result = Fraction(1)
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i] != 0), None)
        if k is not None:
            if k:
                a[0], a[k] = a[k], a[0]
                for r in a:
                    r[0], r[k] = r[k], r[0]
            d = a[0][0]
            result *= d
            u = a[0][1:]
            x = [w / d for w in u]
            m = n - 1
            b = [[0] * m for _ in range(m)]
            for i, (ui, r) in enumerate(zip(u, a[1:])):
                bi = b[i]
                for j in range(i, m):
                    bi[j] = b[j][i] = r[j + 1] - ui * x[j]
        else:
            k = next((j for j in range(1, n) if a[0][j] != 0), None)
            if k is None:
                return Fraction(0)
            if k != 1:
                a[1], a[k] = a[k], a[1]
                for r in a:
                    r[1], r[k] = r[k], r[1]
            p = a[0][1]
            result *= -p * p
            x = [w / p for w in a[0][2:]]
            y = a[1][2:]
            m = n - 2
            b = [[0] * m for _ in range(m)]
            for i, (xi, yi, r) in enumerate(zip(x, y, a[2:])):
                bi = b[i]
                for j in range(i, m):
                    bi[j] = b[j][i] = r[j + 2] - xi * y[j] - yi * x[j]
        a = b
    return result


def generic_pfaffian(two_n: int) -> Poly:
    """The pfaffian with generator entries a(i,j), as a polynomial: `pfaffian_direct` of that array."""
    if two_n == 0:
        return Poly.const(1)
    return pfaffian_direct(TriangularArray.from_function(two_n, SKEW, lambda i, j: Poly.variable(gen(i, j))))


def _subset_pf(entries: Mapping[tuple[int, int], object], live: tuple[int, ...], memo: dict):
    """Pfaffian of the sub-array on the indices `live`, in that order.

    Expands along the first live hook: entry (u, v) of the relabeled
    sub-array, u < v, is entries[(live[u], live[v])], so a sorted `live`
    reads only upper entries, valid in every mode.  Zero entries are
    skipped, and a hook whose entries are all zero gives its last entry, so
    the result stays in the scalar domain of the entries.  `memo` caches
    each subset's pfaffian across the calls of one expansion.  The kernel
    needs only `*`, `+`, unary `-` and truth testing, so `_expand` runs it
    on packed polynomials, and plain ints mix in.
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
        term = e * _subset_pf(entries, live[1:t] + live[t + 1 :], memo)
        if t % 2 == 0:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = e
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
    array, so every hook equals the pfaffian.  The pairs (s, j), j < s, are
    the ones `live` puts below the diagonal.  A float result that overflowed
    is a ValueError.
    """
    if arr.mode != mode:
        raise ValueError(f"{mode} hook expansion needs a {mode} array, got mode {arr.mode!r}")
    if not 1 <= s <= arr.two_n:
        raise IndexError(f"hook {s} outside 1..{arr.two_n}")
    live = (s, *range(1, s), *range(s + 1, arr.two_n + 1))
    value = _pfaffian(arr.entries, live, _domain(arr.entries), [(s, k) for k in range(1, s)])
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
    and the result type from the entries.  Ints and Fractions give a
    Fraction, and floats the float of that exact value: a skew matrix has
    det = pf^2 at even size (its Fraction pfaffian by `_pfaffian`) and 0 at odd
    size, and a symmetric one goes through `_sym_det`, symmetric
    elimination in Fractions with 1x1 and 2x2 pivots.  A float entry that
    is +-inf or nan is a ValueError naming it, and a value that does not
    fit a float is a ValueError naming the overflow, never +-inf, which
    JSON cannot hold.  Poly entries give a Poly, and any other scalar its
    own ring:
    det M = (-1)^(m(m-1)/2) pf [[0, M], [-M^T, 0]] for M of size m, and
    `_expand` expands that pfaffian along its rows, on packed monomials
    for Poly entries; an entry v sits in both halves as one object, which
    is packed once, and `_expand` negates it below in the skew mode.  It
    skips the zero blocks, so its memo holds only the m 2^m column-subset
    minors of M, and it takes no size cap.  A boolean entry, or a float
    beside a Poly, is a ValueError.
    """
    if mode not in (SYMMETRIC, SKEW):
        raise ValueError(f"mode must be symmetric or skew, got {mode!r}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    _check_keys(size, entries)
    domain = _domain(entries)
    if domain in (int, Fraction, float):
        if domain is float:
            _refuse_non_finite(entries)
            entries = {p: Fraction(v) for p, v in entries.items()}
        if mode == SKEW:
            # a skew matrix of odd size is singular, and of even size has det = pf^2
            exact = _pfaffian(entries, tuple(range(1, size + 1)), Fraction) ** 2 if size % 2 == 0 else Fraction(0)
        else:
            exact = _sym_det(size, entries)
        if domain is not float:
            return exact
        try:
            return float(exact)
        except OverflowError:
            e = round(math.log10(abs(exact.numerator)) - math.log10(exact.denominator))
            raise ValueError(
                f"the determinant overflows a float (|det| is about 10^{e}); exact entries give its exact value"
            ) from None
    embedded = dict.fromkeys(upper_pairs(2 * size), 0)
    for (i, j), v in entries.items():
        embedded[(i, size + j)] = embedded[(j, size + i)] = v
    # a skew entry sits below as -v, which `_expand` negates after packing v once
    negated = [(j, size + i) for i, j in entries] if mode == SKEW else ()
    value = _expand(domain, embedded, tuple(range(1, 2 * size + 1)), negated)
    return -value if size * (size - 1) // 2 % 2 else value


def _bareiss_det(rows: list[list[Fraction]]) -> Fraction:
    """Fraction-free Bareiss elimination with row pivoting."""
    n = len(rows)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) / prev
            rows[i][k] = Fraction(0)
        prev = pivot
    return sign * rows[-1][-1]
