"""The packed-monomial arithmetic behind every Poly route, against the oracles.

`pfaffian_direct`, both hook expansions and `completed_determinant` run
Poly and other-ring arrays through `_subset_pf` on packed term dicts,
whose field width comes from a bound on every exponent, and add each
product of a hook into one dict by `_add_product`.  Each route must equal
the matching sum or the cofactor expansion on arrays that mix position
and generator variables, Fraction coefficients, int entries and zero
Polys, including arrays whose result reaches the bound exactly at a power
of two and one below it, on Poly arrays whose hook sums cancel and on
Decimal arrays with int zeros.  No route may multiply a Poly or raise one
to a power: its products run on the term dicts.  The one exception is the
square pf * pf of a skew determinant at even size, which `Poly.__mul__`
packs.  A determinant, a hook expansion along any s and the pfaffian pack
each entry once, in the skew mode too.
"""
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from pf_oracles import cofactor_det, completed_rows, pfaffian_sum
from pfsym import pfaffian
from pfsym.pfaffian import (
    SKEW,
    SYMMETRIC,
    TriangularArray,
    completed_determinant,
    hook_expand_skew,
    hook_expand_symmetric,
    pfaffian_direct,
    upper_pairs,
)
from pfsym.polyring import Poly, a, pos, x

VARIABLES = (lambda: x(1), lambda: x(2), lambda: x(3), lambda: a(1, 2), lambda: a(2, 3))


def _monomial(rng, degree):
    out = Poly.const(1)
    for _ in range(degree):
        out = out * rng.choice(VARIABLES)()
    return out


def _entry(rng):
    """A zero Poly, an int, or one to three terms in x and a, of degree up to 5."""
    kind = rng.randrange(6)
    if kind == 0:
        return Poly.zero()
    if kind == 1:
        return rng.choice((-3, -1, 1, 2))
    terms = [Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 1, 2, 3))) * _monomial(rng, rng.randint(0, 5))]
    terms += [rng.choice((-1, 1)) * _monomial(rng, rng.randint(1, 2)) for _ in range(rng.randrange(3))]
    return sum(terms, Poly.zero())


def _assert_poly(got, want, label):
    assert type(got) is Poly and got == want, label
    for c in got._terms.values():
        # Poly's rule: integral coefficients are stored as ints
        assert type(c) is int or c.denominator != 1, label


def _check_pfaffian_routes(entries, two_n, label):
    want = pfaffian_sum(TriangularArray(two_n, SKEW, entries))
    if not isinstance(want, Poly):
        want = Poly.const(want)
    for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
        arr = TriangularArray(two_n, mode, entries)
        _assert_poly(pfaffian_direct(arr), want, (label, mode))
        for s in range(1, two_n + 1):
            _assert_poly(hook(arr, s), want, (label, mode, s))
    return want


def _check_determinants(entries, size, label):
    for mode in (SYMMETRIC, SKEW):
        want = cofactor_det(completed_rows(size, mode, entries))
        if not isinstance(want, Poly):
            want = Poly.const(want)
        _assert_poly(completed_determinant(size, mode, entries), want, (label, mode))


def test_packed_routes_match_the_oracles():
    rng = random.Random(20)
    for two_n in range(2, 11, 2):
        for trial in range(4 if two_n < 10 else 1):
            entries = {p: _entry(rng) for p in upper_pairs(two_n)}
            entries[(1, 2)] = x(1) - 1  # at least one nonzero Poly
            _check_pfaffian_routes(entries, two_n, (two_n, trial))
    for size in range(2, 7):
        # the skew pf^2 route at 2, 4 and 6; the cofactor oracle has 720 leaves at 6
        for trial in range(4 if size < 6 else 2):
            entries = {p: _entry(rng) for p in upper_pairs(size)}
            entries[(1, 2)] = a(1, 2) * x(3) + Fraction(1, 2)
            _check_determinants(entries, size, (size, trial))


# few monomials of low degree, so that the products of a hook share them
SHARED = (x(1), x(2), x(1) * x(2), x(1) ** 2)


def _shared_monomials(rng):
    """A zero Poly, or a sum of up to three of the SHARED monomials with
    coefficients +-1 and +-2: the sums of a hook cancel term by term."""
    return sum((rng.choice((-2, -1, 1, 2)) * m for m in rng.sample(SHARED, rng.randrange(4))), Poly.zero())


def _decimal_or_int_zero(rng):
    return 0 if rng.random() < 0.3 else Decimal(rng.randint(-9, 9)).scaleb(-1)


# domain -> (entry fill, a nonzero entry (1, 2) that fixes the domain)
EXPANSION_DOMAINS = {
    "Poly": (_shared_monomials, lambda rng: x(1) - rng.randint(1, 2)),
    "Decimal": (_decimal_or_int_zero, lambda rng: Decimal(rng.randint(1, 9)).scaleb(-1)),
}


def expansion_mismatches(rng):
    """The (domain, route, size) of each route whose value is not the
    oracle's, not in the domain or an exception: `pfaffian_direct` and
    both hook rules at every s against `pfaffian_sum` at 2n = 2..8, and
    `completed_determinant` of both modes against `cofactor_det` at sizes
    2..6.  Each size takes three random arrays and, from 2n = 4, one whose
    last row is int zeros, whose pfaffian is the zero of the domain."""
    bad = []
    for name, (fill, anchor) in EXPANSION_DOMAINS.items():
        domain = type(anchor(rng))

        def check(route, size, evaluate, want):
            try:
                got = evaluate()
            except Exception as exc:  # a broken kernel may leave a value that a later product refuses
                got = exc
            if type(got) is not domain or got != want:
                bad.append((name, route, size))

        for size in range(2, 9):
            for trial in range(4 if size > 2 else 3):
                entries = {p: 0 if trial == 3 and size in p else fill(rng) for p in upper_pairs(size)}
                entries[(1, 2)] = anchor(rng)
                for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
                    if size <= 6:
                        want = cofactor_det(completed_rows(size, mode, entries))
                        check(f"{mode} determinant", size, lambda: completed_determinant(size, mode, entries), want)
                    if size % 2 == 0:
                        arr = TriangularArray(size, mode, entries)
                        want = pfaffian_sum(arr)
                        check(f"{mode} pfaffian_direct", size, lambda: pfaffian_direct(arr), want)
                        for s in range(1, size + 1):
                            check(f"{mode} hook {s}", size, lambda: hook(arr, s), want)
    return bad


def test_expansions_whose_sums_cancel_match_the_oracles():
    assert expansion_mismatches(random.Random(33)) == []


def _top_exponent(poly, var):
    return max((e for mono in poly._terms for v, e in mono if v == var), default=0)


# (pairs, largest entry degree): the bound D = pairs * degree on every
# exponent is 1, 2, 3, 4, 7, 8, 15 or 16, one below a power of two or at it
PF_EDGES = ((1, 1), (1, 2), (3, 1), (2, 2), (1, 7), (2, 4), (4, 2), (3, 5), (5, 3), (4, 4))
# (size, largest entry degree) for determinants, with D = size * degree
DET_EDGES = ((3, 1), (2, 2), (4, 2), (3, 5), (5, 3), (4, 4))


@pytest.mark.parametrize("pairs, degree", PF_EDGES)
def test_pfaffians_reach_the_degree_bound(pairs, degree):
    # every entry has the term x1^degree, and the pfaffian of the all-ones
    # array is 1, so x1^(pairs * degree) survives; x2 sits in the next field
    two_n = 2 * pairs
    entries = {(i, j): x(1) ** degree + (i - j) * x(2) + Fraction(j, 2) for i, j in upper_pairs(two_n)}
    want = _check_pfaffian_routes(entries, two_n, (pairs, degree))
    assert _top_exponent(want, pos(1)) == pairs * degree


@pytest.mark.parametrize("size, degree", DET_EDGES)
def test_determinants_reach_the_degree_bound(size, degree):
    # the coefficient of x1^(size * degree) is det(J - I) = (size - 1)(-1)^(size - 1)
    # in the symmetric completion, and pf(ones)^2 = 1 in the skew one at even size
    entries = {(i, j): x(1) ** degree - i * x(2) + j * x(3) + j for i, j in upper_pairs(size)}
    _check_determinants(entries, size, (size, degree))
    for mode in (SYMMETRIC, SKEW) if size % 2 == 0 else (SYMMETRIC,):
        got = completed_determinant(size, mode, entries)
        assert _top_exponent(got, pos(1)) == size * degree, mode


def test_poly_routes_multiply_no_poly_monomials(monkeypatch):
    rng = random.Random(21)
    entries = {p: _entry(rng) for p in upper_pairs(6)} | {(1, 2): x(1) ** 2 - a(1, 2)}
    want_pf = pfaffian_sum(TriangularArray(6, SKEW, entries))
    want_det = {mode: cofactor_det(completed_rows(5, mode, entries)) for mode in (SYMMETRIC, SKEW)}
    small = {p: v for p, v in entries.items() if p[1] <= 5}

    def refuse(*args, **kwargs):
        raise AssertionError("a Poly was multiplied")

    products, mul = [], Poly.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for name in ("__rmul__", "__pow__"):
        monkeypatch.setattr(Poly, name, refuse)
    for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
        arr = TriangularArray(6, mode, entries)
        assert pfaffian_direct(arr) == want_pf
        assert all(hook(arr, s) == want_pf for s in range(1, 7))
        assert completed_determinant(5, mode, small) == want_det[mode]
    assert products == []
    # the skew determinant at even size is pf^2: one product, which
    # `Poly.__mul__` runs on packed monomials
    assert completed_determinant(6, SKEW, entries) == mul(want_pf, want_pf)
    assert len(products) == 1


@pytest.mark.parametrize("mode, size", [(SYMMETRIC, 5), (SKEW, 6)], ids=[SYMMETRIC, SKEW])
def test_determinants_pack_each_entry_once(monkeypatch, mode, size):
    # the embedding of a symmetric matrix holds each v in both halves, and a
    # skew one of even size is pf^2, whose pfaffian packs its own entries:
    # each v is handed to `_packing` once (an odd skew size expands nothing)
    handed, packing = [], pfaffian._packing

    def counting(values, factors):
        values = list(values)
        handed.append(values)
        return packing(values, factors)

    monkeypatch.setattr(pfaffian, "_packing", counting)
    entries = {(i, j): a(i, j) for i, j in upper_pairs(size)}
    got = completed_determinant(size, mode, entries)
    assert got == cofactor_det(completed_rows(size, mode, entries))
    [values] = handed
    if mode == SYMMETRIC:
        # the ten generators, and the zero of the embedding's zero blocks
        assert sum(isinstance(v, Poly) for v in values) == 10 and len(values) == 11
    else:
        # the fifteen generators
        assert len(values) == 15 and all(isinstance(v, Poly) for v in values)


@pytest.mark.parametrize("mode, hook", [(SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)])
def test_hooks_pack_each_entry_once(monkeypatch, mode, hook):
    # the signs of hook row s come from the order, as negated packed values
    # that `_expand` adds after packing, not as new -v objects
    handed, packing = [], pfaffian._packing

    def counting(values, factors):
        values = list(values)
        handed.append(values)
        return packing(values, factors)

    monkeypatch.setattr(pfaffian, "_packing", counting)
    arr = TriangularArray.from_function(6, mode, a)
    want = pfaffian_sum(arr)
    # every hook, then the pfaffian, which is the hook along 1
    for s in [*range(1, 7), None]:
        handed.clear()
        assert (pfaffian_direct(arr) if s is None else hook(arr, s)) == want, s
        [values] = handed
        # the fifteen generators, each once
        assert len(values) == 15 and all(isinstance(v, Poly) for v in values), (s, len(values))
