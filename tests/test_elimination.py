"""Pivoted skew elimination and the routes `_pfaffian` picks, against their oracles.

Exact elimination and the exact routes must equal the matching sum
`pfaffian_sum` bit for bit, the float route must agree with the
matching-sum double kernel, and both must satisfy the pfaffian's
identities at sizes past the enumeration cap: relabeling, the direct
sum, pf(B^T A B) = det B pf A and linearity in one hook.  Each domain and
size runs one kernel: floats `_pf_eliminate`, ints and Fractions
`_pf_fraction_free` at every 2n, Poly arrays the memo, which must equal
the matching sum too.  Symmetric determinants of numbers come from
`_bareiss_det`, which must equal the cofactor expansion where it is
affordable and the pfaffian of the skew embedding, by `_pf_eliminate` in
Fractions, past it.  Every pfaffian and determinant route returns its
result in the scalar domain of the entries, and refuses a boolean entry
and a float entry that is +-inf or nan.  A float hook is the float
elimination of the array relabeled to put s first, bit for bit, and
Decimal entries, another ring, give Decimal results equal to the
Fraction routes.
"""
import copy
import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from conftest import random_fraction
from pf_oracles import cofactor_det, completed_rows, hook_sum, pfaffian_sum
from pfsym import backend
from pfsym import matchings
from pfsym import pfaffian
from pfsym.models import COSINE, SQUARE_DIFF, kernel_array, position_polys
from pfsym.pfaffian import (
    MODES,
    SKEW,
    SYMMETRIC,
    TriangularArray,
    completed_determinant,
    determinant,
    generic_pfaffian,
    hook_expand_skew,
    hook_expand_symmetric,
    pfaffian_direct,
    upper_pairs,
)
from pfsym.permutations import Permutation
from pfsym.polyring import Poly, a, x


def _array(two_n, mode, fill):
    return TriangularArray(two_n, mode, {(i, j): fill(i, j) for i, j in upper_pairs(two_n)})


def _int(rng):
    return rng.randint(-9, 9)


def _exact_cases(rng, two_n, mode):
    """Random int and Fraction arrays, plus the shapes that stress pivoting."""
    ints = _array(two_n, mode, lambda i, j: rng.randint(-9, 9))
    fracs = _array(two_n, mode, lambda i, j: random_fraction(rng))
    cases = [ints, fracs]
    if two_n >= 2:
        # a zero first pivot forces a row/column swap
        swap = dict(fracs.entries)
        swap[(1, 2)] = Fraction(0)
        cases.append(TriangularArray(two_n, mode, swap))
        # a sparse int array needs swaps at later steps too
        cases.append(_array(two_n, mode, lambda i, j: rng.choice((0, 0, 0, 1, -2))))
        # index 2 meets only zeros: the pfaffian vanishes
        cases.append(_array(two_n, mode, lambda i, j: 0 if 2 in (i, j) else rng.randint(-5, 5)))
    if two_n >= 4:
        # a_ij = x_i y_j - x_j y_i has rank 2, so its pfaffian vanishes
        xs = [random_fraction(rng) for _ in range(two_n)]
        ys = [random_fraction(rng) for _ in range(two_n)]
        cases.append(_array(two_n, mode, lambda i, j: xs[i - 1] * ys[j - 1] - xs[j - 1] * ys[i - 1]))
    return cases


def _eliminated(arr):
    """`_pf_eliminate` in Fractions of the array: the route independent of `pfaffian_direct`."""
    return pfaffian._pf_eliminate(arr.entries, tuple(range(1, arr.two_n + 1)), Fraction)


def test_exact_elimination_equals_matching_sum(rng):
    for two_n in range(0, 11, 2):
        for mode in MODES:
            for arr in _exact_cases(rng, two_n, mode):
                got = pfaffian_direct(arr)
                want = pfaffian_sum(arr)
                assert got == want == _eliminated(arr), (two_n, mode, arr.entries)
                assert type(got) is type(want), (two_n, mode, type(got), type(want))


def test_exact_elimination_with_large_distinct_denominators(rng):
    def big():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    for two_n in range(2, 11, 2):
        arr = _array(two_n, SKEW, lambda i, j: big())
        assert pfaffian_direct(arr) == pfaffian_sum(arr) == _eliminated(arr), two_n


def test_singular_and_zero_row_arrays_vanish(rng):
    for two_n in (4, 6, 8):
        for arr in _exact_cases(rng, two_n, SKEW)[-2:]:
            assert pfaffian_direct(arr) == 0 == _eliminated(arr)


def test_float_elimination_matches_double_kernel(rng):
    for two_n in range(2, 15, 2):
        for mode in MODES:
            arrays = [_array(two_n, mode, lambda i, j: rng.uniform(-2.0, 2.0))]
            arrays += [
                TriangularArray(two_n, mode, {p: float(v) for p, v in arr.entries.items()})
                for arr in _exact_cases(rng, two_n, mode)[2:]
            ]
            if two_n > 12:
                arrays = arrays[:1]  # the double kernel sums 135135 matchings at 2n = 14
            for arr in arrays:
                packed = [arr.entries[p] for p in upper_pairs(two_n)]
                got = pfaffian_direct(arr)
                assert isinstance(got, float)
                want = backend.pf_double(two_n, packed)
                assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10), (two_n, mode, got, want)


def _relabel(arr, images):
    """The skew array of P^T A P, where A is the skew completion of arr."""
    def entry(i, j):
        u, v = images[i - 1], images[j - 1]
        return arr.entries[(u, v)] if u < v else -arr.entries[(v, u)]

    return _array(arr.two_n, SKEW, entry)


def test_permutation_identity_past_the_enumeration_cap(rng):
    for two_n in range(12, 21, 2):
        arr = _array(two_n, SKEW, lambda i, j: random_fraction(rng))
        pf = pfaffian_direct(arr)
        for _ in range(2):
            images = list(range(1, two_n + 1))
            rng.shuffle(images)
            moved = pfaffian_direct(_relabel(arr, images))
            assert moved == Permutation(images).sign * pf, two_n


# domain -> (entry fill, the 2n it is relabeled at)
RELABEL_DOMAINS = {
    "int": (_int, range(0, 31, 2)),
    "Fraction": (random_fraction, range(0, 31, 2)),
    "float": (lambda rng: rng.uniform(-1, 1), range(0, 21, 2)),
    "Poly": (lambda rng: rng.randint(1, 3) * x(rng.randint(1, 4)) + rng.randint(-2, 2), range(0, 9, 2)),
    "Decimal": (lambda rng: Decimal(rng.randint(-99, 99)).scaleb(-1), range(0, 9, 2)),
}


def relabel_mismatches(rng):
    """The (domain, 2n) of each random order `live`, three per array, at
    which `_pfaffian(entries, live, domain)`, the pfaffian of the skew
    completion relabeled on `live`, is not sgn(live) `pfaffian_direct`:
    exactly in every domain but floats, which agree to a relative
    tolerance."""
    bad = []
    for name, (fill, sizes) in RELABEL_DOMAINS.items():
        for two_n in sizes:
            arr = _array(two_n, SKEW, lambda i, j: fill(rng))
            want = pfaffian_direct(arr)
            for _ in range(3):
                live = rng.sample(range(1, two_n + 1), two_n)
                got = pfaffian._pfaffian(arr.entries, tuple(live), pfaffian._domain(arr.entries))
                moved = Permutation(live).sign * want
                if type(got) is not type(want) or not (
                    math.isclose(got, moved, rel_tol=1e-9, abs_tol=1e-12) if name == "float" else got == moved
                ):
                    bad.append((name, two_n))
    return bad


def changed_entries(rng):
    """The (domain, route) of each pfaffian, hook or determinant route that
    leaves `arr.entries` different from what it was, at 2n = 4 and 6."""
    bad = []
    for name, (fill, _) in RELABEL_DOMAINS.items():
        for two_n in (4, 6):
            values = {p: fill(rng) for p in upper_pairs(two_n)}
            for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
                arr = TriangularArray(two_n, mode, values)
                routes = {"pfaffian_direct": pfaffian_direct, "determinant": determinant}
                routes |= {f"hook {s}": lambda arr, s=s: hook(arr, s) for s in range(1, two_n + 1)}
                routes["relabeled"] = lambda arr: pfaffian._pfaffian(
                    arr.entries, tuple(rng.sample(range(1, two_n + 1), two_n)), pfaffian._domain(arr.entries)
                )
                for route, evaluate in routes.items():
                    before = copy.deepcopy(arr.entries)
                    evaluate(arr)
                    if arr.entries != before:
                        bad.append((name, mode, route))
    return bad


def shared_value_mismatches(rng):
    """The (domain, route) of each hook, of both modes, and each random
    relabeling whose value is not the matching sum (times sgn(live) for a
    relabeling), on arrays at 2n = 4 and 6 whose entries are three objects
    of a domain that `_expand` runs, each placed at many positions:
    `_expand` packs each object into one dict, read at every one of them,
    in its sign there."""
    bad = []
    for name in ("Poly", "Decimal"):
        fill = RELABEL_DOMAINS[name][0]
        for two_n in (4, 6):
            pool = [fill(rng) for _ in range(3)]
            values = {p: rng.choice(pool) for p in upper_pairs(two_n)}
            want = pfaffian_sum(TriangularArray(two_n, SKEW, values))
            for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
                arr = TriangularArray(two_n, mode, values)
                for s in range(1, two_n + 1):
                    if hook(arr, s) != want:
                        bad.append((name, f"{mode} hook {s}"))
            for _ in range(3):
                live = tuple(rng.sample(range(1, two_n + 1), two_n))
                if pfaffian._pfaffian(values, live, pfaffian._domain(values)) != Permutation(live).sign * want:
                    bad.append((name, f"relabeled on {live}"))
    return bad


def test_any_order_relabels_by_its_sign():
    # pf(P^T A P) = det P pf A: the contract every relabeling caller relies
    # on, at random orders and not only the hook orders; and no route
    # writes into the caller's entries
    assert relabel_mismatches(random.Random(30)) == []
    assert changed_entries(random.Random(31)) == []


def test_a_value_at_many_positions_keeps_the_sign_of_each():
    # one packed dict per value: a pair that `live` reverses reads it negated,
    # and every other position of the value still reads it as it is
    assert shared_value_mismatches(random.Random(32)) == []


@pytest.mark.parametrize("fill", [_int, random_fraction], ids=["int", "Fraction"])
def test_congruence_identity_past_the_enumeration_cap(rng, fill):
    # pf(B^T A B) = det B pf A for B = L D, L unit lower-triangular and D
    # diagonal, so det B is the product of the diagonal of D.  B is
    # integral, and B^T A B is computed as B^T (qA) B / q in ints, with q
    # the lcm of the denominators of A
    for two_n in (16, 22, 30, 40):
        arr = _array(two_n, SKEW, lambda i, j: fill(rng))
        diagonal = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(two_n)]
        b = [[_int(rng) if j < i else int(i == j) for j in range(two_n)] for i in range(two_n)]
        b = [[x * diagonal[j] for j, x in enumerate(row)] for row in b]
        q = math.lcm(*(v.denominator for v in arr.entries.values()))
        a = [[int(x * q) for x in row] for row in completed_rows(two_n, SKEW, arr.entries)]
        ab = [[sum(a[k][l] * b[l][j] for l in range(two_n)) for j in range(two_n)] for k in range(two_n)]

        def entry(i, j):
            total = sum(b[k][i - 1] * ab[k][j - 1] for k in range(two_n))
            return total if fill is _int else Fraction(total, q)

        congruent = _array(two_n, SKEW, entry)
        got = pfaffian_direct(congruent)
        assert got == math.prod(diagonal) * pfaffian_direct(arr), two_n
        assert type(got) is type(pfaffian_direct(arr)) is (int if fill is _int else Fraction), two_n


@pytest.mark.parametrize("fill", [_int, random_fraction], ids=["int", "Fraction"])
def test_pfaffian_is_linear_in_one_hook(rng, fill):
    # arrays that differ only in hook s (row and column s): the pfaffian of
    # x h + y h' is x pf(h) + y pf(h'), by pfaffian_direct and by a hook rule
    for two_n in (16, 22, 30, 40):
        s = rng.randint(1, two_n)
        base = _array(two_n, SKEW, lambda i, j: fill(rng))
        hooks = [{p: fill(rng) for p in base.entries if s in p} for _ in range(2)]
        x, y = fill(rng), fill(rng)
        combined = {p: x * hooks[0][p] + y * hooks[1][p] for p in hooks[0]}
        arrays = [TriangularArray(two_n, SKEW, base.entries | h) for h in (*hooks, combined)]
        t = rng.randint(1, two_n)
        for route in (pfaffian_direct, lambda arr: hook_expand_skew(arr, t)):
            first, second, both = map(route, arrays)
            assert both == x * first + y * second, (two_n, s, t)


# (2a, 2c) block sizes of the direct sums
DIRECT_SUM_BLOCKS = ((6, 8), (8, 8), (8, 10), (10, 10), (12, 12), (12, 10))


def direct_sum_mismatches(rng, blocks=DIRECT_SUM_BLOCKS):
    """The sizes 2n at which pf(M) != sgn(pi) pf A pf C, for M holding the
    random Fraction arrays A on the labels `la` and C on the labels `lc`,
    and pi the one-line permutation la + lc.

    1 is in `la` and 2 in `lc`, so the entry (1, 2) of M is 0 and the
    elimination must swap a pivot.  The right side takes pf A and pf C from
    `_pf_eliminate` in Fractions, so it shares no kernel with the left.
    """
    bad = []
    for size_a, size_c in blocks:
        arrays = [_array(size, SKEW, lambda i, j: random_fraction(rng)) for size in (size_a, size_c)]
        rest = list(range(3, size_a + size_c + 1))
        rng.shuffle(rest)
        la = sorted([1, *rest[: size_a - 1]])
        lc = sorted([2, *rest[size_a - 1 :]])
        entries = dict.fromkeys(upper_pairs(size_a + size_c), Fraction(0))
        for block, labels in zip(arrays, (la, lc)):
            for u, v in upper_pairs(len(labels)):
                entries[(labels[u - 1], labels[v - 1])] = block.entries[(u, v)]
        want = Permutation(la + lc).sign * _eliminated(arrays[0]) * _eliminated(arrays[1])
        if pfaffian_direct(TriangularArray(size_a + size_c, SKEW, entries)) != want:
            bad.append(size_a + size_c)
    return bad


def test_direct_sum_with_interleaved_labels():
    assert direct_sum_mismatches(random.Random(3)) == []


def test_cosine_pfaffian_at_large_orders(rng):
    for two_n in (18, 32, 64):
        xs = [rng.uniform(-math.pi, math.pi) for _ in range(two_n)]
        alternating = sum(v if k % 2 == 0 else -v for k, v in enumerate(xs))
        got = pfaffian_direct(kernel_array(COSINE, xs))
        assert abs(got - math.cos(alternating)) <= 1e-10, two_n


def test_squared_difference_closed_form_at_order_32():
    n = 16
    arr = kernel_array(SQUARE_DIFF, [Fraction(i) for i in range(1, 2 * n + 1)])
    assert pfaffian_direct(arr) == (-2) ** (n - 1) * (2 * n - 1)


class Double(float):
    pass


# entries (i, j) of a 4-point array in each scalar domain
DOMAINS = {
    "int": lambda i, j: i + j,
    "Fraction": lambda i, j: Fraction(i, j + 1),
    "float": lambda i, j: i / j,
    "float subclass": lambda i, j: Double(i / j),
    "Poly": a,
    "Poly and ints": lambda i, j: a(i, j) if (i + j) % 2 else i * j,
    "zero Polys": lambda i, j: Poly.zero(),
    "a zero Poly and ints": lambda i, j: Poly.zero() if (i, j) == (1, 2) else i * j,
    # a zero row ends the elimination on a zero pivot: 0.0, and -0.0 at an even hook
    "float, row 2 zero": lambda i, j: 0.0 if 2 in (i, j) else i / j,
    "float, row 2 exact zeros": lambda i, j: 0 if 2 in (i, j) else i / j,
    "float, row 2 negative zero": lambda i, j: -0.0 if 2 in (i, j) else -i / j,
    "float, row 1 zero": lambda i, j: 0.0 if i == 1 else (-1.0) ** (i + j),
    "float, column 4 exact zeros": lambda i, j: 0 if j == 4 else (-1.0) ** (i + j + 1),
}

DET_TYPES = {name: float for name in DOMAINS if name.startswith("float")} | {"int": Fraction, "Fraction": Fraction}


def _bits(value):
    """A float with the sign of zero made visible; any other value as it is."""
    return (value, math.copysign(1.0, value)) if isinstance(value, float) else value


def _relabeled_hook(arr, s):
    """(-1)^(s-1) times `pfaffian_direct` of the skew completion of `arr`
    relabeled on (s, 1..s-1, s+1..2n): what hook s must equal."""
    live = [s, *range(1, s), *range(s + 1, arr.two_n + 1)]
    return (-1) ** (s - 1) * pfaffian_direct(_relabel(arr, live))


def test_result_type_follows_the_domain():
    ints = _array(4, SKEW, lambda i, j: i + j)
    got = pfaffian_direct(ints)
    assert type(got) is int and got == pfaffian_sum(ints)
    mixed = TriangularArray(4, SKEW, dict(ints.entries) | {(1, 2): Fraction(1, 2)})
    assert type(pfaffian_direct(mixed)) is Fraction
    floats = TriangularArray(4, SKEW, dict(ints.entries) | {(1, 2): 0.5})
    assert type(pfaffian_direct(floats)) is float
    singular = _array(4, SKEW, lambda i, j: 0.0)
    assert pfaffian_direct(singular) == 0.0 and type(pfaffian_direct(singular)) is float
    assert pfaffian_direct(_array(4, SKEW, lambda i, j: 0)) == 0
    assert type(pfaffian_direct(_array(4, SKEW, lambda i, j: 0))) is int
    # every route in every domain: pfaffians take the type of the matching
    # sum, determinants are Fractions for exact numbers
    for name, fill in DOMAINS.items():
        for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
            arr = _array(4, mode, fill)
            want = type(pfaffian_sum(arr))
            assert type(pfaffian_direct(arr)) is want, (name, mode)
            for s in range(1, 5):
                # the hook rule's own sum; a float hook is the very float of the
                # elimination of the relabeled array, the sign of zero included
                got = hook(arr, s)
                assert type(got) is want, (name, mode, s)
                if want is float:
                    assert _bits(got) == _bits(_relabeled_hook(arr, s)), (name, mode, s)
                    assert math.isclose(got, hook_sum(arr, s), rel_tol=1e-12, abs_tol=1e-12), (name, mode, s)
                else:
                    assert got == hook_sum(arr, s), (name, mode, s)
            det_type = DET_TYPES.get(name, Poly)
            assert type(determinant(arr)) is det_type, (name, mode)
            entries = {p: v for p, v in arr.entries.items() if p[1] <= 3}
            assert type(completed_determinant(3, mode, entries)) is det_type, (name, mode)
    for mode in (SYMMETRIC, SKEW):
        assert type(completed_determinant(1, mode, {})) is Fraction


def test_float_hooks_are_the_elimination_of_the_relabeled_array(rng):
    # float, Fraction, int and exact zero entries mixed: every hook is the
    # very float of float elimination of the relabeled array, the sign of
    # zero included, and equals the rule's own sum to rounding
    def entry(i, j):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.uniform(-2, 2)
        if kind == 1:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        if kind == 2:
            return rng.randint(1, 9)
        return rng.choice((0, Fraction(0)))

    for two_n, count in ((4, 300), (6, 60), (8, 20)):
        for _ in range(count):
            arr = _array(two_n, rng.choice((SYMMETRIC, SKEW)), entry)
            hook = hook_expand_symmetric if arr.mode == SYMMETRIC else hook_expand_skew
            if any(isinstance(v, float) for v in arr.entries.values()):
                want = pfaffian_sum(arr)
                for s in range(1, two_n + 1):
                    got = hook(arr, s)
                    assert _bits(got) == _bits(_relabeled_hook(arr, s)), (arr.entries, s)
                    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (arr.entries, s)


def test_other_ring_routes_match_fractions(rng):
    # Decimal entries take the other-ring routes: the memoized expansion of
    # `_pfaffian`, for the pfaffian and every hook, and for the determinant
    # its square in the skew mode and the expansion of the skew embedding in
    # the symmetric one; each result must be a Decimal equal to the Fraction
    # route, also when row 1 holds only int zeros and the expansion meets no
    # Decimal along it, and when the one Decimal entry is a zero, so that
    # every term the expansion meets is a product of ints
    for two_n in (4, 6):
        for case in range(6):
            values = {p: Decimal(rng.randint(-99, 99)).scaleb(-1) for p in upper_pairs(two_n)}
            if case == 0:
                values |= {p: Decimal(0) for p in values if 2 in p}
            if case == 4:
                values |= {p: 0 for p in values if p[0] == 1}
            if case == 5:
                values = {p: rng.randint(1, 9) for p in values} | {(1, 2): Decimal(0)}
            for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
                routes = [pfaffian_direct, determinant] + [lambda arr, s=s: hook(arr, s) for s in range(1, two_n + 1)]
                got = [route(TriangularArray(two_n, mode, values)) for route in routes]
                want = [route(TriangularArray(two_n, mode, {p: Fraction(v) for p, v in values.items()})) for route in routes]
                assert all(type(v) is Decimal for v in got), (two_n, mode, got)
                assert [Fraction(v) for v in got] == want, (two_n, mode)


ROUTES = {
    "pfaffian_direct": lambda entries: pfaffian_direct(TriangularArray(4, SKEW, entries)),
    "hook_expand_symmetric": lambda entries: hook_expand_symmetric(TriangularArray(4, SYMMETRIC, entries), 1),
    "hook_expand_skew": lambda entries: hook_expand_skew(TriangularArray(4, SKEW, entries), 1),
    "completed_determinant": lambda entries: completed_determinant(4, SYMMETRIC, entries),
    "determinant": lambda entries: determinant(TriangularArray(4, SKEW, entries)),
}


@pytest.mark.parametrize("route", ROUTES)
def test_boolean_entry_is_refused(route):
    evaluate = ROUTES[route]
    with pytest.raises(ValueError, match=r"^entry '1,2': bad scalar True$"):
        evaluate({p: True for p in upper_pairs(4)})
    for fill in (lambda i, j: i * j, a):
        entries = {p: fill(*p) for p in upper_pairs(4)} | {(2, 4): False, (1, 3): True}
        with pytest.raises(ValueError, match=r"^entry '1,3': bad scalar True$"):
            evaluate(entries)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_float_entry_is_refused(route, bad):
    evaluate = ROUTES[route]
    message = rf"^entry '2,4': bad scalar {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        evaluate({(i, j): i / j for i, j in upper_pairs(4)} | {(2, 4): bad, (3, 4): bad})
    # pf = a12 a34 - a13 a24 + a14 a23 with a12 = 0: hook 1 never reads a34,
    # and elimination that starts on a zero row returns 0 before it reads one
    hidden = {(1, 2): 0.0, (1, 3): 1.0, (1, 4): 0.0, (2, 3): 0.0, (2, 4): bad, (3, 4): bad}
    with pytest.raises(ValueError, match=message):
        evaluate(hidden)
    with pytest.raises(ValueError, match=message):
        evaluate(hidden | {(1, 3): 0.0})


def test_finite_float_pfaffians_scan_no_entry(monkeypatch, rng):
    def refuse(entries):
        raise AssertionError("entries scanned")

    monkeypatch.setattr(pfaffian, "_refuse_non_finite", refuse)
    for two_n in (2, 8, 14):
        assert math.isfinite(pfaffian_direct(_array(two_n, SKEW, lambda i, j: rng.uniform(-1, 1))))


def _refuse_matchings(*args, **kwargs):
    raise AssertionError("perfect matchings enumerated")


def test_elimination_enumerates_no_matchings_and_ignores_the_cap(monkeypatch, rng):
    monkeypatch.setattr(matchings, "_matchings", _refuse_matchings)
    for two_n in (6, 18):
        assert isinstance(pfaffian_direct(_array(two_n, SKEW, lambda i, j: rng.uniform(-1, 1))), float)
        assert isinstance(pfaffian_direct(_array(two_n, SKEW, lambda i, j: Double(rng.uniform(-1, 1)))), float)
        assert isinstance(pfaffian_direct(_array(two_n, SKEW, lambda i, j: random_fraction(rng))), Fraction)


KERNELS = ("_pf_fraction_free", "_pf_eliminate", "_subset_pf", "_bareiss_det")


def _counted_kernels(monkeypatch):
    """Count the calls of each kernel, recursion included."""
    calls = dict.fromkeys(KERNELS, 0)
    for name in calls:
        def counted(*args, name=name, kernel=getattr(pfaffian, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(pfaffian, name, counted)
    return calls


# (domain, fill, 2n, the kernel `_pfaffian` must pick)
KERNEL_ROUTES = [
    *((domain, fill, two_n, "_pf_fraction_free") for domain, fill in (("int", _int), ("Fraction", random_fraction))
      for two_n in (0, 2, 4, 12, 14, 40)),
    ("float", lambda rng: rng.uniform(-1, 1), 4, "_pf_eliminate"),
    ("float", lambda rng: rng.uniform(-1, 1), 14, "_pf_eliminate"),
    ("Poly", lambda rng: a(1, 2) + rng.randint(-2, 2), 6, "_subset_pf"),
]


@pytest.mark.parametrize(
    "domain, fill, two_n, kernel", KERNEL_ROUTES, ids=[f"{d}-{two_n}" for d, _, two_n, _ in KERNEL_ROUTES]
)
def test_each_domain_and_size_runs_one_kernel(monkeypatch, rng, domain, fill, two_n, kernel):
    # pfaffian_direct and both hook rules along 1, n + 1 and 2n (every s at
    # 2n <= 4) run `kernel` and no other.  A determinant of numbers is
    # exact: a skew one is pf^2 by `_pf_fraction_free`, floats included, and
    # a symmetric one runs `_bareiss_det` alone; a Poly one runs the memo
    calls = _counted_kernels(monkeypatch)
    hooks = (1, two_n // 2 + 1, two_n) if two_n > 4 else range(1, two_n + 1)
    for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
        arr = _array(two_n, mode, lambda i, j: fill(rng))
        routes = [(pfaffian_direct, kernel)] + [(lambda arr, s=s: hook(arr, s), kernel) for s in hooks]
        if two_n:
            if domain == "Poly":
                routes.append((determinant, "_subset_pf"))
            else:
                routes.append((determinant, "_bareiss_det" if mode == SYMMETRIC else "_pf_fraction_free"))
        for route, want in routes:
            calls.update(dict.fromkeys(calls, 0))
            route(arr)
            assert calls[want] > 0 and sum(calls.values()) == calls[want], (mode, want, calls)


def test_poly_arrays_keep_the_enumeration_cap():
    with pytest.raises(ValueError, match="memoized-expansion cap 16"):
        pfaffian_direct(_array(18, SKEW, a))


def _cycle(two_n):
    """The cycle 1, 2, ..., 2n, 1 weighted by generators: a(i, i+1) and a(1, 2n), zero elsewhere."""
    return _array(two_n, SKEW, lambda i, j: a(i, j) if j == i + 1 or (i, j) == (1, two_n) else 0)


def test_poly_arrays_expand_at_the_cap():
    # EXPAND_CAP is the largest 2n expanded, not a bound below it: the
    # sparse cycle at 2n = 16 has two matchings, both of sign +1, and at 18
    # it is refused
    odd = even = Poly.const(1)
    for k in range(1, 9):
        odd = odd * a(2 * k - 1, 2 * k)
    for k in range(1, 8):
        even = even * a(2 * k, 2 * k + 1)
    assert pfaffian_direct(_cycle(16)) == odd + a(1, 16) * even
    with pytest.raises(ValueError, match="^two_n=18 exceeds the memoized-expansion cap 16$"):
        pfaffian_direct(_cycle(18))


def _refuse_expansion(*args):
    raise AssertionError("the refusal must come before any expansion")


@pytest.mark.parametrize("mode, expand", [(SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)])
def test_poly_hooks_keep_the_expansion_cap(monkeypatch, mode, expand):
    # an int hook takes no cap: a zero array at 2n = 18 expands at once
    assert expand(_array(18, mode, lambda i, j: 0), 1) == 0
    monkeypatch.setattr(pfaffian, "_expand", _refuse_expansion)
    with pytest.raises(ValueError, match="^two_n=18 exceeds the memoized-expansion cap 16$"):
        expand(_array(18, mode, a), 1)


@pytest.mark.parametrize("mode", [SYMMETRIC, SKEW])
def test_float_determinant_overflow_names_its_exponent(rng, mode):
    # entries k + 1/2 with k near 10^15 keep the denominator 2^22 in the
    # exact determinant, so the exponent in the message must take the
    # logarithm of the denominator off; Decimal digits of the exact value
    # are the independent measure
    size = 22
    entries = {p: rng.randint(10**15, 2 * 10**15) + 0.5 for p in upper_pairs(size)}
    exact = completed_determinant(size, mode, {p: Fraction(v) for p, v in entries.items()})
    assert exact.denominator > 1
    with localcontext() as context:
        context.prec = 50
        e = round((Decimal(abs(exact.numerator)) / exact.denominator).log10())
    with pytest.raises(ValueError, match=re.escape(f"(|det| is about 10^{e})")):
        completed_determinant(size, mode, entries)


def _poly_cases(two_n, mode):
    """The generic array a(i,j) and the square-difference kernel (x_i - x_j)^2."""
    xs = position_polys(two_n)
    return [_array(two_n, mode, a), _array(two_n, mode, lambda i, j: SQUARE_DIFF.value(xs[i - 1], xs[j - 1]))]


def test_poly_route_equals_matching_sum():
    for two_n in range(2, 9, 2):
        for mode in MODES:
            for arr in _poly_cases(two_n, mode):
                got = pfaffian_direct(arr)
                assert isinstance(got, Poly)
                assert got == pfaffian_sum(arr), (two_n, mode)


def test_poly_route_enumerates_no_matchings(monkeypatch):
    want = {two_n: [pfaffian_sum(arr) for arr in _poly_cases(two_n, SKEW)] for two_n in (4, 8)}
    monkeypatch.setattr(matchings, "_matchings", _refuse_matchings)
    for two_n, values in want.items():
        assert [pfaffian_direct(arr) for arr in _poly_cases(two_n, SKEW)] == values
        assert generic_pfaffian(two_n) == values[0]  # the pfaffian of the array a(i,j)


def _big_fraction(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6))


def sym_det_cases(rng, size, scalar=random_fraction):
    """Symmetric upper entries of `size` whose zeros move the pivots.

    The diagonal is zero, so Bareiss elimination swaps rows at its first
    step; the zeros placed below make it swap at later steps too, or find
    no pivot at all.
    """
    pairs = list(upper_pairs(size))

    def fill(value):
        return {(i, j): value(i, j) for i, j in pairs}

    full = fill(lambda i, j: scalar(rng))
    cases = [
        full,
        # small ints, mostly zero: swaps at later steps
        fill(lambda i, j: rng.choice((0, 0, 0, 1, -2))),
        # a zero first row: no pivot in column 1, the determinant is 0
        fill(lambda i, j: 0 if i == 1 else scalar(rng)),
        # a(1,2) = 0: the first pivot row is not row 2
        full | {(1, 2): 0},
        # a(2,3) = 0: a zero next to the leading 2x2 block
        full | {(2, 3): 0},
        # rows 1 and 2 with disjoint supports past index 2
        fill(lambda i, j: 0 if i in (1, 2) and j > 2 and (i + j) % 2 else scalar(rng)),
    ]
    # squared differences at integer points: rank <= 3, so det = 0 at size >= 4
    xs = rng.sample(range(-30, 30), size)
    cases.append(fill(lambda i, j: (xs[i - 1] - xs[j - 1]) ** 2))
    # below size 3 the pinned zeros name pairs that do not exist
    return [{p: v for p, v in case.items() if p in full} for case in cases]


def sym_det_mismatches(rng, sizes, oracle, scalar=random_fraction):
    """The (size, case number) of each case where the symmetric
    `completed_determinant` differs from `oracle(rows)`."""
    bad = []
    for size in sizes:
        for k, entries in enumerate(sym_det_cases(rng, size, scalar)):
            got = completed_determinant(size, SYMMETRIC, entries)
            assert type(got) is Fraction
            if got != oracle(completed_rows(size, SYMMETRIC, {p: Fraction(v) for p, v in entries.items()})):
                bad.append((size, k))
    return bad


def embedded_det(rows):
    """det M = (-1)^(m(m-1)/2) pf [[0, M], [-M^T, 0]] for M of size m, with
    the pfaffian by `_pf_eliminate` in Fractions, which shares no code with
    `_bareiss_det`."""
    m = len(rows)
    entries = dict.fromkeys(upper_pairs(2 * m), Fraction(0))
    for i, row in enumerate(rows, 1):
        for j, v in enumerate(row, m + 1):
            entries[(i, j)] = v
    pf = pfaffian._pf_eliminate(entries, tuple(range(1, 2 * m + 1)), Fraction)
    return -pf if m * (m - 1) // 2 % 2 else pf


def test_embedded_det_is_the_cofactor_expansion(rng):
    for size in range(1, 6):
        rows = [[random_fraction(rng) for _ in range(size)] for _ in range(size)]
        assert embedded_det(rows) == cofactor_det(rows), size


@pytest.mark.parametrize("scalar", [random_fraction, _big_fraction], ids=["den<=9", "den 6 digits"])
def test_sym_det_matches_the_cofactor_oracle(rng, scalar):
    assert sym_det_mismatches(rng, range(1, 8), cofactor_det, scalar) == []


def test_sym_det_matches_the_embedded_pfaffian_past_the_cofactor_oracle(rng):
    assert sym_det_mismatches(rng, (8, 9, 12, 17, 23, 30), embedded_det) == []
    assert sym_det_mismatches(rng, (8, 11, 14), embedded_det, _big_fraction) == []


def test_squared_difference_determinants_vanish_from_size_four():
    for size in range(1, 41):
        entries = {(i, j): (i - j) ** 2 for i, j in upper_pairs(size)}
        want = cofactor_det(completed_rows(size, SYMMETRIC, entries)) if size <= 7 else 0
        assert completed_determinant(size, SYMMETRIC, entries) == want, size
        assert (want == 0) == (size == 1 or size >= 4), size
