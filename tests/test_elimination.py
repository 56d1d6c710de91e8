"""Pivoted skew elimination and the routes `_pfaffian` picks, against their oracles.

Exact elimination and the exact routes must equal the matching sum
`pfaffian_sum` bit for bit, the float route must agree with the
matching-sum double kernel, and both must satisfy the pfaffian's
identities at sizes past the enumeration cap.  Each domain and size runs
one kernel: floats elimination, ints and Fractions the memo up to
MEMO_MAX and elimination above it, Poly arrays the memo, which must equal
the matching sum too.  Symmetric determinants come from `_sym_det`, which must
equal the cofactor expansion where it is affordable and Bareiss elimination
past it.  Every pfaffian and determinant route returns its result in the
scalar domain of the entries, and refuses a boolean entry and a float
entry that is +-inf or nan.  A float hook is the float elimination of the
array relabeled to put s first, bit for bit, and Decimal entries, another
ring, give Decimal results equal to the Fraction routes.
"""
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import random_fraction
from pf_oracles import cofactor_det, completed_rows, hook_sum, pfaffian_sum
from pfsym import backend
from pfsym import matchings
from pfsym import pfaffian
from pfsym.models import COSINE, SQUARE_DIFF, kernel_array, position_polys
from pfsym.pfaffian import (
    MEMO_MAX,
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
from pfsym.polyring import Poly, a


def _array(two_n, mode, fill):
    return TriangularArray(two_n, mode, {(i, j): fill(i, j) for i, j in upper_pairs(two_n)})


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
    """`_pf_eliminate` in Fractions of the array, which `pfaffian_direct` runs only above MEMO_MAX."""
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


# (2a, 2c) block sizes: each block runs the memo, their direct sum elimination
DIRECT_SUM_BLOCKS = ((6, 8), (8, 8), (8, 10), (10, 10), (12, 12), (12, 10))


def direct_sum_mismatches(rng, blocks=DIRECT_SUM_BLOCKS):
    """The sizes 2n at which pf(M) != sgn(pi) pf A pf C, for M holding the
    random Fraction arrays A on the labels `la` and C on the labels `lc`,
    and pi the one-line permutation la + lc.

    1 is in `la` and 2 in `lc`, so the entry (1, 2) of M is 0 and Fraction
    elimination must swap a pivot.  Each block has 2n <= MEMO_MAX, so the
    right side runs the memo and shares no kernel with the left.
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
        want = Permutation(la + lc).sign * pfaffian_direct(arrays[0]) * pfaffian_direct(arrays[1])
        if pfaffian_direct(TriangularArray(size_a + size_c, SKEW, entries)) != want:
            bad.append(size_a + size_c)
    return bad


def test_direct_sum_past_the_memo_limit():
    assert max(max(blocks) for blocks in DIRECT_SUM_BLOCKS) <= MEMO_MAX < min(map(sum, DIRECT_SUM_BLOCKS))
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
    # `_pfaffian`, for the pfaffian and every hook, and the skew embedding of
    # the determinant; each result must be a Decimal equal to the Fraction
    # route, also when row 1 holds only int zeros and the expansion meets no
    # Decimal along it
    for two_n in (4, 6):
        for case in range(5):
            values = {p: Decimal(rng.randint(-99, 99)).scaleb(-1) for p in upper_pairs(two_n)}
            if case == 0:
                values |= {p: Decimal(0) for p in values if 2 in p}
            if case == 4:
                values |= {p: 0 for p in values if p[0] == 1}
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


def _counted_kernels(monkeypatch):
    """Count the calls of `_pf_eliminate` and `_subset_pf`, recursion included."""
    calls = dict.fromkeys(("_pf_eliminate", "_subset_pf"), 0)
    for name in calls:
        def counted(*args, name=name, kernel=getattr(pfaffian, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(pfaffian, name, counted)
    return calls


# (domain, fill, 2n, the kernel `_pfaffian` must pick) on both sides of MEMO_MAX
KERNEL_ROUTES = [
    ("int", lambda rng: rng.randint(-9, 9), MEMO_MAX, "_subset_pf"),
    ("int", lambda rng: rng.randint(-9, 9), MEMO_MAX + 2, "_pf_eliminate"),
    ("Fraction", random_fraction, MEMO_MAX, "_subset_pf"),
    ("Fraction", random_fraction, MEMO_MAX + 2, "_pf_eliminate"),
    ("float", lambda rng: rng.uniform(-1, 1), 4, "_pf_eliminate"),
    ("float", lambda rng: rng.uniform(-1, 1), MEMO_MAX + 2, "_pf_eliminate"),
    ("Poly", lambda rng: a(1, 2) + rng.randint(-2, 2), 6, "_subset_pf"),
]


@pytest.mark.parametrize(
    "domain, fill, two_n, kernel", KERNEL_ROUTES, ids=[f"{d}-{two_n}" for d, _, two_n, _ in KERNEL_ROUTES]
)
def test_each_domain_and_size_runs_one_kernel(monkeypatch, rng, domain, fill, two_n, kernel):
    # pfaffian_direct, both hook rules along 1, n + 1 and 2n (every s at
    # 2n = 4), and for ints and Fractions the skew determinant (pf^2) run
    # `kernel` and never the other one; a float determinant is exact, so it
    # takes the Fraction route
    calls = _counted_kernels(monkeypatch)
    hooks = (1, two_n // 2 + 1, two_n) if two_n > 4 else range(1, two_n + 1)
    for mode, hook in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
        arr = _array(two_n, mode, lambda i, j: fill(rng))
        routes = [pfaffian_direct] + [lambda arr, s=s: hook(arr, s) for s in hooks]
        if mode == SKEW and domain in ("int", "Fraction"):
            routes.append(determinant)
        for route in routes:
            calls.update(dict.fromkeys(calls, 0))
            route(arr)
            assert calls[kernel] > 0 and sum(calls.values()) == calls[kernel], (mode, calls)


def test_poly_arrays_keep_the_enumeration_cap():
    with pytest.raises(ValueError, match="memoized-expansion cap 16"):
        pfaffian_direct(_array(18, SKEW, a))


def _refuse_expansion(*args):
    raise AssertionError("the refusal must come before any expansion")


@pytest.mark.parametrize("mode, expand", [(SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)])
def test_poly_hooks_keep_the_expansion_cap(monkeypatch, mode, expand):
    # an int hook takes no cap: a zero array at 2n = 18 expands at once
    assert expand(_array(18, mode, lambda i, j: 0), 1) == 0
    monkeypatch.setattr(pfaffian, "_expand", _refuse_expansion)
    with pytest.raises(ValueError, match="^two_n=18 exceeds the memoized-expansion cap 16$"):
        expand(_array(18, mode, a), 1)


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
    """Symmetric upper entries of `size` that drive `_sym_det` down each pivot path.

    After a 2x2 pivot on indices 1, 2 the trailing diagonal entry of index i
    is -2 a(1,i) a(2,i) / a(1,2), so zeros in rows 1 and 2 place it.
    """
    pairs = list(upper_pairs(size))

    def fill(value):
        return {(i, j): value(i, j) for i, j in pairs}

    full = fill(lambda i, j: scalar(rng))
    cases = [
        full,
        # small ints, mostly zero: swaps and both pivot sizes at later steps
        fill(lambda i, j: rng.choice((0, 0, 0, 1, -2))),
        # a zero first row under the zero diagonal: the determinant is 0
        fill(lambda i, j: 0 if i == 1 else scalar(rng)),
        # a(1,2) = 0: the 2x2 pivot needs a swap into position 2
        full | {(1, 2): 0},
        # a(2,3) = 0: the 2x2 step leaves index 3 a zero diagonal, so the
        # 1x1 step that follows swaps index 4 to the front
        full | {(2, 3): 0},
        # rows 1 and 2 with disjoint supports: the 2x2 step leaves a second
        # all-zero diagonal, and another 2x2 step follows
        fill(lambda i, j: 0 if i in (1, 2) and j > 2 and (i + j) % 2 else scalar(rng)),
    ]
    # squared differences at integer points: rank <= 3, so det = 0 at size >= 4
    xs = rng.sample(range(-30, 30), size)
    cases.append(fill(lambda i, j: (xs[i - 1] - xs[j - 1]) ** 2))
    # below size 3 the pinned zeros name pairs that do not exist
    return [{p: v for p, v in case.items() if p in full} for case in cases]


def sym_det_mismatches(rng, sizes, oracle, scalar=random_fraction):
    """The (size, case number) of each case where `_sym_det` differs from `oracle(rows)`."""
    bad = []
    for size in sizes:
        for k, entries in enumerate(sym_det_cases(rng, size, scalar)):
            got = pfaffian._sym_det(size, entries)
            assert type(got) is Fraction
            if got != oracle(completed_rows(size, SYMMETRIC, {p: Fraction(v) for p, v in entries.items()})):
                bad.append((size, k))
    return bad


@pytest.mark.parametrize("scalar", [random_fraction, _big_fraction], ids=["den<=9", "den 6 digits"])
def test_sym_det_matches_the_cofactor_oracle(rng, scalar):
    assert sym_det_mismatches(rng, range(1, 8), cofactor_det, scalar) == []


def test_sym_det_matches_bareiss_past_the_cofactor_oracle(rng):
    # Bareiss costs about 3x the kernel: these sizes keep the test near 1 s
    assert sym_det_mismatches(rng, (8, 9, 12, 17, 23, 30), pfaffian._bareiss_det) == []
    assert sym_det_mismatches(rng, (8, 11, 14), pfaffian._bareiss_det, _big_fraction) == []


def test_squared_difference_determinants_vanish_from_size_four():
    for size in range(1, 41):
        entries = {(i, j): (i - j) ** 2 for i, j in upper_pairs(size)}
        want = cofactor_det(completed_rows(size, SYMMETRIC, entries)) if size <= 7 else 0
        assert completed_determinant(size, SYMMETRIC, entries) == want, size
        assert (want == 0) == (size == 1 or size >= 4), size
