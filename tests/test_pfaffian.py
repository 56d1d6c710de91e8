import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import random_array, random_fraction, random_int_array
from pf_oracles import cofactor_det, completed_rows, pfaffian_sum, subset_pf
from pfsym.matchings import matching_count
from pfsym.pfaffian import (
    PLAIN,
    SKEW,
    SYMMETRIC,
    TriangularArray,
    completed_determinant,
    determinant,
    generic_pfaffian,
    heaviside,
    hook_expand_skew,
    hook_expand_symmetric,
    _bareiss_det,
    pfaffian_direct,
    upper_pairs,
)
from pfsym.polyring import Poly, a, gen, x


def test_heaviside():
    assert heaviside(1) == 1
    assert heaviside(0) == 0
    assert heaviside(-2) == 0


def test_array_validation():
    with pytest.raises(ValueError, match="missing entry"):
        TriangularArray(4, SYMMETRIC, {(1, 2): 1})
    entries = {p: 1 for p in upper_pairs(4)}
    entries[(2, 1)] = 1
    with pytest.raises(ValueError, match="unexpected entry"):
        TriangularArray(4, SYMMETRIC, entries)
    with pytest.raises(ValueError):
        TriangularArray(3, SYMMETRIC, {})
    with pytest.raises(ValueError):
        TriangularArray(2, "diagonal", {(1, 2): 1})


def test_lookup_modes():
    entries = {(1, 2): 5, (1, 3): -2, (1, 4): 7, (2, 3): 1, (2, 4): 0, (3, 4): 3}
    sym = TriangularArray(4, SYMMETRIC, entries)
    skw = TriangularArray(4, SKEW, entries)
    pln = TriangularArray(4, PLAIN, entries)
    assert sym.lookup(3, 1) == -2
    assert skw.lookup(3, 1) == 2
    assert sym.lookup(2, 2) == 0
    assert skw.lookup(2, 2) == 0
    assert pln.lookup(1, 3) == -2
    with pytest.raises(ValueError):
        pln.lookup(3, 1)
    with pytest.raises(ValueError):
        pln.lookup(2, 2)
    with pytest.raises(IndexError):
        sym.lookup(0, 1)
    with pytest.raises(IndexError):
        sym.lookup(1, 5)


def test_pfaffian_symbolic_goldens():
    assert generic_pfaffian(2) == a(1, 2)
    assert generic_pfaffian(4) == a(1, 2) * a(3, 4) - a(1, 3) * a(2, 4) + a(1, 4) * a(2, 3)
    arr = TriangularArray(2, PLAIN, {(1, 2): a(1, 2)})
    assert pfaffian_direct(arr) == a(1, 2)


def test_pfaffian_empty_convention():
    assert pfaffian_direct(TriangularArray(0, SYMMETRIC, {})) == 1


def test_pfaffian_squared_differences_value():
    arr = TriangularArray.from_function(4, SYMMETRIC, lambda i, j: Fraction((i - j) ** 2))
    assert pfaffian_direct(arr) == -6
    # direct summation: 1*1 - 4*4 + 9*1
    assert 1 * 1 - 4 * 4 + 9 * 1 == -6


def test_generic_pfaffian_term_structure():
    for two_n in (0, 2, 4, 6, 8):
        pf = generic_pfaffian(two_n)
        assert len(pf) == matching_count(two_n)
        assert all(coeff in (1, -1) for _, coeff in pf.terms())
        assert all(sum(e for _, e in mono) == two_n // 2 for mono, _ in pf.terms())


def test_pfaffian_direct_over_generator_polys_matches_generic():
    for two_n in (4, 6):
        arr = TriangularArray.from_function(two_n, PLAIN, a)
        want = pfaffian_sum(arr)
        assert pfaffian_direct(arr) == want
        assert generic_pfaffian(two_n) == want


def test_hook_symmetric_base_cases():
    arr = TriangularArray(2, SYMMETRIC, {(1, 2): a(1, 2)})
    assert hook_expand_symmetric(arr, 1) == a(1, 2)
    sym4 = TriangularArray(4, SYMMETRIC, {(i, j): a(i, j) for i, j in upper_pairs(4)})
    assert hook_expand_symmetric(sym4, 1) == generic_pfaffian(4)


def test_hook_skew_forced_single_term():
    arr = TriangularArray(2, SKEW, {(1, 2): a(1, 2)})
    # (-1)^(2+1+1+H(1)) * (-a(1,2)) * 1 = a(1,2)
    assert hook_expand_skew(arr, 2) == a(1, 2)


def test_hook_expansions_match_direct(rng):
    # at these sizes pfaffian_direct and the hooks share the memo, so the
    # matching sum is the second route
    for two_n in (4, 6, 8):
        for _ in range(5):
            sym = random_array(rng, two_n, SYMMETRIC)
            skw = random_array(rng, two_n, SKEW)
            direct_sym = pfaffian_sum(sym)
            direct_skw = pfaffian_sum(skw)
            assert pfaffian_direct(sym) == direct_sym and pfaffian_direct(skw) == direct_skw
            for s in range(1, two_n + 1):
                assert hook_expand_symmetric(sym, s) == direct_sym
                assert hook_expand_skew(skw, s) == direct_skw


def test_hook_errors():
    entries = {p: 1 for p in upper_pairs(4)}
    sym = TriangularArray(4, SYMMETRIC, entries)
    skw = TriangularArray(4, SKEW, entries)
    pln = TriangularArray(4, PLAIN, entries)
    with pytest.raises(ValueError):
        hook_expand_symmetric(skw, 1)
    with pytest.raises(ValueError):
        hook_expand_skew(sym, 1)
    with pytest.raises(ValueError):
        hook_expand_symmetric(pln, 1)
    with pytest.raises(IndexError):
        hook_expand_symmetric(sym, 5)


def test_determinant_skew_two_by_two():
    arr = TriangularArray(2, SKEW, {(1, 2): Fraction(7, 3)})
    assert determinant(arr) == Fraction(49, 9)


def test_determinant_matches_pfaffian_squared(rng):
    for two_n in (2, 4, 6):
        for _ in range(5):
            arr = random_int_array(rng, two_n, SKEW)
            # Bareiss on the completed rows is independent of the skew route
            det = _bareiss_det([[Fraction(v) for v in row] for row in completed_rows(two_n, SKEW, arr.entries)])
            assert det == pfaffian_direct(arr) ** 2 == determinant(arr)


def test_determinant_squared_difference_goldens():
    def entries(size):
        return {(i, j): (x(i) - x(j)) ** 2 for i, j in upper_pairs(size)}

    # size 2: det [[0, c], [c, 0]] = -c^2 with c = (x1-x2)^2
    assert completed_determinant(2, SYMMETRIC, entries(2)) == -((x(1) - x(2)) ** 4)
    expected3 = 2 * ((x(1) - x(2)) * (x(2) - x(3)) * (x(3) - x(1))) ** 2
    assert completed_determinant(3, SYMMETRIC, entries(3)) == expected3
    assert completed_determinant(4, SYMMETRIC, entries(4)) == Poly.zero()
    assert completed_determinant(5, SYMMETRIC, entries(5)) == Poly.zero()


def test_determinant_odd_size_rational():
    # 3x3 symmetric completion with integer entries
    entries = {(1, 2): 1, (1, 3): 4, (2, 3): 1}
    got = completed_determinant(3, SYMMETRIC, entries)
    assert got == 2 * 1 * 4 * 1  # 2abc for a zero-diagonal symmetric 3x3


def test_determinant_plain_rejected():
    arr = TriangularArray(2, PLAIN, {(1, 2): 1})
    with pytest.raises(ValueError, match=r"^mode must be symmetric or skew, got 'plain'$"):
        determinant(arr)


def test_completed_determinant_refuses_a_missing_entry():
    entries = {(1, 2): 1, (1, 3): 4}
    for mode in (SYMMETRIC, SKEW):
        with pytest.raises(ValueError, match=r"^missing entry \(2, 3\)$"):
            completed_determinant(3, mode, entries)
        with pytest.raises(ValueError, match=r"^missing entry \(1, 2\)$"):
            completed_determinant(3, mode, {(2, 3): x(1)})


def test_completed_determinant_refuses_an_entry_outside_the_size():
    entries = {(1, 2): 1, (1, 3): 4, (2, 3): 1, (3, 4): 5}
    for mode in (SYMMETRIC, SKEW):
        with pytest.raises(ValueError, match=r"^unexpected entry \(3, 4\)$"):
            completed_determinant(3, mode, entries)
        with pytest.raises(ValueError, match=r"^unexpected entry \(1, 2\)$"):
            completed_determinant(1, mode, {(1, 2): x(1)})


def test_unexpected_keys_of_mixed_types_are_named_in_insertion_order():
    with pytest.raises(ValueError, match=r"^unexpected entry a$"):
        TriangularArray(2, SKEW, {(1, 2): 1, "a": 1, 3: 2})
    with pytest.raises(ValueError, match=r"^unexpected entry 3$"):
        completed_determinant(2, SKEW, {3: 2, (1, 2): 1, "a": 1})


def test_skew_numeric_determinants_match_bareiss(rng):
    # the skew route squares the pfaffian (or gives 0 at odd size); Bareiss
    # on the completed rows is the reference, in value and in type
    fills = {
        "int": lambda: rng.randint(-9, 9),
        "Fraction": lambda: random_fraction(rng),
        "float": lambda: rng.uniform(-2, 2),
    }
    for size in range(1, 17):
        for name, fill in fills.items():
            entries = {p: fill() for p in upper_pairs(size)}
            if size > 2 and name == "float":
                entries[(1, 2)] = Fraction(1, 3)  # a float array may hold exact numbers too
            want = _bareiss_det([[Fraction(v) for v in row] for row in completed_rows(size, SKEW, entries)])
            got = completed_determinant(size, SKEW, entries)
            if name == "float" and size > 1:
                assert type(got) is float and got == float(want), (size, name)
            else:
                assert type(got) is Fraction and got == want, (size, name)


# -- determinants against the cofactor expansion ------------------------------


def _random_poly_entry(rng, size):
    """Poly.zero(), a nonzero int, or a small linear polynomial in the x_k."""
    kind = rng.randrange(4)
    if kind == 0:
        return Poly.zero()
    if kind == 1:
        return rng.choice((-2, 1, 3))
    return rng.choice((-2, -1, 1, 3)) * x(rng.randint(1, size)) + rng.randint(-2, 2)


def _zero_row(entries, r):
    """Set row and column r to zero, alternating Poly.zero() and the int 0."""
    for k, (i, j) in enumerate(p for p in sorted(entries) if r in p):
        entries[(i, j)] = Poly.zero() if k % 2 == 0 else 0


def test_fraction_determinants_match_the_cofactor_oracle(rng):
    for size in range(1, 8):
        for mode in (SYMMETRIC, SKEW):
            for _ in range(3):
                entries = {p: random_fraction(rng) for p in upper_pairs(size)}
                want = cofactor_det(completed_rows(size, mode, entries))
                got = completed_determinant(size, mode, entries)
                assert type(got) is Fraction and got == want, (size, mode)
                if size == 1:
                    continue  # no entries, so no float entry
                floats = {p: float(v) for p, v in entries.items()}
                exact = cofactor_det(completed_rows(size, mode, {p: Fraction(v) for p, v in floats.items()}))
                got = completed_determinant(size, mode, floats)
                assert type(got) is float and got == float(exact), (size, mode)


def test_poly_determinants_match_the_cofactor_oracle(rng):
    for size in range(1, 7):
        for mode in (SYMMETRIC, SKEW):
            for trial in range(3):
                entries = {p: _random_poly_entry(rng, size) for p in upper_pairs(size)}
                if size > 1:
                    entries[(1, 2)] = x(1) - rng.randint(0, 2)
                if trial == 2:
                    _zero_row(entries, rng.randint(1, size))
                got = completed_determinant(size, mode, entries)
                assert got == cofactor_det(completed_rows(size, mode, entries)), (size, mode, trial)
                assert isinstance(got, Poly) == (size > 1), (size, mode, trial)
                if trial == 2 and size > 1:
                    assert got == Poly.zero()


def test_poly_determinant_takes_no_size_cap():
    # zero-diagonal tridiagonal: D_m = -b_(m-1)^2 D_(m-2), D_0 = 1, D_1 = 0
    def tridiagonal(size):
        return {(i, j): x(i) if j == i + 1 else Poly.zero() for i, j in upper_pairs(size)}

    assert completed_determinant(9, SYMMETRIC, tridiagonal(9)) == Poly.zero()
    want = -((x(1) * x(3) * x(5) * x(7) * x(9)) ** 2)
    assert completed_determinant(10, SYMMETRIC, tridiagonal(10)) == want
    assert completed_determinant(10, SKEW, tridiagonal(10)) == -want


# -- zero entries in the row expansion ---------------------------------------


def _sparse_arrays(rng, two_n, mode):
    """Fraction and Poly arrays, about half zeros, each also with hook 2 all zero."""
    out = []
    fills = (
        (Fraction(0), lambda: random_fraction(rng)),
        (Poly.zero(), lambda: x(rng.randint(1, two_n)) + rng.randint(-1, 1)),
    )
    for zero, fill in fills:
        entries = {p: zero if rng.random() < 0.5 else fill() for p in upper_pairs(two_n)}
        out.append(TriangularArray(two_n, mode, entries))
        out.append(TriangularArray(two_n, mode, {p: zero if 2 in p else v for p, v in entries.items()}))
    return out


def test_pfaffian_routes_skip_zero_entries(rng):
    for two_n in (2, 4, 6, 8):
        for mode in (SYMMETRIC, SKEW):
            for _ in range(3):
                for arr in _sparse_arrays(rng, two_n, mode):
                    want = pfaffian_sum(arr)
                    domain = type(want)
                    assert type(pfaffian_direct(arr)) is domain and pfaffian_direct(arr) == want
                    hook = hook_expand_symmetric if mode == SYMMETRIC else hook_expand_skew
                    for s in range(1, two_n + 1):
                        got = hook(arr, s)
                        assert type(got) is domain and got == want, (two_n, mode, s)


def test_a_zero_first_row_gives_the_zero_of_the_domain():
    # (zero of row 1, fill of the other rows, the domain of the result)
    cases = (
        (Poly.zero(), lambda i, j: x(i) * x(j), Poly),
        (Fraction(0), lambda i, j: Fraction(j), Fraction),
        (Decimal(0), lambda i, j: Decimal(j).scaleb(-1), Decimal),
        # int zeros beside Decimals: the ring's zero, not the int 0
        (0, lambda i, j: Decimal(j).scaleb(-1), Decimal),
    )
    for two_n in (2, 4, 6):
        for zero, fill, domain in cases:
            entries = {(i, j): zero if i == 1 else fill(i, j) for i, j in upper_pairs(two_n)}
            if two_n == 2 and domain is Decimal:
                entries[(1, 2)] = Decimal(0)  # row 1 is the whole array: one Decimal keeps the domain
            symmetric, skew = (TriangularArray(two_n, mode, entries) for mode in (SYMMETRIC, SKEW))
            for got in (pfaffian_direct(skew), hook_expand_skew(skew, 1), hook_expand_symmetric(symmetric, 1)):
                assert type(got) is domain and got == 0, (two_n, domain)
            # the operator-generic oracle hands back the zero entry of an all-zero hook itself
            assert subset_pf(entries, tuple(range(1, two_n + 1)), {}) is entries[(1, two_n)]


def test_poly_routes_give_a_poly_when_every_poly_entry_is_zero():
    # the expansion skips the one Poly entry and multiplies only ints
    entries = {(1, 2): Poly.zero(), (1, 3): 2, (1, 4): 3, (2, 3): 5, (2, 4): 7, (3, 4): 11}
    ints = {p: 0 if isinstance(v, Poly) else v for p, v in entries.items()}
    for mode in (SYMMETRIC, SKEW):
        arr = TriangularArray(4, mode, entries)
        assert isinstance(pfaffian_direct(arr), Poly) and pfaffian_direct(arr) == -2 * 7 + 3 * 5
        hook = hook_expand_symmetric if mode == SYMMETRIC else hook_expand_skew
        for s in range(1, 5):
            assert isinstance(hook(arr, s), Poly) and hook(arr, s) == -2 * 7 + 3 * 5
        got = completed_determinant(4, mode, entries)
        assert isinstance(got, Poly) and got == cofactor_det(completed_rows(4, mode, ints)) != 0
    got = completed_determinant(3, SYMMETRIC, {(1, 2): Poly.zero(), (1, 3): 2, (2, 3): 5})
    assert isinstance(got, Poly) and got == Poly.zero()


def test_pfaffian_multilinear_in_hooks(rng):
    for _ in range(10):
        arr = random_array(rng, 6, SKEW)
        s = rng.randint(1, 6)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = TriangularArray(
            6,
            SKEW,
            {
                (i, j): v * c if (i == s or j == s) else v
                for (i, j), v in arr.entries.items()
            },
        )
        assert pfaffian_direct(scaled) == c * pfaffian_direct(arr)


def test_float_arrays_route_through_elimination(rng):
    for two_n in (2, 4, 6, 8):
        exact = random_array(rng, two_n, SYMMETRIC)
        floats = TriangularArray(
            two_n, SYMMETRIC, {p: float(v) for p, v in exact.entries.items()}
        )
        got = pfaffian_direct(floats)
        assert isinstance(got, float)
        assert math.isclose(got, float(pfaffian_direct(exact)), rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(got, pfaffian_sum(floats), rel_tol=1e-12, abs_tol=1e-12)


def test_eval_agrees_with_expand_plus_substitute(rng):
    for _ in range(10):
        arr = random_array(rng, 4, PLAIN)
        mapping = {gen(i, j): v for (i, j), v in arr.entries.items()}
        assert generic_pfaffian(4).substitute(mapping) == Poly.const(pfaffian_direct(arr))


def test_array_json_round_trip(rng):
    rational = random_array(rng, 4, SKEW)
    assert TriangularArray.from_json_obj(rational.to_json_obj()) == rational

    floats = TriangularArray(2, SYMMETRIC, {(1, 2): 0.5})
    assert TriangularArray.from_json_obj(floats.to_json_obj()) == floats

    symbolic = TriangularArray(2, PLAIN, {(1, 2): (x(1) - x(2)) ** 2})
    assert TriangularArray.from_json_obj(symbolic.to_json_obj()) == symbolic

    obj = rational.to_json_obj()
    assert json.loads(json.dumps(obj)) == obj  # JSON-safe


def test_array_json_diagnostics():
    with pytest.raises(ValueError, match="missing entry key '1,3'"):
        TriangularArray.from_json_obj(
            {"two_n": 4, "mode": "skew", "entries": {"1,2": "1"}}
        )
    base = {f"{i},{j}": "1" for i, j in upper_pairs(4)}
    bad = dict(base)
    bad["2,1"] = "1"
    with pytest.raises(ValueError, match="'2,1'"):
        TriangularArray.from_json_obj({"two_n": 4, "mode": "skew", "entries": bad})
    with pytest.raises(ValueError, match="mode"):
        TriangularArray.from_json_obj({"two_n": 4, "mode": "wat", "entries": base})
    with pytest.raises(ValueError, match="1,2"):
        TriangularArray.from_json_obj(
            {"two_n": 2, "mode": "skew", "entries": {"1,2": [1, 2, 3]}}
        )
    odd = {f"{i},{j}": "1" for i, j in upper_pairs(3)}
    for key in ("size", "two_n"):
        with pytest.raises(ValueError, match=r"^two_n must be even and >= 0, got 3$"):
            TriangularArray.from_json_obj({key: 3, "mode": "skew", "entries": odd})
