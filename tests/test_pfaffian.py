import json
import math
from fractions import Fraction

import pytest

from conftest import random_array, random_int_array
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
    pfaffian_direct,
    _pfaffian_sum,
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
    for two_n in (2, 4, 6, 8):
        pf = generic_pfaffian(two_n)
        assert len(pf) == matching_count(two_n)
        assert all(coeff in (1, -1) for _, coeff in pf.terms())
        assert all(sum(e for _, e in mono) == two_n // 2 for mono, _ in pf.terms())


def test_pfaffian_direct_over_generator_polys_matches_generic():
    for two_n in (4, 6):
        arr = TriangularArray.from_function(two_n, PLAIN, a)
        assert pfaffian_direct(arr) == generic_pfaffian(two_n)


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
    for two_n in (4, 6, 8):
        for _ in range(5):
            sym = random_array(rng, two_n, SYMMETRIC)
            skw = random_array(rng, two_n, SKEW)
            direct_sym = pfaffian_direct(sym)
            direct_skw = pfaffian_direct(skw)
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
            assert determinant(arr) == pfaffian_direct(arr) ** 2


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
    with pytest.raises(ValueError):
        determinant(arr)


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
        assert math.isclose(got, _pfaffian_sum(floats), rel_tol=1e-12, abs_tol=1e-12)


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
