import math
import random
import re
from fractions import Fraction

import pytest

from pfsym.polyring import Poly, _var_key, a, gen, pos, x


def random_poly(rng: random.Random, nvars: int = 3, nterms: int = 4) -> Poly:
    vars_pool = [pos(i) for i in range(1, nvars + 1)] + [gen(1, 2), gen(2, 3)]
    p = Poly.zero()
    for _ in range(rng.randint(0, nterms)):
        mono = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(vars_pool)
            mono[v] = mono.get(v, 0) + 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + Poly({tuple(mono.items()): coeff})
    return p


def test_zero_and_identity():
    p = x(1) * x(2) - 3 * x(1)
    assert p + (-p) == Poly.zero()
    assert p + 0 == p
    assert p * 1 == p
    assert p * 0 == Poly.zero()
    assert not Poly.zero()
    assert Poly.zero().is_zero() and not p.is_zero() and not Poly.const(1).is_zero()
    assert Poly.zero().degree() == -1
    # a scalar on the left of a difference
    assert 3 - p == Poly.const(3) - p == -(p - 3)
    assert 0 - p == -p


def test_mul_expansion_example():
    got = (x(1) - x(2)) * (x(2) - x(1))
    expected = Poly(
        {
            (((("x", 1)), 2),): -1,
            ((("x", 1), 1), (("x", 2), 1)): 2,
            ((("x", 2), 2),): -1,
        }
    )
    assert got == expected


def test_scale_example():
    g2 = (x(1) - x(2)) * (x(2) - x(1))
    assert Fraction(-2) * g2 == 2 * (x(1) - x(2)) ** 2


def test_gen_index_normalization_enforced():
    with pytest.raises(ValueError):
        gen(3, 2)
    with pytest.raises(ValueError):
        gen(2, 2)
    with pytest.raises(ValueError):
        pos(0)
    # a variable of the wrong length for its family
    for bad in (("a", 1), ("x", 1, 2), ("y", 1)):
        with pytest.raises(ValueError, match="not a variable"):
            Poly({((bad, 1),): 1})


def test_substitute_examples():
    assert (x(1) - x(2)).substitute({pos(2): x(1)}) == Poly.zero()
    target = (x(1) - x(2)) ** 2
    assert a(1, 2).substitute({gen(1, 2): target}) == target


def test_substitute_pfaffian_against_cycle_product():
    # the squared-difference specialization of the generic 4-point pfaffian
    # equals 2 times the cycle product (independent expansion)
    from pfsym.pfaffian import generic_pfaffian

    pf4 = generic_pfaffian(4)
    mapping = {gen(i, j): (x(i) - x(j)) ** 2 for i in range(1, 5) for j in range(i + 1, 5)}
    g4 = (x(1) - x(2)) * (x(2) - x(3)) * (x(3) - x(4)) * (x(4) - x(1))
    assert pf4.substitute(mapping) == 2 * g4


def test_substitute_rejects_inexact_scalars():
    with pytest.raises(ValueError):
        x(1).substitute({pos(1): 0.5})


def test_substitute_is_homomorphic(rng):
    for _ in range(30):
        p = random_poly(rng)
        q = random_poly(rng)
        mapping = {pos(1): random_poly(rng, nterms=2), gen(1, 2): Fraction(2, 3)}
        assert (p + q).substitute(mapping) == p.substitute(mapping) + q.substitute(mapping)
        assert (p * q).substitute(mapping) == p.substitute(mapping) * q.substitute(mapping)


def test_eval_rational_examples():
    assert Poly.const(5).eval_rational({}) == 5
    g4 = (x(1) - x(2)) * (x(2) - x(3)) * (x(3) - x(4)) * (x(4) - x(1))
    assert g4.eval_rational({pos(i): i for i in range(1, 5)}) == -3
    from pfsym.pfaffian import generic_pfaffian

    pf4 = generic_pfaffian(4)
    specialized = pf4.substitute(
        {gen(i, j): (x(i) - x(j)) ** 2 for i in range(1, 5) for j in range(i + 1, 5)}
    )
    assert specialized.eval_rational({pos(i): i for i in range(1, 5)}) == -6


def test_eval_missing_variable():
    with pytest.raises(ValueError, match="x2"):
        (x(1) + x(2)).eval_rational({pos(1): 1})
    with pytest.raises(ValueError, match=r"a\(1,2\)"):
        a(1, 2).eval_rational({})


def test_ring_axioms_randomized(rng):
    for _ in range(40):
        p, q, r = random_poly(rng), random_poly(rng), random_poly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_eval_respects_product(rng):
    assignment = {
        pos(1): Fraction(3, 2),
        pos(2): Fraction(-1),
        pos(3): Fraction(2, 5),
        gen(1, 2): Fraction(7),
        gen(2, 3): Fraction(-2, 3),
    }
    for _ in range(30):
        p, q = random_poly(rng), random_poly(rng)
        assert (p * q).eval_rational(assignment) == p.eval_rational(assignment) * q.eval_rational(assignment)


def test_substitute_then_eval_matches_composed_assignment(rng):
    assignment = {
        pos(1): Fraction(2),
        pos(2): Fraction(-3, 2),
        pos(3): Fraction(1, 3),
        gen(1, 2): Fraction(4),
        gen(2, 3): Fraction(-1),
    }
    for _ in range(20):
        p = random_poly(rng)
        rep = random_poly(rng, nterms=2)
        substituted = p.substitute({pos(1): rep})
        composed = dict(assignment)
        composed[pos(1)] = rep.eval_rational(assignment)
        assert substituted.eval_rational(assignment) == p.eval_rational(composed)


def test_power():
    p = x(1) - 1
    assert p ** 0 == Poly.const(1)
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    for bad in (-1, True, False, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            p ** bad


def test_products_and_powers_reach_the_packing_bound():
    # the packed fields hold 2 * (largest exponent) for a product and
    # e * (largest exponent) for a power; at a power of two, or one below
    # it, a carry out of the x1 field would show in x2
    for e1 in range(1, 9):
        for e2 in range(1, 9):
            got = (x(1) ** e1 * x(2)) * (x(1) ** e2 + a(1, 2) ** e2)
            assert got._terms == {((pos(1), e1 + e2), (pos(2), 1)): 1, ((pos(1), e1), (pos(2), 1), (gen(1, 2), e2)): 1}
    for top in (1, 2, 3, 4, 5, 8):
        for e in range(6):
            want = {
                tuple(pair for pair in ((pos(1), top * k), (pos(2), e - k)) if pair[1]): math.comb(e, k)
                for k in range(e + 1)
            }
            assert (x(1) ** top + x(2)) ** e == Poly(want), (top, e)


def test_text_form():
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(Fraction(-3, 4))) == "-3/4"
    p = -2 * x(1) ** 2 * a(1, 3)
    assert str(p) == "-2 * x1^2 * a(1,3)"
    from pfsym.pfaffian import generic_pfaffian

    assert str(generic_pfaffian(4)) == "a(1,2) * a(3,4) - a(1,3) * a(2,4) + a(1,4) * a(2,3)"


def test_json_round_trip(rng):
    for _ in range(30):
        p = random_poly(rng)
        assert Poly.from_json_obj(p.to_json_obj()) == p


def test_json_golden_shape():
    p = Fraction(-1, 2) * x(1) ** 2 * a(1, 3) + Poly.const(7)
    obj = p.to_json_obj()
    assert obj == [
        {"coeff": "7", "vars": []},
        {"coeff": "-1/2", "vars": [["x", 1, 2], ["a", 1, 3, 1]]},
    ]


def test_canonical_term_order():
    # graded first, then positions before generators
    p = a(1, 2) + x(3) + x(1) * x(2) + 1
    monos = [mono for mono, _ in p.terms()]
    texts = [" ".join(f"{v}^{e}" for v, e in mono) for mono in monos]
    assert texts == ["", "('x', 3)^1", "('a', 1, 2)^1", "('x', 1)^1 ('x', 2)^1"]


# -- integer storage against a definitional Fraction reference ---------------


def random_mixed_terms(rng: random.Random, denominators=(1, 1, 2, 3)) -> dict:
    """Canonical terms with Fraction coefficients, integral and not, and
    monomials that mix x and a variables."""
    pool = [pos(1), pos(2), pos(3), gen(1, 2), gen(1, 3), gen(2, 3)]
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = {v: rng.randint(1, 3) for v in rng.sample(pool, rng.randint(0, 4))}
        coeff = Fraction(rng.randint(-6, 6), rng.choice(denominators))
        if coeff != 0:
            terms[canonical_mono(exps)] = coeff
    return terms


def canonical_mono(exps: dict) -> tuple:
    return tuple(sorted(exps.items(), key=lambda t: _var_key(t[0])))


def reference_product(p: dict, q: dict) -> dict:
    """p * q by the definition: Fraction coefficients, monomials sorted by _var_key."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            mono = canonical_mono(exps)
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {mono: c for mono, c in out.items() if c != 0}


def reference_sum(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, Fraction(0)) + c
    return {mono: c for mono, c in out.items() if c != 0}


def reference_json(terms: dict) -> list[dict]:
    order = sorted(terms, key=lambda mono: (sum(e for _, e in mono), [(_var_key(v), e) for v, e in mono]))
    return [{"coeff": str(terms[mono]), "vars": [[*v, e] for v, e in mono]} for mono in order]


def test_product_and_sum_match_the_fraction_reference():
    rng = random.Random(17)
    mixed = 0
    for _ in range(200):
        p, q = random_mixed_terms(rng), random_mixed_terms(rng)
        P, Q = Poly(p), Poly(q)
        for got, ref in ((P * Q, reference_product(p, q)), (P + Q, reference_sum(p, q))):
            assert got == Poly(ref)
            assert got.to_json_obj() == reference_json(ref)
            assert dict(got.terms()) == ref
            for mono in got._terms:
                assert list(mono) == sorted(mono, key=lambda t: _var_key(t[0]))
                mixed += {v[0] for v, _ in mono} == {"x", "a"}
            assert all(type(c) is Fraction for _, c in got.terms())
            assert all(type(got.coefficient(mono)) is Fraction for mono in ref)
    assert mixed > 100  # products of monomials that mix positions and generators


def test_a_variable_listed_twice_is_one_factor():
    # the constructor adds the exponents, so x1 * x1^2 is x1^3, from JSON and from a term map
    from_json = Poly.from_json_obj([{"coeff": "1", "vars": [["x", 1, 1], ["x", 1, 2]]}])
    from_terms = Poly({((pos(1), 1), (pos(1), 2)): 1})
    for p in (from_json, from_terms):
        assert p == x(1) ** 3 and str(p) == "x1^3" and p.terms() == [(((pos(1), 3),), 1)]
    assert Poly({((gen(1, 2), 2), (pos(3), 1), (gen(1, 2), 1)): 2}) == 2 * a(1, 2) ** 3 * x(3)
    # two listings of one monomial are one term, and cancel when their coefficients do
    twice = [{"coeff": "1", "vars": [["x", 2, 1], ["x", 1, 1]]}, {"coeff": "1", "vars": [["x", 1, 1], ["x", 2, 1]]}]
    assert Poly.from_json_obj(twice) == 2 * x(1) * x(2)
    twice[1]["coeff"] = "-1"
    assert Poly.from_json_obj(twice) == Poly.zero()
    # an exponent below 1 is refused before the exponents add
    with pytest.raises(ValueError, match="exponents must be positive"):
        Poly({((pos(1), 2), (pos(1), -1)): 1})


@pytest.mark.parametrize("bad", [1.5, 2.0, True, Fraction(2), "2", None])
def test_an_exponent_that_is_not_an_int_is_refused(bad):
    # the constructor's message is the one `from_json_obj` gives such a record
    with pytest.raises(ValueError, match=r"^bad variable record: \(\('x', 1\), " + re.escape(repr(bad)) + r"\)$"):
        Poly({((pos(1), bad),): 1})
    with pytest.raises(ValueError, match="^bad variable record: "):
        Poly.from_json_obj([{"coeff": 1, "vars": [["x", 1, bad]]}])


def test_integral_coefficients_are_stored_as_ints(rng):
    for _ in range(30):
        p, q = Poly(random_mixed_terms(rng, (1,))), Poly(random_mixed_terms(rng, (1,)))
        for r in (p, q, p + q, p - q, p * q, p * Fraction(4, 2), -p, p ** 2):
            assert all(type(c) is int for c in r._terms.values())
    # a product of non-integral Fraction Polys that lands on ints stores them as ints
    product = (x(1) * Fraction(1, 2) - Fraction(1, 3)) * (2 * x(2) + 3)
    assert product == x(1) * x(2) + Fraction(3, 2) * x(1) - Fraction(2, 3) * x(2) - 1
    assert type(product._terms[((pos(1), 1), (pos(2), 1))]) is int and type(product._terms[()]) is int
    assert type(((x(1) * Fraction(1, 2)) * (2 * x(2)))._terms[((pos(1), 1), (pos(2), 1))]) is int
    square = (x(1) * Fraction(1, 2) + 1) ** 2
    assert square == x(1) ** 2 * Fraction(1, 4) + x(1) + 1 and type(square._terms[((pos(1), 1),)]) is int
    assert type(Poly({((pos(1), 1),): Fraction(6, 3)})._terms[((pos(1), 1),)]) is int
    assert type(Poly.from_json_obj([{"coeff": "4/2", "vars": []}])._terms[()]) is int
    assert type(Poly.const(Fraction(-3))._terms[()]) is int
    assert type(Poly.const(Fraction(1, 2))._terms[()]) is Fraction


def test_const_of_an_integral_fraction_is_the_int():
    half = Poly.const(Fraction(4, 2))
    assert half == Poly.const(2) == 2
    assert half.to_json_obj() == Poly.const(2).to_json_obj() == [{"coeff": "2", "vars": []}]
    assert str(half) == str(Poly.const(2)) == "2"
    assert type(half.coefficient(())) is Fraction
    assert x(1).coefficient(((pos(2), 1),)) == 0
    assert type(x(1).coefficient(((pos(2), 1),))) is Fraction


# -- floats and booleans are not coefficients --------------------------------


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False, None, [1]])
def test_inexact_coefficients_are_refused(bad):
    with pytest.raises(ValueError, match="not exact"):
        Poly({((pos(1), 1),): bad})
    with pytest.raises(ValueError, match="not exact"):
        Poly.const(bad)
    with pytest.raises(ValueError, match="not exact"):
        Poly.from_json_obj([{"coeff": bad, "vars": [["x", 1, 1]]}])


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False, None])
def test_eval_rational_refuses_inexact_values(bad):
    with pytest.raises(ValueError, match=r"value x1 = .* is not exact"):
        x(1).eval_rational({pos(1): bad})
    with pytest.raises(ValueError, match=r"value x2 = .* is not exact"):
        (x(1) * x(2) + 1).eval_rational({pos(1): 1, pos(2): bad})


def test_eval_rational_takes_exact_values():
    p = x(1) ** 2 - 3 * x(2)
    value = p.eval_rational({pos(1): Fraction(1, 2), pos(2): "2/3"})
    assert type(value) is Fraction and value == Fraction(-7, 4)
    assert type(Poly.const(5).eval_rational({})) is Fraction


def test_exact_coefficients_are_accepted():
    assert Poly.const("3/6") == Poly.const(Fraction(1, 2))
    assert Poly.from_json_obj([{"coeff": 3, "vars": []}]) == 3
    assert Poly({(): "-4"}) == -4


@pytest.mark.parametrize("bad", [0.5, True])
def test_arithmetic_with_a_float_or_bool_is_a_type_error(bad):
    with pytest.raises(TypeError):
        x(1) * bad
    with pytest.raises(TypeError):
        bad * x(1)
    with pytest.raises(TypeError):
        x(1) + bad


def _poly_and_float_array(mode: str):
    from pfsym.pfaffian import TriangularArray, upper_pairs

    entries = {p: Fraction(1) for p in upper_pairs(4)}
    entries[(1, 2)] = x(1)
    entries[(1, 3)] = 0.5
    entries[(2, 4)] = 0.25
    return TriangularArray(4, mode, entries)


def test_pfaffian_refuses_poly_and_float_entries():
    from pfsym.pfaffian import (
        completed_determinant,
        hook_expand_skew,
        hook_expand_symmetric,
        pfaffian_direct,
    )

    message = r"entry '1,3' is the float 0\.5"
    for mode, hook in (("skew", hook_expand_skew), ("symmetric", hook_expand_symmetric)):
        arr = _poly_and_float_array(mode)
        with pytest.raises(ValueError, match=message):
            pfaffian_direct(arr)
        with pytest.raises(ValueError, match=message):
            hook(arr, 2)
        with pytest.raises(ValueError, match=message):
            completed_determinant(4, mode, arr.entries)


def test_kernel_array_refuses_a_float_beside_a_poly_position():
    from pfsym.models import SQUARE_DIFF, kernel_array

    with pytest.raises(ValueError, match="not exact"):
        kernel_array(SQUARE_DIFF, [x(1), 0.5])
    assert kernel_array(SQUARE_DIFF, [x(1), Fraction(1, 2)]).entries[(1, 2)] == (x(1) - Fraction(1, 2)) ** 2


@pytest.mark.parametrize(
    "obj",
    [
        1,
        "a(1,2)",
        {"coeff": 1, "vars": []},
        ["nan"],
        [{"coeff": 1}],
        [{"coeff": 1, "vars": 3}],
        [{"coeff": 1, "vars": [3]}],
        [{"coeff": 1, "vars": [[]]}],
        [{"coeff": 1, "vars": [["x", 1, 1.5]]}],
        [{"coeff": 1, "vars": [["a", 1, True, 1]]}],
        [{"coeff": "1/0", "vars": []}],
        [{"coeff": 1, "vars": [["x", 1, 2, 1]]}],
        [{"coeff": 1, "vars": [["y", 1, 2, 1]]}],
    ],
)
def test_malformed_polynomial_json_is_a_value_error(obj):
    with pytest.raises(ValueError):
        Poly.from_json_obj(obj)
