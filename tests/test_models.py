import math
from fractions import Fraction

import pytest

from pfsym.models import (
    COSINE,
    SQUARE_DIFF,
    DifferenceKernel,
    VerificationReport,
    g_poly,
    kernel_array,
    position_polys,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    verify_trig_lemma1,
    verify_trig_lemma2,
)
from pfsym.pfaffian import SYMMETRIC, completed_determinant, pfaffian_direct, upper_pairs
from pfsym import polyring
from pfsym.polyring import Poly, pos, x


def test_kernel_array_symbolic_entries():
    arr = kernel_array(SQUARE_DIFF, position_polys(4))
    assert arr.mode == SYMMETRIC
    assert arr.entries[(1, 3)] == (x(1) - x(3)) ** 2
    zero = kernel_array(DifferenceKernel(()), position_polys(2))
    assert zero.entries[(1, 2)] == Poly.zero() and isinstance(zero.entries[(1, 2)], Poly)
    const = kernel_array(DifferenceKernel((3,)), position_polys(2))
    assert const.entries[(1, 2)] == Poly.const(3) and isinstance(const.entries[(1, 2)], Poly)


def test_square_diff_entry_costs_one_packed_product(monkeypatch):
    calls = []
    real = polyring._packing

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyring, "_packing", counted)
    arr = kernel_array(SQUARE_DIFF, position_polys(4))
    assert len(calls) == 6
    assert all(arr.entries[(i, j)] == (x(i) - x(j)) * (x(i) - x(j)) for i, j in upper_pairs(4))


def test_kernel_array_integer_entries():
    arr = kernel_array(SQUARE_DIFF, [Fraction(i) for i in (1, 2, 3, 4)])
    assert [arr.entries[p] for p in upper_pairs(4)] == [1, 4, 9, 1, 4, 1]


def test_kernel_array_cosine():
    arr = kernel_array(COSINE, [0.0, 0.0])
    assert arr.entries[(1, 2)] == 1.0
    with pytest.raises(ValueError):
        kernel_array(COSINE, position_polys(2))
    with pytest.raises(ValueError):
        kernel_array(SQUARE_DIFF, [1, 2, 3])


def test_difference_kernel_symmetry_flag():
    assert SQUARE_DIFF.is_symmetric
    assert SQUARE_DIFF.constant() == 0
    odd = DifferenceKernel((0, 1))  # phi(t) = t
    assert not odd.is_symmetric
    even = DifferenceKernel((1, 0, 2))  # phi(t) = 1 + 2t^2
    assert even.is_symmetric and even.constant() == 1
    assert COSINE.constant() == 1.0


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, None])
def test_difference_kernel_refuses_inexact_coefficients(bad):
    with pytest.raises(ValueError, match=r"kernel coefficient c1 = .* is not exact"):
        DifferenceKernel([0, bad, 1])


def test_difference_kernel_stores_fractions():
    kernel = DifferenceKernel([2, "1/2", Fraction(3, 1), 0])
    assert kernel.coeffs == (2, Fraction(1, 2), 3)
    assert all(type(c) is Fraction for c in kernel.coeffs)
    assert type(kernel.constant()) is Fraction and kernel.constant() == 2
    assert type(DifferenceKernel(()).constant()) is Fraction


def test_g_poly_examples():
    assert g_poly(2) == -((x(1) - x(2)) ** 2)
    assert g_poly(4).eval_rational({pos(i): i for i in range(1, 5)}) == -3
    assert g_poly(6).eval_rational({pos(i): i for i in range(1, 7)}) == -5
    with pytest.raises(ValueError):
        g_poly(3)


def test_g_poly_at_integers_up_to_twelve():
    for two_n in range(2, 13, 2):
        value = g_poly(two_n).eval_rational({pos(i): i for i in range(1, two_n + 1)})
        assert value == -(two_n - 1)


def test_theorem3_symbolic_small_orders():
    for n in (1, 2, 3):
        report = verify_theorem3(n)
        assert report.passed
        assert report.mode == "symbolic+rational"


def test_theorem3_symbolic_identity_directly():
    pf2 = pfaffian_direct(kernel_array(SQUARE_DIFF, position_polys(2)))
    assert pf2 == (x(1) - x(2)) ** 2
    assert pf2 == Fraction(-1) * g_poly(2)


def test_theorem3_numeric_values():
    expected = {1: 1, 2: -6, 3: 20, 4: -56, 5: 144}
    for n, value in expected.items():
        ints = [Fraction(i) for i in range(1, 2 * n + 1)]
        assert pfaffian_direct(kernel_array(SQUARE_DIFF, ints)) == value
        report = verify_theorem3(n)
        assert report.passed
        assert report.mode == ("rational" if n == 5 else "symbolic+rational")


def test_theorem3_input_validation():
    with pytest.raises(ValueError):
        verify_theorem3(0)


def test_theorem2_square_diff_all_hooks():
    for two_n in (4, 6):
        xs = position_polys(two_n)
        for s in range(1, two_n + 1):
            report = verify_theorem2(SQUARE_DIFF, xs, s)
            assert report.passed, (two_n, s)
            assert report.residual == 0.0


def test_theorem2_square_diff_collapse_is_zero():
    # c = 0, so the collapsed pfaffian itself must vanish
    xs = position_polys(4)
    collapsed = [xs[0], xs[0], xs[2], xs[3]]
    assert pfaffian_direct(kernel_array(SQUARE_DIFF, collapsed)) == Poly.zero()


def test_theorem2_cosine_worked_example():
    report = verify_theorem2(COSINE, [0.7, 0.7, 0.2, 0.9], 1)
    assert report.passed
    lhs = pfaffian_direct(kernel_array(COSINE, [0.7, 0.7, 0.2, 0.9]))
    assert math.isclose(lhs, math.cos(-0.7), abs_tol=1e-13)


def test_theorem2_cosine_all_hooks(rng):
    for two_n in (4, 6):
        xs = [rng.uniform(-math.pi, math.pi) for _ in range(two_n)]
        for s in range(1, two_n + 1):
            report = verify_theorem2(COSINE, xs, s)
            assert report.passed, (two_n, s)
            assert report.residual <= 1e-12


def test_theorem2_wraparound_uses_first_position():
    # s = 2n merges x_1 into x_{2n} and drops hooks 2n and 1
    xs = [Fraction(k) for k in (3, 1, 4, 7)]
    report = verify_theorem2(SQUARE_DIFF, xs, 4)
    assert report.passed
    even = DifferenceKernel((1, 0, 2))
    report = verify_theorem2(even, xs, 4)
    assert report.passed


def test_theorem2_custom_even_kernel_rational():
    even = DifferenceKernel((5, 0, 1, 0, 3))  # c = 5
    xs = [Fraction(7), Fraction(2), Fraction(-1), Fraction(4), Fraction(0), Fraction(3)]
    for s in range(1, 7):
        assert verify_theorem2(even, xs, s).passed


def test_theorem2_rejects_asymmetric_kernel():
    odd = DifferenceKernel((0, 1))
    with pytest.raises(ValueError, match="not symmetric"):
        verify_theorem2(odd, [Fraction(1), Fraction(2)], 1)


def test_theorem2_index_validation():
    with pytest.raises(IndexError):
        verify_theorem2(SQUARE_DIFF, position_polys(4), 5)
    with pytest.raises(ValueError):
        verify_theorem2(SQUARE_DIFF, position_polys(3), 1)


def test_theorem4_single_aggregate_is_exact():
    report = verify_theorem4(1, [0.37, -1.2], tol=0.0)
    assert report.passed


def test_theorem4_golden_value():
    lhs = pfaffian_direct(kernel_array(COSINE, [0.1, 0.2, 0.3, 0.4]))
    assert math.isclose(lhs, math.cos(-0.2), abs_tol=1e-14)
    assert math.isclose(lhs, 0.980066577841242, abs_tol=1e-12)
    assert verify_theorem4(2, [0.1, 0.2, 0.3, 0.4]).passed


def test_theorem4_random_sweep(rng):
    for _ in range(100):
        xs = [rng.uniform(-math.pi, math.pi) for _ in range(6)]
        assert verify_theorem4(3, xs, tol=1e-12).passed


def test_theorem4_validation():
    with pytest.raises(ValueError):
        verify_theorem4(0, [])
    with pytest.raises(ValueError):
        verify_theorem4(2, [0.0] * 3)


def test_trig_lemma1_examples(rng):
    assert verify_trig_lemma1(0.8, 0.8, 1.3).residual == 0.0
    report = verify_trig_lemma1(math.pi / 2, 0.0, 0.0)
    assert report.passed
    # LHS = -cos(pi/2)cos(-pi/2) + cos(0)cos(0) = 1 = sin(pi/2)sin(pi/2)
    for _ in range(1000):
        args = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
        assert verify_trig_lemma1(*args).passed


def test_trig_lemma2_small_cases():
    assert verify_trig_lemma2([0.9]).residual == 0.0
    report = verify_trig_lemma2([0.3, 0.5])
    assert report.passed
    # even case: the cosine-weighted sum equals sin(-a1 + a2) = sin(0.2)
    lhs = -math.cos(0.3) * math.sin(-0.5) + math.cos(0.5) * math.sin(-0.3)
    assert math.isclose(lhs, math.sin(0.2), abs_tol=1e-15)


def test_trig_lemma2_random_sweep(rng):
    for _ in range(1000):
        k = rng.randint(1, 8)
        assert verify_trig_lemma2([rng.uniform(-math.pi, math.pi) for _ in range(k)]).passed
    with pytest.raises(ValueError):
        verify_trig_lemma2([])


def test_squared_difference_determinant_vanishes_at_larger_sizes():
    for size in (4, 5):
        entries = {(i, j): (x(i) - x(j)) ** 2 for i, j in upper_pairs(size)}
        assert completed_determinant(size, SYMMETRIC, entries) == Poly.zero()


def test_verification_report_json_keys():
    report = VerificationReport("demo", 2, "numeric", True, 1e-15, "l", "r", seed=7)
    obj = report.to_json_obj()
    assert set(obj) == {"check", "n", "mode", "pass", "residual", "lhs", "rhs", "seed"}
    assert obj["pass"] is True and obj["seed"] == 7
