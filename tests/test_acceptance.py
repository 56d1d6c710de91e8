"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import random_array, random_int_array
from pfsym.matchings import enumerate_pfaff, matching_count
from pfsym.models import (
    COSINE,
    SQUARE_DIFF,
    g_poly,
    kernel_array,
    position_polys,
    verify_theorem2,
    verify_theorem4,
)
from pfsym.pfaffian import (
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
from pfsym.permutations import Permutation, classify_runs, enumerate_sym
from pfsym.polyring import Poly, a, pos, x
from pfsym.symmetry import (
    SKEW_GENS,
    SYMMETRIC_GENS,
    act,
    dihedral_group,
    is_dihedral,
    pfaffian_symmetry_group,
    sym_of_g,
    symmetry_group,
)


@contextmanager
def criterion(num: int, budget: float, description: str):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:02d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE {num:02d} PASS ({elapsed:.2f}s, budget {budget:.0f}s): {description}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_matching_counts():
    with criterion(1, 5, "matching counts are (2n-1)!! and match the brute-force filter"):
        expected = {2: 1, 4: 3, 6: 15, 8: 105, 10: 945}
        for two_n, count in expected.items():
            assert matching_count(two_n) == count
            assert sum(1 for _ in enumerate_pfaff(two_n)) == count
        for two_n in (2, 4, 6, 8):
            n = two_n // 2
            brute = set()
            for images in itertools.permutations(range(1, two_n + 1)):
                pairs = [(images[2 * k], images[2 * k + 1]) for k in range(n)]
                if all(i < j for i, j in pairs) and all(
                    pairs[k][0] < pairs[k + 1][0] for k in range(n - 1)
                ):
                    brute.add(images)
            assert {m.flatten() for m, _ in enumerate_pfaff(two_n)} == brute


def test_criterion_02_pf4_golden():
    with criterion(2, 5, "symbolic 4-point pfaffian equals its three-term expansion"):
        expected = a(1, 2) * a(3, 4) - a(1, 3) * a(2, 4) + a(1, 4) * a(2, 3)
        assert generic_pfaffian(4) == expected


def test_criterion_03_hook_oracle():
    with criterion(3, 30, "hook expansions equal the direct pfaffian, 50 arrays per mode and size"):
        rng = random.Random(103)
        for two_n in (4, 6, 8):
            for mode, expand in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
                for _ in range(50):
                    arr = random_array(rng, two_n, mode)
                    direct = pfaffian_direct(arr)
                    for s in range(1, two_n + 1):
                        assert expand(arr, s) == direct


def test_criterion_04_skew_determinant_identity():
    with criterion(4, 10, "determinant equals pfaffian squared, 50 integer skew arrays per size"):
        rng = random.Random(104)
        for two_n in (2, 4, 6):
            for _ in range(50):
                arr = random_int_array(rng, two_n, SKEW)
                assert determinant(arr) == pfaffian_direct(arr) ** 2


def test_criterion_05_symmetry_group_is_dihedral():
    with criterion(5, 60, "brute-force Sym of the pfaffian equals <sigma, tau> at orders 4 and 6"):
        for two_n, order in ((4, 8), (6, 12)):
            report = symmetry_group(generic_pfaffian(two_n), two_n, SYMMETRIC_GENS)
            assert report.order == order
            assert is_dihedral(report, two_n)


def test_criterion_05_order_eight():
    with criterion(5, 300, "brute-force Sym at order 8 equals <sigma, tau> (order 16)"):
        report = symmetry_group(generic_pfaffian(8), 8, SYMMETRIC_GENS)
        assert report.order == 16
        assert is_dihedral(report, 8)
        fast = pfaffian_symmetry_group(8, SYMMETRIC_GENS)
        assert fast.elements == report.elements


def test_criterion_06_skew_action_sign_character():
    with criterion(6, 60, "every permutation maps the skew pfaffian to sign times itself"):
        for two_n in (2, 4, 6):
            pf = generic_pfaffian(two_n)
            for p in enumerate_sym(two_n):
                assert act(p, pf, SKEW_GENS) == (pf if p.sign == 1 else -pf)


def test_criterion_07_closed_form():
    with criterion(7, 30, "squared-difference pfaffian closed form, symbolic n<=3 and numeric n<=5"):
        for n in (1, 2, 3):
            two_n = 2 * n
            pf = pfaffian_direct(kernel_array(SQUARE_DIFF, position_polys(two_n)))
            assert pf == Fraction(-((-2) ** (n - 1))) * g_poly(two_n)
        expected_values = {1: 1, 2: -6, 3: 20, 4: -56, 5: 144}
        for n, value in expected_values.items():
            assert value == (-2) ** (n - 1) * (2 * n - 1)
            ints = [Fraction(i) for i in range(1, 2 * n + 1)]
            # exact evaluation, independent of the symbolic identity
            assert pfaffian_direct(kernel_array(SQUARE_DIFF, ints)) == value


def test_criterion_07_expensive_symbolic_n4():
    with criterion(7, 300, "squared-difference closed form, symbolic n=4"):
        pf = pfaffian_direct(kernel_array(SQUARE_DIFF, position_polys(8)))
        assert pf == Fraction(-((-2) ** 3)) * g_poly(8)


def test_criterion_08_collapse_identity():
    with criterion(8, 10, "collapse identity at every hook including wraparound, both kernels"):
        rng = random.Random(108)
        for two_n in (4, 6):
            xs_sym = position_polys(two_n)
            xs_num = [rng.uniform(-math.pi, math.pi) for _ in range(two_n)]
            for s in range(1, two_n + 1):
                assert verify_theorem2(SQUARE_DIFF, xs_sym, s).passed
                report = verify_theorem2(COSINE, xs_num, s, tol=1e-12)
                assert report.passed and report.residual <= 1e-12


def test_criterion_09_cosine_pfaffian():
    with criterion(9, 30, "cosine pfaffian equals cos of the alternating sum, 100 draws per order"):
        rng = random.Random(109)
        for n in range(1, 8):
            tol = 1e-12 if n <= 5 else 1e-10
            for _ in range(100):
                xs = [rng.uniform(-math.pi, math.pi) for _ in range(2 * n)]
                report = verify_theorem4(n, xs, tol=tol)
                assert report.passed, (n, report.residual)


def test_criterion_10_cycle_product_symmetry():
    with criterion(10, 30, "Sym of the cycle product is <sigma, tau>; run classifier matches membership"):
        for two_n, order in ((4, 8), (6, 12)):
            report = sym_of_g(two_n)
            assert report.order == order
            assert is_dihedral(report, two_n)
        for two_n in (4, 6, 8):
            members = {p.images for p in dihedral_group(two_n)}
            for p in enumerate_sym(two_n):
                assert classify_runs(p).is_dihedral == (p.images in members)


def test_criterion_11_squared_difference_determinants():
    with criterion(11, 5, "squared-difference determinants at sizes 2, 3, 4 match the cofactor oracle"):
        def entries(size):
            return {(i, j): (x(i) - x(j)) ** 2 for i, j in upper_pairs(size)}

        d2 = completed_determinant(2, SYMMETRIC, entries(2))
        # 2x2 oracle: det [[0, c], [c, 0]] = -c^2 with c = (x1-x2)^2
        assert d2 == -(((x(1) - x(2)) ** 2) ** 2)
        assert d2 == -((x(1) - x(2)) ** 4)
        d3 = completed_determinant(3, SYMMETRIC, entries(3))
        assert d3 == 2 * ((x(1) - x(2)) * (x(2) - x(3)) * (x(3) - x(1))) ** 2
        assert completed_determinant(4, SYMMETRIC, entries(4)) == Poly.zero()


def test_criterion_12_trig_sweeps():
    with criterion(12, 5, "both trigonometric identities pass 1000-case random sweeps"):
        from pfsym.models import verify_trig_lemma1, verify_trig_lemma2

        rng = random.Random(112)
        for _ in range(1000):
            args = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
            assert verify_trig_lemma1(*args, tol=1e-12).passed
        for _ in range(1000):
            k = rng.randint(1, 8)
            alphas = [rng.uniform(-math.pi, math.pi) for _ in range(k)]
            assert verify_trig_lemma2(alphas, tol=1e-12).passed
