import random

import pytest

from pfsym.backend import classify_pf_action
from pfsym.models import g_poly
from pfsym.pfaffian import generic_pfaffian
from pfsym.permutations import (
    Permutation,
    compose,
    dihedral_generators,
    enumerate_sym,
    generate_subgroup,
    identity,
)
from pfsym.polyring import Poly, a, x
from pfsym.symmetry import (
    SKEW_GENS,
    SYMMETRIC_GENS,
    _check_closure,
    _is_member,
    act,
    dihedral_group,
    is_dihedral,
    make_group_report,
    pfaffian_symmetry_group,
    sym_of_g,
    symmetry_group,
)

PF4 = generic_pfaffian(4)


def test_act_identity():
    assert act(identity(4), PF4, SYMMETRIC_GENS) == PF4


def test_act_uses_inverse_on_indices():
    # sigma = (2,3,4,1) sends a(1,2) to a(sigma^{-1}(1), sigma^{-1}(2)) = a(4,1) -> a(1,4)
    sigma, _ = dihedral_generators(4)
    assert act(sigma, a(1, 2), SYMMETRIC_GENS) == a(1, 4)


def test_act_reflection_fixes_pfaffian():
    assert act(Permutation([1, 4, 3, 2]), PF4, SYMMETRIC_GENS) == PF4


def test_act_reversal_fixes_pfaffian():
    assert act(Permutation([4, 3, 2, 1]), PF4, SYMMETRIC_GENS) == PF4


def test_act_transposition_negates_skew_pfaffian():
    assert act(Permutation([2, 1, 3, 4]), PF4, SKEW_GENS) == -PF4


def test_act_skew_sign_respects_exponents():
    # a(1,2)^2 picks up (-1)^2 = +1 under an index swap in skew mode
    swap = Permutation([2, 1])
    assert act(swap, a(1, 2) ** 2, SKEW_GENS) == a(1, 2) ** 2
    assert act(swap, a(1, 2), SKEW_GENS) == -a(1, 2)


def test_act_index_out_of_range():
    with pytest.raises(ValueError):
        act(Permutation([2, 1]), x(3), SYMMETRIC_GENS)
    with pytest.raises(ValueError):
        act(Permutation([2, 1]), a(1, 3), SYMMETRIC_GENS)
    with pytest.raises(ValueError):
        act(Permutation([2, 1]), a(1, 2), "weird")


def test_act_composition_law(rng):
    # with indices relabeled through the inverse, acting with p after q
    # telescopes to acting with compose(q, p)
    for m in (4, 5, 6):
        pool = [x(i) for i in range(1, m + 1)] + [a(1, 2), a(2, 3), a(1, m)]
        for _ in range(15):
            f = Poly.zero()
            for _ in range(3):
                f = f + rng.choice(pool) * rng.choice(pool) - 2 * rng.choice(pool)
            p = Permutation(rng.sample(range(1, m + 1), m))
            q = Permutation(rng.sample(range(1, m + 1), m))
            for mode in (SYMMETRIC_GENS, SKEW_GENS):
                assert act(p, act(q, f, mode), mode) == act(compose(q, p), f, mode)


def test_symmetry_group_pf4_dihedral():
    report = symmetry_group(PF4, 4, SYMMETRIC_GENS)
    assert report.order == 8
    assert report.equals_dihedral is True
    assert report.witness is None
    assert is_dihedral(report, 4)


def test_skew_symmetry_group_pf4_is_full():
    report = symmetry_group(PF4, 4, SKEW_GENS, signed=True)
    assert report.order == 24
    assert report.equals_dihedral is False
    assert report.witness is not None
    assert not is_dihedral(report, 4)


def test_symmetry_group_of_constant():
    report = symmetry_group(Poly.const(1), 3, SYMMETRIC_GENS)
    assert report.order == 6
    assert report.equals_dihedral is None


def test_symmetry_group_cap():
    with pytest.raises(ValueError):
        symmetry_group(PF4, 9, SYMMETRIC_GENS)


def test_symmetry_group_checks_indices_before_the_scan():
    with pytest.raises(ValueError, match=r"variable x3 outside the action on 1\.\.2"):
        symmetry_group(x(3), 2, SYMMETRIC_GENS)
    with pytest.raises(ValueError, match=r"variable a\(1,3\) outside the action on 1\.\.2"):
        symmetry_group(a(1, 3) + x(1), 2, SKEW_GENS)


def test_is_dihedral_examples():
    sigma, _ = dihedral_generators(6)
    cyclic = make_group_report(generate_subgroup([sigma]), 6)
    assert cyclic.order == 6
    assert not is_dihedral(cyclic, 6)
    with pytest.raises(ValueError):
        is_dihedral(cyclic, 4)


def test_group_report_requires_closure():
    sigma, tau = dihedral_generators(4)
    with pytest.raises(RuntimeError, match="closed"):
        make_group_report([identity(4), sigma, tau], 4)
    with pytest.raises(RuntimeError, match="identity"):
        make_group_report([sigma], 4)


def test_group_report_rejects_repeated_members():
    # the order counts members, so a repeat would report order 3 here
    with pytest.raises(ValueError, match=r"repeats Permutation\(\[1, 2\]\)"):
        make_group_report([identity(2), identity(2), Permutation([2, 1])], 2)


def _closed_pairwise(images):
    """The definition: every product a o b of two members is a member, O(|G|^2)."""
    return all(tuple(a[v - 1] for v in b) in images for a in images for b in images)


def _certified(images):
    try:
        _check_closure(images)
    except RuntimeError:
        return False
    return True


S4 = [p.images for p in enumerate_sym(4)]


def test_closure_certificate_matches_pairwise_oracle_on_random_subsets():
    rng = random.Random(4)
    closed = 0
    for _ in range(2000):
        images = {S4[0], *rng.sample(S4[1:], rng.randint(0, 23))}
        expected = _closed_pairwise(images)
        closed += expected
        assert _certified(images) == expected, sorted(images)
    assert closed >= 1


def test_closure_certificate_matches_pairwise_oracle_on_two_generator_subgroups():
    rng = random.Random(5)
    for a in S4:
        for b in S4:
            group = {p.images for p in generate_subgroup([Permutation(a), Permutation(b)])}
            assert _closed_pairwise(group) and _certified(group)
            outside = [c for c in S4 if c not in group]
            if outside:
                bigger = group | {rng.choice(outside)}
                assert not _closed_pairwise(bigger) and not _certified(bigger)


@pytest.fixture(scope="module")
def s8():
    return list(enumerate_sym(8))


def test_group_report_certifies_s8_and_a8(s8):
    assert make_group_report(s8, 8).order == 40320
    a8 = [p for p in s8 if p.sign == 1]
    report = make_group_report(a8, 8)
    assert report.order == 20160 and report.equals_dihedral is False


def test_group_report_rejects_s8_minus_one_element(s8):
    # a sampled closure check (100 000 random pairs, seed 0) accepts this set
    missing = Permutation([1, 2, 8, 6, 4, 3, 7, 5])
    with pytest.raises(RuntimeError, match="not closed"):
        make_group_report([p for p in s8 if p != missing], 8)


def test_group_report_json():
    report = symmetry_group(PF4, 4, SYMMETRIC_GENS)
    obj = report.to_json_obj()
    assert obj["order"] == 8
    assert obj["equals_dihedral"] is True
    assert obj["witness"] is None
    assert len(obj["elements"]) == 8
    assert obj["elements"][0] == [1, 2, 3, 4]


def test_dihedral_invariance_exhaustive():
    for two_n in (2, 4, 6, 8):
        pf = generic_pfaffian(two_n)
        for d in dihedral_group(two_n):
            assert act(d, pf, SYMMETRIC_GENS) == pf


def test_skew_action_is_sign_character():
    for two_n in (2, 4, 6):
        pf = generic_pfaffian(two_n)
        for p in enumerate_sym(two_n):
            expected = pf if p.sign == 1 else -pf
            assert act(p, pf, SKEW_GENS) == expected


def test_theorem_groups_at_orders_four_and_six():
    for two_n in (4, 6):
        report = symmetry_group(generic_pfaffian(two_n), two_n, SYMMETRIC_GENS)
        assert report.order == 2 * two_n
        assert is_dihedral(report, two_n)


def test_sym_of_g_examples():
    assert sym_of_g(2).order == 2
    report4 = sym_of_g(4)
    assert report4.order == 8 and report4.equals_dihedral is True
    report6 = sym_of_g(6)
    assert report6.order == 12 and report6.equals_dihedral is True


def test_classifier_matches_polynomial_action_exhaustively():
    for two_n in (4, 6):
        pf = generic_pfaffian(two_n)
        for skew, mode in ((False, SYMMETRIC_GENS), (True, SKEW_GENS)):
            for p in enumerate_sym(two_n):
                image = act(p, pf, mode)
                if image == pf:
                    expected = 1
                elif image == -pf:
                    expected = -1
                else:
                    expected = 0
                assert classify_pf_action(two_n, p, skew) == expected, (p, mode)


def test_fast_group_matches_generic():
    for two_n in (4, 6):
        for mode in (SYMMETRIC_GENS, SKEW_GENS):
            for signed in (False, True):
                fast = pfaffian_symmetry_group(two_n, mode, signed=signed)
                slow = symmetry_group(generic_pfaffian(two_n), two_n, mode, signed=signed)
                assert fast.elements == slow.elements


def test_zero_polynomial_is_fixed_by_everything():
    report = symmetry_group(Poly.zero(), 4, SKEW_GENS)
    assert report.order == 24


def _classifier_group(two_n, skew, signed):
    """The definition: scan all of S_two_n with the matching classifier."""
    return tuple(
        p for p in enumerate_sym(two_n)
        if classify_pf_action(two_n, p, skew) == (p.sign if signed else 1)
    )


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_pfaffian_symmetry_group_matches_classifier_scan(two_n):
    # the cut search on symmetric generators, the sign character on skew ones
    modes = [(SYMMETRIC_GENS, False)] + ([(SKEW_GENS, True)] if two_n <= 6 else [])
    for mode, skew in modes:
        for signed in (False, True):
            got = pfaffian_symmetry_group(two_n, mode, signed=signed).elements
            assert got == _classifier_group(two_n, skew, signed), (mode, signed)


def test_cut_search_finds_the_dihedral_group_past_the_scan():
    for two_n in range(10, 33, 2):
        report = pfaffian_symmetry_group(two_n, SYMMETRIC_GENS)
        assert report.order == 2 * two_n and report.equals_dihedral is True
        assert is_dihedral(report, two_n)
        signed = pfaffian_symmetry_group(two_n, SYMMETRIC_GENS, signed=True)
        even = tuple(p for p in dihedral_group(two_n) if p.sign == 1)
        assert signed.elements == even


def test_pfaffian_symmetry_group_validation():
    for two_n in (0, 3, 9):
        with pytest.raises(ValueError, match="even"):
            pfaffian_symmetry_group(two_n, SYMMETRIC_GENS)
    with pytest.raises(ValueError, match="cap"):
        pfaffian_symmetry_group(10, SKEW_GENS)
    with pytest.raises(ValueError, match="mode"):
        pfaffian_symmetry_group(4, "weird")


def _acts_as(p, f, mode, signed):
    """The definition: build the whole image and compare it with +-f."""
    return act(p, f, mode) == (-f if signed and p.sign == -1 else f)


def _twisted_sum(f, group, mode, signed):
    """sum of (sgn h if signed) * act(h, f) over the group: fixed, up to sign, by it."""
    out = Poly.zero()
    for h in group:
        image = act(h, f, mode)
        out = out - image if signed and h.sign == -1 else out + image
    return out


def _bump_last(f):
    """f with the coefficient of the monomial a scan visits last doubled."""
    terms = dict(f._terms)
    last = list(terms)[-1]
    terms[last] *= 2
    bumped = Poly(terms)
    assert list(bumped._terms)[-1] == last
    return bumped


def _membership_cases(m, rng):
    """Seeded random polynomials in the variables of S_m, and pf and g when m is even."""
    pool = [x(i) for i in range(1, m + 1)] + [a(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    for _ in range(6):
        f = Poly.zero()
        for _ in range(rng.randint(1, 4)):
            f = f + rng.randint(-3, 3) * rng.choice(pool) * rng.choice(pool)
        yield f
    if m % 2 == 0:
        yield generic_pfaffian(m)
        yield g_poly(m)


@pytest.mark.parametrize("m", [4, 5])
def test_early_exit_membership_matches_full_image(m):
    rng = random.Random(100 + m)
    sm = list(enumerate_sym(m))
    subgroups = [
        dihedral_group(m) if m % 2 == 0 else generate_subgroup([Permutation([*range(2, m + 1), 1])]),
        generate_subgroup([Permutation([2, 1, *range(3, m + 1)]), Permutation([1, 2, *range(4, m + 1), 3])]),
    ]

    def check(poly, mode, signed):
        want = tuple(p for p in sm if _acts_as(p, poly, mode, signed))
        got = tuple(p for p in sm if _is_member(p, poly, mode == SKEW_GENS, signed))
        assert got == want, (poly, mode, signed)
        assert symmetry_group(poly, m, mode, signed).elements == want
        return want

    nontrivial = last_decides = 0
    for f in _membership_cases(m, rng):
        for mode in (SYMMETRIC_GENS, SKEW_GENS):
            for signed in (False, True):
                nontrivial += len(check(f, mode, signed)) > 1
                for group in subgroups:
                    fixed = _twisted_sum(f, group, mode, signed)
                    if fixed:
                        whole = check(fixed, mode, signed)
                        nontrivial += len(whole) > 1
                        # members of `fixed` that move the last monomial fail only there
                        last_decides += len(check(_bump_last(fixed), mode, signed)) < len(whole)
    assert nontrivial >= 30 and last_decides >= 5, (nontrivial, last_decides)
