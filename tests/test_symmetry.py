import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from pf_oracles import pair_colours
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
    images_sign,
)
from pfsym.polyring import Poly, a, gen, pos, x
from pfsym import symmetry
from pfsym.symmetry import (
    SKEW_GENS,
    SYMMETRIC_GENS,
    _check_closure,
    _is_member,
    _pair_colours,
    act,
    dihedral_group,
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


def test_act_matches_evaluation_at_a_relabeled_point(rng):
    # act(p, f) at a point is f at the point relabeled through q = p^{-1},
    # with a(u, w) read below the diagonal as a(w, u), or as -a(w, u) on
    # skew generators: an oracle that shares nothing with `_relabel`.  The
    # odd exponents 3 and 5 across a reversed pair carry the skew sign
    m = 5
    f = 3 * a(1, 2) ** 3 * a(2, 4) + a(1, 5) ** 5 * x(2) - 2 * a(3, 4) ** 3 * a(2, 5) ** 2 + x(1) ** 3 * a(4, 5)
    point = {pos(i): Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for i in range(1, m + 1)}
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    point |= {gen(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for i, j in pairs}
    for _ in range(20):
        p = Permutation(rng.sample(range(1, m + 1), m))
        q = p.inverse().images
        for mode, below in ((SYMMETRIC_GENS, 1), (SKEW_GENS, -1)):
            def entry(u, w):
                return point[gen(u, w)] if u < w else below * point[gen(w, u)]

            moved = {pos(i): point[pos(q[i - 1])] for i in range(1, m + 1)}
            moved |= {gen(i, j): entry(q[i - 1], q[j - 1]) for i, j in pairs}
            assert act(p, f, mode).eval_rational(point) == f.eval_rational(moved), (p, mode)


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


def test_skew_symmetry_group_pf4_is_full():
    report = symmetry_group(PF4, 4, SKEW_GENS, signed=True)
    assert report.order == 24
    assert report.equals_dihedral is False
    assert report.witness is not None


def test_symmetry_group_of_constant():
    report = symmetry_group(Poly.const(1), 3, SYMMETRIC_GENS)
    assert report.order == 6
    assert report.equals_dihedral is None


def test_symmetry_group_cap():
    with pytest.raises(ValueError, match="^m=9 exceeds the enumeration cap 8$"):
        symmetry_group(PF4, 9, SYMMETRIC_GENS)
    with pytest.raises(ValueError, match="^m must be >= 1, got 0$"):
        symmetry_group(Poly.const(1), 0, SYMMETRIC_GENS)


def test_symmetry_group_checks_indices_before_the_scan():
    with pytest.raises(ValueError, match=r"variable x3 outside the action on 1\.\.2"):
        symmetry_group(x(3), 2, SYMMETRIC_GENS)
    with pytest.raises(ValueError, match=r"variable a\(1,3\) outside the action on 1\.\.2"):
        symmetry_group(a(1, 3) + x(1), 2, SKEW_GENS)


def test_is_dihedral_examples():
    sigma, _ = dihedral_generators(6)
    cyclic = make_group_report(generate_subgroup([sigma]), 6)
    assert cyclic.order == 6
    assert cyclic.equals_dihedral is False


def test_group_report_requires_closure():
    sigma, tau = dihedral_generators(4)
    with pytest.raises(RuntimeError, match="closed"):
        make_group_report([identity(4), sigma, tau], 4)
    with pytest.raises(RuntimeError, match="identity"):
        make_group_report([sigma], 4)


def test_closure_names_an_escaping_pair():
    # on random sets that are not closed, the refusal names a member g and
    # a permutation h of the same size whose product g o h (k -> g(h(k)))
    # is not a member
    rng = random.Random(3)
    for m in (3, 4, 5):
        every = [p.images for p in enumerate_sym(m)]
        for _ in range(100):
            members = {identity(m).images, *rng.sample(every, rng.randint(1, 6))}
            try:
                _check_closure(members, sorted(members))
            except RuntimeError as refusal:
                named = re.fullmatch(r"symmetry set is not closed: (\(.*\)) o (\(.*\)) escapes", str(refusal))
                g, h = (tuple(map(int, t.strip("()").split(", "))) for t in named.groups())
                assert g in members and sorted(h) == list(range(1, m + 1)), (members, g, h)
                assert tuple(g[k - 1] for k in h) not in members


def test_group_report_rejects_repeated_members():
    # the order counts members, so a repeat would report order 3 here; the
    # message names the repeated member, not the first one listed
    with pytest.raises(ValueError, match=r"repeats Permutation\(\[1, 2\]\)"):
        make_group_report([identity(2), identity(2), Permutation([2, 1])], 2)
    with pytest.raises(ValueError, match=r"repeats Permutation\(\[2, 1\]\)"):
        make_group_report([Permutation([2, 1]), identity(2), Permutation([2, 1])], 2)


def test_group_report_compares_with_d2():
    # at m = 2 the reflection tau is the identity, so <sigma, tau> is S_2
    assert make_group_report(list(enumerate_sym(2)), 2).equals_dihedral is True
    trivial = make_group_report([identity(2)], 2)
    assert trivial.equals_dihedral is False and trivial.witness == Permutation([2, 1])


def test_dihedral_group_equals_the_closure_of_its_generators():
    for m in range(2, 17, 2):
        assert dihedral_group(m) == generate_subgroup(list(dihedral_generators(m))), m
    for m in (0, 5):
        with pytest.raises(ValueError, match=f"^two_n must be even and >= 2, got {m}$"):
            dihedral_group(m)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_group_report_witness_is_the_least_difference_from_the_closure(m):
    # the cyclic group <sigma> lies inside <sigma, tau>; A_m and S_m contain it
    sigma, tau = dihedral_generators(m)
    closure = {p.images for p in generate_subgroup([sigma, tau])}
    sm = list(enumerate_sym(m))
    for group in (generate_subgroup([sigma]), [p for p in sm if p.sign == 1], sm):
        report = make_group_report(group, m)
        assert report.order == len(group) and report.equals_dihedral is False
        assert report.witness.images == min({p.images for p in group} ^ closure)


def _closed_pairwise(images):
    """The definition: every product a o b of two members is a member, O(|G|^2)."""
    return all(tuple(a[v - 1] for v in b) in images for a in images for b in images)


def _certified(images):
    try:
        _check_closure(images, sorted(images))
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
        assert report.equals_dihedral is True


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
        signed = pfaffian_symmetry_group(two_n, SYMMETRIC_GENS, signed=True)
        even = tuple(p for p in dihedral_group(two_n) if p.sign == 1)
        assert signed.elements == even


def sign_list_mismatches():
    """The m in 1..8 for which `_lex_signs(m)` differs from `images_sign`
    of the rows of itertools.permutations(1..m), in the order it yields them."""
    return [
        m for m in range(1, 9)
        if symmetry._lex_signs(m) != [images_sign(q) for q in itertools.permutations(range(1, m + 1))]
    ]


def skew_group_mismatches():
    """The (m, signed), m = 2..8 even, for which the skew
    `pfaffian_symmetry_group` lists other elements than the filter of
    `enumerate_sym` by each element's sign; a refusal of
    `make_group_report` counts as a mismatch."""
    bad = []
    for m in range(2, 9, 2):
        for signed in (False, True):
            want = tuple(p for p in enumerate_sym(m) if signed or p.sign == 1)
            try:
                got = symmetry.pfaffian_symmetry_group(m, SKEW_GENS, signed).elements
            except RuntimeError:
                got = None
            if got != want:
                bad.append((m, signed))
    return bad


def test_lexicographic_signs_match_the_sign_of_each_permutation():
    assert sign_list_mismatches() == []
    assert skew_group_mismatches() == []


def test_skew_pfaffian_group_checks_the_cap_before_listing():
    # a sign list built before the cap would hold 10! entries at m = 10
    # (and 12! at m = 12, which comes second); the refusal allocates
    # next to nothing
    for two_n in (10, 12):
        for signed in (False, True):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"^m={two_n} exceeds the enumeration cap 8$"):
                    pfaffian_symmetry_group(two_n, SKEW_GENS, signed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (two_n, signed, peak)


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
    """f with the coefficient of the monomial the membership test visits last doubled."""
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


def _scan(poly, m, mode, signed):
    """The oracle: every q = p^{-1} in S_m through the early-exit membership test."""
    skew = mode == SKEW_GENS
    found = [q for q in itertools.permutations(range(1, m + 1)) if _is_member(q, poly, skew, signed)]
    return tuple(sorted(Permutation(q).inverse() for q in found))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_early_exit_membership_matches_full_image(m):
    rng = random.Random(100 + m)
    sm = list(enumerate_sym(m))
    subgroups = [
        dihedral_group(m) if m % 2 == 0 else generate_subgroup([Permutation([*range(2, m + 1), 1])]),
        generate_subgroup([Permutation([2, 1, *range(3, m + 1)]), Permutation([1, 2, *range(4, m + 1), 3])]),
    ]

    def check(poly, mode, signed):
        want = _scan(poly, m, mode, signed)
        if m <= 5:  # building every image is the costly part of the oracle
            assert want == tuple(p for p in sm if _acts_as(p, poly, mode, signed)), (poly, mode, signed)
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


@pytest.mark.parametrize("m", [4, 5])
def test_pair_colours_are_invariant_under_members(m):
    # w[q i][q j] = w[i][j] for every member p = q^{-1}: a colour never splits a member
    rng = random.Random(200 + m)
    for f in _membership_cases(m, rng):
        for mode in (SYMMETRIC_GENS, SKEW_GENS):
            for signed in (False, True):
                w = _pair_colours(f, m, mode == SKEW_GENS, signed)
                for p in _scan(f, m, mode, signed):
                    q = p.inverse().images
                    assert all(w[q[i] - 1][q[j] - 1] == w[i][j] for i in range(m) for j in range(m))


# generator-free, generator-only and mixed polynomials: each term takes its
# variables from the families named by one entry of its polynomial's kind
TERM_KINDS = (("x",), ("a",), ("x", "a", "xa"))
COEFFS = (-3, -2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2, 3)


def _colour_cases(rng, m):
    """Seeded random polynomials in the variables of S_m, four of each
    kind in TERM_KINDS, with exponents 1..3, coefficients from COEFFS and
    sometimes a constant term; and pf and g when m is even."""
    pools = {"x": [x(i) for i in range(1, m + 1)]}
    pools["a"] = [a(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    for kinds in TERM_KINDS:
        for _ in range(4):
            f = Poly.const(rng.randint(-2, 2))
            for _ in range(rng.randint(1, 5)):
                term = Poly.const(rng.choice(COEFFS))
                for family in rng.choice(kinds):
                    pool = pools[family]
                    for v in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
                        term = term * v ** rng.randint(1, 3)
                f = f + term
            yield f
    if m % 2 == 0:
        yield generic_pfaffian(m)
        yield g_poly(m)


def colour_mismatches(rng):
    """The (m, skew, signed, poly), m = 2..8, on which `_pair_colours`
    differs from the one-path oracle `pf_oracles.pair_colours`, int for int."""
    bad = []
    for m in range(2, 9):
        for f in _colour_cases(rng, m):
            for skew in (False, True):
                for signed in (False, True):
                    if symmetry._pair_colours(f, m, skew, signed) != pair_colours(f, m, skew, signed):
                        bad.append((m, skew, signed, f))
    return bad


def test_pair_colours_equal_the_one_path_oracle():
    # the short path of a monomial with no a(.,.) adds the same hashes as
    # the general path, so the tables, and the search trees, are the same
    assert colour_mismatches(random.Random(34)) == []


def test_backtrack_matches_the_scan_at_order_eight():
    for poly in (g_poly(8), generic_pfaffian(8)):
        assert symmetry_group(poly, 8, SYMMETRIC_GENS).elements == _scan(poly, 8, SYMMETRIC_GENS, False)


@pytest.fixture
def membership_tests(monkeypatch):
    """A counter of the membership tests that symmetry_group makes."""
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _is_member(*args)

    monkeypatch.setattr(symmetry, "_is_member", counted)
    return calls


def test_skew_pfaffian_at_order_eight_is_a8(membership_tests):
    # the sign character: pf(P^T A P) = det P pf A, listed in closed form
    got = symmetry_group(generic_pfaffian(8), 8, SKEW_GENS)
    assert got.elements == pfaffian_symmetry_group(8, SKEW_GENS).elements
    assert got.order == 20160
    assert len(membership_tests) < 50  # a scan makes 40320


def test_backtrack_prunes_membership_tests(membership_tests):
    # a scan of S_6 makes 720 tests
    for signed in (False, True):
        membership_tests.clear()
        symmetry_group(generic_pfaffian(6), 6, SKEW_GENS, signed)
        assert len(membership_tests) < 50, signed
    membership_tests.clear()
    assert symmetry_group(g_poly(6), 6, SYMMETRIC_GENS).order == 12
    assert len(membership_tests) <= 12


def _random_subgroup(rng, m):
    """A random cyclic subgroup of S_m, or the dihedral group of a random
    k-gon on k of the m points (k >= 3), each vertex a random point."""
    if m < 3 or rng.random() < 0.5:
        return generate_subgroup([Permutation(rng.sample(range(1, m + 1), m))])
    corners = rng.sample(range(1, m + 1), rng.randint(3, m))
    rotation, reflection = list(range(1, m + 1)), list(range(1, m + 1))
    for t, c in enumerate(corners):
        rotation[c - 1] = corners[(t + 1) % len(corners)]
        reflection[c - 1] = corners[-t]
    return generate_subgroup([Permutation(rotation), Permutation(reflection)])


def _symmetrized(rng, m, mode, signed):
    """A sum of a few random monomials in x_1..x_m and the a(i, j), with
    exponents 1..4, summed over the images under a random subgroup, each
    odd image negated when `signed`, so that the subgroup acts on it as
    Sym or SSym asks."""
    pool = [x(i) for i in range(1, m + 1)] + [a(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    seed = Poly.zero()
    for _ in range(rng.randint(1, 3)):
        term = Poly.const(rng.choice((-3, -1, 1, 2, 4)))
        for v in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
            term = term * v ** rng.randint(1, 4)
        seed = seed + term
    total = Poly.zero()
    for h in _random_subgroup(rng, m):
        image = act(h, seed, mode)
        total = total - image if signed and h.sign == -1 else total + image
    return total


# (m, cases per mode and sign): the S_m scan costs m! actions per case
GROUP_CASES = ((2, 3), (3, 4), (4, 5), (5, 5), (6, 3), (7, 1))


def group_mismatches(rng):
    """The (m, mode, signed, poly) of each random symmetrized polynomial on
    which `symmetry_group` differs from the definition, the scan of S_m by
    `act`, in both generator modes, signed and not."""
    bad = []
    for m, cases in GROUP_CASES:
        for mode in (SYMMETRIC_GENS, SKEW_GENS):
            for signed in (False, True):
                for _ in range(cases):
                    f = _symmetrized(rng, m, mode, signed)
                    scan = tuple(
                        p for p in enumerate_sym(m) if act(p, f, mode) == (-f if signed and p.sign == -1 else f)
                    )
                    if symmetry.symmetry_group(f, m, mode, signed=signed).elements != scan:
                        bad.append((m, mode, signed, f))
    return bad


def test_symmetry_group_matches_the_scan_on_random_symmetrized_polynomials():
    # the coset pruning meets groups of every shape, not only the
    # structured ones of g and the generic pfaffian
    assert group_mismatches(random.Random(17)) == []
    f = 4 * x(2) ** 2 * x(5) ** 4 + 4 * x(2) ** 4 * x(4) ** 2 + 4 * x(4) ** 4 * x(5) ** 2
    assert symmetry_group(f, 5, SYMMETRIC_GENS).order == 6


# (poly, m, mode, signed, membership tests of the search): weaker coset
# pruning tests more leaves and still finds the same group, so only these
# counts see it
WORK_PINS = (
    (act(Permutation([3, 1, 5, 2, 6, 4]), g_poly(6), SYMMETRIC_GENS), 6, SYMMETRIC_GENS, False, 3),
    (generic_pfaffian(6), 6, SYMMETRIC_GENS, False, 15),
    (generic_pfaffian(6), 6, SYMMETRIC_GENS, True, 19),
    (generic_pfaffian(6), 6, SKEW_GENS, False, 9),
    (Poly.const(1), 6, SYMMETRIC_GENS, False, 5),
)


def membership_test_counts():
    """The `_is_member` calls of `symmetry.symmetry_group`, as bound now,
    on each WORK_PINS case."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _is_member(*args)

    counts = []
    with pytest.MonkeyPatch.context() as patch:
        # a search rebuilt from its source looks `_is_member` up in its own namespace
        patch.setitem(symmetry.symmetry_group.__globals__, "_is_member", counted)
        for poly, m, mode, signed, _ in WORK_PINS:
            calls = 0
            symmetry.symmetry_group(poly, m, mode, signed)
            counts.append(calls)
    return counts


def test_backtrack_work_is_pinned():
    assert membership_test_counts() == [pin[-1] for pin in WORK_PINS]
