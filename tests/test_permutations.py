import itertools
import random
import re

import pytest

from pf_oracles import inversion_sign, run_shapes
from pfsym.permutations import (
    NOT_DIHEDRAL,
    ONE_DOWN_RUN,
    ONE_UP_RUN,
    TWO_DOWN_RUNS,
    TWO_UP_RUNS,
    Permutation,
    add_generator,
    classify_runs,
    compose,
    dihedral_generators,
    enumerate_sym,
    generate_subgroup,
    identity,
    inverse,
    sign,
)


def P(*images):
    return Permutation(images)


def test_constructor_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([2, 3])


def test_compose_identity():
    p = P(3, 1, 2)
    assert compose(identity(3), p) == p
    assert compose(p, identity(3)) == p


def test_compose_involution():
    assert compose(P(2, 1), P(2, 1)) == P(1, 2)


def test_compose_three_cycle():
    assert compose(P(2, 3, 1), P(2, 3, 1)) == P(3, 1, 2)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(P(2, 1), P(1, 2, 3))


def test_sign_examples():
    assert sign(identity(4)) == 1
    assert sign(P(2, 1, 3, 4)) == -1
    # (1,4,2,3) has exactly two inversions
    assert sign(P(1, 4, 2, 3)) == 1


def sign_mismatches():
    """The images, over all of S_1 ... S_7, on which `Permutation.sign`
    differs from the inversion count."""
    return [
        images
        for m in range(1, 8)
        for images in itertools.permutations(range(1, m + 1))
        if Permutation(images).sign != inversion_sign(images)
    ]


def test_sign_matches_the_inversion_count_on_s1_to_s7():
    assert sign_mismatches() == []


def test_sign_multiplicative_exhaustive_small():
    for m in (2, 3, 4, 5):
        perms = list(enumerate_sym(m))
        for p in perms:
            for q in perms:
                assert sign(compose(p, q)) == sign(p) * sign(q)


def test_inverse_examples():
    assert inverse(identity(3)) == identity(3)
    assert inverse(P(2, 3, 1)) == P(3, 1, 2)
    # the reflection is an involution
    assert inverse(P(1, 4, 3, 2)) == P(1, 4, 3, 2)


def test_a_permutation_maps_its_points_and_orders_by_images():
    p = P(3, 1, 2)
    assert [p(k) for k in (1, 2, 3)] == [3, 1, 2]
    for k in (0, 4):
        with pytest.raises(IndexError, match=f"^point {k} outside 1..3$"):
            p(k)
    # the order of the one-line images, strict
    assert P(3, 1, 2) < P(3, 2, 1) and not P(3, 2, 1) < P(3, 1, 2) and not p < p


def test_inverse_defining_equation_and_involution(rng):
    for _ in range(50):
        m = rng.randint(1, 8)
        p = Permutation(rng.sample(range(1, m + 1), m))
        assert compose(p, inverse(p)) == identity(m)
        assert inverse(inverse(p)) == p


def test_compose_associative_randomized(rng):
    for _ in range(50):
        m = rng.randint(1, 8)
        p, q, r = (Permutation(rng.sample(range(1, m + 1), m)) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_enumerate_sym_counts_and_order():
    assert len(list(enumerate_sym(1))) == 1
    perms = list(enumerate_sym(3))
    assert len(perms) == 6
    assert perms[0] == P(1, 2, 3)
    assert perms[-1] == P(3, 2, 1)
    assert perms == sorted(perms)
    assert len(list(enumerate_sym(4))) == 24


def test_enumerate_sym_cap():
    with pytest.raises(ValueError):
        list(enumerate_sym(10))


def test_dihedral_generators_examples():
    sigma, tau = dihedral_generators(4)
    assert sigma == P(2, 3, 4, 1)
    assert tau == P(1, 4, 3, 2)
    sigma2, tau2 = dihedral_generators(2)
    assert sigma2 == P(2, 1)
    assert tau2 == P(1, 2)
    _, tau6 = dihedral_generators(6)
    assert tau6 == P(1, 6, 5, 4, 3, 2)
    with pytest.raises(ValueError):
        dihedral_generators(5)


def test_generate_subgroup_edges():
    assert generate_subgroup([], size=3) == [identity(3)]
    with pytest.raises(ValueError):
        generate_subgroup([])
    with pytest.raises(ValueError):
        generate_subgroup([P(2, 1), P(1, 2, 3)])
    sigma, _ = dihedral_generators(6)
    assert len(generate_subgroup([sigma])) == 6


def test_generate_subgroup_transposition_and_cycle_give_s6():
    group = generate_subgroup([P(2, 1, 3, 4, 5, 6), P(2, 3, 4, 5, 6, 1)])
    assert group == list(enumerate_sym(6))


def test_add_generator_checks_every_new_element():
    # S_4 without any one element x: adding the members in sorted order as
    # generators must meet a product outside the set, wherever x lies in
    # its coset, and the refusal names a and b with a o b = x
    s4 = {p.images for p in enumerate_sym(4)}
    for x in sorted(s4 - {identity(4).images}):
        inside = s4 - {x}
        group, gens = {identity(4).images}, []
        with pytest.raises(RuntimeError) as refusal:
            for g in sorted(inside):
                add_generator(group, gens, g, inside=inside)
        named = re.fullmatch(r"symmetry set is not closed: (\(.*\)) o (\(.*\)) escapes", str(refusal.value))
        a, b = (Permutation(map(int, t.strip("()").split(", "))) for t in named.groups())
        assert compose(a, b).images == x


def test_add_generator_returns_what_it_adds():
    # on generator lists drawn from S_5 and S_6, with and without a closed
    # `inside`, the returned list is the growth of the group, each element
    # once, and a member already reached adds nothing
    rng = random.Random(35)
    for m in (5, 6):
        every = [p.images for p in enumerate_sym(m)]
        for _ in range(30):
            group, gens = {identity(m).images}, []
            inside = set(every) if rng.random() < 0.5 else None
            for g in rng.sample(every, rng.randint(1, 4)):
                before, spanning = set(group), list(gens)
                added = add_generator(group, gens, g, inside=inside)
                assert len(added) == len(set(added)) and set(added) == group - before, (spanning, g)
                spanning += [g] if added else []
                assert gens == spanning
                reached = set(group)
                assert add_generator(group, gens, rng.choice(sorted(group)), inside=inside) == []
                assert group == reached and gens == spanning


def test_dihedral_subgroup_orders():
    for m in (2, 4, 6, 8):
        group = generate_subgroup(list(dihedral_generators(m)))
        expected = 2 if m == 2 else 2 * m
        assert len(group) == expected
        assert group == sorted(set(group))


def test_classify_runs_examples():
    assert classify_runs(P(1, 2, 3, 4)).kind == ONE_UP_RUN
    assert classify_runs(P(4, 3, 2, 1)).kind == ONE_DOWN_RUN
    r = classify_runs(P(3, 4, 1, 2))
    assert (r.kind, r.split) == (TWO_UP_RUNS, 3)
    r = classify_runs(P(2, 1, 4, 3))
    assert (r.kind, r.split) == (TWO_DOWN_RUNS, 2)
    assert classify_runs(P(1, 3, 2, 4)).kind == NOT_DIHEDRAL
    with pytest.raises(ValueError):
        classify_runs(P(2, 3, 1))


def test_classify_runs_one_run_wins_ties():
    # at m=2 the reversal also matches the two-up shape; report it as one down-run
    assert classify_runs(P(2, 1)).kind == ONE_DOWN_RUN
    assert classify_runs(P(1, 2)).kind == ONE_UP_RUN


def test_classify_runs_matches_the_run_shapes_on_s0_to_s8():
    for m in range(0, 9, 2):
        shapes = run_shapes(m)
        for images in itertools.permutations(range(1, m + 1)):
            r = classify_runs(Permutation(images))
            assert (r.kind, r.split) == shapes.get(images, ("not-dihedral", None)), images


def test_classify_matches_subgroup_membership_exhaustively():
    for m in (4, 6, 8):
        members = {p.images for p in generate_subgroup(list(dihedral_generators(m)))}
        for images in itertools.permutations(range(1, m + 1)):
            p = Permutation(images)
            assert classify_runs(p).is_dihedral == (images in members), images


def test_permutation_json():
    assert P(1, 4, 3, 2).to_json() == [1, 4, 3, 2]
