"""The benchmark's oracles, checked against hand-derived values.

    python3 -m pytest perfbench/tests -q
"""
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracles  # noqa: E402


def random_entries(rng, size):
    return {p: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for p in oracles.upper_pairs(size)}


def test_reference_pfaffian_matches_the_three_terms_of_pf4():
    rng = random.Random(4)
    for _ in range(20):
        a = random_entries(rng, 4)
        expected = a[1, 2] * a[3, 4] - a[1, 3] * a[2, 4] + a[1, 4] * a[2, 3]
        assert oracles.reference_pfaffian(a, (1, 2, 3, 4)) == expected


def test_reference_pfaffian_small_orders():
    assert oracles.reference_pfaffian({}, ()) == 1
    assert oracles.reference_pfaffian({(1, 2): Fraction(5, 3)}, (1, 2)) == Fraction(5, 3)


def test_matchings_count_and_signs_agree_with_the_reference_sum():
    rng = random.Random(6)
    a = random_entries(rng, 6)
    terms = oracles.matchings(6)
    assert len(terms) == 15
    total = sum(sign * math.prod(a[p] for p in pairs) for sign, pairs in terms)
    assert total == oracles.reference_pfaffian(a, tuple(range(1, 7)))


def test_exact_det_is_pf_squared_on_skew_arrays():
    rng = random.Random(8)
    for size in (2, 4, 6):
        a = random_entries(rng, size)
        det = oracles.exact_det(oracles.completed_matrix(size, True, a))
        assert det == oracles.reference_pfaffian(a, tuple(range(1, size + 1))) ** 2


def test_exact_det_small_cases():
    assert oracles.exact_det([[Fraction(1, 2), Fraction(3)], [Fraction(4), Fraction(5)]]) == Fraction(-19, 2)
    # a zero leading pivot needs a row swap
    assert oracles.exact_det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert oracles.exact_det([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]) == 0


def test_closed_forms_at_order_two():
    # pf of a 2x2 array is its one entry
    xs = [0.3, -1.1]
    assert math.isclose(oracles.cosine_closed_form(xs), math.cos(xs[0] - xs[1]))
    point = {1: Fraction(2, 3), 2: Fraction(-5)}
    assert oracles.square_diff_closed_form((1, 2), point) == (point[1] - point[2]) ** 2


def test_eval_terms_reads_the_json_term_format():
    terms = [
        {"coeff": "-2", "vars": [["x", 1, 2], ["a", 1, 3, 1]]},
        {"coeff": "1/2", "vars": []},
    ]
    point = {("x", 1): Fraction(3), ("a", 1, 3): Fraction(1, 4)}
    assert oracles.eval_terms(terms, point) == -2 * 9 * Fraction(1, 4) + Fraction(1, 2)


def closure(gens):
    group = {tuple(range(1, len(gens[0]) + 1))}
    frontier = list(group)
    while frontier:
        new = {oracles.compose(g, h) for g in frontier for h in gens} - group
        group |= new
        frontier = list(new)
    return group


def test_dihedral_group_is_generated_by_rotation_and_reflection():
    for m in (4, 6, 8):
        sigma = tuple([*range(2, m + 1), 1])
        tau = tuple([1, *range(m, 1, -1)])
        assert oracles.dihedral_group(m) == closure([sigma, tau])
        assert len(oracles.dihedral_group(m)) == 2 * m


def test_alternating_and_full_groups():
    assert len(oracles.full_group(5)) == 120
    assert len(oracles.alternating_group(5)) == 60
    assert all(oracles.is_even(p) for p in oracles.alternating_group(4))


def test_conjugate_is_a_group_of_the_same_order():
    r = (3, 1, 4, 2)
    group = oracles.conjugate(oracles.dihedral_group(4), r)
    assert len(group) == 8
    assert closure(sorted(group)) == group
    assert oracles.conjugate(group, oracles.inverse(r)) == oracles.dihedral_group(4)
