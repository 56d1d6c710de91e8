import itertools

import pytest

from pf_oracles import matching_sign
from pfsym.matchings import PfaffPermutation, enumerate_pfaff, matching_count
from pfsym.permutations import Permutation


def test_counts_against_double_factorial():
    for two_n, expected in ((2, 1), (4, 3), (6, 15), (8, 105), (10, 945)):
        assert matching_count(two_n) == expected
        assert sum(1 for _ in enumerate_pfaff(two_n)) == expected


def test_order_two():
    assert [(m.pairs, s) for m, s in enumerate_pfaff(2)] == [(((1, 2),), 1)]


def test_order_four_golden():
    got = [(m.pairs, s) for m, s in enumerate_pfaff(4)]
    assert got == [
        (((1, 2), (3, 4)), 1),
        (((1, 3), (2, 4)), -1),
        (((1, 4), (2, 3)), 1),
    ]


def test_matching_sign_examples():
    assert matching_sign(PfaffPermutation(((1, 2), (3, 4)))) == 1
    assert matching_sign(PfaffPermutation(((1, 3), (2, 4)))) == -1
    # flattening (1,4,2,3) has two inversions
    assert matching_sign(PfaffPermutation(((1, 4), (2, 3)))) == 1


def test_incremental_signs_agree_with_inversion_count():
    for two_n in (2, 4, 6, 8):
        for m, s in enumerate_pfaff(two_n):
            assert s == matching_sign(m)


def test_lexicographic_order_and_no_duplicates():
    for two_n in (4, 6, 8):
        flats = [m.flatten() for m, _ in enumerate_pfaff(two_n)]
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)


def test_equals_brute_force_filter():
    for two_n in (2, 4, 6, 8):
        n = two_n // 2
        brute = set()
        for images in itertools.permutations(range(1, two_n + 1)):
            pairs = [(images[2 * k], images[2 * k + 1]) for k in range(n)]
            if all(i < j for i, j in pairs) and all(
                pairs[k][0] < pairs[k + 1][0] for k in range(n - 1)
            ):
                brute.add((tuple(pairs), Permutation(images).sign))
        assert {(m.pairs, s) for m, s in enumerate_pfaff(two_n)} == brute


def test_first_partner_split_covers_stream():
    full = [(m.pairs, s) for m, s in enumerate_pfaff(6)]
    joined = []
    for j in range(2, 7):
        block = [(m.pairs, s) for m, s in enumerate_pfaff(6, first_partner=j)]
        assert all(pairs[0] == (1, j) for pairs, _ in block)
        joined += block
    assert joined == full
    with pytest.raises(ValueError):
        list(enumerate_pfaff(6, first_partner=1))


def test_input_validation():
    with pytest.raises(ValueError):
        list(enumerate_pfaff(5))
    with pytest.raises(ValueError):
        list(enumerate_pfaff(0))
    with pytest.raises(ValueError):
        list(enumerate_pfaff(18))


def test_matching_count_needs_an_even_size():
    assert matching_count(0) == 1
    for two_n in (5, 1, -2):
        with pytest.raises(ValueError, match="even"):
            matching_count(two_n)


def test_normal_form_validation():
    with pytest.raises(ValueError):
        PfaffPermutation(((2, 1),))
    with pytest.raises(ValueError):
        PfaffPermutation(((1, 3), (2, 3)))
    with pytest.raises(ValueError):
        PfaffPermutation(((2, 4), (1, 3)))


def test_json_form():
    m = PfaffPermutation(((1, 3), (2, 4)))
    assert m.to_json() == [[1, 3], [2, 4]]
    assert m.size == 4
