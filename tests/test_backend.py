import math
from fractions import Fraction

import pytest

from pfsym import backend
from pf_oracles import pfaffian_sum
from pfsym.pfaffian import SYMMETRIC, TriangularArray, upper_pairs
from pfsym.permutations import Permutation, dihedral_generators, generate_subgroup


def test_pf_double_empty_and_validation():
    assert backend.pf_double(0, []) == 1.0
    with pytest.raises(ValueError):
        backend.pf_double(3, [0.0] * 3)
    with pytest.raises(ValueError):
        backend.pf_double(4, [0.0] * 5)
    with pytest.raises(ValueError):
        backend.pf_double(18, [0.0] * 153)


def test_pf_double_matches_exact_sum(rng):
    for two_n in (2, 4, 6, 8, 10):
        entries = {p: Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for p in upper_pairs(two_n)}
        exact = float(pfaffian_sum(TriangularArray(two_n, SYMMETRIC, entries)))
        packed = [float(entries[p]) for p in upper_pairs(two_n)]
        got = backend.pf_double(two_n, packed)
        assert math.isclose(got, exact, rel_tol=1e-10, abs_tol=1e-9), two_n


def test_classifier_closed_forms_at_eight(rng):
    # past the exhaustive check against the polynomial action (2n <= 6):
    # the skew action is the sign character, and the symmetric action
    # fixes exactly the dihedral subgroup
    dihedral = {p.images for p in generate_subgroup(list(dihedral_generators(8)))}
    perms = [Permutation(images) for images in sorted(dihedral)]
    perms += [Permutation(rng.sample(range(1, 9), 8)) for _ in range(60)]
    for p in perms:
        assert backend.classify_pf_action(8, p, True) == p.sign
        assert (backend.classify_pf_action(8, p, False) == 1) == (p.images in dihedral)


def test_classifier_validation():
    with pytest.raises(ValueError):
        backend.classify_pf_action(3, Permutation([1, 2, 3]), False)
    with pytest.raises(ValueError):
        backend.classify_pf_action(14, Permutation(list(range(1, 15))), False)
    with pytest.raises(ValueError):
        backend.classify_pf_action(6, Permutation([1, 2, 3, 4]), False)


def test_dispatch_coerces_inputs():
    got = backend.pf_double(2, [Fraction(3, 2)])
    assert got == 1.5
