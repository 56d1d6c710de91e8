"""Committed mutants: a check must FAIL when the kernel it guards is broken.

A check that compares a route with itself passes whatever the route
computes.  Each test here breaks one kernel, runs the check at a small n
and requires a FAIL line for every n, after a clean run that passes; the
`_bareiss_det` mutants must make the determinant oracle find a mismatch,
the elimination mutants Schur's pfaffian at 2n = 20 and 40, the swap
mutant of `_pf_fraction_free` the exact direct-sum identity, a kernel
that places a pair reversed by its order without the sign the relabeling
oracle, pf(P^T A P) = sgn(P) pf A, in that kernel's domains,
`symmetry_group` with corrupted orbits the scan of S_m, a search that
files orbits from only the first new element of its group the pinned
membership-test counts, a cycle count that miscounts the sign the
inversion count, a short path of `_pair_colours` that drops the x
exponent the one-path colour oracle, and lexicographic signs with the
digit parity flipped both sign checks of the skew A_m listing.
"""
import inspect
import random

import pytest

from pf_oracles import cofactor_det
from pfsym import cli, permutations, pfaffian, polyring, symmetry
from test_elimination import (
    changed_entries,
    direct_sum_mismatches,
    relabel_mismatches,
    shared_value_mismatches,
    sym_det_mismatches,
)
from test_packed_kernel import expansion_mismatches
from test_permutations import sign_mismatches
from test_schur import schur_mismatches
from test_symmetry import (
    WORK_PINS,
    colour_mismatches,
    group_mismatches,
    membership_test_counts,
    sign_list_mismatches,
    skew_group_mismatches,
)


def _verify(capsys, check: str, n: str):
    code = cli.run(["verify", check, "--n", n])
    return code, capsys.readouterr().out.splitlines()


def _rewritten(module, kernel, old: str, new: str):
    """`kernel` of `module` rebuilt from its source with the one line `old` replaced."""
    source = inspect.getsource(kernel)
    assert source.count(old) == 1, f"{old.strip()!r} moved in {kernel.__name__}; update the mutant"
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[kernel.__name__]


def _divides_by_its_pivot(kernel):
    """`_pf_fraction_free` that divides each update by the current pivot p
    in place of the pivot before it."""
    return _rewritten(pfaffian, kernel, "// prev\n", "// p\n")


@pytest.mark.parametrize(
    "check, mode, target, mutate",
    [
        ("skew-det", "exact,50 arrays", "_pf_eliminate", lambda kernel: lambda *args: 2 * kernel(*args)),
        ("hook-oracle", "exact,both modes,50 arrays", "_pf_fraction_free", _divides_by_its_pivot),
    ],
    ids=["skew-det", "hook-oracle"],
)
def test_check_fails_on_its_mutant(monkeypatch, capsys, check, mode, target, mutate):
    code, lines = _verify(capsys, check, "2..3")
    assert code == 0 and lines == [f"PASS {check} n={n} [{mode}] residual=0" for n in (2, 3)]
    monkeypatch.setattr(pfaffian, target, mutate(getattr(pfaffian, target)))
    code, lines = _verify(capsys, check, "2..3")
    assert code == 1
    assert [line for line in lines if not line.startswith("  ")] == [
        f"FAIL {check} n={n} [{mode}] residual=0" for n in (2, 3)
    ]


def _no_swap_sign(kernel):
    """`_pf_eliminate` that forgets the sign flip of a pivot swap."""
    return _rewritten(pfaffian, kernel, "            result = -result\n", "            pass\n")


def _no_sign_flip(kernel):
    """`_pf_fraction_free` or `_bareiss_det` that forgets the sign flip of a pivot swap."""
    return _rewritten(pfaffian, kernel, "            sign = -sign\n", "            pass\n")


def _drop_d_j(kernel):
    """`_pf_fraction_free` that scales entry (i, j) of a Fraction array by
    d_i only, not d_i d_j, so the products of a matching no longer share
    one factor."""
    return _rewritten(pfaffian, kernel, "(d[i] * d[j] // v.denominator)", "(d[i] // v.denominator)")


# a kernel that places a pair that `live` reverses without its sign: entry
# (i, j) goes above the diagonal at the positions of i and j in either order
UNSIGNED = ("u, t = at[i], at[j]\n", "u, t = sorted((at[i], at[j]))\n")


def _no_row_signs(kernel):
    """`_pf_fraction_free` that places a pair that `live` reverses without
    its sign, so hook row s holds a(j,s) below s in place of -a(j,s)."""
    return _rewritten(pfaffian, kernel, *UNSIGNED)


def _no_hook_sign(kernel):
    """`_hook_expand` that drops the factor (-1)^(s-1) of the relabeling."""
    old = '    return _finite(-value if s % 2 == 0 else value, "hook expansion")\n'
    return _rewritten(pfaffian, kernel, old, '    return _finite(value, "hook expansion")\n')


def _one_beta(kernel):
    """`_cut_search` that tries only beta = 0, so it misses the reflections' cuts."""
    return _rewritten(symmetry, kernel, "    for beta in (0, 1):\n", "    for beta in (0,):\n")


THEOREM1 = "theorem1 n={} [symmetric-gens/{}] residual=0"


@pytest.mark.parametrize(
    "check, n, module, target, mutate, verdicts",
    [
        (
            "hook-oracle", "2..3", pfaffian, "_pf_eliminate", _no_swap_sign,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "hook-oracle", "2..3", pfaffian, "_pf_fraction_free", _no_sign_flip,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "hook-oracle", "2..3", pfaffian, "_pf_fraction_free", _drop_d_j,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "hook-oracle", "2..3", pfaffian, "_pf_fraction_free", _no_row_signs,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "hook-oracle", "2..3", pfaffian, "_hook_expand", _no_hook_sign,
            [
                (f"hook-oracle n={n} [exact,both modes,50 arrays] residual=0",
                 "hook expansions", "direct pfaffian")
                for n in (2, 3)
            ],
        ),
        (
            "theorem1", "4..5", symmetry, "_cut_search", _one_beta,
            [
                (THEOREM1.format(4, "cut-search"), "order 8", "dihedral subgroup, order 16"),
                (THEOREM1.format(5, "cut-search"), "order 10", "dihedral subgroup, order 20"),
            ],
        ),
        (
            "theorem1", "3", symmetry, "_is_member", lambda kernel: lambda *args: True,
            [(THEOREM1.format(3, "polynomial-action"), "order 72", "dihedral subgroup, order 12")],
        ),
    ],
    ids=[
        "hook-oracle/swap-sign", "hook-oracle/integer-swap-sign", "hook-oracle/scaling", "hook-oracle/row-signs", "hook-oracle/hook-sign",
        "theorem1/cut-search", "theorem1/membership",
    ],
)
def test_check_fails_on_its_kernel_mutant(monkeypatch, capsys, check, n, module, target, mutate, verdicts):
    """A search or elimination kernel broken where its check still runs to the end.

    - `_pf_eliminate` without the sign flip of a pivot swap: `hook-oracle`
      compares the hooks with this elimination and fails.  `skew-det` does
      not catch this mutant, because pf squared hides the sign.
    - `_pf_fraction_free` without that sign flip: the hooks that swap, on
      an entry a(s, j) = 0 of their first row, take the wrong sign.
    - `_pf_fraction_free` scaling a Fraction entry (i, j) by d_i alone: the
      hook expansions no longer equal the elimination.
    - `_pf_fraction_free` placing a pair that `live` reverses without its
      sign: every hook s > 1 loses the sign of -a(j,s) below s, and fails,
      while `pfaffian_direct`, whose order reverses no pair, is unaffected.
    - `_hook_expand` without the factor (-1)^(s-1): every even hook has the
      wrong sign.
    - `_cut_search` with beta = 0 only finds the rotations, order 2n of 4n.
      Dropping one member instead would make `make_group_report` raise a
      RuntimeError, a traceback and not a FAIL line.
    - `_is_member` always True: the pair colours alone decide the group at
      n = 2, and in `g-symmetry` at n = 2..3, so the mutant shows at n = 3.
    """
    code, lines = _verify(capsys, check, n)
    assert code == 0 and lines == [f"PASS {head}" for head, _, _ in verdicts]
    monkeypatch.setattr(module, target, mutate(getattr(module, target)))
    code, lines = _verify(capsys, check, n)
    assert code == 1
    assert lines == [
        line for head, lhs, rhs in verdicts for line in (f"FAIL {head}", f"  lhs: {lhs}", f"  rhs: {rhs}")
    ]


@pytest.mark.parametrize(
    "old, new",
    [
        # a row swap that keeps the sign
        ("            sign = -sign\n", "            pass\n"),
        # the determinant of the scaled rows, not divided by the product of the scales
        ("    return Fraction(sign * a[-1][-1], scale)\n", "    return Fraction(sign * a[-1][-1])\n"),
    ],
    ids=["row swap without sign", "rows not scaled back"],
)
def test_sym_det_oracle_fails_on_its_mutant(monkeypatch, old, new):
    assert sym_det_mismatches(random.Random(1), range(1, 7), cofactor_det) == []
    monkeypatch.setattr(pfaffian, "_bareiss_det", _rewritten(pfaffian, pfaffian._bareiss_det, old, new))
    assert sym_det_mismatches(random.Random(1), range(1, 7), cofactor_det) != []


@pytest.mark.parametrize(
    "target, mutate",
    [
        ("_pf_eliminate", lambda kernel: lambda *args: 2 * kernel(*args)),
        ("_pf_eliminate", _no_swap_sign),
        ("_pf_fraction_free", _divides_by_its_pivot),
    ],
    ids=["twice the value", "no swap sign", "integer kernel divides by its pivot"],
)
def test_schur_oracle_fails_on_elimination_mutants(monkeypatch, target, mutate):
    # `_pf_eliminate` runs the float half only; the first entry of row 0 is
    # never zero on these arrays, so its swap mutant shows through the
    # largest-entry pivots of floats
    monkeypatch.setattr(pfaffian, target, mutate(getattr(pfaffian, target)))
    assert {two_n for two_n, _, _ in schur_mismatches((20, 40))} == {20, 40}


def test_direct_sum_fails_on_the_swap_mutant(monkeypatch):
    # the zero entry (1, 2) of each direct sum makes the elimination swap;
    # the mutant flips the sign where it swaps an odd number of times
    monkeypatch.setattr(pfaffian, "_pf_fraction_free", _no_sign_flip(pfaffian._pf_fraction_free))
    assert direct_sum_mismatches(random.Random(3)) == [14, 20, 24, 22]


@pytest.mark.parametrize(
    "target, domains",
    [
        ("_pf_fraction_free", {"int", "Fraction"}),
        ("_pf_eliminate", {"float"}),
        ("_expand", {"Poly", "Decimal"}),
    ],
    ids=["fraction-free", "float elimination", "expansion"],
)
def test_relabel_oracle_fails_on_its_mutant(monkeypatch, target, domains):
    # each kernel places a pair that `live` reverses without its sign: the
    # relabeled pfaffian differs from sgn(live) pf in that kernel's domains
    # alone, since the identity order of `pfaffian_direct` reverses no pair
    assert relabel_mismatches(random.Random(30)) == []
    monkeypatch.setattr(pfaffian, target, _rewritten(pfaffian, getattr(pfaffian, target), *UNSIGNED))
    assert {name for name, _ in relabel_mismatches(random.Random(30))} == domains


def test_entries_check_fails_on_the_in_place_mutant(monkeypatch):
    # `_expand` negating a packed entry in place where `live` reverses its
    # pair, in place of building the negated dict: the value's dict is
    # shared by all its positions, so every other one reads the flipped
    # sign.  The dicts are `_expand`'s own, so the caller's entries stay
    # as they were; the check on values placed at many positions fails,
    # in both domains that `_expand` runs
    assert changed_entries(random.Random(31)) == []
    assert shared_value_mismatches(random.Random(32)) == []
    old = "{m: -c for m, c in e.items()}"
    new = "(e.update({m: -c for m, c in e.items()}) or e)"
    monkeypatch.setattr(pfaffian, "_expand", _rewritten(pfaffian, pfaffian._expand, old, new))
    assert changed_entries(random.Random(31)) == []
    assert {name for name, _ in shared_value_mismatches(random.Random(32))} == {"Poly", "Decimal"}


@pytest.mark.parametrize(
    "old, new, domains",
    [
        ("        if negate:\n", "        if False:\n", {"Poly", "Decimal"}),
        ("            if acc:\n", "            if True:\n", {"Poly"}),
    ],
    ids=["negate ignored", "cancelled term kept"],
)
def test_expansion_oracle_fails_on_the_product_mutants(monkeypatch, old, new, domains):
    # `_add_product` in the pfaffian kernel only, so the oracles' own Poly
    # products stay sound.  A product added with the wrong sign breaks every
    # domain; a cancelled term kept with coefficient 0 leaves a Poly with a
    # zero term, while a Decimal zero still equals the oracle's
    assert expansion_mismatches(random.Random(33)) == []
    monkeypatch.setattr(pfaffian, "_add_product", _rewritten(polyring, polyring._add_product, old, new))
    assert {name for name, _, _ in expansion_mismatches(random.Random(33))} == domains


def test_group_scan_fails_on_the_orbit_mutant(monkeypatch):
    # the coset pruning files each new element h of H under the orbit of
    # its first moved point k; filing it at h[k] - 2 in place of the 0-based
    # image h[k] - 1 corrupts the orbits, so the search prunes members
    assert group_mismatches(random.Random(17)) == []
    mutant = _rewritten(symmetry, symmetry.symmetry_group, "j = h[k] - 1\n", "j = h[k] - 2\n")
    monkeypatch.setattr(symmetry, "symmetry_group", mutant)
    assert group_mismatches(random.Random(17)) != []


def test_work_pin_fails_on_the_first_element_mutant(monkeypatch):
    # a leaf that files the orbit of only the first element that
    # `add_generator` adds keeps every group right, so the scan passes,
    # but prunes fewer cosets and tests more leaves
    pins = [pin[-1] for pin in WORK_PINS]
    assert membership_test_counts() == pins
    old = "in add_generator(group, gens, q):"
    mutant = _rewritten(symmetry, symmetry.symmetry_group, old, "in add_generator(group, gens, q)[:1]:")
    monkeypatch.setattr(symmetry, "symmetry_group", mutant)
    assert group_mismatches(random.Random(1)) == []
    counts = membership_test_counts()
    assert counts != pins and all(c >= p for c, p in zip(counts, pins)), counts


def test_sign_oracle_fails_on_the_cycle_count_mutant(monkeypatch):
    # `images_sign` that passes over a fixed point without counting its
    # cycle: the sign is wrong on every permutation with an odd number of
    # fixed points, first of all the identity of S_1
    assert sign_mismatches() == []
    old = "        if not seen[j]:\n"
    mutant = _rewritten(permutations, permutations.images_sign, old, "        if not seen[j] and images[j - 1] != j:\n")
    monkeypatch.setattr(permutations, "images_sign", mutant)
    bad = sign_mismatches()
    assert bad[0] == (1,) and (2, 1, 3) in bad and (2, 1) not in bad


def test_colour_oracle_fails_on_the_short_path_mutant(monkeypatch):
    # the short path of a monomial with no a(.,.) hashing (c,) in place of
    # (c, x exponent): a colour that still merges x^1 with x^2 stays
    # invariant under every member, so only the oracle table sees it
    assert colour_mismatches(random.Random(34)) == []
    mutant = _rewritten(symmetry, symmetry._pair_colours, "hash((c, e))", "hash((c,))")
    monkeypatch.setattr(symmetry, "_pair_colours", mutant)
    bad = colour_mismatches(random.Random(34))

    def has_a_generator_free_monomial(f):
        return any(mono and all(v[0] == "x" for v, _ in mono) for mono in f._terms)

    assert bad and all(has_a_generator_free_monomial(f) for *_, f in bad)


def test_sign_checks_fail_on_the_digit_parity_mutant(monkeypatch):
    # an odd digit taken as even and an even one as odd negates the sign
    # once per digit after the first: every sign at even m, none at odd m.
    # The unsigned listing is then the odd permutations, so
    # `make_group_report` refuses it, and the signed one lists all of S_m
    assert sign_list_mismatches() == [] and skew_group_mismatches() == []
    mutant = _rewritten(symmetry, symmetry._lex_signs, "if d % 2 else", "if (d + 1) % 2 else")
    monkeypatch.setattr(symmetry, "_lex_signs", mutant)
    assert sign_list_mismatches() == [2, 4, 6, 8]
    assert skew_group_mismatches() == [(m, False) for m in (2, 4, 6, 8)]
