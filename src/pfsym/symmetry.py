"""The permutation action on generator polynomials, and brute-force
symmetry / skew-symmetry groups.

The action relabels a generator a(i,j) to a(p^{-1}(i), p^{-1}(j)) and a
position x_i to x_{p^{-1}(i)}, then normalizes generator indices back to
increasing order — silently for symmetric generators, with a sign for
skew ones.  Sym f collects the permutations fixing f; SSym f those fixing
f up to their own sign.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import backend
from .models import g_poly
from .permutations import (
    Permutation,
    close_right,
    dihedral_generators,
    enumerate_sym,
    generate_subgroup,
    identity,
)
from .polyring import Poly, _raw, _var_key

SYMMETRIC_GENS = "symmetric"
SKEW_GENS = "skew"
ACTION_MODES = (SYMMETRIC_GENS, SKEW_GENS)

BRUTE_FORCE_CAP = 8


def act(p: Permutation, poly: Poly, mode: str) -> Poly:
    """Apply the generator action of p to poly.

    Note the composition direction: since indices travel through p^{-1},
    acting with p after q equals acting with compose(q, p) in one step.
    """
    if mode not in ACTION_MODES:
        raise ValueError(f"mode must be one of {ACTION_MODES}, got {mode!r}")
    inv = p.inverse().images
    size = p.size
    skew = mode == SKEW_GENS
    out = {}
    for mono, coeff in poly._terms.items():
        negate = False
        relabeled = []
        for v, e in mono:
            if v[0] == "x":
                i = v[1]
                if i > size:
                    raise ValueError(f"variable x{i} outside the action on 1..{size}")
                relabeled.append((("x", inv[i - 1]), e))
            else:
                i, j = v[1], v[2]
                if j > size:
                    raise ValueError(f"variable a({i},{j}) outside the action on 1..{size}")
                u, w = inv[i - 1], inv[j - 1]
                if u > w:
                    u, w = w, u
                    if skew and e % 2 == 1:
                        negate = not negate
                relabeled.append((("a", u, w), e))
        relabeled.sort(key=lambda t: _var_key(t[0]))
        key = tuple(relabeled)
        value = -coeff if negate else coeff
        acc = out.get(key)
        if acc is None:
            out[key] = value
        else:
            acc += value
            if acc == 0:
                del out[key]
            else:
                out[key] = acc
    return _raw(out)


@dataclass(frozen=True)
class GroupReport:
    """A computed symmetry set, with its dihedral comparison."""

    elements: tuple[Permutation, ...]
    order: int
    equals_dihedral: bool | None
    witness: Permutation | None

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "equals_dihedral": self.equals_dihedral,
            "witness": self.witness.to_json() if self.witness else None,
            "elements": [p.to_json() for p in self.elements],
        }


def make_group_report(members, m: int) -> GroupReport:
    """Build a report from a symmetry set, certifying exactly that it is a group.

    The set must contain the identity and be closed under composition
    (`_check_closure`, exact at every size); otherwise RuntimeError.  It is
    then compared with the dihedral subgroup <sigma, tau> when m is even.
    """
    elements = tuple(sorted(members))
    images = {p.images for p in elements}
    if identity(m).images not in images:
        raise RuntimeError("symmetry set does not contain the identity")
    _check_closure(images)
    equals_dihedral: bool | None = None
    witness = None
    if m % 2 == 0 and m >= 2:
        target = {p.images for p in dihedral_group(m)}
        equals_dihedral = images == target
        if not equals_dihedral:
            witness = Permutation(min(images.symmetric_difference(target)))
    return GroupReport(elements, len(elements), equals_dihedral, witness)


def _check_closure(images: set[tuple[int, ...]]) -> None:
    """Raise unless `images`, which holds the identity, is closed under composition.

    Each member not yet reached, in sorted order, becomes a generator, and
    the reached set grows by right-multiplying by the generators, every
    product looked up in `images`.  Without an escape the reached set is
    the group they span and holds every member, so it equals `images`.
    Each generator at least doubles the reached group: at most log2 |G|.
    """
    reached = {tuple(range(1, len(next(iter(images))) + 1))}
    gens = []
    for s in sorted(images):
        if s not in reached:
            gens.append(s)
            escape = close_right(reached, list(reached), gens, inside=images)
            if escape is not None:
                a, b = escape
                raise RuntimeError(f"symmetry set is not closed: {a} o {b} escapes")


def _is_member(p: Permutation, poly: Poly, mode: str, signed: bool) -> bool:
    image = act(p, poly, mode)
    if signed and p.sign == -1:
        return image == -poly
    return image == poly


def symmetry_group(poly: Poly, m: int, mode: str, signed: bool = False) -> GroupReport:
    """Brute-force Sym (signed=False) or SSym (signed=True) of poly in S_m.

    Every permutation of S_m, m <= BRUTE_FORCE_CAP, is tested in one
    serial scan, and `make_group_report` certifies the result exactly.  A
    constant polynomial (zero included) is fixed by everything, so the
    full S_m comes back: that is the definition doing its job, not an
    error.
    """
    if mode not in ACTION_MODES:
        raise ValueError(f"mode must be one of {ACTION_MODES}, got {mode!r}")
    if m > BRUTE_FORCE_CAP:
        raise ValueError(f"m={m} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    members = [p for p in enumerate_sym(m) if _is_member(p, poly, mode, signed)]
    return make_group_report(members, m)


def pfaffian_symmetry_group(
    two_n: int,
    mode: str = SYMMETRIC_GENS,
    signed: bool = False,
) -> GroupReport:
    """Brute-force symmetry group of the generic pfaffian of order two_n.

    Same scan as symmetry_group(generic_pfaffian(two_n), ...) but the
    per-permutation test is the matching-level classifier
    `backend.classify_pf_action` instead of polynomial arithmetic; the
    two routes are cross-checked exhaustively in the test suite.
    """
    if mode not in ACTION_MODES:
        raise ValueError(f"mode must be one of {ACTION_MODES}, got {mode!r}")
    if two_n > BRUTE_FORCE_CAP:
        raise ValueError(f"two_n={two_n} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    skew = mode == SKEW_GENS
    members = []
    for p in enumerate_sym(two_n):
        t = backend.classify_pf_action(two_n, p, skew)
        if t == (p.sign if signed else 1):
            members.append(p)
    return make_group_report(members, two_n)


def is_dihedral(report: GroupReport, two_n: int) -> bool:
    """Whether the report's elements are exactly the subgroup <sigma, tau>."""
    if report.elements and report.elements[0].size != two_n:
        raise ValueError(
            f"report over S_{report.elements[0].size} cannot be compared at two_n={two_n}"
        )
    target = {p.images for p in dihedral_group(two_n)}
    return {p.images for p in report.elements} == target


def sym_of_g(two_n: int) -> GroupReport:
    """Brute-force symmetry group of the cycle product g.

    The positions x_i are relabeled by the same action as the generators,
    so this is symmetry_group(g_poly(two_n), two_n, SYMMETRIC_GENS).
    """
    return symmetry_group(g_poly(two_n), two_n, SYMMETRIC_GENS)


def dihedral_group(two_n: int) -> list[Permutation]:
    """The concrete dihedral subgroup <sigma, tau> of S_{two_n}."""
    return generate_subgroup(list(dihedral_generators(two_n)))


__all__ = [
    "SYMMETRIC_GENS",
    "SKEW_GENS",
    "ACTION_MODES",
    "GroupReport",
    "act",
    "dihedral_group",
    "is_dihedral",
    "make_group_report",
    "pfaffian_symmetry_group",
    "sym_of_g",
    "symmetry_group",
]
