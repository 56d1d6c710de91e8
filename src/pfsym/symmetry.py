"""The permutation action on generator polynomials, and symmetry /
skew-symmetry groups.

The action relabels a generator a(i,j) to a(p^{-1}(i), p^{-1}(j)) and a
position x_i to x_{p^{-1}(i)}, then normalizes generator indices back to
increasing order — silently for symmetric generators, with a sign for
skew ones.  Sym f collects the permutations fixing f; SSym f those fixing
f up to their own sign.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _check_mode(mode: str) -> None:
    if mode not in ACTION_MODES:
        raise ValueError(f"mode must be one of {ACTION_MODES}, got {mode!r}")


def _check_indices(poly: Poly, size: int) -> None:
    """Raise unless every variable of poly has its indices in 1..size."""
    for v in sorted(poly.variables(), key=_var_key):
        if v[0] == "x" and v[1] > size:
            raise ValueError(f"variable x{v[1]} outside the action on 1..{size}")
        if v[0] == "a" and v[2] > size:
            raise ValueError(f"variable a({v[1]},{v[2]}) outside the action on 1..{size}")


def _term_key(term) -> tuple:
    return _var_key(term[0])


def _relabel(mono, inv: tuple[int, ...], skew: bool):
    """The image of one monomial under the action whose p^{-1} has images `inv`.

    Returns (image monomial, whether the coefficient changes sign).  The
    map is injective on monomials, because p permutes the variables.
    """
    negate = False
    out = []
    for v, e in mono:
        if v[0] == "x":
            out.append((("x", inv[v[1] - 1]), e))
        else:
            u, w = inv[v[1] - 1], inv[v[2] - 1]
            if u > w:
                u, w = w, u
                if skew and e % 2 == 1:
                    negate = not negate
            out.append((("a", u, w), e))
    out.sort(key=_term_key)
    return tuple(out), negate


def act(p: Permutation, poly: Poly, mode: str) -> Poly:
    """Apply the generator action of p to poly.

    Note the composition direction: since indices travel through p^{-1},
    acting with p after q equals acting with compose(q, p) in one step.
    """
    _check_mode(mode)
    _check_indices(poly, p.size)
    inv = p.inverse().images
    skew = mode == SKEW_GENS
    out = {}
    for mono, coeff in poly._terms.items():
        image, negate = _relabel(mono, inv, skew)
        out[image] = -coeff if negate else coeff
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
    A member listed twice is a ValueError: the order counts members.
    """
    elements = tuple(sorted(members))
    images = {p.images for p in elements}
    if len(images) != len(elements):
        repeat = next(p for p, q in zip(elements, elements[1:]) if p == q)
        raise ValueError(f"symmetry set repeats {repeat!r}")
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


def _is_member(p: Permutation, poly: Poly, skew: bool, signed: bool) -> bool:
    """Whether act(p, poly) equals poly, or -poly when `signed` and p is odd.

    Each monomial's image is looked up in poly and the scan stops at the
    first missing or unequal coefficient.  When every lookup hits, the
    image is all of poly: relabeling is injective and both have len(poly)
    terms.  Indices must already be checked against p.size.
    """
    inv = p.inverse().images
    flip = signed and p.sign == -1
    terms = poly._terms
    for mono, coeff in terms.items():
        image, negate = _relabel(mono, inv, skew)
        if terms.get(image) != (-coeff if negate != flip else coeff):
            return False
    return True


def symmetry_group(poly: Poly, m: int, mode: str, signed: bool = False) -> GroupReport:
    """Brute-force Sym (signed=False) or SSym (signed=True) of poly in S_m.

    Every permutation of S_m is tested in one serial scan by the
    early-exit `_is_member` (`enumerate_sym` refuses m above SYM_CAP), and
    `make_group_report` certifies the result exactly.  A constant
    polynomial (zero included) is fixed by everything, so the full S_m
    comes back: that is the definition doing its job, not an error.
    """
    _check_mode(mode)
    _check_indices(poly, m)
    skew = mode == SKEW_GENS
    members = [p for p in enumerate_sym(m) if _is_member(p, poly, skew, signed)]
    return make_group_report(members, m)


def pfaffian_symmetry_group(
    two_n: int,
    mode: str = SYMMETRIC_GENS,
    signed: bool = False,
) -> GroupReport:
    """Symmetry group (SSym when `signed`) of the generic pfaffian of order two_n.

    Write q = p^{-1}, through which the action relabels indices, and
    E(i,j) = 1 when q inverts the pair i < j.  Acting on the term of a
    matching M gives the term of its image matching times
    t(M) = sgn(q) (-1)^{#pairs of M that q inverts}, and a skew generator
    contributes one more -1 per inverted pair.  So p is a member when t(M)
    is the same for every M and equals +1 (sgn p when `signed`).

    Skew generators: the two factors (-1)^{#inverted} cancel and t = sgn p
    for every p, which is pf(P^T A P) = det P pf A.  The group is A_m, or
    S_m when signed, listed by `enumerate_sym` up to its cap SYM_CAP, since
    the group has m!/2 or m! elements.

    Symmetric generators: t(M) is constant exactly when the parity of
    #inverted pairs is the same on the three matchings of any four points,
    which holds exactly when E(i,j) = alpha_i xor alpha_j xor beta for some
    alpha in {0,1}^m and beta in {0,1}: the inverted pairs are a cut of the
    complete graph, or its complement.  Taking M = {12, 34, ...} then gives
    t = sgn(q) (-1)^{sum(alpha) + n beta}.  `_cut_search` enumerates the
    (alpha, beta) that come from a permutation in polynomial time, so this
    mode has no size cap.  The theorem Sym = D_2n is not assumed: the search
    knows nothing of intervals or of the dihedral group, and
    `make_group_report` compares what it finds with <sigma, tau>.

    The matching classifier `backend.classify_pf_action`, which applies the
    definition to every matching, is the test oracle for both modes.
    """
    _check_mode(mode)
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"two_n must be even and >= 2, got {two_n}")
    if mode == SKEW_GENS:
        members = [p for p in enumerate_sym(two_n) if signed or p.sign == 1]
    else:
        members = _cut_search(two_n, signed)
    return make_group_report(members, two_n)


def _cut_search(m: int, signed: bool) -> set[Permutation]:
    """The p in S_m (m even) with t = +1, or t = sgn p when `signed`, on
    symmetric generators; see `pfaffian_symmetry_group`.

    alpha_1 = 0 is fixed (complementing alpha leaves E unchanged) and, for
    each beta, alpha is assigned one point at a time.  The points assigned
    so far are kept in increasing order of q.  A new point k must come
    after every earlier i with E(i,k) = 0 and before every one with
    E(i,k) = 1, so it fits only if those two groups are already in that
    order, and then its place is fixed.  At a leaf the order lists q^{-1},
    which is p in one-line notation (0-based).
    """
    n = m // 2
    found = set()
    for beta in (0, 1):
        stack = [((0,), [0])]  # (alpha of points 0..k-1, those points by increasing q)
        while stack:
            alpha, order = stack.pop()
            k = len(alpha)
            if k == m:
                p = Permutation([i + 1 for i in order])
                t = p.sign * (-1) ** ((sum(alpha) + n * beta) % 2)
                if t == (p.sign if signed else 1):
                    found.add(p)
                continue
            for a in (0, 1):
                cut = [alpha[i] ^ a ^ beta for i in order]  # E(i, k) along the order
                split = cut.index(1) if 1 in cut else k
                if all(cut[split:]):
                    stack.append((alpha + (a,), order[:split] + [k] + order[split:]))
    return found


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
    "make_group_report",
    "pfaffian_symmetry_group",
    "sym_of_g",
    "symmetry_group",
]
