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
from operator import attrgetter

from .models import g_poly
from .permutations import (
    Permutation,
    add_generator,
    check_sym_size,
    enumerate_sym,
    identity,
    images_sign,
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


def _relabel(mono, inv: tuple[int, ...], skew: bool):
    """The image of one monomial under the action whose p^{-1} has images `inv`.

    Returns (image monomial, whether the coefficient changes sign).  The
    map is injective on monomials, because p permutes the variables.
    """
    negate = False
    xs = []
    gens = []
    for v, e in mono:
        if v[0] == "x":
            xs.append((("x", inv[v[1] - 1]), e))
        else:
            u, w = inv[v[1] - 1], inv[v[2] - 1]
            if u > w:
                u, w = w, u
                if skew and e % 2 == 1:
                    negate = not negate
            gens.append((("a", u, w), e))
    # the variables are distinct, so plain tuple order sorts each family by index
    xs.sort()
    gens.sort()
    return tuple(xs + gens), negate


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
    elements = tuple(sorted(members, key=attrgetter("images")))
    ordered = [p.images for p in elements]
    images = set(ordered)
    if len(images) != len(elements):
        repeat = next(p for p, q in zip(elements, elements[1:]) if p == q)
        raise ValueError(f"symmetry set repeats {repeat!r}")
    if identity(m).images not in images:
        raise RuntimeError("symmetry set does not contain the identity")
    _check_closure(images, ordered)
    equals_dihedral: bool | None = None
    witness = None
    if m % 2 == 0 and m >= 2:
        target = _dihedral_images(m)
        equals_dihedral = images == target
        if not equals_dihedral:
            witness = Permutation._of(min(images.symmetric_difference(target)))
    return GroupReport(elements, len(elements), equals_dihedral, witness)


def _check_closure(images: set[tuple[int, ...]], ordered: list[tuple[int, ...]]) -> None:
    """Raise unless `images`, which holds the identity, is closed under composition.

    `ordered` lists the same images sorted, as the caller already has
    them.  Each member in that order goes to `add_generator`, which makes
    it a generator unless the reached group already holds it, grows the
    reached group by the cosets it adds and raises RuntimeError at the
    first new element outside `images`.  Without an escape the reached set
    is the group they span and holds every member, so it equals `images`.
    Each generator at least doubles the reached group: at most log2 |G|.
    """
    reached = {tuple(range(1, len(next(iter(images))) + 1))}
    gens: list[tuple[int, ...]] = []
    for s in ordered:
        add_generator(reached, gens, s, inside=images)


def _is_member(inv: tuple[int, ...], poly: Poly, skew: bool, signed: bool) -> bool:
    """Whether the p with p^{-1} = inv (images) maps poly to itself, or to
    -poly when `signed` and p is odd.

    Each monomial's image is looked up in poly and the test stops at the
    first missing or unequal coefficient.  When every lookup hits, the
    image is all of poly: relabeling is injective and both have len(poly)
    terms.  Indices must already be checked against len(inv).
    """
    flip = signed and images_sign(inv) == -1
    terms = poly._terms
    for mono, coeff in terms.items():
        image, negate = _relabel(mono, inv, skew)
        c = terms.get(image)
        if c is None or c != (-coeff if negate != flip else coeff):
            return False
    return True


def _pair_colours(poly: Poly, m: int, skew: bool, signed: bool) -> list[list[int]]:
    """The m x m table w of pair colours (0-based points) of poly.

    For each monomial and each ordered pair (i, j) of the points it
    involves, i = j included, the hash of (|coeff|, total degree, local
    data at i, local data at j, exponent of a(i,j)) is added to a sum for
    (i, j); the local data at a point are its x exponent and the sorted
    exponents of the a(.,.) at it.  A member p maps the monomials of poly
    onto themselves keeping all of that, so w[q i][q j] = w[i][j] for
    q = p^{-1}.  On symmetric generators p multiplies every coefficient by
    the same s (+1, or sgn p for SSym), so positive and negative terms get
    a sum each, kept as an ordered pair, or as an unordered one for SSym.
    On skew generators p can flip single terms, and there is one sum.
    Equal multisets give equal sums: a hash collision can only merge two
    colours, never split one.  A monomial with no a(.,.) takes a short
    path that adds the same hashes, (c, x exponent) at each point and a
    generator exponent of 0 for each pair, without the per-point dicts.
    """
    tables = ([[0] * m for _ in range(m)], [[0] * m for _ in range(m)])  # coeff > 0, < 0
    for mono, coeff in poly._terms.items():
        x_exp: dict[int, int] = {}
        a_exp: dict[int, dict[int, int]] = {}  # point -> {other end: exponent}
        degree = 0
        for v, e in mono:
            degree += e
            if v[0] == "x":
                x_exp[v[1] - 1] = e
            else:
                i, j = v[1] - 1, v[2] - 1
                a_exp.setdefault(i, {})[j] = e
                a_exp.setdefault(j, {})[i] = e
        c = hash((abs(coeff), degree))
        w = tables[not skew and coeff < 0]
        if not a_exp:
            x_local = [(i, hash((c, e))) for i, e in x_exp.items()]
            for i, li in x_local:
                row = w[i]
                for j, lj in x_local:
                    row[j] += hash((li, lj, 0))
            continue
        local = [
            (i, hash((c, x_exp.get(i, 0), *sorted(a_exp.get(i, {}).values()))), a_exp.get(i, {}))
            for i in x_exp.keys() | a_exp.keys()
        ]
        for i, li, ends in local:
            row = w[i]
            for j, lj, _ in local:
                row[j] += hash((li, lj, ends.get(j, 0)))
    pos, neg = tables
    if skew:
        return pos
    if signed:
        return [[hash((min(a, b), max(a, b))) for a, b in zip(r, s)] for r, s in zip(pos, neg)]
    return [[hash((a, b)) for a, b in zip(r, s)] for r, s in zip(pos, neg)]


def symmetry_group(poly: Poly, m: int, mode: str, signed: bool = False) -> GroupReport:
    """Sym (signed=False) or SSym (signed=True) of poly in S_m, m <= SYM_CAP.

    A backtrack over the images of q = p^{-1}, one point at a time in the
    order 1..m and each point's image in increasing order, so the leaves
    come in lexicographic order (McKay & Piperno, JSC 60, 2014; Leon,
    JSC 12, 1991).  Two rules prune it:

    * Colours.  A member keeps the pair colours of `_pair_colours`, so a
      branch dies as soon as a new point's colours against the points
      placed before it disagree.
    * Cosets.  The members found so far generate a group H, which
      `add_generator` keeps closed as it grows.  A coset q o H holds only
      members or only non-members (were q o h a member, q would be one
      too), so only the least element of each coset is tested.  It
      maps each point k below the rest of k's orbit under the h in H that
      fix 1..k-1.  So a point's image must exceed the images of the
      earlier points whose orbit holds it, and must leave enough free
      images above it for its own orbit.

    A leaf already in H is skipped; any other leaf gets the early-exit
    `_is_member` test, and a member joins the generators of H.  Each h
    that `add_generator` adds to H fixes the points before its first moved
    point k, so h(k) joins the orbit of k.  The least element of a
    member's coset is a member and passes both rules, so H holds every
    member the search has passed, and at the end H is the whole group.
    It is closed under inverses, so the q found are also the p.
    `make_group_report` certifies the result exactly.  A constant
    polynomial (zero included) is fixed by everything, so the full S_m
    comes back: that is the definition doing its job, not an error.
    """
    _check_mode(mode)
    _check_indices(poly, m)
    check_sym_size(m)
    skew = mode == SKEW_GENS
    w = _pair_colours(poly, m, skew, signed)
    group = {identity(m).images}
    gens: list[tuple[int, ...]] = []
    orbit = [{k} for k in range(m)]  # orbit[k]: of k under the h in H fixing 0..k-1
    below = [[] for _ in range(m)]  # below[j]: the k with j in orbit[k], j != k

    def leaf(q: tuple[int, ...]) -> None:
        if q in group or not _is_member(q, poly, skew, signed):
            return
        for h in add_generator(group, gens, q):
            k = next(i for i in range(m) if h[i] != i + 1)  # h fixes 0..k-1
            j = h[k] - 1
            if j not in orbit[k]:
                orbit[k].add(j)
                below[j].append(k)

    q = [0] * m  # q[k] is the 0-based image of point k
    free = [True] * m

    def extend(k: int) -> None:
        if k == m:
            leaf(tuple([v + 1 for v in q]))
            return
        wk = w[k]
        colour, against = wk[k], wk[:k]
        placed = q[:k]
        for v in range(m):
            wv = w[v]
            if not free[v] or wv[v] != colour or [wv[u] for u in placed] != against:
                continue
            if any(q[i] > v for i in below[k]) or free[v + 1:].count(True) < len(orbit[k]) - 1:
                continue
            free[v] = False
            q[k] = v
            extend(k + 1)
            free[v] = True

    extend(0)
    return make_group_report([Permutation._of(h) for h in group], m)


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
    the group has m!/2 or m! elements.  The cap is checked before anything
    is built.  A_m is read off `_lex_signs`, the signs of S_m in the order
    that `enumerate_sym` lists it, without a sign computed per element.

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
        check_sym_size(two_n)
        if signed:
            members = list(enumerate_sym(two_n))
        else:
            members = [p for p, s in zip(enumerate_sym(two_n), _lex_signs(two_n)) if s == 1]
    else:
        members = _cut_search(two_n, signed)
    return make_group_report(members, two_n)


def _lex_signs(m: int) -> list[int]:
    """The signs of the permutations of 1..m in lexicographic order.

    That order is the order of the Lehmer codes (d_1, ..., d_m), d_k in
    0..m-k, read as numbers with d_1 the most significant digit, and the
    sign is (-1)^(d_1 + ... + d_m).  The list is built from the last digit
    up: each new leading digit d in 0..k-1 repeats the signs of S_(k-1),
    negated when d is odd.
    """
    signs = [1]
    for k in range(2, m + 1):
        signs = [-t if d % 2 else t for d in range(k) for t in signs]
    return signs


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
                images = tuple([i + 1 for i in order])
                sign = images_sign(images)
                t = sign * (-1) ** ((sum(alpha) + n * beta) % 2)
                if t == (sign if signed else 1):
                    found.add(Permutation._of(images))
                continue
            for a in (0, 1):
                cut = [alpha[i] ^ a ^ beta for i in order]  # E(i, k) along the order
                split = cut.index(1) if 1 in cut else k
                if all(cut[split:]):
                    stack.append((alpha + (a,), order[:split] + [k] + order[split:]))
    return found


def sym_of_g(two_n: int) -> GroupReport:
    """Symmetry group of the cycle product g, by the backtrack of `symmetry_group`.

    The positions x_i are relabeled by the same action as the generators,
    so this is symmetry_group(g_poly(two_n), two_n, SYMMETRIC_GENS).
    """
    return symmetry_group(g_poly(two_n), two_n, SYMMETRIC_GENS)


def dihedral_group(two_n: int) -> list[Permutation]:
    """The concrete dihedral subgroup <sigma, tau> of S_{two_n}, sorted.

    Its rotations and reflections are written down by `_dihedral_images`,
    with no closure; `generate_subgroup` of `dihedral_generators` is its
    test oracle.
    """
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"two_n must be even and >= 2, got {two_n}")
    return [Permutation._of(p) for p in sorted(_dihedral_images(two_n))]


def _dihedral_images(m: int) -> set[tuple[int, ...]]:
    """The images of the rotations and reflections of 1..m.

    sigma^(s-1) is the up-run (s, s+1, ..., m, 1, ..., s-1), and
    sigma^(s-1) o tau is the down-run (s, s-1, ..., 1, m, ..., s+1), which
    is the up-run from s+1 read backwards; s runs over 1..m.
    """
    rotations = [(*range(s, m + 1), *range(1, s)) for s in range(1, m + 1)]
    return {*rotations, *(r[::-1] for r in rotations)}


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
