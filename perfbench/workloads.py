"""Seeded operation lists for the three workloads.

Each workload is a fixed list of operations built from the seed.  One
operation is one call of a public pfsym function; its output is checked
afterwards against an oracle from `oracles`, which does not use pfsym.
Inputs are built here, outside every timed region.

The mixes are sized so that the median and 90th-percentile latencies of
a run each fall inside a block of operations of one kind and size, away
from the edges of that block, and so that the halves named in each
workload's docstring keep their shares of the run time.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

import pfsym

import oracles

SYM, SKEW, PLAIN = pfsym.SYMMETRIC, pfsym.SKEW, pfsym.PLAIN


@dataclass
class Op:
    kind: str  # operations of one kind make the same call on inputs of one shape
    size: int  # 2n for pfaffians, the matrix size for determinants, m for S_m
    half: str  # the share of the workload the operation counts toward
    spec: dict  # JSON-able description of the generated input
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, float]]  # canonical output -> (ok, residual)


def canonical(output):
    """Plain, comparable form of an output: numbers stay, objects become JSON."""
    if isinstance(output, (int, float, Fraction)):
        return output
    if isinstance(output, list):
        return tuple(canonical(v) for v in output)
    return json.dumps(output.to_json_obj(), sort_keys=True)


def digest(ops: list[Op]) -> str:
    """Hash of every generated input, in operation order."""
    text = json.dumps([[op.kind, op.size, op.spec] for op in ops], sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def warmup(ops: list[Op]) -> list[Op]:
    """One operation of each kind, the smallest one."""
    first: dict[str, Op] = {}
    for op in ops:
        if op.kind not in first or op.size < first[op.kind].size:
            first[op.kind] = op
    return list(first.values())


def _once(compute):
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]

    return get


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_point(rng: random.Random, labels) -> dict:
    return {label: Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for label in labels}


def _relabeling(rng: random.Random, m: int) -> tuple[int, ...]:
    images = list(range(1, m + 1))
    rng.shuffle(images)
    return tuple(images)


# -- numeric -----------------------------------------------------------------

# (2n, arrays of each family): 100 operations.  2n=10 spans 36%-60% of
# them, around the median; 2n=12 spans 60%-96%, around the 90th
# percentile; the four at 2n=14 take most of the time.  The sizes span
# both sides of the float kernel's switch from a matching table to
# recursion above 2n=12.  A short list makes many passes, so that each
# operation's fastest time is steady.
NUMERIC_MIX = ((4, 6), (6, 6), (8, 6), (10, 12), (12, 18), (14, 2))


def _cosine_op(rng: random.Random, two_n: int) -> Op:
    xs = [rng.uniform(-math.pi, math.pi) for _ in range(two_n)]
    entries = {(i, j): math.cos(xs[i - 1] - xs[j - 1]) for i, j in oracles.upper_pairs(two_n)}
    arr = pfsym.TriangularArray(two_n, SYM, entries)
    tol = 1e-12 if two_n <= 10 else 1e-10  # verify's tolerances: n <= 5, n > 5

    def check(pf):
        residual = abs(pf - oracles.cosine_closed_form(xs))
        return residual <= tol, residual

    return Op("pf.cosine", two_n, "float", {"xs": xs}, lambda: pfsym.pfaffian_direct(arr), check)


def _random_skew_op(rng: random.Random, two_n: int) -> Op:
    entries = {p: rng.uniform(-1.0, 1.0) for p in oracles.upper_pairs(two_n)}
    arr = pfsym.TriangularArray(two_n, SKEW, entries)
    det = _once(lambda: oracles.exact_det(oracles.completed_matrix(two_n, True, entries)))

    def check(pf):
        # pf^2 = det for skew arrays; the scale keeps the test relative
        exact = float(det())
        residual = abs(pf * pf - exact) / max(1.0, abs(exact))
        return residual <= 1e-10, residual

    spec = {"entries": [entries[p] for p in oracles.upper_pairs(two_n)]}
    return Op("pf.random-skew", two_n, "float", spec, lambda: pfsym.pfaffian_direct(arr), check)


def numeric(rng: random.Random) -> list[Op]:
    """Double-precision pfaffians: cosine-kernel and random skew arrays."""
    ops = []
    for two_n, count in NUMERIC_MIX:
        for _ in range(count):
            ops.append(_cosine_op(rng, two_n))
            ops.append(_random_skew_op(rng, two_n))
    return ops


# -- exact -------------------------------------------------------------------

# Fraction arrays: (2n, arrays of each mode).  Each symmetric or skew array
# gives three operations (pfaffian, hook expansion, determinant) and each
# plain array one (pfaffian).  The median falls in the middle of the
# pfaffians at 2n=8, the 90th percentile in the pfaffians at 2n=10.
EXACT_ARRAYS = ((4, 2), (6, 4), (8, 8), (10, 10))
# Symbolic squared-difference pfaffians and Poly determinants: (size, count).
SYMBOLIC_PF = ((4, 4), (6, 4), (8, 4))
POLY_DET = ((2, 4), (3, 4), (4, 4), (5, 4))


def _array_ops(rng: random.Random, two_n: int, mode: str) -> list[Op]:
    entries = {p: _random_fraction(rng) for p in oracles.upper_pairs(two_n)}
    arr = pfsym.TriangularArray(two_n, mode, entries)
    spec = {"mode": mode, "entries": [str(entries[p]) for p in oracles.upper_pairs(two_n)]}
    pf = _once(lambda: oracles.reference_pfaffian(entries, tuple(range(1, two_n + 1))))

    def check_pf(value):
        return value == pf(), 0.0

    ops = [Op("pf.fraction", two_n, "fraction", spec, lambda: pfsym.pfaffian_direct(arr), check_pf)]
    if mode == PLAIN:
        return ops
    hook = rng.randint(1, two_n)
    expand = "hook_expand_symmetric" if mode == SYM else "hook_expand_skew"
    ops.append(Op(
        "hook.fraction", two_n, "fraction", {**spec, "hook": hook},
        lambda: getattr(pfsym, expand)(arr, hook), check_pf,
    ))
    det = _once(lambda: oracles.exact_det(oracles.completed_matrix(two_n, mode == SKEW, entries)))

    def check_det(value):
        ok = value == det()
        if mode == SKEW:
            ok = ok and value == pf() ** 2
        return ok, 0.0

    ops.append(Op("det.fraction", two_n, "fraction", spec, lambda: pfsym.determinant(arr), check_det))
    return ops


def _square_diff(labels, i: int, j: int):
    return (pfsym.x(labels[i - 1]) - pfsym.x(labels[j - 1])) ** 2


def _symbolic_pf_op(rng: random.Random, two_n: int) -> Op:
    labels = _relabeling(rng, two_n)
    arr = pfsym.TriangularArray.from_function(two_n, SYM, lambda i, j: _square_diff(labels, i, j))
    points = [_random_point(rng, labels) for _ in range(2)]

    def check(terms_json):
        terms = json.loads(terms_json)
        ok = all(
            oracles.eval_terms(terms, {("x", k): v for k, v in point.items()})
            == oracles.square_diff_closed_form(labels, point)
            for point in points
        )
        return ok, 0.0

    return Op("pf.symbolic", two_n, "poly", {"labels": labels}, lambda: pfsym.pfaffian_direct(arr), check)


def _poly_det_op(rng: random.Random, size: int) -> Op:
    labels = _relabeling(rng, size)
    weights = {p: rng.randint(1, 3) for p in oracles.upper_pairs(size)}
    entries = {(i, j): w * _square_diff(labels, i, j) for (i, j), w in weights.items()}
    points = [_random_point(rng, labels) for _ in range(2)]

    def check(terms_json):
        terms = json.loads(terms_json)
        ok = True
        for point in points:
            values = {
                (i, j): w * (point[labels[i - 1]] - point[labels[j - 1]]) ** 2
                for (i, j), w in weights.items()
            }
            expected = oracles.exact_det(oracles.completed_matrix(size, False, values))
            ok &= oracles.eval_terms(terms, {("x", k): v for k, v in point.items()}) == expected
        return ok, 0.0

    spec = {"labels": labels, "weights": [weights[p] for p in oracles.upper_pairs(size)]}
    return Op(
        "det.poly", size, "poly", spec,
        lambda: pfsym.completed_determinant(size, SYM, entries), check,
    )


def exact(rng: random.Random) -> list[Op]:
    """Exact scalars: Fraction arrays in every mode, symbolic pfaffians, Poly determinants.

    Halves: "fraction" and "poly", each kept at a third of the time or more.
    """
    ops = []
    for two_n, count in EXACT_ARRAYS:
        for _ in range(count):
            for mode in (SYM, SKEW, PLAIN):
                ops.extend(_array_ops(rng, two_n, mode))
    for two_n, count in SYMBOLIC_PF:
        ops.extend(_symbolic_pf_op(rng, two_n) for _ in range(count))
    for size, count in POLY_DET:
        ops.extend(_poly_det_op(rng, size) for _ in range(count))
    return ops


# -- symmetry ----------------------------------------------------------------

# Searches: (m, generator mode, signed, count), 128 operations.  The
# median falls among the cheap m=4 searches.  The 90th percentile falls in
# the block of 14 polynomial-action searches on g at m=6 (unsigned); the
# six costlier searches (the m=6 skew searches, whose groups of order 360
# and 720 need every matching checked and a large closure check, and the
# m=8 classifier searches) are the top 5%.  The skew classifier search at
# m=8 (31 s) is left out, and so is the action search for SSym of the
# skew pfaffian at m=6, which is mostly the closure check of S_6.
U, S = pfsym.SYMMETRIC_GENS, pfsym.SKEW_GENS
CLASSIFIER_MIX = (
    (4, U, False, 12), (4, U, True, 12), (4, S, False, 12), (4, S, True, 12),
    (6, U, False, 1), (6, U, True, 1), (6, S, False, 1), (6, S, True, 1),
    (8, U, False, 1), (8, U, True, 1),
)
# Polynomial action (symmetry_group) on a relabeled generic pfaffian.
ACTION_PF_MIX = (
    (4, U, False, 12), (4, U, True, 12), (4, S, False, 12), (4, S, True, 12),
    (6, U, False, 1), (6, U, True, 1), (6, S, False, 1),
)
# Polynomial action on a relabeled cycle product g: (m, signed, count).
ACTION_G_MIX = ((4, False, 2), (4, True, 2), (6, False, 14), (6, True, 1))
SYM_OF_G_MIX = ((4, 2),)  # (m, count); the substitute route; sym_of_g(6) alone takes 8 s
RUNS_MIX = ((4, 1), (6, 1))  # run-shape classification of all of S_m


def _variant(mode: str, signed: bool) -> str:
    return f"{mode}.{'signed' if signed else 'unsigned'}"


def _group_check(expected: set):
    def check(report_json):
        report = json.loads(report_json)
        images = {tuple(p) for p in report["elements"]}
        return images == expected and report["order"] == len(expected), 0.0

    return check


def _pf_group(m: int, mode: str, signed: bool) -> set:
    # pf(P^T A P) = det P pf(A): on skew generators every p acts by its sign.
    # On symmetric generators the dihedral group fixes the pfaffian, so the
    # signed group (action equal to sign p) is its even part.
    if mode == pfsym.SKEW_GENS:
        return oracles.full_group(m) if signed else oracles.alternating_group(m)
    dihedral = oracles.dihedral_group(m)
    return {p for p in dihedral if oracles.is_even(p)} if signed else dihedral


def _relabeled_pfaffian(m: int, mode: str, r) -> object:
    """The generic pfaffian with a(i,j) replaced by a(r(i), r(j))."""
    terms = []
    for sign, pairs in oracles.matchings(m):
        coeff = sign
        variables = []
        for i, j in pairs:
            u, w = r[i - 1], r[j - 1]
            if u > w:
                u, w = w, u
                if mode == pfsym.SKEW_GENS:
                    coeff = -coeff
            variables.append(["a", u, w, 1])
        terms.append({"coeff": str(coeff), "vars": variables})
    return pfsym.Poly.from_json_obj(terms)


def _relabeled_g(m: int, r) -> object:
    """(x_r(1) - x_r(2)) (x_r(2) - x_r(3)) ... (x_r(m) - x_r(1))."""
    g = pfsym.Poly.const(1)
    for k in range(m):
        g = g * (pfsym.x(r[k]) - pfsym.x(r[(k + 1) % m]))
    return g


def symmetry(rng: random.Random) -> list[Op]:
    """Symmetry-group searches in S_m, m = 4..8.

    Halves: "classifier" (pfaffian_symmetry_group) and "action"
    (symmetry_group and sym_of_g), each kept at a third of the time or more.
    A relabeling r conjugates the expected group: Sym(r.f) = r Sym(f) r^-1.
    """
    ops = []
    for m, mode, signed, count in CLASSIFIER_MIX:
        params = {"mode": mode, "signed": signed}
        check = _group_check(_pf_group(m, mode, signed))
        for _ in range(count):
            ops.append(Op(
                f"search.classifier.{_variant(mode, signed)}", m, "classifier", params,
                lambda m=m, mode=mode, signed=signed: pfsym.pfaffian_symmetry_group(m, mode, signed),
                check,
            ))
    for m, mode, signed, count in ACTION_PF_MIX:
        for _ in range(count):
            r = _relabeling(rng, m)
            poly = _relabeled_pfaffian(m, mode, r)
            ops.append(Op(
                f"search.action-pf.{_variant(mode, signed)}", m, "action", {"mode": mode, "signed": signed, "r": r},
                lambda poly=poly, m=m, mode=mode, signed=signed: pfsym.symmetry_group(poly, m, mode, signed),
                _group_check(oracles.conjugate(_pf_group(m, mode, signed), r)),
            ))
    for m, signed, count in ACTION_G_MIX:
        for _ in range(count):
            r = _relabeling(rng, m)
            poly = _relabeled_g(m, r)
            ops.append(Op(
                f"search.action-g.{_variant(U, signed)}", m, "action", {"signed": signed, "r": r},
                lambda poly=poly, m=m, signed=signed: pfsym.symmetry_group(poly, m, pfsym.SYMMETRIC_GENS, signed),
                _group_check(oracles.conjugate(_pf_group(m, pfsym.SYMMETRIC_GENS, signed), r)),
            ))
    for m, count in SYM_OF_G_MIX:
        for _ in range(count):
            ops.append(Op(
                "search.substitute", m, "action", {},
                lambda m=m: pfsym.sym_of_g(m), _group_check(oracles.dihedral_group(m)),
            ))
    for m, count in RUNS_MIX:
        perms = [pfsym.Permutation(p) for p in permutations(range(1, m + 1))]
        dihedral = oracles.dihedral_group(m)
        expected = tuple(p.images in dihedral for p in perms)
        for _ in range(count):
            ops.append(Op(
                "classify-runs", m, "runs", {},
                lambda perms=perms: [pfsym.classify_runs(p).is_dihedral for p in perms],
                lambda out, expected=expected: (out == expected, 0.0),
            ))
    return ops


WORKLOADS = {"numeric": numeric, "exact": exact, "symmetry": symmetry}


def build(name: str, seed: int) -> list[Op]:
    """The workload's operations in a seeded order."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng)
    rng.shuffle(ops)
    return ops
