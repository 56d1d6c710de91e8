"""Command-line front end.

Subcommands: expand, matchings, eval, det, sym, verify.  Output is text
or JSON lines (--format); all randomness is seeded and the seed is echoed
in every report, so verify runs are reproducible byte for byte.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import pfaffian
from .matchings import enumerate_pfaff, matching_count
from .models import (
    COSINE,
    SQUARE_DIFF,
    VerificationReport,
    position_polys,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    verify_trig_lemma1,
    verify_trig_lemma2,
)
from .pfaffian import (
    SKEW,
    SYMMETRIC,
    TriangularArray,
    _bareiss_det,
    completed_determinant,
    generic_pfaffian,
    hook_expand_skew,
    hook_expand_symmetric,
    parse_square_json,
    pfaffian_direct,
    scalar_to_json,
    upper_pairs,
)
from .permutations import SYM_CAP, Permutation, classify_runs, dihedral_generators, enumerate_sym
from .polyring import Poly, x
from .symmetry import (
    SKEW_GENS,
    SYMMETRIC_GENS,
    act,
    dihedral_group,
    pfaffian_symmetry_group,
    sym_of_g,
    symmetry_group,
)


def _emit(args, text: str, obj) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


# -- plain subcommands ---------------------------------------------------------


def _cmd_expand(args) -> int:
    poly = generic_pfaffian(args.two_n)
    _emit(args, str(poly), {"two_n": args.two_n, "pfaffian": poly.to_json_obj()})
    return 0


def _cmd_matchings(args) -> int:
    for m, s in enumerate_pfaff(args.two_n, first_partner=args.first_partner):
        text = "".join(f"({i},{j})" for i, j in m.pairs) + (" +1" if s == 1 else " -1")
        _emit(args, text, {"pairs": m.to_json(), "sign": s})
    return 0


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_eval(args) -> int:
    arr = TriangularArray.from_json_obj(_load_json(args.file))
    if args.hook is None:
        value = pfaffian_direct(arr)
    elif arr.mode == SYMMETRIC:
        value = hook_expand_symmetric(arr, args.hook)
    elif arr.mode == SKEW:
        value = hook_expand_skew(arr, args.hook)
    else:
        raise ValueError("hook expansion needs a symmetric or skew array, not plain")
    _emit(args, str(value), {"two_n": arr.two_n, "mode": arr.mode, "pfaffian": scalar_to_json(value)})
    return 0


def _cmd_det(args) -> int:
    size, mode, entries = parse_square_json(_load_json(args.file))
    value = completed_determinant(size, mode, entries)
    _emit(args, str(value), {"size": size, "mode": mode, "determinant": scalar_to_json(value)})
    return 0


def _cmd_sym(args) -> int:
    if (args.pfaffian is None) == (args.poly_file is None):
        raise ValueError("sym needs exactly one of --pfaffian TWO_N or a polynomial file")
    if args.pfaffian is not None:
        if args.m is not None:
            raise ValueError("--m applies to a polynomial file; --pfaffian TWO_N acts in S_TWO_N")
        m = args.pfaffian
        report = pfaffian_symmetry_group(m, args.gens, signed=args.signed)
    else:
        if args.m is None:
            raise ValueError("--m is required with a polynomial file")
        m = args.m
        poly = Poly.from_json_obj(_load_json(args.poly_file))
        report = symmetry_group(poly, m, args.gens, signed=args.signed)
    obj = report.to_json_obj()
    obj.update({"m": m, "gens": args.gens, "signed": args.signed})
    if not args.elements:
        obj.pop("elements")
    lines = [
        f"order {report.order}",
        f"equals dihedral subgroup: {report.equals_dihedral}",
    ]
    if report.witness is not None:
        lines.append(f"witness in symmetric difference: {list(report.witness.images)}")
    if args.elements:
        lines += [str(list(p.images)) for p in report.elements]
    _emit(args, "\n".join(lines), obj)
    return 0


# -- the verify registry --------------------------------------------------------


def _angles(rng, k: int) -> list[float]:
    return [rng.uniform(-math.pi, math.pi) for _ in range(k)]


def _worst(reports) -> tuple[bool, float]:
    """(all passed, largest residual) over the reports of repeated draws."""
    ok, worst = True, 0.0
    for r in reports:
        ok &= r.passed
        worst = max(worst, r.residual)
    return ok, worst


def _run_matchings(ns, rng, tol):
    """`enumerate_pfaff` against the double factorial `matching_count`, and, up
    to 2n = SYM_CAP, its matchings against a brute-force filter of S_2n.
    All n fold into one row.
    """
    counts_ok = True
    detail = []
    for n in ns:
        two_n = 2 * n
        got = sum(1 for _ in enumerate_pfaff(two_n))
        counts_ok &= got == matching_count(two_n)
        detail.append(got)
        # the brute-force half scans S_2n, which enumerate_sym refuses past SYM_CAP
        if two_n <= SYM_CAP:
            canon = {m.flatten() for m, _ in enumerate_pfaff(two_n)}
            brute = set()
            for p in enumerate_sym(two_n):
                pairs = [(p.images[2 * k], p.images[2 * k + 1]) for k in range(n)]
                if all(i < j for i, j in pairs) and all(
                    pairs[k][0] < pairs[k + 1][0] for k in range(n - 1)
                ):
                    brute.add(p.images)
            counts_ok &= canon == brute
    yield (None, "exact", counts_ok, 0.0, f"counts {detail}",
           "double factorials + brute-force filter")


def _run_theorem1(ns, rng, tol):
    """The backtrack of `symmetry_group` (n <= 3) or `_cut_search` (n >= 4)
    against <sigma, tau>, whose rotations and reflections `make_group_report`
    writes down with no closure.
    """
    for n in ns:
        two_n = 2 * n
        if n <= 3:
            rep = symmetry_group(generic_pfaffian(two_n), two_n, SYMMETRIC_GENS)
            route = "polynomial-action"
        else:
            rep = pfaffian_symmetry_group(two_n, SYMMETRIC_GENS)
            route = "cut-search"
        expected = 4 * n if n >= 2 else 2
        ok = rep.equals_dihedral and rep.order == expected
        yield (n, f"symmetric-gens/{route}", ok, 0.0,
               f"order {rep.order}", f"dihedral subgroup, order {expected}")


def _run_dihedral_invariance(ns, rng, tol):
    """The dihedral subgroup <sigma, tau> fixes the generic pfaffian.

    Not two routes: `act` relabels the one pfaffian that `_expand` computes.
    {p : act(p, pf) = pf} is a subgroup, because act is a linear group
    action, so it holds <sigma, tau> once it holds sigma and tau: the
    check acts with those two generators only.
    """
    for n in ns:
        pf = generic_pfaffian(2 * n)
        bad = [d for d in dihedral_generators(2 * n) if act(d, pf, SYMMETRIC_GENS) != pf]
        yield n, "symmetric-gens", not bad, 0.0, f"{len(bad)} violations", "0 violations"


def _run_ssym_skew(ns, rng, tol):
    """On skew generators every p in S_2n acts on the generic pfaffian by its sign.

    Not two routes: `act` relabels the one pfaffian that `_expand` computes.
    {p : act(p, pf) = sgn(p) pf} is a subgroup, because act is a linear
    group action and sgn a homomorphism.  The transposition (1 2) and the
    2n-cycle sigma generate S_2n, so the check acts with those two only.
    """
    for n in ns:
        two_n = 2 * n
        pf = generic_pfaffian(two_n)
        swap = Permutation([2, 1, *range(3, two_n + 1)])
        cycle = dihedral_generators(two_n)[0]
        ok = all(act(p, pf, SKEW_GENS) == (pf if p.sign == 1 else -pf) for p in (swap, cycle))
        lhs = "sign character" if ok else "violation found"
        yield n, "skew-gens", ok, 0.0, lhs, "sign character"


def _run_theorem2(ns, rng, tol):
    """The collapse identity.  Not two routes: `pfaffian_direct` of the collapsed
    array against c times `pfaffian_direct` of the reduced one, by the route
    `_pfaffian` picks for each: the Poly memo for the square-difference
    kernel and float elimination for the cosine one.
    """
    numeric_tol = tol if tol is not None else 1e-12
    for n in ns:
        two_n = 2 * n
        xs = position_polys(two_n)
        ok = all(verify_theorem2(SQUARE_DIFF, xs, s).passed for s in range(1, two_n + 1))
        yield n, "square-diff/exact,all s", ok, 0.0, "collapsed pfaffian", "c * reduced pfaffian"
        xs = _angles(rng, two_n)
        ok, worst = _worst(
            verify_theorem2(COSINE, xs, s, tol=numeric_tol) for s in range(1, two_n + 1)
        )
        yield n, "cosine/numeric,all s", ok, worst, "collapsed pfaffian", "c * reduced pfaffian"


def _run_theorem3(ns, rng, tol):
    """`pfaffian_direct` at the integer points (fraction-free elimination,
    `_pf_fraction_free`) against the closed form (-2)^(n-1) (2n-1), and
    for n <= 4 the Poly memo against -(-2)^(n-1) g.
    """
    for n in ns:
        r = verify_theorem3(n)
        yield n, r.mode, r.passed, r.residual, r.lhs, r.rhs


def _run_theorem4(ns, rng, tol):
    """Float elimination against the closed form cos(alternating sum)."""
    for n in ns:
        n_tol = tol if tol is not None else (1e-12 if n <= 5 else 1e-10)
        ok, worst = _worst(verify_theorem4(n, _angles(rng, 2 * n), tol=n_tol) for _ in range(100))
        yield (n, "cosine/numeric,100 draws", ok, worst,
               "pfaffian of cos(x_i - x_j)", "cos(alternating sum)")


def _run_g_symmetry(ns, rng, tol):
    """`sym_of_g`, the backtrack of `symmetry_group` on g, against <sigma, tau>
    written down with no closure; and `classify_runs` against membership in
    that subgroup over all of S_2n.
    """
    for n in ns:
        two_n = 2 * n
        # the group half stops at n = 3 only so the default output keeps its
        # lines; sym_of_g(8) would take about 10 ms (2-core VM)
        if n <= 3:
            rep = sym_of_g(two_n)
            ok = rep.equals_dihedral and rep.order == 4 * n
            yield n, "group", ok, 0.0, f"order {rep.order}", f"dihedral subgroup, order {4 * n}"
        members = {p.images for p in dihedral_group(two_n)}
        ok = all(
            classify_runs(p).is_dihedral == (p.images in members) for p in enumerate_sym(two_n)
        )
        yield n, "run-classifier", ok, 0.0, "run shapes", "subgroup membership"


def _run_trig1(ns, rng, tol):
    """The cosine product difference against the sine product, both in floats."""
    t = tol if tol is not None else 1e-13
    ok, worst = _worst(verify_trig_lemma1(*_angles(rng, 3), tol=t) for _ in range(1000))
    yield None, "numeric,1000 draws", ok, worst, "cosine product difference", "sine product"


def _run_trig2(ns, rng, tol):
    """The alternating sine and cosine sums against their closed forms, in floats."""
    t = tol if tol is not None else 1e-12
    ok, worst = _worst(
        verify_trig_lemma2(_angles(rng, rng.randint(1, 8)), tol=t) for _ in range(1000)
    )
    yield None, "numeric,1000 draws", ok, worst, "alternating sine/cosine sums", "closed forms"


def _run_det_examples(ns, rng, tol):
    """`_expand` on the skew embedding of `completed_determinant` against hand
    expansions: det [[0,c],[c,0]] = -c^2 with c = (x1-x2)^2, 2abc for the
    zero-diagonal symmetric 3x3, and 0 at rank 3 < size.
    """
    d2, d3, d4, d5 = (
        completed_determinant(k, SYMMETRIC, {(i, j): (x(i) - x(j)) ** 2 for i, j in upper_pairs(k)})
        for k in (2, 3, 4, 5)
    )
    ok = (
        d2 == -((x(1) - x(2)) ** 4)
        and d3 == 2 * ((x(1) - x(2)) * (x(2) - x(3)) * (x(3) - x(1))) ** 2
        and d4 == Poly.zero()
        and d5 == Poly.zero()
    )
    yield (
        None, "symbolic", ok, 0.0, "determinants of squared-difference matrices, sizes 2..5",
        "-(x1-x2)^4, 2((x1-x2)(x2-x3)(x3-x1))^2, 0, 0",
    )


def _run_hook_oracle(ns, rng, tol):
    """Every hook expansion against `_pf_eliminate` of the array in
    Fractions, on random Fraction arrays.  The hooks run fraction-free
    elimination on integers (`_pf_fraction_free`), so the routes share no
    kernel.
    """
    for n in ns:
        two_n = 2 * n
        pairs = list(upper_pairs(two_n))
        ok = True
        for mode, expand in ((SYMMETRIC, hook_expand_symmetric), (SKEW, hook_expand_skew)):
            for _ in range(50):
                entries = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for p in pairs}
                arr = TriangularArray(two_n, mode, entries)
                direct = pfaffian._pf_eliminate(entries, tuple(range(1, two_n + 1)), Fraction)
                ok &= all(expand(arr, s) == direct for s in range(1, two_n + 1))
        yield n, "exact,both modes,50 arrays", ok, 0.0, "hook expansions", "direct pfaffian"


def _run_skew_det(ns, rng, tol):
    """`_bareiss_det` on the rows of `lookup`, Bareiss elimination on
    integers, against `_pf_eliminate` squared in Fractions, not the pf^2 of
    `determinant`, on random integral skew arrays.
    """
    for n in ns:
        two_n = 2 * n
        pairs = list(upper_pairs(two_n))
        ok = True
        for _ in range(50):
            arr = TriangularArray(two_n, SKEW, {p: Fraction(rng.randint(-9, 9)) for p in pairs})
            rows = [[Fraction(arr.lookup(i, j)) for j in range(1, two_n + 1)] for i in range(1, two_n + 1)]
            det = _bareiss_det(rows)
            ok &= det == pfaffian._pf_eliminate(arr.entries, tuple(range(1, two_n + 1)), Fraction) ** 2
        yield n, "exact,50 arrays", ok, 0.0, "determinant", "pfaffian squared"


# name -> (runner, default n list, the n range (lo, hi) the runner handles).
# A runner takes (ns, rng, tol) and yields rows (n, mode, passed, residual,
# lhs, rhs), which `_cmd_verify` makes reports named by the key and seeded
# by --seed.  Checks that take no n have no range.
# A runner is passed only the n of its range; naming a check with none of
# them is an error.  dihedral-invariance and ssym-skew stop at n = 6, where
# each takes about 0.3 s; at n = 7, generic_pfaffian(14) alone takes 2.4 s
# and 112 MB.  Each other upper bound is the last measured n under 2 s.
# hook-oracle stops at n = 9: 0.46 s at n = 6, 0.88 s at 8, 1.1-1.6 s at 9
# and 1.6-2.2 s at 10.  skew-det stops at n = 15: 0.30 s at n = 8, 0.9-1.3 s
# at 14, 1.7 s at 15 and 1.7-2.1 s at 16.  theorem1 stops at n = 64: the cut
# search and its certificate take 0.01 s at n = 16, 0.06 s at 32, 0.44 s at
# 64 and 2.8 s at 128.  theorem3 stops at n = 128: 0.21 s at n = 64,
# 0.9-1.3 s at 128 and 1.3-2.1 s at 144.  theorem4 stops at n = 48: 0.4 s at
# n = 32, 1.1-1.3 s at 48 and 2.9-3.2 s at 64 (2-core VM, Python 3.11).
CHECKS = {
    "matchings": (_run_matchings, [1, 2, 3, 4, 5], (1, 5)),
    "theorem1": (_run_theorem1, [1, 2, 3], (1, 64)),
    "dihedral-invariance": (_run_dihedral_invariance, [1, 2, 3, 4], (1, 6)),
    "ssym-skew": (_run_ssym_skew, [1, 2, 3], (1, 6)),
    "theorem2": (_run_theorem2, [2, 3], (2, 4)),
    "theorem3": (_run_theorem3, [1, 2, 3, 4, 5], (1, 128)),
    "theorem4": (_run_theorem4, [1, 2, 3, 4, 5, 6, 7], (1, 48)),
    "g-symmetry": (_run_g_symmetry, [2, 3, 4], (2, 4)),
    "trig1": (_run_trig1, [None], None),
    "trig2": (_run_trig2, [None], None),
    "det-examples": (_run_det_examples, [None], None),
    "hook-oracle": (_run_hook_oracle, [2, 3, 4], (2, 9)),
    "skew-det": (_run_skew_det, [1, 2, 3], (1, 15)),
}


def _parse_n_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise ValueError(f"--n expects N or LO..HI, got {text!r}") from None


def _supports(name: str, n) -> bool:
    """Whether n lies in the CHECKS range of `name`; a check with no range takes any n."""
    supported = CHECKS[name][2]
    if supported is None:
        return True
    lo, hi = supported
    return lo <= n <= hi


def _require_runnable_n(name: str, requested: list[int]) -> None:
    """Refuse a check named on the command line that would run no n at all."""
    if not any(_supports(name, n) for n in requested):
        lo, hi = CHECKS[name][2]
        raise ValueError(f"check {name!r} supports n {lo}..{hi}, none requested")


def _cmd_verify(args) -> int:
    names = args.checks or ["all"]
    explicit = names != ["all"]
    if not explicit:
        names = list(CHECKS)
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; available: {', '.join(CHECKS)}, all")
    requested = _parse_n_range(args.n) if args.n else None
    if explicit and requested is not None:
        for name in names:
            _require_runnable_n(name, requested)
    all_ok = True
    for name in names:
        runner, default_ns, _ = CHECKS[name]
        ns = [n for n in (requested or default_ns) if _supports(name, n)]
        if not ns:
            continue
        rng = random.Random(f"{args.seed}:{name}")
        for row in runner(ns, rng, args.tol):
            report = VerificationReport(name, *row, seed=args.seed)
            all_ok &= report.passed
            status = "PASS" if report.passed else "FAIL"
            text = f"{status} {report.check}" + (f" n={report.n}" if report.n is not None else "")
            text += f" [{report.mode}] residual={report.residual:.3g}"
            if not report.passed:
                text += f"\n  lhs: {report.lhs}\n  rhs: {report.rhs}"
            _emit(args, text, report.to_json_obj())
    return 0 if all_ok else 1


# -- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="pfsym",
        description="Pfaffians of triangular arrays and symmetry groups of pfaffian polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="symbolic pfaffian of order TWO_N")
    p.add_argument("two_n", type=int)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("matchings", parents=[common], help="perfect matchings with signs, one per line")
    p.add_argument("two_n", type=int)
    p.add_argument("--first-partner", type=int, default=None, help="only matchings pairing 1 with this index")
    p.set_defaults(func=_cmd_matchings)

    p = sub.add_parser("eval", parents=[common], help="pfaffian of a triangular array file")
    p.add_argument("file")
    p.add_argument("--hook", type=int, default=None, help="use the hook expansion along this index")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("det", parents=[common], help="determinant of the completed matrix (size may be odd)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("sym", parents=[common], help="symmetry group of a polynomial or of the generic pfaffian")
    p.add_argument("poly_file", nargs="?", default=None, help="polynomial JSON file")
    p.add_argument("--pfaffian", type=int, default=None, metavar="TWO_N",
                   help="use the built-in generic pfaffian of this order")
    p.add_argument("--m", type=int, default=None, help="degree of the acting symmetric group")
    p.add_argument("--gens", choices=(SYMMETRIC_GENS, SKEW_GENS), default=SYMMETRIC_GENS)
    p.add_argument("--signed", action="store_true", help="skew-symmetry group (fix up to sign)")
    p.add_argument("--elements", action="store_true", help="print the full element list")
    p.set_defaults(func=_cmd_sym)

    p = sub.add_parser("verify", parents=[common], help="run identity checks (default: all)")
    p.add_argument("checks", nargs="*", metavar="CHECK",
                   help=f"any of: {', '.join(CHECKS)}, all")
    p.add_argument("--n", default=None, help="half-order range, e.g. 2 or 1..3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="override the numeric tolerance")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (ValueError, IndexError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); die quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
