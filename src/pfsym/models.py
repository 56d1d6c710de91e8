"""Kernel-generated arrays and machine checks of the pfaffian identities.

The two built-in kernels are the squared difference (exact, symbolic) and
the cosine of the difference (numeric only).  Custom kernels are
polynomials in the difference x - y, which makes the collapse theorem's
preconditions decidable: such a kernel is translation invariant by
construction and symmetric exactly when the polynomial is even.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .pfaffian import SYMMETRIC, TriangularArray, pfaffian_direct
from .polyring import Poly, _exact, pos, x


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check, with both sides kept for diagnosis."""

    check: str
    n: int | None
    mode: str
    passed: bool
    residual: float
    lhs: str
    rhs: str
    seed: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "mode": self.mode,
            "pass": self.passed,
            "residual": self.residual,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "seed": self.seed,
        }


class DifferenceKernel:
    """psi(x, y) = phi(x - y) for a polynomial phi with rational coefficients.

    Translation invariant by construction; symmetric iff phi is even.
    The coefficients c0, c1, ... of phi follow the Poly rule (ints,
    Fractions or "p/q" strings; a float or a boolean is a ValueError) and
    are stored as Fractions.
    """

    numeric_only = False
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(Fraction(_exact(c, f"kernel coefficient c{k} =")) for k, c in enumerate(coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    @property
    def name(self) -> str:
        return "square-diff" if self.coeffs == (0, 0, 1) else "difference-poly"

    @property
    def is_symmetric(self) -> bool:
        return all(c == 0 for k, c in enumerate(self.coeffs) if k % 2 == 1)

    def constant(self) -> Fraction:
        """psi(0, 0) = phi(0)."""
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def value(self, xv, yv):
        """phi(xv - yv) by Horner's rule, in the scalar domain of the positions.

        Horner starts at the leading coefficient, a scalar, so its first
        product takes the scalar arm of `Poly.__mul__`: an entry of degree k
        in Poly positions costs k - 1 packed products.
        """
        d = xv - yv
        if len(self.coeffs) > 1:
            *rest, acc = self.coeffs
        else:  # a constant or zero kernel starts at zero, a Poly for Poly positions
            rest, acc = self.coeffs, Poly.zero() if isinstance(d, Poly) else 0
        for c in reversed(rest):
            acc = acc * d + c
        return acc


class CosineKernel:
    """psi(x, y) = cos(x - y); numeric only, psi(0, 0) = 1."""

    numeric_only = True
    is_symmetric = True
    name = "cosine"

    def constant(self) -> float:
        return 1.0

    def value(self, xv, yv) -> float:
        return math.cos(xv - yv)


SQUARE_DIFF = DifferenceKernel((0, 0, 1))
COSINE = CosineKernel()


def position_polys(two_n: int) -> list[Poly]:
    """The symbolic positions x_1 .. x_{two_n}."""
    return [x(i) for i in range(1, two_n + 1)]


def kernel_array(kernel, xs: Sequence) -> TriangularArray:
    """Symmetric-mode array with entries psi(x_i, x_j) for i < j."""
    xs = list(xs)
    if len(xs) % 2 != 0:
        raise ValueError(f"need an even number of positions, got {len(xs)}")
    if any(isinstance(v, Poly) for v in xs):
        if kernel.numeric_only:
            raise ValueError(f"the {kernel.name} kernel is numeric only")
        xs = [v if isinstance(v, Poly) else Poly.const(v) for v in xs]
    return TriangularArray.from_function(
        len(xs), SYMMETRIC, lambda i, j: kernel.value(xs[i - 1], xs[j - 1])
    )


def g_poly(two_n: int) -> Poly:
    """The expanded cycle product (x_1-x_2)(x_2-x_3)...(x_{2n}-x_1)."""
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"two_n must be even and >= 2, got {two_n}")
    prod = Poly.const(1)
    for k in range(1, two_n):
        prod = prod * (x(k) - x(k + 1))
    return prod * (x(two_n) - x(1))


# -- theorem checks ------------------------------------------------------------


def verify_theorem3(n: int) -> VerificationReport:
    """Closed form of the squared-difference pfaffian.

    Symbolically, for n <= 4: pf equals -(-2)**(n-1) times the cycle
    product.  At the integer positions (1..2n) this specializes to
    (-2)**(n-1) * (2n-1); that value is recomputed here exactly from the
    rational array, for every n, by the integer memo up to 2n = MEMO_MAX
    and by elimination above it, so the numeric check does not lean on the
    symbolic identity.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    symbolic = n <= 4
    two_n = 2 * n
    checks = []

    ints = [Fraction(i) for i in range(1, two_n + 1)]
    numeric = pfaffian_direct(kernel_array(SQUARE_DIFF, ints))
    numeric_expected = Fraction((-2) ** (n - 1) * (2 * n - 1))
    checks.append(numeric == numeric_expected)
    lhs_text = str(numeric)
    rhs_text = str(numeric_expected)

    if symbolic:
        pf = pfaffian_direct(kernel_array(SQUARE_DIFF, position_polys(two_n)))
        expected = Fraction(-((-2) ** (n - 1))) * g_poly(two_n)
        checks.append(pf == expected)
        checks.append(pf.eval_rational({pos(i): i for i in range(1, two_n + 1)}) == numeric_expected)
        lhs_text = str(pf)
        rhs_text = str(expected)

    mode = "symbolic+rational" if symbolic else "rational"
    return VerificationReport(
        check="theorem3", n=n, mode=mode, passed=all(checks), residual=0.0,
        lhs=lhs_text, rhs=rhs_text,
    )


def verify_theorem2(kernel, xs: Sequence, s: int, tol: float = 1e-12) -> VerificationReport:
    """Collapse of the pfaffian when two cyclically adjacent positions merge.

    Sets x_{s+1} := x_s (for s = 2n this wraps around: x_1 := x_{2n}) and
    compares the 2n-point pfaffian against psi(0,0) times the (2n-2)-point
    pfaffian on the remaining positions.  Exact for symbolic kernels,
    within `tol` for numeric ones.
    """
    xs = list(xs)
    two_n = len(xs)
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"need an even number of positions >= 2, got {two_n}")
    if not 1 <= s <= two_n:
        raise IndexError(f"s={s} outside 1..{two_n}")
    if not kernel.is_symmetric:
        raise ValueError(f"the {kernel.name} kernel is not symmetric")

    t = s + 1 if s < two_n else 1
    collapsed = list(xs)
    collapsed[t - 1] = xs[s - 1]
    lhs = pfaffian_direct(kernel_array(kernel, collapsed))
    remaining = [v for k, v in enumerate(collapsed, start=1) if k != s and k != t]
    sub = pfaffian_direct(kernel_array(kernel, remaining)) if remaining else 1
    rhs = kernel.constant() * sub

    if isinstance(lhs, float) or isinstance(rhs, float):
        residual = abs(lhs - rhs)
        passed = residual <= tol
        mode = f"{kernel.name}/numeric"
    else:
        diff = lhs - rhs
        passed = diff == 0
        # exact comparison: 1.0 just flags a mismatch, the sides carry the detail
        residual = 0.0 if passed else 1.0
        mode = f"{kernel.name}/exact"
    return VerificationReport(
        check="theorem2", n=two_n // 2, mode=f"{mode},s={s}", passed=passed,
        residual=residual, lhs=str(lhs), rhs=str(rhs),
    )


def verify_theorem4(n: int, xs: Sequence[float], tol: float = 1e-12) -> VerificationReport:
    """Cosine-kernel pfaffian against the cosine of the alternating sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    xs = [float(v) for v in xs]
    if len(xs) != 2 * n:
        raise ValueError(f"need {2 * n} positions, got {len(xs)}")
    lhs = pfaffian_direct(kernel_array(COSINE, xs))
    alternating = sum(v if i % 2 == 0 else -v for i, v in enumerate(xs))
    rhs = math.cos(alternating)
    residual = abs(lhs - rhs)
    return VerificationReport(
        check="theorem4", n=n, mode="cosine/numeric", passed=residual <= tol,
        residual=residual, lhs=repr(lhs), rhs=repr(rhs),
    )


def verify_trig_lemma1(alpha: float, beta: float, theta: float, tol: float = 1e-13) -> VerificationReport:
    """Product-difference identity for cosines of shifted angles."""
    lhs = -math.cos(alpha) * math.cos(theta - alpha) + math.cos(beta) * math.cos(theta - beta)
    rhs = math.sin(alpha - beta) * math.sin(alpha + beta - theta)
    residual = abs(lhs - rhs)
    return VerificationReport(
        check="trig1", n=None, mode="numeric", passed=residual <= tol,
        residual=residual, lhs=repr(lhs), rhs=repr(rhs),
    )


def _alternating_tail_sum(alphas: Sequence[float], i: int) -> float:
    # sum_{j<i} (-1)^j a_j  minus  sum_{j>i} (-1)^j a_j, 1-based
    n = len(alphas)
    left = sum((-1) ** j * alphas[j - 1] for j in range(1, i))
    right = sum((-1) ** j * alphas[j - 1] for j in range(i + 1, n + 1))
    return left - right


def verify_trig_lemma2(alphas: Sequence[float], tol: float = 1e-12) -> VerificationReport:
    """Alternating sine/cosine sums against their closed forms.

    The sine-weighted sum vanishes for every n.  The cosine-weighted sum
    vanishes for odd n and equals sin(sum_j (-1)**j alpha_j) for even n;
    the sign of the even case is pinned by direct evaluation at n = 2,
    where the sum telescopes to cos(a1)sin(a2) - cos(a2)sin(a1).
    """
    alphas = [float(v) for v in alphas]
    n = len(alphas)
    if n < 1:
        raise ValueError("need at least one angle")
    sine_sum = sum(
        (-1) ** i * math.sin(alphas[i - 1]) * math.sin(_alternating_tail_sum(alphas, i))
        for i in range(1, n + 1)
    )
    cos_sum = sum(
        (-1) ** i * math.cos(alphas[i - 1]) * math.sin(_alternating_tail_sum(alphas, i))
        for i in range(1, n + 1)
    )
    if n % 2 == 0:
        cos_expected = math.sin(sum((-1) ** j * alphas[j - 1] for j in range(1, n + 1)))
    else:
        cos_expected = 0.0
    residual = max(abs(sine_sum), abs(cos_sum - cos_expected))
    return VerificationReport(
        check="trig2", n=n, mode="numeric", passed=residual <= tol,
        residual=residual,
        lhs=repr((sine_sum, cos_sum)), rhs=repr((0.0, cos_expected)),
    )
