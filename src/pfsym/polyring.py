"""Exact sparse multivariate polynomials over the rationals.

Two variable families: generators a(i,j) with i < j, and positions x(i).
A variable is a plain tuple, ("a", i, j) or ("x", i); a monomial is a
tuple of (variable, exponent) pairs, each variable once, sorted in the
canonical variable order (positions before generators, then by index);
the `Poly` constructor is the one place that makes a monomial canonical,
adding the exponents of a variable listed twice.  A polynomial maps
monomials to nonzero rational coefficients.  A coefficient is stored as
a Python int when it is integral and as a Fraction only when it is not,
so the arithmetic on integer polynomials never builds a Fraction; the
public accessors `terms` and `coefficient` return Fractions either way.
A product of two polynomials stores its integral coefficients as ints; a
sum, or a product with a scalar, that lands on an integer may stay a
Fraction, which is harmless: 3 and Fraction(3) are equal, hash alike and
print alike.  All arithmetic is exact (floats and booleans are refused
as coefficients), and monomials are canonical, so equality is plain dict
equality.

Every product of two polynomials, a power and the memoized pfaffian
kernel run on one private packed form (`_packing`): a dict from packed
monomials to coefficients, where a monomial is one int holding its
exponents in fixed-width fields.  One multiply-accumulate kernel
(`_add_product`) adds a product of two such dicts into a third, so a
product of monomials is an integer addition.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Var = tuple
Monomial = tuple
Scalar = Union[int, Fraction]


def pos(i: int) -> Var:
    """The position variable x_i."""
    if i < 1:
        raise ValueError(f"position index must be >= 1, got {i}")
    return ("x", i)


def gen(i: int, j: int) -> Var:
    """The generator variable a(i,j); indices must already satisfy i < j."""
    if not 1 <= i < j:
        raise ValueError(f"generator indices must satisfy 1 <= i < j, got ({i}, {j})")
    return ("a", i, j)


def _var_key(v: Var) -> tuple:
    # positions sort before generators
    return (0, v[1], 0) if v[0] == "x" else (1, v[1], v[2])


def _check_var(v) -> Var:
    if isinstance(v, tuple):
        if len(v) == 2 and v[0] == "x":
            return pos(v[1])
        if len(v) == 3 and v[0] == "a":
            return gen(v[1], v[2])
    raise ValueError(f"not a variable: {v!r}")


def var_text(v: Var) -> str:
    return f"x{v[1]}" if v[0] == "x" else f"a({v[1]},{v[2]})"


def _exact(c, what: str = "coefficient") -> Scalar:
    """The exact scalar c as an int when integral, else as a Fraction.

    Takes ints, Fractions and rational strings ("p/q"); floats, booleans
    and anything else are a ValueError naming `what`, so no binary
    fraction gets in, and so is a string with a zero denominator.
    """
    if isinstance(c, bool) or not isinstance(c, (int, Fraction, str)):
        raise ValueError(f"{what} {c!r} is not exact (need an int, a Fraction or a 'p/q' string)")
    if isinstance(c, int):
        return c
    if isinstance(c, str):
        try:
            c = Fraction(c)
        except ZeroDivisionError:
            raise ValueError(f"{what} {c!r} has a zero denominator") from None
    return c.numerator if c.denominator == 1 else c


def _mono_key(mono: Monomial) -> tuple:
    # graded, then lexicographic on the variable sequence
    return (sum(e for _, e in mono), tuple((_var_key(v), e) for v, e in mono))


class Poly:
    """Immutable polynomial with exact rational coefficients.

    Integral coefficients are stored as ints, the others as Fractions;
    `terms` and `coefficient` return Fractions.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff == 0:
                    continue
                mono = tuple(sorted(((_check_var(v), e) for v, e in mono), key=lambda p: _var_key(p[0])))
                for pair in mono:
                    if type(pair[1]) is not int:
                        raise ValueError(f"bad variable record: {pair!r}")
                if any(e < 1 for _, e in mono):
                    raise ValueError(f"exponents must be positive: {mono!r}")
                # a variable listed twice is one factor: its exponents add
                merged: dict[Var, int] = {}
                for v, e in mono:
                    merged[v] = merged.get(v, 0) + e
                mono = tuple(merged.items())
                clean[mono] = clean.get(mono, 0) + coeff
                if clean[mono] == 0:
                    del clean[mono]
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> Poly:
        c = _exact(c)
        return _raw({(): c} if c else {})

    @classmethod
    def variable(cls, v: Var) -> Poly:
        return cls({((v, 1),): 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical graded-lex order, with Fraction coefficients."""
        ordered = sorted(self._terms.items(), key=lambda t: _mono_key(t[0]))
        return [(mono, Fraction(c)) for mono, c in ordered]

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self._terms.get(mono, 0))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(sum(e for _, e in mono) for mono in self._terms)

    def variables(self) -> set[Var]:
        return {v for mono in self._terms for v, _ in mono}

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-looking container semantics; not hashable

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(_sum_terms(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _raw({mono: -c for mono, c in self._terms.items()})

    def __sub__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> Poly:
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            c = _exact(other)
            if c == 0:
                return Poly.zero()
            return _raw({mono: coeff * c for mono, coeff in self._terms.items()})
        pack, unpack = _packing((self, other), 2)
        return unpack(_add_product({}, pack(self), pack(other)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        if type(e) is not int or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        # one packing whose fields hold every exponent of self ** e
        pack, unpack = _packing((self,), e)
        out, base = {0: 1}, pack(self)
        while e:
            if e & 1:
                out = _add_product({}, out, base)
            base = _add_product({}, base, base) if e > 1 else base
            e >>= 1
        return unpack(out)

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, mapping: Mapping[Var, "Poly | Scalar"]) -> Poly:
        """Replace variables by polynomials; unmapped variables stay put."""
        mapping = {_check_var(v): _coerce_poly(rep) for v, rep in mapping.items()}
        out = Poly.zero()
        for mono, coeff in self._terms.items():
            term = Poly.const(coeff)
            kept = []
            for v, e in mono:
                if v in mapping:
                    term = term * mapping[v] ** e
                else:
                    kept.append((v, e))
            if kept:
                term = term * _raw({tuple(kept): 1})
            out = out + term
        return out

    def eval_rational(self, assignment: Mapping[Var, Scalar]) -> Fraction:
        """Exact value under a total assignment of exact scalars.

        The values obey the coefficient rule: ints, Fractions and "p/q"
        strings; a float or a boolean is a ValueError.
        """
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for v, e in mono:
                if v not in assignment:
                    raise ValueError(f"no value assigned to {var_text(v)}")
                value *= _exact(assignment[v], f"value {var_text(v)} =") ** e
            total += value
        return total

    # -- rendering and serialization ----------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.terms():
            factors = [var_text(v) if e == 1 else f"{var_text(v)}^{e}" for v, e in mono]
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = " * ".join(factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "coeff": str(coeff),
                "vars": [[*v, e] for v, e in mono],
            }
            for mono, coeff in self.terms()
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> Poly:
        """The inverse of `to_json_obj`: a list of {"coeff", "vars"} term
        objects, each variable a list [family, *indices, exponent] of ints
        after the family.  Any other shape is a ValueError naming the part."""
        if not isinstance(obj, list):
            raise ValueError(f"a polynomial is a list of term objects, got {obj!r}")
        terms: dict[Monomial, Scalar] = {}
        for record in obj:
            if not (isinstance(record, dict) and {"coeff", "vars"} <= record.keys() and isinstance(record["vars"], list)):
                raise ValueError(f"bad term record: {record!r}")
            coeff = _exact(record["coeff"])
            mono = []
            for entry in record["vars"]:
                if not (isinstance(entry, list) and entry and all(type(k) is int for k in entry[1:])):
                    raise ValueError(f"bad variable record: {entry!r}")
                family, *rest = entry
                if family == "x" and len(rest) == 2:
                    mono.append((pos(rest[0]), rest[1]))
                elif family == "a" and len(rest) == 3:
                    mono.append((gen(rest[0], rest[1]), rest[2]))
                else:
                    raise ValueError(f"bad variable record: {entry!r}")
            mono = tuple(mono)
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(terms)


def _raw(terms: dict[Monomial, Scalar]) -> Poly:
    # internal fast path: terms are already canonical
    p = Poly.__new__(Poly)
    p._terms = terms
    return p


def _is_scalar(value) -> bool:
    # the exact scalars that mix with polynomials in arithmetic
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if _is_scalar(value):
        return Poly.const(value)
    return NotImplemented


def _coerce_poly(value) -> Poly:
    coerced = _as_poly(value)
    if coerced is NotImplemented:
        raise ValueError(f"cannot use {value!r} as a polynomial (exact scalars only)")
    return coerced


def _sum_terms(terms: dict, other: dict) -> dict:
    """The terms of a sum of two polynomials; cancelled terms are dropped."""
    out = dict(terms)
    get = out.get
    for mono, coeff in other.items():
        acc = get(mono, 0) + coeff
        if acc:
            out[mono] = acc
        else:
            del out[mono]
    return out


def _add_product(out: dict, x: dict, y: dict, negate: bool = False) -> dict:
    """Add x*y, or -x*y when `negate`, into `out` in place, and return `out`.

    The one product kernel on packed term dicts, behind `Poly.__mul__`,
    `Poly.__pow__` and the memoized pfaffian kernel: a dict maps a packed
    monomial, the sum of e << (width * slot) over its variables, to its
    nonzero coefficient, so a product of monomials is one integer addition
    (Monagan & Pearce, CASC 2007).  The fields never carry, because
    `_packing` picks the width from a bound on every exponent the caller
    can reach.  The sign goes into the coefficients of x, so pass the
    smaller factor as x; a term that cancels is deleted from `out`.
    """
    get = out.get
    for m1, c1 in x.items():
        if negate:
            c1 = -c1
        for m2, c2 in y.items():
            m = m1 + m2
            acc = get(m, 0) + c1 * c2
            if acc:
                out[m] = acc
            else:
                del out[m]
    return out


def _packing(values: Iterable, factors: int):
    """(pack, unpack) for sums of products of at most `factors` of `values`.

    The slots are the variables of the Poly values in the canonical order,
    and the field width is the bit length of the largest exponent such a
    product can reach, `factors` times the largest exponent of any variable
    in `values`.  `Poly.__mul__` takes factors = 2, `Poly.__pow__` the
    exponent and the pfaffian kernel n.  `pack` turns a Poly into a packed
    term dict, and any other scalar into a constant under key 0, or into
    the empty dict when it is zero; `unpack` reads the fields of a term
    dict back in slot order, which gives canonical monomials without a
    sort, and returns a Poly with integral coefficients stored as ints.
    """
    pairs = {pair for value in values if isinstance(value, Poly) for mono in value._terms for pair in mono}
    names = sorted({v for v, _ in pairs}, key=_var_key)
    width = max(1, (factors * max((e for _, e in pairs), default=0)).bit_length())
    shift = {v: width * k for k, v in enumerate(names)}
    mask = (1 << width) - 1

    def pack(value) -> dict:
        if not isinstance(value, Poly):
            return {0: value} if value else {}
        return {sum(e << shift[v] for v, e in mono): c for mono, c in value._terms.items()}

    def unpack(terms: dict) -> Poly:
        out: dict[Monomial, Scalar] = {}
        for m, c in terms.items():
            mono = []
            for v in names:
                if not m:
                    break
                if m & mask:
                    mono.append((v, m & mask))
                m >>= width
            out[tuple(mono)] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
        return _raw(out)

    return pack, unpack


def x(i: int) -> Poly:
    """The position variable x_i as a polynomial."""
    return Poly.variable(pos(i))


def a(i: int, j: int) -> Poly:
    """The generator variable a(i,j) as a polynomial."""
    return Poly.variable(gen(i, j))
