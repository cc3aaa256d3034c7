"""Univariate polynomials over a finite field, and residues mod x^s - 1.

``Poly`` is the canonical dense form: ascending coefficient tuple with no
trailing zeros, the zero polynomial being the empty tuple (its degree is
None, not a number).  ``CyclicPoly`` is a residue of F[x]/(x^s - 1) kept
as a fixed-length vector of exactly s coefficients; index arithmetic
wraps modulo s, which is what makes multiplication by x a cyclic shift.

The field is duck-typed, so this module has no run-time dependency on
``gf``, which builds its extension fields from ``Poly`` over GF(p).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gf import Field


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError("field mismatch between operands")


class Poly:
    """Dense univariate polynomial with canonical (trimmed) coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = [field.make(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: Field, c: int) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field: Field, k: int, c: int = 1) -> "Poly":
        return cls(field, (0,) * k + (c,))

    @property
    def degree(self):
        """Degree as an int; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def monic(self) -> "Poly":
        if not self.coeffs or self.lc == 1:
            return self
        return self.scale(self.field.inv(self.lc))

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly(f, [f.mul(c, a) for a in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        fadd, fmul = f.add, f.mul
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = fadd(out[i + j], fmul(ai, bj))
        return Poly(f, out)

    def __divmod__(self, other: "Poly"):
        _check_same_field(self, other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        r = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv_lead = f.inv(b[-1])
        q = [0] * max(len(r) - db, 0)
        while r and len(r) - 1 >= db:
            shift = len(r) - 1 - db
            factor = f.mul(r[-1], inv_lead)
            q[shift] = factor
            for i, bc in enumerate(b):
                r[shift + i] = f.sub(r[shift + i], f.mul(factor, bc))
            while r and r[-1] == 0:
                r.pop()
        return Poly(f, q), Poly(f, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (isinstance(other, Poly)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}x" if k == 1 else f"{head}x^{k}")
        return " + ".join(terms)


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0 by convention."""
    _check_same_field(a, b)
    while b:
        a, b = b, a % b
    return a.monic()


def xgcd(a: Poly, b: Poly):
    """(g, u, v) with u*a + v*b = g = monic gcd(a, b).

    The pair is canonical: v is reduced modulo a/g, which makes
    xgcd(f, f) = (monic f, lc(f)^-1, 0) and xgcd(f, 0) likewise.
    """
    _check_same_field(a, b)
    f = a.field
    zero, one = Poly.zero(f), Poly.one(f)
    if not a and not b:
        return zero, zero, zero
    if not b:
        g = a.monic()
        return g, Poly.constant(f, f.inv(a.lc)), zero
    if not a:
        g = b.monic()
        return g, zero, Poly.constant(f, f.inv(b.lc))
    r0, r1 = a, b
    u0, u1 = one, zero
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    c = f.inv(r0.lc)
    g, u = r0.scale(c), u0.scale(c)
    v = (g - u * a) // b
    # canonicalize: v mod (a/g), then recover u by exact division
    v = v % (a // g)
    u = (g - v * b) // a
    return g, u, v


def xs_minus_one(field: Field, s: int) -> Poly:
    """The polynomial x^s - 1."""
    if s < 1:
        raise ValueError(f"exponent must be >= 1, got {s}")
    return Poly(field, (field.neg(1),) + (0,) * (s - 1) + (1,))


def divides_xs_minus_one(f: Poly, s: int) -> bool:
    """True iff f divides x^s - 1 exactly."""
    if not f:
        raise ValueError("zero polynomial divides nothing")
    return not (xs_minus_one(f.field, s) % f)


def cofactor(f: Poly, s: int) -> Poly:
    """Exact quotient (x^s - 1) / f; raises ValueError if f is not a divisor."""
    q, r = divmod(xs_minus_one(f.field, s), f)
    if r:
        raise ValueError(f"{f!r} does not divide x^{s} - 1")
    return q


class CyclicPoly:
    """Residue of F[x]/(x^s - 1) as a fixed-length coefficient vector.

    The vector always has exactly s entries (zero-padded, never trimmed);
    coefficient of x^i sits at index i.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = tuple(field.make(c) for c in coeffs)
        if not cs:
            raise ValueError("a residue needs s >= 1 coefficients")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicPoly is immutable")

    @property
    def s(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, field: Field, s: int) -> "CyclicPoly":
        return cls(field, (0,) * s)

    @classmethod
    def one(cls, field: Field, s: int) -> "CyclicPoly":
        return cls(field, (1,) + (0,) * (s - 1))

    @classmethod
    def from_poly(cls, f: Poly, s: int) -> "CyclicPoly":
        """Reduce mod x^s - 1 by folding coefficient index i onto i mod s."""
        out = [0] * s
        fld = f.field
        for i, c in enumerate(f.coeffs):
            if c:
                out[i % s] = fld.add(out[i % s], c)
        return cls(fld, out)

    def lift(self) -> Poly:
        """Canonical representative of degree < s."""
        return Poly(self.field, self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check_compatible(self, other):
        _check_same_field(self, other)
        if self.s != other.s:
            raise ValueError(f"residue length mismatch: {self.s} vs {other.s}")

    def __add__(self, other: "CyclicPoly") -> "CyclicPoly":
        self._check_compatible(other)
        f = self.field
        return CyclicPoly(f, [f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CyclicPoly":
        f = self.field
        return CyclicPoly(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other: "CyclicPoly") -> "CyclicPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CyclicPoly):
            return NotImplemented
        self._check_compatible(other)
        return CyclicPoly.from_poly(self.lift() * other.lift(), self.s)

    def scale(self, c: int) -> "CyclicPoly":
        f = self.field
        return CyclicPoly(f, [f.mul(c, a) for a in self.coeffs])

    def shift(self, t: int = 1) -> "CyclicPoly":
        """Multiply by x^t: coefficient index i moves to (i + t) mod s."""
        s = self.s
        t %= s
        return CyclicPoly(self.field, self.coeffs[s - t:] + self.coeffs[:s - t])

    def __eq__(self, other):
        return (isinstance(other, CyclicPoly)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"CyclicPoly({list(self.coeffs)} mod x^{self.s}-1)"
