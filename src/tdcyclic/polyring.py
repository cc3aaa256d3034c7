"""Univariate polynomials over a finite field, and residues mod x^s - 1.

``Poly`` is the canonical dense form: ascending coefficient tuple with no
trailing zeros, the zero polynomial being the empty tuple (its degree is
None, not a number).  ``CyclicPoly`` is a residue of F[x]/(x^s - 1) kept
as a fixed-length vector of exactly s coefficients; index arithmetic
wraps modulo s, which is what makes multiplication by x a cyclic shift.

Values are checked once, where they come in: the public constructors
``Poly(...)`` and ``CyclicPoly(...)``, and the scalar of ``Poly.scale``,
read every coefficient through ``Field.make``, which refuses anything but
an integer.  Every result this module computes is canonical by
construction, Python ints in [0, q) from the field's own operations, so
it is built by the trusted ``_wrap`` of its class without a second check,
as ``BiPoly._wrap`` does for arrays.  ``xs_minus_one`` and ``cofactor``
keep their last 256 results, since the engine divides x^s - 1 by the same
few layer generators again and again.  ``Field``, ``Poly`` and
``CyclicPoly`` are frozen dataclasses that hash by value, so they key the
cache, and immutability is enforced: assigning or deleting a field raises
``AttributeError``.  Copying and pickling give back an equal value.

This is the bottom module: the field is duck-typed, and no other module of
the package is imported.  ``_integer``, the one integer gate of the library,
lives here, so every module above reads its parameters through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .gf import Field


# results kept by xs_minus_one and by cofactor: random ideals over six fields
# with s <= 6 meet about a hundred divisors, and a result holds s + 1 coefficients.
# The caches are typed, so an s of 4.0 still fails as it would uncached
# instead of finding the result kept for 4.
_CACHE_SIZE = 256


def _integer(v, what: str) -> int:
    """v as a Python int.  v must be an integer, Python's or numpy's, and a
    bool is the integer it is in Python (True is 1); anything else, a float
    with or without a fraction or a string, raises ValueError rather than
    being read as another number."""
    if not isinstance(v, (int, np.integer, np.bool_)):
        raise ValueError(f"{v!r} is not an integer {what}")
    return int(v)


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError("field mismatch between operands")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Poly:
    """Dense univariate polynomial with canonical (trimmed) coefficients."""

    field: Field
    coeffs: tuple[int, ...]

    def __init__(self, field: Field, coeffs=()):
        cs = [field.make(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _wrap(cls, field: Field, coeffs) -> "Poly":
        # trusted internal path: coeffs are canonical Python ints in [0, q);
        # only trailing zeros are trimmed
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "coeffs", tuple(coeffs[:n]))
        return obj

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls._wrap(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls._wrap(field, (1,))

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
        f, c = self.field, self.field.make(c)
        return Poly._wrap(f, [f.mul(c, a) for a in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly._wrap(f, out)

    def __neg__(self) -> "Poly":
        return self.scale(self.field.neg(1))

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
        return Poly._wrap(f, out)

    def __divmod__(self, other: "Poly"):
        if self.field is not other.field:
            _check_same_field(self, other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        fmul, fsub = f.mul, f.sub
        r = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        monic = b[-1] == 1  # every layer generator and x^s - 1 is: no inverse, no scaling
        inv_lead = 1 if monic else f.inv(b[-1])
        low = [(i, c) for i, c in enumerate(b[:-1]) if c]  # the leading term cancels
        q = [0] * max(len(r) - db, 0)
        while len(r) > db:
            shift = len(r) - 1 - db
            factor = r.pop() if monic else fmul(r.pop(), inv_lead)
            q[shift] = factor
            for i, c in low:
                r[shift + i] = fsub(r[shift + i], fmul(factor, c))
            while r and r[-1] == 0:
                r.pop()
        return Poly._wrap(f, q), Poly._wrap(f, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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
    return xgcd(a, b)[0]


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
        return g, Poly._wrap(f, (f.inv(a.lc),)), zero
    if not a:
        g = b.monic()
        return g, zero, Poly._wrap(f, (f.inv(b.lc),))
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


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def xs_minus_one(field: Field, s: int) -> Poly:
    """The polynomial x^s - 1, for an integer s >= 1 (anything else raises
    ValueError)."""
    s = _integer(s, "exponent")
    if s < 1:
        raise ValueError(f"exponent must be >= 1, got {s}")
    return Poly._wrap(field, (field.neg(1),) + (0,) * (s - 1) + (1,))


def divides_xs_minus_one(f: Poly, s: int) -> bool:
    """True iff f divides x^s - 1 exactly."""
    s = _integer(s, "exponent")
    if not f:
        raise ValueError("zero polynomial divides nothing")
    return not (xs_minus_one(f.field, s) % f)


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def cofactor(f: Poly, s: int) -> Poly:
    """Exact quotient (x^s - 1) / f; raises ValueError if f is not a divisor
    (on every call: a raised error is not kept)."""
    s = _integer(s, "exponent")
    if not f:
        raise ValueError("zero polynomial divides nothing")
    q, r = divmod(xs_minus_one(f.field, s), f)
    if r:
        raise ValueError(f"{f!r} does not divide x^{s} - 1")
    return q


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CyclicPoly:
    """Residue of F[x]/(x^s - 1) as a fixed-length coefficient vector.

    The vector always has exactly s entries (zero-padded, never trimmed);
    coefficient of x^i sits at index i.  Arithmetic is done on the lifts
    by ``Poly`` and folded back by ``from_poly``.
    """

    field: Field
    coeffs: tuple[int, ...]

    def __init__(self, field: Field, coeffs):
        cs = tuple(field.make(c) for c in coeffs)
        if not cs:
            raise ValueError("a residue needs s >= 1 coefficients")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _wrap(cls, field: Field, coeffs) -> "CyclicPoly":
        # trusted internal path: coeffs are canonical Python ints in [0, q);
        # only an empty vector (s < 1) is still refused
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a residue needs s >= 1 coefficients")
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "coeffs", cs)
        return obj

    @property
    def s(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, field: Field, s: int) -> "CyclicPoly":
        return cls._wrap(field, (0,) * s)

    @classmethod
    def one(cls, field: Field, s: int) -> "CyclicPoly":
        return cls._wrap(field, (1,) + (0,) * (s - 1))

    @classmethod
    def from_poly(cls, f: Poly, s: int) -> "CyclicPoly":
        """Reduce mod x^s - 1 by folding coefficient index i onto i mod s."""
        out = [0] * s
        fld = f.field
        for i, c in enumerate(f.coeffs):
            if c:
                out[i % s] = fld.add(out[i % s], c)
        return cls._wrap(fld, out)

    def lift(self) -> Poly:
        """Canonical representative of degree < s."""
        return Poly._wrap(self.field, self.coeffs)

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
        return CyclicPoly.from_poly(self.lift() + other.lift(), self.s)

    def __neg__(self) -> "CyclicPoly":
        return CyclicPoly.from_poly(-self.lift(), self.s)

    def __sub__(self, other: "CyclicPoly") -> "CyclicPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CyclicPoly):
            return NotImplemented
        self._check_compatible(other)
        return CyclicPoly.from_poly(self.lift() * other.lift(), self.s)

    def scale(self, c: int) -> "CyclicPoly":
        return CyclicPoly.from_poly(self.lift().scale(c), self.s)

    def shift(self, t: int = 1) -> "CyclicPoly":
        """Multiply by x^t: coefficient index i moves to (i + t) mod s, for
        an integer t (anything else raises ValueError, as for BiPoly.shift_x)."""
        s = self.s
        t = _integer(t, "shift") % s
        return CyclicPoly._wrap(self.field, self.coeffs[s - t:] + self.coeffs[:s - t])

    def __repr__(self):
        return f"CyclicPoly({list(self.coeffs)} mod x^{self.s}-1)"
