"""Exact arithmetic in GF(p^m) for small prime powers.

Field elements are plain integers in [0, p^m): the base-p digits of the
integer are the coordinates of the element in the polynomial basis
(ascending powers of the adjoined root).  For prime fields this is the
usual integer-mod-p representation.  A ``Field`` instance owns the
modulus polynomial and provides every operation, both on scalar
encodings and on numpy arrays of encodings.

Prime fields (m = 1) compute directly mod p: one machine operation per
element, with no table to build or look up.  Every extension field
(m > 1) uses one path whatever its size.  Construction finds a primitive
element g and tabulates exp[i] = g^i and its inverse log, so products,
scalings, inverses and negation (-1 = g^((q-1)/2)) are gathers such as
exp[log a + log b], for scalars and arrays alike.  log[0] points into a
zero-filled tail of exp, so a zero factor needs no branch.  Addition is
XOR for p = 2 and otherwise one pass over the base-p digits, one digit
at a time.  The tables hold about 5q entries, against q^2 for full
addition and multiplication tables.

``Field.dot`` is the one kernel for linear combinations of rows, c @ rows
for one coefficient vector or a batch of them.  Prime fields take one
int64 matrix product and a single reduction mod p.  Extension fields
gather every product at once; for p = 2 they are XOR-reduced, and for
odd p each base-p digit is summed and reduced on its own, which takes
m passes however many rows are combined.

Fields are desk scale (p^m <= 2**16).  Construction checks that p is
prime and does its GF(p)[x] work with ``polyring.Poly`` over GF(p).  A
user-supplied modulus must be monic of degree m and irreducible by
exhaustive trial division, the test ``default_modulus`` already applies,
so a constructed ``Field`` really is a field.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BoundsError
from .polyring import Poly

MAX_FIELD_SIZE = 1 << 16


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _power(mul, a, e: int):
    """a^e for e >= 0 by square-and-multiply under the product mul."""
    out = 1
    while e:
        if e & 1:
            out = mul(out, a)
        a = mul(a, a)
        e >>= 1
    return out


def _digits(n: int, p: int, k: int) -> list[int]:
    """The k lowest base-p digits of n, least significant first."""
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(mod)/2."""
    F = GF(p)
    f = Poly(F, mod)
    return all(f % Poly(F, _digits(n, p, d) + [1])
               for d in range(1, (len(mod) - 1) // 2 + 1) for n in range(p**d))


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) with the smallest base-p
    integer encoding of its non-leading coefficients.

    Gives the classic choices x^2+x+1, x^3+x+1, x^4+x+1 for GF(4), GF(8)
    and GF(16), and x^2+1 for GF(9).
    """
    for n in range(p**m):
        mod = tuple(_digits(n, p, m) + [1])
        if _is_irreducible(mod, p):
            return mod
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


class Field:
    """GF(p^m) calculator over integer-encoded elements.

    Parameters
    ----------
    p : prime characteristic.
    m : extension degree (1 for prime fields).
    modulus : optional iterable of m+1 ints over GF(p), ascending degree,
        leading coefficient 1.  Ignored (must be None) for m == 1; defaults
        to ``default_modulus(p, m)`` for extensions.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_exp_np", "_log_np")

    def __init__(self, p: int, m: int = 1, modulus=None):
        if p < 2:
            raise ValueError(f"characteristic must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        # p^m >= 2^m: a huge p or m is refused before testing p or computing p^m
        if p > MAX_FIELD_SIZE or m >= MAX_FIELD_SIZE.bit_length() or p**m > MAX_FIELD_SIZE:
            raise BoundsError(f"field size {p}^{m} exceeds desk-scale limit {MAX_FIELD_SIZE}")
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p, self.m, self.q = p, m, p**m
        self._exp = self._log = self._exp_np = self._log_np = None

        if m == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to extension fields (m > 1)")
            self.modulus = None
            return
        if modulus is None:
            mod = default_modulus(p, m)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1:
                raise ValueError(f"modulus must have m+1 = {m + 1} coefficients, got {len(mod)}")
            if mod[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _is_irreducible(mod, p):
                raise ValueError(f"modulus {mod} is reducible over GF({p})")
        self.modulus = mod
        self._build_exp_log()

    # -- construction helpers ---------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """a * b as polynomials over GF(p), reduced by the modulus."""
        F = GF(self.p)
        prod = Poly(F, self.coords(a)) * Poly(F, self.coords(b)) % Poly(F, self.modulus)
        return self.from_coords(prod.coeffs)

    def _times(self, c: int) -> np.ndarray:
        """c * a for every encoding a.  Multiplication by c is GF(p)-linear,
        so digit j of a contributes that digit times c * x^j."""
        p = self.p
        idx = np.arange(self.q, dtype=np.int64)
        out = np.zeros(self.q, dtype=np.int64)
        for j in range(self.m):
            cx = self.coords(self._raw_mul(c, p**j))
            multiples = np.array([self.from_coords([t * d for d in cx]) for t in range(p)],
                                 dtype=np.int64)
            out = self.add_arrays(out, multiples[idx // p**j % p])
        return out

    def _build_exp_log(self):
        """exp/log tables of a primitive element g.

        g is the first encoding with g^(n/r) != 1 for every prime r | n,
        n = q - 1.  The search starts at p: an encoding below p lies in the
        prime subfield, so its order divides p - 1 < n.  exp holds two
        periods g^0 .. g^(2n-1) and then 2n+1 zeros; log[0] = 2n, so a sum
        of two logs with a zero term lands in the zeros and products need
        no branch on zero."""
        n = self.q - 1
        primes = _prime_factors(n)
        g = next(g for g in range(self.p, self.q)
                 if all(_power(self._raw_mul, g, n // r) != 1 for r in primes))
        # powers = g^0 .. g^(k-1) and step = the map a -> g^k a; each pass doubles k
        powers, step = np.ones(1, dtype=np.int64), self._times(g)
        while powers.size < n:
            powers = np.concatenate([powers, step[powers]])
            step = step[step]
        powers = powers[:n]
        self._exp_np = np.concatenate([powers, powers, np.zeros(2 * n + 1, dtype=np.int64)])
        # int32 logs (< 2^31 for q <= 2^16) halve the index temporaries of a gather
        self._log_np = np.empty(self.q, dtype=np.int32)
        self._log_np[powers] = np.arange(n)
        self._log_np[0] = 2 * n
        # Python lists for scalar ops: faster lookups, and plain ints out
        self._exp = self._exp_np.tolist()
        self._log = self._log_np.tolist()

    # -- scalar operations --------------------------------------------------

    def make(self, n: int) -> int:
        """Canonical element whose base-p digits are the coordinates of n mod p^m."""
        return int(n) % self.q

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        out, w = 0, 1
        for _ in range(self.m):
            out += (a // w + b // w) % p * w
            w *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        # -1 = g^((q-1)/2): negation shifts the log by half a period
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, -1, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, a, e)

    def coords(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coordinate vector (ascending degree, length m)."""
        return tuple(_digits(a, self.p, self.m))

    def from_coords(self, vec) -> int:
        out, w = 0, 1
        for c in vec:
            out += (int(c) % self.p) * w
            w *= self.p
        return out

    def elements(self) -> list[int]:
        """All p^m elements in canonical order make(0), make(1), ..."""
        return list(range(self.q))

    # -- vectorized operations on numpy arrays of encodings -----------------

    def add_arrays(self, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        p = self.p
        if self.m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        # one base-p digit at a time; the larger operand is divided straight
        # into the digit buffer, so the working set is two result-sized arrays
        if a.size < b.size:
            a, b = b, a
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        digit = np.empty_like(out)
        w = 1
        for _ in range(self.m):
            np.floor_divide(a, w, out=digit)
            digit += b // w
            digit %= p
            digit *= w
            out += digit
            w *= p
        return out

    def neg_array(self, a) -> np.ndarray:
        a = np.asarray(a)
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a.copy()
        return self._exp_np[self._log_np[a] + (self.q - 1) // 2]

    def sub_arrays(self, a, b) -> np.ndarray:
        if self.m == 1:
            return (np.asarray(a) - np.asarray(b)) % self.p
        return self.add_arrays(a, self.neg_array(b))

    def scale_array(self, c: int, a) -> np.ndarray:
        """Scalar c times every entry of a."""
        a = np.asarray(a, dtype=np.int64)
        if self.m == 1:
            return (c * a) % self.p
        return self._exp_np[self._log[c] + self._log_np[a]]

    def mul_arrays(self, a, b) -> np.ndarray:
        """Elementwise (broadcasting) product of two encoding arrays."""
        a, b = np.asarray(a), np.asarray(b)
        if self.m == 1:
            return (a * b) % self.p
        return self._exp_np[self._log_np[a] + self._log_np[b]]

    def dot(self, c, rows) -> np.ndarray:
        """c @ rows over the field, for (k,) or (b, k) coefficients c and
        (k, n) rows; the result has shape (n,) or (b, n)."""
        c, rows = np.asarray(c, dtype=np.int64), np.asarray(rows, dtype=np.int64)
        p = self.p
        if self.m == 1:
            # exact while k * (p - 1)^2 < 2^63: any k < 2^31 when p < 2^16
            return (c @ rows) % p
        # every product c[..., t] * rows[t], shape (..., k, n)
        prod = self._exp_np[self._log_np[c][..., None] + self._log_np[rows]]
        if p == 2:
            return np.bitwise_xor.reduce(prod, axis=-2)
        # each base-p digit summed over k on its own: m passes, whatever k is
        out = np.zeros(prod.shape[:-2] + prod.shape[-1:], dtype=np.int64)
        w = 1
        for _ in range(self.m):
            out += (prod // w % p).sum(axis=-2) % p * w
            w *= p
        return out

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}; modulus={list(self.modulus)})"


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, m: int, modulus) -> Field:
    return Field(p, m, modulus)


def GF(p: int, m: int = 1, modulus=None) -> Field:
    """Cached Field factory: GF(2), GF(3, 2), GF(2, 4, modulus=[1,1,0,0,1]), ..."""
    key = tuple(int(c) for c in modulus) if modulus is not None else None
    return _cached_field(p, m, key)


def field_from_descriptor(d: dict) -> Field:
    """Build a Field from the JSON descriptor {"p":..., "m":..., "modulus":[...]?}."""
    p = int(d["p"])
    m = int(d.get("m", 1))
    modulus = d.get("modulus")
    return GF(p, m, modulus)


def field_descriptor(field: Field) -> dict:
    """JSON descriptor for a Field (modulus present iff m > 1)."""
    d = {"p": field.p, "m": field.m}
    if field.m > 1:
        d["modulus"] = list(field.modulus)
    return d
