"""Residues of F[x,y]/(x^s - 1, y^ell - 1), i.e. s x ell codeword arrays.

A ``BiPoly`` is stored as the s x ell array with rows indexed by the
x-exponent and columns by the y-exponent, so the array IS the codeword:
multiplying by x cyclically shifts rows down, multiplying by y shifts
columns right.  Column j read as a vector is the coefficient of y^j, the
unique expansion of the element over the cyclic ring in x.

One kernel, ``shift_sum``, forms the sums of monomial shifts
c_t * x^i_t y^j_t * b for the ring product and for ``ideal.decompose``.
A product a * b sums over the nonzero cells c = a[i, j] of the sparser
factor a, a ``CyclicPoly`` factor being the element whose y^0
coefficient it is.  The shifts of b are gathered through
``shift_source`` and summed by one ``Field.dot``, in chunks of at most
``_GATHER_ELEMS`` = 2^19 entries (4 MB of int64), the engine's one chunk
budget, so the working set is a few chunk-sized arrays whatever the
ring's size: about 2 over a prime field, up to 4 over an extension of
odd characteristic, whose ``dot`` works one base-p digit at a time.

Two flattening orders exist and must never be conflated:

* ``INTERNAL`` puts array cell (i, j) at index j*s + i (column-major,
  grouping by y-block); the ideal machinery stores its echelon bases in
  this order.
* ``CODEWORD`` puts cell (i, j) at index i*ell + j (row-major array);
  this is the emitted codeword/matrix layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError
from .gf import Field
from .polyring import CyclicPoly

INTERNAL = "internal"
CODEWORD = "codeword"

MAX_ARRAY_CELLS = 1 << 16
_GATHER_ELEMS = 1 << 19  # entries of the monomial shifts one gather step holds


def shift_source(size: int, shifts) -> np.ndarray:
    """Cyclic shift gather along one axis: entry c shifted by shifts[k]
    comes from entry [k, c], so x^a y^b g at (i, j) is g[(i - a) % s, (j - b) % ell]."""
    return (np.arange(size)[None, :] - np.asarray(shifts)[:, None]) % size


def shift_sum(shape: RingShape, b: np.ndarray, coeffs, i, j=None) -> np.ndarray:
    """The (s, ell) array of the sum of coeffs[t] * x^i[t] y^j[t] * b, y^0 when
    j is None, gathering and summing the shifts of b _GATHER_ELEMS entries at a time."""
    fld, n = shape.field, shape.n
    step = max(1, _GATHER_ELEMS // n)
    out = np.zeros(n, dtype=np.int64)
    for t in range(0, len(coeffs), step):
        src = shift_source(shape.s, i[t:t + step])
        if j is not None:
            src = src[:, :, None], shift_source(shape.ell, j[t:t + step])[:, None, :]
        out = fld.add_arrays(out, fld.dot(coeffs[t:t + step], b[src].reshape(-1, n)))
    return out.reshape(shape.s, shape.ell)


@dataclass(frozen=True)
class RingShape:
    """Parameters of the bivariate cyclic ring: field, s rows, ell columns."""

    field: Field
    s: int
    ell: int

    def __post_init__(self):
        if self.s < 1 or self.ell < 1:
            raise ValueError(f"s and ell must be >= 1, got ({self.s}, {self.ell})")
        if self.s * self.ell > MAX_ARRAY_CELLS:
            raise BoundsError(
                f"array size {self.s}*{self.ell} exceeds desk-scale limit {MAX_ARRAY_CELLS}")

    @property
    def n(self) -> int:
        """Code length s * ell."""
        return self.s * self.ell


class BiPoly:
    """Element of the bivariate cyclic ring / s x ell codeword array."""

    __slots__ = ("shape", "arr")

    def __init__(self, shape: RingShape, array):
        a = np.asarray(array, dtype=np.int64)
        if a.shape != (shape.s, shape.ell):
            raise ValueError(
                f"array shape {a.shape} does not match (s, ell) = ({shape.s}, {shape.ell})")
        a = a % shape.field.q
        a.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "arr", a)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def _wrap(cls, shape: RingShape, arr: np.ndarray) -> "BiPoly":
        # trusted internal path: arr already canonical, int64, correct shape
        obj = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(obj, "shape", shape)
        object.__setattr__(obj, "arr", arr)
        return obj

    @classmethod
    def zero(cls, shape: RingShape) -> "BiPoly":
        return cls._wrap(shape, np.zeros((shape.s, shape.ell), dtype=np.int64))

    @classmethod
    def one(cls, shape: RingShape) -> "BiPoly":
        a = np.zeros((shape.s, shape.ell), dtype=np.int64)
        a[0, 0] = 1
        return cls._wrap(shape, a)

    @classmethod
    def from_coords(cls, shape: RingShape, coords) -> "BiPoly":
        """Build from the length-ell list of y-coefficients (CyclicPoly each)."""
        cs = list(coords)
        if len(cs) != shape.ell:
            raise ValueError(f"need {shape.ell} coordinates, got {len(cs)}")
        a = np.zeros((shape.s, shape.ell), dtype=np.int64)
        for j, c in enumerate(cs):
            if c.field != shape.field or c.s != shape.s:
                raise ValueError("coordinate does not match the ring shape")
            a[:, j] = c.coeffs
        return cls._wrap(shape, a)

    @classmethod
    def from_vector(cls, shape: RingShape, vec, order: str) -> "BiPoly":
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (shape.n,):
            raise ValueError(f"vector length {v.size} != n = {shape.n}")
        if order == CODEWORD:
            a = v.reshape(shape.s, shape.ell)
        elif order == INTERNAL:
            a = v.reshape(shape.ell, shape.s).T
        else:
            raise ValueError(f"unknown flattening order {order!r}")
        return cls(shape, a)

    # -- views ---------------------------------------------------------------

    def coord(self, j: int) -> CyclicPoly:
        """Coefficient of y^j as a cyclic residue in x."""
        return CyclicPoly(self.shape.field, self.arr[:, j].tolist())

    def coords(self) -> tuple[CyclicPoly, ...]:
        return tuple(self.coord(j) for j in range(self.shape.ell))

    def to_array(self) -> np.ndarray:
        return self.arr.copy()

    def to_vector(self, order: str) -> np.ndarray:
        if order == CODEWORD:
            return self.arr.reshape(-1).copy()
        if order == INTERNAL:
            return self.arr.T.reshape(-1).copy()
        raise ValueError(f"unknown flattening order {order!r}")

    # -- ring operations -------------------------------------------------------

    def _check_shape(self, other: "BiPoly"):
        if self.shape != other.shape:
            raise ValueError("ring shape mismatch between operands")

    def __add__(self, other: "BiPoly") -> "BiPoly":
        self._check_shape(other)
        f = self.shape.field
        return BiPoly._wrap(self.shape, f.add_arrays(self.arr, other.arr))

    def __neg__(self) -> "BiPoly":
        return BiPoly._wrap(self.shape, self.shape.field.neg_array(self.arr))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        self._check_shape(other)
        f = self.shape.field
        return BiPoly._wrap(self.shape, f.sub_arrays(self.arr, other.arr))

    def scale(self, c: int) -> "BiPoly":
        """Field-scalar multiple."""
        f = self.shape.field
        return BiPoly._wrap(self.shape, f.scale_array(f.make(c), self.arr))

    def shift_x(self, t: int = 1) -> "BiPoly":
        """Multiply by x^t: cyclic row shift downward by t."""
        return BiPoly._wrap(self.shape, np.roll(self.arr, t % self.shape.s, axis=0))

    def shift_y(self, t: int = 1) -> "BiPoly":
        """Multiply by y^t: cyclic column shift rightward by t."""
        return BiPoly._wrap(self.shape, np.roll(self.arr, t % self.shape.ell, axis=1))

    def __mul__(self, other):
        """Ring product; the right factor may be a BiPoly, a CyclicPoly
        (the element whose y^0 coefficient it is), or an int (field scalar)."""
        if isinstance(other, int):
            return self.scale(other)
        shape = self.shape
        if isinstance(other, CyclicPoly):
            if other.field != shape.field or other.s != shape.s:
                raise ValueError("cyclic factor does not match the ring shape")
            col = np.zeros((shape.s, shape.ell), dtype=np.int64)
            col[:, 0] = other.coeffs
            other = BiPoly._wrap(shape, col)
        elif isinstance(other, BiPoly):
            self._check_shape(other)
        else:
            return NotImplemented
        # the sum of c * x^i y^j * b over the cells c = a[i, j] != 0 of the sparser factor
        a, b = self.arr, other.arr
        if np.count_nonzero(b) < np.count_nonzero(a):
            a, b = b, a
        i, j = np.nonzero(a)
        return BiPoly._wrap(shape, shift_sum(shape, b, a[i, j], i, j))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.arr.any()

    def __bool__(self):
        return bool(self.arr.any())

    def __eq__(self, other):
        return (isinstance(other, BiPoly)
                and self.shape == other.shape
                and np.array_equal(self.arr, other.arr))

    def __hash__(self):
        return hash((self.shape, self.arr.tobytes()))

    def __repr__(self):
        return f"BiPoly({self.arr.tolist()})"
