"""Residues of F[x,y]/(x^s - 1, y^ell - 1), i.e. s x ell codeword arrays.

A ``BiPoly`` is stored as the s x ell array with rows indexed by the
x-exponent and columns by the y-exponent, so the array IS the codeword:
multiplying by x cyclically shifts rows down, multiplying by y shifts
columns right.  Column j read as a vector is the coefficient of y^j, the
unique expansion of the element over the cyclic ring in x.

Two flattening orders exist and must never be conflated:

* ``INTERNAL`` puts array cell (i, j) at index j*s + i (column-major,
  grouping by y-block); the ideal machinery stores its echelon bases in
  this order, though it eliminates with the x-degrees reversed within
  each block (see ``ideal``).
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
        (acting coordinatewise in x), or an int (field scalar)."""
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, CyclicPoly):
            if other.field != self.shape.field or other.s != self.shape.s:
                raise ValueError("cyclic factor does not match the ring shape")
            cs = [self.coord(j) * other for j in range(self.shape.ell)]
            return BiPoly.from_coords(self.shape, cs)
        if isinstance(other, BiPoly):
            self._check_shape(other)
            ell = self.shape.ell
            out = [CyclicPoly.zero(self.shape.field, self.shape.s) for _ in range(ell)]
            a, b = self.coords(), other.coords()
            for i in range(ell):
                if a[i].is_zero:
                    continue
                for j in range(ell):
                    if b[j].is_zero:
                        continue
                    k = (i + j) % ell
                    out[k] = out[k] + a[i] * b[j]
            return BiPoly.from_coords(self.shape, out)
        return NotImplemented

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
