"""Residues of F[x,y]/(x^s - 1, y^ell - 1), i.e. s x ell codeword arrays.

A ``BiPoly`` is stored as the s x ell array with rows indexed by the
x-exponent and columns by the y-exponent, so the array IS the codeword:
multiplying by x cyclically shifts rows down, multiplying by y shifts
columns right.  Column j read as a vector is the coefficient of y^j, the
unique expansion of the element over the cyclic ring in x.

``shift_images`` is the engine's one gather of monomial shifts x^a y^b
(the oracle keeps its own).  One kernel, ``shift_sum``, forms the sums
c_t * x^i_t y^j_t * b for the ring product and for ``ideal.decompose``:
a product a * b sums over the nonzero cells c = a[i, j] of the sparser
factor a, a ``CyclicPoly`` factor being the element whose y^0
coefficient it is, by one ``Field.dot`` per chunk of at most
``_GATHER_ELEMS`` = 2^19 entries (4 MB of int64), the engine's one chunk
budget, so the working set is a few chunk-sized arrays whatever the
ring's size: about 2 over a prime field, up to 4 over an extension of
odd characteristic, whose ``dot`` works one base-p digit at a time.
The same budget bounds ``codegen``'s distance-search levels and, four
budgets to a step, the shifts ``ideal.span_basis`` eliminates at once.

Two flattening orders exist and must never be conflated:

* ``INTERNAL`` puts array cell (i, j) at index j*s + i (column-major,
  grouping by y-block); the ideal machinery stores its echelon bases in
  this order.
* ``CODEWORD`` puts cell (i, j) at index i*ell + j (row-major array);
  this is the emitted codeword/matrix layout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import BoundsError
from .gf import Field, _integer
from .polyring import CyclicPoly

INTERNAL = "internal"
CODEWORD = "codeword"

MAX_ARRAY_CELLS = 1 << 16
_GATHER_ELEMS = 1 << 19  # entries of the monomial shifts one gather step holds


def shift_images(arr: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Images x^a[t] y^b[t] * arr, t < T, of arr of shape (..., s, ell) as (..., T, s, ell):
    cell (i, j) of image t is arr[..., (i - a[t]) % s, (j - b[t]) % ell].  a and b are 1-D
    integer arrays, neither broadcast nor promoted, which would triple a small call's cost."""
    s, ell = arr.shape[-2:]
    rows = (np.arange(s)[:, None] - a[:, None, None]) % s  # (T, s, 1)
    cols = (np.arange(ell) - b[:, None, None]) % ell  # (T, 1, ell)
    return arr[..., rows, cols]


def shift_sum(shape: RingShape, b: np.ndarray, coeffs, i, j) -> np.ndarray:
    """The (s, ell) array of the sum of coeffs[t] * x^i[t] y^j[t] * b,
    gathering and summing the shifts of b _GATHER_ELEMS entries at a time."""
    fld, n = shape.field, shape.n
    step = max(1, _GATHER_ELEMS // n)
    out = np.zeros(n, dtype=np.int64)
    for t in range(0, len(coeffs), step):
        sl = slice(t, t + step)  # no name holds the images: a held chunk slows the next gather
        out = fld.add_arrays(out, fld.dot(coeffs[sl], shift_images(b, i[sl], j[sl]).reshape(-1, n)))
    return out.reshape(shape.s, shape.ell)


class _Value:
    """Value rule of a frozen dataclass (eq=False) holding arrays.  ``_freeze``
    gates an array field through Field.make_array into a read-only int64 copy
    of the given shape.  Equality and hashing read the compare=True fields, an
    array by its bytes (the other fields fix its shape); copies and pickles
    rebuild through the constructor, so their arrays pass the gate again."""

    __slots__ = ()

    def _freeze(self, name: str, shape: tuple[int, ...]) -> None:
        a = self.shape.field.make_array(getattr(self, name))
        if a.shape != shape:
            raise ValueError(f"{name} of shape {a.shape} does not match {shape}")
        a.setflags(write=False)
        object.__setattr__(self, name, a)

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class RingShape:
    """Parameters of the bivariate cyclic ring: field, s rows, ell columns.
    s and ell must be integers, as for Field.make; they are kept as Python ints."""

    field: Field
    s: int
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "s", _integer(self.s, "row count s"))
        object.__setattr__(self, "ell", _integer(self.ell, "column count ell"))
        if self.s < 1 or self.ell < 1:
            raise ValueError(f"s and ell must be >= 1, got ({self.s}, {self.ell})")
        if self.s * self.ell > MAX_ARRAY_CELLS:
            raise BoundsError(
                f"array size {self.s}*{self.ell} exceeds desk-scale limit {MAX_ARRAY_CELLS}")

    @property
    def n(self) -> int:
        """Code length s * ell."""
        return self.s * self.ell


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class BiPoly(_Value):
    """Element of the bivariate cyclic ring / s x ell codeword array.  A
    frozen value (``_Value``): ``arr`` is a read-only (s, ell) array of
    integers taken mod q (anything else raises ValueError), and fields
    cannot be assigned or deleted."""

    shape: RingShape
    arr: np.ndarray

    def __post_init__(self):
        self._freeze("arr", (self.shape.s, self.shape.ell))

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
            if not isinstance(c, CyclicPoly) or c.field != shape.field or c.s != shape.s:
                raise ValueError("coordinate does not match the ring shape")
            a[:, j] = c.coeffs
        return cls._wrap(shape, a)

    @classmethod
    def from_vector(cls, shape: RingShape, vec, order: str) -> "BiPoly":
        v = np.asarray(vec)
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
        """Coefficient of y^j as a cyclic residue in x, for an integer j in
        [0, ell) (anything else raises ValueError, out of range IndexError)."""
        j = _integer(j, "layer index")
        if not 0 <= j < self.shape.ell:
            raise IndexError(f"layer index {j} out of range [0, {self.shape.ell})")
        return CyclicPoly._wrap(self.shape.field, self.arr[:, j].tolist())

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
        """Multiply by x^t: cyclic row shift downward by t, an integer."""
        return BiPoly._wrap(self.shape,
                            np.roll(self.arr, _integer(t, "shift") % self.shape.s, axis=0))

    def shift_y(self, t: int = 1) -> "BiPoly":
        """Multiply by y^t: cyclic column shift rightward by t, an integer."""
        return BiPoly._wrap(self.shape,
                            np.roll(self.arr, _integer(t, "shift") % self.shape.ell, axis=1))

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

    def __repr__(self):
        return f"BiPoly({self.arr.tolist()})"
