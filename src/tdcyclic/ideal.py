"""Canonical generating sets for ideals of the bivariate cyclic ring.

Given a finite list of generators, the engine computes, layer by layer in
the y-direction:

* the monic generator of each coefficient ideal (the residues that can
  appear as the y^j coefficient of an ideal element vanishing below j),
* a triangular generating polynomial per layer, canonicalized so that
  every higher coordinate is reduced below the degree of that layer's
  generator (the Hermite normal form of the ideal as an F[x]-module,
  which makes the output unique for the ideal regardless of how it was
  presented),
* the table of exact quotients of every coordinate by the base layer
  generator.

All layer data is read off one reduced row-echelon basis of the ideal as
an F-vector space, kept as one matrix.  ``_rref`` takes its pivot order
as an argument: by y-block ascending and, within a block, by x-degree
descending, so a row's pivot is the leading term of its lowest nonzero
coordinate.  The pivots of block j then sit at exactly the degrees
deg(g_j) .. s-1 of the layer generator g_j, and the row with the lowest
of them is the layer's generating polynomial: it vanishes below j, its
y^j coordinate is the monic element of least degree in the coefficient
ideal, i.e. g_j, and reduction against the pivots of every higher block
i leaves its y^i coordinate below deg(g_i).  The telescoping peel-off
recursion appears in ``decompose``, which rewrites a member as a
combination of the layers' generating polynomials (and detects
non-members).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, DivisibilityError, NotMember
from .gf import field_descriptor
from .polyring import CyclicPoly, Poly, cofactor, xs_minus_one
from .ring2d import INTERNAL, BiPoly, RingShape, shift_source, shift_sum

# entries of the (nonzero generators * n) x n shift matrix span_basis
# eliminates, and rows * columns * rank bounding the elimination's work;
# both are exactly two generators at 32 x 32
MAX_SHIFT_MATRIX_ELEMS = 1 << 21
MAX_ELIMINATION_WORK = 1 << 31


# -- exact linear algebra over the field (engine side) ----------------------

def _rref(mat: np.ndarray, fld, cols) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form with pivots sought in the column order
    ``cols``; returns (nonzero rows in the columns of mat, pivot columns
    in the order they were found)."""
    a = np.array(mat, dtype=np.int64)
    nrows = len(a)
    r = 0
    pivots = []
    for c in cols:
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        pv = int(a[r, c])
        if pv != 1:
            a[r] = fld.scale_array(fld.inv(pv), a[r])
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            factors = a[others, c]
            a[others] = fld.sub_arrays(a[others], fld.mul_arrays(factors[:, None], a[r][None, :]))
        pivots.append(int(c))
        r += 1
    return a[:r], tuple(pivots)


def _monomial_shift_rows(shape: RingShape, generators) -> np.ndarray:
    """INTERNAL vectorizations of x^a y^b g for all shifts and g, ordered
    by g, then a, then b, in one gather.  Refuses a matrix over the
    budget, or an elimination over the work budget, before allocating."""
    arrs = []
    for g in generators:
        if g.shape != shape:
            raise ValueError("generator does not match the ring shape")
        if not g.is_zero:
            arrs.append(g.arr)
    n = shape.n
    if len(arrs) * n * n > MAX_SHIFT_MATRIX_ELEMS:
        raise BoundsError(
            f"shift matrix of {len(arrs)} generator(s) * {n} rows by {n} "
            f"columns exceeds the elimination budget of {MAX_SHIFT_MATRIX_ELEMS} entries")
    if len(arrs) * n * n * n > MAX_ELIMINATION_WORK:
        raise BoundsError(
            f"elimination of {len(arrs)} generator(s) * {n} rows by {n} columns "
            f"exceeds the elimination budget of {MAX_ELIMINATION_WORK} rows * columns * rank")
    if not arrs:
        return np.zeros((0, n), dtype=np.int64)
    # index axes (a, b, j, i) put cell (i, j) of x^a y^b g in row a*ell + b at index j*s + i
    src_i = shift_source(shape.s, np.arange(shape.s))[:, None, None, :]
    src_j = shift_source(shape.ell, np.arange(shape.ell))[None, :, :, None]
    return np.stack(arrs)[:, src_i, src_j].reshape(-1, n)


# -- types -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EchelonBasis:
    """Reduced row-echelon F-basis of an ideal: one matrix whose rows are
    INTERNAL vectorizations.

    ``pivots`` lists each row's pivot as an internal index, in the order
    the elimination found them: y-blocks ascending, x-degrees descending
    within a block.  Pivot entries are 1 and every other row is 0 in a
    pivot's column; the span is closed under both shifts by construction.
    """

    shape: RingShape
    matrix: np.ndarray
    pivots: tuple[int, ...]

    @property
    def rows(self) -> tuple[BiPoly, ...]:
        return tuple(BiPoly.from_vector(self.shape, r, INTERNAL) for r in self.matrix)

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def residual(self, e: BiPoly) -> BiPoly:
        """Remainder of e after elimination against the basis."""
        if e.shape != self.shape:
            raise ValueError("element does not match the ring shape")
        fld = self.shape.field
        v = e.to_vector(INTERNAL)
        # the rows are fully reduced, so v's own pivot entries are the weights
        r = fld.sub_arrays(v, fld.dot(v[np.asarray(self.pivots, dtype=np.intp)], self.matrix))
        return BiPoly.from_vector(self.shape, r, INTERNAL)

    def contains(self, e: BiPoly) -> bool:
        return self.residual(e).is_zero


@dataclass(frozen=True)
class LayerInfo:
    """One y-layer: monic generator of its coefficient ideal, the degree,
    and the cofactor into x^s - 1.  A zero layer (empty coefficient
    ideal) carries the zero residue, degree s and cofactor 1, so it
    contributes no generator matrix rows."""

    index: int
    gen: CyclicPoly
    deg: int
    cofactor: Poly

    @property
    def is_zero(self) -> bool:
        return self.gen.is_zero


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Canonical triangular generating set of an ideal.

    ``gens[j]`` vanishes below y^j and has the layer generator as its y^j
    coordinate; every coordinate is exactly divisible by the base (layer 0)
    generator and ``quotients[j][i - j]`` stores that quotient for the y^i
    coordinate.  Hermite reduction makes the whole structure unique for
    the ideal, so equal spans give byte-identical serializations.
    """

    shape: RingShape
    layers: tuple[LayerInfo, ...]
    gens: tuple[BiPoly, ...]
    quotients: tuple[tuple[Poly, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "shape": {"field": field_descriptor(self.shape.field),
                      "s": self.shape.s, "ell": self.shape.ell},
            "layers": [{"j": L.index,
                        "gen": list(L.gen.coeffs),
                        "a": L.deg,
                        "cof": list(L.cofactor.coeffs)} for L in self.layers],
            "gens": [g.arr.tolist() for g in self.gens],
            "t": [[list(q.coeffs) for q in qs] for qs in self.quotients],
        }


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Coefficients q_j with f = sum gens[j] * q_j, plus the intermediate
    peel-off stages when a trace was requested."""

    coeffs: tuple[CyclicPoly, ...]
    trace: tuple[BiPoly, ...] | None = None


# -- engine operations --------------------------------------------------------

def span_basis(shape: RingShape, generators) -> EchelonBasis:
    """Echelon F-basis of the ideal generated by the given elements.

    The F-span of all monomial shifts of the generators equals the ideal,
    so one Gaussian elimination suffices, with pivots sought by y-block
    ascending and x-degree descending.  Zero generators are ignored; an
    empty list gives the zero ideal.
    """
    cols = np.arange(shape.n).reshape(shape.ell, shape.s)[:, ::-1].ravel()
    mat, pivots = _rref(_monomial_shift_rows(shape, generators), shape.field, cols)
    mat.setflags(write=False)
    return EchelonBasis(shape, mat, pivots)


def _layer_row(basis: EchelonBasis, j: int) -> int | None:
    """Index of the basis row whose pivot is the lowest degree in block j,
    i.e. the last of that block in elimination order; None if block j
    has no pivot."""
    s = basis.shape.s
    rows = [r for r, p in enumerate(basis.pivots) if p // s == j]
    return rows[-1] if rows else None


def layer_generator(basis: EchelonBasis, j: int) -> LayerInfo:
    """Monic generator of the coefficient ideal of layer j.

    It is the y^j coordinate of the basis row whose pivot is the lowest
    degree in block j: that row vanishes below j, and no ideal element
    vanishing below j has a nonzero y^j coordinate of lower degree.
    """
    shape = basis.shape
    s, fld = shape.s, shape.field
    if not 0 <= j < shape.ell:
        raise IndexError(f"layer index {j} out of range [0, {shape.ell})")
    r = _layer_row(basis, j)
    if r is None:
        return LayerInfo(j, CyclicPoly.zero(fld, s), s, Poly.one(fld))
    gen = CyclicPoly(fld, basis.matrix[r, j * s:(j + 1) * s].tolist())
    return LayerInfo(j, gen, basis.pivots[r] % s, cofactor(gen.lift(), s))


def generator_set_from_basis(basis: EchelonBasis) -> GeneratorSet:
    """Canonical GeneratorSet read off an echelon basis of the ideal: the
    generating polynomial of layer j is the basis row layer_generator
    reads, which is already reduced against every higher layer."""
    shape = basis.shape
    ell = shape.ell
    layers = tuple(layer_generator(basis, j) for j in range(ell))
    rows = (_layer_row(basis, j) for j in range(ell))
    gens = [BiPoly.zero(shape) if r is None
            else BiPoly.from_vector(shape, basis.matrix[r], INTERNAL) for r in rows]

    base = layers[0].gen.lift() if not layers[0].is_zero else None
    quotients = []
    for j in range(ell):
        if layers[j].is_zero:
            quotients.append(())
            continue
        qs = []
        for i in range(j, ell):
            q, r = divmod(gens[j].coord(i).lift(), base)
            if r:
                raise DivisibilityError(
                    f"coordinate {i} of generator {j} is not divisible by the base generator")
            qs.append(q)
        quotients.append(tuple(qs))
    return GeneratorSet(shape, layers, tuple(gens), tuple(quotients))


def extract_generators(shape: RingShape, generators) -> GeneratorSet:
    """End to end: span the ideal, then extract its canonical GeneratorSet."""
    return generator_set_from_basis(span_basis(shape, generators))


def canonical_form(shape: RingShape, generators) -> GeneratorSet:
    """Alias of extract_generators, named for its uniqueness contract: any
    two generator lists spanning the same ideal produce a structurally
    identical (byte-identical once serialized) GeneratorSet."""
    return extract_generators(shape, generators)


def decompose(f: BiPoly, gs: GeneratorSet, want_trace: bool = False) -> Decomposition:
    """Peel f layer by layer into f = sum gens[j] * q_j.

    At layer k the y^k coordinate of the running remainder must be a
    multiple of the layer generator; otherwise f is not in the ideal and
    NotMember(k) is raised.  A zero layer divides as x^s - 1 (degree s,
    cofactor 1), which leaves any nonzero coordinate as the remainder.
    """
    shape = gs.shape
    if f.shape != shape:
        raise ValueError("element does not match the ring shape")
    fld, s, ell = shape.field, shape.s, shape.ell
    h = f
    coeffs = []
    trace = []
    for k in range(ell):
        q, r = divmod(h.coord(k).lift(), gs.layers[k].gen.lift() or xs_minus_one(fld, s))
        if r:
            raise NotMember(k)
        if q:
            # gens[k] * q is the sum of q_a times the rows x^a * gens[k],
            # a <= deg q < s, formed by the ring's chunked shift-sum kernel
            shifted = shift_sum(shape, gs.gens[k].arr, q.coeffs, np.arange(len(q.coeffs)))
            h = BiPoly._wrap(shape, fld.sub_arrays(h.arr, shifted))
        coeffs.append(CyclicPoly.from_poly(q, s))
        if want_trace and k < ell - 1:
            trace.append(h)
    return Decomposition(tuple(coeffs), tuple(trace) if want_trace else None)
