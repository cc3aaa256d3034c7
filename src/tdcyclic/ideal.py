"""Canonical generating sets for ideals of the bivariate cyclic ring.

Given a finite list of generators, the engine computes, layer by layer in
the y-direction:

* the monic generator of each coefficient ideal (the residues that can
  appear as the y^j coefficient of an ideal element vanishing below j),
* a triangular generating polynomial per layer, canonicalized so that
  every higher coordinate is reduced below the degree of that layer's
  generator (a Hermite-style normal form, which makes the output unique
  for the ideal regardless of how it was presented),
* the table of exact quotients of every coordinate by the base layer
  generator.

All layer data is read off one reduced row-echelon basis of the ideal as
an F-vector space, built over the block-internal flattening where the
rows with pivots at or beyond block j are exactly the ideal elements
vanishing below j.  The telescoping peel-off recursion appears in
``decompose``, which rewrites a member as a combination of the layers'
generating polynomials (and detects non-members).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisibilityError, NotMember
from .gf import field_descriptor
from .polyring import CyclicPoly, Poly, cofactor, gcd, xgcd, xs_minus_one
from .ring2d import INTERNAL, BiPoly, RingShape


# -- exact linear algebra over the field (engine side) ----------------------

def _rref(mat: np.ndarray, fld) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    a = np.array(mat, dtype=np.int64)
    nrows, ncols = a.shape
    r = 0
    pivots = []
    for c in range(ncols):
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
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


def _monomial_shift_rows(shape: RingShape, generators) -> np.ndarray:
    """Internal-order vectorizations of x^a y^b g for all shifts and g,
    ordered by g, then a, then b, in one gather."""
    arrs = []
    for g in generators:
        if g.shape != shape:
            raise ValueError("generator does not match the ring shape")
        if not g.is_zero:
            arrs.append(g.arr)
    if not arrs:
        return np.zeros((0, shape.n), dtype=np.int64)
    xs, ys = np.arange(shape.s), np.arange(shape.ell)
    # cell (i, j) of x^a y^b g is g[(i - a) % s, (j - b) % ell]; index axes
    # (a, b, j, i) put it in row a*ell + b at internal index j*s + i
    src_i = ((xs[None, :] - xs[:, None]) % shape.s)[:, None, None, :]
    src_j = ((ys[None, :] - ys[:, None]) % shape.ell)[None, :, :, None]
    return np.stack(arrs)[:, src_i, src_j].reshape(-1, shape.n)


# -- types -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EchelonBasis:
    """Reduced row-echelon F-basis of an ideal, over the internal order.

    Pivot columns are strictly increasing with pivot entries 1, cleared
    elsewhere; the span is closed under both shifts by construction.
    """

    shape: RingShape
    rows: tuple[BiPoly, ...]
    matrix: np.ndarray
    pivots: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)

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
    so one Gaussian elimination over the internal flattening suffices.
    Zero generators are ignored; an empty list gives the zero ideal.
    """
    mat, pivots = _rref(_monomial_shift_rows(shape, generators), shape.field)
    mat.setflags(write=False)
    rows = tuple(BiPoly.from_vector(shape, r, INTERNAL) for r in mat)
    return EchelonBasis(shape, rows, mat, pivots)


def layer_generator(basis: EchelonBasis, j: int) -> LayerInfo:
    """Monic generator of the coefficient ideal of layer j.

    Basis rows with pivot at or beyond block j are exactly the ideal
    elements vanishing below j; their block-j coordinates span the
    coefficient ideal, whose monic generator is the gcd of their lifts
    together with x^s - 1.
    """
    shape = basis.shape
    s, fld = shape.s, shape.field
    if not 0 <= j < shape.ell:
        raise IndexError(f"layer index {j} out of range [0, {shape.ell})")
    lifts = []
    for row, pivot in zip(basis.matrix, basis.pivots):
        if pivot >= j * s:
            block = row[j * s:(j + 1) * s]
            if block.any():
                lifts.append(Poly(fld, block.tolist()))
    if not lifts:
        return LayerInfo(j, CyclicPoly.zero(fld, s), s, Poly.one(fld))
    g = xs_minus_one(fld, s)
    for c in lifts:
        g = gcd(g, c)
    return LayerInfo(j, CyclicPoly.from_poly(g, s), g.degree, cofactor(g, s))


def _layer_witness(basis: EchelonBasis, j: int, layer: LayerInfo) -> BiPoly:
    """Ideal element vanishing below j whose y^j coordinate is the layer
    generator, built by folding extended-gcd coefficients over the basis
    rows that contribute to the layer."""
    shape = basis.shape
    s, fld = shape.s, shape.field
    acc = None          # running combination, an ideal element
    g = None            # gcd of the block-j lifts consumed so far
    for row_vec, pivot, row in zip(basis.matrix, basis.pivots, basis.rows):
        if pivot < j * s:
            continue
        block = row_vec[j * s:(j + 1) * s]
        if not block.any():
            continue
        c = Poly(fld, block.tolist())
        if acc is None:
            g = c.monic()
            acc = row.scale(fld.inv(c.lc))
        else:
            g2, u, v = xgcd(g, c)
            acc = acc * CyclicPoly.from_poly(u, s) + row * CyclicPoly.from_poly(v, s)
            g = g2
        if g.degree == layer.deg:
            break  # gcd cannot drop further
    if acc is None or g != layer.gen.lift():
        raise RuntimeError(f"layer {j}: witness gcd fold disagrees with the layer generator")
    return acc


def generator_set_from_basis(basis: EchelonBasis) -> GeneratorSet:
    """Canonical GeneratorSet read off an echelon basis of the ideal."""
    shape = basis.shape
    s, ell, fld = shape.s, shape.ell, shape.field
    layers = tuple(layer_generator(basis, j) for j in range(ell))

    gens: list[BiPoly | None] = [None] * ell
    for j in range(ell - 1, -1, -1):
        if layers[j].is_zero:
            gens[j] = BiPoly.zero(shape)
            continue
        p = _layer_witness(basis, j, layers[j])
        # Hermite reduction: clear coordinate i below deg(layer i), ascending,
        # using the already-canonical generators of the higher layers
        for i in range(j + 1, ell):
            if layers[i].is_zero:
                continue
            q, _ = divmod(p.coord(i).lift(), layers[i].gen.lift())
            if q:
                p = p - gens[i] * CyclicPoly.from_poly(q, s)
        gens[j] = p

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
    multiple of the layer generator (zero, for a zero layer); otherwise f
    is not in the ideal and NotMember(k) is raised.
    """
    shape = gs.shape
    if f.shape != shape:
        raise ValueError("element does not match the ring shape")
    s, ell, fld = shape.s, shape.ell, shape.field
    h = f
    coeffs = []
    trace = []
    for k in range(ell):
        ck = h.coord(k)
        layer = gs.layers[k]
        if layer.is_zero:
            if not ck.is_zero:
                raise NotMember(k)
            qk = CyclicPoly.zero(fld, s)
        else:
            q, r = divmod(ck.lift(), layer.gen.lift())
            if r:
                raise NotMember(k)
            qk = CyclicPoly.from_poly(q, s)
            if qk:
                h = h - gs.gens[k] * qk
        coeffs.append(qk)
        if want_trace and k < ell - 1:
            trace.append(h)
    return Decomposition(tuple(coeffs), tuple(trace) if want_trace else None)
