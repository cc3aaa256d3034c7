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

All layer data is read off, in one pass over one row per layer, a reduced
row-echelon basis of the ideal as an F-vector space, kept as one matrix.
``_rref`` takes its pivot order as an argument: by y-block ascending and,
within a block, by x-degree descending, so a row's pivot is the leading
term of its lowest nonzero coordinate.  The pivots of block j then sit at
exactly the degrees deg(g_j) .. s-1 of the layer generator g_j, and the
row with the lowest of them, the last of the block in elimination order,
is the layer's generating polynomial: it vanishes below j, its
y^j coordinate is the monic element of least degree in the coefficient
ideal, i.e. g_j, and reduction against the pivots of every higher block
i leaves its y^i coordinate below deg(g_i).  The telescoping peel-off
recursion appears in ``decompose``, which rewrites a member as a
combination of the layers' generating polynomials (and detects
non-members).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, DivisibilityError, NotMember
from .gf import _integer, field_descriptor
from .polyring import CyclicPoly, Poly, cofactor, xs_minus_one
from .ring2d import _GATHER_ELEMS, INTERNAL, BiPoly, RingShape, _Value, shift_images, shift_sum

# rows * columns * rank bounding the work of span_basis's elimination of
# (nonzero generators * n) shift rows by n columns: two generators at 32 x 32
MAX_ELIMINATION_WORK = 1 << 31


# -- exact linear algebra over the field (engine side) ----------------------

def _rref(a: np.ndarray, fld, cols) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form with pivots sought in the column order
    ``cols``, eliminated in place on a, a writable int64 array of canonical
    elements that the caller owns; returns (the nonzero rows as a view of a,
    the pivot columns in the order they were found).

    Each pivot costs one update of the rows it clears: the pivot row is
    taken out, row r moves into its place and is zeroed, every row still
    nonzero in the column is reduced at once, and the pivot row goes to r."""
    nrows = len(a)
    r = 0
    pivots = []
    for c in cols:
        if r == nrows:
            break
        col = a[:, c]  # a view: it follows every update of a
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        pv = int(col[pr])
        row = a[pr].copy() if pv == 1 else fld.scale_array(fld.inv(pv), a[pr])
        a[pr] = a[r]
        a[r] = 0
        others = col.nonzero()[0]
        if others.size:
            a[others] = fld.sub_arrays(a[others], fld.mul_arrays(col[others][:, None], row))
        a[r] = row
        pivots.append(int(c))
        r += 1
    return a[:r], tuple(pivots)


def _pivot_order(shape: RingShape) -> np.ndarray:
    """The INTERNAL indices in the engine's pivot order: y-blocks ascending,
    x-degrees descending within a block."""
    return np.arange(shape.n).reshape(shape.ell, shape.s)[:, ::-1].ravel()


# -- types -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EchelonBasis(_Value):
    """Reduced row-echelon F-basis of an ideal: one matrix whose rows are
    INTERNAL vectorizations.

    ``pivots`` lists each row's pivot as an internal index, in the order
    the elimination found them: y-blocks ascending, x-degrees descending
    within a block.  Pivot entries are 1 and every other row is 0 in a
    pivot's column.  The span of a basis ``span_basis`` returns is an
    ideal, closed under both shifts; a hand-built one need not be.
    Pivots that are not each row's first nonzero entry in that order raise
    ValueError.
    A frozen value (``_Value``): ``pivots`` is a tuple and ``matrix`` a
    read-only (len(pivots), n) array, unique for the span.
    """

    shape: RingShape
    matrix: np.ndarray
    pivots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pivots", tuple(self.pivots))
        self._freeze("matrix", (len(self.pivots), self.shape.n))
        # each row's pivot is its first nonzero entry in the engine's pivot order
        cols = _pivot_order(self.shape)
        nz = (self.matrix != 0)[:, cols]
        if not nz.any(axis=1).all() or cols[nz.argmax(axis=1)].tolist() != list(self.pivots):
            raise ValueError("pivots do not match the leading entries of the matrix")

    @property
    def rows(self) -> tuple[BiPoly, ...]:
        return tuple(BiPoly.from_vector(self.shape, r, INTERNAL) for r in self.matrix)

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def residual(self, e: BiPoly) -> BiPoly:
        """Remainder of e after elimination against the basis."""
        if not isinstance(e, BiPoly) or e.shape != self.shape:
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


@dataclass(frozen=True)
class GeneratorSet:
    """Canonical triangular generating set of an ideal.

    ``gens[j]`` vanishes below y^j and has the layer generator as its y^j
    coordinate; every coordinate is exactly divisible by the base (layer 0)
    generator and ``quotients[j][i - j]`` stores that quotient for the y^i
    coordinate.  Hermite reduction makes the whole structure unique for
    the ideal, so equal spans give equal sets and byte-identical serializations.
    ``layers``, ``gens`` and ``quotients`` have one entry per layer, and
    every generating polynomial has the set's shape; construction checks
    both.  A zero layer stores no quotients, and its generating polynomial
    is zero.

    ``basis`` is derived state: the reduced echelon basis the set was read
    off, kept only where ``span_basis`` built it (``extract_generators``
    and the ``enumerate`` survey), so that the distance search starts from
    it with no second elimination and no closure test.  It keeps the
    k x n basis alive (7.9 MB at GF(2) 32 x 32).  It is not an argument and
    takes no part in equality, hashing, repr or ``to_json_dict``;
    ``generator_set_from_basis`` of a caller's basis, ``dataclasses.replace``
    and a hand-built set carry None, so equal sets give equal results and
    a set never carries a basis that is not an ideal's or does not span it.
    """

    shape: RingShape
    layers: tuple[LayerInfo, ...]
    gens: tuple[BiPoly, ...]
    quotients: tuple[tuple[Poly, ...], ...]
    basis: EchelonBasis | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        ell = self.shape.ell
        if not len(self.layers) == len(self.gens) == len(self.quotients) == ell:
            raise ValueError(f"{len(self.layers)} layers, {len(self.gens)} gens and "
                             f"{len(self.quotients)} quotient rows do not match ell = {ell}")
        if any(not isinstance(g, BiPoly) or g.shape != self.shape for g in self.gens):
            raise ValueError("generating polynomial does not match the ring shape")

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


@dataclass(frozen=True)
class Decomposition:
    """Coefficients q_j with f = sum gens[j] * q_j, plus the intermediate
    peel-off stages when a trace was requested."""

    coeffs: tuple[CyclicPoly, ...]
    trace: tuple[BiPoly, ...] | None = None


# -- engine operations --------------------------------------------------------

def span_basis(shape: RingShape, generators) -> EchelonBasis:
    """Echelon F-basis of the ideal generated by the given elements.

    The F-span of all monomial shifts of the generators equals the ideal,
    so Gaussian elimination suffices, with pivots sought by y-block
    ascending and x-degree descending.  Zero generators are ignored; an
    empty list gives the zero ideal.  Work over MAX_ELIMINATION_WORK is
    refused before anything is allocated.  The shifts are eliminated with
    the basis so far in steps of at most four chunk budgets, 2^21 entries;
    a span's reduced echelon form is unique, so the steps leave it as is.
    """
    arrs = []
    for g in generators:
        if not isinstance(g, BiPoly) or g.shape != shape:
            raise ValueError("generator does not match the ring shape")
        if not g.is_zero:
            arrs.append(g.arr)
    fld, n = shape.field, shape.n
    if len(arrs) * n ** 3 > MAX_ELIMINATION_WORK:
        raise BoundsError(
            f"elimination of {len(arrs)} generator(s) * {n} rows by {n} columns "
            f"exceeds the elimination budget of {MAX_ELIMINATION_WORK} rows * columns * rank")
    cols = _pivot_order(shape)
    a, b = np.divmod(np.arange(n), shape.ell)
    step = max(1, 4 * _GATHER_ELEMS // (n * n))
    mat, pivots = np.zeros((0, n), dtype=np.int64), ()
    for t in range(0, len(arrs), step):
        # on g transposed to (ell, s), x^a y^b g is image (b, a), flattened in INTERNAL
        # order; the step is a fresh array, which _rref eliminates in place
        gens = np.stack(arrs[t:t + step]).transpose(0, 2, 1)
        mat, pivots = _rref(np.concatenate([mat, shift_images(gens, b, a).reshape(-1, n)]),
                            fld, cols)
    # the basis copies the rows alone, not the whole last step that mat views
    return EchelonBasis(shape, mat, pivots)


def layer_generator(basis: EchelonBasis, j: int) -> LayerInfo:
    """Monic generator of the coefficient ideal of layer j: layer j of the
    one read-off pass, which this builds whole by calling
    generator_set_from_basis."""
    j = _integer(j, "layer index")
    if not 0 <= j < basis.shape.ell:
        raise IndexError(f"layer index {j} out of range [0, {basis.shape.ell})")
    return generator_set_from_basis(basis).layers[j]


def generator_set_from_basis(basis: EchelonBasis) -> GeneratorSet:
    """Canonical GeneratorSet read off an echelon basis in one pass.

    The layer row of block j is the block's last row in elimination order,
    whose pivot is the block's lowest degree: its y^j coordinate is the
    layer generator, and it is already reduced against every higher layer.
    Each layer row's coordinates are read once, as Poly.  The set keeps no
    basis (``GeneratorSet.basis``): a caller's basis need not be an ideal's."""
    shape = basis.shape
    fld, s, ell = shape.field, shape.s, shape.ell
    layer_row = {p // s: r for r, p in enumerate(basis.pivots)}  # each block's last row
    layers, gens, quotients = [], [], []
    base = xs_minus_one(fld, s)  # layer 0's generator, x^s - 1 if empty, divides every coordinate
    for j in range(ell):
        r = layer_row.get(j)
        if r is None:
            layers.append(LayerInfo(j, CyclicPoly.zero(fld, s), s, Poly.one(fld)))
            gens.append(BiPoly.zero(shape))
            quotients.append(())
            continue
        row = basis.matrix[r]
        coords = [Poly._wrap(fld, row[i * s:(i + 1) * s].tolist()) for i in range(j, ell)]
        g = coords[0]
        base = g if j == 0 else base
        layers.append(LayerInfo(j, CyclicPoly.from_poly(g, s), g.degree, cofactor(g, s)))
        gens.append(BiPoly._wrap(shape, row.reshape(ell, s).T.copy()))  # INTERNAL order
        qs = []
        for i, c in enumerate(coords, j):
            q, rem = divmod(c, base)
            if rem:
                raise DivisibilityError(
                    f"coordinate {i} of generator {j} is not divisible by the base generator")
            qs.append(q)
        quotients.append(tuple(qs))
    return GeneratorSet(shape, tuple(layers), tuple(gens), tuple(quotients))


def _read_off_span(basis: EchelonBasis) -> GeneratorSet:
    """generator_set_from_basis of a basis that span_basis returned, which
    the set keeps: its span is an ideal, closed under the shifts."""
    gs = generator_set_from_basis(basis)
    object.__setattr__(gs, "basis", basis)
    return gs


def extract_generators(shape: RingShape, generators) -> GeneratorSet:
    """End to end: span the ideal, then extract its canonical GeneratorSet."""
    return _read_off_span(span_basis(shape, generators))


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
    if not isinstance(f, BiPoly) or f.shape != shape:
        raise ValueError("element does not match the ring shape")
    fld, s, ell = shape.field, shape.s, shape.ell
    h = f
    coeffs = []
    trace = []
    for k in range(ell):
        q, r = divmod(Poly._wrap(fld, h.arr[:, k].tolist()),
                      gs.layers[k].gen.lift() or xs_minus_one(fld, s))
        if r:
            raise NotMember(k)
        if q:
            # gens[k] * q is the sum of q_a times the rows x^a * gens[k],
            # a <= deg q < s, formed by the ring's chunked shift-sum kernel
            a = np.arange(len(q.coeffs))
            shifted = shift_sum(shape, gs.gens[k].arr, q.coeffs, a, 0 * a)
            h = BiPoly._wrap(shape, fld.sub_arrays(h.arr, shifted))
        coeffs.append(CyclicPoly.from_poly(q, s))
        if want_trace and k < ell - 1:
            trace.append(h)
    return Decomposition(tuple(coeffs), tuple(trace) if want_trace else None)
