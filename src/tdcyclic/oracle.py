"""Brute-force verification path, independent of the construction engine.

Everything here recomputes spans from scratch: the ideal is obtained as a
fixed-point closure of raw codeword vectors under row and column shifts,
tracked by a self-contained elimination routine over the row-major
(codeword) flattening.  None of the reduced-echelon machinery of the
engine is reused: agreement between the two paths is the point of this
module, so the overlap is kept to the shared value types and the field's
arithmetic.

The span is kept as fully reduced rows (pivot 1, zero in every other
pivot column), so the residual of a whole batch of vectors is one field
``dot``.  The closure runs in rounds: each round shifts every row the
previous round added, both ways at once by an index gather, and adds
that batch to the span; it stops at the first round that adds nothing.
Raw vectors are canonicalized as ``BiPoly`` does it: their length must
be s*ell, and entries are taken mod q.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BoundsError, TooLargeError
from .polyring import divides_xs_minus_one, xs_minus_one
from .ring2d import CODEWORD, BiPoly, RingShape

MAX_ORACLE_LENGTH = 64
MAX_SPAN_ENUMERATION = 1 << 20


class _Reducer:
    """Span of length-n vectors as fully reduced rows: rows[i] has a 1 in
    column pivots[i] and 0 in the pivot column of every other row."""

    def __init__(self, fld, n: int):
        self.fld = fld
        self.rows = np.zeros((0, n), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.intp)

    @property
    def dimension(self) -> int:
        return len(self.pivots)

    def residuals(self, mat: np.ndarray) -> np.ndarray:
        """Each row of mat minus its projection on the span, in one dot."""
        fld = self.fld
        return fld.sub_arrays(mat, fld.dot(mat[:, self.pivots], self.rows))

    def first_outside(self, mat: np.ndarray) -> int | None:
        """Index of the first row of mat outside the span, or None."""
        bad = np.flatnonzero(self.residuals(mat).any(axis=1))
        return int(bad[0]) if bad.size else None

    def extend(self, mat: np.ndarray) -> np.ndarray:
        """Add the rows of mat to the span by Gauss-Jordan elimination,
        one step per new pivot, clearing each new pivot column from the
        stored rows too.  Returns the rows it added, as added."""
        fld = self.fld
        r = self.dimension
        res = self.residuals(mat)
        work = np.concatenate([self.rows, res[res.any(axis=1)]])
        pivots = self.pivots.tolist()
        top = r
        while top < len(work):
            live = np.flatnonzero(work[top:].any(axis=1))
            if not live.size:
                break
            i = top + int(live[0])
            if i != top:
                work[[top, i]] = work[[i, top]]
            c = int(np.flatnonzero(work[top])[0])
            pv = int(work[top, c])
            if pv != 1:
                work[top] = fld.scale_array(fld.inv(pv), work[top])
            others = np.flatnonzero(work[:, c])
            others = others[others != top]
            if others.size:
                work[others] = fld.sub_arrays(
                    work[others], fld.mul_arrays(work[others, c][:, None], work[top][None, :]))
            pivots.append(c)
            top += 1
        # a later extend works on a new array, so these rows are never written again
        self.rows, self.pivots = work[:top], np.array(pivots, dtype=np.intp)
        return work[r:top]

    def reduced_rows(self) -> np.ndarray:
        """The unique reduced-echelon basis: the stored rows by pivot."""
        return self.rows[np.argsort(self.pivots)]


@functools.lru_cache(maxsize=128)
def _shift_index(s: int, ell: int) -> np.ndarray:
    """(2, n) gather indices of the one-step row and column shifts: the
    shifted vector is vec[_shift_index(s, ell)[t]] (t = 0 rows, 1 columns)."""
    i, j = np.divmod(np.arange(s * ell), ell)
    idx = np.stack([(i - 1) % s * ell + j, i * ell + (j - 1) % ell])
    idx.setflags(write=False)
    return idx


def _shifts(shape: RingShape, mat: np.ndarray) -> np.ndarray:
    """Both one-step shifts of every row of mat, in one gather."""
    return mat[:, _shift_index(shape.s, shape.ell)].reshape(-1, shape.n)


def _raw_vectors(fld, n: int, vectors) -> np.ndarray:
    """Stack raw vectors as canonical length-n rows: every vector must
    have n entries, and entries are reduced mod q."""
    out = np.zeros((len(vectors), n), dtype=np.int64)
    for t, v in enumerate(vectors):
        a = np.asarray(v, dtype=np.int64).reshape(-1)
        if a.size != n:
            raise ValueError(f"vector length {a.size} != n = {n}")
        out[t] = a
    return out % fld.q


@dataclass(frozen=True, eq=False)
class ClosureBasis:
    """Echelonized basis (codeword order) of a shift-closed span."""

    shape: RingShape
    vectors: np.ndarray
    _reducer: _Reducer = dc_field(repr=False)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    def contains(self, vec) -> bool:
        return self._reducer.first_outside(
            _raw_vectors(self.shape.field, self.shape.n, [vec])) is None

    def contains_elem(self, e: BiPoly) -> bool:
        return self._reducer.first_outside(e.to_vector(CODEWORD)[None, :]) is None


def bruteforce_ideal(shape: RingShape, generators) -> ClosureBasis:
    """Close the generators under row shift, column shift and linearity.

    Works purely on flattened codeword vectors, in rounds: the rows that
    enlarged the span in one round are shifted both ways, and the shifts
    are added to the span in the next; linear closure is implicit in the
    span tracking.  The first round that adds nothing leaves the smallest
    shift-closed subspace containing the generators, i.e. the ideal they
    generate.
    """
    if shape.n > MAX_ORACLE_LENGTH:
        raise BoundsError(f"oracle handles s*ell <= {MAX_ORACLE_LENGTH}, got {shape.n}")
    raw = []
    for g in generators:
        if isinstance(g, BiPoly):
            if g.shape != shape:
                raise ValueError("generator does not match the ring shape")
            raw.append(g.to_vector(CODEWORD))
        else:
            raw.append(g)
    red = _Reducer(shape.field, shape.n)
    added = red.extend(_raw_vectors(shape.field, shape.n, raw))
    while added.size and red.dimension < shape.n:
        added = red.extend(_shifts(shape, added))
    return ClosureBasis(shape, red.reduced_rows(), red)


def enumerate_span(basis: ClosureBasis) -> np.ndarray:
    """All q^dim vectors of the span (full-set mode), in coefficient order."""
    fld = basis.shape.field
    dim = basis.dimension
    total = fld.q**dim
    if total > MAX_SPAN_ENUMERATION:
        raise TooLargeError(f"span has {total} vectors, over cap {MAX_SPAN_ENUMERATION}")
    out = np.zeros((total, basis.shape.n), dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    for t in range(dim):
        digit = (idx // fld.q**t) % fld.q
        out = fld.add_arrays(out, fld.mul_arrays(digit[:, None], basis.vectors[t][None, :]))
    return out


def reduced_span(fld, n: int, vectors) -> np.ndarray:
    """Unique reduced-echelon basis of the span of raw length-n vectors,
    computed by this module's own elimination routine."""
    red = _Reducer(fld, n)
    red.extend(_raw_vectors(fld, n, list(vectors)))
    return red.reduced_rows()


def check_shift_closure(shape: RingShape, vectors) -> bool:
    """True iff the span of the given codeword vectors is closed under
    both shifts.  The span is NOT closed first; that is the point."""
    if isinstance(vectors, ClosureBasis):
        vectors = vectors.vectors
    vs = _raw_vectors(shape.field, shape.n, list(vectors))
    red = _Reducer(shape.field, shape.n)
    red.extend(vs)
    return red.first_outside(_shifts(shape, vs)) is None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: list | None = None


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"checks": [
            {"name": c.name, "pass": c.passed, "counterexample": c.counterexample}
            for c in self.checks]}

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None


def _ideal_of(shape: RingShape, generators) -> ClosureBasis:
    """The closure of the generators, or the given ClosureBasis itself."""
    if not isinstance(generators, ClosureBasis):
        return bruteforce_ideal(shape, generators)
    if generators.shape != shape:
        raise ValueError("closure does not match the ring shape")
    return generators


def _span_equal(a: ClosureBasis, b: ClosureBasis):
    """(equal?, offending vector) for two closure spans."""
    if a.dimension != b.dimension:
        return False, None
    i = b._reducer.first_outside(a.vectors)
    if i is not None:
        return False, a.vectors[i].tolist()
    return True, None


def verify_generator_set(gs, generators) -> Report:
    """Check a GeneratorSet against the brute-force span of the generators.

    Verifies ideal membership of every generating polynomial, equality of
    the two spans, the triangular layout, divisibility of every layer
    generator into x^s - 1, divisibility of every coordinate by the base
    layer generator (with the stored quotient table), and the canonical
    degree bounds.  ``generators`` may be their ClosureBasis instead.
    """
    shape = gs.shape
    s = shape.s
    ideal = _ideal_of(shape, generators)
    checks = []

    gens = np.stack([p.to_vector(CODEWORD) for p in gs.gens])
    i = ideal._reducer.first_outside(gens)
    bad = None if i is None else gens[i].tolist()
    checks.append(CheckResult("gens-in-ideal", bad is None, bad))

    regen = bruteforce_ideal(shape, [p for p in gs.gens if not p.is_zero])
    ok, bad = _span_equal(ideal, regen)
    checks.append(CheckResult("span-equality", ok, bad))

    bad = None
    for j, p in enumerate(gs.gens):
        layer = gs.layers[j]
        if any(not p.coord(i).is_zero for i in range(j)):
            bad = p.to_vector(CODEWORD).tolist()
            break
        if p.coord(j) != layer.gen:
            bad = p.to_vector(CODEWORD).tolist()
            break
    checks.append(CheckResult("triangular", bad is None, bad))

    bad = None
    for layer in gs.layers:
        if layer.is_zero:
            if layer.deg != s:
                bad = [layer.index]
                break
            continue
        g = layer.gen.lift()
        if g.lc != 1 or not divides_xs_minus_one(g, s):
            bad = list(layer.gen.coeffs)
            break
        if layer.cofactor * g != xs_minus_one(shape.field, s):
            bad = list(layer.cofactor.coeffs)
            break
        if layer.deg != g.degree:
            bad = [layer.deg]
            break
    checks.append(CheckResult("layer-divides-xs-1", bad is None, bad))

    bad = None
    has_nonzero = any(not layer.is_zero for layer in gs.layers)
    if has_nonzero and gs.layers[0].is_zero:
        bad = ["layer 0 empty while the ideal is nonzero"]
    elif has_nonzero:
        base = gs.layers[0].gen.lift()
        for j, p in enumerate(gs.gens):
            if gs.layers[j].is_zero:
                continue
            for i in range(j, shape.ell):
                q, r = divmod(p.coord(i).lift(), base)
                if r:
                    bad = list(p.coord(i).coeffs)
                    break
                if gs.quotients[j][i - j] != q:
                    bad = list(gs.quotients[j][i - j].coeffs)
                    break
            if bad:
                break
    checks.append(CheckResult("base-divisibility", bad is None, bad))

    bad = None
    for j, p in enumerate(gs.gens):
        if gs.layers[j].is_zero:
            continue
        for i in range(j + 1, shape.ell):
            li = gs.layers[i]
            if li.is_zero:
                continue
            lift = p.coord(i).lift()
            if lift and lift.degree >= li.deg:
                bad = list(p.coord(i).coeffs)
                break
        if bad:
            break
    checks.append(CheckResult("canonical-degrees", bad is None, bad))

    return Report(tuple(checks))


def verify_matrix(gm, generators) -> Report:
    """Rank, row-space equality with the brute-force span, and per-row
    membership for a generator matrix.  ``generators`` may be their
    ClosureBasis instead."""
    shape = gm.shape
    ideal = _ideal_of(shape, generators)
    checks = []

    rows = _raw_vectors(shape.field, shape.n, gm.rows)
    red = _Reducer(shape.field, shape.n)
    red.extend(rows)
    ok = red.dimension == len(gm.labels)
    checks.append(CheckResult("rank", ok, None if ok else [red.dimension, len(gm.labels)]))

    bad = None
    if red.dimension != ideal.dimension:
        bad = [red.dimension, ideal.dimension]
    else:
        i = red.first_outside(ideal.vectors)
        if i is not None:
            bad = ideal.vectors[i].tolist()
    checks.append(CheckResult("row-space-equality", bad is None, bad))

    i = ideal._reducer.first_outside(rows)
    bad = None if i is None else gm.rows[i].tolist()
    checks.append(CheckResult("rows-in-ideal", bad is None, bad))

    return Report(tuple(checks))
