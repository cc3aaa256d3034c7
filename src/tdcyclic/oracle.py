"""Brute-force verification path, independent of the construction engine.

A span the oracle cannot prove equal is recomputed from scratch: the
ideal is obtained as a fixed-point closure of raw codeword vectors under
row and column shifts, tracked by a self-contained elimination routine
over the row-major (codeword) flattening.  None of the reduced-echelon
machinery of the engine is reused: agreement between the two paths is
the point of this module, so the overlap is kept to the shared value
types and the field's arithmetic.

The span is kept as fully reduced rows (pivot 1, zero in every other
pivot column), so the residual of a whole batch of vectors is one field
``dot``.  ``extend`` takes new rows in order: each has been reduced by
the pivots found before it, a nonzero one takes its first nonzero column
as its pivot, and one whole-matrix update clears that column from every
other row.  The closure runs in rounds: each round shifts every row the
previous round added, both ways at once by an index gather, and adds
that batch to the span; it stops at the first round that adds nothing.
Every element and raw vector reaches the elimination through one gate,
``_raw_vectors``: an element (``BiPoly``) must have the ring's shape and
is read in codeword order, and a raw vector must have s*ell integer
entries, taken mod q by ``Field.make_array`` as ``BiPoly`` takes them.
A closure given in place of generators must have the ring's shape too.
Anything else raises ``ValueError``; a 2-D array, whose rows share one
dtype and width, is gated whole.

Each input is closed once.  ``bruteforce_ideal`` gates its input on every
call, then looks the gated rows up by value, keyed on the ring shape and
their bytes, among the 8 closures it used last; a closure of a
verify_generator_set call is found again by the verify_matrix call on the
same generators.  An entry holds at most 64 x 64 cells twice (its reduced
rows and its reducer's) plus its input, and every array in it is read-only,
since callers share it.  Passing the ``ClosureBasis`` instead of the
generators still works and skips the lookup.

A rank certificate shortcuts a passing check.  The leading cell of a
nonzero vector is its first nonzero cell, y ascending, then x
descending, and vectors with pairwise distinct leading cells are
linearly independent.  So rows inside the ideal that show as many
distinct leading cells as its dimension span it, and k rows with k
distinct leading cells have rank k.  The condition is only sufficient:
where it falls short the closure or the elimination runs, and every
failure and its counterexample come from that computation.

Each check reports its first failing datum, in a fixed order: layers,
generating polynomials, their coordinates by y-degree, matrix rows and
closure vectors, each by index.  A vector or a residue mod x^s - 1 is
reported with all its entries; a stored quotient or a cofactor with its
coefficients up to its degree, lowest first, so the zero polynomial is
``[]``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BoundsError, TooLargeError
from .polyring import Poly, divides_xs_minus_one, xs_minus_one
from .ring2d import BiPoly, RingShape, _Value

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
        """Add the rows of mat to the span by Gauss-Jordan elimination.
        The new rows are taken in order, each reduced by every pivot found
        before it; a nonzero one takes its first nonzero column as its
        pivot, cleared from every other row by one whole-matrix update.
        Returns the rows it added, as added."""
        fld = self.fld
        r = self.dimension
        res = self.residuals(mat)
        work = np.concatenate([self.rows, res[res.any(axis=1)]])
        pivots, keep = self.pivots.tolist(), list(range(r))
        for t in range(r, len(work)):
            nz = work[t].nonzero()[0]
            if not nz.size:
                continue
            c, pv = int(nz[0]), int(work[t, nz[0]])
            row = work[t] if pv == 1 else fld.scale_array(fld.inv(pv), work[t])
            work = fld.sub_arrays(work, fld.mul_arrays(work[:, c, None], row))
            work[t] = row
            pivots.append(c)
            keep.append(t)
        # a later extend works on a new array, so these rows are never written again
        self.rows, self.pivots = work[keep], np.array(pivots, dtype=np.intp)
        return self.rows[r:]

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


@functools.lru_cache(maxsize=128)
def _lead_order(s: int, ell: int) -> np.ndarray:
    """(s, n) gather indices: row a reads x^a * vec (codeword layout) with
    its cells in leading order, y ascending, then x descending."""
    p = np.arange(s * ell)
    idx = (s - 1 - p % s - np.arange(s)[:, None]) % s * ell + p // s
    idx.setflags(write=False)
    return idx


def _distinct_leads(shape: RingShape, vecs: np.ndarray, shifts: int) -> int:
    """Number of distinct leading cells of the nonzero x^a * vecs[t], a < shifts:
    a lower bound on their rank."""
    n = shape.n
    cells = vecs[:, _lead_order(shape.s, shape.ell)[:shifts]].reshape(-1, n) != 0
    seen = np.zeros(n + 1, dtype=bool)  # a zero vector marks the last slot
    seen[np.where(cells.any(axis=1), cells.argmax(axis=1), n)] = True
    return int(seen[:n].sum())


def _raw_vectors(fld, n: int, vectors, shape: RingShape | None = None) -> np.ndarray:
    """Stack elements and raw vectors as canonical length-n codeword rows:
    an element must have the ring shape ``shape`` (with no shape, none is
    accepted), a raw vector n entries, and entries go through
    fld.make_array, which refuses a non-integer and reduces mod q.  The
    rows of a 2-D array share one dtype and width, so it is gated whole."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2 and len(vectors):
        out = fld.make_array(vectors)
        if out.shape[1] != n:
            raise ValueError(f"vector length {out.shape[1]} != n = {n}")
        return out
    out = np.zeros((len(vectors), n), dtype=np.int64)
    for t, v in enumerate(vectors):
        if isinstance(v, BiPoly):
            if v.shape != shape:
                raise ValueError("generator does not match the ring shape")
            v = v.arr
        a = fld.make_array(v).reshape(-1)
        if a.size != n:
            raise ValueError(f"vector length {a.size} != n = {n}")
        out[t] = a
    return out


@dataclass(frozen=True, eq=False)
class ClosureBasis(_Value):
    """Echelonized basis (codeword order) of a shift-closed span.  ``contains``
    and ``contains_elem`` are one check of an element of the ring's shape or a
    raw vector of s*ell integer entries, taken mod q; anything else raises
    ValueError.  A frozen value (``_Value``): ``vectors``, the reduced rows of
    ``_reducer`` and unique for the span, are a read-only (dimension, n) array."""

    shape: RingShape
    vectors: np.ndarray
    _reducer: _Reducer = dc_field(repr=False, compare=False)

    def __post_init__(self):
        self._freeze("vectors", (self._reducer.dimension, self.shape.n))
        # a closure is shared by every caller that closes the same input
        self._reducer.rows.setflags(write=False)
        self._reducer.pivots.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    def contains(self, vec) -> bool:
        sh = self.shape
        return self._reducer.first_outside(_raw_vectors(sh.field, sh.n, [vec], sh)) is None

    def contains_elem(self, e: BiPoly) -> bool:
        return self.contains(e)


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
    return _closure(shape, _raw_vectors(shape.field, shape.n, list(generators), shape).tobytes())


@functools.lru_cache(maxsize=8)
def _closure(shape: RingShape, raw: bytes) -> ClosureBasis:
    """The closure of the gated int64 rows whose bytes are raw.  The last few
    are kept by value, so a caller that closes one input twice, as
    verify_generator_set and then verify_matrix do, closes it once."""
    red = _Reducer(shape.field, shape.n)
    added = red.extend(np.frombuffer(raw, dtype=np.int64).reshape(-1, shape.n))
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
    computed by this module's own elimination routine.  There is no ring
    shape here, so an element raises ValueError."""
    red = _Reducer(fld, n)
    red.extend(_raw_vectors(fld, n, list(vectors)))
    return red.reduced_rows()


def check_shift_closure(shape: RingShape, vectors) -> bool:
    """True iff the span of the given vectors is closed under both shifts:
    elements of the ring's shape, raw vectors of s*ell entries (taken mod
    q) or a closure of the same shape; anything else raises ValueError.
    The span is NOT closed first; that is the point."""
    if isinstance(vectors, ClosureBasis):
        vectors = _ideal_of(shape, vectors).vectors
    vs = _raw_vectors(shape.field, shape.n, list(vectors), shape)
    red = _Reducer(shape.field, shape.n)
    red.extend(vs)
    return red.first_outside(_shifts(shape, vs)) is None


@dataclass(frozen=True)
class CheckResult:
    """One named check; a failing one may carry its datum, kept as a tuple
    so that a Report hashes, and printed as a JSON list."""

    name: str
    passed: bool
    counterexample: tuple | None = None

    def __post_init__(self):
        if self.counterexample is not None:
            object.__setattr__(self, "counterexample", tuple(self.counterexample))


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"checks": [
            {"name": c.name, "pass": c.passed,
             "counterexample": None if c.counterexample is None else list(c.counterexample)}
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
    fld, s, ell = shape.field, shape.s, shape.ell
    ideal = _ideal_of(shape, generators)
    layers = gs.layers
    live = np.array([not layer.is_zero for layer in layers])
    checks = []

    arrs = np.stack([p.arr for p in gs.gens])  # arrs[j, i, c]: x^i y^c coefficient of gens[j]
    gens = arrs.reshape(ell, shape.n)
    i = ideal._reducer.first_outside(gens)
    bad = None if i is None else gens[i].tolist()
    checks.append(CheckResult("gens-in-ideal", bad is None, bad))

    # inside the ideal, as many distinct leading cells as its dimension span it
    if bad is None and _distinct_leads(shape, gens, s) >= ideal.dimension:
        ok = True
    else:
        ok, bad = _span_equal(ideal, bruteforce_ideal(shape, [p for p in gs.gens if not p.is_zero]))
    checks.append(CheckResult("span-equality", ok, bad))

    # gens[j] vanishes below y^j, and everywhere when layer j is zero
    below = (arrs.any(axis=1) & (np.tri(ell, k=-1, dtype=bool) | ~live[:, None])).any(axis=1)
    diag = arrs[np.arange(ell), :, np.arange(ell)].tolist()
    j = next((j for j in range(ell) if below[j] or diag[j] != list(layers[j].gen.coeffs)), None)
    bad = None if j is None else gens[j].tolist()
    checks.append(CheckResult("triangular", bad is None, bad))

    bad, xs1 = None, xs_minus_one(fld, s)
    for layer in layers:
        g = layer.gen.lift()
        if layer.is_zero:
            bad = None if layer.deg == s else [layer.index]
        # cofactor * g = x^s - 1 proves that g divides x^s - 1; else one division decides
        elif g.lc != 1 or layer.cofactor * g != xs1:
            divisor = g.lc == 1 and divides_xs_minus_one(g, s)
            bad = list((layer.cofactor if divisor else layer.gen).coeffs)
        elif layer.deg != g.degree:
            bad = [layer.deg]
        if bad is not None:
            break
    checks.append(CheckResult("layer-divides-xs-1", bad is None, bad))

    bad = None
    if live.any() and not live[0]:
        bad = ["layer 0 empty while the ideal is nonzero"]
    elif live.any():
        base = layers[0].gen.lift()
        w = s - base.degree  # deg t < w keeps t * base below x^s
        pairs = [(j, i) for j in range(ell) if live[j] for i in range(j, ell)]
        stored = [gs.quotients[j][i - j] if i - j < len(gs.quotients[j]) else None
                  for j, i in pairs]
        fits = np.array([q is not None and len(q.coeffs) <= w for q in stored])
        t = np.array([q.coeffs + (0,) * (w - len(q.coeffs)) if f else (0,) * w
                      for q, f in zip(stored, fits)], dtype=np.int64).reshape(-1, w)
        base_shifts = np.array([(0,) * a + base.coeffs + (0,) * (w - 1 - a) for a in range(w)],
                               dtype=np.int64).reshape(w, s)
        jj, ii = np.array(pairs).T
        coords = arrs[jj, :, ii]
        # every coordinate = t * base in one dot with the rows x^a * base, a < w
        miss = np.flatnonzero(~fits | (fld.dot(t, base_shifts) != coords).any(axis=1))
        if miss.size:
            # the first failing pair: its coordinate, unless some quotient times the
            # base gives it, in which case the stored quotient is the wrong one
            r = miss[0]
            rem = Poly(fld, coords[r].tolist()) % base
            bad = coords[r].tolist() if rem or stored[r] is None else list(stored[r].coeffs)
    checks.append(CheckResult("base-divisibility", bad is None, bad))

    # each coordinate i > j of a nonzero gens[j] stays below the degree of nonzero layer i
    high = ((arrs != 0) & (np.arange(s)[:, None] >= [layer.deg for layer in layers])).any(axis=1)
    hits = np.flatnonzero(high & ~np.tri(ell, dtype=bool) & live[:, None] & live)
    bad = None if not hits.size else arrs[hits[0] // ell, :, hits[0] % ell].tolist()
    checks.append(CheckResult("canonical-degrees", bad is None, bad))

    return Report(tuple(checks))


def verify_matrix(gm, generators) -> Report:
    """Rank, row-space equality with the brute-force span, and per-row
    membership for a generator matrix.  ``generators`` may be their
    ClosureBasis instead."""
    shape = gm.shape
    ideal = _ideal_of(shape, generators)

    rows = _raw_vectors(shape.field, shape.n, gm.rows)
    i = ideal._reducer.first_outside(rows)
    in_ideal = CheckResult("rows-in-ideal", i is None, None if i is None else gm.rows[i].tolist())

    def eliminated():
        red = _Reducer(shape.field, shape.n)
        red.extend(rows)
        return red

    # rows with pairwise distinct leading cells are independent
    red = None if _distinct_leads(shape, rows, 1) == len(rows) else eliminated()
    rank = len(rows) if red is None else red.dimension
    ok = rank == len(gm.labels)
    rank_check = CheckResult("rank", ok, None if ok else [rank, len(gm.labels)])

    bad = None
    if rank != ideal.dimension:
        bad = [rank, ideal.dimension]
    elif red is not None or not in_ideal.passed:  # else independent rows in the ideal span it
        i = (red or eliminated()).first_outside(ideal.vectors)
        if i is not None:
            bad = ideal.vectors[i].tolist()
    return Report((rank_check, CheckResult("row-space-equality", bad is None, bad), in_ideal))
