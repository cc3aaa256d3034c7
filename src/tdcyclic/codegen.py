"""Generator matrices, encoding, and code parameters.

The rows of the generator matrix are the codeword flattenings of
x^a * gens[j] for every nonzero layer j and 0 <= a < s - deg(layer j),
in (layer, shift) order; they form an F-basis of the code, so the
dimension is the sum of s - deg over the layers.

Minimum distance is the Brouwer-Zimmermann information-set search
(Zimmermann 1996; Grassl 2006) on the generator matrix, under a hard cap
on q^k, desk scale only.  The matrix is put in systematic form on
information sets that take new columns first.  Messages of weight
w = 1, 2, ... are encoded on each of them, which lowers an upper bound
on d, while the weight every unseen codeword must carry on the new
columns raises a lower bound; the search stops when the bounds meet.
Each weight level is built from the one below by adding one scaled row,
in chunks of at most ``_TABLE_ELEMS`` entries, so the working set stays
a few chunk-sized arrays over every field, however long the code is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError
from .ideal import GeneratorSet, _rref
from .ring2d import RingShape, shift_source

DEFAULT_CAP = 1 << 20
_TABLE_ELEMS = 1 << 19


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """k x (s*ell) matrix over the field in codeword (row-major) order,
    with a (layer, x-shift) label per row."""

    shape: RingShape
    rows: np.ndarray
    labels: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return self.shape.n


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    q: int
    d: int | None = None

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "k": self.k, "q": self.q}
        if self.d is not None:
            out["d"] = self.d
        return out


def dimension(gs: GeneratorSet) -> int:
    """Code dimension: sum of (s - layer degree); zero layers contribute 0."""
    return sum(gs.shape.s - L.deg for L in gs.layers)


def generator_matrix(gs: GeneratorSet) -> GeneratorMatrix:
    """Rows x^a * gens[j], layer-major then shift, codeword flattening."""
    shape = gs.shape
    s = shape.s
    labels = tuple((L.index, a) for L in gs.layers if not L.is_zero
                   for a in range(s - L.deg))
    layer, shift = np.array(labels, dtype=np.intp).reshape(-1, 2).T
    arrs = np.stack([g.arr for g in gs.gens])
    # row (j, a) is x^a * gens[j]
    mat = arrs[layer[:, None], shift_source(s, shift)].reshape(-1, shape.n)
    mat.setflags(write=False)
    return GeneratorMatrix(shape, mat, labels)


def encode(gm: GeneratorMatrix, msg) -> np.ndarray:
    """F-linear combination of the rows by a length-k message vector."""
    fld = gm.shape.field
    m = np.asarray(msg, dtype=np.int64)
    if m.shape != (gm.k,):
        raise ValueError(f"message length {m.size} != k = {gm.k}")
    return fld.dot(m % fld.q, gm.rows)


def _information_sets(fld, rows: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Systematic forms (gamma_i, r_i) of the row space of rows.

    Each gamma_i is the reduced echelon form with its pivots taken first
    among the columns no earlier gamma pivots on; r_i counts those new
    pivot columns, so the new columns of different gammas are disjoint.
    Stops when no new pivot column is left."""
    used = np.zeros(rows.shape[1], dtype=bool)
    out = []
    while True:
        gamma, pivots = _rref(rows, fld, np.argsort(used, kind="stable"))  # unused first
        new = [c for c in pivots if not used[c]]
        if not new:
            return out
        out.append((gamma, len(new)))
        used[new] = True


def _level(fld, rows: np.ndarray, w: int, budget: int):
    """Yield chunks (words, last) covering the codewords of every message
    of Hamming weight w whose first nonzero coefficient is 1; last[i] is
    the index of the last nonzero coefficient of the message of words[i],
    nondecreasing within a chunk.

    A weight-w message with last index t is a weight-(w-1) message with
    last index below t plus c * rows[t], c != 0.  A chunk holds at most
    max(budget, n) elements; level w - 1 is rebuilt with half the budget,
    so all levels in flight together stay within twice the budget.  A
    chunk of level w >= 2 is a view of one reused buffer: it is valid
    until the next chunk is requested."""
    k, n = rows.shape
    step = max(1, budget // n)
    if w == 1:
        for a in range(0, k, step):
            yield rows[a:a + step], np.arange(a, min(a + step, k))
        return
    out = np.empty((step, n), dtype=np.int64)
    out_last = np.empty(step, dtype=np.int64)
    for words, last in _level(fld, rows, w - 1, budget // 2):
        size = 0
        for t in range(int(last[0]) + 1, k):
            base = words[:np.searchsorted(last, t)]
            for c in range(1, fld.q):
                if size + len(base) > step:
                    yield out[:size], out_last[:size]
                    size = 0
                out[size:size + len(base)] = fld.add_arrays(base, fld.scale_array(c, rows[t]))
                out_last[size:size + len(base)] = t
                size += len(base)
        if size:  # the next parent chunk starts again at a low t
            yield out[:size], out_last[:size]


def min_distance(gm: GeneratorMatrix, cap: int = DEFAULT_CAP) -> int:
    """Minimum Hamming weight of a nonzero codeword, by the
    Brouwer-Zimmermann information-set search.

    The row space is put in systematic form on a sequence of information
    sets, each taking new columns first (r_i new columns for gamma_i).
    For w = 1, 2, ... every message of weight w, up to a scalar, is
    encoded by every gamma_i, and the least weight seen is an upper bound
    on d.  A codeword not yet seen has weight above w on each information
    set, so at least w + 1 - (k - r_i) on the new columns of gamma_i; the
    sum over i is a lower bound, and the search stops when it reaches the
    upper bound, or at w = k when every codeword has been seen.  Words are
    built and weighed in chunks of at most _TABLE_ELEMS elements."""
    fld = gm.shape.field
    k, n = gm.k, gm.n
    if k == 0:
        raise ValueError("minimum distance is undefined for a dimension-0 code")
    total = fld.q**k
    if total > cap:
        raise TooLargeError(f"q^k = {total} exceeds cap {cap}")
    sets = _information_sets(fld, gm.rows)
    # w = 0: a nonzero codeword is nonzero on each information set, which
    # lies wholly in the new columns when r_i = k
    lower = sum(r == k for _, r in sets)
    best = n + 1
    for w in range(1, k + 1):
        for gamma, r in sets:
            for words, _ in _level(fld, gamma, w, _TABLE_ELEMS):
                best = min(best, int(np.count_nonzero(words, axis=1).min()))
                if best <= lower:
                    return best
            lower += w >= k - r  # max(0, w + 1 - (k - r)) grew by one
            if best <= lower or w == k:
                return best


def code_params(gs: GeneratorSet, with_distance: bool = False,
                cap: int = DEFAULT_CAP) -> CodeParams:
    """Aggregate (n, k, q) and optionally d for the code of a GeneratorSet."""
    k = dimension(gs)
    d = None
    if with_distance and k > 0:
        d = min_distance(generator_matrix(gs), cap)
    return CodeParams(gs.shape.n, k, gs.shape.field.q, d)


# -- output formats (bit-exact across runs) ----------------------------------

def matrix_json_dict(gm: GeneratorMatrix) -> dict:
    return {"rows": gm.rows.tolist(),
            "labels": [list(lab) for lab in gm.labels]}


def matrix_text(gm: GeneratorMatrix) -> str:
    """One row per line, space-separated element encodings."""
    return "".join(" ".join(str(int(v)) for v in row) + "\n" for row in gm.rows)


def matrix_csv(gm: GeneratorMatrix) -> str:
    return "".join(",".join(str(int(v)) for v in row) + "\n" for row in gm.rows)
