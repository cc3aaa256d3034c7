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
columns raises a lower bound; the search stops when the bounds meet.  A
code of the ring is closed under the s*ell shifts x^a y^b, which move
the coordinates transitively, so a shift image of the first information
set is an information set too, whose words are shifted copies of the
first set's, of the same weights (the automorphism refinement of Grassl
2006).  Such images raise the lower bound but are never enumerated.  The
later sets form one greedy sequence: an echelon form on the unused
columns is computed only when no image takes as many new columns as a
set could, and taken only when it takes more than the best image.  Shift
closure is tested on the rows, not assumed: rows that are not closed get
echelon sets only.

The search does only the work its bounds use, and works both bounds out
from each set's levels done.  The sets after the first are taken in one
pull, at the first level where one of them could raise the lower bound.
A set is enumerated only once its lower-bound term is positive, catching
up its lower levels then.  Each weight level is grown from the one below
by adding one scaled row, in chunks of at most ``_GATHER_ELEMS`` entries,
the chunk budget the ring's products use too.  A set keeps its last level
when that level came in one chunk, and rebuilds it from weight 1
otherwise.  Kept words count against the same budget, so the working set
stays a few chunk-sized arrays over every field, however long the code is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import TooLargeError
from .ideal import GeneratorSet, _rref
from .ring2d import _GATHER_ELEMS, RingShape, shift_source

DEFAULT_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """k x (s*ell) matrix over the field in codeword (row-major) order,
    with a (layer, x-shift) label per row.  The rows must have shape
    (len(labels), n); their entries are taken mod q into a read-only copy."""

    shape: RingShape
    rows: np.ndarray
    labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.shape != (len(self.labels), self.shape.n):
            raise ValueError(f"rows of shape {rows.shape} do not match "
                             f"(len(labels), n) = ({len(self.labels)}, {self.shape.n})")
        rows = rows % self.shape.field.q
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

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
    return GeneratorMatrix(shape, mat, labels)


def encode(gm: GeneratorMatrix, msg) -> np.ndarray:
    """F-linear combination of the rows by a length-k message vector."""
    fld = gm.shape.field
    m = np.asarray(msg, dtype=np.int64)
    if m.shape != (gm.k,):
        raise ValueError(f"message length {m.size} != k = {gm.k}")
    return fld.dot(m % fld.q, gm.rows)


def _shift_images(shape: RingShape, gamma: np.ndarray, pivots) -> np.ndarray | None:
    """The columns of the pivot set I under every shift x^a y^b, one
    (s*ell, k) row per shift, if the row space of gamma is closed under
    shifts; None if it is not.

    Closure is tested on the one-step x- and y-shifts of the rows, which
    generate every shift: each shifted row must reduce to zero against
    gamma, whose columns I hold the identity.  The rows are shifted and
    reduced in chunks whose products fit the _GATHER_ELEMS budget."""
    fld, s, ell, n = shape.field, shape.s, shape.ell, shape.n
    k = len(pivots)
    cells = np.arange(n).reshape(s, ell)
    # column c of a shifted row comes from column src[c]
    src = np.concatenate([cells[shift_source(s, [1])[0]].ravel(),
                          cells[:, shift_source(ell, [1])[0]].ravel()])
    step = max(1, _GATHER_ELEMS // (2 * k * n))
    for a in range(0, k, step):
        shifted = gamma[a:a + step, src].reshape(-1, n)
        if fld.sub_arrays(shifted, fld.dot(shifted[:, pivots], gamma)).any():
            return None
    # x^-a y^-b takes cell (i, j) to ((i - a) % s, (j - b) % ell)
    i, j = np.divmod(np.asarray(pivots), ell)
    rows_i = shift_source(s, np.arange(s))[:, i]
    cols_j = shift_source(ell, np.arange(ell))[:, j]
    return (rows_i[:, None] * ell + cols_j[None, :]).reshape(-1, k)


def _information_sets(shape: RingShape, rows: np.ndarray):
    """Yield information sets (gamma_i, r_i) of the row space of rows, one
    at a time as they are found.  Set i takes r_i new columns that no
    earlier set took, so the new columns of different sets are disjoint.

    The first set is the reduced echelon form gamma_1 with its pivots I
    sought in column order, r_1 = k.  An echelon set is the echelon form
    with the unused columns sought first.  If the rows are closed under
    the shifts x^a y^b, as every code of the ring is, each shift image
    sigma(I) is an information set too, whose words are the sigma-images
    of gamma_1's; it is yielded as (None, r_i).  Each later set is the
    image with the most new columns if it takes min(k, unused columns),
    the most any set can take.  Otherwise the echelon set is computed,
    and taken if it takes strictly more new columns than that image; the
    image is taken if not.  Rows that are not closed get echelon sets
    only.

    No set is sought once no row is nonzero on an unused column, so no
    elimination comes back without a new column.  Shift-closed rows have
    no zero column, since the shifts move the columns transitively, so
    for them that is when every column is used."""
    fld = shape.field
    k, n = rows.shape

    def echelon(used):
        gamma, pivots = _rref(rows, fld, np.argsort(used, kind="stable"))  # unused first
        return gamma, [c for c in pivots if not used[c]]

    used = np.zeros(n, dtype=bool)
    gamma, pivots = echelon(used)
    used[pivots] = True
    yield gamma, len(pivots)
    images = _shift_images(shape, gamma, pivots)
    while rows[:, ~used].any():
        taken, new = None, []
        if images is not None:
            fresh = ~used[images]
            best = int(fresh.sum(axis=1).argmax())
            new = images[best][fresh[best]]
        if len(new) < min(k, np.count_nonzero(~used)):
            echelon_gamma, echelon_new = echelon(used)
            if len(echelon_new) > len(new):
                taken, new = echelon_gamma, echelon_new
        used[new] = True
        yield taken, len(new)


def _level(fld, rows: np.ndarray, w: int, budget: int, below=None):
    """Yield chunks (words, last) covering the codewords of every message
    of Hamming weight w whose first nonzero coefficient is 1; last[i] is
    the index of the last nonzero coefficient of the message of words[i],
    nondecreasing within a chunk.

    A weight-w message with last index t is a weight-(w-1) message with
    last index below t plus c * rows[t], c != 0, so one loop grows level w
    from the chunks of level w - 1: `below`, each of at most budget
    elements (min_distance passes a level that came in one such chunk),
    or else _level(w - 1) rebuilt with half the budget, so all levels in
    flight together stay within twice the budget.  A chunk holds at most
    max(budget, n) elements.  A chunk of level w >= 2 is a view of one
    buffer, no larger than the level, which is reused until the level
    ends: a chunk is valid until the next one is requested, and the last
    one stays valid."""
    k, n = rows.shape
    step = max(1, budget // n)
    if w == 1:
        for a in range(0, k, step):
            yield rows[a:a + step], np.arange(a, min(a + step, k))
        return
    if below is None:
        below = _level(fld, rows, w - 1, budget // 2)
    step = min(step, comb(k, w) * (fld.q - 1) ** (w - 1))
    out = np.empty((step, n), dtype=np.int64)
    out_last = np.empty(step, dtype=np.int64)
    for words, last in below:
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

    The row space, of dimension k (the rank of the rows), is put in
    systematic form on a sequence of information sets, each taking new
    columns first (r_i new columns for gamma_i); see _information_sets.
    For w = 1, 2, ... every message of weight w, up to a scalar, is
    encoded by gamma_i, and the least weight seen is an upper bound on d.
    Once set i has encoded every level up to w, a codeword not yet seen
    has weight above w on it, so at least w + 1 - (k - r_i) on its new
    columns; the sum of these terms over the sets is a lower bound,
    worked out afresh from each set's levels done.  The search stops when
    it reaches the upper bound, or at w = k, when the first set (r_1 = k)
    has encoded every message.  It does only the work its bounds use:

    - The later sets are taken in one pull, if d is not settled once the
      first set has done level w = max(1, k - min(k, n - k)): there a set
      with min(k, n - k) new columns, the most a later set can take,
      first has a positive term, and below it every later term is 0.  A
      shift image of the first set carries no gamma and is never
      enumerated: its words are shifted copies of the first set's, of
      the same weights, so its term follows the first set's levels done.
    - A set whose term max(0, w + 1 - (k - r_i)) is still 0 is not
      enumerated.  When w reaches k - r_i it catches up its lower levels
      first, and only then is its term counted.
    - Each set grows level w from its level w - 1, kept when _level gave
      it in one chunk of at most the set's budget; any other level is
      rebuilt by _level from weight 1.  A set's budget is _GATHER_ELEMS
      less the words the other sets keep, so the kept words never add up
      to more than _GATHER_ELEMS, a kept level fits the step of the level
      grown from it, and the working set stays a few arrays of
      _GATHER_ELEMS elements."""
    fld = gm.shape.field
    n = gm.n
    total = fld.q**gm.k
    if total > cap:
        raise TooLargeError(f"q^k = {total} exceeds cap {cap}")
    source = _information_sets(gm.shape, gm.rows)
    gamma, k = next(source)
    if k == 0:
        raise ValueError("minimum distance is undefined for a dimension-0 code")
    sets = [[gamma, k, 0, None]]  # enumerated: [gamma, r, levels done, kept level]
    images = []  # r of each shift image

    def lower():
        first = sets[0][2]
        return (sum(max(0, done + 1 - (k - r)) for _, r, done, _ in sets)
                + sum(max(0, first + 1 - (k - r)) for r in images))

    best = n + 1
    for w in range(1, k + 1):
        for entry in sets:  # sets pulled in this round are taken in it too
            gamma, r, done, kept = entry
            if w < k - r:  # deferred while its term is 0
                continue
            while done < w:  # catch up to level w
                bound = lower()
                if best <= bound:
                    return best
                done += 1
                budget = _GATHER_ELEMS - sum(other[3][0].size for other in sets
                                             if other is not entry and other[3] is not None)
                level = _level(fld, gamma, done, budget, None if kept is None else [kept])
                for chunks, (words, last) in enumerate(level, 1):
                    best = min(best, int(np.count_nonzero(words, axis=1).min()))
                    if best <= bound:
                        return best
                kept = (words, last) if chunks == 1 and words.size <= budget else None
                entry[2:] = done, kept
            if entry is sets[0] and w == max(1, k - min(k, n - k)) and best > lower():
                for later, r_later in source:
                    if later is None:
                        images.append(r_later)
                    else:
                        sets.append([later, r_later, 0, None])
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
