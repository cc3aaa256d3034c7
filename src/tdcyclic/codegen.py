"""Generator matrices, encoding, and code parameters.

The rows of the generator matrix are the codeword flattenings of
x^a * gens[j] for every nonzero layer j and 0 <= a < s - deg(layer j),
in (layer, shift) order; they form an F-basis of the code, so the
dimension is the sum of s - deg over the layers.

Minimum distance is the Brouwer-Zimmermann information-set search
(Zimmermann 1996; Grassl 2006), under a hard cap on q^k, desk scale only,
on a systematic form of the code on one information set I.  For a
GeneratorSet read off a basis the engine spanned, that form is the
ideal's reduced echelon basis, whose pivots, the leading cells, are I:
``code_params`` searches it as it stands, in INTERNAL order (weights do
not depend on column order), with no generator matrix and no second
elimination.  ``min_distance`` eliminates the matrix it is given in
natural column order.  Messages of weight w = 1, 2, ... are encoded,
which lowers an upper bound on d, while every codeword not yet seen
weighs more than w on I, which raises a lower bound; the search stops
when the bounds meet.  A code of the ring is closed under the s*ell
shifts x^a y^b, and one shift takes any cell to any other, so averaged
over the shifts a codeword of weight t has k*t/n cells on I: some shift
of it, of the same weight, is seen by level k*t/n.  So after level w the
lower bound is ceil(n (w + 1) / k), not w + 1 (the automorphism
refinement of Grassl 2006, by averaging).  An ideal's basis is closed by
construction; the rows of a given matrix are tested, and only once the
bound w + 1 falls short: rows that are not closed keep w + 1.

Each weight level is grown from the one below, rebuilt from weight 1 at
half the budget, by adding one scaled row, in chunks of at most
``_GATHER_ELEMS`` entries, the chunk budget the ring's products use too.
The levels in flight share under two budgets and one addition's
temporaries take at most one more, so the working set stays three
chunk-sized arrays over every field, however long the code is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import TooLargeError
from .ideal import GeneratorSet, _rref
from .polyring import _integer
from .ring2d import _GATHER_ELEMS, RingShape, _Value, shift_images

DEFAULT_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class GeneratorMatrix(_Value):
    """k x (s*ell) matrix over the field in codeword (row-major) order,
    with a (layer, x-shift) label per row.  A frozen value (``_Value``):
    ``labels`` is a tuple of tuples, so k cannot drift from the rows, and
    ``rows`` a read-only (len(labels), n) array."""

    shape: RingShape
    rows: np.ndarray
    labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(tuple, self.labels)))
        self._freeze("rows", (len(self.labels), self.shape.n))

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
    counts = [0 if L.is_zero else shape.s - L.deg for L in gs.layers]  # rows per layer
    labels = tuple((L.index, a) for L, c in zip(gs.layers, counts) for a in range(c))
    # row (j, a) is x^a * gens[j], image (j, a) of one gather of at most n^2 entries
    a = np.arange(max(counts))
    images = shift_images(np.stack([g.arr for g in gs.gens]), a, 0 * a)
    rows = images[a < np.array(counts)[:, None]]  # in label order: layer-major, then a
    return GeneratorMatrix(shape, rows.reshape(-1, shape.n), labels)


def encode(gm: GeneratorMatrix, msg) -> np.ndarray:
    """F-linear combination of the rows by a length-k message vector."""
    fld = gm.shape.field
    m = fld.make_array(msg)
    if m.shape != (gm.k,):
        raise ValueError(f"message of shape {m.shape} does not match (k,) = ({gm.k},)")
    return fld.dot(m, gm.rows)


def _shift_closed(shape: RingShape, gamma: np.ndarray, pivots) -> bool:
    """Whether the row space of gamma, whose pivot columns hold the
    identity, is closed under the shifts x^a y^b.

    Closure is tested on the one-step x- and y-shifts of the rows, which
    generate every shift: each shifted row must reduce to zero against
    gamma.  The rows are shifted and reduced in chunks whose products fit
    the _GATHER_ELEMS budget."""
    fld, s, ell, n = shape.field, shape.s, shape.ell, shape.n
    k = len(pivots)
    step = max(1, _GATHER_ELEMS // (2 * k * n))
    for a in range(0, k, step):
        rows = gamma[a:a + step].reshape(-1, s, ell)
        shifted = shift_images(rows, np.array([1, 0]), np.array([0, 1])).reshape(-1, n)
        if fld.sub_arrays(shifted, fld.dot(shifted[:, pivots], gamma)).any():
            return False
    return True


def _level(fld, rows: np.ndarray, w: int, budget: int):
    """Yield chunks (words, last) covering the codewords of every message
    of Hamming weight w whose first nonzero coefficient is 1; last[i] is
    the index of the last nonzero coefficient of the message of words[i],
    nondecreasing within a chunk.

    A weight-w message with last index t is a weight-(w-1) message with
    last index below t plus c * rows[t], c != 0, so one loop grows level w
    from the chunks of _level(w - 1), rebuilt with half the budget, so all
    levels in flight together stay within twice the budget.  A chunk holds
    at most max(budget, n) elements.  A chunk of level w >= 2 is a view of
    one buffer, no larger than the level, which is reused until the level
    ends: a chunk is valid until the next one is requested."""
    k, n = rows.shape
    step = max(1, budget // n)
    if w == 1:
        for a in range(0, k, step):
            yield rows[a:a + step], np.arange(a, min(a + step, k))
        return
    step = min(step, comb(k, w) * (fld.q - 1) ** (w - 1))
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
    Brouwer-Zimmermann search on one information set.

    The rows are put in systematic form gamma on their pivots I, k of
    them for rank k, eliminated in natural column order, so a message's
    weight is its codeword's weight on I.  ``code_params`` of a set the
    engine read off a basis it spanned skips this elimination and the
    closure test: it searches that reduced basis as it stands.
    Level w encodes every message of weight w, up to a scalar, and the
    least weight seen, best, bounds d from above.  After level w every
    codeword not yet seen has weight at least w + 1, and at least
    ceil(n (w + 1) / k) if the rows are closed under the n shifts x^a y^b:
    a codeword of weight t has a shift of weight t with at most k t / n
    cells on I, by averaging over the shifts.  The search returns best
    once best reaches the bound, in the middle of a level too, or after
    level k.

    The closure test runs only the first time a level ends with best above
    w + 1, so a code that w + 1 settles pays for none.  Rows that are not
    closed come only from a hand-built GeneratorMatrix; they keep w + 1.
    Each level comes from _level in chunks of at most _GATHER_ELEMS
    elements, grown from the levels below it at half the budget each, so
    the working set stays three arrays of _GATHER_ELEMS elements."""
    _check_cap(gm.shape.field, gm.k, cap)
    gamma, pivots = _rref(gm.rows.copy(), gm.shape.field, range(gm.n))  # gm.rows is read-only
    return _search(gm.shape.field, gamma, lambda: _shift_closed(gm.shape, gamma, pivots))


def _check_cap(fld, k: int, cap) -> None:
    cap = _integer(cap, "cap")
    total = fld.q**k
    if total > cap:
        raise TooLargeError(f"q^k = {total} exceeds cap {cap}")


def _search(fld, gamma: np.ndarray, closed) -> int:
    """The search of min_distance on gamma, k x n, systematic on k of its
    columns, in any column order.  ``closed()`` says whether the rows are
    closed under the shifts x^a y^b; it is asked at most once."""
    k, n = gamma.shape
    if k == 0:
        raise ValueError("minimum distance is undefined for a dimension-0 code")
    best, bound, averaging = n + 1, 1, None
    for w in range(1, k + 1):
        for words, last in _level(fld, gamma, w, _GATHER_ELEMS):
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
            if best <= bound:
                return best
        # the last chunk views its level's buffer: let it go before the next level allocates
        del words, last
        bound = w + 1
        if averaging is None and best > bound:
            averaging = closed()
        if averaging:
            bound = -(-n * bound // k)
        if best <= bound:
            return best
    return best


def code_params(gs: GeneratorSet, with_distance: bool = False,
                cap: int = DEFAULT_CAP) -> CodeParams:
    """Aggregate (n, k, q) and optionally d for the code of a GeneratorSet.

    A set the engine read off a basis it spanned (``gs.basis``) is
    searched on that reduced echelon basis as it stands: its pivots, the
    leading cells, are the information set, and its span is an ideal, so
    no generator matrix is built, nothing is eliminated again and no
    closure is tested.  Any other set, read off a caller's basis, built by
    hand or by ``dataclasses.replace``, goes through
    min_distance(generator_matrix(gs)).  d is the same either way: the
    search is exact on any information set."""
    cap = _integer(cap, "cap")
    shape = gs.shape
    k = dimension(gs)
    d = None
    if with_distance and k > 0:
        if gs.basis is None:
            d = min_distance(generator_matrix(gs), cap)
        else:
            _check_cap(shape.field, k, cap)
            d = _search(shape.field, gs.basis.matrix, lambda: True)
    return CodeParams(shape.n, k, shape.field.q, d)


# -- output formats (bit-exact across runs) ----------------------------------

def matrix_json_dict(gm: GeneratorMatrix) -> dict:
    return {"rows": gm.rows.tolist(),
            "labels": [list(lab) for lab in gm.labels]}


def matrix_text(gm: GeneratorMatrix) -> str:
    """One row per line, space-separated element encodings."""
    return "".join(" ".join(str(int(v)) for v in row) + "\n" for row in gm.rows)


def matrix_csv(gm: GeneratorMatrix) -> str:
    return "".join(",".join(str(int(v)) for v in row) + "\n" for row in gm.rows)
