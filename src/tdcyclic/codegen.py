"""Generator matrices, encoding, and code parameters.

The rows of the generator matrix are the codeword flattenings of
x^a * gens[j] for every nonzero layer j and 0 <= a < s - deg(layer j),
in (layer, shift) order; they form an F-basis of the code, so the
dimension is the sum of s - deg over the layers.

Minimum distance is exhaustive enumeration of the q^k codewords under a
hard cap, desk scale only.  The first rows of the matrix are expanded
once into a span table of all their combinations, as many rows as keep
the table within ``_TABLE_ELEMS`` entries; every combination of the
remaining rows is then added to the whole table at once.  Each codeword
costs one field addition per coordinate, and the working set is a few
table-sized arrays over every field, however long the code is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError
from .ideal import GeneratorSet
from .ring2d import CODEWORD, RingShape

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
    rows = []
    labels = []
    for L in gs.layers:
        if L.is_zero:
            continue
        base = gs.gens[L.index]
        for a in range(shape.s - L.deg):
            rows.append(base.shift_x(a).to_vector(CODEWORD))
            labels.append((L.index, a))
    mat = np.stack(rows) if rows else np.zeros((0, shape.n), dtype=np.int64)
    mat.setflags(write=False)
    return GeneratorMatrix(shape, mat, tuple(labels))


def encode(gm: GeneratorMatrix, msg) -> np.ndarray:
    """F-linear combination of the rows by a length-k message vector."""
    fld = gm.shape.field
    m = np.asarray(msg, dtype=np.int64)
    if m.shape != (gm.k,):
        raise ValueError(f"message length {m.size} != k = {gm.k}")
    out = np.zeros(gm.n, dtype=np.int64)
    for t in range(gm.k):
        c = fld.make(int(m[t]))
        if c:
            out = fld.add_arrays(out, fld.scale_array(c, gm.rows[t]))
    return out


def _span_table(fld, rows: np.ndarray) -> np.ndarray:
    """All q^len(rows) F-combinations of rows, one per table row; row 0 is
    the zero word.  Built by doubling: table = [table; table + c*row ...]."""
    table = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for row in rows:
        multiples = fld.mul_arrays(np.arange(1, fld.q, dtype=np.int64)[:, None, None], row)
        table = np.concatenate([table, fld.add_arrays(multiples, table).reshape(-1, row.size)])
    return table


def _offsets(fld, rows: np.ndarray, base: np.ndarray):
    """Yield base + every F-combination of rows, base itself first; each is
    one scaled-row add from its parent."""
    if len(rows) == 0:
        yield base
        return
    yield from _offsets(fld, rows[1:], base)
    for c in range(1, fld.q):
        yield from _offsets(fld, rows[1:], fld.add_arrays(base, fld.scale_array(c, rows[0])))


def min_distance(gm: GeneratorMatrix, cap: int = DEFAULT_CAP) -> int:
    """Minimum Hamming weight over the codewords of all q^k - 1 nonzero
    messages, by exhaustive enumeration; returns early at weight 1.

    The first t rows go into a span table of q^t codewords, t as large as
    keeps q^t * n within _TABLE_ELEMS.  Each combination of the other k - t
    rows is added to the whole table in one field addition, so memory stays
    at a few table-sized arrays whatever n is."""
    fld = gm.shape.field
    k, n = gm.k, gm.n
    if k == 0:
        raise ValueError("minimum distance is undefined for a dimension-0 code")
    total = fld.q**k
    if total > cap:
        raise TooLargeError(f"q^k = {total} exceeds cap {cap}")
    t = k
    while t > 0 and fld.q**t * n > _TABLE_ELEMS:
        t -= 1
    table = _span_table(fld, gm.rows[:t])
    best = int(np.count_nonzero(table[1:], axis=1).min()) if t else n + 1
    offsets = _offsets(fld, gm.rows[t:], np.zeros(n, dtype=np.int64))
    next(offsets)  # the zero offset: the table itself, done above
    for offset in offsets:
        if best == 1:
            break
        best = min(best, int(np.count_nonzero(fld.add_arrays(table, offset), axis=1).min()))
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
