"""Correctness checks on the program's outputs, run outside the timed region.

The checks use the benchmark's own array arithmetic (``workloads.add`` /
``scale`` / ``ring_mul``), the ``gf`` field kernels and the independent
``oracle`` elimination; none of them goes through the engine in
``ideal`` or the enumeration in ``codegen`` that they check.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from tdcyclic import oracle

from workloads import add, scale


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def combination(fld, gens, coeffs):
    """sum_j gens[j] * q_j, with q_j a polynomial in x acting on the rows."""
    total = np.zeros_like(np.asarray(gens[0]))
    for g, q in zip(gens, coeffs):
        for a, c in enumerate(q):
            if c:
                total = add(fld, total, scale(fld, int(c), np.roll(g, a, axis=0)))
    return total


def decomposition_holds(fld, gs, element, coeffs) -> bool:
    """The decomposition identity f = sum gens[j] * q_j."""
    gens = [g.arr for g in gs.gens]
    return np.array_equal(combination(fld, gens, coeffs), np.asarray(element) % fld.q)


def _degree(vec) -> int:
    nz = np.nonzero(vec)[0]
    return int(nz[-1]) if nz.size else -1


def canonical_layout(gs) -> bool:
    """Triangular, monic on the diagonal, and Hermite-reduced: generator j
    vanishes below layer j, has the layer generator as its y^j coordinate,
    and every higher coordinate i has degree below that of layer i."""
    for j, (g, layer) in enumerate(zip(gs.gens, gs.layers)):
        arr = g.arr
        if layer.is_zero:
            if arr.any():
                return False
            continue
        if arr[:, :j].any() or not np.array_equal(arr[:, j], layer.gen.coeffs):
            return False
        if _degree(arr[:, j]) != layer.deg or arr[layer.deg, j] != 1:
            return False
        for i in range(j + 1, arr.shape[1]):
            if not gs.layers[i].is_zero and _degree(arr[:, i]) >= gs.layers[i].deg:
                return False
    return True


def rank(fld, rows) -> int:
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return 0
    return oracle.reduced_span(fld, rows.shape[1], rows).shape[0]


def codewords(fld, rows, messages):
    """messages @ rows over the field (one codeword per message row)."""
    rows = np.asarray(rows, dtype=np.int64)
    if fld.m == 1:
        return (messages @ rows) % fld.p
    words = np.zeros((messages.shape[0], rows.shape[1]), dtype=np.int64)
    for t in range(rows.shape[0]):
        words = fld.add_arrays(words, fld.mul_arrays(messages[:, t:t + 1], rows[t][None, :]))
    return words


def all_messages(q, k):
    idx = np.arange(1, q**k, dtype=np.int64)
    return np.stack([(idx // q**t) % q for t in range(k)], axis=1)


def exact_min_weight(fld, rows) -> int:
    """Minimum weight over every nonzero codeword (small q^k only)."""
    k = np.asarray(rows).shape[0]
    weights = np.count_nonzero(codewords(fld, rows, all_messages(fld.q, k)), axis=1)
    return int(weights.min())


def weight_witness(fld, rows, d, seed, batch=4096, max_batches=1024) -> bool:
    """True when random messages reach a codeword of weight exactly d and
    none of lower nonzero weight.  Every codeword weight is at least d, and
    a minimum-weight word has its whole orbit under the 2D shifts and the
    nonzero scalars, so sampling meets one quickly."""
    rows = np.asarray(rows, dtype=np.int64)
    k = rows.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(max_batches):
        msgs = rng.integers(0, fld.q, size=(batch, k), dtype=np.int64)
        w = np.count_nonzero(codewords(fld, rows, msgs), axis=1)
        w = w[w > 0]
        if w.size and w.min() < d:
            return False
        if (w == d).any():
            return True
    return False


def closure_contains(shape, gens, element) -> bool:
    """Membership by the oracle's brute-force shift closure."""
    return oracle.bruteforce_ideal(shape, gens).contains_elem(element)


class Gate:
    """Checks outputs and collects failures as (operation index, message).

    ``expected`` maps an operation key to the digest recorded for it.  The
    first output for a key gets the full checks of its workload; a later
    one (a later pass over the same case) must have the same digest."""

    def __init__(self, expected):
        self.expected = expected
        self.first: dict[str, str] = {}
        self.failures: list[tuple[int, str]] = []
        self.failed_ops: set[int] = set()

    def observe(self, work, op: int, case, out):
        key = str(work.key(case))
        if isinstance(out, Exception):
            self.check(op, False, f"{key}: raised {out!r}")
            return
        dig = work.digest(out)
        if key in self.first:
            self.check(op, dig == self.first[key], f"{key}: output differs between passes")
            return
        self.first[key] = dig
        try:
            work.check(self, op, case, out)
        except Exception as exc:  # a check that cannot run is a failed check
            self.check(op, False, f"{key}: check raised {exc!r}")
        want = self.expected.get(key)
        if want is not None:
            self.check(op, dig == want, f"{key}: output differs from the recorded one")

    def check(self, op: int, ok: bool, what: str):
        if not ok:
            self.failures.append((op, what))
            self.failed_ops.add(op)
