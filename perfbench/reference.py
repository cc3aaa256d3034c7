"""Reference kernels: fixed work that does not use the program under test.

A timed run interleaves its workload's kernel with the operations and
reports each operation's time as a multiple of the kernel time measured
around it (unit ``ref``).  On a shared machine the load of other tenants
slows the kernel and the operations alike, so the ratio stays put while
raw times drift by tens of percent over minutes.  Each kernel does the
kind of work its workload does (small Python objects, n x n elimination,
bulk array arithmetic, interpreter start-up) with code of its own, and
its inputs are fixed, so the kernel time does not depend on the program
or on the seed: a change that makes the program faster lowers the ratio
by the same share.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

_RNG = np.random.default_rng(20170427)
_POLYS = [[int(c) for c in _RNG.integers(0, 3, 6)] for _ in range(24)]
_SMALL = [_RNG.integers(0, 4, (4, 5)) for _ in range(24)]
_GF4_MUL = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.int64)
_ELIM = _RNG.integers(0, 2, (600, 300))
_BULK_ROWS = _RNG.integers(0, 2, (16, 36))
_BULK_ROWS4 = _RNG.integers(0, 4, (8, 36))


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def small_objects():
    """Like ``survey``: short lists and tiny arrays, many Python calls."""
    acc = 0
    for _ in range(120):
        for a, b in zip(_POLYS, _POLYS[1:]):
            acc += sum(_pmul(a, b, 3))
        for x, y in zip(_SMALL, _SMALL[1:]):
            z = _GF4_MUL[x, np.roll(y, 1, axis=1)]
            acc += int(np.count_nonzero((x + z) % 4))
            acc += len(np.nonzero(z[:, 0])[0])
    return acc


def elimination():
    """Like ``large``: row reduction of a fixed 0/1 matrix by whole-row
    numpy updates."""
    a = _ELIM.copy()
    r = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        a[others] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def bulk_arrays():
    """Like ``distance``: enumerate messages in chunks and take the least
    codeword weight, over GF(2) by arithmetic and GF(4) by table lookups."""
    rest = np.arange(1 << 13, dtype=np.int64)
    words = np.zeros((rest.size, 36), dtype=np.int64)
    for row in _BULK_ROWS:
        digit = rest % 2
        rest = rest // 2
        words = (words + digit[:, None] * row[None, :]) % 2
    best = int(np.count_nonzero(words, axis=1).min())
    rest = np.arange(1 << 13, dtype=np.int64)
    words = np.zeros((rest.size, 36), dtype=np.int64)
    for row in _BULK_ROWS4:
        digit = rest % 4
        rest = rest // 4
        words = words ^ _GF4_MUL[digit[:, None], row[None, :]]
    return min(best, int(np.count_nonzero(words, axis=1).min()))


def interpreter_start(env, cwd):
    """Like ``cli``: start an interpreter that imports numpy, and wait."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   check=True, capture_output=True, timeout=60)
