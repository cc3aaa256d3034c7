import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcyclic import CODEWORD, GF, INTERNAL, BiPoly, BoundsError, CyclicPoly, RingShape, ring2d


def shape22():
    return RingShape(GF(2), 2, 2)


def test_coord_refuses_a_layer_index_out_of_range():
    """coord(j) takes j in [0, ell), as layer_generator does: -1 no longer
    wraps to the y^(ell-1) coordinate."""
    e = BiPoly(shape22(), [[1, 0], [1, 1]])
    assert [c.coeffs for c in e.coords()] == [(1, 1), (0, 1)]
    for j in (-1, 2):
        with pytest.raises(IndexError, match=rf"^layer index {j} out of range \[0, 2\)$"):
            e.coord(j)


def test_array_coords_bijection():
    sh = shape22()
    e = BiPoly(sh, [[1, 0], [1, 0]])
    assert e.coord(0) == CyclicPoly(GF(2), [1, 1])
    assert e.coord(1).is_zero
    assert BiPoly(sh, [[0, 1], [0, 1]]).coord(1) == CyclicPoly(GF(2), [1, 1])
    assert BiPoly.zero(sh).is_zero
    rng = random.Random(3)
    for _ in range(50):
        arr = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
        e = BiPoly(sh, arr)
        assert e.to_array().tolist() == arr
        assert BiPoly.from_coords(sh, e.coords()) == e


def test_dimension_mismatch():
    sh = shape22()
    with pytest.raises(ValueError):
        BiPoly(sh, [[1, 0, 0], [0, 0, 0]])


def test_from_coords_refuses_a_coordinate_that_is_not_a_residue():
    with pytest.raises(ValueError, match="^coordinate does not match the ring shape$"):
        BiPoly.from_coords(shape22(), [[1, 0], [0, 1]])


def test_linear_ops():
    sh = shape22()
    rng = random.Random(9)
    for _ in range(20):
        a = BiPoly(sh, [[rng.randrange(2) for _ in range(2)] for _ in range(2)])
        assert a + BiPoly.zero(sh) == a
        assert (a + a).is_zero  # characteristic 2
    sh3 = RingShape(GF(3), 2, 2)
    a = BiPoly(sh3, [[1, 2], [0, 1]])
    assert (a.scale(2) + a).is_zero


def test_shift_examples():
    sh = shape22()
    e = BiPoly.from_coords(sh, [CyclicPoly.one(GF(2), 2), CyclicPoly.zero(GF(2), 2)])
    assert e.shift_y().coord(0).is_zero and e.shift_y().coord(1) == CyclicPoly.one(GF(2), 2)
    onex = BiPoly(sh, [[1, 0], [1, 0]])
    assert onex.shift_x() == onex  # x(1+x) = x + x^2 = 1 + x when s = 2
    for t in range(3):
        assert onex.shift_y(sh.ell * t) == onex


@pytest.mark.parametrize("s,ell", [(1, 1), (2, 2), (3, 2), (3, 3)])
def test_shifts_are_monomial_multiplications(s, ell):
    sh = RingShape(GF(2), s, ell)
    xa = np.zeros((s, ell), dtype=int)
    xa[1 % s, 0] = 1
    x_mono = BiPoly(sh, xa)
    ya = np.zeros((s, ell), dtype=int)
    ya[0, 1 % ell] = 1
    y_mono = BiPoly(sh, ya)
    for bits in itertools.product(range(2), repeat=s * ell):
        a = BiPoly.from_vector(sh, np.array(bits), CODEWORD)
        assert a.shift_x() == a * x_mono
        assert a.shift_y() == a * y_mono
        assert a.shift_x(s) == a
        assert a.shift_y(ell) == a


@st.composite
def _shift_image_cases(draw):
    fld = draw(st.sampled_from([GF(2), GF(3), GF(2, 2)]))
    s, ell = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    arr = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, fld.q, lead + (s, ell))
    count = draw(st.integers(0, 4))
    exps = st.lists(st.integers(-20, 20), min_size=count, max_size=count)
    return arr, np.array(draw(exps), dtype=np.int64), np.array(draw(exps), dtype=np.int64)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_shift_image_cases())
def test_shift_images_are_the_rolled_arrays(case):
    """Image t of shift_images is arr rolled by a[t] rows and b[t]
    columns, under any leading stack axes, for negative exponents and
    exponents past s or ell, and there are no images when T = 0."""
    arr, a, b = case
    images = ring2d.shift_images(arr, a, b)
    assert images.shape == arr.shape[:-2] + (len(a),) + arr.shape[-2:]
    for t in range(len(a)):
        rolled = np.roll(np.roll(arr, a[t], axis=-2), b[t], axis=-1)
        assert np.array_equal(images[..., t, :, :], rolled)


def test_mul_commutative_associative_random():
    rng = random.Random(17)
    for q in (2, 3):
        for _ in range(30):
            s, ell = rng.randint(1, 4), rng.randint(1, 4)
            sh = RingShape(GF(q), s, ell)
            elems = [BiPoly(sh, [[rng.randrange(q) for _ in range(ell)] for _ in range(s)])
                     for _ in range(3)]
            a, b, c = elems
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * BiPoly.one(sh) == a


def test_one_plus_y_squared_is_zero():
    # (1+y)^2 = 1 + 2y + y^2 = 0 over GF(2) with y^2 = 1
    sh = shape22()
    e = BiPoly(sh, [[1, 1], [0, 0]])
    prod = e * e
    # hand convolution oracle over y with s-coordinate products
    F = GF(2)
    coords = e.coords()
    expect = [CyclicPoly.zero(F, 2), CyclicPoly.zero(F, 2)]
    for i in range(2):
        for j in range(2):
            expect[(i + j) % 2] = expect[(i + j) % 2] + coords[i] * coords[j]
    assert prod == BiPoly.from_coords(sh, expect)
    assert prod.is_zero


def test_vectorize_orders():
    sh = shape22()
    e = BiPoly(sh, [[1, 0], [1, 0]])  # coords [1+x, 0]
    assert e.to_vector(INTERNAL).tolist() == [1, 1, 0, 0]
    assert e.to_vector(CODEWORD).tolist() == [1, 0, 1, 0]
    e2 = BiPoly(sh, [[0, 1], [0, 1]])
    assert e2.to_vector(INTERNAL).tolist() == [0, 0, 1, 1]
    assert e2.to_vector(CODEWORD).tolist() == [0, 1, 0, 1]
    z = BiPoly.zero(sh)
    assert z.to_vector(INTERNAL).tolist() == [0, 0, 0, 0]
    rng = random.Random(23)
    for _ in range(50):
        s, ell = rng.randint(1, 5), rng.randint(1, 5)
        shp = RingShape(GF(3), s, ell)
        a = BiPoly(shp, [[rng.randrange(3) for _ in range(ell)] for _ in range(s)])
        for order in (INTERNAL, CODEWORD):
            assert BiPoly.from_vector(shp, a.to_vector(order), order) == a
    with pytest.raises(ValueError):
        e.to_vector("diagonal")
    with pytest.raises(ValueError):
        BiPoly.from_vector(sh, [1, 0, 0], CODEWORD)
    with pytest.raises(ValueError, match="unknown flattening order 'diagonal'"):
        BiPoly.from_vector(sh, [1, 0, 0, 0], "diagonal")


@pytest.mark.parametrize("p, m", [(3, 1), (2, 2), (3, 2)])
def test_negation_truth_and_hash(p, m):
    """-a is the cellwise field negation, an element is true iff some cell
    is nonzero, and equal elements hash equal."""
    F = GF(p, m)
    sh = RingShape(F, 3, 2)
    rng = random.Random(29)
    for _ in range(30):
        arr = [[rng.randrange(F.q) if rng.random() < 0.5 else 0 for _ in range(2)]
               for _ in range(3)]
        a = BiPoly(sh, arr)
        assert (-a).arr.tolist() == [[F.neg(c) for c in row] for row in arr]
        assert (a + -a).is_zero
        assert bool(a) == any(c for row in arr for c in row)
        twin = BiPoly(sh, [list(row) for row in arr])
        assert twin is not a and hash(twin) == hash(a) and len({a, twin}) == 1
    assert not BiPoly.zero(sh) and BiPoly.one(sh)


def test_scalar_multiplication_via_cyclic():
    sh = RingShape(GF(2), 2, 2)
    onex = BiPoly(sh, [[1, 0], [1, 0]])
    y_shift = onex * CyclicPoly(GF(2), [0, 1])  # multiply by x
    assert y_shift == onex.shift_x()


def test_shape_bounds():
    with pytest.raises(BoundsError):
        RingShape(GF(2), 1 << 9, 1 << 9)
    with pytest.raises(ValueError):
        RingShape(GF(2), 0, 3)


PRODUCT_FIELDS = [GF(2), GF(3), GF(2, 2), GF(2, 3), GF(3, 2), GF(2, 9)]


def schoolbook(a: BiPoly, b: BiPoly) -> list[list[int]]:
    """Reference ring product by scalar field ops: a[i1][j1] * b[i2][j2]
    lands in cell ((i1 + i2) % s, (j1 + j2) % ell)."""
    f, s, ell = a.shape.field, a.shape.s, a.shape.ell
    A, B = a.arr.tolist(), b.arr.tolist()
    out = [[0] * ell for _ in range(s)]
    for i1, j1, i2, j2 in itertools.product(range(s), range(ell), range(s), range(ell)):
        i, j = (i1 + i2) % s, (j1 + j2) % ell
        out[i][j] = f.add(out[i][j], f.mul(A[i1][j1], B[i2][j2]))
    return out


@st.composite
def _product_cases(draw):
    fld = draw(st.sampled_from(PRODUCT_FIELDS))
    s, ell = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    sh = RingShape(fld, s, ell)

    def entries(count):
        density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        return [rng.randrange(fld.q) if rng.random() < density else 0 for _ in range(count)]

    a = BiPoly(sh, np.reshape(entries(s * ell), (s, ell)))
    b = BiPoly(sh, np.reshape(entries(s * ell), (s, ell)))
    c = CyclicPoly(fld, entries(s))
    n = s * ell
    chunk = draw(st.sampled_from([1, n - 1, n + 1, 2 * n + 1, ring2d._GATHER_ELEMS]))
    return a, b, c, chunk


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_product_cases())
def test_product_matches_schoolbook(case):
    """BiPoly * BiPoly and BiPoly * CyclicPoly agree with a scalar
    schoolbook convolution, whatever the gather chunk size."""
    a, b, c, chunk = case
    sh = a.shape
    col = np.zeros((sh.s, sh.ell), dtype=np.int64)
    col[:, 0] = c.coeffs
    with mock.patch.object(ring2d, "_GATHER_ELEMS", chunk):
        assert (a * b).arr.tolist() == schoolbook(a, b)
        assert (b * a).arr.tolist() == schoolbook(a, b)
        assert (a * c).arr.tolist() == schoolbook(a, BiPoly(sh, col))
        assert c * a == a * c


def test_product_rejects_mismatched_factors():
    sh = RingShape(GF(2), 3, 2)
    a = BiPoly.one(sh)
    with pytest.raises(ValueError):
        a * CyclicPoly(GF(2), [1, 0])
    with pytest.raises(ValueError):
        a * CyclicPoly(GF(3), [1, 0, 0])
    with pytest.raises(ValueError):
        a * BiPoly.one(RingShape(GF(2), 2, 3))
    with pytest.raises(TypeError):
        a * 1.5
    assert a * 3 == a and 2 * a == BiPoly.zero(sh)


def test_product_memory_bounded_by_gather_chunk():
    # a dense 64 x 64 product sums 2^11 monomial shifts of 2^12 cells; one
    # gather of them all is 2^23 int64 entries (64 MB), while the chunked
    # gather holds at most _GATHER_ELEMS of them (4 MB) at a time
    sh = RingShape(GF(2), 64, 64)
    rng = np.random.default_rng(5)
    a, b = (BiPoly(sh, rng.integers(0, 2, (64, 64))) for _ in range(2))
    tracemalloc.start()
    try:
        a * b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * ring2d._GATHER_ELEMS


def test_product_at_256_by_256_finishes_in_subprocess():
    # a child process with a timeout turns a return of the quadratic
    # per-coordinate loop into a failure rather than a hang
    script = textwrap.dedent("""
        import numpy as np
        from tdcyclic import GF, BiPoly, CyclicPoly, RingShape
        sh = RingShape(GF(2), 256, 256)
        rng = np.random.default_rng(7)
        a = BiPoly(sh, rng.integers(0, 2, (256, 256)))
        c = CyclicPoly(sh.field, rng.integers(0, 2, 256).tolist())
        prod = a * c
        assert all(prod.coord(j) == a.coord(j) * c for j in (0, 101, 255))
        mono = np.zeros((256, 256), dtype=np.int64)
        mono[3, 5] = 1
        assert a * BiPoly(sh, mono) == a.shift_x(3).shift_y(5)
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
