import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_mul, gf_rem

from tdcyclic import GF, BoundsError, Field, default_modulus, field_descriptor, field_from_descriptor
from tdcyclic.gf import _is_prime


def prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if not _is_prime(p):
            continue
        m, q = 1, p
        while q <= limit:
            out.append((p, m))
            m += 1
            q *= p
    return out


@pytest.mark.parametrize("p,m", prime_powers(64))
def test_field_axioms_exhaustive(p, m):
    F = GF(p, m)
    q = F.q
    idx = np.arange(q, dtype=np.int64)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    # associativity and commutativity of both operations, distributivity
    assert (F.add_arrays(F.add_arrays(a, b), c) == F.add_arrays(a, F.add_arrays(b, c))).all()
    assert (F.mul_arrays(F.mul_arrays(a, b), c) == F.mul_arrays(a, F.mul_arrays(b, c))).all()
    ab = F.add_arrays(idx[:, None], idx[None, :])
    assert (ab == ab.T).all()
    mab = F.mul_arrays(idx[:, None], idx[None, :])
    assert (mab == mab.T).all()
    assert (F.mul_arrays(a, F.add_arrays(b, c))
            == F.add_arrays(F.mul_arrays(a, b), F.mul_arrays(a, c))).all()
    # identities and inverses
    for x in range(q):
        assert F.add(x, 0) == x
        assert F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1


@pytest.mark.parametrize("p,m", prime_powers(16))
def test_frobenius(p, m):
    F = GF(p, m)
    for a in range(F.q):
        for b in range(F.q):
            lhs = F.pow(F.add(a, b), p)
            rhs = F.add(F.pow(a, p), F.pow(b, p))
            assert lhs == rhs


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_make_wraps_modulo_q(p, m):
    F = GF(p, m)
    for n in range(2 * F.q):
        assert F.make(n) == F.make(n % F.q)


def test_make_examples():
    assert GF(2).make(3) == 1
    assert GF(3).make(5) == 2
    F4 = GF(2, 2)  # modulus x^2 + x + 1
    assert F4.coords(F4.make(2)) == (0, 1)


def test_add_examples():
    assert GF(2).add(1, 1) == 0
    assert GF(3).add(2, 2) == 1
    assert GF(2, 2).add(2, 2) == 0


def test_mul_examples():
    assert GF(3).mul(2, 2) == 1
    # alpha * alpha = alpha + 1 under x^2 + x + 1
    assert GF(2, 2).mul(2, 2) == 3
    for F in (GF(2), GF(5), GF(2, 3)):
        for a in range(F.q):
            assert F.mul(a, 1) == a


def test_inv_examples():
    assert GF(3).inv(2) == 2
    assert GF(5).inv(3) == 2
    assert GF(2, 2).inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


def test_enumerate_order():
    assert GF(2).elements() == [0, 1]
    assert GF(3).elements() == [0, 1, 2]
    assert GF(2, 2).elements() == [0, 1, 2, 3]


def test_default_moduli():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)
    assert default_modulus(3, 2) == (1, 0, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)


def test_construction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Field(4)  # not prime
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError, match="reducible"):
        Field(2, 4, modulus=[1, 0, 1, 0, 1])  # (x^2 + x + 1)^2: no linear factor
    with pytest.raises(ValueError, match="reducible"):
        Field(5, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x + 2)(x + 3) over GF(5)
    with pytest.raises(ValueError):
        Field(2, 2, modulus=[1, 1, 2])  # reduces to non-monic
    with pytest.raises(ValueError):
        Field(2, 2, modulus=[1, 1])  # wrong length
    with pytest.raises(ValueError):
        Field(5, modulus=[1, 1])  # modulus with m == 1
    with pytest.raises(BoundsError):
        Field(2, 17)  # 2^17 > 2^16


def test_coords_roundtrip():
    F = GF(3, 2)
    for a in range(F.q):
        assert F.from_coords(F.coords(a)) == a


def test_descriptor_roundtrip():
    for F in (GF(2), GF(3), GF(2, 2), GF(3, 2)):
        d = field_descriptor(F)
        assert field_from_descriptor(d) == F
    assert "modulus" not in field_descriptor(GF(5))
    assert field_descriptor(GF(2, 3))["modulus"] == [1, 1, 0, 1]


def test_field_equality_and_cache():
    assert GF(2, 2) is GF(2, 2)
    assert Field(2, 2) == Field(2, 2, modulus=[1, 1, 1])
    assert GF(2) != GF(3)


def test_array_ops_match_scalar_ops():
    rng = np.random.default_rng(7)
    for F in (GF(3), GF(3, 2), GF(2, 10, modulus=[1, 0, 0, 1] + [0] * 6 + [1]),
              GF(2, 16), GF(3, 6)):
        a = rng.integers(0, F.q, size=20)
        b = rng.integers(0, F.q, size=20)
        a[:2], b[1:3] = 0, 0  # zero against nonzero and against zero
        assert [F.add(int(x), int(y)) for x, y in zip(a, b)] == F.add_arrays(a, b).tolist()
        assert [F.neg(int(x)) for x in a] == F.neg_array(a).tolist()
        assert [F.mul(int(x), int(y)) for x, y in zip(a, b)] == F.mul_arrays(a, b).tolist()
        c = int(rng.integers(1, F.q))
        assert [F.mul(c, int(x)) for x in a] == F.scale_array(c, a).tolist()
        assert [F.sub(int(x), int(y)) for x, y in zip(a, b)] == F.sub_arrays(a, b).tolist()
        if F.m > 1:
            # scalar results reach json.dumps in the CLI: plain ints only
            x, y = int(a[5]), int(b[5])
            results = [F.add(x, y), F.neg(x), F.sub(x, y), F.mul(x, y), F.inv(c),
                       F.div(x, c), F.pow(x, 3), F.make(x)]
            assert all(type(r) is int for r in results), [type(r) for r in results]


def test_large_field_inverse():
    F = GF(2, 10, modulus=[1, 0, 0, 1] + [0] * 6 + [1])  # x^10 + x^3 + 1
    for a in (1, 2, 3, 577, 1023):
        assert F.mul(a, F.inv(a)) == 1


# -- differential check against sympy's GF(p)[x] arithmetic ----------------------

def _to_poly(F, a):
    """Encoding -> sympy dense polynomial over GF(p) (descending degree)."""
    return list(reversed(F.coords(a)))


def _from_poly(F, f):
    return F.from_coords(list(reversed(f)))


def _sympy_mul(F, a, b):
    mod = list(reversed(F.modulus))
    prod = gf_mul(_to_poly(F, a), _to_poly(F, b), F.p, ZZ)
    return _from_poly(F, gf_rem(prod, mod, F.p, ZZ))


@pytest.mark.parametrize("p,m", [(2, 8), (2, 9), (2, 16), (3, 6), (5, 4), (3, 10),
                                 (251, 2), (13, 4)])
def test_extension_field_products_match_sympy(p, m):
    F = GF(p, m)
    rng = np.random.default_rng(p * 100 + m)
    a = rng.integers(0, F.q, size=300)
    b = rng.integers(0, F.q, size=300)
    a[:3], b[2:5] = 0, 0
    want = [_sympy_mul(F, int(x), int(y)) for x, y in zip(a, b)]
    assert [F.mul(int(x), int(y)) for x, y in zip(a, b)] == want
    assert F.mul_arrays(a, b).tolist() == want
    for c in (0, 1, int(b[-1])):
        assert F.scale_array(c, a).tolist() == [_sympy_mul(F, c, int(x)) for x in a]
    for x in a[a != 0][:100]:
        assert _sympy_mul(F, int(x), F.inv(int(x))) == 1


def test_field_axioms_sampled_large_field():
    F = GF(3, 10)  # q = 59049
    rng = np.random.default_rng(11)
    a, b, c = (rng.integers(0, F.q, size=5000) for _ in range(3))
    a[:50], b[25:75] = 0, 0
    add, mul = F.add_arrays, F.mul_arrays
    assert (add(add(a, b), c) == add(a, add(b, c))).all()
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (add(a, b) == add(b, a)).all()
    assert (mul(a, b) == mul(b, a)).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
    assert (add(a, 0) == a).all() and (mul(a, 1) == a).all()
    assert (add(a, F.neg_array(a)) == 0).all()
    nz = a[a != 0]
    assert (mul(nz, [F.inv(int(x)) for x in nz]) == 1).all()


def _scalar_dot(F, c, rows, n):
    """sum_t c[t] * rows[t] by scalar mul and add, one entry at a time."""
    out = [0] * n
    for ct, row in zip(c, rows):
        out = [F.add(o, F.mul(ct, r)) for o, r in zip(out, row)]
    return out


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2), (2, 9), (3, 6), (3, 10)])
def test_dot_matches_scalar_loop(p, m):
    F = GF(p, m)
    rng = np.random.default_rng(p * 1000 + m)
    n = 7
    for k in (0, 1, 2, 5, 12):
        rows = rng.integers(0, F.q, size=(k, n))
        batch = rng.integers(0, F.q, size=(4, k))
        if k:
            rows[0, :3] = 0
            batch[0] = 0               # an all-zero coefficient vector
            batch[1, k // 2] = 0       # a zero coefficient among nonzeros
            batch[2, :] = F.q - 1
        got = F.dot(batch, rows)
        assert got.shape == (4, n) and got.dtype == np.int64
        want = [_scalar_dot(F, b.tolist(), rows.tolist(), n) for b in batch]
        assert got.tolist() == want
        for b, w in zip(batch, want):
            one = F.dot(b, rows)
            assert one.shape == (n,) and one.tolist() == w
