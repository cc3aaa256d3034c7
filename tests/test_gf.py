import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_mul, gf_rem

from tdcyclic import (CODEWORD, GF, BiPoly, BoundsError, CyclicPoly, EchelonBasis, Field,
                      GeneratorMatrix, Poly, RingShape, code_params, cofactor, default_modulus,
                      divides_xs_minus_one, encode, extract_generators, field_descriptor,
                      field_from_descriptor, generator_matrix, layer_generator, min_distance,
                      reduced_span, span_basis, xs_minus_one)
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


# the entry points that read library values, each returning the value it
# read for v as the element in position 0
_VALUE_GATES = {
    "make": lambda F, v: F.make(v),
    "make_array": lambda F, v: F.make_array([v, 1])[0],
    "BiPoly": lambda F, v: BiPoly(RingShape(F, 1, 2), [[v, 1]]).arr[0, 0],
    "BiPoly.from_vector": lambda F, v: BiPoly.from_vector(RingShape(F, 1, 2), [v, 1],
                                                          CODEWORD).arr[0, 0],
    "GeneratorMatrix": lambda F, v: GeneratorMatrix(RingShape(F, 2, 1), [[v, 1]],
                                                    ((0, 0),)).rows[0, 0],
    "EchelonBasis": lambda F, v: EchelonBasis(RingShape(F, 1, 2), [[v, 1]], (0,)).matrix[0, 0],
    "encode": lambda F, v: encode(GeneratorMatrix(RingShape(F, 2, 1), [[1, 1]], ((0, 0),)),
                                  [v])[0],
    "oracle._raw_vectors": lambda F, v: reduced_span(F, 2, [[1, v]])[0, 1],
    "Poly": lambda F, v: Poly(F, [v, 1]).coeffs[0],
    "CyclicPoly": lambda F, v: CyclicPoly(F, [v, 1]).coeffs[0],
    "Poly.scale": lambda F, v: Poly.one(F).scale(v).coeffs[0],
    # the encoding is rebuilt by place value: from_coords has a gate of its own
    "Field.coords": lambda F, v: sum(d * F.p**k for k, d in enumerate(F.coords(v))),
}


@pytest.mark.parametrize("gate", sorted(_VALUE_GATES))
@pytest.mark.parametrize("value,read", [
    (5, 5), (np.int64(5), 5), (np.uint8(5), 5), (-1, -1),
    (True, 1), (np.bool_(True), 1),  # a bool is the integer it is in Python
    (2.0, None), (2.5, None), (np.float64(1.0), None), ("2", None), (None, None),
])
def test_library_values_must_be_integers(gate, value, read):
    """Every entry point takes an integer mod q and refuses any other value
    with ValueError, a float without a fraction and a numeral string too,
    instead of reading it as another element."""
    for F in (GF(3), GF(2, 2)):
        if read is None:
            with pytest.raises(ValueError):
                _VALUE_GATES[gate](F, value)
        else:
            assert _VALUE_GATES[gate](F, value) == read % F.q


# <1 + y> in the 1 x 2 binary ring: q^k = 2 and d = 2
_REPETITION = extract_generators(RingShape(GF(2), 1, 2), [BiPoly(RingShape(GF(2), 1, 2), [[1, 1]])])

# the unit ideal's basis in the 1 x 3 binary ring: one layer generator per j
_UNIT_1x3 = span_basis(RingShape(GF(2), 1, 3), [BiPoly.one(RingShape(GF(2), 1, 3))])

# the entry points that read field parameters, coordinates, ring sizes and
# distance caps, each returning the value it read for v, which stands for 2
_PARAMETER_GATES = {
    "GF p": lambda v: GF(v).p,
    "GF m": lambda v: GF(2, v).m,
    "GF modulus": lambda v: GF(3, 2, modulus=[v, v, 1]).modulus[0],  # x^2 + 2x + 2
    "Field p": lambda v: Field(v).p,
    "Field m": lambda v: Field(2, v).m,
    "Field modulus": lambda v: Field(3, 2, modulus=[v, v, 1]).modulus[0],
    "field_from_descriptor p": lambda v: field_from_descriptor({"p": v}).p,
    "field_from_descriptor m": lambda v: field_from_descriptor({"p": 2, "m": v}).m,
    "field_from_descriptor modulus":
        lambda v: field_from_descriptor({"p": 3, "m": 2, "modulus": [v, v, 1]}).modulus[0],
    "from_coords": lambda v: GF(3, 2).from_coords([v, 0]),
    "RingShape s": lambda v: RingShape(GF(2), v, 1).s,
    "RingShape ell": lambda v: RingShape(GF(2), 1, v).ell,
    "BiPoly.shift_x": lambda v: int(np.flatnonzero(BiPoly.one(RingShape(GF(2), 3, 3))
                                                   .shift_x(v).arr[:, 0])[0]),
    "BiPoly.shift_y": lambda v: int(np.flatnonzero(BiPoly.one(RingShape(GF(2), 3, 3))
                                                   .shift_y(v).arr[0])[0]),
    "CyclicPoly.shift": lambda v: CyclicPoly(GF(2), [1, 0, 0]).shift(v).coeffs.index(1),
    "xs_minus_one s": lambda v: xs_minus_one(GF(3), v).degree,
    "cofactor s": lambda v: cofactor(Poly.one(GF(3)), v).degree,
    # 1 + True: x^2 - 1 divides x^v - 1
    "divides_xs_minus_one s": lambda v: 1 + divides_xs_minus_one(Poly(GF(3), [2, 0, 1]), v),
    "BiPoly.coord": lambda v: BiPoly(RingShape(GF(2), 3, 3), np.eye(3, dtype=np.int64))
                                     .coord(v).coeffs.index(1),
    "layer_generator": lambda v: layer_generator(_UNIT_1x3, v).index,
    "min_distance cap": lambda v: min_distance(generator_matrix(_REPETITION), cap=v),
    "code_params cap": lambda v: code_params(_REPETITION, with_distance=True, cap=v).d,
}


@pytest.mark.parametrize("gate", sorted(_PARAMETER_GATES))
@pytest.mark.parametrize("value,ok", [
    (2, True), (np.int64(2), True), (np.uint8(2), True),
    (2.0, False), (2.5, False), (np.float64(2.0), False), ("2", False), (None, False),
])
def test_library_parameters_must_be_integers(gate, value, ok):
    """Field parameters, modulus entries, coordinates, the ring's s and
    ell, the exponent of x^s - 1, layer indices and the distance search's
    cap follow make's rule: an integer, kept
    as a Python int, or else ValueError, instead of a float read as the
    integer it truncates to (GF(5.0) had q == 5.0, and
    GF(2, 2, modulus=[1.7, 1, 1]) was GF(4)) or compared as a float
    (code_params(gs, with_distance=True, cap=1e9) ran)."""
    if ok:
        got = _PARAMETER_GATES[gate](value)
        assert got == 2 and type(got) is int
    else:
        with pytest.raises(ValueError):
            _PARAMETER_GATES[gate](value)


def test_integer_modulus_entries_and_coordinates_reduce_mod_p():
    assert GF(2, 2, modulus=[3, -1, 1]) == GF(2, 2, modulus=[1, 1, 1])
    assert GF(2, 2).from_coords([3, True]) == 3
    assert GF(3).from_coords([-1]) == 2


def test_descriptor_without_p_is_refused():
    with pytest.raises(ValueError, match="no 'p'"):
        field_from_descriptor({})


def test_make_array_takes_integer_and_bool_arrays():
    F = GF(3)
    assert F.make_array(np.array([True, False])).tolist() == [1, 0]
    assert F.make_array(np.array([[7, -2]], dtype=np.int8)).tolist() == [[1, 1]]
    assert F.make_array([]).shape == (0,)
    assert F.make_array(np.array([2**63 + 1], dtype=np.uint64)).tolist() == [(2**63 + 1) % 3]
    out = F.make_array(np.array([4, 5]))
    assert out.dtype == np.int64 and out.tolist() == [1, 2]
    with pytest.raises(ValueError):
        F.make_array(np.array([1.0, 2.0]))


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


@pytest.mark.parametrize("p, m", [(5, 1), (2, 3), (3, 2)])
def test_pow_of_a_negative_exponent_is_the_inverse_power(p, m):
    F = GF(p, m)
    for a in range(1, F.q):
        for e in range(1, F.q + 1):
            assert F.pow(a, -e) == F.pow(F.inv(a), e)
            assert F.mul(F.pow(a, -e), F.pow(a, e)) == 1
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


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
    # GF(2) adds by XOR and multiplies by AND; GF(65521)'s products reach 2^32
    for F in (GF(3), GF(3, 2), GF(2, 10, modulus=[1, 0, 0, 1] + [0] * 6 + [1]),
              GF(2, 16), GF(3, 6), GF(2), GF(65521)):
        a = rng.integers(0, F.q, size=20)
        b = rng.integers(0, F.q, size=20)
        a[:2], b[1:3] = 0, 0  # zero against nonzero and against zero
        assert [F.add(int(x), int(y)) for x, y in zip(a, b)] == F.add_arrays(a, b).tolist()
        assert [F.neg(int(x)) for x in a] == F.neg_array(a).tolist()
        assert [F.mul(int(x), int(y)) for x, y in zip(a, b)] == F.mul_arrays(a, b).tolist()
        c = int(rng.integers(1, F.q))
        assert [F.mul(c, int(x)) for x in a] == F.scale_array(c, a).tolist()
        assert [F.sub(int(x), int(y)) for x, y in zip(a, b)] == F.sub_arrays(a, b).tolist()
        # the (k, 1) x (n,) and (k, 1) x (1, n) products, and the difference, that
        # _rref and the oracle's elimination take
        col, row, mat = a[:6], b[6:13], rng.integers(0, F.q, size=(6, 7))
        prod = [[F.mul(int(x), int(y)) for y in row] for x in col]
        assert F.mul_arrays(col[:, None], row).tolist() == prod
        assert F.mul_arrays(col[:, None], row[None, :]).tolist() == prod
        assert F.sub_arrays(mat, F.mul_arrays(col[:, None], row)).tolist() == [
            [F.sub(int(v), w) for v, w in zip(mrow, prow)] for mrow, prow in zip(mat, prod)]
        arrays = [F.add_arrays(a, b), F.neg_array(a), F.mul_arrays(a, b), F.scale_array(c, a),
                  F.sub_arrays(a, b), F.mul_arrays(col[:, None], row),
                  F.sub_arrays(mat, F.mul_arrays(col[:, None], row))]
        assert all(type(r) is np.ndarray and r.dtype == np.int64 for r in arrays)
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
