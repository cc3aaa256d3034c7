import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_div, gf_gcd, gf_gcdex, gf_mul, gf_quo, gf_rem

from tdcyclic import (GF, BiPoly, CyclicPoly, Poly, RingShape, cofactor, divides_xs_minus_one,
                      gcd, xgcd, xs_minus_one)


def all_polys(field, max_deg):
    for n in range(max_deg + 2):
        for coeffs in itertools.product(range(field.q), repeat=n):
            yield Poly(field, coeffs)


def test_canonical_form_and_degree():
    F = GF(3)
    assert Poly(F, [1, 2, 0, 0]).coeffs == (1, 2)
    z = Poly(F, [0, 0])
    assert z.is_zero and z.degree is None and z.lc == 0
    assert Poly(F, [0, 0, 2]).degree == 2


def test_add_mul_examples():
    F = GF(2)
    one_x = Poly(F, [1, 1])
    assert (one_x + one_x).is_zero
    assert one_x * one_x == Poly(F, [1, 0, 1])  # (1+x)^2 = 1 + x^2 in char 2
    assert (one_x * Poly.zero(F)).is_zero


def test_divmod_examples():
    F2, F3 = GF(2), GF(3)
    q, r = divmod(Poly(F2, [1, 0, 1]), Poly(F2, [1, 1]))
    assert q == Poly(F2, [1, 1]) and r.is_zero
    q, r = divmod(xs_minus_one(F3, 3), Poly(F3, [2, 1]))  # (x^3-1)/(x-1)
    assert q == Poly(F3, [1, 1, 1]) and r.is_zero
    q, r = divmod(Poly(F2, [0, 1]), Poly(F2, [1, 1]))  # x = (x+1) + 1
    assert q == Poly(F2, [1]) and r == Poly(F2, [1])


@pytest.mark.parametrize("q", [2, 3])
def test_division_invariant_exhaustive(q):
    F = GF(q)
    polys = list(all_polys(F, 4))
    for a in polys:
        for b in polys:
            if b.is_zero:
                continue
            quo, rem = divmod(a, b)
            assert quo * b + rem == a
            assert rem.is_zero or rem.degree < b.degree


def test_division_by_zero():
    F = GF(2)
    with pytest.raises(ZeroDivisionError):
        divmod(Poly(F, [1]), Poly.zero(F))


def test_gcd_examples():
    F2, F3 = GF(2), GF(3)
    assert gcd(Poly(F2, [1, 0, 1]), Poly(F2, [1, 1])) == Poly(F2, [1, 1])
    assert gcd(xs_minus_one(F3, 3), Poly(F3, [2, 1])) == Poly(F3, [2, 1])
    f = Poly(F3, [1, 2])  # lc 2: gcd(0, f) is the monic normalization
    assert gcd(Poly.zero(F3), f) == f.monic()
    assert gcd(Poly.zero(F2), Poly.zero(F2)).is_zero


def test_xgcd_examples():
    F2, F3 = GF(2), GF(3)
    g, u, v = xgcd(Poly(F2, [1, 1]), Poly(F2, [0, 1]))
    assert (g, u, v) == (Poly.one(F2), Poly.one(F2), Poly.one(F2))
    f = Poly(F3, [2, 1])
    assert xgcd(f, f) == (f, Poly.one(F3), Poly.zero(F3))
    f2 = Poly(F3, [1, 2])  # lc 2
    g, u, v = xgcd(f2, Poly.zero(F3))
    assert g == f2.monic() and u == Poly(F3, [2]) and v.is_zero


def test_xgcd_identity_random():
    rng = random.Random(11)
    for F in (GF(2), GF(3), GF(2, 2)):
        for _ in range(200):
            a = Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(0, 5))])
            b = Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(0, 5))])
            if a.is_zero and b.is_zero:
                continue
            g, u, v = xgcd(a, b)
            assert u * a + v * b == g
            assert g == gcd(a, b)
            if not a.is_zero:
                assert (a % g).is_zero
            if not b.is_zero:
                assert (b % g).is_zero


def test_residue_fold_and_lift():
    F = GF(2)
    assert CyclicPoly.from_poly(Poly(F, [0, 0, 1]), 2) == CyclicPoly(F, [1, 0])
    assert CyclicPoly.from_poly(Poly(F, [0, 1, 0, 1]), 3) == CyclicPoly(F, [1, 1, 0])
    assert CyclicPoly.zero(F, 4).lift().is_zero
    rng = random.Random(5)
    for _ in range(100):
        s = rng.randint(1, 6)
        e = CyclicPoly(F, [rng.randrange(2) for _ in range(s)])
        assert CyclicPoly.from_poly(e.lift(), s) == e


def test_residue_ring_ops():
    F = GF(2)
    x = CyclicPoly(F, [0, 1])
    one_x = CyclicPoly(F, [1, 1])
    assert one_x * x == one_x  # x^2 = 1 when s = 2
    assert CyclicPoly(F, [1, 0, 0, 0]).shift(1) == CyclicPoly(F, [0, 1, 0, 0])
    for s in (1, 2, 3):
        one = CyclicPoly.one(F, s)
        for bits in itertools.product(range(2), repeat=s):
            a = CyclicPoly(F, bits)
            assert a * one == a
            assert a.shift(s) == a


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_residue_neg_sub_scale_match_poly_arithmetic_mod_xs_minus_one(p, m):
    """Negation, difference and scalar multiple of residues given by
    representatives of degree up to 2s agree with the same Poly arithmetic
    reduced modulo x^s - 1 by division."""
    F = GF(p, m)
    rng = random.Random(71)
    for _ in range(60):
        s = rng.randint(1, 6)
        A, B = (Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(0, 2 * s))])
                for _ in range(2))
        a, b = CyclicPoly.from_poly(A, s), CyclicPoly.from_poly(B, s)
        mod = xs_minus_one(F, s)
        c = rng.randrange(F.q)
        assert (-a).lift() == -A % mod
        assert (a - b).lift() == (A - B) % mod
        assert a.scale(c).lift() == A.scale(c) % mod
        assert (a - b) + b == a and (a + -a).is_zero


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2)])
def test_scale_takes_any_integer_scalar(p, m):
    """Poly.scale and CyclicPoly.scale read an integer outside [0, q) as
    Field.make does, as BiPoly.scale does."""
    F = GF(p, m)
    coeffs = list(range(1, F.q))
    f, r = Poly(F, coeffs), CyclicPoly(F, coeffs)
    column = BiPoly(RingShape(F, len(coeffs), 1), [[a] for a in coeffs])
    for c in (F.q, F.q + 1, -F.q - 1):
        assert f.scale(c) == f.scale(F.make(c))
        assert r.scale(c) == r.scale(F.make(c))
        assert column.scale(c).arr[:, 0].tolist() == list(r.scale(c).coeffs)
        assert f.scale(c) == Poly(F, [F.mul(F.make(c), a) for a in coeffs])


@pytest.mark.parametrize("s", [1, 2, 3])
def test_residue_commutative_associative_exhaustive(s):
    F = GF(2)
    elems = [CyclicPoly(F, bits) for bits in itertools.product(range(2), repeat=s)]
    for a in elems:
        for b in elems:
            assert a * b == b * a
            for c in elems:
                assert (a * b) * c == a * (b * c)


def test_divisor_and_cofactor():
    F = GF(2)
    p = Poly(F, [1, 1])
    assert divides_xs_minus_one(p, 2)
    assert cofactor(p, 2) == Poly(F, [1, 1])
    p3 = Poly(F, [1, 1, 1])
    assert divides_xs_minus_one(p3, 3)
    assert cofactor(p3, 3) == Poly(F, [1, 1])
    x = Poly(F, [0, 1])
    assert not divides_xs_minus_one(x, 2)
    with pytest.raises(ValueError):
        cofactor(x, 2)
    with pytest.raises(ValueError, match="zero polynomial divides nothing"):
        divides_xs_minus_one(Poly.zero(F), 2)
    for s in (0, -1):
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            xs_minus_one(F, s)


def test_cofactor_of_zero_is_refused():
    with pytest.raises(ValueError, match="^zero polynomial divides nothing$"):
        cofactor(Poly.zero(GF(2)), 2)


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Poly(GF(2), [1]) + Poly(GF(3), [1])
    with pytest.raises(ValueError):
        CyclicPoly(GF(2), [1, 0]) * CyclicPoly(GF(3), [1, 0])
    with pytest.raises(ValueError):
        CyclicPoly(GF(2), [1, 0]) + CyclicPoly(GF(2), [1, 0, 0])


# -- differential check against sympy's GF(p)[x] arithmetic ----------------------

def _to_sympy(f: Poly) -> list[int]:
    """Poly -> sympy dense polynomial over GF(p) (descending degree)."""
    return list(reversed(f.coeffs))


def _random_poly(rng, F, max_deg):
    return Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(0, max_deg))] + [1])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gcd_xgcd_and_divisors_match_sympy(p):
    """gcd, the Bezout pair of xgcd, divides_xs_minus_one and cofactor
    against sympy's galoistools for s <= 30."""
    F = GF(p)
    rng = random.Random(p)
    for _ in range(150):
        s = rng.randint(1, 30)
        # a shared random factor makes most gcds nontrivial
        common = _random_poly(rng, F, 4)
        a = common * _random_poly(rng, F, 12).scale(rng.randrange(1, p))
        b = common * _random_poly(rng, F, 12).scale(rng.randrange(1, p))
        A, B = _to_sympy(a), _to_sympy(b)
        assert _to_sympy(gcd(a, b)) == gf_gcd(A, B, p, ZZ)
        g, u, v = xgcd(a, b)
        _, t, h = gf_gcdex(A, B, p, ZZ)
        assert _to_sympy(g) == h
        assert gf_add(gf_mul(_to_sympy(u), A, p, ZZ), gf_mul(_to_sympy(v), B, p, ZZ), p, ZZ) == h
        # Bezout pairs differ by multiples of (b/g, a/g): v is t reduced mod a/g
        assert _to_sympy(v) == gf_rem(t, gf_quo(A, h, p, ZZ), p, ZZ)

        xs1 = _to_sympy(xs_minus_one(F, s))
        assert xs1 == [1] + [0] * (s - 1) + [p - 1]
        f = _random_poly(rng, F, s)
        if rng.random() < 0.5:
            f = gcd(f, xs_minus_one(F, s))  # a divisor of x^s - 1
        divides = gf_rem(xs1, _to_sympy(f), p, ZZ) == []
        assert divides_xs_minus_one(f, s) == divides
        if divides:
            assert _to_sympy(cofactor(f, s)) == gf_quo(xs1, _to_sympy(f), p, ZZ)
        else:
            with pytest.raises(ValueError):
                cofactor(f, s)


def _random_divisor(rng, F, max_deg):
    """A monic divisor half the time, as the engine's are, else any lead."""
    b = _random_poly(rng, F, max_deg)
    return b if rng.random() < 0.5 else b.scale(rng.randrange(1, F.q))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_divmod_matches_sympy(p):
    """divmod against sympy's gf_div, monic and non-monic divisors alike,
    with sparse divisors, a zero dividend and dividends of lower degree."""
    F = GF(p)
    rng = random.Random(100 + p)
    for i in range(300):
        b = _random_divisor(rng, F, 5)
        if rng.random() < 0.3:  # zero coefficients below the lead
            b = Poly(F, [c if rng.random() < 0.4 else 0 for c in b.coeffs[:-1]] + [b.lc])
        a = Poly.zero(F) if i % 25 == 0 else _random_poly(rng, F, 9).scale(rng.randrange(1, p))
        if i % 7 == 0:
            a = a % b  # deg a < deg b
        quo, rem = divmod(a, b)
        assert (_to_sympy(quo), _to_sympy(rem)) == gf_div(_to_sympy(a), _to_sympy(b), p, ZZ)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_divmod_invariant_over_extension_fields(p, m):
    """a = quo * b + rem with deg rem < deg b over GF(4), GF(8) and GF(9),
    whose non-monic divisors need the inverse of the lead."""
    F = GF(p, m)
    rng = random.Random(200 + F.q)
    for i in range(300):
        b = _random_divisor(rng, F, 5)
        a = Poly.zero(F) if i % 25 == 0 else _random_poly(rng, F, 9).scale(rng.randrange(1, F.q))
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.is_zero or rem.degree < b.degree
        assert quo.is_zero or quo.degree == a.degree - b.degree


# -- the trusted construction path --------------------------------------------------

_TRUSTED_FIELDS = (GF(2), GF(3), GF(2, 2), GF(3, 2))


def _assert_canonical(r):
    """r is canonical as built, and equal, hash included, to its rebuild
    through the public constructor, which checks every coefficient."""
    q = r.field.q
    assert all(type(c) is int and 0 <= c < q for c in r.coeffs), r.coeffs
    if isinstance(r, Poly):
        assert not r.coeffs or r.coeffs[-1] != 0, r.coeffs
    rebuilt = type(r)(r.field, r.coeffs)
    assert rebuilt == r and hash(rebuilt) == hash(r)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_results_are_canonical_without_the_value_gate(data):
    """Every result of the polynomial layer is built by the trusted _wrap:
    Python ints in [0, q), no trailing zero, the same as the gated rebuild."""
    F = data.draw(st.sampled_from(_TRUSTED_FIELDS))
    coeffs = st.lists(st.integers(0, F.q - 1), max_size=7)
    a, b = Poly(F, data.draw(coeffs)), Poly(F, data.draw(coeffs))
    c = data.draw(st.integers(0, F.q - 1))
    s = data.draw(st.integers(1, 6))
    t = data.draw(st.integers(-7, 7))
    xs1 = xs_minus_one(F, s)
    g = gcd(a, xs1)  # a divisor of x^s - 1
    ra, rb = CyclicPoly.from_poly(a, s), CyclicPoly.from_poly(b, s)
    results = [a + b, a - b, -a, a * b, a.scale(c), a.monic(), *xgcd(a, b),
               xs1, cofactor(g, s), ra, rb, ra.lift(), ra.shift(t), ra + rb, ra - rb,
               ra * rb, -ra, ra.scale(c), CyclicPoly.zero(F, s), CyclicPoly.one(F, s),
               Poly.zero(F), Poly.one(F)]
    if b:
        results += divmod(a, b)
    for r in results:
        _assert_canonical(r)


@pytest.mark.parametrize("F", _TRUSTED_FIELDS, ids=["GF(2)", "GF(3)", "GF(4)", "GF(9)"])
def test_cached_cofactor_refuses_on_every_call(F):
    """cofactor keeps its results, but not its errors: zero and a
    non-divisor are refused each time they are asked for, and an s that
    only equals a kept one (4.0 for 4) is not served from the cache."""
    x = Poly(F, [0, 1])
    for _ in range(3):
        with pytest.raises(ValueError, match="^zero polynomial divides nothing$"):
            cofactor(Poly.zero(F), 4)
        with pytest.raises(ValueError, match="does not divide"):
            cofactor(x, 4)
    assert cofactor(Poly(F, [F.neg(1), 1]), 4) is cofactor(Poly(F, [F.neg(1), 1]), 4)
    with pytest.raises(ValueError, match="not an integer"):
        xs_minus_one(F, 4.0)
    with pytest.raises(ValueError, match="not an integer"):
        cofactor(Poly(F, [F.neg(1), 1]), 4.0)
