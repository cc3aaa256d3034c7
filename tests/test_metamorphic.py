"""Metamorphic relations of the ring, above the oracle's 64 cells.

Each relation comes from an automorphism of F[x,y]/(x^s - 1, y^ell - 1),
so none depends on how the engine computes:

* (a) transposition x <-> y, s <-> ell, keeps n, k and d;
* (b) Frobenius c -> c^p on every coefficient maps the canonical
  generating set of I to that of its image, byte for byte, because it
  fixes 1, x, y and degrees and commutes with division;
* (c) a unit multiplier x -> x^u, gcd(u, s) = 1, with y -> y^v,
  gcd(v, ell) = 1, keeps k and d, and maps I's canonical generators and
  the input generators to two presentations of one ideal.

They are not a proof: a fault symmetric in x and y, or one that commutes
with Frobenius, passes (a) and (b).
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcyclic import (GF, BiPoly, CyclicPoly, Poly, RingShape, cofactor, dimension,
                      extract_generators, gcd, generator_matrix, generator_set_from_basis,
                      min_distance, span_basis, xs_minus_one)


@st.composite
def _divisor(draw, F, n):
    """gcd(x^n - 1, r * prod(x - a)) for a random r and 1-3 n-th roots of
    unity a in F, or more often its cofactor, as a residue mod x^n - 1.
    Over an extension field the roots put coefficients outside GF(p) into
    the canonical set, for Frobenius to move."""
    roots = [a for a in range(1, F.q) if F.pow(a, n) == 1]
    d = Poly(F, draw(st.lists(st.integers(0, F.q - 1), max_size=4)) + [1])
    for a in draw(st.lists(st.sampled_from(roots), min_size=1, max_size=3, unique=True)):
        d = d * Poly(F, [F.neg(a), 1])
    d = gcd(xs_minus_one(F, n), d)
    return CyclicPoly.from_poly(d if draw(st.integers(0, 2)) == 0 else cofactor(d, n), n)


@st.composite
def _large_ideals(draw, fields, min_cells=65, max_cells=300, every_root=False):
    """Ideals of 65 to 300 cells with 1-2 generators, each a sum of 1-2
    shifted multiples of a(x) b(y), a and b from _divisor: products keep k
    small enough for a distance, sums make the layers interact.  With
    every_root, s and ell are multiples of q - 1, so every element of F* is
    a root of unity _divisor may take."""
    F = draw(st.sampled_from(fields))
    unit = F.q - 1 if every_root else 1
    s = unit * draw(st.integers(-(-4 // unit), 20 // unit))
    ell = unit * draw(st.integers(-(-min_cells // (s * unit)), max_cells // (s * unit)))
    sh = RingShape(F, s, ell)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        g = BiPoly.zero(sh)
        for _ in range(draw(st.integers(1, 2))):
            a, b = draw(_divisor(F, s)), draw(_divisor(F, ell))
            term = F.mul_arrays(np.array(a.coeffs)[:, None], np.array(b.coeffs)[None, :])
            g = g + BiPoly(sh, term).shift_x(draw(st.integers(0, s - 1))).shift_y(
                draw(st.integers(0, ell - 1))).scale(draw(st.integers(1, F.q - 1)))
        gens.append(g)
    return sh, gens


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_large_ideals(fields=(GF(2), GF(3), GF(2, 2))))
def test_transposition_keeps_k_and_d(problem):
    sh, gens = problem
    sh_t = RingShape(sh.field, sh.ell, sh.s)
    gs = extract_generators(sh, gens)
    basis_t = span_basis(sh_t, [BiPoly(sh_t, g.arr.T) for g in gens])
    gs_t = generator_set_from_basis(basis_t)
    k = dimension(gs)
    assert dimension(gs_t) == k
    # I's canonical generators, transposed, lie in the span computed for the transpose;
    # with k equal, that span is I transposed
    assert all(basis_t.contains(BiPoly(sh_t, g.arr.T)) for g in gs.gens)
    if 0 < k and sh.field.q ** k <= 1 << 14:
        assert min_distance(generator_matrix(gs_t)) == min_distance(generator_matrix(gs))


def _frobenius(d: dict, frob: list) -> dict:
    """c -> c^p on every field entry of a GeneratorSet's JSON dict."""
    def phi(v):
        return [phi(c) for c in v] if isinstance(v, list) else frob[v]
    return dict(d, layers=[dict(L, gen=phi(L["gen"]), cof=phi(L["cof"])) for L in d["layers"]],
                gens=phi(d["gens"]), t=phi(d["t"]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_large_ideals(fields=(GF(2, 2), GF(2, 3), GF(3, 2)), max_cells=200, every_root=True))
def test_frobenius_maps_the_canonical_set_byte_for_byte(problem):
    sh, gens = problem
    F = sh.field
    frob = [F.pow(c, F.p) for c in range(F.q)]
    image = extract_generators(sh, [BiPoly(sh, np.array(frob)[g.arr]) for g in gens])
    expected = _frobenius(extract_generators(sh, gens).to_json_dict(), frob)
    assert json.dumps(image.to_json_dict()) == json.dumps(expected)


def _unit_image(sh: RingShape, g: BiPoly, u: int, v: int) -> BiPoly:
    """g(x^u, y^v): cell (i, j) moves to (u i mod s, v j mod ell)."""
    out = np.empty_like(g.arr)
    out[np.ix_(u * np.arange(sh.s) % sh.s, v * np.arange(sh.ell) % sh.ell)] = g.arr
    return BiPoly(sh, out)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_large_ideals(fields=(GF(2), GF(3), GF(2, 2))), st.data())
def test_unit_multipliers_keep_k_and_d(problem, data):
    sh, gens = problem
    # s and ell are at least 4, so u has a choice other than 1
    u = data.draw(st.sampled_from([u for u in range(2, sh.s) if math.gcd(u, sh.s) == 1]))
    v = data.draw(st.sampled_from([v for v in range(1, sh.ell) if math.gcd(v, sh.ell) == 1]))
    gs = extract_generators(sh, gens)
    basis = span_basis(sh, [_unit_image(sh, g, u, v) for g in gens])
    gs_u = generator_set_from_basis(basis)
    k = dimension(gs)
    assert dimension(gs_u) == k
    # the images of I's canonical generators span the image of I: the same basis, by value
    assert span_basis(sh, [_unit_image(sh, g, u, v) for g in gs.gens]) == basis
    if 0 < k and sh.field.q ** k <= 1 << 14:
        assert min_distance(generator_matrix(gs_u)) == min_distance(generator_matrix(gs))
