import hashlib
import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcyclic import ideal, ring2d
from tdcyclic import (GF, BiPoly, BoundsError, CyclicPoly, DivisibilityError, EchelonBasis,
                      NotMember, Poly, RingShape,
                      bruteforce_ideal, canonical_form, decompose, dimension,
                      extract_generators, gcd, generator_set_from_basis,
                      layer_generator, reduced_span, span_basis, xs_minus_one)
from conftest import random_generator_arrays, random_generators

F2 = GF(2)


def fixture():
    sh = RingShape(F2, 2, 2)
    return sh, [BiPoly(sh, [[1, 0], [1, 0]])]


def random_shapes(rng, count, fields=(2, 3), smax=5):
    for _ in range(count):
        q = rng.choice(fields)
        F = GF(2, 2) if q == 4 else GF(q)
        yield RingShape(F, rng.randint(1, smax), rng.randint(1, smax))


def combination_of_rows(rng, basis):
    fld = basis.shape.field
    vec = np.zeros(basis.shape.n, dtype=np.int64)
    for row in basis.matrix:
        c = rng.randrange(fld.q)
        if c:
            vec = fld.add_arrays(vec, fld.scale_array(c, row))
    return BiPoly.from_vector(basis.shape, vec, "internal")


# -- span_basis ---------------------------------------------------------------

def test_span_basis_fixture():
    sh, gens = fixture()
    basis = span_basis(sh, gens)
    assert basis.dimension == 2
    assert basis.matrix.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]
    assert basis.dimension == bruteforce_ideal(sh, gens).dimension


def test_span_basis_trivial():
    sh = RingShape(F2, 2, 2)
    assert span_basis(sh, [BiPoly.zero(sh)]).dimension == 0
    assert span_basis(sh, []).dimension == 0
    assert span_basis(sh, [BiPoly.one(sh)]).dimension == 4


def test_span_is_shift_closed():
    rng = random.Random(31)
    for sh in random_shapes(rng, 20, smax=4):
        basis = span_basis(sh, random_generators(rng, sh))
        for r in basis.rows:
            assert basis.contains(r.shift_x())
            assert basis.contains(r.shift_y())


# -- layer_generator ----------------------------------------------------------

def test_layer_generator_fixture():
    sh, gens = fixture()
    basis = span_basis(sh, gens)
    L0 = layer_generator(basis, 0)
    assert L0.gen == CyclicPoly(F2, [1, 1]) and L0.deg == 1
    assert L0.cofactor == Poly(F2, [1, 1])


def test_layer_generator_trivial_cases():
    sh = RingShape(F2, 2, 2)
    zero = span_basis(sh, [])
    for j in range(2):
        L = layer_generator(zero, j)
        assert L.is_zero and L.deg == 2 and L.cofactor == Poly.one(F2)
    unit = span_basis(sh, [BiPoly.one(sh)])
    L = layer_generator(unit, 0)
    assert L.gen == CyclicPoly.one(F2, 2) and L.deg == 0
    assert L.cofactor == xs_minus_one(F2, 2)
    with pytest.raises(IndexError):
        layer_generator(unit, 2)


def test_layer_divides_xs_minus_one_random():
    rng = random.Random(37)
    for sh in random_shapes(rng, 25):
        basis = span_basis(sh, random_generators(rng, sh))
        for j in range(sh.ell):
            L = layer_generator(basis, j)
            if not L.is_zero:
                assert L.cofactor * L.gen.lift() == xs_minus_one(sh.field, sh.s)
                assert L.gen.lift().lc == 1


def _vanishing_below(closure, j):
    """Basis (codeword order) of the closure's vectors that vanish below
    y^j, by the oracle's elimination with the columns of y^0 .. y^(j-1)
    taken first."""
    sh = closure.shape
    low = np.arange(sh.n) % sh.ell < j
    order = np.concatenate([np.flatnonzero(low), np.flatnonzero(~low)])
    red = reduced_span(sh.field, sh.n, closure.vectors[:, order])
    out = np.zeros_like(red)
    out[:, order] = red
    return out[~red[:, :int(low.sum())].any(axis=1)]


@st.composite
def _ideals(draw):
    F = draw(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(2, 3), GF(3, 2)]))
    s, ell = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.integers(0, F.q - 1)
    arr = st.lists(st.lists(cell, min_size=ell, max_size=ell), min_size=s, max_size=s)
    sh = RingShape(F, s, ell)
    # a product of two arrays often gives a proper ideal with several layers
    pairs = draw(st.lists(st.tuples(arr, st.none() | arr), max_size=3))
    return sh, [BiPoly(sh, a) if b is None else BiPoly(sh, a) * BiPoly(sh, b)
                for a, b in pairs]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_ideals())
def test_layers_match_gcd_over_oracle_closure(problem):
    """The layer generator is the monic gcd of x^s - 1 and the y^j
    coordinates of every ideal element vanishing below j, and each
    generating polynomial is reduced below every higher nonzero layer."""
    sh, gens = problem
    s, F = sh.s, sh.field
    basis = span_basis(sh, gens)
    closure = bruteforce_ideal(sh, gens)
    gs = generator_set_from_basis(basis)
    for j in range(sh.ell):
        g = xs_minus_one(F, s)
        for v in _vanishing_below(closure, j):
            g = gcd(g, Poly(F, v.reshape(s, sh.ell)[:, j].tolist()))
        L = layer_generator(basis, j)
        if g == xs_minus_one(F, s):
            assert L.is_zero and L.deg == s and gs.gens[j].is_zero
            continue
        assert L.gen.lift() == g and L.deg == g.degree
        p = gs.gens[j]
        assert closure.contains_elem(p)
        assert all(p.coord(i).is_zero for i in range(j)) and p.coord(j) == L.gen
        for i in range(j + 1, sh.ell):
            if not gs.layers[i].is_zero:
                lift = p.coord(i).lift()
                assert lift.is_zero or lift.degree < gs.layers[i].deg


def test_shift_matrix_over_budget_refused():
    sh = RingShape(F2, 32, 32)
    one = BiPoly.one(sh)
    with pytest.raises(BoundsError, match="elimination budget"):
        span_basis(sh, [one, one.shift_x(), one.shift_y()])
    # zero generators add no rows
    big = RingShape(F2, 256, 256)
    assert span_basis(big, [BiPoly.zero(big)]).dimension == 0


def _no_elimination(*args):
    raise AssertionError("the elimination ran past the preflight")


def test_one_generator_over_work_budget_refused(monkeypatch):
    # 38 x 38 fits the entry budget (1444^2 < 2^21) but not the work
    # budget (1444^3 > 2^31): unchecked, its elimination takes about 40 s
    monkeypatch.setattr(ideal, "_rref", _no_elimination)
    sh = RingShape(F2, 38, 38)
    start = time.perf_counter()
    with pytest.raises(BoundsError, match="elimination budget"):
        span_basis(sh, [BiPoly.one(sh)])
    assert time.perf_counter() - start < 1.0


def test_two_generators_at_32_by_32_pass_preflight(monkeypatch):
    # exactly at both budgets; the stub stands in for the 20 s elimination
    seen = []

    def stub(mat, fld, cols):
        seen.append(mat.shape)
        return np.zeros((0, mat.shape[1]), dtype=np.int64), ()

    monkeypatch.setattr(ideal, "_rref", stub)
    sh = RingShape(F2, 32, 32)
    one = BiPoly.one(sh)
    assert span_basis(sh, [one, one.shift_x()]).dimension == 0
    assert seen == [(2048, 1024)]


# -- extract_generators --------------------------------------------------------

def test_extract_fixture():
    sh, gens = fixture()
    gs = extract_generators(sh, gens)
    assert gs.gens[0] == BiPoly(sh, [[1, 0], [1, 0]])
    assert gs.gens[1] == BiPoly(sh, [[0, 1], [0, 1]])
    assert [list(q.coeffs) for q in gs.quotients[0]] == [[1], []]
    assert [list(q.coeffs) for q in gs.quotients[1]] == [[1]]


def test_extract_unit_ideal_monomials():
    sh = RingShape(F2, 2, 3)
    gs = extract_generators(sh, [BiPoly.one(sh)])
    for j in range(3):
        expect = BiPoly.zero(sh).to_array()
        expect[0, j] = 1
        assert gs.gens[j] == BiPoly(sh, expect)
        assert gs.layers[j].deg == 0


def test_extract_zero_ideal():
    sh = RingShape(F2, 3, 2)
    gs = extract_generators(sh, [])
    assert all(p.is_zero for p in gs.gens)
    assert all(L.is_zero and L.deg == 3 for L in gs.layers)
    assert gs.quotients == ((), ())


def test_generators_member_of_ideal():
    rng = random.Random(41)
    for sh in random_shapes(rng, 20):
        gens = random_generators(rng, sh)
        basis = span_basis(sh, gens)
        gs = extract_generators(sh, gens)
        for p in gs.gens:
            assert basis.contains(p)


def test_triangular_and_canonical_degrees():
    rng = random.Random(43)
    for sh in random_shapes(rng, 25):
        gs = extract_generators(sh, random_generators(rng, sh))
        for j, p in enumerate(gs.gens):
            for i in range(j):
                assert p.coord(i).is_zero
            if gs.layers[j].is_zero:
                assert p.is_zero
                continue
            assert p.coord(j) == gs.layers[j].gen
            for i in range(j + 1, sh.ell):
                if not gs.layers[i].is_zero:
                    lift = p.coord(i).lift()
                    assert lift.is_zero or lift.degree < gs.layers[i].deg


def test_base_divisibility_and_quotients():
    rng = random.Random(47)
    for sh in random_shapes(rng, 25, fields=(2, 3, 4)):
        gs = extract_generators(sh, random_generators(rng, sh))
        if gs.layers[0].is_zero:
            continue
        base = gs.layers[0].gen.lift()
        for j, p in enumerate(gs.gens):
            if gs.layers[j].is_zero:
                continue
            for i in range(j, sh.ell):
                q, r = divmod(p.coord(i).lift(), base)
                assert r.is_zero
                assert gs.quotients[j][i - j] == q
                rebuilt = CyclicPoly.from_poly(base * q, sh.s)
                assert rebuilt == p.coord(i)


def test_layer_not_divisible_by_the_base_generator_refused():
    """A hand-built basis whose layer-1 generator 1 is not a multiple of
    the base generator 1 + x cannot be a basis of an ideal."""
    sh = RingShape(F2, 2, 2)
    basis = EchelonBasis(sh, np.array([[1, 1, 0, 0], [0, 0, 1, 0]]), (1, 2))
    with pytest.raises(DivisibilityError, match="^coordinate 1 of generator 1 is not "
                                                "divisible by the base generator$"):
        generator_set_from_basis(basis)


def test_dimension_identity():
    rng = random.Random(53)
    for sh in random_shapes(rng, 30, fields=(2, 3, 4)):
        gens = random_generators(rng, sh)
        basis = span_basis(sh, gens)
        gs = extract_generators(sh, gens)
        assert basis.dimension == dimension(gs)


# -- decompose -----------------------------------------------------------------

def test_decompose_fixture():
    sh, gens = fixture()
    gs = extract_generators(sh, gens)
    f = BiPoly(sh, [[1, 1], [1, 1]])
    dec = decompose(f, gs, want_trace=True)
    assert [list(q.coeffs) for q in dec.coeffs] == [[1, 0], [1, 0]]
    assert dec.trace[0] == BiPoly(sh, [[0, 1], [0, 1]])
    total = BiPoly.zero(sh)
    for p, q in zip(gs.gens, dec.coeffs):
        total = total + p * q
    assert total == f


def test_decompose_zero_element():
    sh, gens = fixture()
    gs = extract_generators(sh, gens)
    dec = decompose(BiPoly.zero(sh), gs)
    assert all(q.is_zero for q in dec.coeffs)


def test_decompose_rejects_nonmembers():
    sh, gens = fixture()
    gs = extract_generators(sh, gens)
    with pytest.raises(NotMember) as e:
        decompose(BiPoly.one(sh), gs)
    assert e.value.layer == 0
    # zero ideal rejects at the first nonzero layer
    gz = extract_generators(sh, [])
    with pytest.raises(NotMember) as e:
        decompose(BiPoly(sh, [[0, 1], [0, 0]]), gz)
    assert e.value.layer == 1


def test_decompose_memory_bounded(monkeypatch):
    """decompose gathers the rows x^a * gens[k] _GATHER_ELEMS entries at a
    time.  With that budget cut to 2^12 entries (32 KB), the peak stays
    within four such arrays plus 64 KB, where one gather of all deg q_k
    rows takes 0.6-2 MB here; the result is the same as in one gather.
    Ideals <x - 1> over GF(2) and GF(3^2), members whose quotients have
    degree about s."""
    for F, s, ell in ((F2, 128, 2), (GF(3, 2), 128, 2), (GF(3, 2), 256, 1)):
        sh = RingShape(F, s, ell)
        x_minus_one = np.zeros((s, ell), dtype=np.int64)
        x_minus_one[0, 0], x_minus_one[1, 0] = F.neg(1), 1
        gs = extract_generators(sh, [BiPoly(sh, x_minus_one)])
        rng = np.random.default_rng(s + ell)
        f = BiPoly.zero(sh)
        for g in gs.gens:
            f = f + g * CyclicPoly(F, rng.integers(0, F.q, s).tolist())
        whole = decompose(f, gs, want_trace=True)
        monkeypatch.setattr(ring2d, "_GATHER_ELEMS", 1 << 12)
        tracemalloc.start()
        try:
            chunked = decompose(f, gs, want_trace=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert [q.coeffs for q in chunked.coeffs] == [q.coeffs for q in whole.coeffs]
        assert chunked.trace == whole.trace
        assert max(len(q.coeffs) for q in chunked.coeffs) >= s - 2
        assert peak < 4 * (1 << 12) * 8 + (64 << 10), (F, s, ell, peak)


def _decompose_outcome(f, gs):
    try:
        dec = decompose(f, gs, want_trace=True)
    except NotMember as e:
        return e.layer
    return [q.coeffs for q in dec.coeffs], [h.arr.tolist() for h in dec.trace]


def test_decompose_same_across_gather_chunk_boundaries(monkeypatch):
    """Gather chunks of 1, n - 1, n + 1 and 2n + 1 entries cut the rows
    x^a * gens[k] into chunks of one or two rows; decompose still gives
    the coefficients, trace and NotMember layer of one whole gather."""
    rng = random.Random(71)
    split = rejected = 0
    for F in (F2, GF(2, 2), GF(3, 2)):
        for _ in range(8):
            sh = RingShape(F, rng.randint(3, 6), rng.randint(1, 4))
            gs = extract_generators(sh, random_generators(rng, sh))
            elements = [BiPoly(sh, [[rng.randrange(F.q) for _ in range(sh.ell)]
                                    for _ in range(sh.s)])]
            member = BiPoly.zero(sh)
            for g in gs.gens:
                member = member + g * CyclicPoly(F, [rng.randrange(F.q) for _ in range(sh.s)])
            elements.append(member)
            for f in elements:
                whole = _decompose_outcome(f, gs)
                for chunk in (1, sh.n - 1, sh.n + 1, 2 * sh.n + 1):
                    monkeypatch.setattr(ring2d, "_GATHER_ELEMS", chunk)
                    assert _decompose_outcome(f, gs) == whole, (F, sh.s, sh.ell, chunk)
                    monkeypatch.undo()
                if isinstance(whole, int):
                    rejected += 1
                else:
                    split += max(len(q) for q in whole[0]) >= 3
    assert split >= 10 and rejected >= 5, (split, rejected)


def test_trace_vanishes_below_layer():
    rng = random.Random(59)
    for sh in random_shapes(rng, 15):
        gens = random_generators(rng, sh)
        basis = span_basis(sh, gens)
        gs = extract_generators(sh, gens)
        if basis.dimension == 0:
            continue
        f = combination_of_rows(rng, basis)
        dec = decompose(f, gs, want_trace=True)
        for k, h in enumerate(dec.trace, start=1):
            for i in range(min(k, sh.ell)):
                assert h.coord(i).is_zero


def test_decompose_agrees_with_echelon_membership():
    rng = random.Random(61)
    for sh in random_shapes(rng, 12, fields=(2, 3, 4), smax=4):
        gens = random_generators(rng, sh)
        basis = span_basis(sh, gens)
        gs = extract_generators(sh, gens)
        for _ in range(30):
            f = combination_of_rows(rng, basis)
            in_span = basis.contains(f)
            assert in_span  # combinations are members by construction
            dec = decompose(f, gs)
            total = BiPoly.zero(sh)
            for p, q in zip(gs.gens, dec.coeffs):
                total = total + p * q
            assert total == f
        rejected = 0
        attempts = 0
        while rejected < 30 and attempts < 400:
            attempts += 1
            arr = [[rng.randrange(sh.field.q) for _ in range(sh.ell)] for _ in range(sh.s)]
            g = BiPoly(sh, arr)
            member = basis.contains(g)
            try:
                decompose(g, gs)
                accepted = True
            except NotMember:
                accepted = False
            assert accepted == member
            if not member:
                rejected += 1


@st.composite
def _decompositions(draw):
    """An ideal over a small field and an element: a combination of the
    generators, or an arbitrary array (a member or not)."""
    F = draw(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(5), GF(2, 3), GF(3, 2)]))
    s, ell = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.integers(0, F.q - 1)
    arr = st.lists(st.lists(cell, min_size=ell, max_size=ell), min_size=s, max_size=s)
    sh = RingShape(F, s, ell)
    pairs = draw(st.lists(st.tuples(arr, st.none() | arr), max_size=3))
    gens = [BiPoly(sh, a) if b is None else BiPoly(sh, a) * BiPoly(sh, b) for a, b in pairs]
    if draw(st.booleans()):
        f = BiPoly.zero(sh)
        for g in gens:
            f = f + g * BiPoly(sh, draw(arr))
    else:
        f = BiPoly(sh, draw(arr))
    return sh, gens, f


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_decompositions())
def test_not_member_layer_and_trace(problem):
    """NotMember names the first y-column where the element's residual
    against the echelon basis is nonzero; for a member, trace[k] is
    f - sum_{j <= k} gens[j] * q_j."""
    sh, gens, f = problem
    gs = extract_generators(sh, gens)
    residual = span_basis(sh, gens).residual(f)
    try:
        dec = decompose(f, gs, want_trace=True)
    except NotMember as e:
        assert not residual.is_zero
        assert e.layer == min(j for j in range(sh.ell) if not residual.coord(j).is_zero)
        return
    assert residual.is_zero
    partial = f
    for k, (g, q) in enumerate(zip(gs.gens, dec.coeffs)):
        partial = partial - g * q
        if k < sh.ell - 1:
            assert dec.trace[k] == partial
    assert partial.is_zero


# -- canonical_form -------------------------------------------------------------

def gs_bytes(gs):
    return json.dumps(gs.to_json_dict(), sort_keys=True).encode()


def test_canonical_form_spec_examples():
    sh, gens = fixture()
    g = gens[0]
    a = canonical_form(sh, [g])
    b = canonical_form(sh, [g, g.shift_x() + g.shift_y()])
    assert gs_bytes(a) == gs_bytes(b)
    # x * (1+x) equals 1+x when s = 2; same span either way
    assert gs_bytes(canonical_form(sh, [g.shift_x()])) == gs_bytes(a)
    # s = 3: x*(1+x^2) differs from 1+x^2 as an element, ideals coincide
    sh3 = RingShape(F2, 3, 1)
    h = BiPoly(sh3, [[1], [0], [1]])
    assert h.shift_x() != h
    assert gs_bytes(canonical_form(sh3, [h])) == gs_bytes(canonical_form(sh3, [h.shift_x()]))
    # zero presentations
    z = BiPoly.zero(sh)
    assert gs_bytes(canonical_form(sh, [z])) == gs_bytes(canonical_form(sh, [z, z]))


def test_canonical_form_random_augmentation():
    rng = random.Random(67)
    for sh in random_shapes(rng, 15):
        gens = random_generators(rng, sh)
        base = gs_bytes(canonical_form(sh, gens))
        extra = list(gens)
        for _ in range(rng.randint(1, 3)):
            mult = BiPoly(sh, [[rng.randrange(sh.field.q) for _ in range(sh.ell)]
                               for _ in range(sh.s)])
            extra.append(mult * rng.choice(gens))
        assert gs_bytes(canonical_form(sh, extra)) == base


def test_zero_layer_between_nonzero_layers():
    # I = <1 + y> with s = 1: layer 0 is the whole scalar ring, layer 1 empty
    sh = RingShape(F2, 1, 2)
    g = BiPoly(sh, [[1, 1]])
    gs = extract_generators(sh, [g])
    assert gs.layers[0].deg == 0
    assert gs.layers[1].is_zero and gs.layers[1].deg == 1
    assert gs.gens[0] == g
    assert gs.gens[1].is_zero
    assert dimension(gs) == 1


# -- pinned outputs over extension and odd prime fields --------------------------

PINNED_FIELDS = ((5, 1), (2, 3), (3, 2), (2, 9), (3, 3))
# sha256 of the serialized generating sets below, recorded with the engine
# that built them by gcds over the layer lifts, an extended-gcd witness fold
# and a Hermite reduction loop
PINNED_SHA256 = "778eb42ba014937850b55750b2a6315f39a351eb86c6b126985419b0671126ff"


def test_generating_sets_pinned_over_extension_fields():
    digest = hashlib.sha256()
    for i in range(300):
        rng = random.Random(f"pin:{i}")
        p, m = PINNED_FIELDS[i % len(PINNED_FIELDS)]
        sh = RingShape(GF(p, m), rng.randint(1, 8), rng.randint(1, 8))
        arrs = random_generator_arrays(rng, sh, 3) if rng.random() < 0.9 else []
        gs = extract_generators(sh, [BiPoly(sh, a) for a in arrs])
        digest.update(json.dumps(gs.to_json_dict(), sort_keys=True,
                                 separators=(",", ":")).encode())
    assert digest.hexdigest() == PINNED_SHA256
