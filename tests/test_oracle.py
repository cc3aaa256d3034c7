import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tdcyclic import (GF, BiPoly, BoundsError, CyclicPoly, Poly, RingShape, TooLargeError,
                      bruteforce_ideal, check_shift_closure, enumerate_span,
                      extract_generators, generator_matrix, reduced_span,
                      span_basis, verify_generator_set, verify_matrix, xs_minus_one)
from tdcyclic import oracle
from tdcyclic.codegen import GeneratorMatrix
from tdcyclic.ideal import LayerInfo
from tdcyclic.oracle import ClosureBasis
from conftest import random_generators


def fixture_problem():
    sh = RingShape(GF(2), 2, 2)
    return sh, [BiPoly(sh, [[1, 0], [1, 0]])]


def test_closure_of_fixture():
    sh, gens = fixture_problem()
    basis = bruteforce_ideal(sh, gens)
    assert basis.dimension == 2
    assert basis.vectors.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    # full-set mode: exactly the four words 0000, 1010, 0101, 1111
    words = {tuple(v) for v in enumerate_span(basis).tolist()}
    assert words == {(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)}


def test_closure_trivial_ideals():
    sh = RingShape(GF(2), 2, 2)
    assert bruteforce_ideal(sh, [BiPoly.zero(sh)]).dimension == 0
    assert bruteforce_ideal(sh, [BiPoly.one(sh)]).dimension == 4


def test_closure_bound():
    with pytest.raises(BoundsError):
        bruteforce_ideal(RingShape(GF(2), 9, 9), [])


def test_closure_basis_needs_its_reducer():
    sh, gens = fixture_problem()
    basis = bruteforce_ideal(sh, gens)
    with pytest.raises(TypeError):
        ClosureBasis(sh, basis.vectors)


def test_enumerate_span_cap():
    sh = RingShape(GF(2), 5, 5)
    full = bruteforce_ideal(sh, [BiPoly.one(sh)])
    with pytest.raises(TooLargeError):
        enumerate_span(full)  # 2^25 > 2^20


def test_shift_closure_checks():
    sh, gens = fixture_problem()
    basis = bruteforce_ideal(sh, gens)
    assert check_shift_closure(sh, basis)
    assert check_shift_closure(sh, [np.zeros(4, dtype=int)])
    # the 1-dim span of 1000 is not closed: the row shift leaves it
    assert not check_shift_closure(sh, [np.array([1, 0, 0, 0])])


def test_verify_generator_set_fixture():
    sh, gens = fixture_problem()
    gs = extract_generators(sh, gens)
    rep = verify_generator_set(gs, gens)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "span-equality" in names and "base-divisibility" in names


def test_verify_detects_dropped_generator():
    # principal ideal: the surviving generator regenerates the span, but
    # the triangularity and quotient checks still expose the corruption
    sh, gens = fixture_problem()
    gs = extract_generators(sh, gens)
    hollow = dataclasses.replace(gs, gens=(gs.gens[0], BiPoly.zero(sh)))
    rep = verify_generator_set(hollow, gens)
    assert not rep.passed
    failing = {c.name for c in rep.checks if not c.passed}
    assert "triangular" in failing and "base-divisibility" in failing


def test_verify_detects_shrunken_span():
    # two-generator ideal: dropping one layer generator really loses span
    sh = RingShape(GF(2), 2, 2)
    gens = [BiPoly(sh, [[1, 0], [1, 0]]), BiPoly(sh, [[1, 1], [0, 0]])]
    gs = extract_generators(sh, gens)
    hollow = dataclasses.replace(gs, gens=(gs.gens[0], BiPoly.zero(sh)))
    rep = verify_generator_set(hollow, gens)
    failing = {c.name for c in rep.checks if not c.passed}
    assert "span-equality" in failing


def test_verify_zero_ideal():
    sh = RingShape(GF(2), 2, 2)
    gs = extract_generators(sh, [])
    assert verify_generator_set(gs, []).passed
    gm = generator_matrix(gs)
    assert verify_matrix(gm, []).passed


def test_verify_matrix_fixture_and_duplicate_row():
    sh, gens = fixture_problem()
    gm = generator_matrix(extract_generators(sh, gens))
    assert verify_matrix(gm, gens).passed
    dup = dataclasses.replace(gm, rows=np.vstack([gm.rows, gm.rows[0]]),
                              labels=gm.labels + ((9, 9),))
    rep = verify_matrix(dup, gens)
    assert not rep.passed
    assert rep.first_failure().name == "rank"


def test_report_json_shape():
    sh, gens = fixture_problem()
    rep = verify_generator_set(extract_generators(sh, gens), gens)
    doc = rep.to_json_dict()
    assert set(doc) == {"checks"}
    for c in doc["checks"]:
        assert set(c) == {"name", "pass", "counterexample"}
        assert c["pass"] is True


def test_engine_oracle_agreement_random():
    rng = random.Random(71)
    for _ in range(25):
        q = rng.choice([2, 3, 4])
        F = GF(2, 2) if q == 4 else GF(q)
        sh = RingShape(F, rng.randint(1, 4), rng.randint(1, 4))
        gens = random_generators(rng, sh)
        eng = span_basis(sh, gens)
        orc = bruteforce_ideal(sh, gens)
        assert eng.dimension == orc.dimension
        eng_codeword = [r.to_vector("codeword") for r in eng.rows]
        assert np.array_equal(reduced_span(F, sh.n, eng_codeword), orc.vectors)


def _failures(rep):
    """(name, counterexample) of each failing check, as the report prints them."""
    return [(c["name"], c["counterexample"]) for c in rep.to_json_dict()["checks"]
            if not c["pass"]]


def test_counterexamples_pinned():
    """Failing checks and their counterexample vectors, recorded before the
    span tracking was batched: each check still reports the first failing
    vector in the same order."""
    sh = RingShape(GF(3), 3, 3)
    gens = [BiPoly(sh, [[2, 0, 0], [1, 0, 0], [0, 0, 0]])]  # <x - 1>
    gs = extract_generators(sh, gens)
    stranger = BiPoly(sh, [[2, 1, 0], [0, 0, 0], [0, 0, 0]])  # y - 1
    bad = dataclasses.replace(gs, gens=(stranger,) + gs.gens[1:])
    assert _failures(verify_generator_set(bad, gens)) == [
        ("gens-in-ideal", [2, 1, 0, 0, 0, 0, 0, 0, 0]), ("span-equality", None),
        ("triangular", [2, 1, 0, 0, 0, 0, 0, 0, 0]), ("base-divisibility", [2, 0, 0])]
    gm = generator_matrix(gs)
    rows = gm.rows.copy()
    rows[-1] = stranger.to_vector("codeword")
    assert _failures(verify_matrix(dataclasses.replace(gm, rows=rows), gens)) == [
        ("row-space-equality", [0, 0, 1, 0, 0, 0, 0, 0, 2]),
        ("rows-in-ideal", [2, 1, 0, 0, 0, 0, 0, 0, 0])]

    sh = RingShape(GF(2, 2), 2, 3)
    gens = [BiPoly(sh, [[1, 1, 0], [0, 0, 0]])]
    gm = generator_matrix(extract_generators(sh, gens))
    rows = gm.rows.copy()
    rows[0] = [0, 0, 0, 0, 0, 2]
    assert _failures(verify_matrix(dataclasses.replace(gm, rows=rows), gens)) == [
        ("row-space-equality", [1, 0, 1, 0, 0, 0]), ("rows-in-ideal", [0, 0, 0, 0, 0, 2])]

    # <x + 1> has the dimension of <x - 1> over GF(3) but another span
    sh = RingShape(GF(3), 2, 2)
    gens = [BiPoly(sh, [[2, 0], [1, 0]])]
    plus = BiPoly(sh, [[1, 0], [1, 0]])
    swapped = dataclasses.replace(extract_generators(sh, gens), gens=(plus, plus.shift_y(1)))
    assert _failures(verify_generator_set(swapped, gens)) == [
        ("gens-in-ideal", [1, 0, 1, 0]), ("span-equality", [1, 0, 2, 0]),
        ("triangular", [1, 0, 1, 0]), ("base-divisibility", [1, 1])]


def test_layer_checks_report_corrupted_layers():
    """Each corruption of one layer of a correct GeneratorSet fails the
    check that guards it, with that layer's datum as the counterexample."""
    F = GF(2)
    sh = RingShape(F, 4, 2)
    gens = [BiPoly(sh, [[1, 0], [1, 1], [0, 1], [0, 0]]),  # 1 + x + (x + x^2) y
            BiPoly(sh, [[1, 1]] * 4)]
    gs = extract_generators(sh, gens)
    # layer 0 is 1 + x, layer 1 is 1 + x + x^2 + x^3, gens[0] has x + x^2 at y^1
    assert [(L.gen.coeffs, L.deg) for L in gs.layers] == [((1, 1, 0, 0), 1),
                                                          ((1, 1, 1, 1), 3)]
    assert verify_generator_set(gs, gens).passed
    L0, L1 = gs.layers
    zero = CyclicPoly.zero(F, 4)

    def failing(name, layers=gs.layers, gs_gens=gs.gens):
        rep = verify_generator_set(dataclasses.replace(gs, layers=layers, gens=gs_gens), gens)
        return dict(_failures(rep)).get(name, "passed")

    non_divisor = CyclicPoly(F, [1, 1, 1, 0])  # 1 + x + x^2 does not divide x^4 - 1
    assert failing("layer-divides-xs-1",
                   (dataclasses.replace(L0, gen=non_divisor), L1)) == [1, 1, 1, 0]
    wrong_cof = Poly(F, [1, 1])
    assert failing("layer-divides-xs-1",
                   (dataclasses.replace(L0, cofactor=wrong_cof), L1)) == [1, 1]
    assert failing("layer-divides-xs-1", (dataclasses.replace(L0, deg=2), L1)) == [2]
    zero_deg_3 = dataclasses.replace(L1, gen=zero, cofactor=Poly.one(F))
    assert failing("layer-divides-xs-1", (L0, zero_deg_3)) == [1]
    empty_base = dataclasses.replace(L0, gen=zero, deg=4, cofactor=Poly.one(F))
    assert failing("base-divisibility", (empty_base, L1)) == [
        "layer 0 empty while the ideal is nonzero"]
    high = BiPoly(sh, [[1, 0], [1, 1], [0, 1], [0, 1]])  # y^1 coordinate x + x^2 + x^3
    assert failing("canonical-degrees", gs_gens=(high, gs.gens[1])) == [0, 1, 1, 1]


def test_closure_in_place_of_generators_gives_same_report():
    rng = random.Random(73)
    for t in range(30):
        q = rng.choice([2, 3, 4])
        F = GF(2, 2) if q == 4 else GF(q)
        sh = RingShape(F, rng.randint(1, 4), rng.randint(1, 4))
        gens = random_generators(rng, sh)
        gs = extract_generators(sh, gens)
        gm = generator_matrix(gs)
        if t % 2:
            # corrupt both: a random element for the top nonzero generator, and
            # that element's vector for the last matrix row
            stranger = BiPoly(sh, [[rng.randrange(q) for _ in range(sh.ell)]
                                   for _ in range(sh.s)])
            live = [j for j, p in enumerate(gs.gens) if not p.is_zero]
            if live:
                gens_bad = list(gs.gens)
                gens_bad[live[-1]] = stranger
                gs = dataclasses.replace(gs, gens=tuple(gens_bad))
            if gm.k:
                rows = gm.rows.copy()
                rows[-1] = stranger.to_vector("codeword")
                gm = dataclasses.replace(gm, rows=rows)
        closure = bruteforce_ideal(sh, gens)
        assert (verify_generator_set(gs, closure).to_json_dict()
                == verify_generator_set(gs, gens).to_json_dict())
        assert verify_matrix(gm, closure).to_json_dict() == verify_matrix(gm, gens).to_json_dict()


def test_closure_of_another_shape_is_refused():
    sh, gens = fixture_problem()
    gs = extract_generators(sh, gens)
    other = bruteforce_ideal(RingShape(GF(2), 2, 3), [])
    with pytest.raises(ValueError, match="closure does not match"):
        verify_generator_set(gs, other)
    with pytest.raises(ValueError, match="closure does not match"):
        verify_matrix(generator_matrix(gs), other)


def test_generator_of_another_shape_is_refused():
    sh, gens = fixture_problem()
    with pytest.raises(ValueError, match="^generator does not match the ring shape$"):
        bruteforce_ideal(sh, gens + [BiPoly.one(RingShape(GF(2), 2, 3))])


def _closure_of_1_plus_y():
    sh = RingShape(GF(2), 2, 3)
    closure = bruteforce_ideal(sh, [BiPoly(sh, [[1, 1, 0], [0, 0, 0]])])
    assert closure.dimension == 4
    return closure


# the oracle's entry points, each reading one input against the closure above
_ENTRY_POINTS = {
    "contains": lambda closure, v: closure.contains(v),
    "contains_elem": lambda closure, v: closure.contains_elem(v),
    "check_shift_closure": lambda closure, v: check_shift_closure(closure.shape, [v]),
    "reduced_span": lambda closure, v: reduced_span(closure.shape.field, 6, [v]).tolist(),
    "bruteforce_ideal": lambda closure, v: bruteforce_ideal(closure.shape, [v]).vectors.tolist(),
}
_ELEMENTS = {
    "member": (RingShape(GF(2), 2, 3), [[0, 1, 1], [0, 1, 1]]),
    "non-member": (RingShape(GF(2), 2, 3), [[1, 0, 0], [0, 0, 0]]),
    "shape 3x2": (RingShape(GF(2), 3, 2), [[1, 1], [0, 0], [0, 0]]),
    "over GF(4)": (RingShape(GF(2, 2), 2, 3), [[3, 3, 0], [0, 0, 0]]),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@pytest.mark.parametrize("element", _ELEMENTS)
def test_entry_points_read_an_element_as_its_raw_vector_or_refuse_it(entry, element):
    closure, call = _closure_of_1_plus_y(), _ENTRY_POINTS[entry]
    shape, arr = _ELEMENTS[element]
    if shape == closure.shape and entry != "reduced_span":
        assert call(closure, BiPoly(shape, arr)) == call(closure, np.reshape(arr, -1).tolist())
    else:
        # the same n, another shape or field; reduced_span has no ring shape at all
        with pytest.raises(ValueError, match="^generator does not match the ring shape$"):
            call(closure, BiPoly(shape, arr))


@pytest.mark.parametrize("shape", [RingShape(GF(2), 3, 2), RingShape(GF(2, 2), 2, 3)],
                         ids=["shape 3x2", "over GF(4)"])
def test_shift_closure_reads_a_closure_of_its_own_shape_only(shape):
    closure = _closure_of_1_plus_y()
    assert check_shift_closure(closure.shape, closure)
    with pytest.raises(ValueError, match="^closure does not match the ring shape$"):
        check_shift_closure(shape, closure)


def test_zero_layer_with_a_nonzero_generating_polynomial_fails_triangular():
    # <1> over GF(2), s = 1, ell = 3, with layer 1 claimed zero but gens[1] = y^2:
    # the generating polynomial of a zero layer must vanish everywhere
    F = GF(2)
    sh = RingShape(F, 1, 3)
    gens = [BiPoly.one(sh)]
    gs = extract_generators(sh, gens)
    layers, polys, t = list(gs.layers), list(gs.gens), list(gs.quotients)
    layers[1] = LayerInfo(1, CyclicPoly.zero(F, 1), 1, Poly.one(F))
    polys[1] = BiPoly(sh, [[0, 0, 1]])
    t[1] = ()
    bad = dataclasses.replace(gs, layers=tuple(layers), gens=tuple(polys), quotients=tuple(t))
    assert _failures(verify_generator_set(bad, gens)) == [("triangular", [0, 0, 1])]


def test_raw_vectors_canonicalized_in_subprocess():
    # over GF(4) an entry -1 once left the elimination spinning forever, so
    # run it where a hang fails the test instead of the whole suite
    code = ("from tdcyclic import GF, RingShape, bruteforce_ideal\n"
            "b = bruteforce_ideal(RingShape(GF(2, 2), 2, 2), [[-1, 0, 0, 0]])\n"
            "print(b.vectors.tolist())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]\n"


def test_raw_vectors_reduced_mod_q_and_length_checked():
    F4 = GF(2, 2)
    sh = RingShape(F4, 2, 2)
    # -3 and 5 are 1 mod 4, as BiPoly reads them: the ideal <1 + x>
    basis = bruteforce_ideal(sh, [[[-3, 0], [5, 0]]])
    assert basis.vectors.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert reduced_span(F4, 4, [[-1, 0, 5, 0]]).tolist() == [[1, 0, 2, 0]]
    assert reduced_span(GF(3), 2, [[-1, 4]]).tolist() == [[1, 2]]
    assert basis.contains([6, -1, 2, 3]) and not basis.contains([7, 0, 0, 0])
    assert not check_shift_closure(sh, [[-1, 0, 0, 0]])
    assert check_shift_closure(sh, [[-1, 0, 0, 0], [0, 5, 0, 0], [0, 0, 9, 0], [0, 0, 0, 7]])
    calls = [lambda: bruteforce_ideal(sh, [[1, 0, 0]]),
             lambda: reduced_span(F4, 4, [[1, 0, 0, 0, 0]]),
             lambda: check_shift_closure(sh, [[1, 0, 0, 0], [1, 0]]),
             lambda: basis.contains([1, 0, 0])]
    for call in calls:
        with pytest.raises(ValueError, match=r"vector length \d != n = 4"):
            call()


def _all_monomial_shifts(shape, arr):
    a = np.asarray(arr, dtype=np.int64)
    return [np.roll(np.roll(a, i, axis=0), j, axis=1).reshape(-1)
            for i in range(shape.s) for j in range(shape.ell)]


@st.composite
def _small_ideals(draw):
    F = draw(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(3, 2)]))
    s, ell = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.integers(0, F.q - 1)
    arrs = draw(st.lists(st.lists(st.lists(cell, min_size=ell, max_size=ell),
                                  min_size=s, max_size=s), min_size=1, max_size=3))
    return RingShape(F, s, ell), arrs


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_small_ideals())
def test_closure_is_span_of_all_monomial_shifts(problem):
    sh, arrs = problem
    shifts = [v for arr in arrs for v in _all_monomial_shifts(sh, arr)]
    want = reduced_span(sh.field, sh.n, shifts)
    got = bruteforce_ideal(sh, [BiPoly(sh, arr) for arr in arrs])
    assert np.array_equal(got.vectors, want)
    assert check_shift_closure(sh, got)


def test_missing_quotient_fails_base_divisibility():
    # <1 + y> over GF(2) 2x2 has a zero layer 1, so gens[1] stores no quotient;
    # a nonzero layer 1 in its place must fail the check, not index past the table
    F = GF(2)
    sh = RingShape(F, 2, 2)
    gens = [BiPoly(sh, [[1, 1], [0, 0]])]
    gs = extract_generators(sh, gens)
    assert gs.to_json_dict()["t"] == [[[1], [1]], []]
    L0, L1 = gs.layers
    bad = dataclasses.replace(
        gs, layers=(L0, dataclasses.replace(L1, gen=CyclicPoly(F, [1, 0]), deg=0)),
        gens=(gs.gens[0], BiPoly(sh, [[0, 1], [0, 0]])))
    assert verify_generator_set(bad, gens).to_json_dict() == {"checks": [
        {"name": "gens-in-ideal", "pass": False, "counterexample": [0, 1, 0, 0]},
        {"name": "span-equality", "pass": False, "counterexample": None},
        {"name": "triangular", "pass": True, "counterexample": None},
        {"name": "layer-divides-xs-1", "pass": False, "counterexample": [1]},
        {"name": "base-divisibility", "pass": False, "counterexample": [1, 0]},
        {"name": "canonical-degrees", "pass": False, "counterexample": [1, 0]}]}


def test_stored_quotient_too_long_for_its_coordinate_fails():
    # <1 + x>: the y^1 coordinate of gens[0] is zero, so its quotient must be
    # zero; x times the base has degree s and cannot be any coordinate
    F = GF(2)
    sh, gens = fixture_problem()
    gs = extract_generators(sh, gens)
    t = gs.quotients
    assert [[q.coeffs for q in qs] for qs in t] == [[(1,), ()], [(1,)]]
    bad = dataclasses.replace(gs, quotients=((t[0][0], Poly(F, [0, 1])),) + t[1:])
    assert _failures(verify_generator_set(bad, gens)) == [("base-divisibility", [0, 1])]


def test_rows_sharing_a_leading_cell_pass_through_the_elimination():
    # 1 + x and (1 + x)(1 + y) both lead at cell x^1 y^0: independent, but
    # their rank needs the elimination
    sh, gens = fixture_problem()
    rows = np.array([[1, 0, 1, 0], [1, 1, 1, 1]])
    assert oracle._distinct_leads(sh, rows, 1) == 1
    gm = GeneratorMatrix(sh, rows, ((0, 0), (1, 0)))
    closure = bruteforce_ideal(sh, gens)
    extends = []
    real_extend = oracle._Reducer.extend
    with mock.patch.object(oracle._Reducer, "extend",
                           lambda red, mat: extends.append(len(mat)) or real_extend(red, mat)):
        rep = verify_matrix(gm, closure)
    assert rep.passed and extends == [2]


def _below_lead(rng, sh, vec):
    """vec plus random entries in the cells after its leading cell: the
    leading cells a certificate counts stay as they were."""
    order = oracle._lead_order(sh.s, sh.ell)[0]
    out = np.array(vec)
    lead = int(np.flatnonzero(out[order])[0])
    tail = order[lead + 1:]
    noise = np.array([rng.randrange(sh.field.q) for _ in tail], dtype=np.int64)
    out[tail] = sh.field.add_arrays(out[tail], noise)
    return out


def _corrupted(rng, sh, gs, gm, kind):
    """One of nine corruptions of a GeneratorSet or of its matrix."""
    F = sh.field
    gens, rows, labels = list(gs.gens), gm.rows.copy(), gm.labels
    live = [j for j, p in enumerate(gens) if not p.is_zero]
    stranger = BiPoly(sh, [[rng.randrange(F.q) for _ in range(sh.ell)] for _ in range(sh.s)])
    if kind == "generator perturbed below its leading cell" and live:
        j = rng.choice(live)
        gens[j] = BiPoly.from_vector(sh, _below_lead(rng, sh, gens[j].to_vector("codeword")),
                                     "codeword")
    elif kind == "row perturbed below its leading cell" and gm.k:
        r = rng.randrange(gm.k)
        rows[r] = _below_lead(rng, sh, rows[r])
    elif kind == "random generator" and live:
        gens[rng.choice(live)] = stranger
    elif kind == "dropped generator" and live:
        gens[rng.choice(live)] = BiPoly.zero(sh)
    elif kind == "shifted and scaled generator" and live:
        j = rng.choice(live)
        gens[j] = gens[j].shift_x(rng.randrange(sh.s)).scale(rng.randrange(1, F.q))
    elif kind == "random row" and gm.k:
        rows[rng.randrange(gm.k)] = stranger.to_vector("codeword")
    elif kind == "permuted rows, one a sum of two" and gm.k >= 2:
        rows = rows[rng.sample(range(gm.k), gm.k)]
        a, b = rng.sample(range(gm.k), 2)
        rows[rng.randrange(gm.k)] = F.add_arrays(rows[a], rows[b])
    elif kind == "duplicated row" and gm.k:
        rows, labels = np.vstack([rows, rows[rng.randrange(gm.k)]]), labels + ((9, 9),)
    elif kind == "dropped row" and gm.k:
        d = rng.randrange(gm.k)
        rows, labels = np.delete(rows, d, axis=0), labels[:d] + labels[d + 1:]
    return (dataclasses.replace(gs, gens=tuple(gens)),
            dataclasses.replace(gm, rows=rows, labels=labels))


_CORRUPTIONS = ("none", "random generator", "dropped generator", "shifted and scaled generator",
                "generator perturbed below its leading cell", "random row",
                "permuted rows, one a sum of two", "duplicated row", "dropped row",
                "row perturbed below its leading cell")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_small_ideals(), st.sampled_from(_CORRUPTIONS), st.randoms(use_true_random=False))
def test_reports_match_the_reports_without_certificates(problem, kind, rng):
    sh, arrs = problem
    gens = [BiPoly(sh, arr) for arr in arrs]
    gs = extract_generators(sh, gens)
    gs, gm = _corrupted(rng, sh, gs, generator_matrix(gs), kind)
    closure = bruteforce_ideal(sh, gens)
    got = (verify_generator_set(gs, closure).to_json_dict(),
           verify_matrix(gm, closure).to_json_dict())
    # a count of -1 reaches no dimension, not even the zero ideal's: every span
    # and rank is then closed or eliminated
    with mock.patch.object(oracle, "_distinct_leads", lambda *args: -1):
        want = (verify_generator_set(gs, closure).to_json_dict(),
                verify_matrix(gm, closure).to_json_dict())
    assert got == want


def test_base_divisibility_reports_the_first_failing_pair():
    # <1 + x>: gens[0] made (1 + x)(1 + y) keeps the zero quotient stored for
    # its y^1 coordinate, and gens[1] stores x; the first failing pair,
    # gens[0] at y^1, decides the datum: that stored quotient, []
    F = GF(2)
    sh, gens = fixture_problem()
    gs = extract_generators(sh, gens)
    t = gs.quotients
    bad = dataclasses.replace(gs, gens=(BiPoly(sh, [[1, 1], [1, 1]]), gs.gens[1]),
                              quotients=(t[0], (Poly(F, [0, 1]),)))
    assert _failures(verify_generator_set(bad, gens)) == [
        ("base-divisibility", []), ("canonical-degrees", [1, 1])]


def _reference_layer_checks(gs):
    """The layer-divides-xs-1 and base-divisibility data by the failure
    rule, one layer and one (j, i) pair at a time: each pair takes one Poly
    product and one remainder, and the first failing one is reported."""
    F, s, ell = gs.shape.field, gs.shape.s, gs.shape.ell
    xs1, divides = xs_minus_one(F, s), None
    for L in gs.layers:
        g = L.gen.lift()
        if L.is_zero:
            divides = None if L.deg == s else [L.index]
        elif g.lc != 1 or xs1 % g:
            divides = list(L.gen.coeffs)
        elif L.cofactor * g != xs1:
            divides = list(L.cofactor.coeffs)
        elif L.deg != g.degree:
            divides = [L.deg]
        if divides is not None:
            break
    live = [j for j, L in enumerate(gs.layers) if not L.is_zero]
    if live and live[0] != 0:
        return divides, ["layer 0 empty while the ideal is nonzero"]
    base = gs.layers[0].gen.lift()
    for j in live:
        for i in range(j, ell):
            coord = gs.gens[j].coord(i).lift()
            row = gs.quotients[j]
            q = row[i - j] if i - j < len(row) else None
            if q is not None and q * base == coord:
                continue
            if q is None or coord % base:
                return divides, gs.gens[j].arr[:, i].tolist()
            return divides, list(q.coeffs)
    return divides, None


def _corrupted_layers(rng, sh, gs, kind):
    """One corruption of the layers, the generating polynomials or the
    quotient table of a GeneratorSet, at a random nonzero layer."""
    F, s, ell = sh.field, sh.s, sh.ell
    layers, gens, t = list(gs.layers), list(gs.gens), [list(row) for row in gs.quotients]
    j = rng.choice([j for j, L in enumerate(layers) if not L.is_zero] or range(ell))
    L = layers[j]

    def poly(size):
        return Poly(F, [rng.randrange(F.q) for _ in range(size)])

    if kind == "random quotient" and t[j]:
        t[j][rng.randrange(len(t[j]))] = poly(rng.randint(1, s))
    elif kind == "zero quotient" and t[j]:
        t[j][rng.randrange(len(t[j]))] = Poly(F)
    elif kind == "short quotient row":
        t[j] = t[j][:rng.randrange(len(t[j]) + 1)]
    elif kind == "random generator":
        gens[j] = BiPoly(sh, [[rng.randrange(F.q) for _ in range(ell)] for _ in range(s)])
    elif kind == "shifted and scaled generator":
        gens[j] = gens[j].shift_x(rng.randrange(s)).scale(rng.randrange(1, F.q))
    elif kind == "one changed cell":
        arr = gens[j].to_array()
        arr[rng.randrange(s), rng.randrange(ell)] = rng.randrange(F.q)
        gens[j] = BiPoly(sh, arr)
    elif kind == "layer generator":
        # a random residue, or a multiple of the layer generator that may not be monic
        gen = CyclicPoly(F, [rng.randrange(F.q) for _ in range(s)])
        scaled = L.gen.scale(rng.randrange(1, F.q))
        layers[j] = dataclasses.replace(L, gen=rng.choice([gen, scaled]))
    elif kind == "layer cofactor":
        layers[j] = dataclasses.replace(L, cofactor=poly(rng.randint(0, s + 1)))
    elif kind == "layer degree":
        layers[j] = dataclasses.replace(L, deg=rng.randint(0, s))
    return dataclasses.replace(gs, layers=tuple(layers), gens=tuple(gens),
                               quotients=tuple(tuple(row) for row in t))


_LAYER_CORRUPTIONS = ("random quotient", "zero quotient", "short quotient row",
                      "random generator", "shifted and scaled generator", "one changed cell",
                      "layer generator", "layer cofactor", "layer degree")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_small_ideals(), st.lists(st.sampled_from(_LAYER_CORRUPTIONS), max_size=3),
       st.randoms(use_true_random=False))
def test_layer_checks_match_a_pair_by_pair_reference(problem, kinds, rng):
    sh, arrs = problem
    gens = [BiPoly(sh, arr) for arr in arrs]
    gs = extract_generators(sh, gens)
    for kind in kinds:
        gs = _corrupted_layers(rng, sh, gs, kind)
    data = {c["name"]: c["counterexample"]
            for c in verify_generator_set(gs, gens).to_json_dict()["checks"]}
    assert (data["layer-divides-xs-1"], data["base-divisibility"]) == _reference_layer_checks(gs)


def test_a_verify_pair_closes_its_generators_once():
    """verify_generator_set and then verify_matrix on the same generators
    close them once: the second call finds the closure kept by value."""
    sh = RingShape(GF(3), 2, 5)
    gens = [BiPoly(sh, [[1, 2, 0, 0, 1], [0, 1, 0, 0, 0]])]
    gs = extract_generators(sh, gens)
    gm = generator_matrix(gs)
    with mock.patch.object(oracle, "_Reducer", wraps=oracle._Reducer) as made:
        assert verify_generator_set(gs, gens).passed and verify_matrix(gm, gens).passed
    # both certificates hold here, so the closure is the only elimination
    assert made.call_count == 1


@pytest.mark.parametrize("shapes", [
    (RingShape(GF(2), 2, 3), RingShape(GF(2), 3, 2)),
    (RingShape(GF(2), 2, 3), RingShape(GF(2, 2), 2, 3)),
], ids=["2x3 against 3x2", "GF(2) against GF(4)"])
def test_equal_raw_bytes_under_another_shape_give_another_closure(shapes):
    raw = [[1, 1, 0, 1, 0, 0]]  # gated to the same int64 bytes in both shapes
    first = [bruteforce_ideal(sh, raw) for sh in shapes]
    with mock.patch.object(oracle, "_Reducer", wraps=oracle._Reducer) as made:
        again = [bruteforce_ideal(sh, raw) for sh in shapes]
    assert made.call_count == 0 and [a is b for a, b in zip(first, again)] == [True, True]
    for sh, closure in zip(shapes, first):
        shifts = _all_monomial_shifts(sh, np.reshape(raw, (sh.s, sh.ell)))
        assert closure.shape == sh
        assert np.array_equal(closure.vectors, reduced_span(sh.field, sh.n, shifts))


def test_a_refused_input_is_never_served_from_the_cache():
    sh = RingShape(GF(2), 2, 2)
    assert bruteforce_ideal(sh, [[1, 0, 1, 0]]).dimension == 2
    with pytest.raises(ValueError, match="^entries of dtype float64"):
        bruteforce_ideal(sh, [[1.0, 0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="^generator does not match the ring shape$"):
        bruteforce_ideal(sh, [BiPoly(RingShape(GF(2, 2), 2, 2), [[1, 0], [1, 0]])])
    assert bruteforce_ideal(RingShape(GF(2), 8, 8), []).dimension == 0
    with pytest.raises(BoundsError):
        bruteforce_ideal(RingShape(GF(2), 5, 13), [])


def test_a_kept_closure_is_read_only():
    sh, gens = fixture_problem()
    closure = bruteforce_ideal(sh, gens)
    assert bruteforce_ideal(sh, gens) is closure
    red = closure._reducer
    for a in (closure.vectors, red.rows, red.pivots):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("arr", [
    np.array([[1, 2, 3, 4], [5, 6, 7, 8], [0, -1, 9, 2]]),
    np.array([[True, False, True, True]]),
    np.array([[1, 0, 1, 0]], dtype=np.uint64),
    np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
    np.array([["1", "0", "1", "0"]]),
    np.array([[1, 0, 1], [0, 1, 0]]),
    np.zeros((2, 0), dtype=np.int64),
    np.zeros((0, 3), dtype=np.int64),
], ids=["int", "bool", "uint64", "float", "str", "width 3", "width 0", "no rows"])
def test_a_2d_array_is_gated_whole_as_row_by_row(arr):
    """A 2-D array goes through one make_array call, with the result and the
    refusal that gating it row by row (its rows as a list) gives."""
    F = GF(3)

    def gated(vectors):
        try:
            return oracle._raw_vectors(F, 4, vectors).tolist()
        except ValueError as e:
            return str(e)

    with mock.patch.object(type(F), "make_array", autospec=True,
                           side_effect=type(F).make_array) as make:
        whole = gated(arr)
    assert make.call_count == (1 if len(arr) else 0)
    assert whole == gated(list(arr))
