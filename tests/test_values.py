"""The ring's value types are frozen: Field, Poly, CyclicPoly and BiPoly,
and the results built from them (GeneratorSet, EchelonBasis,
GeneratorMatrix, Decomposition and ClosureBasis), can be neither changed
nor broken by copying, and they compare and hash by value.  Every array a
value holds is read-only and passed one gate where it came in; Field keeps
each exp/log table once, as a read-only array that its scalar operations
read too."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcyclic import (GF, BiPoly, CyclicPoly, EchelonBasis, Field, GeneratorMatrix,
                      GeneratorSet, Poly, RingShape, bruteforce_ideal, cofactor, decompose,
                      extract_generators, generator_matrix, generator_set_from_basis,
                      span_basis, verify_generator_set)

F4 = GF(2, 2)
SHAPE = RingShape(F4, 3, 3)
G = BiPoly(SHAPE, [[1, 1, 0], [1, 1, 0], [0, 0, 0]])

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def _values():
    return {
        "Field": F4,
        "Poly": Poly(F4, [1, 2, 3]),
        "CyclicPoly": CyclicPoly(F4, [0, 3, 1]),
        "BiPoly": BiPoly(SHAPE, [[0, 2, 2], [3, 0, 3], [3, 2, 1]]),
    }


# every field of each class
FIELDS = {
    "Field": ("p", "m", "q", "modulus", "_exp_np", "_log_np"),
    "Poly": ("field", "coeffs"),
    "CyclicPoly": ("field", "coeffs"),
    "BiPoly": ("shape", "arr"),
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_generator_set_survives_copy_and_pickle(trip):
    gs = extract_generators(SHAPE, [G])
    out = ROUND_TRIPS[trip](gs)
    assert out.to_json_dict() == gs.to_json_dict()
    assert out == gs and hash(out) == hash(gs)
    assert all(not g.arr.flags.writeable for g in out.gens)


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_generator_set_keeps_the_basis_it_was_read_off(trip):
    """An engine set keeps its basis, through copies and pickles too; a set
    read off a caller's basis, a hand-built set and a dataclasses.replace
    copy carry none.  The basis is derived state: equality, hash, repr and
    to_json_dict ignore it."""
    gs = extract_generators(SHAPE, [G])
    assert gs.basis == span_basis(SHAPE, [G])
    out = ROUND_TRIPS[trip](gs)
    assert out == gs and out.basis == gs.basis
    for bare in (GeneratorSet(gs.shape, gs.layers, gs.gens, gs.quotients),
                 dataclasses.replace(gs), generator_set_from_basis(gs.basis)):
        assert bare.basis is None
        assert bare == gs and hash(bare) == hash(gs) and repr(bare) == repr(gs)
        assert bare.to_json_dict() == gs.to_json_dict()
    assert "basis" not in repr(gs)


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_decomposition_survives_copy_and_pickle(trip):
    gs = extract_generators(SHAPE, [G])
    member = G * BiPoly(SHAPE, [[1, 2, 0], [0, 3, 1], [2, 0, 1]])
    dec = decompose(member, gs, want_trace=True)
    out = ROUND_TRIPS[trip](dec)
    assert out.coeffs == dec.coeffs
    assert [h.arr.tolist() for h in out.trace] == [h.arr.tolist() for h in dec.trace]
    assert out == dec and hash(out) == hash(dec)
    assert all(not h.arr.flags.writeable for h in out.trace)


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("kind", FIELDS)
def test_values_come_back_equal_and_hash_equal(kind, trip):
    value = _values()[kind]
    out = ROUND_TRIPS[trip](value)
    assert type(out) is type(value)
    assert out == value and hash(out) == hash(value)


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_arrays_stay_read_only_through_copy_and_pickle(trip):
    assert not ROUND_TRIPS[trip](_values()["BiPoly"]).arr.flags.writeable
    out = ROUND_TRIPS[trip](F4)
    assert not out._exp_np.flags.writeable and not out._log_np.flags.writeable


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_basis_and_matrix_stay_read_only_through_copy_and_pickle(trip):
    basis = span_basis(SHAPE, [G])
    out = ROUND_TRIPS[trip](basis)
    assert out.shape == basis.shape and out.pivots == basis.pivots
    assert out.matrix.tolist() == basis.matrix.tolist() and not out.matrix.flags.writeable
    assert out == basis and hash(out) == hash(basis)
    gm = generator_matrix(extract_generators(SHAPE, [G]))
    out = ROUND_TRIPS[trip](gm)
    assert out.shape == gm.shape and out.labels == gm.labels
    assert out.rows.tolist() == gm.rows.tolist() and not out.rows.flags.writeable
    assert out == gm and hash(out) == hash(gm)
    closure = bruteforce_ideal(SHAPE, [G])
    out = ROUND_TRIPS[trip](closure)
    assert out.vectors.tolist() == closure.vectors.tolist() and not out.vectors.flags.writeable
    assert out == closure and hash(out) == hash(closure)
    assert out.contains(G) and out.dimension == closure.dimension


def test_basis_keeps_a_read_only_copy_of_its_own():
    """A hand-built basis copies what it is given: the caller's array, or
    the base of a view, stays writable and cannot change the basis, and a
    nested list works."""
    rows = [[1, 1, 0, 0], [0, 0, 1, 0]]
    shape = RingShape(GF(2), 2, 2)
    big = np.array(rows + [[0, 0, 0, 1]])
    for given in (big[:2], np.array(rows), rows):
        basis = EchelonBasis(shape, given, (1, 2))
        assert basis.matrix.tolist() == rows and not basis.matrix.flags.writeable
        if isinstance(given, np.ndarray):
            assert given.flags.writeable
            given[0, 0] = 0
            assert basis.matrix.tolist() == rows
    assert big.flags.writeable


def test_basis_refuses_a_matrix_of_another_shape():
    """The matrix must have shape (len(pivots), n); float, string and None
    entries are refused in the value-gate table of test_gf.py."""
    shape = RingShape(GF(2), 2, 2)
    for matrix, pivots in (([[1, 0, 1]], (0,)), ([[1, 0, 1, 0]], (0, 2)), ([1, 0, 1, 0], (0,))):
        with pytest.raises(ValueError, match="^matrix of shape"):
            EchelonBasis(shape, matrix, pivots)


def test_basis_refuses_pivots_its_matrix_contradicts():
    """Each pivot must be its row's first nonzero entry in the engine's
    pivot order: with the pivots of <1 + x> swapped, the basis answered
    contains False for both of its own rows."""
    shape = RingShape(GF(2), 2, 2)
    basis = span_basis(shape, [BiPoly(shape, [[1, 0], [1, 0]])])
    assert basis.pivots == (1, 3)
    assert EchelonBasis(shape, basis.matrix, (1, 3)) == basis
    for matrix, pivots in ((basis.matrix, (3, 1)), (basis.matrix, (0, 2)),
                           ([[1, 1, 0, 0], [0, 0, 0, 0]], (1, 2))):
        with pytest.raises(ValueError, match="^pivots do not match"):
            EchelonBasis(shape, matrix, pivots)


def test_basis_refuses_rows_out_of_the_engines_order():
    """The rows must come in the engine's pivot order: <1 + x> at s = 4,
    ell = 1 with its rows permuted, each pivot still its row's leading
    entry, would read off the layer generator 1 + x^2 and k = 2."""
    shape = RingShape(GF(2), 4, 1)
    basis = span_basis(shape, [BiPoly(shape, [[1], [1], [0], [0]])])
    assert basis.pivots == (3, 2, 1)
    assert generator_set_from_basis(basis).layers[0].gen.coeffs == (1, 1, 0, 0)
    with pytest.raises(ValueError, match="^rows are not in the engine's pivot order$"):
        EchelonBasis(shape, basis.matrix[[2, 0, 1]], (1, 3, 2))


def test_a_failing_report_hashes():
    """A Report hashes by value, a failing one too: its counterexamples are
    tuples, printed as JSON lists."""
    shape = RingShape(GF(2), 2, 2)
    gs = extract_generators(shape, [BiPoly.one(shape)])
    g = BiPoly(shape, [[1, 0], [1, 0]])
    report = verify_generator_set(gs, [g])
    assert not report.passed
    assert report == verify_generator_set(gs, [g])
    assert hash(report) == hash(verify_generator_set(gs, [g]))
    assert hash(report) != hash(verify_generator_set(gs, [BiPoly.one(shape)]))
    bad = report.first_failure()
    assert bad.name == "gens-in-ideal" and bad.counterexample == (1, 0, 0, 0)
    assert report.to_json_dict()["checks"][0]["counterexample"] == [1, 0, 0, 0]


def test_closure_vectors_are_read_only():
    closure = bruteforce_ideal(SHAPE, [G])
    with pytest.raises(ValueError):
        closure.vectors[0] = 0
    assert closure.vectors.any()


def test_labels_and_pivots_are_tuples():
    """Lists given for labels or pivots are kept as tuples, so appending to
    the caller's list changes neither k nor the pivots."""
    shape = RingShape(GF(2), 2, 2)
    labels, pivots = [[0, 0]], [0]
    gm = GeneratorMatrix(shape, [[1, 0, 1, 0]], labels)
    basis = EchelonBasis(shape, [[1, 0, 1, 0]], pivots)
    labels.append([0, 1])
    pivots.append(1)
    assert gm.k == 1 and gm.labels == ((0, 0),) and basis.pivots == (0,)
    assert gm == GeneratorMatrix(shape, [[1, 0, 1, 0]], ((0, 0),))
    assert hash(gm) == hash(GeneratorMatrix(shape, [[1, 0, 1, 0]], ((0, 0),)))


@st.composite
def _presentations(draw):
    """An ideal of at most 64 cells over GF(2), GF(3) or GF(4), given twice:
    by 1-2 generators, and by the same generators shifted and scaled plus
    one member of the ideal; and one more element h."""
    F = draw(st.sampled_from((GF(2), GF(3), GF(2, 2))))
    s = draw(st.integers(1, 8))
    ell = draw(st.integers(1, 64 // s))
    sh = RingShape(F, s, ell)
    row = st.lists(st.integers(0, F.q - 1), min_size=ell, max_size=ell)
    elem = st.lists(row, min_size=s, max_size=s).map(lambda a: BiPoly(sh, a))
    gens = draw(st.lists(elem, min_size=1, max_size=2))
    moved = [g.shift_x(draw(st.integers(0, s - 1))).shift_y(draw(st.integers(0, ell - 1)))
             .scale(draw(st.integers(1, F.q - 1))) for g in gens]
    member = sum((g * draw(elem) for g in gens), BiPoly.zero(sh))
    return sh, gens, moved + [member], draw(elem)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_presentations())
def test_one_ideal_gives_equal_values_and_another_unequal_ones(problem):
    """Two presentations of one ideal give equal, hash-equal results; adding
    h gives equal ones exactly when the oracle finds h in the ideal."""
    sh, gens, moved, h = problem

    def results(generators):
        basis = span_basis(sh, generators)
        gs = generator_set_from_basis(basis)
        return gs, basis, generator_matrix(gs), bruteforce_ideal(sh, generators)

    first = results(gens)
    for a, b in zip(first, results(moved)):
        assert a == b and hash(a) == hash(b)
    inside = first[3].contains(h)
    for a, b in zip(first, results(gens + [h])):
        assert (a == b) is inside


@pytest.mark.parametrize("kind", FIELDS)
def test_fields_cannot_be_assigned_or_deleted(kind):
    value = _values()[kind]
    before = {name: getattr(value, name) for name in FIELDS[kind]}
    for name in FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(value, name, 9)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for name, v in before.items():
        assert getattr(value, name) is v
    assert not hasattr(value, "__dict__")


def test_refused_assignment_leaves_the_cached_field_as_it_was():
    with pytest.raises(AttributeError):
        GF(3).q = 9
    assert GF(3).q == 3 and GF(3).add(2, 2) == 1


def test_refused_delete_leaves_a_cached_cofactor_intact():
    g = Poly(GF(2), [1, 1])
    with pytest.raises(AttributeError):
        del cofactor(g, 3).coeffs
    assert cofactor(g, 3).coeffs == (1, 1, 1)


@pytest.mark.parametrize("table", ["_exp_np", "_log_np"])
def test_field_tables_are_read_only(table):
    t = getattr(GF(3, 2), table)
    before = t.tolist()
    with pytest.raises(ValueError):
        t[1] += 1
    assert t.tolist() == before


def test_equality_rules():
    assert Poly(F4, [1, 2]) != CyclicPoly(F4, [1, 2])
    assert CyclicPoly(F4, [1, 2]) != Poly(F4, [1, 2])
    assert (Poly(F4, [1]) == 1) is False
    assert Poly(F4, [1, 2, 0]) == Poly(F4, [1, 2]) != Poly(GF(3), [1, 2])
    assert hash(Poly(F4, [1, 2, 0])) == hash(Poly(F4, [1, 2]))
    assert hash(CyclicPoly(F4, [5, 2])) == hash(CyclicPoly(F4, [1, 2]))
    assert GF(3, 2) == Field(3, 2, [1, 0, 1]) != Field(3, 2, [2, 2, 1])
    assert hash(GF(3, 2)) == hash(Field(3, 2, [1, 0, 1]))
    a = BiPoly(SHAPE, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert a == BiPoly.one(SHAPE) and hash(a) == hash(BiPoly.one(SHAPE))
    assert a != BiPoly.one(RingShape(GF(2), 3, 3))

