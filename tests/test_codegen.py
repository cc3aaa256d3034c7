import dataclasses
import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdcyclic import (CODEWORD, GF, BiPoly, CodeParams, Field, GeneratorMatrix, Poly, RingShape,
                      TooLargeError, bruteforce_ideal, check_shift_closure,
                      code_params, decompose, dimension, encode, enumerate_span,
                      extract_generators, gcd, generator_matrix, min_distance,
                      reduced_span, xs_minus_one)
from tdcyclic import codegen, ideal
from tdcyclic.codegen import matrix_csv, matrix_json_dict, matrix_text
from tdcyclic.ring2d import _GATHER_ELEMS
from conftest import random_generators

F2 = GF(2)


def fixture_gs():
    sh = RingShape(F2, 2, 2)
    gens = [BiPoly(sh, [[1, 0], [1, 0]])]
    return sh, gens, extract_generators(sh, gens)


def test_matrix_fixture():
    sh, gens, gs = fixture_gs()
    gm = generator_matrix(gs)
    assert gm.rows.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert gm.labels == ((0, 0), (1, 0))
    assert gm.k == 2 and gm.n == 4


def test_matrix_trivial_ideals():
    sh = RingShape(F2, 2, 2)
    unit = generator_matrix(extract_generators(sh, [BiPoly.one(sh)]))
    assert unit.k == 4
    assert reduced_span(F2, 4, unit.rows).shape[0] == 4
    zero = generator_matrix(extract_generators(sh, []))
    assert zero.rows.shape == (0, 4) and zero.labels == ()


def test_dimension_examples():
    sh, gens, gs = fixture_gs()
    assert dimension(gs) == 2
    sh2 = RingShape(F2, 2, 2)
    assert dimension(extract_generators(sh2, [BiPoly.one(sh2)])) == 4
    assert dimension(extract_generators(sh2, [])) == 0


def test_rows_are_shifted_generators():
    rng = random.Random(83)
    for _ in range(10):
        F = GF(rng.choice([2, 3]))
        sh = RingShape(F, rng.randint(1, 4), rng.randint(1, 4))
        gs = extract_generators(sh, random_generators(rng, sh))
        gm = generator_matrix(gs)
        for row, (j, a) in zip(gm.rows, gm.labels):
            expect = gs.gens[j].shift_x(a).to_vector(CODEWORD)
            assert row.tolist() == expect.tolist()


def test_rank_equals_k_random():
    rng = random.Random(89)
    for _ in range(15):
        q = rng.choice([2, 3, 4])
        F = GF(2, 2) if q == 4 else GF(q)
        sh = RingShape(F, rng.randint(1, 5), rng.randint(1, 5))
        gs = extract_generators(sh, random_generators(rng, sh))
        gm = generator_matrix(gs)
        assert reduced_span(F, sh.n, gm.rows).shape[0] == gm.k == dimension(gs)


def test_row_space_shift_closed():
    rng = random.Random(97)
    for _ in range(10):
        F = GF(rng.choice([2, 3]))
        sh = RingShape(F, rng.randint(1, 4), rng.randint(1, 4))
        gs = extract_generators(sh, random_generators(rng, sh))
        gm = generator_matrix(gs)
        assert check_shift_closure(sh, gm.rows)


def test_encode_examples():
    sh, gens, gs = fixture_gs()
    gm = generator_matrix(gs)
    assert encode(gm, [0, 0]).tolist() == [0, 0, 0, 0]
    assert encode(gm, [1, 0]).tolist() == [1, 0, 1, 0]
    assert encode(gm, [1, 1]).tolist() == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        encode(gm, [1, 0, 0])


def test_encode_names_the_shape_of_a_wrong_message():
    """A (1, k) message has k entries, but it is not a length-k vector:
    the refusal says its shape, not only its length."""
    sh, gens, gs = fixture_gs()
    gm = generator_matrix(gs)
    with pytest.raises(ValueError, match=r"^message of shape \(1, 2\) does not match "
                                         r"\(k,\) = \(2,\)$"):
        encode(gm, [[1, 0]])
    with pytest.raises(ValueError, match=r"^message of shape \(3,\) does not match"):
        encode(gm, [1, 0, 0])


def test_encode_output_is_member():
    rng = random.Random(101)
    for _ in range(10):
        F = GF(rng.choice([2, 3]))
        sh = RingShape(F, rng.randint(1, 4), rng.randint(1, 4))
        gs = extract_generators(sh, random_generators(rng, sh))
        gm = generator_matrix(gs)
        if gm.k == 0:
            continue
        msg = [rng.randrange(F.q) for _ in range(gm.k)]
        word = BiPoly.from_vector(sh, encode(gm, msg), CODEWORD)
        decompose(word, gs)  # raises NotMember on failure


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_decompose_of_encode_returns_the_message(data):
    """decompose(encode(gm, m), gs) is m laid out by gm.labels: coefficient
    a of q_j is the entry labelled (j, a), every other coefficient is 0."""
    F = data.draw(st.sampled_from([F2, GF(3), GF(2, 2), GF(5), GF(3, 2)]))
    sh = RingShape(F, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    gens = random_generators(random.Random(data.draw(st.integers(0, 2**32))), sh)
    gs = extract_generators(sh, gens)
    gm = generator_matrix(gs)
    msg = data.draw(st.lists(st.integers(0, F.q - 1), min_size=gm.k, max_size=gm.k))
    want = [[0] * sh.s for _ in range(sh.ell)]
    for (j, a), c in zip(gm.labels, msg):
        want[j][a] = c
    word = BiPoly.from_vector(sh, encode(gm, np.array(msg, dtype=np.int64)), CODEWORD)
    for want_trace in (False, True):
        dec = decompose(word, gs, want_trace=want_trace)
        assert [list(q.coeffs) for q in dec.coeffs] == want


def test_min_distance_examples():
    sh, gens, gs = fixture_gs()
    assert min_distance(generator_matrix(gs)) == 2
    unit = extract_generators(sh, [BiPoly.one(sh)])
    assert min_distance(generator_matrix(unit)) == 1
    zero = generator_matrix(extract_generators(sh, []))
    with pytest.raises(ValueError):
        min_distance(zero)
    with pytest.raises(TooLargeError):
        min_distance(generator_matrix(unit), cap=3)
    # hand-built matrices: the search runs on the rank of the rows
    for k in (1, 3):
        with pytest.raises(ValueError):
            min_distance(GeneratorMatrix(sh, np.zeros((k, sh.n), dtype=np.int64), ((0, 0),) * k))
    gm = generator_matrix(gs)
    repeated = GeneratorMatrix(sh, gm.rows[[0, 1, 0]], gm.labels + gm.labels[:1])
    assert min_distance(repeated) == 2
    # rows must match (len(labels), n); entries are taken mod q
    with pytest.raises(ValueError):
        GeneratorMatrix(sh, gm.rows[:, :3], gm.labels)
    with pytest.raises(ValueError):
        GeneratorMatrix(sh, gm.rows, gm.labels[:1])
    sh9 = RingShape(GF(3, 2), 3, 2)
    gm9 = generator_matrix(extract_generators(sh9, [BiPoly(sh9, [[1, 1], [1, 1], [0, 0]])]))
    assert min_distance(gm9) == 2
    assert min_distance(GeneratorMatrix(sh9, gm9.rows + 9, gm9.labels)) == 2


def test_min_distance_matches_exhaustive_codeword_scan():
    rng = random.Random(103)
    for _ in range(8):
        F = GF(rng.choice([2, 3]))
        sh = RingShape(F, rng.randint(1, 3), rng.randint(1, 3))
        gs = extract_generators(sh, random_generators(rng, sh))
        gm = generator_matrix(gs)
        if gm.k == 0:
            continue
        best = sh.n + 1
        msg = [0] * gm.k
        # odometer over all messages, brute force
        while True:
            i = 0
            while i < gm.k:
                msg[i] += 1
                if msg[i] < F.q:
                    break
                msg[i] = 0
                i += 1
            if i == gm.k:
                break
            w = int(np.count_nonzero(encode(gm, msg)))
            best = min(best, w)
        assert min_distance(gm) == best


def _product_code(F, s, ell, a, b):
    """<a(x) b(y)> from ascending coefficient lists a and b."""
    sh = RingShape(F, s, ell)
    arr = [[F.mul(a[i], b[j]) if i < len(a) and j < len(b) else 0
            for j in range(ell)] for i in range(s)]
    return sh, [BiPoly(sh, arr)]


def test_min_distance_matches_oracle_span():
    """d against the least nonzero weight of the oracle's own enumeration
    of the ideal, which shares no code with min_distance."""
    F3, F4 = GF(3), GF(2, 2)
    # the two GF(2) k=16 codes are also checked on a second basis
    rebased = [
        _product_code(F2, 5, 5, [1, 1], [1, 1]),  # k=16, d=4
        _product_code(F2, 4, 4, [1], [1]),        # the whole ring: k=16, d=1
    ]
    cases = rebased + [
        _product_code(F3, 3, 4, [1, 1], [1, 0, 1]),
        _product_code(F4, 3, 3, [1, 1], [1]),
    ]
    folded = 0
    rng = random.Random(109)
    while len(cases) < 34:
        F = rng.choice([F2, F3, F4])
        sh = RingShape(F, rng.randint(1, 4), rng.randint(1, 4))
        cases.append((sh, random_generators(rng, sh)))
    for i, (sh, gens) in enumerate(cases):
        gm = generator_matrix(extract_generators(sh, gens))
        if gm.k == 0 or sh.field.q**gm.k > 1 << 16:
            continue
        span = enumerate_span(bruteforce_ideal(sh, gens))
        weights = np.count_nonzero(span, axis=1)
        d = int(weights[weights > 0].min())
        assert min_distance(gm) == d, (sh, gm.rows)
        if i < len(rebased):
            # the same code on the basis r_i + r_k (i < k), r_k: d belongs
            # to the code, so it must not depend on the basis
            rows = gm.rows.copy()
            rows[:-1] = sh.field.add_arrays(rows[:-1], rows[-1])
            assert min_distance(GeneratorMatrix(sh, rows, gm.labels)) == d
            folded += 1
    assert folded == 2


@st.composite
def _full_rank_matrices(draw):
    """A full-rank k x n matrix over GF(2), GF(3), GF(4) or GF(5), k <= 6,
    n <= 14, whose columns are random, zero or scaled copies of earlier
    columns; the last two keep most of the rows from being shift-closed,
    as the rows of a code of the ring are."""
    fld = draw(st.sampled_from([F2, GF(3), GF(2, 2), GF(5)]))
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, 14))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy"]))
        if kind == "zero":
            cols.append([0] * k)
        elif kind == "copy" and cols:
            c = draw(st.integers(1, fld.q - 1))
            cols.append([fld.mul(c, v) for v in draw(st.sampled_from(cols))])
        else:
            cols.append(draw(st.lists(st.integers(0, fld.q - 1), min_size=k, max_size=k)))
    rows = np.array(cols, dtype=np.int64).T.copy()
    assume(reduced_span(fld, n, rows).shape[0] == k)
    return fld, rows


def _least_weight_of_all_messages(fld, rows):
    msgs = np.array(list(itertools.product(range(fld.q), repeat=len(rows)))[1:])
    words = np.zeros((len(msgs), rows.shape[1]), dtype=np.int64)
    for j, row in enumerate(rows):
        words = fld.add_arrays(words, fld.mul_arrays(msgs[:, j:j + 1], row))
    return int(np.count_nonzero(words, axis=1).min())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_full_rank_matrices(), st.sampled_from([1, 20, 300, _GATHER_ELEMS]))
# two codes (d=2) whose rows are not shift-closed: the averaging bound
# ceil(n (w + 1) / k), taken without the closure test, stops too early on them
@example((GF(2, 2), np.array([[2, 2, 0, 2, 3, 1, 1, 0], [0, 1, 2, 0, 1, 2, 2, 0],
                              [0, 0, 1, 0, 2, 3, 2, 0], [2, 1, 1, 0, 1, 2, 0, 0]])),
         _GATHER_ELEMS)
@example((GF(5), np.array([[2, 0, 4, 4, 2, 0, 0, 0, 2], [4, 2, 1, 3, 3, 1, 0, 0, 1],
                           [0, 4, 0, 0, 0, 1, 4, 0, 0], [0, 4, 1, 0, 2, 1, 1, 0, 0],
                           [1, 3, 2, 2, 4, 4, 4, 0, 1]])),
         _GATHER_ELEMS)
def test_min_distance_matches_all_messages_on_random_matrices(code, budget):
    """d of arbitrary full-rank matrices, not only cyclic codes, against
    the least weight over all q^k - 1 nonzero messages.  Budgets below
    one level's size split every level into chunks."""
    fld, rows = code
    k, n = rows.shape
    gm = GeneratorMatrix(RingShape(fld, n, 1), rows, tuple((0, a) for a in range(k)))
    with mock.patch.object(codegen, "_GATHER_ELEMS", budget):
        assert min_distance(gm) == _least_weight_of_all_messages(fld, rows)


@pytest.mark.parametrize("budget", [1, 9, 40, _GATHER_ELEMS])
def test_levels_hold_each_message_once(budget):
    """Level w holds the codeword of every message of weight w whose first
    nonzero coefficient is 1, once, with the index of its last nonzero
    coefficient; chunks fit the budget and are sorted by that index."""
    rng = random.Random(budget)
    k, n = 5, 4
    for fld in (F2, GF(3), GF(2, 2)):
        rows = np.array([[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)])
        gm = GeneratorMatrix(RingShape(fld, n, 1), rows, tuple((0, a) for a in range(k)))
        for w in range(1, k + 1):
            got = []
            for words, last in codegen._level(fld, rows, w, budget):
                assert words.size <= max(budget, n)
                assert np.all(np.diff(last) >= 0)
                got += [(tuple(word), int(t)) for word, t in zip(words.tolist(), last)]
            want = []
            for msg in itertools.product(range(fld.q), repeat=k):
                support = np.flatnonzero(msg)
                if len(support) == w and msg[support[0]] == 1:
                    want.append((tuple(encode(gm, msg).tolist()), int(support[-1])))
            assert sorted(got) == sorted(want), (fld, w)


def test_min_distance_stops_early(monkeypatch):
    """GF(2) 5x5 <x+1>: k=20, n=25, d=2, q^k at the 2^20 cap.  The
    information sets prove d=2 from a few hundred words at most, far
    fewer elements through field addition than all q^k codewords."""
    sh, gens = _product_code(F2, 5, 5, [1, 1], [1])
    gm = generator_matrix(extract_generators(sh, gens))
    assert (gm.k, gm.n) == (20, 25)
    elems = []
    add_arrays = Field.add_arrays

    def counting_add_arrays(self, a, b):
        elems.append(np.broadcast(a, b).size)
        return add_arrays(self, a, b)

    monkeypatch.setattr(Field, "add_arrays", counting_add_arrays)
    assert min_distance(gm) == 2
    assert sum(elems) < 1 << 16


def test_min_distance_memory_bounded():
    """The peak stays within three arrays of the 2^19-element chunk
    budget, 12 MB, plus 1 MB for everything else; the bound is the same
    over every field.  Two codes reach the budget: Golay23 x [4, 3]
    (k=36, n=92), whose top levels span many chunks, and a hand-built
    GF(2) [400, 20] code whose level 3 fits one chunk and level 4 does
    not.  The others stay far below it: GF(2) 16x16 <(x+1)^15 (y+1)^2>
    (k=14, n=256), and the 1x8 repetition codes over the two largest
    fields, GF(2^16) and GF(3^10)."""
    sh = RingShape(F2, 16, 16)
    arr = [[1 if j in (0, 2) else 0 for j in range(16)] for _ in range(16)]
    # d = 16 * 2: the code is a product of [16, 1, 16] and [16, 14, 2]
    codes = [(generator_matrix(extract_generators(sh, [BiPoly(sh, arr)])), 14, 256, 32)]
    for fld in (GF(2, 16), GF(3, 10)):
        sh = RingShape(fld, 1, 8)
        gm = generator_matrix(extract_generators(sh, [BiPoly(sh, [[1] * 8])]))
        codes.append((gm, 1, 8, 8))
    sh, gens = _product_code(F2, 23, 4, GOLAY23, [1, 1])
    codes.append((generator_matrix(extract_generators(sh, gens)), 36, 92, 14))
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 2, (20, 400))
    rows[0] = 0
    rows[0, rng.choice(400, 5, replace=False)] = 1  # d = 5, from row 0
    codes.append((GeneratorMatrix(RingShape(F2, 400, 1), rows, tuple((0, a) for a in range(20))),
                  20, 400, 5))
    for gm, k, n, d in codes:
        assert (gm.k, gm.n) == (k, n)
        tracemalloc.start()
        try:
            got = min_distance(gm, cap=gm.shape.field.q**k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == d
        assert peak < 3 * _GATHER_ELEMS * 8 + (1 << 20), (gm.shape.field, peak)


HAMMING7 = [1, 1, 0, 1]                      # 1 + x + x^3: [7, 4, 3]
BCH15_7 = [1, 0, 0, 0, 1, 0, 1, 1, 1]        # 1 + x^4 + x^6 + x^7 + x^8: [15, 7, 5]
GOLAY23 = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]  # [23, 12, 7]


@pytest.mark.parametrize("s,ell,gx,gy,k,d", [
    (7, 7, HAMMING7, HAMMING7, 16, 9),
    (15, 7, BCH15_7, HAMMING7, 28, 15),
    (23, 3, GOLAY23, [1, 1], 24, 14),  # Golay23 x [3, 2]
    (15, 9, BCH15_7, [1, 1], 56, 10),  # BCH[15,7] x [9, 8]
    (23, 4, GOLAY23, [1, 1], 36, 14),  # Golay23 x [4, 3]
    (6, 6, [1, 1], [1], 30, 2),        # [6, 5, 2] x [6, 6, 1]
])
def test_product_code_distances(s, ell, gx, gy, k, d):
    """<gx(x) gy(y)> over GF(2) is the product of two cyclic codes, whose
    minimum distance is the product of theirs."""
    sh, gens = _product_code(F2, s, ell, gx, gy)
    gm = generator_matrix(extract_generators(sh, gens))
    assert gm.k == k
    assert min_distance(gm, cap=1 << k) == d


@pytest.mark.parametrize("s,ell,gx,gy,top", [
    (7, 7, HAMMING7, HAMMING7, 2),
    (15, 7, BCH15_7, HAMMING7, 3),
    (23, 3, GOLAY23, [1, 1], 4),
    (15, 9, BCH15_7, [1, 1], 3),
    (23, 4, GOLAY23, [1, 1], 5),
    (6, 6, [1, 1], [1], 1),
])
def test_min_distance_stops_at_the_first_level_whose_bound_reaches_d(monkeypatch, s, ell,
                                                                      gx, gy, top):
    """The highest level the search builds.  After level w the bound on a
    shift-closed code is ceil(n (w + 1) / k): Golay23 x [4, 3] (n=92, k=36,
    d=14) has 13 after level 4 and 16 after level 5, so it must build
    level 5.  A search that stops one level early still finds d on every
    code here, so d alone cannot tell it apart."""
    sh, gens = _product_code(F2, s, ell, gx, gy)
    gm = generator_matrix(extract_generators(sh, gens))
    built = []
    level = codegen._level

    def recording_level(fld, rows, w, *args):
        built.append(w)
        return level(fld, rows, w, *args)

    monkeypatch.setattr(codegen, "_level", recording_level)
    min_distance(gm, cap=1 << gm.k)
    assert max(built) == top


@pytest.mark.parametrize("s,ell,gx,gy,d,tests", [
    (6, 6, [1, 1], [1], 2, 0),       # settled by w + 1 = 2 at level 1
    (23, 3, GOLAY23, [1, 1], 14, 1),  # Golay23 x [3, 2] needs the averaging bound
])
def test_min_distance_tests_shift_closure_only_when_w_plus_one_falls_short(
        monkeypatch, s, ell, gx, gy, d, tests):
    """The closure test runs once, the first time a level ends with the
    least weight seen above w + 1, and never on a code that w + 1 settles."""
    sh, gens = _product_code(F2, s, ell, gx, gy)
    gm = generator_matrix(extract_generators(sh, gens))
    calls = []
    shift_closed = codegen._shift_closed

    def counting_shift_closed(*args):
        calls.append(args)
        return shift_closed(*args)

    monkeypatch.setattr(codegen, "_shift_closed", counting_shift_closed)
    assert min_distance(gm, cap=1 << gm.k) == d
    assert len(calls) == tests


def test_min_distance_counts_a_shift_image_from_the_first_sets_levels():
    """GF(2) 3x6, one generator: k=6, n=18, d=6 by the oracle's own
    enumeration.  Level 1 of its one set has least weight 8, and the
    weight-6 words appear at level 2.  The averaging bound counts the
    shifts of the words seen from the levels done: ceil(18 * 2 / 6) = 6
    after level 1.  Counted one level early, ceil(18 * 3 / 6) = 9, it
    stops at level 1 and returns 8."""
    sh = RingShape(F2, 3, 6)
    gens = [BiPoly(sh, [[0, 1, 1, 1, 1, 0], [0, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 0]])]
    gm = generator_matrix(extract_generators(sh, gens))
    assert (gm.k, gm.n) == (6, 18)
    span = enumerate_span(bruteforce_ideal(sh, gens))
    weights = np.count_nonzero(span, axis=1)
    assert int(weights[weights > 0].min()) == 6
    assert min_distance(gm) == 6


def test_min_distance_eliminates_once_when_the_first_set_settles_d(monkeypatch):
    """The search eliminates once, for its one information set, whether
    w + 1 settles d (GF(2) 5x5 <x+1>: k=20, d=2) or the averaging bound
    does after the closure test (Golay23 x [3, 2]: k=24, d=14)."""
    calls = []
    rref = codegen._rref

    def counting_rref(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(codegen, "_rref", counting_rref)
    for s, ell, gx, gy, d in ((5, 5, [1, 1], [1], 2), (23, 3, GOLAY23, [1, 1], 14)):
        sh, gens = _product_code(F2, s, ell, gx, gy)
        gm = generator_matrix(extract_generators(sh, gens))
        calls.clear()
        assert min_distance(gm, cap=1 << gm.k) == d
        assert len(calls) == 1


def test_rows_not_closed_under_shifts_keep_the_one_set_bound():
    """A cyclic code's generator matrix with its last row replaced by a
    vector outside the code spans no code of the ring: the closure test
    says so, the search keeps the bound w + 1, and d is still exact."""
    rng = random.Random(127)
    for _ in range(20):
        F = rng.choice([F2, GF(3)])
        while True:
            sh = RingShape(F, rng.randint(2, 4), rng.randint(2, 4))
            gm = generator_matrix(extract_generators(sh, random_generators(rng, sh)))
            if 2 <= gm.k < gm.n and F.q**gm.k <= 1 << 12:
                break
        assert codegen._shift_closed(sh, *codegen._rref(gm.rows.copy(), F, range(gm.n)))
        rows = gm.rows.copy()
        while True:
            rows[-1] = [rng.randrange(F.q) for _ in range(gm.n)]
            if reduced_span(F, gm.n, np.vstack([gm.rows, rows[-1:]])).shape[0] > gm.k:
                break
        assert not check_shift_closure(sh, rows)
        assert not codegen._shift_closed(sh, *codegen._rref(rows.copy(), F, range(gm.n)))
        assert min_distance(GeneratorMatrix(sh, rows, gm.labels)) == \
            _least_weight_of_all_messages(F, rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([1, 20, 300, _GATHER_ELEMS]))
def test_min_distance_matches_oracle_on_random_ideals(data, budget):
    """d of random ideals, against the least nonzero weight of the
    oracle's enumeration of the ideal.  Multiplying the generators by
    (x - 1)^a (y - 1)^b keeps many ideals away from the whole ring, so
    the search often needs the averaging bound to stop."""
    F = data.draw(st.sampled_from([F2, GF(3), GF(2, 2), GF(5), GF(2, 3), GF(3, 2)]))
    sh = RingShape(F, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    gens = random_generators(random.Random(data.draw(st.integers(0, 2**32))), sh)
    factor = BiPoly.one(sh)
    for i, j in ((1, 0), (0, 1)):
        if i < sh.s and j < sh.ell:  # x - 1 is zero when s = 1, y - 1 when ell = 1
            monomial_minus_one = np.zeros((sh.s, sh.ell), dtype=np.int64)
            monomial_minus_one[0, 0], monomial_minus_one[i, j] = F.neg(1), 1
            for _ in range(data.draw(st.integers(0, 2))):
                factor = factor * BiPoly(sh, monomial_minus_one)
    gens = [g * factor for g in gens]
    gm = generator_matrix(extract_generators(sh, gens))
    assume(gm.k > 0 and F.q**gm.k <= 1 << 12)
    span = enumerate_span(bruteforce_ideal(sh, gens))
    weights = np.count_nonzero(span, axis=1)
    with mock.patch.object(codegen, "_GATHER_ELEMS", budget):
        assert min_distance(gm) == int(weights[weights > 0].min())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_code_params_on_the_basis_matches_the_generator_matrix(data):
    """code_params searches an engine set on the reduced basis it was read
    off, as it stands: in INTERNAL order, systematic on its pivots, known
    to be shift-closed.  A copy by dataclasses.replace, which carries no
    basis, goes through its generator matrix: d is the same both ways, and
    min_distance's."""
    F = data.draw(st.sampled_from([F2, GF(3), GF(2, 2), GF(5), GF(2, 3), GF(3, 2)]))
    sh = RingShape(F, data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    factor = BiPoly.one(sh)
    for _ in range(data.draw(st.integers(0, 3))):  # away from the whole ring
        factor = factor * BiPoly(sh, [[rng.randrange(F.q) for _ in range(sh.ell)]
                                      for _ in range(sh.s)])
    gs = extract_generators(sh, [g * factor for g in random_generators(rng, sh)])
    k = dimension(gs)
    assume(k > 0 and F.q**k <= 1 << 14)
    assert gs.basis is not None
    copy = dataclasses.replace(gs)
    assert copy.basis is None
    searched = []
    search = codegen._search

    def recording_search(fld, gamma, closed):
        searched.append((fld, gamma, closed()))
        return search(fld, gamma, closed)

    with mock.patch.object(codegen, "_search", recording_search):
        d = code_params(gs, with_distance=True).d
    (fld, gamma, closed), = searched
    assert fld is F and gamma is gs.basis.matrix and closed is True
    gm = generator_matrix(gs)
    # codeword index i*ell + j of cell (i, j) is INTERNAL index j*s + i
    internal = gm.rows.reshape(k, sh.s, sh.ell).transpose(0, 2, 1).reshape(k, sh.n)
    assert gamma[:, list(gs.basis.pivots)].tolist() == np.eye(k, dtype=np.int64).tolist()
    assert reduced_span(F, sh.n, gamma).tolist() == reduced_span(F, sh.n, internal).tolist()
    assert d == min_distance(gm) == code_params(copy, with_distance=True).d


def test_code_params_on_an_engine_set_neither_builds_nor_eliminates(monkeypatch):
    """Golay23 x [3, 2] (k=24, d=14) is searched on its basis: no generator
    matrix, no elimination and no closure test, though min_distance needs
    the averaging bound here.  The q^k > cap refusal comes first, with
    min_distance's message."""
    sh, gens = _product_code(F2, 23, 3, GOLAY23, [1, 1])
    gs = extract_generators(sh, gens)
    with pytest.raises(TooLargeError) as old:
        min_distance(generator_matrix(gs), cap=(1 << 24) - 1)

    def refuse(*args):
        raise AssertionError("called")

    for module, name in ((ideal, "_rref"), (codegen, "_rref"), (codegen, "generator_matrix"),
                         (codegen, "_shift_closed")):
        monkeypatch.setattr(module, name, refuse)
    assert code_params(gs, with_distance=True, cap=1 << 24) == CodeParams(69, 24, 2, 14)
    monkeypatch.setattr(codegen, "_search", refuse)
    with pytest.raises(TooLargeError, match=r"^q\^k = 16777216 exceeds cap 16777215$") as new:
        code_params(gs, with_distance=True, cap=(1 << 24) - 1)
    assert str(new.value) == str(old.value)


def test_a_set_read_off_a_callers_basis_is_searched_on_its_generator_matrix():
    """This hand-built GF(2) 3x3 basis is reduced and echelon, but its span
    is not closed under the shifts, so it spans no ideal.  The set read off
    it keeps no basis, and code_params searches its generator matrix, whose
    rows are closed: d = 2 on the set, on a copy that compares equal and in
    min_distance.  Taken for an ideal's basis, it reads 1 under the
    averaging bound."""
    sh = RingShape(F2, 3, 3)
    basis = ideal.EchelonBasis(sh, [[0, 0, 1, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0],
                                    [1, 0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 1, 0, 1, 0],
                                    [0, 0, 0, 1, 1, 0, 0, 0, 0]], (2, 1, 0, 5, 4))
    assert not check_shift_closure(sh, np.array(
        [BiPoly.from_vector(sh, r, ideal.INTERNAL).to_vector(CODEWORD) for r in basis.matrix]))
    gs = ideal.generator_set_from_basis(basis)
    assert gs.basis is None
    copy = dataclasses.replace(gs)
    assert copy == gs
    assert code_params(gs, with_distance=True).d == code_params(copy, with_distance=True).d \
        == min_distance(generator_matrix(gs)) == 2


def test_code_params():
    sh, gens, gs = fixture_gs()
    p = code_params(gs, with_distance=True)
    assert (p.n, p.k, p.q, p.d) == (4, 2, 2, 2)
    assert p.to_json_dict() == {"n": 4, "k": 2, "q": 2, "d": 2}
    z = code_params(extract_generators(sh, []), with_distance=True)
    assert z.k == 0 and z.d is None
    u = code_params(extract_generators(sh, [BiPoly.one(sh)]), with_distance=True)
    assert (u.k, u.d) == (4, 1)


@pytest.mark.parametrize("q,s", [(2, 4), (2, 7), (3, 4), (3, 6)])
def test_single_column_degenerates_to_cyclic_code(q, s):
    rng = random.Random(s * q)
    F = GF(q)
    sh = RingShape(F, s, 1)
    for _ in range(5):
        coeffs = [rng.randrange(q) for _ in range(s)]
        g = BiPoly(sh, [[c] for c in coeffs])
        gs = extract_generators(sh, [g])
        gen_poly = gcd(Poly(F, coeffs), xs_minus_one(F, s))
        if g.is_zero:
            assert dimension(gs) == 0
            continue
        assert gs.layers[0].gen.lift() == gen_poly
        k = s - gen_poly.degree
        gm = generator_matrix(gs)
        assert gm.k == k
        expect = np.zeros((k, s), dtype=np.int64)
        for a in range(k):
            expect[a, a:a + len(gen_poly.coeffs)] = gen_poly.coeffs
        assert gm.rows.tolist() == expect.tolist()


def test_output_formats():
    sh, gens, gs = fixture_gs()
    gm = generator_matrix(gs)
    assert matrix_text(gm) == "1 0 1 0\n0 1 0 1\n"
    assert matrix_csv(gm) == "1,0,1,0\n0,1,0,1\n"
    assert matrix_json_dict(gm) == {"rows": [[1, 0, 1, 0], [0, 1, 0, 1]],
                                    "labels": [[0, 0], [1, 0]]}
    empty = generator_matrix(extract_generators(sh, []))
    assert matrix_text(empty) == "" and matrix_csv(empty) == ""
