import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdcyclic import (CODEWORD, GF, BiPoly, Field, GeneratorMatrix, Poly, RingShape,
                      TooLargeError, bruteforce_ideal, check_shift_closure,
                      code_params, decompose, dimension, encode, enumerate_span,
                      extract_generators, gcd, generator_matrix, min_distance,
                      reduced_span, xs_minus_one)
from tdcyclic import codegen
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
    columns; the last two make later information sets rank-deficient."""
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
# two codes (d=2) that stop one level too early when the lower bound
# counts w + 1 on a rank-deficient information set instead of w + 1 - (k - r_i)
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


@pytest.mark.parametrize("budget", [1, 9, 40, _GATHER_ELEMS])
def test_levels_grown_from_the_kept_level_match_rebuilt_ones(budget):
    """The search keeps level w when _level gave it in one chunk of at most
    the budget, and grows level w + 1 from it: the same words and last
    indices as _level(w + 1, budget) rebuilding every level from weight 1,
    though the chunks may be cut elsewhere.  At budget 1 no level that is
    grown from fits, so none is kept."""
    rng = random.Random(budget)
    grown = 0
    for k, n in ((5, 4), (4, 1)):
        for fld in (F2, GF(3), GF(2, 2)):
            rows = np.array([[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)])
            kept = None
            for w in range(1, k + 1):
                below = None if kept is None else [kept]
                chunks = [(words.copy(), last.copy())
                          for words, last in codegen._level(fld, rows, w, budget, below)]
                got = sorted((tuple(word), int(t)) for words, last in chunks
                             for word, t in zip(words.tolist(), last))
                want = sorted((tuple(word), int(t))
                              for words, last in codegen._level(fld, rows, w, budget)
                              for word, t in zip(words.tolist(), last))
                assert got == want, (fld, k, n, w)
                grown += kept is not None
                one_chunk = len(chunks) == 1 and chunks[0][0].size <= budget
                kept = chunks[0] if one_chunk else None
    assert grown > 0 or budget == 1


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
    over every field.  Codes: GF(2) 16x16 <(x+1)^15 (y+1)^2> (k=14,
    n=256), and the 1x8 repetition codes over the two largest fields,
    GF(2^16) and GF(3^10)."""
    sh = RingShape(F2, 16, 16)
    arr = [[1 if j in (0, 2) else 0 for j in range(16)] for _ in range(16)]
    # d = 16 * 2: the code is a product of [16, 1, 16] and [16, 14, 2]
    codes = [(generator_matrix(extract_generators(sh, [BiPoly(sh, arr)])), 14, 256, 32)]
    for fld in (GF(2, 16), GF(3, 10)):
        sh = RingShape(fld, 1, 8)
        gm = generator_matrix(extract_generators(sh, [BiPoly(sh, [[1] * 8])]))
        codes.append((gm, 1, 8, 8))
    for gm, k, n, d in codes:
        assert (gm.k, gm.n) == (k, n)
        tracemalloc.start()
        try:
            got = min_distance(gm)
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
])
def test_product_code_distances(s, ell, gx, gy, k, d):
    """<gx(x) gy(y)> over GF(2) is the product of two cyclic codes, whose
    minimum distance is the product of theirs."""
    sh, gens = _product_code(F2, s, ell, gx, gy)
    gm = generator_matrix(extract_generators(sh, gens))
    assert gm.k == k
    assert min_distance(gm, cap=1 << k) == d


@pytest.mark.parametrize("s,ell,gx,gy,ranks,d,enumerated", [
    (7, 7, HAMMING7, HAMMING7, [16, 15, 14, 4], 9, {0, 2}),
])
def test_min_distance_defers_sets_whose_term_is_zero(monkeypatch, s, ell, gx, gy,
                                                     ranks, d, enumerated):
    """A set is enumerated only once the search reaches the level
    w = k - r_i at which its lower-bound term turns positive; it then
    catches up its lower levels.  On Hamming7 x Hamming7 (k=16) the set
    with r = 14 waits for level 2, and shift images (r = 15, 4) are never
    enumerated."""
    sh, gens = _product_code(F2, s, ell, gx, gy)
    gm = generator_matrix(extract_generators(sh, gens))
    sets = list(codegen._information_sets(sh, gm.rows))
    assert [r for _, r in sets] == ranks
    built = []  # (set, level) in the order the levels are built
    level = codegen._level

    def recording_level(fld, rows, w, *args):
        built.append((next(i for i, (gamma, _) in enumerate(sets)
                           if np.array_equal(gamma, rows)), w))
        return level(fld, rows, w, *args)

    monkeypatch.setattr(codegen, "_level", recording_level)
    assert min_distance(gm, cap=1 << gm.k) == d
    for at, (i, _) in enumerate(built):
        search_level = max(w for j, w in built[:at + 1] if j == 0)
        assert search_level >= gm.k - ranks[i], (i, built[:at + 1])
    assert {i for i, _ in built} == enumerated


def test_min_distance_asks_for_a_set_only_when_it_could_raise_the_bound(monkeypatch):
    """GF(2) 7x3 <1 + x + x^3>, Hamming7 x [3, 3]: k=12, n=21, d=3.  A
    second set takes at most 9 new columns, so its term is 0 below level
    3, while the first set settles d at level 2: only the first set is
    asked for."""
    sh, gens = _product_code(F2, 7, 3, HAMMING7, [1])
    gm = generator_matrix(extract_generators(sh, gens))
    assert [r for _, r in codegen._information_sets(sh, gm.rows)] == [12, 9]
    asked = []
    information_sets = codegen._information_sets

    def recording_information_sets(*args):
        for gamma, r in information_sets(*args):
            asked.append(r)
            yield gamma, r

    monkeypatch.setattr(codegen, "_information_sets", recording_information_sets)
    assert min_distance(gm) == 3
    assert asked == [12]


@pytest.mark.parametrize("s,ell,gx,gy,want", [
    (7, 7, HAMMING7, HAMMING7, [(16, False), (15, True), (14, False), (4, True)]),
    (23, 4, GOLAY23, [1, 1], [(36, False), (34, True), (22, False)]),  # Golay23 x [4, 3]
])
def test_information_sets_mix_images_and_echelon_sets(s, ell, gx, gy, want):
    """(r_i, shift image?) of each set.  On these codes some shift image
    takes fewer new columns than a set could, so the echelon set on the
    unused columns is computed too; it is taken only when it takes more
    new columns than the best image, and the image otherwise."""
    sh, gens = _product_code(F2, s, ell, gx, gy)
    gm = generator_matrix(extract_generators(sh, gens))
    assert [(r, gamma is None) for gamma, r in codegen._information_sets(sh, gm.rows)] == want


def test_information_sets_eliminate_at_most_once_per_set(monkeypatch):
    """BCH[15,7] x Hamming7 (k=28, n=105): each later set is the best shift
    image or one echelon form on the unused columns, so the sets cost no
    more _rref calls than there are of them."""
    sh, gens = _product_code(F2, 15, 7, BCH15_7, HAMMING7)
    gm = generator_matrix(extract_generators(sh, gens))
    calls = []
    rref = codegen._rref

    def counting_rref(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(codegen, "_rref", counting_rref)
    sets = [(r, gamma is None) for gamma, r in codegen._information_sets(sh, gm.rows)]
    assert sets == [(28, False), (28, True), (22, True), (22, False), (5, False)]
    assert len(calls) <= len(sets)


def test_min_distance_counts_a_shift_image_from_the_first_sets_levels():
    """GF(2) 3x6, one generator: k=6, n=18, d=6 by the oracle's own
    enumeration.  Its sets are one echelon set and two shift images, each
    with r = 6.  An image's term is max(0, w + 1 - (k - r)) once the first
    set has done level w; counted one level early, the lower bound reaches
    8 before any word of weight 6 is seen, and the search returns 8."""
    sh = RingShape(F2, 3, 6)
    gens = [BiPoly(sh, [[0, 1, 1, 1, 1, 0], [0, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 0]])]
    gm = generator_matrix(extract_generators(sh, gens))
    assert (gm.k, gm.n) == (6, 18)
    span = enumerate_span(bruteforce_ideal(sh, gens))
    weights = np.count_nonzero(span, axis=1)
    assert int(weights[weights > 0].min()) == 6
    sets = codegen._information_sets(sh, gm.rows)
    assert [(r, gamma is None) for gamma, r in sets] == [(6, False), (6, True), (6, True)]
    assert min_distance(gm) == 6


def test_min_distance_eliminates_once_when_the_first_set_settles_d(monkeypatch):
    """GF(2) 5x5 <x+1>: k=20, d=2.  The first information set's weight-1
    words reach d and its w=0 and w=1 terms the lower bound, so no later
    set is computed."""
    sh, gens = _product_code(F2, 5, 5, [1, 1], [1])
    gm = generator_matrix(extract_generators(sh, gens))
    calls = []
    rref = codegen._rref

    def counting_rref(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(codegen, "_rref", counting_rref)
    assert min_distance(gm) == 2
    assert len(calls) == 1


def test_shift_images_are_information_sets():
    """For a code of the ring, every shift image of the first set's pivot
    columns is an information set: the rows have rank k on it.  The sets
    the search uses take every column as a new column exactly once."""
    rng = random.Random(113)
    checked = 0
    while checked < 12:
        F = rng.choice([F2, GF(3), GF(2, 2)])
        sh = RingShape(F, rng.randint(2, 5), rng.randint(2, 5))
        gm = generator_matrix(extract_generators(sh, random_generators(rng, sh)))
        if not 0 < gm.k < gm.n:
            continue
        gamma, pivots = codegen._rref(gm.rows, F, range(gm.n))
        images = codegen._shift_images(sh, gamma, pivots)
        assert images.shape == (sh.n, gm.k)
        assert sorted(images[:, 0].tolist()) == list(range(sh.n))  # transitive
        for cols in images:
            assert reduced_span(F, gm.k, gm.rows[:, cols]).shape[0] == gm.k
        assert sum(r for _, r in codegen._information_sets(sh, gm.rows)) == gm.n
        checked += 1


def test_rows_not_closed_under_shifts_get_echelon_sets_only():
    """A cyclic code's generator matrix with its last row replaced by a
    vector outside the code spans no code of the ring: the search must
    not use shift images on it, and d is still exact."""
    rng = random.Random(127)
    multi = 0
    for _ in range(20):
        F = rng.choice([F2, GF(3)])
        while True:
            sh = RingShape(F, rng.randint(2, 4), rng.randint(2, 4))
            gm = generator_matrix(extract_generators(sh, random_generators(rng, sh)))
            if 2 <= gm.k < gm.n and F.q**gm.k <= 1 << 12:
                break
        rows = gm.rows.copy()
        while True:
            rows[-1] = [rng.randrange(F.q) for _ in range(gm.n)]
            if reduced_span(F, gm.n, np.vstack([gm.rows, rows[-1:]])).shape[0] > gm.k:
                break
        assert not check_shift_closure(sh, rows)
        sets = list(codegen._information_sets(sh, rows))
        assert all(gamma is not None for gamma, _ in sets)
        multi += len(sets) > 1
        assert min_distance(GeneratorMatrix(sh, rows, gm.labels)) == \
            _least_weight_of_all_messages(F, rows)
    assert multi >= 10


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([1, 20, 300, _GATHER_ELEMS]))
def test_min_distance_matches_oracle_on_random_ideals(data, budget):
    """d of random ideals, against the least nonzero weight of the
    oracle's enumeration of the ideal.  Multiplying the generators by
    (x - 1)^a (y - 1)^b keeps many ideals away from the whole ring, so
    later information sets, shift images among them, are needed."""
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
