import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tdcyclic import (GF, BiPoly, RingShape, dimension, extract_generators,
                      generator_matrix, ideal, min_distance)
from tdcyclic.cli import main

DATA = Path(__file__).parent / "data"

FIXTURE = {"field": {"p": 2, "m": 1}, "s": 2, "ell": 2,
           "generators": [[[1, 0], [1, 0]]]}


def write_problem(tmp_path, doc, name="prob.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_matches_golden(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    code, out, _ = run(capsys, ["construct", "--input", path])
    assert code == 0
    assert out == (DATA / "fixture_generator_set.json").read_text()


def test_construct_zero_generators(tmp_path, capsys):
    doc = dict(FIXTURE, generators=[])
    code, out, _ = run(capsys, ["construct", "--input", write_problem(tmp_path, doc)])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["gens"] == [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    assert all(layer["a"] == 2 for layer in parsed["layers"])


def test_matrix_formats(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    code, out, _ = run(capsys, ["matrix", "--input", path, "--format", "text"])
    assert code == 0 and out == "1 0 1 0\n0 1 0 1\n"
    code, out, _ = run(capsys, ["matrix", "--input", path, "--format", "csv"])
    assert code == 0 and out == "1,0,1,0\n0,1,0,1\n"
    code, out, _ = run(capsys, ["matrix", "--input", path, "--format", "json"])
    assert json.loads(out) == {"rows": [[1, 0, 1, 0], [0, 1, 0, 1]],
                               "labels": [[0, 0], [1, 0]]}
    # zero ideal renders as empty text output
    zpath = write_problem(tmp_path, dict(FIXTURE, generators=[]), "z.json")
    code, out, _ = run(capsys, ["matrix", "--input", zpath, "--format", "text"])
    assert code == 0 and out == ""


def test_params(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    code, out, _ = run(capsys, ["params", "--input", path])
    assert code == 0 and json.loads(out) == {"n": 4, "k": 2, "q": 2}
    code, out, _ = run(capsys, ["params", "--input", path, "--with-distance"])
    assert json.loads(out) == {"n": 4, "k": 2, "q": 2, "d": 2}
    code, out, err = run(capsys, ["params", "--input", path, "--with-distance", "--cap", "3"])
    assert code == 4


def test_member(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    code, out, _ = run(capsys, ["member", "--input", path, "--element", "[[1,1],[1,1]]"])
    assert code == 0 and json.loads(out) == {"member": True, "q": [[1, 0], [1, 0]]}
    code, out, _ = run(capsys, ["member", "--input", path,
                                "--element", "[[1,1],[1,1]]", "--trace"])
    assert json.loads(out)["trace"] == [[[0, 1], [0, 1]]]
    code, out, _ = run(capsys, ["member", "--input", path, "--element", "[[0,0],[0,0]]"])
    assert json.loads(out) == {"member": True, "q": [[0, 0], [0, 0]]}
    code, out, _ = run(capsys, ["member", "--input", path, "--element", "[[1,0],[0,0]]"])
    assert code == 0 and json.loads(out) == {"member": False, "layer": 0}
    # element given as a file path
    epath = tmp_path / "elem.json"
    epath.write_text("[[1,1],[1,1]]")
    code, out, _ = run(capsys, ["member", "--input", path, "--element", str(epath)])
    assert json.loads(out)["member"] is True


def test_verify_exit_codes(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    code, out, _ = run(capsys, ["verify", "--input", path])
    assert code == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    names = {c["name"] for c in doc["checks"]}
    assert "generator-set:span-equality" in names and "matrix:rank" in names
    code, out, _ = run(capsys, ["verify", "--input", path, "--corrupt"])
    assert code == 5
    assert any(not c["pass"] for c in json.loads(out)["checks"])
    zpath = write_problem(tmp_path, dict(FIXTURE, generators=[]), "z.json")
    code, _, _ = run(capsys, ["verify", "--input", zpath])
    assert code == 0


def test_verify_corrupt_matches_golden(tmp_path, capsys):
    # recorded before the oracle's span tracking was batched: the failing
    # checks and their counterexamples must not change with its internals
    path = write_problem(tmp_path, FIXTURE)
    code, out, _ = run(capsys, ["verify", "--input", path, "--corrupt"])
    assert code == 5
    assert out == (DATA / "fixture_verify_corrupt.json").read_text()

def test_enumerate_exhaustive(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    code, out, _ = run(capsys, ["enumerate", "--input", path, "--mode", "exhaustive"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,d,hash"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # distinct single-generator ideals of the 2x2 binary ring
    assert ["4", "0", "", rows[0][3]] == rows[0]  # zero ideal first
    assert {r[1] for r in rows} == {"0", "1", "2", "4"}
    # determinism
    code, out2, _ = run(capsys, ["enumerate", "--input", path, "--mode", "exhaustive"])
    assert out2 == out


def test_enumerate_exhaustive_csv_pinned(tmp_path, capsys):
    # sha256 of the CSV as a per-cell loop over the base-q digits of each
    # candidate index wrote it: the candidate order fixes the row order
    pinned = {
        (2, 1, 2, 3): "8df795997020ae63f8fd29012363613cd142c3cd4bd35ff76c9f7f8d027ca6b3",
        (3, 1, 1, 3): "5696f8ad657ed0318e3cb50755d6c06876e0d86aaca2a866b78384361d751fc4",
        (2, 2, 1, 2): "b9cb495239befc86afd54cf0e9307256b45aabdf3ef82f8f92d3b4b1df532eb5",
        (5, 1, 2, 1): "18acdac9bee0033b91313259547d834be7f088c170e71330fa034c3c50aeec24",
    }
    for (p, m, s, ell), digest in pinned.items():
        doc = {"field": {"p": p, "m": m}, "s": s, "ell": ell}
        code, out, _ = run(capsys, ["enumerate", "--input", write_problem(tmp_path, doc)])
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, (p, m, s, ell)


def test_enumerate_random_seeded(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    args = ["enumerate", "--input", path, "--mode", "random", "--count", "20", "--seed", "7"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2
    assert len(out1.strip().split("\n")) > 1
    _, out3, _ = run(capsys, ["enumerate", "--input", path, "--mode", "random",
                              "--count", "0", "--seed", "7"])
    assert out3 == "n,k,d,hash\n"


def test_enumerate_exhaustive_over_bound(tmp_path, capsys):
    doc = {"field": {"p": 2, "m": 1}, "s": 5, "ell": 4}  # 2^20 candidates > 2^16
    code, _, err = run(capsys, ["enumerate", "--input", write_problem(tmp_path, doc),
                                "--mode", "exhaustive"])
    assert code == 4


def test_enumerate_random_count_over_bound_exits_4(tmp_path, capsys, monkeypatch):
    def no_extraction(*args):
        raise AssertionError("a candidate was extracted past the count bound")

    monkeypatch.setattr("tdcyclic.ideal.extract_generators", no_extraction)
    monkeypatch.setattr("tdcyclic.ideal.span_basis", no_extraction)
    for count in ((1 << 16) + 1, 10**12):
        in_file = dict(FIXTURE, options={"mode": "random", "count": count})
        for argv in (["enumerate", "--input", write_problem(tmp_path, in_file)],
                     ["enumerate", "--input", write_problem(tmp_path, FIXTURE, "f.json"),
                      "--mode", "random", "--count", str(count)]):
            start = time.perf_counter()
            code, out, err = run(capsys, argv)
            assert time.perf_counter() - start < 1.0
            assert code == 4 and out == "", argv
            assert err.startswith("error:") and str(count) in err, err


def _enumerate_by_candidate(shape, mode, count=0, seed=0):
    """The enumerate CSV from a plain loop: extract every candidate, keep
    the first of each generating set."""
    q, n = shape.field.q, shape.n
    if mode == "exhaustive":
        # candidate t holds the base-q digit i * ell + j of t at cell (i, j)
        cands = [[[t // q ** (i * shape.ell + j) % q for j in range(shape.ell)]
                  for i in range(shape.s)] for t in range(q**n)]
    else:
        rng = random.Random(seed)
        cands = [[[rng.randrange(q) for _ in range(shape.ell)] for _ in range(shape.s)]
                 for _ in range(count)]
    lines, seen = ["n,k,d,hash"], set()
    for arr in cands:
        gs = extract_generators(shape, [BiPoly(shape, arr)])
        key = json.dumps(gs.to_json_dict(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        if digest not in seen:
            seen.add(digest)
            k = dimension(gs)
            d = str(min_distance(generator_matrix(gs))) if k else ""
            lines.append(f"{n},{k},{d},{digest}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("p,m,s,ell,mode,count", [
    (2, 1, 2, 2, "exhaustive", 0), (2, 1, 2, 3, "exhaustive", 0),
    (3, 1, 2, 2, "exhaustive", 0), (2, 2, 1, 3, "exhaustive", 0),
    (2, 1, 2, 2, "random", 60), (3, 1, 1, 3, "random", 80), (2, 2, 2, 2, "random", 40),
])
def test_enumerate_matches_candidate_loop(tmp_path, capsys, monkeypatch, p, m, s, ell,
                                          mode, count):
    """enumerate skips a repeated ideal before reading its generating set:
    same CSV as extracting every candidate, and one generating set read
    per row.  The random cases draw far more candidates than there are
    ideals, so most of them repeat."""
    shape = RingShape(GF(p, m), s, ell)
    want = _enumerate_by_candidate(shape, mode, count, seed=3)
    reads = []
    read = ideal.generator_set_from_basis
    monkeypatch.setattr(ideal, "generator_set_from_basis",
                        lambda basis: reads.append(1) or read(basis))
    doc = {"field": {"p": p, "m": m}, "s": s, "ell": ell}
    code, out, _ = run(capsys, ["enumerate", "--input", write_problem(tmp_path, doc),
                                "--mode", mode, "--count", str(count), "--seed", "3"])
    assert code == 0 and out == want
    assert len(reads) == len(out.splitlines()) - 1


def test_distance_at_the_default_cap(tmp_path, capsys, monkeypatch):
    # GF(2) 5 x 5 <x + 1>: k = 20, so q^k is exactly the default cap 2^20
    gen = [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0]] + [[0] * 5 for _ in range(3)]
    doc = {"field": {"p": 2}, "s": 5, "ell": 5, "generators": [gen]}
    start = time.perf_counter()
    code, out, _ = run(capsys, ["params", "--input", write_problem(tmp_path, doc),
                                "--with-distance"])
    assert time.perf_counter() - start < 10.0
    assert code == 0 and json.loads(out) == {"n": 25, "k": 20, "q": 2, "d": 2}

    # the GF(2) 3 x 7 unit ideal: q^k = 2^21 is refused before any search
    def no_search(*args):
        raise AssertionError("the distance search ran past the cap")

    monkeypatch.setattr("tdcyclic.codegen._information_sets", no_search)
    unit = [[1] + [0] * 6] + [[0] * 7 for _ in range(2)]
    doc = {"field": {"p": 2}, "s": 3, "ell": 7, "generators": [unit]}
    start = time.perf_counter()
    code, out, err = run(capsys, ["params", "--input", write_problem(tmp_path, doc, "u.json"),
                                  "--with-distance"])
    assert time.perf_counter() - start < 10.0
    assert code == 4 and out == ""
    assert err.startswith("error:") and str(1 << 21) in err, err


def test_enumerate_cap_below_qk_leaves_d_empty(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    _, full, _ = run(capsys, ["enumerate", "--input", path])
    code, capped, _ = run(capsys, ["enumerate", "--input", path, "--cap", "1"])
    assert code == 0
    rows = [line.split(",") for line in full.splitlines()[1:]]
    # every nonzero code has q^k >= 2 > cap; the rest of each row is unchanged
    assert any(r[2] for r in rows)
    assert capped.splitlines()[1:] == [",".join(r[:2] + [""] + r[3:]) for r in rows]


def test_malformed_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["construct", "--input", str(bad)])[0] == 2
    cases = [
        {"field": {"p": 2}, "s": 2},                                   # missing ell
        {"field": {"p": 6}, "s": 2, "ell": 2},                          # p not prime
        {"field": {"p": 2}, "s": 2, "ell": 2, "generators": [[[1, 0]]]},  # bad dims
        {"field": {"p": 2}, "s": 2, "ell": 2, "generators": [[[1, 7], [0, 0]]]},  # bad entry
        {"field": {"p": 2}, "s": "2", "ell": 2},                        # s not an int
    ]
    for i, doc in enumerate(cases):
        path = write_problem(tmp_path, doc, f"bad{i}.json")
        code, _, err = run(capsys, ["construct", "--input", path])
        assert code == 2, doc
        assert err.startswith("error:")
    assert run(capsys, ["construct", "--input", str(tmp_path / "missing.json")])[0] == 2
    # documents json.loads refuses with RecursionError or, over the interpreter's
    # digit limit, ValueError; without that limit the integer fails the range check
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text(
        '{"field": {"p": 2}, "s": 2, "ell": 2, "generators": [[[%s, 0], [1, 0]]]}' % ("7" * 5000))
    long_elem = tmp_path / "long_elem.json"
    long_elem.write_text("[[%s, 0], [0, 0]]" % ("7" * 5000))
    fixture = write_problem(tmp_path, FIXTURE, "fixture.json")
    for argv in (["construct", "--input", str(deep)],
                 ["construct", "--input", str(long_int)],
                 ["member", "--input", fixture, "--element", str(deep)],
                 ["member", "--input", fixture, "--element", str(long_elem)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:"), err
    # wrong JSON types: options by key, and bools where integers are expected
    small = {"field": {"p": 2}, "s": 1, "ell": 2}
    typed = [
        (["params", "--with-distance"], dict(FIXTURE, options={"cap": "x"}), "options.cap"),
        (["params", "--with-distance"], dict(FIXTURE, options={"cap": True}), "options.cap"),
        (["params"], dict(FIXTURE, options={"with_distance": "no"}), "options.with_distance"),
        (["enumerate"], dict(small, options={"cap": "x"}), "options.cap"),
        (["enumerate"], dict(small, options={"mode": "random", "count": "3"}), "options.count"),
        (["enumerate"], dict(small, options={"mode": "random", "seed": 1.5}), "options.seed"),
        (["member", "--element", "[[0, 0], [0, 0]]"], dict(FIXTURE, options={"trace": 1}),
         "options.trace"),
        (["member", "--element", "[[true, 0], [0, 0]]"], FIXTURE, "element[0][0]"),
        (["construct"], {"field": {"p": 2}, "s": True, "ell": 2}, "s and ell"),
        (["construct"], dict(FIXTURE, generators=[[[True, 0], [1, 0]]]), "generators[0][0][0]"),
        (["construct"], {"field": {"p": 2, "m": True}, "s": 2, "ell": 2}, "field.m"),
        (["construct"], {"field": {"p": 2, "m": 2, "modulus": [1, True, 1]}, "s": 2, "ell": 2},
         "field.modulus"),
        # out-of-range values, from the file and from the flags
        (["params", "--with-distance"], dict(FIXTURE, options={"cap": -1}), "options.cap"),
        (["params", "--with-distance"], dict(FIXTURE, options={"cap": 0}), "options.cap"),
        (["params", "--with-distance", "--cap", "-1"], FIXTURE, "--cap"),
        (["enumerate"], dict(small, options={"cap": -1}), "options.cap"),
        (["enumerate", "--cap", "0"], small, "--cap"),
        (["enumerate"], dict(small, options={"mode": "random", "count": -5}), "options.count"),
        (["enumerate", "--mode", "random", "--count", "-3"], small, "--count"),
    ]
    for i, (argv, doc, where) in enumerate(typed):
        path = write_problem(tmp_path, doc, f"typed{i}.json")
        code, out, err = run(capsys, argv + ["--input", path])
        assert code == 2 and out == "", (argv, doc)
        assert err.startswith("error:") and where in err, err


def test_bounds_exit_3(tmp_path, capsys):
    doc = {"field": {"p": 2, "m": 17}, "s": 2, "ell": 2}
    assert run(capsys, ["construct", "--input", write_problem(tmp_path, doc)])[0] == 3
    doc = {"field": {"p": 2}, "s": 512, "ell": 512}
    assert run(capsys, ["construct", "--input", write_problem(tmp_path, doc, "b.json")])[0] == 3


def test_oversized_shift_matrix_exits_3_in_subprocess(tmp_path):
    # 256 x 256 passes the cell bound, but its shift matrix would hold 2^32
    # int64 entries: it must be refused before allocation, so a child process
    # with a timeout turns a regression into a failure, not a swap storm
    gen = [[0] * 256 for _ in range(256)]
    gen[0][0] = 1
    doc = {"field": {"p": 2}, "s": 256, "ell": 256, "generators": [gen]}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tdcyclic.cli", "construct", "--input",
         write_problem(tmp_path, doc)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "exceeds the elimination budget" in proc.stderr


def test_elimination_over_work_budget_exits_3(tmp_path, capsys, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("the elimination ran past the preflight")

    monkeypatch.setattr("tdcyclic.ideal._rref", no_elimination)
    gen = [[0] * 38 for _ in range(38)]
    gen[0][0] = 1
    doc = {"field": {"p": 2}, "s": 38, "ell": 38, "generators": [gen]}
    start = time.perf_counter()
    code, out, err = run(capsys, ["construct", "--input", write_problem(tmp_path, doc)])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error:") and "exceeds the elimination budget" in err


def test_oversized_fields_exit_3_in_subprocess(tmp_path):
    # a huge prime p or a huge m is refused from p and m alone: testing p
    # for primality or computing p^m first would not finish
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for i, field in enumerate([{"p": 2305843009213693951}, {"p": 3, "m": 100000000}]):
        doc = {"field": field, "s": 2, "ell": 2, "generators": [[[1, 0], [1, 0]]]}
        proc = subprocess.run(
            [sys.executable, "-m", "tdcyclic.cli", "construct", "--input",
             write_problem(tmp_path, doc, f"field{i}.json")],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3, field
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "exceeds desk-scale limit" in proc.stderr


def test_file_errors_exit_2(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    folder = tmp_path / "folder"
    folder.mkdir()
    latin = tmp_path / "latin1.json"
    latin.write_bytes(json.dumps(FIXTURE).encode() + b"\xff\xfe")
    cases = [
        (["construct", "--input", str(folder)], folder),
        (["construct", "--input", str(latin)], latin),
        (["member", "--input", path, "--element", str(folder)], folder),
        (["construct", "--input", path, "--output", str(folder)], folder),
    ]
    for argv, named in cases:
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and str(named) in err, err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FIXTURE)))
    code, out, _ = run(capsys, ["params", "--input", "-"])
    assert code == 0 and json.loads(out)["k"] == 2


def test_output_file(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    dest = tmp_path / "out.json"
    code, out, _ = run(capsys, ["construct", "--input", path, "--output", str(dest)])
    assert code == 0 and out == ""
    assert dest.read_text() == (DATA / "fixture_generator_set.json").read_text()


def test_roundtrip_construct_output_as_generators(tmp_path, capsys):
    path = write_problem(tmp_path, FIXTURE)
    _, out, _ = run(capsys, ["construct", "--input", path])
    gs_doc = json.loads(out)
    doc2 = dict(FIXTURE, generators=gs_doc["gens"])
    path2 = write_problem(tmp_path, doc2, "prob2.json")
    _, out2, _ = run(capsys, ["construct", "--input", path2])
    assert out2 == out


def test_options_from_problem_file(tmp_path, capsys):
    doc = dict(FIXTURE, options={"format": "text"})
    path = write_problem(tmp_path, doc)
    code, out, _ = run(capsys, ["matrix", "--input", path])
    assert code == 0 and out == "1 0 1 0\n0 1 0 1\n"
    # explicit flag wins over the file option
    code, out, _ = run(capsys, ["matrix", "--input", path, "--format", "csv"])
    assert out == "1,0,1,0\n0,1,0,1\n"


# values that are of the wrong JSON type, out of range, or huge
_ODD_VALUES = [None, True, False, "2", 2.5, [], {}, [1], -1, 0, 1, 2, 3, 4, 16, 17,
               1 << 16, (1 << 16) + 1, 1 << 31, 1 << 63, 10**30, 2305843009213693951]
_MUTATION_PATHS = [
    ("field",), ("field", "p"), ("field", "m"), ("field", "modulus"), ("s",), ("ell",),
    ("generators",), ("generators", 0), ("generators", 0, 0), ("generators", 0, 1, 0),
    ("options",), ("options", "cap"), ("options", "format"), ("options", "with_distance"),
    ("options", "trace"), ("options", "seed"), ("options", "count"), ("options", "mode"),
]
_COMMANDS = [["construct"], ["matrix"], ["params"], ["params", "--with-distance"],
             ["member", "--element", "[[1, 1], [1, 1]]"], ["verify"], ["enumerate"],
             ["enumerate", "--mode", "random", "--count", "3"]]


def _set_path(doc, path, value):
    """Put value at path in doc, making missing objects on the way; returns
    False if a step of the path is no longer an object or a list."""
    for key in path[:-1]:
        if isinstance(doc, dict):
            doc = doc.setdefault(key, {})
        elif isinstance(doc, list) and isinstance(key, int) and key < len(doc):
            doc = doc[key]
        else:
            return False
    if isinstance(doc, dict):
        doc[path[-1]] = value
        return True
    if isinstance(doc, list) and isinstance(path[-1], int) and path[-1] < len(doc):
        doc[path[-1]] = value
        return True
    return False


@st.composite
def _mutated_problems(draw):
    doc = copy.deepcopy(dict(FIXTURE, options={"format": "json", "cap": 1 << 20}))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_MUTATION_PATHS))
        value = draw(st.one_of(
            st.sampled_from(_ODD_VALUES),
            st.lists(st.sampled_from(_ODD_VALUES), max_size=4)))
        _set_path(doc, path, value)
    return doc, draw(st.sampled_from(_COMMANDS))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_problems())
def test_mutated_problem_documents_exit_cleanly(tmp_path, capsys, case):
    """Wrong JSON types and out-of-range or huge integers anywhere in a
    problem end in a result or a diagnosed refusal, never a traceback.
    Random enumeration takes its count from the command line: a file count
    at the bound of 2^16 would run 2^16 extractions in one example."""
    doc, argv = case
    path = write_problem(tmp_path, doc)
    code, _, err = run(capsys, argv + ["--input", path])
    assert code in (0, 2, 3, 4), (doc, argv)
    assert code == 0 or err.startswith("error:"), err
