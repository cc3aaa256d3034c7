"""Command-line front end.

Subcommands: construct, matrix, params, member, verify, enumerate.
Problems are JSON files ("-" reads stdin):

    {"field": {"p": 2, "m": 1},          # modulus: [c0..cm] optional
     "s": 2, "ell": 2,
     "generators": [[[1,0],[1,0]]],      # s x ell arrays, rows = x-exponent
     "options": {"format": "json", "cap": 1048576, "seed": 0}}

``main`` runs every subcommand through one pipeline; each step names
the exit code it gives:

1. parse the command line (argparse exits 2 on an unknown or ill-formed flag);
2. read and check the problem: 2 if it is malformed, 3 if its field or
   array is over a desk-scale bound;
3. resolve each option of the subcommand from its flag, else the file's
   ``options``, else the default, and check it: 2 if it is of the wrong
   type or out of range.  No engine work has run yet;
4. run the subcommand, a function of (problem, args) that returns its
   text and exit code: 3 if the engine refuses the problem up front, 4 if
   an enumeration is over its cap, 5 if verification failed, else 0.
   ``verify`` checks the oracle's bound (s*ell <= 64, else 3) before the
   engine runs;
5. write the text to --output or stdout: 2 if it cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

import numpy as np

from . import codegen, ideal, oracle
from .errors import BoundsError, NotMember, TooLargeError
from .gf import field_from_descriptor
from .ring2d import _GATHER_ELEMS, BiPoly, RingShape, shift_images

# candidates enumerate may try: q^(s*ell) in exhaustive mode, count in random mode
MAX_EXHAUSTIVE_CANDIDATES = 1 << 16


class ProblemFormatError(ValueError):
    """Malformed problem input; message carries a field/position diagnostic."""


@dataclasses.dataclass
class Problem:
    shape: RingShape
    generators: list[BiPoly]
    options: dict


def _is_int(v) -> bool:
    """A JSON integer: Python's bool is an int, but JSON true is not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ProblemFormatError(f"cannot read {path!r}: {e}")


def _parse_json(text: str, label: str):
    """json.loads; bad syntax, deep nesting or an over-long integer is a ProblemFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(
            f"{label}invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:
        raise ProblemFormatError(f"{label}invalid JSON: {e}")


def _parse_array(shape: RingShape, arr, label: str) -> BiPoly:
    if not isinstance(arr, list) or len(arr) != shape.s:
        raise ProblemFormatError(f"{label}: expected {shape.s} rows")
    for i, row in enumerate(arr):
        if not isinstance(row, list) or len(row) != shape.ell:
            raise ProblemFormatError(f"{label}[{i}]: expected {shape.ell} entries")
        for j, v in enumerate(row):
            if not _is_int(v) or not 0 <= v < shape.field.q:
                raise ProblemFormatError(
                    f"{label}[{i}][{j}]: {v!r} is not an element encoding in [0, {shape.field.q})")
    return BiPoly(shape, arr)


def load_problem(text: str) -> Problem:
    doc = _parse_json(text, "")
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level must be a JSON object")
    for key in ("field", "s", "ell"):
        if key not in doc:
            raise ProblemFormatError(f"missing required key {key!r}")
    fd = doc["field"]
    if not isinstance(fd, dict) or "p" not in fd:
        raise ProblemFormatError("field: expected an object with at least 'p'")
    for key in ("p", "m"):
        if key in fd and not _is_int(fd[key]):
            raise ProblemFormatError(f"field.{key}: {fd[key]!r} is not an integer")
    modulus = fd.get("modulus")
    if modulus is not None and not (isinstance(modulus, list) and all(map(_is_int, modulus))):
        raise ProblemFormatError(f"field.modulus: {modulus!r} is not a list of integers")
    for i, c in enumerate(modulus or ()):
        if not 0 <= c < fd["p"]:
            raise ProblemFormatError(f"field.modulus[{i}]: {c} is not in [0, {fd['p']})")
    try:
        field = field_from_descriptor(fd)
    except BoundsError:
        raise
    except (ValueError, TypeError) as e:
        raise ProblemFormatError(f"field: {e}")
    s, ell = doc["s"], doc["ell"]
    if not _is_int(s) or not _is_int(ell):
        raise ProblemFormatError("s and ell must be integers")
    try:
        shape = RingShape(field, s, ell)
    except BoundsError:
        raise
    except ValueError as e:
        raise ProblemFormatError(str(e))
    gens_doc = doc.get("generators", [])
    if not isinstance(gens_doc, list):
        raise ProblemFormatError("generators must be a list of s x ell arrays")
    gens = [_parse_array(shape, g, f"generators[{i}]") for i, g in enumerate(gens_doc)]
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ProblemFormatError("options must be an object")
    return Problem(shape, gens, options)


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ProblemFormatError(f"cannot write {out_path!r}: {e}")
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# option: (default, JSON type or the allowed values, least value)
_OPTIONS = {
    "format": ("json", ("json", "text", "csv"), None),
    "mode": ("exhaustive", ("exhaustive", "random"), None),
    "cap": (codegen.DEFAULT_CAP, int, 1),
    "with_distance": (False, bool, None),
    "trace": (False, bool, None),
    "seed": (0, int, None),
    "count": (0, int, 0),
}


def _opt(args_value, options: dict, key: str):
    """The command-line value if given, else the problem file's option,
    else the default; a file option of the wrong JSON type, a value that
    is not one of the option's choices or is below its minimum, is an
    error naming the option."""
    default, kind, low = _OPTIONS[key]
    if args_value is not None:
        value, where = args_value, f"--{key}"
    else:
        value, where = options.get(key, default), f"options.{key}"
        if kind is int and not _is_int(value):
            raise ProblemFormatError(f"{where}: {value!r} is not an integer")
        if kind is bool and not isinstance(value, bool):
            raise ProblemFormatError(f"{where}: {value!r} is not true or false")
    if isinstance(kind, tuple) and value not in kind:
        raise ProblemFormatError(f"unknown {key} {value!r}")
    if low is not None and value < low:
        raise ProblemFormatError(f"{where}: {value} is less than {low}")
    return value


def cmd_construct(problem: Problem, args) -> tuple[str, int]:
    gs = ideal.extract_generators(problem.shape, problem.generators)
    return _json_text(gs.to_json_dict()), 0


def cmd_matrix(problem: Problem, args) -> tuple[str, int]:
    gm = codegen.generator_matrix(ideal.extract_generators(problem.shape, problem.generators))
    if args.format == "json":
        return _json_text(codegen.matrix_json_dict(gm)), 0
    if args.format == "text":
        return codegen.matrix_text(gm), 0
    return codegen.matrix_csv(gm), 0


def cmd_params(problem: Problem, args) -> tuple[str, int]:
    gs = ideal.extract_generators(problem.shape, problem.generators)
    params = codegen.code_params(gs, with_distance=args.with_distance, cap=args.cap)
    return _json_text(params.to_json_dict()), 0


def cmd_member(problem: Problem, args) -> tuple[str, int]:
    raw = args.element
    text = raw if raw.lstrip().startswith("[") else _read_text(raw)
    elem = _parse_array(problem.shape, _parse_json(text, "element: "), "element")
    gs = ideal.extract_generators(problem.shape, problem.generators)
    try:
        dec = ideal.decompose(elem, gs, want_trace=args.trace)
    except NotMember as e:
        return _json_text({"member": False, "layer": e.layer}), 0
    doc = {"member": True, "q": [list(q.coeffs) for q in dec.coeffs]}
    if dec.trace is not None:
        doc["trace"] = [h.arr.tolist() for h in dec.trace]
    return _json_text(doc), 0


def cmd_verify(problem: Problem, args) -> tuple[str, int]:
    # the closure first: it refuses a problem over the oracle's bound before any engine work
    closure = oracle.bruteforce_ideal(problem.shape, problem.generators)
    gs = ideal.extract_generators(problem.shape, problem.generators)
    if args.corrupt:
        gens = list(gs.gens)
        for j in range(len(gens) - 1, -1, -1):
            if not gens[j].is_zero:
                gens[j] = BiPoly.zero(problem.shape)
                break
        gs = dataclasses.replace(gs, gens=tuple(gens))
    gm = codegen.generator_matrix(gs)
    rep_gs = oracle.verify_generator_set(gs, closure)
    rep_gm = oracle.verify_matrix(gm, closure)
    checks = []
    for prefix, rep in (("generator-set", rep_gs), ("matrix", rep_gm)):
        for c in rep.to_json_dict()["checks"]:
            c["name"] = f"{prefix}:{c['name']}"
            checks.append(c)
    return _json_text({"checks": checks}), 0 if rep_gs.passed and rep_gm.passed else 5


def _orbit_leaders(shape: RingShape):
    """The exhaustive candidates, in index order, that are the least index
    of their orbit {c x^a y^b g : c != 0}: every other candidate generates
    the ideal of an earlier one.

    Candidate t holds the base-q digit k of t at cell (k // ell, k % ell),
    so its last nonzero cell is its most significant digit, and its least
    scalar multiple is the one with a 1 there.  Each of the n shift images
    is scaled by the inverse of that digit before its index is read.  The
    candidates go in chunks whose shift images fit _GATHER_ELEMS."""
    fld, s, ell, n = shape.field, shape.s, shape.ell, shape.n
    q, total = fld.q, fld.q**n
    inv = np.array([0] + [fld.inv(c) for c in range(1, q)], dtype=np.int64)
    weights = q ** np.arange(n)
    a, b = np.divmod(np.arange(n), ell)
    step = max(1, _GATHER_ELEMS // (n * n))
    for t0 in range(0, total, step):
        t = np.arange(t0, min(t0 + step, total))
        cands = (t[:, None] // weights % q).reshape(-1, s, ell)
        images = shift_images(cands, a, b).reshape(-1, n, n)
        top = n - 1 - np.argmax(images[:, :, ::-1] != 0, axis=2)  # n - 1 for the zero image
        lead = np.take_along_axis(images, top[:, :, None], axis=2)
        least = (fld.mul_arrays(inv[lead], images) @ weights).min(axis=1)
        yield from cands[least == t]


def cmd_enumerate(problem: Problem, args) -> tuple[str, int]:
    import hashlib  # here, not at the top: the other subcommands need not load OpenSSL

    shape = problem.shape
    q = shape.field.q
    if args.mode == "exhaustive":
        total = q**shape.n
        if total > MAX_EXHAUSTIVE_CANDIDATES:
            raise TooLargeError(
                f"q^(s*ell) = {total} candidates exceeds exhaustive bound "
                f"{MAX_EXHAUSTIVE_CANDIDATES}")
        candidates = _orbit_leaders(shape)
    else:
        if args.count > MAX_EXHAUSTIVE_CANDIDATES:
            raise TooLargeError(
                f"count {args.count} exceeds the candidate bound {MAX_EXHAUSTIVE_CANDIDATES}")
        # each draw is one span_basis of one generator, n^3 units of its budget
        work = args.count * shape.n ** 3
        if work > ideal.MAX_ELIMINATION_WORK:
            raise TooLargeError(
                f"count {args.count} * n^3 = {work} elimination work exceeds the run "
                f"budget {ideal.MAX_ELIMINATION_WORK}")
        rng = random.Random(args.seed)
        candidates = ([[rng.randrange(q) for _ in range(shape.ell)]
                       for _ in range(shape.s)] for _ in range(args.count))

    # a skipped candidate generates the ideal of an earlier one, whose row is already out
    lines = ["n,k,d,hash"]
    seen = set()
    for arr in candidates:
        basis = ideal.span_basis(shape, [BiPoly(shape, arr)])
        # the reduced echelon basis is unique for the span: two orbits can give one ideal
        if basis in seen:
            continue
        seen.add(basis)
        gs = ideal._read_off_span(basis)
        doc = json.dumps(gs.to_json_dict(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(doc.encode()).hexdigest()[:16]
        try:
            params = codegen.code_params(gs, with_distance=True, cap=args.cap)
        except TooLargeError:  # q^k over the cap: the row keeps n and k, d is left empty
            params = codegen.code_params(gs)
        d = "" if params.d is None else params.d
        lines.append(f"{params.n},{params.k},{d},{digest}")
    return "\n".join(lines) + "\n", 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tdcyclic",
        description="Two-dimensional cyclic codes: generator polynomial sets, "
                    "generator matrices, membership, verification, surveys.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, help="problem JSON file, or - for stdin")
        p.add_argument("--output", default=None, help="write output here instead of stdout")
        p.set_defaults(func=func)
        return p

    command("construct", cmd_construct, "canonical generating polynomial set")

    p = command("matrix", cmd_matrix, "generator matrix")
    p.add_argument("--format", choices=_OPTIONS["format"][1], default=None)

    p = command("params", cmd_params, "code parameters (n, k, optionally d)")
    p.add_argument("--with-distance", action="store_true", default=None)
    p.add_argument("--cap", type=int, default=None)

    p = command("member", cmd_member, "decompose an element over the generating set")
    p.add_argument("--element", required=True,
                   help="s x ell JSON array (inline) or a path to one")
    p.add_argument("--trace", action="store_true", default=None,
                   help="include intermediate remainders")

    p = command("verify", cmd_verify, "brute-force verification report")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p = command("enumerate", cmd_enumerate, "survey single-generator codes as CSV")
    p.add_argument("--mode", choices=_OPTIONS["mode"][1], default=None)
    p.add_argument("--count", type=int, default=None, help="samples in random mode")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)

    return ap


_EXIT_CODES = {ProblemFormatError: 2, BoundsError: 3, TooLargeError: 4}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(_read_text(args.input))
        for key in _OPTIONS:  # the subcommand's options are those of its flags named here
            if hasattr(args, key):
                setattr(args, key, _opt(getattr(args, key), problem.options, key))
        text, code = args.func(problem, args)
        _emit(text, args.output)
        return code
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_CODES[type(e)]


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
