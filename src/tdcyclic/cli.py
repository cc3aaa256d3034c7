"""Command-line front end.

Subcommands: construct, matrix, params, member, verify, enumerate.
Problems are JSON files ("-" reads stdin):

    {"field": {"p": 2, "m": 1},          # modulus: [c0..cm] optional
     "s": 2, "ell": 2,
     "generators": [[[1,0],[1,0]]],      # s x ell arrays, rows = x-exponent
     "options": {"format": "json", "cap": 1048576, "seed": 0}}

Exit codes: 0 ok, 2 malformed input, 3 desk-scale bound violated,
4 enumeration over cap, 5 verification failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys

import numpy as np

from . import codegen, ideal, oracle
from .errors import BoundsError, NotMember, TooLargeError
from .gf import Field, field_from_descriptor
from .ring2d import BiPoly, RingShape

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


def _parse_array(field: Field, s: int, ell: int, arr, label: str):
    if not isinstance(arr, list) or len(arr) != s:
        raise ProblemFormatError(f"{label}: expected {s} rows")
    for i, row in enumerate(arr):
        if not isinstance(row, list) or len(row) != ell:
            raise ProblemFormatError(f"{label}[{i}]: expected {ell} entries")
        for j, v in enumerate(row):
            if not _is_int(v) or not 0 <= v < field.q:
                raise ProblemFormatError(
                    f"{label}[{i}][{j}]: {v!r} is not an element encoding in [0, {field.q})")
    return arr


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
    gens = [BiPoly(shape, _parse_array(field, s, ell, g, f"generators[{i}]"))
            for i, g in enumerate(gens_doc)]
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


_OPTION_TYPES = {"cap": int, "count": int, "seed": int, "with_distance": bool, "trace": bool}
_OPTION_MIN = {"cap": 1, "count": 0}


def _opt(args_value, options: dict, key: str, fallback):
    """The command-line value if given, else the problem file's option,
    else the fallback; a file option of the wrong JSON type, or a value
    below the option's minimum, is an error naming the flag or the key."""
    if args_value is not None:
        value, where = args_value, f"--{key}"
    else:
        value, where = options.get(key, fallback), f"options.{key}"
        kind = _OPTION_TYPES.get(key)
        if kind is int and not _is_int(value):
            raise ProblemFormatError(f"{where}: {value!r} is not an integer")
        if kind is bool and not isinstance(value, bool):
            raise ProblemFormatError(f"{where}: {value!r} is not true or false")
    low = _OPTION_MIN.get(key)
    if low is not None and value < low:
        raise ProblemFormatError(f"{where}: {value} is less than {low}")
    return value


def cmd_construct(args) -> int:
    prob = load_problem(_read_text(args.input))
    gs = ideal.extract_generators(prob.shape, prob.generators)
    _emit(_json_text(gs.to_json_dict()), args.output)
    return 0


def cmd_matrix(args) -> int:
    prob = load_problem(_read_text(args.input))
    gm = codegen.generator_matrix(ideal.extract_generators(prob.shape, prob.generators))
    fmt = _opt(args.format, prob.options, "format", "json")
    if fmt == "json":
        text = _json_text(codegen.matrix_json_dict(gm))
    elif fmt == "text":
        text = codegen.matrix_text(gm)
    elif fmt == "csv":
        text = codegen.matrix_csv(gm)
    else:
        raise ProblemFormatError(f"unknown format {fmt!r}")
    _emit(text, args.output)
    return 0


def cmd_params(args) -> int:
    prob = load_problem(_read_text(args.input))
    cap = _opt(args.cap, prob.options, "cap", codegen.DEFAULT_CAP)
    with_d = _opt(args.with_distance, prob.options, "with_distance", False)
    gs = ideal.extract_generators(prob.shape, prob.generators)
    params = codegen.code_params(gs, with_distance=with_d, cap=cap)
    _emit(_json_text(params.to_json_dict()), args.output)
    return 0


def cmd_member(args) -> int:
    prob = load_problem(_read_text(args.input))
    raw = args.element
    if raw.lstrip().startswith("["):
        text = raw
    else:
        text = _read_text(raw)
    arr = _parse_json(text, "element: ")
    elem = BiPoly(prob.shape, _parse_array(
        prob.shape.field, prob.shape.s, prob.shape.ell, arr, "element"))
    want_trace = _opt(args.trace, prob.options, "trace", False)
    gs = ideal.extract_generators(prob.shape, prob.generators)
    try:
        dec = ideal.decompose(elem, gs, want_trace=want_trace)
    except NotMember as e:
        _emit(_json_text({"member": False, "layer": e.layer}), args.output)
        return 0
    doc = {"member": True, "q": [list(q.coeffs) for q in dec.coeffs]}
    if dec.trace is not None:
        doc["trace"] = [h.arr.tolist() for h in dec.trace]
    _emit(_json_text(doc), args.output)
    return 0


def cmd_verify(args) -> int:
    prob = load_problem(_read_text(args.input))
    gs = ideal.extract_generators(prob.shape, prob.generators)
    if args.corrupt:
        gens = list(gs.gens)
        for j in range(len(gens) - 1, -1, -1):
            if not gens[j].is_zero:
                gens[j] = BiPoly.zero(prob.shape)
                break
        gs = dataclasses.replace(gs, gens=tuple(gens))
    gm = codegen.generator_matrix(gs)
    closure = oracle.bruteforce_ideal(prob.shape, prob.generators)
    rep_gs = oracle.verify_generator_set(gs, closure)
    rep_gm = oracle.verify_matrix(gm, closure)
    checks = []
    for prefix, rep in (("generator-set", rep_gs), ("matrix", rep_gm)):
        for c in rep.to_json_dict()["checks"]:
            c["name"] = f"{prefix}:{c['name']}"
            checks.append(c)
    _emit(_json_text({"checks": checks}), args.output)
    return 0 if rep_gs.passed and rep_gm.passed else 5


def cmd_enumerate(args) -> int:
    prob = load_problem(_read_text(args.input))
    shape = prob.shape
    q = shape.field.q
    mode = _opt(args.mode, prob.options, "mode", "exhaustive")
    cap = _opt(args.cap, prob.options, "cap", codegen.DEFAULT_CAP)
    seed = _opt(args.seed, prob.options, "seed", 0)
    count = _opt(args.count, prob.options, "count", 0)

    if mode == "exhaustive":
        total = q**shape.n
        if total > MAX_EXHAUSTIVE_CANDIDATES:
            raise TooLargeError(
                f"q^(s*ell) = {total} candidates exceeds exhaustive bound "
                f"{MAX_EXHAUSTIVE_CANDIDATES}")
        # candidate t holds the base-q digit k of t at cell (k // ell, k % ell)
        digits = np.arange(total)[:, None] // q ** np.arange(shape.n) % q
        candidates = digits.reshape(total, shape.s, shape.ell)
    elif mode == "random":
        if count > MAX_EXHAUSTIVE_CANDIDATES:
            raise TooLargeError(
                f"count {count} exceeds the candidate bound {MAX_EXHAUSTIVE_CANDIDATES}")
        rng = random.Random(seed)
        candidates = ([[rng.randrange(q) for _ in range(shape.ell)]
                       for _ in range(shape.s)] for _ in range(count))
    else:
        raise ProblemFormatError(f"unknown mode {mode!r}")

    lines = ["n,k,d,hash"]
    seen = set()
    for arr in candidates:
        basis = ideal.span_basis(shape, [BiPoly(shape, arr)])
        key = basis.matrix.tobytes()  # the reduced echelon basis is unique for the span
        if key in seen:
            continue
        seen.add(key)
        gs = ideal.generator_set_from_basis(basis)
        doc = json.dumps(gs.to_json_dict(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(doc.encode()).hexdigest()[:16]
        k = codegen.dimension(gs)
        if k == 0:
            d = ""
        else:
            try:
                d = str(codegen.min_distance(codegen.generator_matrix(gs), cap))
            except TooLargeError:
                d = ""
        lines.append(f"{shape.n},{k},{d},{digest}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tdcyclic",
        description="Two-dimensional cyclic codes: generator polynomial sets, "
                    "generator matrices, membership, verification, surveys.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt=False):
        p.add_argument("--input", required=True, help="problem JSON file, or - for stdin")
        p.add_argument("--output", default=None, help="write output here instead of stdout")
        if fmt:
            p.add_argument("--format", choices=["json", "text", "csv"], default=None)

    p = sub.add_parser("construct", help="canonical generating polynomial set")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("matrix", help="generator matrix")
    common(p, fmt=True)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("params", help="code parameters (n, k, optionally d)")
    common(p)
    p.add_argument("--with-distance", action="store_true", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("member", help="decompose an element over the generating set")
    common(p)
    p.add_argument("--element", required=True,
                   help="s x ell JSON array (inline) or a path to one")
    p.add_argument("--trace", action="store_true", default=None,
                   help="include intermediate remainders")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("verify", help="brute-force verification report")
    common(p)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="survey single-generator codes as CSV")
    common(p)
    p.add_argument("--mode", choices=["exhaustive", "random"], default=None)
    p.add_argument("--count", type=int, default=None, help="samples in random mode")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BoundsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except TooLargeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
