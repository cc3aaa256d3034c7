"""Spans and counts recorded from outside the program.

``Tracer.install`` wraps the public functions and methods of every
tdcyclic layer: a module-level function is replaced in every tdcyclic
module (and the package namespace) that holds a reference to it, since
that is where its callers look the name up; a method is replaced on its
class.  ``uninstall`` puts every original back, so untraced runs execute
the program unchanged.

A span is opened at each layer boundary.  Calls of the fine-grained
layers (``gf`` arrays, ``polyring``, ``ring2d``) made from inside the
same layer are counted but get no span of their own.  ``gf`` scalar
operations are only counted.  Spans live in compact arrays in memory and
are written once, at the end.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, qualified name, fine-grained)
_SPANS = (
    ("gf", "Field.__init__", False),
    ("gf", "Field.add_arrays", True), ("gf", "Field.neg_array", True),
    ("gf", "Field.sub_arrays", True), ("gf", "Field.scale_array", True),
    ("gf", "Field.mul_arrays", True),
    ("polyring", "gcd", True), ("polyring", "xgcd", True), ("polyring", "cofactor", True),
    ("polyring", "divides_xs_minus_one", True), ("polyring", "xs_minus_one", True),
    ("polyring", "Poly.__add__", True), ("polyring", "Poly.__sub__", True),
    ("polyring", "Poly.__neg__", True), ("polyring", "Poly.__mul__", True),
    ("polyring", "Poly.__divmod__", True), ("polyring", "Poly.scale", True),
    ("polyring", "Poly.monic", True),
    ("polyring", "CyclicPoly.__add__", True), ("polyring", "CyclicPoly.__sub__", True),
    ("polyring", "CyclicPoly.__neg__", True), ("polyring", "CyclicPoly.__mul__", True),
    ("polyring", "CyclicPoly.scale", True), ("polyring", "CyclicPoly.shift", True),
    ("polyring", "CyclicPoly.lift", True), ("polyring", "CyclicPoly.from_poly", True),
    ("ring2d", "BiPoly.__add__", True), ("ring2d", "BiPoly.__sub__", True),
    ("ring2d", "BiPoly.__neg__", True), ("ring2d", "BiPoly.__mul__", True),
    ("ring2d", "BiPoly.scale", True), ("ring2d", "BiPoly.shift_x", True),
    ("ring2d", "BiPoly.shift_y", True), ("ring2d", "BiPoly.coord", True),
    ("ring2d", "BiPoly.coords", True), ("ring2d", "BiPoly.to_vector", True),
    ("ring2d", "BiPoly.from_vector", True), ("ring2d", "BiPoly.from_coords", True),
    ("ideal", "span_basis", False), ("ideal", "layer_generator", False),
    ("ideal", "generator_set_from_basis", False), ("ideal", "extract_generators", False),
    ("ideal", "canonical_form", False), ("ideal", "decompose", False),
    ("ideal", "EchelonBasis.residual", False), ("ideal", "EchelonBasis.contains", False),
    ("codegen", "dimension", False), ("codegen", "generator_matrix", False),
    ("codegen", "encode", False), ("codegen", "min_distance", False),
    ("codegen", "code_params", False),
    ("oracle", "bruteforce_ideal", False), ("oracle", "enumerate_span", False),
    ("oracle", "reduced_span", False), ("oracle", "check_shift_closure", False),
    ("oracle", "verify_generator_set", False), ("oracle", "verify_matrix", False),
    ("cli", "main", False), ("cli", "load_problem", False),
    ("cli", "cmd_construct", False), ("cli", "cmd_matrix", False),
    ("cli", "cmd_params", False), ("cli", "cmd_member", False),
    ("cli", "cmd_verify", False), ("cli", "cmd_enumerate", False),
)
_SCALARS = ("make", "add", "neg", "sub", "mul", "inv", "div", "pow")
_ARRAY_OPS = frozenset(f"gf.Field.{n}" for n in
                       ("add_arrays", "neg_array", "sub_arrays", "scale_array", "mul_arrays"))


class Tracer:
    """Wraps the program's layers and keeps spans, self times and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[list] = []     # [span index, layer, child ns]
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._op = self._wrap("bench.op", lambda body: body(), False, None)

    # -- recording -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, fine, on_result):
        layer = name.split(".", 1)[0]
        nid = self._name_id(name)
        stack, counts, self_ns = self._stack, self.counts, self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if fine and stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, args, result)
                return result
            idx = len(self.span_start)
            parent = stack[-1][0] if stack else -1
            entry = [idx, layer, 0]
            stack.append(entry)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_request.append(self.request)
            self.span_end.append(0)
            t0 = clock()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_result is not None:
                    on_result(self, args, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[idx] = t1
                dur = t1 - t0
                self_ns[name] += dur - entry[2]
                if stack:
                    stack[-1][2] += dur
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, request, body):
        """Run ``body()`` as one benchmark operation under a root span."""
        self.request = request
        return self._op(body)

    # -- installing -------------------------------------------------------------

    def install(self):
        import tdcyclic  # noqa: F401  (loads every layer)
        from tdcyclic import cli  # noqa: F401
        mods = {n: m for n, m in sys.modules.items()
                if n == "tdcyclic" or n.startswith("tdcyclic.")}
        for layer, qual, fine in _SPANS:
            name = f"{layer}.{qual}"
            mod = mods[f"tdcyclic.{layer}"]
            hook = _HOOKS.get(name)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__, fine, hook)))
                else:
                    wrapped = self._wrap(name, raw, fine, hook)
                    self._patch(cls, attr, wrapped)
                    if cls.__dict__.get("__rmul__") is raw and attr == "__mul__":
                        self._patch(cls, "__rmul__", wrapped)
            else:
                orig = getattr(mod, qual)
                wrapped = self._wrap(name, orig, fine, hook)
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapped)
        field_cls = mods["tdcyclic.gf"].Field
        for attr in _SCALARS:
            self._patch(field_cls, attr, self._counter(f"gf.scalar.{attr}",
                                                        field_cls.__dict__[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        return {"self_ns": dict(self.self_ns), "counts": dict(self.counts),
                "spans": len(self.span_start)}

    def inclusive_by_request(self, names) -> dict:
        """{request: {name: seconds}}: summed durations of the named spans."""
        ids = {self._ids[n]: n for n in names if n in self._ids}
        out: dict = {}
        for nid, req, t0, t1 in zip(self.span_name, self.span_request,
                                    self.span_start, self.span_end):
            if nid in ids:
                row = out.setdefault(req, {})
                row[ids[nid]] = row.get(ids[nid], 0.0) + (t1 - t0) / 1e9
        return out

    def write(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            parent=np.frombuffer(self.span_parent, np.int32),
            request=np.frombuffer(self.span_request, np.int32),
            start=np.frombuffer(self.span_start, np.int64),
            end=np.frombuffer(self.span_end, np.int64))


# -- counts read off arguments and results --------------------------------------


def _count(key, amount):
    def hook(tr, args, result):
        if not isinstance(result, BaseException):
            tr.counts[key] += amount(args, result)
    return hook


def _nonmember(tr, args, result):
    if type(result).__name__ == "NotMember":
        tr.counts["ideal.nonmembers"] += 1


def _span_basis(tr, args, result):
    if isinstance(result, BaseException):
        return
    shape, gens = args[0], args[1]
    tr.counts["ideal.span_rows"] += sum(1 for g in gens if not g.is_zero) * shape.n
    tr.counts["ideal.span_cols"] += shape.n
    tr.counts["ideal.rank"] += result.dimension


def _failed_checks(args, result):
    return sum(1 for c in result.checks if not c.passed)


_HOOKS = {
    **{name: _count("gf.array_elems", lambda a, r: int(np.size(r))) for name in _ARRAY_OPS},
    "ideal.span_basis": _span_basis,
    "ideal.generator_set_from_basis": _count(
        "ideal.nonzero_layers", lambda a, r: sum(1 for L in r.layers if not L.is_zero)),
    "ideal.decompose": _nonmember,
    "codegen.generator_matrix": _count("codegen.k_total", lambda a, r: r.k),
    "codegen.min_distance": _count(
        "codegen.codewords_nominal", lambda a, r: a[0].shape.field.q**a[0].k - 1),
    "oracle.bruteforce_ideal": _count("oracle.closure_dim_total", lambda a, r: r.dimension),
    "oracle.verify_generator_set": _count("oracle.checks_failed", _failed_checks),
    "oracle.verify_matrix": _count("oracle.checks_failed", _failed_checks),
}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics (seconds and counts) from a tracer summary."""
    sn, c = summary["self_ns"], summary["counts"]

    def secs(*names):
        return sum(sn.get(n, 0) for n in names) / 1e9

    def cnt(*names):
        return sum(c.get(n, 0) for n in names)

    def prefixed(prefix):
        return [n for n in sn if n.startswith(prefix)]

    return {
        "gf.field_build_s": secs("gf.Field.__init__"),
        "gf.array_calls": cnt(*_ARRAY_OPS),
        "gf.array_elems": cnt("gf.array_elems"),
        "gf.array_s": secs(*_ARRAY_OPS),
        "gf.scalar_calls": cnt(*(f"gf.scalar.{a}" for a in _SCALARS)),
        "polyring.divmod_calls": cnt("polyring.Poly.__divmod__"),
        "polyring.gcd_calls": cnt("polyring.gcd", "polyring.xgcd"),
        "polyring.mul_calls": cnt("polyring.Poly.__mul__", "polyring.CyclicPoly.__mul__"),
        "polyring.s": secs(*prefixed("polyring.")),
        "ring2d.mul_calls": cnt("ring2d.BiPoly.__mul__"),
        "ring2d.mul_s": secs("ring2d.BiPoly.__mul__"),
        "ideal.span_basis_calls": cnt("ideal.span_basis"),
        "ideal.span_basis_s": secs("ideal.span_basis"),
        "ideal.span_rows": cnt("ideal.span_rows"),
        "ideal.span_cols": cnt("ideal.span_cols"),
        "ideal.rank": cnt("ideal.rank"),
        "ideal.layers_s": secs("ideal.generator_set_from_basis", "ideal.layer_generator"),
        "ideal.nonzero_layers": cnt("ideal.nonzero_layers"),
        "ideal.decompose_calls": cnt("ideal.decompose"),
        "ideal.decompose_s": secs("ideal.decompose"),
        "ideal.nonmembers": cnt("ideal.nonmembers"),
        "codegen.generator_matrix_s": secs("codegen.generator_matrix"),
        "codegen.k_total": cnt("codegen.k_total"),
        "codegen.encode_s": secs("codegen.encode"),
        "codegen.min_distance_calls": cnt("codegen.min_distance"),
        "codegen.min_distance_s": secs("codegen.min_distance"),
        "codegen.codewords_nominal": cnt("codegen.codewords_nominal"),
        "oracle.verify_calls": cnt("oracle.verify_generator_set", "oracle.verify_matrix"),
        "oracle.verify_s": secs("oracle.verify_generator_set", "oracle.verify_matrix"),
        "oracle.closure_calls": cnt("oracle.bruteforce_ideal"),
        "oracle.closure_s": secs("oracle.bruteforce_ideal"),
        "oracle.closure_dim_total": cnt("oracle.closure_dim_total"),
        "oracle.checks_failed": cnt("oracle.checks_failed"),
    }


def merge(into: dict, summary: dict):
    """Add one tracer summary (for example from a CLI child) into another."""
    for key in ("self_ns", "counts"):
        for name, v in summary[key].items():
            into[key][name] = into[key].get(name, 0) + v
    into["spans"] += summary["spans"]
