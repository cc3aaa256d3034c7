"""One benchmark process: set-up, seeded inputs, timed loop, checks.

Started by ``run.py`` in a pinned environment.  It imports the package
and builds every field the workload uses, prints ``ready`` (the end of
set-up), generates its inputs from the seed, runs the workload, checks
every output and prints one JSON line with the raw results.

With ``--trace 1`` it runs a fixed amount of work three times: to warm
up, plain, and with the layers wrapped by ``tracing.Tracer``.  The counts
repeat exactly, and the ratio of the last two times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
import tdcyclic as tc
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1

SURVEY_IDEALS = 7 * len(workloads.SURVEY_CONFIGS)   # 525 ideals in one survey pass
SURVEY_TRACE_IDEALS = 400   # ideals in a traced survey run
CLI_TIMEOUT_S = 60
MIN_PASSES = 2        # passes a timed run always makes
DEADLINE_SHARE = 1.25  # later passes start only within this share of --seconds
REF_GAP_S = 0.3       # operation seconds between two runs of the reference kernel
REF_NEIGHBOURS = 4    # kernel runs whose median time an operation is divided by
MAX_REPS = 5          # runs of one case within a pass


# -- workloads -------------------------------------------------------------------


class Workload:
    """The pass plan of a timed run.

    The number of passes follows from ``--seconds`` and the pass time
    expected on an unloaded machine, not from the clock, so that a brief
    slow phase of the machine does not also cost the run its later
    passes; ``timed_loop`` only stops a run that overruns by far."""

    PASS_S = 5.0      # expected seconds per pass
    MIN_CASE_S = 0.0  # seconds of runs per case and pass, see timed_loop

    def passes(self, seconds):
        return max(1, int(seconds // self.PASS_S))

    def pass_cases(self, j):
        """The cases of pass ``j``."""
        return self.cases()


class Survey(Workload):
    """Many tiny ideals through the whole library pipeline, oracle included."""

    PASS_S = 4.5
    reference = staticmethod(reference.small_objects)

    def __init__(self, tc, fields, seed):
        self.tc, self.fields, self.seed = tc, fields, seed
        self._cases = [workloads.survey_case(seed, i, fields) for i in range(SURVEY_IDEALS)]

    def cases(self):
        return self._cases

    def trace_cases(self):
        return self._cases[:SURVEY_TRACE_IDEALS]

    def warmup_cases(self):
        return [workloads.survey_case(self.seed, -1 - i, self.fields) for i in range(25)]

    def run(self, case):
        tc = self.tc
        fld = self.fields[(case.p, case.m)]
        shape = tc.RingShape(fld, case.s, case.ell)
        gens = [tc.BiPoly(shape, g) for g in case.gens]
        gs = tc.extract_generators(shape, gens)
        gm = tc.generator_matrix(gs)
        k = gm.k
        with_d = k > 0 and fld.q**k <= workloads.SURVEY_DISTANCE_LIMIT
        params = tc.code_params(gs, with_distance=with_d)
        cw = tc.encode(gm, case.message[:k])
        dec = tc.decompose(tc.BiPoly(shape, cw.reshape(case.s, case.ell)), gs)
        try:
            probe = tc.decompose(tc.BiPoly(shape, case.probe), gs)
        except tc.NotMember as e:
            probe = e.layer
        ok = (tc.verify_generator_set(gs, gens).passed, tc.verify_matrix(gm, gens).passed)
        return shape, gens, gs, gm, params, cw, dec, probe, ok

    def key(self, case):
        return case.index

    def case_table(self):
        return []

    def digest(self, out):
        gs, params = out[2], out[4]
        return checks.digest([gs.to_json_dict(), params.d])

    def check(self, gate, i, case, out):
        shape, gens, gs, gm, params, cw, dec, probe, ok = out
        fld = shape.field
        gate.check(i, all(ok), "oracle report failed")
        gate.check(i, checks.rank(fld, gm.rows) == gm.k == params.k, "rank != dimension")
        gate.check(i, checks.decomposition_holds(fld, gs, cw.reshape(shape.s, shape.ell),
                                                 [q.coeffs for q in dec.coeffs]),
                   "codeword decomposition identity")
        probe_elem = self.tc.BiPoly(shape, case.probe)
        if isinstance(probe, int):
            gate.check(i, not checks.closure_contains(shape, gens, probe_elem),
                       "non-member verdict disagrees with the oracle")
        else:
            gate.check(i, checks.decomposition_holds(fld, gs, case.probe,
                                                     [q.coeffs for q in probe.coeffs]),
                       "probe decomposition identity")
        if params.d is not None:
            gate.check(i, checks.exact_min_weight(fld, gm.rows) == params.d,
                       "d is not the minimum weight")


class Structured(Workload):
    """Shared by ``large``, ``distance`` and ``cli``: a fixed list of seeded cases."""

    def __init__(self, tc, fields, seed):
        self.tc, self.fields, self.seed = tc, fields, seed
        self._cases = workloads.structured_cases(self.specs, seed, self.tag, fields)
        self.problems = self._cases

    def cases(self):
        return self._cases

    def trace_cases(self):
        return self._cases

    def warmup_cases(self):
        """The first case of the list, run once untimed before the timed loop."""
        return self._cases[:1]

    def key(self, case):
        return case.spec.name

    def case_table(self):
        return [{"name": c.spec.name, "q": c.spec.q, "s": c.spec.s, "ell": c.spec.ell,
                 "k": c.spec.k} for c in self.problems]

    def shape(self, case):
        sp = case.spec
        return self.tc.RingShape(self.fields[(sp.p, sp.m)], sp.s, sp.ell)


class Large(Structured):
    """Few big ideals: O(n^3) elimination, no oracle."""

    specs = workloads.LARGE_SPECS
    tag = "large"
    PASS_S = 8.0
    MIN_CASE_S = 0.3
    reference = staticmethod(reference.elimination)

    def run(self, case):
        tc = self.tc
        shape = self.shape(case)
        gs = tc.extract_generators(shape, [tc.BiPoly(shape, g) for g in case.gens])
        gm = tc.generator_matrix(gs)
        cw = tc.encode(gm, case.message)
        dec = tc.decompose(tc.BiPoly(shape, cw.reshape(shape.s, shape.ell)), gs)
        return gs, gm, cw, dec

    def digest(self, out):
        return checks.digest(out[0].to_json_dict())

    def check(self, gate, i, case, out):
        gs, gm, cw, dec = out
        fld, k = gs.shape.field, case.spec.k
        gate.check(i, gm.k == k, f"k = {gm.k}, structure gives {k}")
        gate.check(i, checks.rank(fld, gm.rows) == k, "rank != dimension")
        gate.check(i, checks.canonical_layout(gs), "generating set is not in canonical form")
        gate.check(i, checks.decomposition_holds(fld, gs, cw.reshape(gs.shape.s, gs.shape.ell),
                                                 [q.coeffs for q in dec.coeffs]),
                   "codeword decomposition identity")


class Distance(Structured):
    """Real codes whose minimum distance search dominates."""

    specs = workloads.DISTANCE_SPECS
    tag = "distance"
    CAP_S = 13.0   # the cap case alone, run in the first pass only
    PASS_S = 5.5   # every other case
    MIN_CASE_S = 0.3
    reference = staticmethod(reference.bulk_arrays)

    def passes(self, seconds):
        return 1 + max(0, int((seconds - self.CAP_S) // self.PASS_S))

    def pass_cases(self, j):
        if j == 0:
            return self._cases
        cap = max(c.spec.q**c.spec.k for c in self._cases)
        return [c for c in self._cases if c.spec.q**c.spec.k < cap]

    def run(self, case):
        tc = self.tc
        shape = self.shape(case)
        gs = tc.extract_generators(shape, [tc.BiPoly(shape, g) for g in case.gens])
        return gs, tc.code_params(gs, with_distance=True)

    def digest(self, out):
        return checks.digest([out[0].to_json_dict(), out[1].d])

    def check(self, gate, i, case, out):
        gs, params = out
        fld, k, d = gs.shape.field, case.spec.k, params.d
        gm = self.tc.generator_matrix(gs)
        gate.check(i, params.k == k and checks.rank(fld, gm.rows) == k, "rank != dimension")
        gate.check(i, checks.canonical_layout(gs), "generating set is not in canonical form")
        row_weights = [int(w) for w in (gm.rows != 0).sum(axis=1)]
        gate.check(i, d is not None and 1 <= d <= min(row_weights), "d out of range")
        if d is not None:
            gate.check(i, checks.weight_witness(fld, gm.rows, d, (self.seed, i)),
                       "no codeword of weight d, or one lighter")


class Cli(Structured):
    """Sequential subprocess calls of every subcommand on small problems."""

    tag = "cli"
    PASS_S = 8.0

    def __init__(self, tc, fields, seed):
        self.tc, self.fields, self.seed = tc, fields, seed
        self.problems, self._cases = workloads.cli_calls(seed, fields)
        self.child_trace = None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def reference(self):
        reference.interpreter_start(self.env, ROOT)

    def key(self, case):
        return case.index

    def argv(self, case):
        return [case.sub, "--input", "-", *case.args]

    def run(self, case):
        data = json.dumps(case.doc).encode()
        if self.child_trace is None:
            cmd = [sys.executable, "-m", "tdcyclic.cli", *self.argv(case)]
            proc = subprocess.run(cmd, input=data, capture_output=True, cwd=ROOT,
                                  env=self.env, timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout
        summary_path = OUT_DIR / f"cli-trace-{os.getpid()}-{case.index}.json"
        cmd = [sys.executable, str(HERE / "clitrace.py"), str(summary_path), str(case.index),
               *self.argv(case)]
        proc = subprocess.run(cmd, input=data, capture_output=True, cwd=ROOT, env=self.env,
                              timeout=CLI_TIMEOUT_S)
        with open(summary_path, encoding="utf-8") as fh:
            tracing.merge(self.child_trace, json.load(fh))
        summary_path.unlink()
        return proc.returncode, proc.stdout

    def digest(self, out):
        return hashlib.sha256(out[1]).hexdigest()[:16]

    def check(self, gate, i, case, out):
        code, stdout = out
        gate.check(i, code == 0, f"{case.sub} exited {code}")
        if code != 0:
            return
        tc = self.tc
        doc = case.doc
        fld = self.fields[(doc["field"]["p"], doc["field"]["m"])]
        shape = tc.RingShape(fld, doc["s"], doc["ell"])
        gens = [tc.BiPoly(shape, g) for g in doc["generators"]]
        text = stdout.decode()
        if case.sub == "enumerate":
            self._check_enumerate_csv(gate, i, shape, text)
            return
        ideal = tc.bruteforce_ideal(shape, gens)
        if case.sub == "construct":
            out_gens = [tc.BiPoly(shape, g) for g in json.loads(text)["gens"]]
            gate.check(i, np.array_equal(tc.bruteforce_ideal(shape, out_gens).vectors,
                                         ideal.vectors), "construct output spans another ideal")
        elif case.sub == "matrix":
            rows = self._matrix_rows(case, text)
            ok = (checks.rank(fld, rows) == len(rows)
                  and np.array_equal(tc.reduced_span(fld, shape.n, rows), ideal.vectors))
            gate.check(i, ok, "matrix rows are not a basis of the ideal")
        elif case.sub == "params":
            got = json.loads(text)
            k = ideal.dimension
            ok = got["k"] == k and got["n"] == shape.n and got["q"] == fld.q
            if k:
                ok = ok and got.get("d") == checks.exact_min_weight(fld, ideal.vectors)
            gate.check(i, ok, "params disagree with the oracle")
        elif case.sub == "member":
            got = json.loads(text)
            if got["member"]:
                # q refers to the canonical generators; they must lie in the ideal
                canon = tc.extract_generators(shape, gens)
                ok = (all(ideal.contains_elem(g) for g in canon.gens)
                      and checks.decomposition_holds(fld, canon, case.element, got["q"]))
            else:
                ok = not ideal.contains_elem(tc.BiPoly(shape, case.element))
            gate.check(i, ok, "member verdict or decomposition wrong")
        elif case.sub == "verify":
            gate.check(i, all(c["pass"] for c in json.loads(text)["checks"]),
                       "verify reported a failed check")

    def _matrix_rows(self, case, text):
        fmt = case.args[case.args.index("--format") + 1]
        if fmt == "json":
            return np.array(json.loads(text)["rows"], dtype=np.int64)
        sep = "," if fmt == "csv" else " "
        return np.array([[int(v) for v in line.split(sep)] for line in text.splitlines()],
                        dtype=np.int64)

    def _check_enumerate_csv(self, gate, i, shape, text):
        lines = text.splitlines()
        ok = lines[:1] == ["n,k,d,hash"]
        hashes = set()
        for line in lines[1:]:
            n, k, d, h = line.split(",")
            n, k = int(n), int(k)
            ok = ok and n == shape.n and 0 <= k <= n and len(h) == 16 and h not in hashes
            ok = ok and ((d == "") if k == 0 else (1 <= int(d) <= n - k + 1))
            hashes.add(h)
        gate.check(i, ok and len(lines) > 1, "enumerate output malformed")


# -- the loops ------------------------------------------------------------------


def warm_up(work):
    """Run a few cases untimed so that lazy set-up and caches are done."""
    for case in work.warmup_cases():
        try:
            work.run(case)
        except Exception:  # only warms up; the timed runs are checked
            pass


def timed_reference(work):
    """(mid-point, seconds) of one run of the workload's reference kernel."""
    t0 = time.perf_counter()
    work.reference()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def timed_loop(work, passes, gate, deadline_s):
    """Run ``passes`` whole passes over the workload's cases.

    The workload's reference kernel runs before the first operation and
    again whenever the operations since its last run took ``REF_GAP_S``
    seconds.  Each operation's time is divided by the median time of the
    ``REF_NEIGHBOURS`` kernel runs nearest to it, which follows the slow
    and fast phases of a shared machine but not the jitter of single
    kernel runs.  No pass after the second starts once ``deadline_s``
    seconds have gone by, so a slow phase costs a run passes, not time.
    Each output is checked right after its operation, outside the timed
    region, and then dropped.

    Returns the number of operations and of passes run, per case (keyed
    by case) the list of (seconds, seconds / reference time), and the
    timeline: kernel runs as (mid-point, seconds) and operations as
    (mid-point, case key, seconds), from the start of the loop."""
    warm_up(work)
    timed_reference(work)  # warm-up of the kernel
    refs = [timed_reference(work)]
    ops = []   # (mid-point, case key, seconds)
    since_ref = 0.0
    done = 0
    start = time.perf_counter()
    for j in range(passes):
        if j >= MIN_PASSES and time.perf_counter() - start > deadline_s:
            break
        done += 1
        for case in work.pass_cases(j):
            case_s = 0.0
            for _ in range(MAX_REPS):
                t0 = time.perf_counter()
                try:
                    out = work.run(case)
                except Exception as exc:  # counted as a failed operation
                    out = exc
                t1 = time.perf_counter()
                gate.observe(work, len(ops), case, out)
                ops.append(((t0 + t1) / 2, str(work.key(case)), t1 - t0))
                case_s += t1 - t0
                since_ref += t1 - t0
                if since_ref >= REF_GAP_S:
                    refs.append(timed_reference(work))
                    since_ref = 0.0
                if case_s >= work.MIN_CASE_S:
                    break
    if since_ref:
        refs.append(timed_reference(work))
    marks = [mid for mid, _ in refs]
    samples = {}
    for mid, key, dt in ops:
        i = min(max(bisect.bisect(marks, mid) - REF_NEIGHBOURS // 2, 0),
                max(len(refs) - REF_NEIGHBOURS, 0))
        ref = statistics.median(d for _, d in refs[i:i + REF_NEIGHBOURS])
        samples.setdefault(key, []).append((dt, dt / ref))
    timeline = {"refs": [(mid - start, d) for mid, d in refs],
                "ops": [(mid - start, key, dt) for mid, key, dt in ops]}
    return len(ops), done, samples, timeline


def run_cases(work, cases, tracer=None):
    """One pass over fixed cases: (per-case seconds, outputs)."""
    outputs, times = [], []
    for i, case in enumerate(cases):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = work.run(case)
            else:
                out = tracer.op(i, lambda: work.run(case))
        except Exception as exc:  # counted as a failed operation
            out = exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return times, outputs


def expected_for(workload, seed):
    """Recorded output digests that apply to this workload and seed."""
    with open(EXPECTED, encoding="utf-8") as fh:
        doc = json.load(fh)
    exp = dict(doc["any_seed"].get(workload, {}))
    if seed == doc["seed"]:
        recorded = doc[workload]
        if isinstance(recorded, list):  # survey: one digest per stream index
            recorded = {str(i): d for i, d in enumerate(recorded)}
        exp.update(recorded)
    return exp


def cli_probe_ms(env, code, reps=5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=CLI_TIMEOUT_S)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


WORKLOADS = {"survey": Survey, "large": Large, "distance": Distance, "cli": Cli}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up: the interpreter and the package import are paid by now
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    fields = {pm: tc.GF(*pm) for pm in workloads.workload_fields(args.workload)}
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    src = Path(tc.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"error: imported tdcyclic from {src}, not from this checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = WORKLOADS[args.workload](tc, fields, args.seed)
    gate = checks.Gate(expected_for(args.workload, args.seed))
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": {"python": platform.python_version(), "numpy": np.__version__,
                      "nproc": os.cpu_count(), "machine": platform.machine()}}

    if args.trace:
        cases = work.trace_cases()
        run_cases(work, cases)  # warm-up, so that neither timed pass pays first-use costs
        plain_times, outputs = run_cases(work, cases)
        if args.workload == "cli":
            work.child_trace = {"self_ns": {}, "counts": {}, "spans": 0}
        tracer.install()
        try:
            traced_times, traced_outputs = run_cases(work, cases, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        if args.workload == "cli":
            tracing.merge(summary, work.child_trace)
        layers = tracing.layer_metrics(summary)
        layers["trace.overhead_ratio"] = sum(traced_times) / sum(plain_times)
        for name in ("interp", "numpy_import", "import", *CLI_SUBCOMMANDS):
            layers[f"cli.{name}_ms"] = 0.0
        if args.workload == "cli":
            for sub in CLI_SUBCOMMANDS:  # wall time per call, from the plain pass
                layers[f"cli.{sub}_ms"] = 1e3 * statistics.median(
                    t for t, c in zip(plain_times, cases) if c.sub == sub)
            layers["cli.interp_ms"] = cli_probe_ms(work.env, "pass")
            layers["cli.numpy_import_ms"] = cli_probe_ms(work.env, "import numpy")
            layers["cli.import_ms"] = cli_probe_ms(work.env, "import tdcyclic")
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        if args.workload != "survey":
            spans = tracer.inclusive_by_request(TIMED_CALLS)
            result["timings"] = [dict({"case": str(work.key(c)), "op_s": t}, **spans.get(i, {}))
                                 for i, (c, t) in enumerate(zip(cases, plain_times))]
        for i, (case, a, b) in enumerate(zip(cases, outputs, traced_outputs)):
            gate.observe(work, i, case, a)
            same = (not isinstance(b, Exception) and not isinstance(a, Exception)
                    and work.digest(a) == work.digest(b))
            gate.check(i, same, "traced output differs from the plain one")
        result.update(metrics=layers, attempted=2 * len(cases), spans=summary["spans"])
    else:
        attempted, passes, samples, timeline = timed_loop(
            work, work.passes(args.seconds), gate, DEADLINE_SHARE * args.seconds)
        result["timeline"] = timeline
        # per case: the median multiple of the reference time, and the best raw time
        rel = {k: statistics.median(r for _, r in v) for k, v in samples.items()}
        best = {k: min(t for t, _ in v) for k, v in samples.items()}
        result.update(attempted=attempted, passes=passes, metrics={
            "peak_rss_mb": peak_rss_mb(args.workload == "cli"),
            "wall_ref": sum(rel.values()),
            "op_p50_ref": statistics.median(rel.values()),
        }, raw={"wall_s": sum(best.values()),
                "op_p50_ms": statistics.median(best.values()) * 1e3})
        if args.workload != "survey":
            result["timings"] = [{"case": k, "op_s": best[k], "op_ref": rel[k]} for k in best]
    result["cases"] = work.case_table()
    result["failed"] = len(gate.failed_ops)
    result["failures"] = gate.failures[:20]
    result["correct"] = not gate.failures
    print(json.dumps(result), flush=True)
    return 0


CLI_SUBCOMMANDS = ("construct", "matrix", "params", "member", "verify", "enumerate")
# library calls whose traced duration is reported per case
TIMED_CALLS = ("ideal.span_basis", "ideal.generator_set_from_basis", "codegen.min_distance")

if __name__ == "__main__":
    sys.exit(main())
