"""tdcyclic benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The benchmark measures the
package in ``src/`` of that checkout; it exits with status 2 when there
is none.  Every process it starts runs with one BLAS/OpenMP thread and a
fixed hash seed, one at a time.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median,
over several fresh processes, of the time from process start until the
package is imported and every field the workload uses is built.
``--trace 1`` prints the per-layer metrics of a traced run.  Metric
names and units are the ones declared in ``BENCHMARK.json``.  The last
line of standard output is the result object; the line before it holds
the environment and the case table.  The full result is also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("survey", "large", "distance", "cli")
SETUP_PROBES = 6          # extra set-up-only processes; the run itself adds one
READY_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def pinned_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


def start_worker(args, env, extra):
    """Start a worker; return (process, seconds from start until it is set up)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - t0
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish set-up: {line!r}")
    return proc, setup


def finish(proc, timeout):
    """Wait for a worker; its standard output, or None after a failure,
    which is reported.  A worker that overruns is killed."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tdcyclic" / "__init__.py").is_file():
        print(f"error: no tdcyclic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()

    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        proc, setup = start_worker(args, env, ["--setup-only"])
        if finish(proc, READY_TIMEOUT_S) is None:
            return 1
        setups.append(setup)
    proc, setup = start_worker(args, env, [])
    setups.append(setup)
    out = finish(proc, RUN_TIMEOUT_S)
    if not out:
        print("error: no result from the worker", file=sys.stderr)
        return 1
    res = json.loads(out.decode().strip().splitlines()[-1])

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    res["setup_samples_s"] = setups
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(dict(res, metrics=metrics), fh, indent=1)
    for op, what in res["failures"]:
        print(f"check failed: operation {op}: {what}", file=sys.stderr)
    print(json.dumps({"env": res["env"], "raw": res.get("raw", {}), "cases": res["cases"],
                      "timings": res.get("timings", [])}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
