"""Record the output digests that the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/record_expected.py

Runs every workload untimed for the default seed and writes
``perfbench/expected.json``.  The recorded values are the reference for
"outputs unchanged": re-record only when an output format changes on
purpose, and say so in the change that does it.
"""

import json
import sys

import tdcyclic as tc

import workloads
import worker

def digests(work, cases):
    return {str(work.key(c)): work.digest(work.run(c)) for c in cases}


def main():
    seed = worker.DEFAULT_SEED
    doc = {"seed": seed, "any_seed": {}}
    for name, cls in worker.WORKLOADS.items():
        fields = {pm: tc.GF(*pm) for pm in workloads.workload_fields(name)}
        work = cls(tc, fields, seed)
        if name == "survey":
            doc[name] = [work.digest(work.run(c)) for c in work.cases()]
        else:
            doc[name] = digests(work, work.cases())
        print(f"{name}: {len(doc[name])} outputs", file=sys.stderr)
    # exhaustive enumeration does not depend on the seed
    exhaustive = [c for c in worker.Cli(tc, {pm: tc.GF(*pm) for pm in
                                             workloads.workload_fields("cli")}, seed).cases()
                  if "exhaustive" in c.args]
    doc["any_seed"]["cli"] = {str(c.index): doc["cli"][str(c.index)] for c in exhaustive}
    with open(worker.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
