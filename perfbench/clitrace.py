"""Run one tdcyclic CLI command with every layer traced.

Usage: python3 clitrace.py SUMMARY_JSON REQUEST_ID SUBCOMMAND [ARGS...]

Behaves like ``python3 -m tdcyclic.cli SUBCOMMAND [ARGS...]`` and also
writes the tracer's self times and counts to SUMMARY_JSON.
"""

import json
import sys

import tracing
from tdcyclic import cli


def main():
    out, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.op(request, lambda: cli.main(argv))
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
