"""The benchmark's tracer wraps program functions by name: a renamed or
deleted function must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import tdcyclic
from tdcyclic import cli, gf, ideal

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_and_restores_the_originals():
    originals = (cli.main, ideal.span_basis, tdcyclic.span_basis, gf.Field.__dict__["mul"])
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()  # a KeyError or AttributeError names the missing function
        assert cli.main is not originals[0] and ideal.span_basis is not originals[1]
        assert tdcyclic.span_basis is ideal.span_basis
    finally:
        tracer.uninstall()
    assert (cli.main, ideal.span_basis, tdcyclic.span_basis,
            gf.Field.__dict__["mul"]) == originals
