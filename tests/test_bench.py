"""Tooling guards for the benchmark scripts under ``bench/``."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def import_bench(name: str):
    """Import a module of ``bench/`` without leaving bytecode caches there."""
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


def test_tracer_patches_resolve_and_restore():
    # the tracer patches library names by string; a renamed one would break
    # only the traced bench run, so enter and exit it here
    tracer = import_bench("tracer")
    before = [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCHES]
    with tracer.Tracer():
        during = [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCHES]
    after = [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCHES]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_workloads_build_and_run():
    # the workloads call the library's public API; a change that breaks them
    # would otherwise show only when the benchmark runs
    workloads = import_bench("workloads")
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs()
    mc = workloads.WORKLOADS["mc_checks"]
    res = mc.run_unit(0, workloads.DEFAULT_SEED, mc.inputs())
    assert res.failed == 0 and not res.problems, res
