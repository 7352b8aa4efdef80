"""Tooling guards for the benchmark scripts under ``bench/``."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_patches_resolve_and_restore():
    # the tracer patches library names by string; a renamed one would break
    # only the traced bench run, so enter and exit it here (importing it
    # leaves no bytecode cache under bench/)
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    before = [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCHES]
    with tracer.Tracer():
        during = [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCHES]
    after = [vars(owner)[attr] for owner, attr, _, _ in tracer.PATCHES]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
