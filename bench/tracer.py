"""Outside-in tracer for the locent library.

The library binds names with ``from .x import y``, so a function is patched
under every name at which a caller looks it up (``harness.run_algorithm1``,
``estimator.greedy_max_packing``, ``entropy.greedy_max_packing`` and so on);
patching only the defining module would silently miss those calls.  Methods
are patched on each class that defines them.

Spans are kept in memory, each with its parent span and the benchmark unit
it belongs to, and are written out once the run ends.  Nothing under
``src/`` changes: tracing inside the library is separate work.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from locent import bodies, entropy, estimator, harness, packing, projections

_ROWS = lambda a, k, out: {"rows": len(a[0])}  # noqa: E731
_OUT_ROWS = lambda a, k, out: {"rows": len(out)}  # noqa: E731


def _profile_key(a, k, out):
    # body tag, constant, grid, seed and center identify a profile exactly
    center = b"" if out.center is None else out.center.tobytes()
    return {"key": (a[0].tag, out.c, out.kind, out.eps.tobytes(), out.seed, center,
                    out.pool_size)}


def _select_counts(a, k, out):
    points = a[1] if len(a) > 1 else k["points"]
    return {"candidates": len(points), "centers": len(out)}


def _trials(sides):
    return lambda a, k, out: {"trials": sides * out.trials}


# (owner, attribute, span name, counter); counters see (args, kwargs, result)
PATCHES = [
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "local_entropy", "entropy.local_entropy", _profile_key),
    (harness, "stage_schedule", "estimator.stage_schedule", None),
    (harness, "run_algorithm1", "estimator.run_algorithm1", None),
    (harness, "draw_data", "harness.draw_data", None),
    (harness, "check_norm_concentration", "harness.check_norm_concentration", _trials(1)),
    (harness, "check_test_error", "harness.check_test_error", _trials(2)),
    (estimator, "structured_candidates", "estimator.structured_candidates", _OUT_ROWS),
    (estimator, "greedy_max_packing", "packing.greedy_max_packing", None),
    (entropy, "greedy_max_packing", "packing.greedy_max_packing", None),
    (estimator.RegressionData, "rss", "estimator.rss", None),
    (packing, "build_pool", "packing.build_pool", None),
    (packing, "greedy_select", "packing.greedy_select", _select_counts),
    (packing, "pull_into_ball", "bodies.pull_into_ball", None),
    (projections, "project_l1_ball_rows", "projections.project_l1_ball_rows", _ROWS),
    (projections, "project_ellipsoid_rows", "projections.project_ellipsoid_rows", _ROWS),
    (projections, "project_quad_ball_rows", "projections.project_quad_ball_rows", _ROWS),
    (projections, "project_monotone_box_1d_rows",
     "projections.project_monotone_box_1d_rows", _ROWS),
    (projections, "isotonic_rows", "projections.isotonic_rows", _ROWS),
    (projections, "dykstra", "projections.dykstra", None),
] + [
    (cls, meth, f"bodies.{meth}", None)
    for cls in (bodies.ConvexBody, bodies.LinearL1, bodies.LinearEllipsoid,
                bodies.MonotoneGrid, bodies.HolderGrid)
    for meth in ("sample_rows", "project_rows", "feasible_rows")
    if meth in vars(cls)
]


class Tracer:
    """Context manager that installs the patches and records spans.

    A span is ``[name, parent, unit, start, end, nested, counts]``; ``nested``
    marks a span opened inside another span of the same name, so inclusive
    times count the outermost call only.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.unit = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, self.unit, clock(), 0.0,
                    active[name] > 0, None]
            spans.append(span)
            stack.append(sid)
            active[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                active[name] -= 1
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        for owner, attr, name, counter in PATCHES:
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, counter))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost calls only),
        self seconds (duration minus direct children) and summed counts."""
        child = defaultdict(float)
        for name, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for sid, (name, _, _, start, end, nested, counts) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "distinct": set()})
            t["calls"] += 1
            dur = end - start
            if not nested:
                t["s"] += dur
            t["self_s"] += dur - child[sid]
            for key, val in (counts or {}).items():
                if key == "key":
                    t["distinct"].add(val)
                else:
                    t[key] = t.get(key, 0) + val
        for t in out.values():
            t["distinct"] = len(t.pop("distinct"))
        return out

    def write(self, path):
        """Write the spans as JSON: span names once, then one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[name], parent, unit, round(start, 7), round(end, 7),
             {k: v for k, v in (counts or {}).items() if k != "key"}]
            for name, parent, unit, start, end, _, counts in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "parent", "unit", "start", "end", "counts"],
                       "spans": rows}, fh, separators=(",", ":"))
