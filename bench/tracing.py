"""Spans around the library's layer entry points, recorded from outside.

The tracer rebinds each traced function in the namespace of the module that
calls it (``curvedkin.kinematics.sample_isometry_matrices`` is the sampler
as the Monte Carlo sees it), wraps ``GeodesicPolygon.__init__`` in a span
and counts ``SurfacePoint`` constructions.  No library source changes, and
:meth:`Tracer.installed` restores every binding on exit.

Spans are kept in memory; :func:`layer_metrics` turns a selection of them
into the per-layer metrics, and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

import numpy as np


def _motions_arg(index: int) -> Callable:
    return lambda args, kwargs, result: {"motions": int(np.size(args[index]))}


def _lhs_counts(args, kwargs, est) -> dict:
    # p = hits / n and mean = W p, so the hit count is recovered exactly.
    hits = round(est.mean / est.support_area * est.samples)
    return {"motions": est.samples, "hits": hits}


def _found(args, kwargs, witness) -> dict:
    return {"found": int(witness is not None)}


def _report_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (calling module, attribute, span name, counter).  A layer function is
# traced where it is called from, so internal helpers are not double counted:
# surface.motion_matrices is traced only as the containment search binds it.
TARGETS = (
    ("curvedkin.kinematics", "sample_isometry_matrices",
     "surface.sample_isometry_matrices", _motions_arg(2)),
    ("curvedkin.kinematics", "motion_matrices", "surface.motion_matrices",
     _motions_arg(1)),
    ("curvedkin.bonnesen", "convex_hull", "convex.convex_hull", None),
    ("curvedkin.cli", "convex_hull", "convex.convex_hull", None),
    ("curvedkin.radii", "area", "convex.area", None),
    ("curvedkin.kinematics", "area", "convex.area", None),
    ("curvedkin.radii", "perimeter", "convex.perimeter", None),
    ("curvedkin.kinematics", "perimeter", "convex.perimeter", None),
    ("curvedkin.radii", "inradius", "radii.inradius", None),
    ("curvedkin.radii", "circumradius", "radii.circumradius", None),
    ("curvedkin.kinematics", "circumradius", "radii.circumradius", None),
    ("curvedkin.radii", "metrics", "radii.metrics", None),
    ("curvedkin.bonnesen", "metrics", "radii.metrics", None),
    ("curvedkin.cli", "metrics", "radii.metrics", None),
    ("curvedkin.kinematics", "kinematic_lhs", "kinematics.kinematic_lhs",
     _lhs_counts),
    ("curvedkin.cli", "kinematic_lhs", "kinematics.kinematic_lhs",
     _lhs_counts),
    ("curvedkin.cli", "find_containment", "kinematics.find_containment",
     _found),
    ("curvedkin.bonnesen", "random_convex_body", "bonnesen.random_convex_body",
     None),
    ("curvedkin.cli", "random_convex_body", "bonnesen.random_convex_body",
     None),
    ("curvedkin.bonnesen", "deficit_report", "bonnesen.deficit_report", None),
    ("curvedkin.cli", "deficit_report", "bonnesen.deficit_report", None),
    ("curvedkin.cli", "run_campaign", "cli.run_campaign", None),
    ("curvedkin.cli", "write_report", "cli.write_report", _report_bytes),
)

SUITE_NAMES = ("metrics", "verify-kinematic", "verify-containment",
               "verify-bonnesen", "sweep-kappa")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "item", "error",
                 "counts")

    def __init__(self, id_, name, start, parent, item):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.error: Optional[str] = None
        self.counts: Optional[dict] = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans and counts from every thread of one process.

    ``item`` names the unit of work in progress; the benchmark loop sets it
    and every span opened meanwhile, in any thread, carries it.  A span
    opened on an otherwise idle worker thread (the campaign's suite pool)
    takes the main thread's innermost open span as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.points: dict = defaultdict(int)
        self.item = "setup"
        self.unbound: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    self.item)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                tracer.close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def count_point(self) -> None:
        with self._lock:
            self.points[self.item] += 1

    @contextlib.contextmanager
    def installed(self):
        """Bind every traced entry point; restore the originals on exit."""
        undo: list[Callable[[], None]] = []

        def rebind(owner, attr, value):
            old = vars(owner)[attr]
            setattr(owner, attr, value)
            undo.append(functools.partial(setattr, owner, attr, old))

        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                if attr not in vars(module):
                    self.unbound.append(f"{module_name}.{attr}")
                    continue
                rebind(module, attr, self.wrap(name, getattr(module, attr),
                                               count))
            suites = importlib.import_module("curvedkin.cli").SUITES
            for suite, fn in list(suites.items()):
                suites[suite] = self.wrap(f"cli.suite.{suite}", fn)
                undo.append(functools.partial(suites.__setitem__, suite, fn))
            poly_cls = importlib.import_module("curvedkin.convex").GeodesicPolygon
            rebind(poly_cls, "__init__",
                   self.wrap("convex.GeodesicPolygon", poly_cls.__init__))
            point_cls = importlib.import_module("curvedkin.surface").SurfacePoint
            post_init = point_cls.__post_init__

            def counted_post_init(point):
                self.count_point()
                post_init(point)

            rebind(point_cls, "__post_init__", counted_post_init)
            yield self
        finally:
            for step in reversed(undo):
                step()

    def dump(self, path: str, keep: Callable[[object], bool]) -> None:
        """Write the kept spans as one JSON list."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in self.spans if keep(s.item)], fh)
            fh.write("\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    spans = list(spans)
    children: dict = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union_length(
            [iv for iv in covered if iv[1] > iv[0]])
    return out


# (metric name, unit, better).  The list is the benchmark's per-layer
# contract; BENCHMARK.json repeats it and a test keeps the two equal.
PER_LAYER = (
    ("surface.sample_isometry_matrices.s", "s", "lower"),
    ("surface.sample_isometry_matrices.motions", "count", "lower"),
    ("surface.motion_matrices.s", "s", "lower"),
    ("surface.motion_matrices.motions", "count", "lower"),
    ("surface.SurfacePoint.count", "count", "lower"),
    ("convex.convex_hull.s", "s", "lower"),
    ("convex.convex_hull.calls", "count", "lower"),
    ("convex.GeodesicPolygon.s", "s", "lower"),
    ("convex.GeodesicPolygon.count", "count", "lower"),
    ("convex.area.s", "s", "lower"),
    ("convex.perimeter.s", "s", "lower"),
    ("radii.inradius.s", "s", "lower"),
    ("radii.inradius.calls", "count", "lower"),
    ("radii.circumradius.s", "s", "lower"),
    ("radii.circumradius.calls", "count", "lower"),
    ("radii.circumradius.failed", "count", "lower"),
    ("radii.metrics.self_s", "s", "lower"),
    ("kinematics.kinematic_lhs.self_s", "s", "lower"),
    ("kinematics.kinematic_lhs.calls", "count", "lower"),
    ("kinematics.hits", "count", "higher"),
    ("kinematics.hit_ratio", "ratio", "higher"),
    ("kinematics.find_containment.self_s", "s", "lower"),
    ("kinematics.find_containment.calls", "count", "lower"),
    ("kinematics.find_containment.found_ratio", "ratio", "higher"),
    ("bonnesen.random_convex_body.self_s", "s", "lower"),
    ("bonnesen.random_convex_body.calls", "count", "lower"),
    ("bonnesen.random_convex_body.hull_tries", "ratio", "lower"),
    ("bonnesen.deficit_report.s", "s", "lower"),
) + tuple((f"cli.suite.{name}.s", "s", "lower") for name in SUITE_NAMES) + (
    ("cli.run_campaign.s", "s", "lower"),
    ("cli.run_campaign.overlap", "ratio", "higher"),
    ("cli.write_report.s", "s", "lower"),
    ("cli.write_report.bytes", "bytes", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, keep: Callable[[object], bool]) -> dict:
    """Per-layer metrics over the spans whose item passes ``keep``.

    Totals are sums over the kept spans: ``.s`` is wall time inside the
    layer, ``.self_s`` that time less its traced children, ``.calls`` and
    ``.count`` the number of spans, ``.failed`` those that raised.
    """
    spans = [s for s in tracer.spans if keep(s.item)]
    selfs = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    failed = defaultdict(int)
    counts = defaultdict(int)
    by_id = {s.id: s for s in spans}
    hull_in_body = 0
    for s in spans:
        total[s.name] += s.end - s.start
        self_total[s.name] += selfs[s.id]
        calls[s.name] += 1
        if s.error is not None:
            failed[s.name] += 1
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += value
        parent = by_id.get(s.parent)
        if (s.name == "convex.convex_hull" and parent is not None
                and parent.name == "bonnesen.random_convex_body"):
            hull_in_body += 1
    suite_s = sum(total[f"cli.suite.{n}"] for n in SUITE_NAMES)
    values = {
        "surface.sample_isometry_matrices.s":
            total["surface.sample_isometry_matrices"],
        "surface.sample_isometry_matrices.motions":
            counts["surface.sample_isometry_matrices.motions"],
        "surface.motion_matrices.s": total["surface.motion_matrices"],
        "surface.motion_matrices.motions":
            counts["surface.motion_matrices.motions"],
        "surface.SurfacePoint.count":
            sum(n for item, n in tracer.points.items() if keep(item)),
        "convex.convex_hull.s": total["convex.convex_hull"],
        "convex.convex_hull.calls": calls["convex.convex_hull"],
        "convex.GeodesicPolygon.s": total["convex.GeodesicPolygon"],
        "convex.GeodesicPolygon.count": calls["convex.GeodesicPolygon"],
        "convex.area.s": total["convex.area"],
        "convex.perimeter.s": total["convex.perimeter"],
        "radii.inradius.s": total["radii.inradius"],
        "radii.inradius.calls": calls["radii.inradius"],
        "radii.circumradius.s": total["radii.circumradius"],
        "radii.circumradius.calls": calls["radii.circumradius"],
        "radii.circumradius.failed": failed["radii.circumradius"],
        "radii.metrics.self_s": self_total["radii.metrics"],
        "kinematics.kinematic_lhs.self_s":
            self_total["kinematics.kinematic_lhs"],
        "kinematics.kinematic_lhs.calls": calls["kinematics.kinematic_lhs"],
        "kinematics.hits": counts["kinematics.kinematic_lhs.hits"],
        "kinematics.hit_ratio": _ratio(
            counts["kinematics.kinematic_lhs.hits"],
            counts["kinematics.kinematic_lhs.motions"]),
        "kinematics.find_containment.self_s":
            self_total["kinematics.find_containment"],
        "kinematics.find_containment.calls":
            calls["kinematics.find_containment"],
        "kinematics.find_containment.found_ratio": _ratio(
            counts["kinematics.find_containment.found"],
            calls["kinematics.find_containment"]),
        "bonnesen.random_convex_body.self_s":
            self_total["bonnesen.random_convex_body"],
        "bonnesen.random_convex_body.calls":
            calls["bonnesen.random_convex_body"],
        "bonnesen.random_convex_body.hull_tries": _ratio(
            hull_in_body, calls["bonnesen.random_convex_body"]),
        "bonnesen.deficit_report.s": total["bonnesen.deficit_report"],
        "cli.run_campaign.s": total["cli.run_campaign"],
        "cli.run_campaign.overlap": _ratio(suite_s,
                                           total["cli.run_campaign"]),
        "cli.write_report.s": total["cli.write_report"],
        "cli.write_report.bytes": counts["cli.write_report.bytes"],
    }
    for name in SUITE_NAMES:
        values[f"cli.suite.{name}.s"] = total[f"cli.suite.{name}"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
