"""Per-layer tracing by wrapping the package's public functions from outside.

A function is wrapped in the module that looks it up at call time: the CLI
glue calls ``read_labels`` through ``flowtrack.cli``, the tracker calls
``iou3d`` through ``flowtrack.tracker``, and so on.  Each wrapped call is a
span; a span's self time is its duration minus the time of the wrapped
spans it contains, so nested layers are never counted twice.  A name that a
later version of the package removes or renames is recorded as absent
instead of failing the run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    """Totals of one traced name."""

    calls: int = 0
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._attempted: set[str] = set()
        self._stack: list[list[float]] = []

    def absent(self) -> set[str]:
        """Names whose function was found in none of the places tried."""
        return self._attempted - set(self.spans)

    def wrap(
        self,
        module: str,
        attr: str,
        name: str,
        after: Callable[[Span, tuple, Any, Any], None] | None = None,
        before: Callable[[tuple], Any] | None = None,
        timed: bool = True,
    ) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by a
        recording wrapper.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(span, args, result, token)``; neither is timed.  With
        ``timed=False`` the wrapper only counts: the call's time stays with
        the enclosing span, the counting does not, and ``before`` is not
        used.
        """
        self._attempted.add(name)
        try:
            owner: Any = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            return
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        if not timed:
            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                span.calls += 1
                if after:
                    begun = perf_counter()
                    after(span, args, result, None)
                    if stack:
                        stack[-1][0] += perf_counter() - begun
                return result

            setattr(owner, leaf, counting)
            return

        def wrapper(*args, **kwargs):
            # The enclosing span is credited with everything from here to the
            # return, so the cost of this wrapper and its counters stays out
            # of the enclosing span's self time.
            entered = perf_counter()
            try:
                token = before(args) if before else None
                children = [0.0]
                stack.append(children)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    span.calls += 1
                    span.self_s += elapsed - children[0]
                if after:
                    after(span, args, result, token)
                return result
            finally:
                if stack:
                    stack[-1][0] += perf_counter() - entered

        setattr(owner, leaf, wrapper)


# --- counters -----------------------------------------------------------


def _count_len_in_out(span: Span, args: tuple, result: Any, _token: Any) -> None:
    span.add("in", len(args[0]))
    span.add("out", len(result))


def _count_ground(span: Span, args: tuple, result: Any, _token: Any) -> None:
    from flowtrack.preprocess import GROUND

    cloud, _fit = result
    span.add("in", len(args[0]))
    span.add("ground", int((cloud.labels == GROUND).sum()))


def _count_nn_matched(span: Span, args: tuple, result: Any, _token: Any) -> None:
    # A point is matched when it got a neighbour within range.  A zero vector
    # is either "no neighbour" or a neighbour at distance 0; the latter is
    # told apart by looking the point up among the current positions.
    import numpy as np

    prev, curr = args[0], args[1]
    vectors = result.vectors
    zero = ~vectors.any(axis=1)
    matched = len(vectors) - int(zero.sum())
    if zero.any() and len(curr):
        current = {row.tobytes() for row in np.ascontiguousarray(curr.positions)}
        matched += sum(
            row.tobytes() in current for row in np.ascontiguousarray(prev.positions[zero])
        )
    span.add("points", len(vectors))
    span.add("matched", matched)


def _count_points_read(span: Span, _args: tuple, result: Any, _token: Any) -> None:
    span.add("points", len(result))


def _count_starved(span: Span, _args: tuple, result: Any, _token: Any) -> None:
    span.add("starved", int(result[1] == 0))


def _count_cells(span: Span, _args: tuple, result: Any, _token: Any) -> None:
    span.add("cells", int(result.size))


def _count_assignment(span: Span, args: tuple, _result: Any, _token: Any) -> None:
    rows, cols = args[0].shape
    if rows and cols:
        n = max(rows, cols)
        span.add("work_n3", float(n) ** 3)
        span.counters["n_max"] = max(span.counters.get("n_max", 0.0), float(n))


def _tracker_before(args: tuple) -> int:
    return args[0].next_id


def _count_tracker(span: Span, args: tuple, _result: Any, next_id_before: int) -> None:
    tracker = args[0]
    span.add("births", tracker.next_id - next_id_before)
    span.add("live", len(tracker.tracklets))


class _IouCounter:
    def __init__(self) -> None:
        self.pairs: set = set()

    def __call__(self, span: Span, args: tuple, result: Any, _token: Any) -> None:
        span.add("nonzero", int(result > 0.0))
        self.pairs.add((args[0], args[1]))
        span.counters["distinct"] = float(len(self.pairs))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the package."""
    w = tracer.wrap
    w("flowtrack.cli", "read_labels", "kitti_io.read_labels")
    w("flowtrack.cli", "read_velodyne", "kitti_io.read_velodyne", after=_count_points_read)
    w("flowtrack.cli", "write_results", "kitti_io.write_results")
    w("flowtrack.cli", "preprocess_frame", "cli.preprocess_frame")
    w("flowtrack.cli", "filter_fov", "preprocess.filter_fov", after=_count_len_in_out)
    w("flowtrack.cli", "fit_ground", "preprocess.fit_ground", after=_count_ground)
    w("flowtrack.cli", "sample_points", "preprocess.sample_points")
    for cls in ("NearestNeighborFlowEstimator", "OracleFlowEstimator", "FileFlowEstimator"):
        w("flowtrack.flow", f"{cls}.estimate", "flow.estimate")
    w("flowtrack.flow", "estimate_nn", "flow.nn", after=_count_nn_matched, timed=False)
    w("flowtrack.tracker", "compute_offset", "tracker.compute_offset", after=_count_starved)
    w("flowtrack.tracker", "build_similarity", "tracker.build_similarity", after=_count_cells)
    w("flowtrack.tracker", "associate", "tracker.associate")
    w("flowtrack.tracker", "Tracker.step", "tracker.step",
      before=_tracker_before, after=_count_tracker)
    for module in ("flowtrack.tracker", "flowtrack.metrics"):
        w(module, "max_similarity_assignment", "assignment.solve", after=_count_assignment)
    iou_counter = _IouCounter()
    for module in ("flowtrack.tracker", "flowtrack.metrics"):
        w(module, "iou3d", "geometry.iou3d", after=iou_counter)
    for module in ("flowtrack.tracker", "flowtrack.flow"):
        w(module, "points_in_box", "geometry.points_in_box")
    w("flowtrack.cli", "recall_sweep", "metrics.recall_sweep")
    w("flowtrack.metrics", "evaluate_sequences", "metrics.thresholds", timed=False)
    w("flowtrack.metrics", "evaluate_sequence", "metrics.evaluate_sequence", timed=False)
    w("flowtrack.metrics", "match_frame", "metrics.match_frame")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter(key: str) -> Callable[[Span], float]:
    return lambda s: s.counters.get(key, 0.0)


def _share(key: str, base: str | None = None) -> Callable[[Span], float]:
    """Counter ``key`` over counter ``base``, or over the call count."""
    return lambda s: _ratio(s.counters.get(key, 0.0), s.counters.get(base, 0.0) if base else s.calls)


def _self_s(s: Span) -> float:
    return s.self_s


def _calls(s: Span) -> float:
    return float(s.calls)


# Reported metric -> (traced name, value of the span).
LAYER_METRICS: dict[str, tuple[str, Callable[[Span], float]]] = {
    "kitti_io.read_labels_s": ("kitti_io.read_labels", _self_s),
    "kitti_io.read_velodyne_s": ("kitti_io.read_velodyne", _self_s),
    "kitti_io.read_velodyne_points": ("kitti_io.read_velodyne", _counter("points")),
    "kitti_io.write_results_s": ("kitti_io.write_results", _self_s),
    "preprocess.filter_fov_s": ("preprocess.filter_fov", _self_s),
    "preprocess.fov_kept_ratio": ("preprocess.filter_fov", _share("out", "in")),
    "preprocess.fit_ground_s": ("preprocess.fit_ground", _self_s),
    "preprocess.ground_ratio": ("preprocess.fit_ground", _share("ground", "in")),
    "preprocess.sample_points_s": ("preprocess.sample_points", _self_s),
    "flow.estimate_s": ("flow.estimate", _self_s),
    "flow.estimate_calls": ("flow.estimate", _calls),
    "flow.nn_matched_ratio": ("flow.nn", _share("matched", "points")),
    "tracker.compute_offset_s": ("tracker.compute_offset", _self_s),
    "tracker.compute_offset_calls": ("tracker.compute_offset", _calls),
    "tracker.flow_starved_ratio": ("tracker.compute_offset", _share("starved")),
    "tracker.build_similarity_s": ("tracker.build_similarity", _self_s),
    "tracker.similarity_cells": ("tracker.build_similarity", _counter("cells")),
    "tracker.associate_s": ("tracker.associate", _self_s),
    "tracker.step_self_s": ("tracker.step", _self_s),
    "tracker.births": ("tracker.step", _counter("births")),
    "tracker.live_mean": ("tracker.step", _share("live")),
    "assignment.solve_s": ("assignment.solve", _self_s),
    "assignment.calls": ("assignment.solve", _calls),
    "assignment.n_max": ("assignment.solve", _counter("n_max")),
    "assignment.work_n3": ("assignment.solve", _counter("work_n3")),
    "geometry.iou3d_s": ("geometry.iou3d", _self_s),
    "geometry.iou3d_calls": ("geometry.iou3d", _calls),
    "geometry.iou3d_nonzero_ratio": ("geometry.iou3d", _share("nonzero")),
    "geometry.iou3d_distinct_ratio": ("geometry.iou3d", _share("distinct")),
    "geometry.points_in_box_s": ("geometry.points_in_box", _self_s),
    "metrics.recall_sweep_s": ("metrics.recall_sweep", _self_s),
    "metrics.thresholds": ("metrics.thresholds", _calls),
    "metrics.evaluate_sequence_calls": ("metrics.evaluate_sequence", _calls),
    "metrics.match_frame_s": ("metrics.match_frame", _self_s),
    "metrics.match_frame_calls": ("metrics.match_frame", _calls),
    "cli.preprocess_frame_s": ("cli.preprocess_frame", _self_s),
}


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of one traced round; ``None`` marks an absent name.

    Layers the workload never called report zero work.
    """
    absent = tracer.absent()
    return {
        metric: None if name in absent else value(tracer.spans.get(name, Span()))
        for metric, (name, value) in LAYER_METRICS.items()
    }
