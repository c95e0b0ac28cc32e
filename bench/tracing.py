"""Spans and counts recorded around calls into each layer's public functions.

The tracer replaces module attributes with wrappers for the length of one
pass. The program itself is unchanged: every wrapper calls the original
function and records, on return, one span (name, parent span, wall interval,
busy time of the calling thread) and the sizes it can read off the call's
arguments and result. Spans stay in memory until the pass ends.

Busy time is ``time.thread_time``: with `track --jobs 2` two threads share
the interpreter lock, so wall time inside a span also counts the wait for
the other thread, while thread time counts only the work.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

NODE_KINDS = ("head", "tail", "single", "detection", "virtual", "vestibule", "contained")
OBJECT_CLASSES = ("person", "vehicle", "suitcase")

# Stage spans that `joint_solve` calls; the rest of its time is assembly.
STAGES = ("containers.solve", "tracklets.flow", "tracklets.gap_links", "graph.build",
          "objects.solve")


@dataclass(frozen=True)
class Span:
    name: str
    parent: Optional[str]
    start: float
    end: float
    busy: float


def _containers(args, result) -> Dict[str, int]:
    return {"containers.vehicle_detections": len(args[0]),
            "containers.count": len(result.trajectories)}


def _flow(args, result) -> Dict[str, int]:
    return {"tracklets.detections": len(args[0]), "tracklets.count": len(result)}


def _gap_links(args, result) -> Dict[str, int]:
    # find_gap_candidates tests every ordered pair of distinct same-class tracklets
    per_class = Counter(t.object_class for t in args[0])
    return {
        "tracklets.gap_pairs_tested": sum(n * (n - 1) for n in per_class.values()),
        "tracklets.gap_links": len(result),
        "tracklets.gap_frames": sum(link.gap_frames for link in result),
    }


def _graph(args, result) -> Dict[str, int]:
    kinds = Counter(node.kind for node in result.nodes)
    counts = {"graph.detections": len(args[0]), "graph.nodes": len(result.nodes),
              "graph.edges": len(result.edges),
              "graph.edges.container_chain": sum(e.is_container_chain for e in result.edges)}
    counts.update({f"graph.nodes.{kind}": kinds.get(kind, 0) for kind in NODE_KINDS})
    return counts


def _objects(args, result) -> Dict[str, int]:
    # solve_objects sweeps once per extracted path plus the final sweep that fails
    sweeps = len(result.paths) + 1
    return {"objects.paths": len(result.paths), "objects.dp_sweeps": sweeps,
            "objects.node_visits": sweeps * len(args[0].nodes)}


def _parses(args, result) -> Dict[str, int]:
    return {"grammar.parses": len(result)}


def _detections(args, result) -> Dict[str, int]:
    classes = Counter(d.object_class.value for d in result)
    counts = {"fileio.detections": len(result)}
    counts.update({f"fileio.detections.{c}": classes.get(c, 0) for c in OBJECT_CLASSES})
    return counts


def _gt_points(args, result) -> Dict[str, int]:
    return {"metrics.gt_points": len(args[0])}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: List[Tuple[str, int]] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._local = threading.local()
        self._patched: List[Tuple[object, str, Callable]] = []
        self._gc_start: Optional[float] = None

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            stack.append(name)
            start, busy0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.thread_time() - busy0
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic, so threads of one pass can share the lists
                self.spans.append(Span(name, parent, start, end, busy))
            if count is not None:
                self.counts.extend(count(args, result).items())
            return result

        return traced

    def _patch(self, module, attr: str, name: str, count: Optional[Callable] = None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, count))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def install(self) -> None:
        """Wrap the public functions the `track` and `evaluate` commands call.

        A function is patched where its caller looks it up: `cli` and
        `solver` import names directly, `cli` calls `fileio.*` through the
        module.
        """
        from fluenttrack import cli, fileio, solver

        self._patch(cli, "_track_one", "cli.sequence")
        self._patch(cli, "joint_solve", "pipeline.joint")
        self._patch(solver, "solve_containers", "containers.solve", _containers)
        self._patch(solver, "generate_tracklets", "tracklets.flow", _flow)
        self._patch(solver, "build_gap_links", "tracklets.gap_links", _gap_links)
        self._patch(solver, "build_graph", "graph.build", _graph)
        self._patch(solver, "solve_objects", "objects.solve", _objects)
        self._patch(solver, "extract_frame_parses", "grammar.parses", _parses)
        self._patch(fileio, "read_detections", "fileio.read", _detections)
        for attr in ("read_camera", "read_trajectories", "read_ground_truth"):
            self._patch(fileio, attr, "fileio.read")
        for attr in ("write_trajectories", "write_metrics_report"):
            self._patch(fileio, attr, "fileio.write")
        self._patch(cli, "trajectories_to_observations", "metrics.evaluate")
        self._patch(cli, "match_frames", "metrics.evaluate", _gt_points)
        self._patch(cli, "clear_metrics", "metrics.evaluate")
        self._patch(cli, "fluent_metrics", "metrics.evaluate")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def report(self) -> Dict[str, float]:
        """Busy seconds per layer, summed counts, and the derived ratios."""
        busy: Dict[str, float] = Counter()
        for span in self.spans:
            busy[span.name] += span.busy
        stage_busy = sum(s.busy for s in self.spans
                         if s.parent == "pipeline.joint" and s.name in STAGES)
        counts: Dict[str, int] = Counter()
        for name, value in self.counts:
            counts[name] += value
        out: Dict[str, float] = {
            "containers.solve_s": busy["containers.solve"],
            "tracklets.flow_s": busy["tracklets.flow"],
            "tracklets.gap_links_s": busy["tracklets.gap_links"],
            "graph.build_s": busy["graph.build"],
            "objects.solve_s": busy["objects.solve"],
            "grammar.parses_s": busy["grammar.parses"],
            "pipeline.joint_s": busy["pipeline.joint"],
            "pipeline.assembly_s": busy["pipeline.joint"] - stage_busy,
            "fileio.read_s": busy["fileio.read"],
            "fileio.write_s": busy["fileio.write"],
            "metrics.evaluate_s": busy["metrics.evaluate"],
            "cli.sequence_s": busy["cli.sequence"],
            "cli.sequences": sum(s.name == "cli.sequence" for s in self.spans),
            "runtime.gc_s": self.gc_s,
            "runtime.gc_collections": self.gc_collections,
            "trace.spans": len(self.spans),
        }
        for name in ("containers.vehicle_detections", "containers.count",
                     "tracklets.detections", "tracklets.count", "tracklets.gap_pairs_tested",
                     "tracklets.gap_links", "tracklets.gap_frames", "graph.detections",
                     "graph.nodes", "graph.edges", "graph.edges.container_chain",
                     "objects.paths", "objects.dp_sweeps", "objects.node_visits",
                     "grammar.parses", "fileio.detections", "metrics.gt_points"):
            out[name] = counts[name]
        for kind in NODE_KINDS:
            out[f"graph.nodes.{kind}"] = counts[f"graph.nodes.{kind}"]
        for cls in OBJECT_CLASSES:
            out[f"fileio.detections.{cls}"] = counts[f"fileio.detections.{cls}"]
        out["tracklets.gap_link_yield"] = _ratio(out["tracklets.gap_links"],
                                                 out["tracklets.gap_pairs_tested"])
        out["graph.nodes_per_detection"] = _ratio(out["graph.nodes"], out["graph.detections"])
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the base is empty (the base count is reported beside it)."""
    return num / den if den else 0.0
