"""Detection linking, confident tracklets, and occlusion-gap bridging.

One linker serves both detection flows: ``link_detections`` gates and prices
links between same-class detections and hands them to ``min_cost_paths``, an
exact successive-shortest-paths min-cost flow (log-odds node rewards against
entry, exit, and motion costs) solved on each weak component of the link
graph separately: components share only the source and the sink, so the
union of their optimal paths is the optimum of the whole. Tracklets link
consecutive frames only; containers (in ``solver``) link across short
dropouts. Gaps between appearance-compatible tracklets (``compatible_pairs``)
are filled with interpolating cubic splines: one spline solve per gap shape
serves every gap of that shape, and each bridge keeps its samples as one
array.

The per-pair numerics run as arrays with the bits of the scalar loop they
replace: ``detection_links`` finds each gap's candidate pairs by
``np.searchsorted`` and measures them with stacked ``ground_distances``
calls, and ``compatible_pairs`` computes its similarities with stacked
``row_dots`` calls. Both run, row by row, the BLAS kernel of the scalar call
(``ground_distance``, ``descriptor_similarity``), which is what keeps the
bits; ``np.einsum``, a norm over ``axis=1`` or a ``D @ D.T`` similarity
matrix would not (see ``core``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import make_interp_spline

from .core import (
    UNIT_NORM_TOL,
    CameraModel,
    Detection,
    ModelParameters,
    Tracklet,
    ground_distance,
    gathered_rows,
    ground_distances,
    ground_points,
    pool_descriptors,
    row_dots,
)
from .energy import log_odds

LINK_GATE_SLACK = 2.0  # structural distance gate, in multiples of tau_s * dt


def min_cost_paths(
    rewards: Sequence[float],
    links: Sequence[Tuple[int, int, float]],
    entry_cost: float,
    exit_cost: float,
) -> Tuple[List[List[int]], float]:
    """Exact unit-capacity min-cost flow over items ``0 .. len(rewards) - 1``.

    Item ``i`` earns ``rewards[i]``; a path pays ``entry_cost`` and
    ``exit_cost`` once each and the cost of every ``(a, b, cost)`` link it
    takes. Index order is the topological order, so every link must have
    ``a < b``. Returns (paths as increasing item lists, total flow cost).

    Items that no chain of links joins share no arc but the source's and the
    sink's unit arcs, so the optimum is the union of the optima of the weak
    components, and each component is solved by successive shortest paths
    (SSP) with Johnson potentials over that component alone. Every accepted
    source->sink path has strictly negative true cost, and augmentation stops
    at the first nonnegative one, which is the exact optimum for convex unit
    flows.
    """
    for a, b, _ in links:
        if not 0 <= a < b < len(rewards):
            raise ValueError(f"link ({a}, {b}) must join items a < b of {len(rewards)}")
    paths: List[List[int]] = []
    total_cost = 0.0
    for items, component_links in _components(len(rewards), links):
        flow = _UnitFlow(items, rewards, component_links, entry_cost, exit_cost)
        component_paths, cost = flow.solve()
        paths.extend(component_paths)
        total_cost += cost
    return paths, total_cost


def _components(
    num_items: int, links: Sequence[Tuple[int, int, float]]
) -> List[Tuple[List[int], List[Tuple[int, int, float]]]]:
    """Weak components of the link graph as (items, links) pairs, both in
    input order, listed by their lowest item."""
    root = list(range(num_items))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b, _ in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
    components: Dict[int, Tuple[List[int], List[Tuple[int, int, float]]]] = {}
    for item in range(num_items):
        components.setdefault(find(item), ([], []))[0].append(item)
    for link in links:
        components[find(link[0])][1].append(link)
    return list(components.values())


class _UnitFlow:
    """The residual graph of one weak component and its SSP solve.

    ``items`` come in increasing order. Local node ids: 0 is the source,
    1 the sink, and the k-th item gets in-node 2 + 2k and out-node 3 + 2k,
    so node order, arc order and heap tie-breaks follow the global item
    order, and the local node ids in order are a topological order.
    """

    def __init__(self, items: Sequence[int], rewards: Sequence[float],
                 links: Sequence[Tuple[int, int, float]], entry_cost: float,
                 exit_cost: float):
        self.items = list(items)
        local = {item: k for k, item in enumerate(self.items)}
        self.source = 0
        self.sink = 1
        self.num_nodes = 2 + 2 * len(self.items)
        self.graph: List[List[list]] = [[] for _ in range(self.num_nodes)]
        for k, item in enumerate(self.items):
            self._add_arc(self.source, 2 + 2 * k, entry_cost)
            self._add_arc(2 + 2 * k, 3 + 2 * k, -rewards[item])
            self._add_arc(3 + 2 * k, self.sink, exit_cost)
        for a, b, cost in links:
            self._add_arc(3 + 2 * local[a], 2 + 2 * local[b], cost)
        self.topo_order = [self.source, *range(2, self.num_nodes), self.sink]

    def _add_arc(self, u: int, v: int, cost: float) -> None:
        self.graph[u].append([v, 1, cost, len(self.graph[v]), True])
        self.graph[v].append([u, 0, -cost, len(self.graph[u]) - 1, False])

    def _initial_potentials(self) -> List[float]:
        # Zero flow means the residual graph is the original DAG; one
        # relaxation sweep in topological order yields exact distances.
        dist = [math.inf] * self.num_nodes
        dist[self.source] = 0.0
        for u in self.topo_order:
            if not math.isfinite(dist[u]):
                continue
            for arc in self.graph[u]:
                v, cap, cost, _, _ = arc
                if cap > 0 and dist[u] + cost < dist[v]:
                    dist[v] = dist[u] + cost
        return dist

    def solve(self) -> Tuple[List[List[int]], float]:
        potential = self._initial_potentials()
        total_cost = 0.0
        n = self.num_nodes
        while True:
            dist = [math.inf] * n
            parent: List[Optional[Tuple[int, int]]] = [None] * n
            dist[self.source] = 0.0
            heap = [(0.0, self.source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + 1e-12:
                    continue
                for idx, arc in enumerate(self.graph[u]):
                    v, cap, cost, _, _ = arc
                    if cap <= 0 or not math.isfinite(potential[v]):
                        continue
                    reduced = max(cost + potential[u] - potential[v], 0.0)
                    nd = d + reduced
                    if nd < dist[v] - 1e-15:
                        dist[v] = nd
                        parent[v] = (u, idx)
                        heapq.heappush(heap, (nd, v))
            if not math.isfinite(dist[self.sink]):
                break
            true_cost = dist[self.sink] + potential[self.sink] - potential[self.source]
            if true_cost >= -1e-12:
                break
            # augment one unit along the shortest path
            v = self.sink
            while v != self.source:
                u, idx = parent[v]
                arc = self.graph[u][idx]
                arc[1] -= 1
                self.graph[v][arc[3]][1] += 1
                v = u
            total_cost += true_cost
            bound = dist[self.sink]
            for v in range(n):
                if math.isfinite(potential[v]):
                    potential[v] += min(dist[v], bound)
        return self._decompose_paths(), total_cost

    def _decompose_paths(self) -> List[List[int]]:
        # Flow on a forward arc equals the residual capacity of its reverse
        # twin (created empty). Walk unit paths source -> sink, consuming flow.
        paths: List[List[int]] = []
        while True:
            u = self.source
            path_items: List[int] = []
            while u != self.sink:
                step = None
                for arc in self.graph[u]:
                    v, _, _, rev, forward = arc
                    if forward and self.graph[v][rev][1] > 0:
                        step = (v, rev)
                        break
                if step is None:
                    break
                v, rev = step
                self.graph[v][rev][1] -= 1
                if u >= 2 and (u - 2) % 2 == 0 and v == u + 1:
                    path_items.append(self.items[(u - 2) // 2])
                u = v
            if u != self.sink or not path_items:
                break
            paths.append(path_items)
        return paths


# Link cost per skipped frame, added to the link's speed term dist / bound.
SKIP_FRAME_PENALTY = 0.6
# Cost a linked path pays once to start and once to end, against the
# log-odds rewards of its detections.
ENTRY_EXIT_COST = 2.0


def detection_links(
    dets: Sequence[Detection],
    positions: np.ndarray,
    frame_rate: float,
    params: ModelParameters,
    max_gap: int,
) -> List[Tuple[int, int, float]]:
    """The gated, priced ``(i, j, cost)`` links between frame-sorted
    detections, in (i, frames apart, j) order.

    A link joins detection ``i`` to a later detection ``j`` of the same
    class at most ``max_gap`` frames apart whose ground points (``positions``)
    are at most ``LINK_GATE_SLACK`` speed bounds apart; it costs the
    distance over the bound plus ``SKIP_FRAME_PENALTY`` per skipped frame.
    Each gap's candidate pairs come from one ``np.searchsorted`` and are
    measured by stacked ``ground_distances`` calls (``gathered_rows``).
    """
    frames = np.array([det.frame for det in dets], dtype=np.int64)
    if (np.diff(frames) < 0).any():
        raise ValueError("detections must be sorted by frame")
    code = {cls: k for k, cls in enumerate(dict.fromkeys(det.object_class for det in dets))}
    classes = np.array([code[det.object_class] for det in dets], dtype=np.int64)
    speeds = np.array([params.speed_bound(det.object_class) for det in dets], dtype=float)
    points = np.asarray(positions, dtype=float).reshape(-1, 2)
    items = np.arange(len(dets))
    parts = []
    for dt in range(1, max_gap + 1):
        first = np.searchsorted(frames, frames + dt, side="left")
        counts = np.searchsorted(frames, frames + dt, side="right") - first
        i = np.repeat(items, counts)
        # j runs over first[i] .. first[i] + counts[i] - 1 for each i
        j = np.arange(len(i)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        same = classes[i] == classes[j]
        i, j = i[same], j[same]
        bound = speeds[i] * dt / frame_rate
        dist = gathered_rows(ground_distances, points, i, points, j)
        keep = ~(dist > LINK_GATE_SLACK * bound)
        cost = dist[keep] / bound[keep] + SKIP_FRAME_PENALTY * (dt - 1)
        parts.append((i[keep], np.full(keep.sum(), dt), j[keep], cost))
    if not parts:
        return []
    i, dt, j, cost = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((j, dt, i))
    return list(zip(i[order].tolist(), j[order].tolist(), cost[order].tolist()))


def link_detections(
    dets: Sequence[Detection],
    positions: np.ndarray,
    frame_rate: float,
    params: ModelParameters,
    max_gap: int,
) -> Tuple[List[List[int]], float]:
    """Link frame-sorted detections into disjoint paths by exact min-cost flow.

    Node rewards are clamped log-odds of the detection scores; the links are
    those of ``detection_links``, so dense paths beat interleaving; each path
    pays ``ENTRY_EXIT_COST`` to start and to end. ``positions`` are the
    detections' ground points. Returns (paths of detection indices ordered
    by their first detection, total flow cost).
    """
    rewards = [log_odds(det.score) for det in dets]
    links = detection_links(dets, positions, frame_rate, params, max_gap)
    paths, cost = min_cost_paths(rewards, links, ENTRY_EXIT_COST, ENTRY_EXIT_COST)
    paths.sort()  # disjoint increasing paths: ordered by their first detection
    return paths, cost


def generate_tracklets(
    detections: Sequence[Detection],
    camera: CameraModel,
    params: ModelParameters,
) -> List[Tracklet]:
    """Link detections in consecutive frames into confident tracklets.

    Each detection is used at most once; a tracklet covers a contiguous
    frame range, one detection per frame.
    """
    order = sorted(range(len(detections)), key=lambda i: (detections[i].frame, i))
    dets = [detections[i] for i in order]
    positions = ground_points(camera, [d.bbox for d in dets])
    paths, _ = link_detections(dets, positions, camera.frame_rate, params, max_gap=1)
    return [
        Tracklet(
            id=tid,
            object_class=dets[path[0]].object_class,
            start_frame=dets[path[0]].frame,
            positions=positions[path],
            pooled_descriptor=pool_descriptors([dets[i].descriptor for i in path]),
            scores=tuple(dets[i].score for i in path),
            detection_indices=tuple(order[i] for i in path),
        )
        for tid, path in enumerate(paths)
    ]


@dataclass(frozen=True)
class GapLink:
    """A proposed bridge between two tracklets across missing frames.

    ``gap_frames`` counts the frames strictly between the two fragments;
    ``samples`` is one read-only ``(gap_frames, 2)`` array holding the
    spline's ground point at each missing frame, in frame order.
    """

    before_id: int
    after_id: int
    gap_frames: int
    similarity: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.gap_frames < 1:
            raise ValueError("gap_frames must be >= 1")
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape != (self.gap_frames, 2):
            raise ValueError("samples must hold one ground point per gap frame")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def gap_between(before: Tracklet, after: Tracklet) -> int:
    """Number of frames strictly between two tracklets (negative if overlapping)."""
    return after.start_frame - before.end_frame - 1


def compatible_pairs(
    tracklets: Sequence[Tracklet],
    params: ModelParameters,
) -> List[Tuple[Tracklet, Tracklet, float]]:
    """Ordered same-class pairs ``(before, after, similarity)`` with at least
    one missing frame between them and pooled-descriptor similarity at least
    tau_sigma, in (before id, after id) order. Occlusion bridges and
    containment bridges are both chosen from these pairs.

    Similarities are ``descriptor_similarity`` of each candidate pair, with
    the same bits: each tracklet's unit norm is checked once, and the dots
    are stacked ``row_dots`` calls (``gathered_rows``).
    """
    by_id = sorted(tracklets, key=lambda t: t.id)
    if not by_id:
        return []
    shapes = list(dict.fromkeys(t.pooled_descriptor.shape for t in by_id))
    if len(shapes) > 1:
        raise ValueError(f"descriptor dimensions differ: {shapes[0]} vs {shapes[1]}")
    descriptors = np.stack([t.pooled_descriptor for t in by_id])
    norms = np.sqrt(row_dots(descriptors, descriptors))
    if (np.abs(norms - 1.0) > UNIT_NORM_TOL).any():
        raise ValueError("descriptors must be unit norm (within 1e-6)")
    code = {cls: k for k, cls in enumerate(dict.fromkeys(t.object_class for t in by_id))}
    classes = np.array([code[t.object_class] for t in by_id])
    starts = np.array([t.start_frame for t in by_id])
    ends = np.array([t.end_frame for t in by_id])
    # gap_between(before, after) >= 1, between tracklets of one class
    candidate = (classes[:, None] == classes[None, :]) & (starts[None, :] >= ends[:, None] + 2)
    before, after = np.nonzero(candidate)
    similarity = gathered_rows(row_dots, descriptors, before, descriptors, after)
    keep = np.flatnonzero(similarity >= params.tau_sigma)
    return [(by_id[a], by_id[b], value) for a, b, value in
            zip(before[keep].tolist(), after[keep].tolist(), similarity[keep].tolist())]


def find_gap_candidates(
    tracklets: Sequence[Tracklet],
    params: ModelParameters,
    frame_rate: float,
) -> List[Tuple[Tracklet, Tracklet, float]]:
    """Compatible pairs that could plausibly bridge an occlusion.

    Gates: gap <= max_gap_frames, and straight-line speed across the gap at
    most ``LINK_GATE_SLACK`` times the class speed bound.
    """
    candidates = []
    for before, after, similarity in compatible_pairs(tracklets, params):
        if gap_between(before, after) > params.max_gap_frames:
            continue
        dt = after.start_frame - before.end_frame
        speed = ground_distance(before.positions[-1], after.positions[0]) / (dt / frame_rate)
        if speed > LINK_GATE_SLACK * params.speed_bound(before.object_class):
            continue
        candidates.append((before, after, similarity))
    return candidates


def bspline_fill(pairs: Sequence[Tuple[Tracklet, Tracklet]]) -> List[np.ndarray]:
    """Sample an interpolating cubic spline at each missing frame of each pair.

    Each spline passes through up to five trailing points of ``before`` and
    five leading points of ``after``, parameterized by frame index, so the
    boundary points are interpolated exactly. Returns one ``(gap, 2)`` array
    per pair, in input order.

    Pairs of one shape (points used before, points used after, gap) share a
    single spline solve: frames are taken relative to ``before.end_frame``
    and each pair's control points are extra columns of the data. Every
    basis term is a difference of integer frames, so the samples are the
    same bits as one spline per pair on absolute frames.
    """
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for index, (before, after) in enumerate(pairs):
        gap = gap_between(before, after)
        if gap < 1:
            raise ValueError("tracklets must be separated by at least one missing frame")
        shape = (min(5, len(before.positions)), min(5, len(after.positions)), gap)
        groups.setdefault(shape, []).append(index)
    filled: Dict[int, np.ndarray] = {}
    for (n_before, n_after, gap), members in groups.items():
        ctrl_frames = np.array([*range(1 - n_before, 1), *range(gap + 1, gap + 1 + n_after)],
                               dtype=float)
        ctrl_points = np.stack([  # (control point, pair, xy)
            np.vstack([pairs[i][0].positions[-n_before:], pairs[i][1].positions[:n_after]])
            for i in members
        ], axis=1)
        k = min(3, len(ctrl_frames) - 1)
        spline = make_interp_spline(ctrl_frames, ctrl_points, k=k)
        values = spline(np.arange(1, gap + 1, dtype=float))
        for column, i in enumerate(members):
            filled[i] = values[:, column]
    return [filled[i] for i in range(len(pairs))]


def build_gap_links(
    tracklets: Sequence[Tracklet],
    params: ModelParameters,
    frame_rate: float,
) -> List[GapLink]:
    """Gap candidates materialized with their spline samples."""
    candidates = find_gap_candidates(tracklets, params, frame_rate)
    samples = bspline_fill([(before, after) for before, after, _ in candidates])
    return [
        GapLink(
            before_id=before.id,
            after_id=after.id,
            gap_frames=gap_between(before, after),
            similarity=similarity,
            samples=path,
        )
        for (before, after, similarity), path in zip(candidates, samples)
    ]
