"""Confident tracklet generation and occlusion-gap bridging.

Detections are linked into short high-confidence fragments by an exact
successive-shortest-paths min-cost flow (log-odds node rewards against entry,
exit, and motion costs), solved on each weak component of the link graph
separately: components share only the source and the sink, so the union of
their optimal paths is the optimum of the whole. Gaps between
appearance-compatible tracklets are filled with interpolating cubic splines
to propose virtual paths.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import make_interp_spline

from .core import (
    CameraModel,
    Detection,
    ModelParameters,
    Tracklet,
    descriptor_similarity,
    ground_distance,
    pool_descriptors,
    project_to_ground,
)
from .energy import log_odds

LINK_GATE_SLACK = 2.0  # structural distance gate, in multiples of tau_s * dt


class MinCostFlowTracker:
    """Unit-capacity min-cost flow over a detection DAG, solved exactly by
    successive shortest paths (SSP) with Johnson potentials, one weak
    component of the link graph at a time.

    Items are added with individual rewards; links carry nonnegative motion
    costs. Items that no chain of links joins share no arc but the source's
    and the sink's unit arcs, so the optimum is the union of the optima of
    the weak components, and each component's SSP runs its Dijkstras over
    that component alone. Every accepted source->sink path has strictly
    negative true cost, and augmentation stops at the first nonnegative one,
    which is the exact optimum for convex unit flows.
    """

    def __init__(self, num_items: int, entry_cost: float, exit_cost: float):
        self.num_items = num_items
        self.entry_cost = entry_cost
        self.exit_cost = exit_cost
        self.rewards: Dict[int, float] = {}
        self.links: List[Tuple[int, int, float]] = []

    def add_item(self, item: int, reward: float) -> None:
        self.rewards[item] = reward

    def add_link(self, item_from: int, item_to: int, cost: float) -> None:
        self.links.append((item_from, item_to, cost))

    def _components(
        self, topo_order: Sequence[int]
    ) -> List[Tuple[List[int], List[Tuple[int, int, float]]]]:
        """Weak components of the link graph as (items in ``topo_order``
        order, links) pairs, listed by first appearance in ``topo_order``.

        Only added items count; a link touching an item that was never added
        cannot carry flow and is left out.
        """
        root = list(range(self.num_items))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        for a, b, _ in self.links:
            ra, rb = find(a), find(b)
            if ra != rb:
                root[max(ra, rb)] = min(ra, rb)
        components: Dict[int, Tuple[List[int], List[Tuple[int, int, float]]]] = {}
        for node in topo_order:
            item = (node - 2) // 2
            if node >= 2 and node % 2 == 0 and item in self.rewards:
                components.setdefault(find(item), ([], []))[0].append(item)
        for link in self.links:
            if link[0] in self.rewards and link[1] in self.rewards:
                components[find(link[0])][1].append(link)
        return list(components.values())

    def solve(self, topo_order: Sequence[int]) -> Tuple[List[List[int]], float]:
        """Run SSP on each weak component; returns (paths as item-index
        lists, total flow cost summed over the components). ``topo_order``
        lists the in- and out-node of every added item, as
        ``_topological_order`` builds it."""
        paths: List[List[int]] = []
        total_cost = 0.0
        for items, links in self._components(topo_order):
            flow = _UnitFlow(items, self.rewards, links, self.entry_cost, self.exit_cost)
            component_paths, cost = flow.solve()
            paths.extend(component_paths)
            total_cost += cost
        return paths, total_cost


class _UnitFlow:
    """The residual graph of one weak component and its SSP solve.

    ``items`` come in topological order. Local node ids: 0 is the source,
    1 the sink, and the k-th item by global index gets in-node 2 + 2k and
    out-node 3 + 2k, so node order, arc order and heap tie-breaks follow the
    global item order.
    """

    def __init__(self, items: Sequence[int], rewards: Mapping[int, float],
                 links: Sequence[Tuple[int, int, float]], entry_cost: float,
                 exit_cost: float):
        self.items = sorted(items)
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
        self.topo_order = [self.source]
        for item in items:
            self.topo_order += [2 + 2 * local[item], 3 + 2 * local[item]]
        self.topo_order.append(self.sink)

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


def _topological_order(num_items: int, frames: Sequence[int]) -> List[int]:
    """Source, item in/out pairs sorted by (frame, index), then sink."""
    order = [0]
    for item in sorted(range(num_items), key=lambda i: (frames[i], i)):
        order.append(2 + 2 * item)
        order.append(3 + 2 * item)
    order.append(1)
    return order


def generate_tracklets(
    detections: Sequence[Detection],
    camera: CameraModel,
    params: ModelParameters,
    max_link_gap: int = 1,
) -> List[Tracklet]:
    """Link detections into confident tracklets by exact min-cost flow.

    Node rewards are clamped log-odds of the detection scores; links join
    same-class detections ``max_link_gap`` frames apart or closer, gated and
    priced by ground-plane speed. Each detection is used at most once.
    """
    if not detections:
        return []
    order = sorted(range(len(detections)), key=lambda i: (detections[i].frame, i))
    dets = [detections[i] for i in order]
    positions = [project_to_ground(camera, d.bbox) for d in dets]
    frames = [d.frame for d in dets]

    tracker = MinCostFlowTracker(len(dets), params.entry_exit_cost, params.entry_exit_cost)
    for i, det in enumerate(dets):
        tracker.add_item(i, log_odds(det.score, params))

    by_frame: Dict[int, List[int]] = {}
    for i, f in enumerate(frames):
        by_frame.setdefault(f, []).append(i)
    for i, det in enumerate(dets):
        for dt in range(1, max_link_gap + 1):
            for j in by_frame.get(det.frame + dt, ()):  # frame-sorted, so j > i
                other = dets[j]
                if other.object_class is not det.object_class:
                    continue
                bound = params.speed_bound(det.object_class) * dt / camera.frame_rate
                dist = ground_distance(positions[i], positions[j])
                if dist > LINK_GATE_SLACK * bound:
                    continue
                # skipped frames cost extra so dense paths beat interleaving
                tracker.add_link(i, j, dist / bound + params.link_skip_penalty * (dt - 1))

    paths, _ = tracker.solve(_topological_order(len(dets), frames))
    paths.sort(key=lambda p: (frames[p[0]], p[0]))

    tracklets: List[Tracklet] = []
    for tid, path in enumerate(paths):
        members = sorted(path, key=lambda i: frames[i])
        tracklets.append(
            Tracklet(
                id=tid,
                object_class=dets[members[0]].object_class,
                start_frame=frames[members[0]],
                positions=np.array([positions[i] for i in members]),
                pooled_descriptor=pool_descriptors([dets[i].descriptor for i in members]),
                boxes=tuple(dets[i].bbox for i in members),
                scores=tuple(dets[i].score for i in members),
                detection_indices=tuple(order[i] for i in members),
            )
        )
    return tracklets


@dataclass(frozen=True)
class GapLink:
    """A proposed bridge between two tracklets across missing frames.

    ``gap_frames`` counts the frames strictly between the two fragments;
    ``virtual_path`` holds one (frame, ground point) sample per missing frame.
    """

    before_id: int
    after_id: int
    gap_frames: int
    similarity: float
    virtual_path: Tuple[Tuple[int, np.ndarray], ...]

    def __post_init__(self) -> None:
        if self.gap_frames < 1:
            raise ValueError("gap_frames must be >= 1")
        if len(self.virtual_path) != self.gap_frames:
            raise ValueError("virtual_path must cover exactly the gap frames")


def gap_between(before: Tracklet, after: Tracklet) -> int:
    """Number of frames strictly between two tracklets (negative if overlapping)."""
    return after.start_frame - before.end_frame - 1


def find_gap_candidates(
    tracklets: Sequence[Tracklet],
    params: ModelParameters,
    frame_rate: float,
) -> List[Tuple[Tracklet, Tracklet]]:
    """Ordered same-class pairs that could plausibly bridge an occlusion.

    Gates: 1 <= gap <= max_gap_frames, pooled-descriptor similarity at least
    tau_sigma, and straight-line speed across the gap at most twice the class
    speed bound.
    """
    candidates = []
    for before in tracklets:
        for after in tracklets:
            if before.id == after.id or before.object_class is not after.object_class:
                continue
            gap = gap_between(before, after)
            if not 1 <= gap <= params.max_gap_frames:
                continue
            similarity = descriptor_similarity(
                before.pooled_descriptor, after.pooled_descriptor
            )
            if similarity < params.tau_sigma:
                continue
            dt = after.start_frame - before.end_frame
            speed = ground_distance(before.positions[-1], after.positions[0]) / (dt / frame_rate)
            if speed > 2.0 * params.speed_bound(before.object_class):
                continue
            candidates.append((before, after))
    candidates.sort(key=lambda pair: (pair[0].id, pair[1].id))
    return candidates


def bspline_fill(before: Tracklet, after: Tracklet) -> List[Tuple[int, np.ndarray]]:
    """Sample an interpolating cubic spline at each missing frame.

    The spline passes through up to five trailing points of ``before`` and
    five leading points of ``after``, parameterized by frame index, so the
    boundary points are interpolated exactly.
    """
    if len(before.positions) == 0 or len(after.positions) == 0:
        raise ValueError("cannot bridge an empty tracklet")
    gap = gap_between(before, after)
    if gap < 1:
        raise ValueError("tracklets must be separated by at least one missing frame")

    n_before = min(5, len(before.positions))
    n_after = min(5, len(after.positions))
    ctrl_frames = list(range(before.end_frame - n_before + 1, before.end_frame + 1))
    ctrl_frames += list(range(after.start_frame, after.start_frame + n_after))
    ctrl_points = np.vstack([before.positions[-n_before:], after.positions[:n_after]])

    k = min(3, len(ctrl_frames) - 1)
    spline = make_interp_spline(np.array(ctrl_frames, dtype=float), ctrl_points, k=k)
    missing = np.arange(before.end_frame + 1, after.start_frame, dtype=float)
    samples = spline(missing)
    return [(int(f), np.asarray(p, dtype=float)) for f, p in zip(missing, samples)]


def build_gap_links(
    tracklets: Sequence[Tracklet],
    params: ModelParameters,
    frame_rate: float,
) -> List[GapLink]:
    """Gap candidates materialized with spline virtual paths."""
    links = []
    for before, after in find_gap_candidates(tracklets, params, frame_rate):
        similarity = descriptor_similarity(before.pooled_descriptor, after.pooled_descriptor)
        path = bspline_fill(before, after)
        links.append(
            GapLink(
                before_id=before.id,
                after_id=after.id,
                gap_frames=gap_between(before, after),
                similarity=similarity,
                virtual_path=tuple(path),
            )
        )
    return links
