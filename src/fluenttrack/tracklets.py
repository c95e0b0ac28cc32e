"""Detection linking, confident tracklets, and occlusion-gap bridging.

One linker serves both detection flows: ``link_detections`` gates and prices
links between same-class detections and hands them to ``min_cost_paths``,
which finds the exact min-cost cover of the detections by disjoint paths
(log-odds node rewards against entry, exit, and motion costs). That cover
is the unit-capacity min-cost flow, and it is exactly a min-weight perfect
matching on a sparse bipartite graph of ``2 * links + 4 * items`` edges: the
``[link | term; init | 0]`` assignment matrix of Huang, Wu & Nevatia (ECCV
2008) without its dense blocks, proved in ``min_cost_paths``. One call of
``scipy.sparse.csgraph.min_weight_full_bipartite_matching`` (LAPJVsp,
Jonker & Volgenant 1987) solves it in C; the reported cost is the
``math.fsum`` of the chosen paths' own terms, never the shifted matching
weight. Tracklets link consecutive frames only; containers (in ``solver``)
link across short dropouts. Gaps between appearance-compatible tracklets
(``compatible_pairs``) are filled with interpolating cubic splines: one
spline solve per gap shape serves every gap of that shape, and each bridge
keeps its samples as one array. The not-a-knot collocation matrix depends
only on the shape (de Boor, *A Practical Guide to Splines*, 1978), so its
banded LU (LAPACK ``gbtrf``) is factored once per shape and shared by every
later call; a group of gaps is one ``gbtrs`` and one ``BSpline``
evaluation. SciPy's interpolating spline solves with ``gbsv``, which is
``gbtrf`` followed by ``gbtrs`` (Anderson et al., *LAPACK Users' Guide*),
so reusing a factorization keeps its bits.

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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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
    """Exact min-cost cover of items ``0 .. len(rewards) - 1`` by disjoint paths.

    Item ``i`` earns ``rewards[i]``; a path pays ``entry_cost`` and
    ``exit_cost`` once each and the cost of every ``(a, b, cost)`` link it
    takes; an item may stay on no path. Index order is the topological
    order, so every link must have ``a < b``; of parallel links the
    cheapest counts. Returns (paths as increasing item lists ordered by
    their first item, total cost).

    The cover is solved as one min-weight perfect matching (see the module
    docstring). Rows are each item's out-copy ``L_i`` and entry slot
    ``E_i``, columns its in-copy ``R_i`` and exit slot ``X_i``, with edges
    ``L_a-R_b`` (link, ``cost - r_b``), ``E_b-R_b`` (start,
    ``entry_cost - r_b``), ``L_a-X_a`` (end, ``exit_cost``), ``L_i-R_i`` and
    ``E_i-X_i`` (item unused, 0) and ``E_b-X_a`` (link's freed slots, 0).

    Proof that the optimum is the same. A cover maps to a perfect matching
    of the same weight: take ``L_a-R_b`` and ``E_b-X_a`` for each link it
    uses, ``E_b-R_b`` at each path's start, ``L_a-X_a`` at each end, and
    ``L_i-R_i``, ``E_i-X_i`` for each unused item; every row and column is
    then covered once. Conversely, in any perfect matching ``L_i`` and
    ``R_i`` are either matched to each other (``i`` unused) or ``L_i`` has
    one successor or end and ``R_i`` one predecessor or start, so its
    ``L_a-R_b`` edges form disjoint forward paths that start and end
    exactly where its start and end edges are; the ``E-X`` edges weigh 0,
    so the matching weighs what that cover costs. csgraph drops zero
    weights, so every weight is shifted by one constant that makes it at
    least 1; each perfect matching has ``2 n`` edges, so the shift adds the
    same ``2 n`` times that constant to all of them and keeps the optimum.

    The returned cost is ``math.fsum`` over the unshifted terms of the
    chosen paths (entry, exit, link costs, minus rewards), so it is the
    exactly rounded cost of those paths and does not depend on the order
    of its terms. Between covers of equal cost the choice is LAPJVsp's,
    not that of a search in item order; ``tests/test_tracklets.py`` pins
    the ties it breaks.
    """
    n = len(rewards)
    columns = np.array(links, dtype=float).reshape(-1, 3)
    a, b, cost = columns[:, 0].astype(np.int64), columns[:, 1].astype(np.int64), columns[:, 2]
    backward = ~((0 <= a) & (a < b) & (b < n))
    if backward.any():
        first = links[int(np.argmax(backward))]
        raise ValueError(f"link ({first[0]}, {first[1]}) must join items a < b of {n}")
    if n == 0:
        return [], 0.0
    # of parallel links keep the cheapest, so each (row, column) is one edge;
    # the links are then in (a, b) order
    order = np.lexsort((cost, b, a))
    a, b, cost = a[order], b[order], cost[order]
    distinct = np.ones(len(a), dtype=bool)
    distinct[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    a, b, cost = a[distinct], b[distinct], cost[distinct]

    reward = np.asarray(rewards, dtype=float)
    items = np.arange(n)
    # rows: L_i = i, E_i = n + i; columns: R_i = i, X_i = n + i
    rows = np.concatenate((a, n + b, n + items, items, items, n + items))
    cols = np.concatenate((b, n + a, items, n + items, items, n + items))
    weights = np.concatenate((cost - reward[b], np.zeros(len(a)), entry_cost - reward,
                              np.full(n, float(exit_cost)), np.zeros(2 * n)))
    weights += 1.0 - weights.min()
    _, matched = min_weight_full_bipartite_matching(
        csr_array((weights, (rows, cols)), shape=(2 * n, 2 * n)))

    successor = matched[:n].tolist()  # R_b, or X_a at a path's end
    paths: List[List[int]] = []
    for item in np.flatnonzero(matched[n:] == items).tolist():  # E_b-R_b
        path = [item]
        while successor[path[-1]] < n:
            path.append(successor[path[-1]])
        paths.append(path)
    used = np.flatnonzero(matched[:n] != items)
    linked = used[matched[used] < n]
    taken = np.searchsorted(a * n + b, linked * n + matched[linked])
    total_cost = math.fsum(itertools.chain([entry_cost, exit_cost] * len(paths),
                                           cost[taken].tolist(), (-reward[used]).tolist()))
    return paths, total_cost


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


# Spline shapes whose factorization is kept for the next call. A shape is
# (points before, points after, gap), so at most 25 * max_gap_frames exist;
# this holds every shape of the default 150-frame gap bound.
SPLINE_FACTOR_CACHE_SIZE = 4096


def _not_a_knot(frames: np.ndarray, k: int) -> np.ndarray:
    """The not-a-knot knot vector that SciPy's interpolating spline builds
    for degree ``k`` on strictly increasing ``frames``: the frames
    themselves for odd ``k``, the midpoints between them for even ``k``,
    less ``k // 2`` interior knots at each end, padded to ``k + 1`` boundary
    knots."""
    if k % 2:
        inner = frames[(k + 1) // 2:-((k + 1) // 2)]
    else:
        inner = ((frames[1:] + frames[:-1]) / 2)[k // 2:-(k // 2)]
    return np.concatenate((np.full(k + 1, frames[0]), inner, np.full(k + 1, frames[-1])))


@functools.lru_cache(maxsize=SPLINE_FACTOR_CACHE_SIZE)
def _spline_factor(n_before: int, n_after: int, gap: int
                   ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """(knots, banded LU, pivots) of the interpolating spline of one gap shape.

    The control frames are ``n_before`` frames ending at 0 and ``n_after``
    frames starting at ``gap + 1``; the degree is ``min(3, points - 1)``.
    For degree 1 the coefficients are the data, so there is no LU (None).
    Otherwise the collocation matrix of the B-spline basis at the control
    frames is laid out in LAPACK band storage with ``k`` sub- and
    super-diagonals and factored by ``gbtrf``.
    """
    frames = np.array([*range(1 - n_before, 1), *range(gap + 1, gap + 1 + n_after)],
                      dtype=float)
    n = len(frames)
    k = min(3, n - 1)
    if k == 1:
        knots = np.concatenate((frames[:1], frames, frames[-1:]))
        knots.setflags(write=False)
        return knots, None, None
    knots = _not_a_knot(frames, k)
    collocation = BSpline.construct_fast(knots, np.eye(n), k)(frames)  # row: frame, column: basis
    row, column = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= k)
    band = np.zeros((3 * k + 1, n), order="F")  # the first k rows are gbtrf's fill-in
    band[2 * k + row - column, column] = collocation[row, column]
    lu, pivots, info = dgbtrf(band, k, k)
    if info != 0:
        raise np.linalg.LinAlgError(f"spline collocation matrix of shape "
                                    f"{(n_before, n_after, gap)} is singular")
    for shared in (knots, lu, pivots):  # one entry serves every caller
        shared.setflags(write=False)
    return knots, lu, pivots


def bspline_fill(pairs: Sequence[Tuple[Tracklet, Tracklet]]) -> List[np.ndarray]:
    """Sample an interpolating cubic spline at each missing frame of each pair.

    Each spline passes through up to five trailing points of ``before`` and
    five leading points of ``after``, parameterized by frame index, so the
    boundary points are interpolated exactly. Returns one ``(gap, 2)`` array
    per pair, in input order.

    Pairs of one shape (points used before, points used after, gap) share
    one solve: frames are taken relative to ``before.end_frame`` and each
    pair's control points are extra columns of the data. Every basis term is
    a difference of integer frames, so the samples are the same bits as one
    spline per pair on absolute frames. The shape alone fixes the knots and
    the collocation matrix, so its factorization (``_spline_factor``) is
    kept across calls; the group runs one ``gbtrs`` on it and one
    ``BSpline`` evaluation. This is SciPy's interpolating spline step for
    step: its ``gbsv`` is ``gbtrf`` followed by ``gbtrs``.
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
        ctrl_points = np.stack([  # (control point, pair, xy)
            np.vstack([pairs[i][0].positions[-n_before:], pairs[i][1].positions[:n_after]])
            for i in members
        ], axis=1)
        knots, lu, pivots = _spline_factor(n_before, n_after, gap)
        k = min(3, n_before + n_after - 1)
        if lu is None:
            coefficients = ctrl_points
        else:
            solved, info = dgbtrs(lu, k, k, ctrl_points.reshape(n_before + n_after, -1),
                                  pivots)
            if info != 0:
                raise ValueError(f"illegal argument {-info} to gbtrs")
            coefficients = solved.reshape(ctrl_points.shape)
        values = BSpline.construct_fast(knots, coefficients, k)(
            np.arange(1, gap + 1, dtype=float))
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
