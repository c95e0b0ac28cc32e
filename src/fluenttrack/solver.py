"""State-augmented transition graph and joint trajectory inference.

Containers (vehicles) are tracked first by min-cost flow; objects are then
solved on a graph whose nodes carry a visibility state: visible nodes come
from tracklet endpoints and leftover detections, occluded nodes from
container-adjacent vestibules, contained nodes ride the container
trajectories. Graph nodes exist only where a trajectory can make a choice:
tracklet interiors and the occluded frames of spline gap links are pure
chains, contracted into super-edges.

The graph is columns (``TransitionGraph``): one array per node attribute
(frame, location, state, kind, class, reward, capacity, and each optional
piece of evidence with a mask), one per edge attribute (source, target, net
cost, the ``(m, 5)`` energy breakdown, action code, container-chain flag,
interior row), and interior tables that keep each super-edge's stops (a
slice of its tracklet's positions, or its gap link's spline samples) and
their actions as runs. The builder prices every kind of edge as one block
with ``energy.hop_costs``: visible adjacency, vestibule hops, enter and exit
hops, container chain hops and exits; every tracklet's interior in one pass
(``_GraphBuilder.contract``) and every gap link's in another
(``_GraphBuilder.bridges``). Every block takes its hops' actions from one
kernel, ``energy.best_actions``, which reads each hop's pose terms (the
graph's ``PoseTable`` rows) and its container fluent's distances to the
action templates; the enter/exit gate reads the same distances. Chains are
summed hop by hop in hop order, so every super-edge has the bits of its
chain priced hop by hop with the scalar reference in
``tests/energy_reference.py``. The breakdown checks run once per graph, on
the columns. ``nodes`` and ``edges`` are record views built from the columns on
first access; the solve never builds them.

Trajectories are extracted one at a time by dynamic programming over the
DAG, reading plain lists built once from the columns; in tests, an
exhaustive oracle (``tests/oracle_reference.py``) bounds its optimality gap
on small instances. Each extraction returns the edges it walked, and
``_decode_paths`` reads every path's node, edge and interior rows in one
pass and builds the trajectories with ``core.trajectories_from_columns``:
every point keeps the action its outgoing edge was priced with, so the frame
parses are the trajectories' own points grouped by frame, not a second
labelling pass.

Maximizing the raw edge scores is degenerate (every term is non-positive, so
the empty solution would win); nodes therefore carry log-odds evidence
rewards and the energies price edges against them. Contained nodes are
rewarded exactly at their inertial continuation cost: riding a tracked
container is cost-neutral per frame because the container's own detection
vouches for every frame. Occluded nodes keep paying their appearance-
discrepancy energy per frame, so evidence-free coasting accumulates cost and
long absences resolve to containment (when a container with supporting door
or trunk fluents is available) or to track termination rather than to
arbitrarily long virtual paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    GATHER_BLOCK,
    CameraModel,
    Detection,
    InternalInvariantError,
    ModelParameters,
    ObjectClass,
    Tracklet,
    Trajectory,
    VisibilityState,
    ground_distances,
    ground_points,
    trajectories_from_columns,
)
from .energy import (
    ACTIONS,
    NEUTRAL_SIGMOID,
    EnergyBreakdown,
    FluentDistances,
    ZERO_BREAKDOWN,
    action_terms,
    best_actions,
    check_breakdowns,
    hop_costs,
    log_odds_each,
    pose_distances,
    pose_model,
    row_totals,
    sigmoids,
    visibility_likelihoods,
)
from .grammar import (
    INERTIAL_ACTION,
    LEGAL_ACTIONS,
    default_grammar,
    extract_frame_parses,
    min_inertial_energy,
)
from .tracklets import (
    GapLink,
    LINK_GATE_SLACK,
    build_gap_links,
    compatible_pairs,
    gap_between,
    generate_tracklets,
    link_detections,
)

MIN_CONTAINMENT_GAP = 3  # occluded boundary frame on each side plus >= 1 contained

SOLVE_MODES = ("full", "visible_only", "prior_only")


# ---------------------------------------------------------------------------
# container stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainerSolution:
    """Solved container trajectories plus their per-frame evidence.

    ``evidence`` maps container id -> frame -> (detection score, fluent
    feature or None); interpolated frames carry interpolated scores and no
    fluent. ``score_margin_total`` is the sum of (score - 1) over linked
    detections, reported for reference; it is always <= 0, which is why the
    flow stage optimizes log-odds rewards instead.
    """

    trajectories: Tuple[Trajectory, ...]
    evidence: Mapping[int, Mapping[int, Tuple[float, Optional[np.ndarray]]]]
    objective: float
    score_margin_total: float


# Longest gap, in frames, that a container link may span: a vehicle can drop
# out of detection for a few frames, a tracklet link spans one.
CONTAINER_LINK_GAP = 5


def solve_containers(
    vehicle_detections: Sequence[Detection],
    camera: CameraModel,
    params: ModelParameters,
) -> ContainerSolution:
    """Track containers by min-cost flow over vehicle detections.

    The same linker as tracklets (``link_detections``), except that links
    also bridge short detection dropouts, up to ``CONTAINER_LINK_GAP``
    frames; those are filled by linear interpolation so every container
    covers a contiguous frame range.
    """
    dets = sorted(
        (d for d in vehicle_detections if d.object_class is ObjectClass.VEHICLE),
        key=lambda d: (d.frame, d.bbox),
    )
    if not dets:
        return ContainerSolution((), {}, 0.0, 0.0)
    positions = ground_points(camera, [d.bbox for d in dets])
    paths, flow_cost = link_detections(dets, positions, camera.frame_rate, params,
                                       CONTAINER_LINK_GAP)

    locations: List[np.ndarray] = []
    evidence: Dict[int, Dict[int, Tuple[float, Optional[np.ndarray]]]] = {}
    margin = 0.0
    for cid, path in enumerate(paths):
        margin += sum(dets[i].score - 1.0 for i in path[:-1])
        ev: Dict[int, Tuple[float, Optional[np.ndarray]]] = {}
        for a, b in zip(path, path[1:] + [None]):
            fa = dets[a].frame
            locations.append(positions[a])
            ev[fa] = (dets[a].score, dets[a].vehicle_fluent_feature)
            if b is not None and dets[b].frame > fa + 1:
                # linear fill across a short detection dropout
                fb = dets[b].frame
                for f in range(fa + 1, fb):
                    w = (f - fa) / (fb - fa)
                    locations.append((1 - w) * positions[a] + w * positions[b])
                    ev[f] = ((1 - w) * dets[a].score + w * dets[b].score, None)
        evidence[cid] = ev
    # each container's frames are its evidence's keys, in frame order
    n = len(locations)
    trajectories = trajectories_from_columns(
        range(len(paths)), [ObjectClass.VEHICLE] * len(paths), list(map(len, evidence.values())),
        [f for ev in evidence.values() for f in ev], np.reshape(locations, (n, 2)),
        [VisibilityState.VISIBLE] * n, [INERTIAL_ACTION] * n, [None] * n)
    return ContainerSolution(tuple(trajectories), evidence, -flow_cost, margin)


# ---------------------------------------------------------------------------
# transition graph
# ---------------------------------------------------------------------------

# Codes of the graph's categorical columns: a column holds the index of its
# value in one of these tuples.
STATES = tuple(VisibilityState)
NODE_KINDS = ("head", "tail", "single", "detection", "vestibule", "contained")
OBJECT_CLASSES = tuple(ObjectClass)
_VISIBLE, _OCCLUDED, _CONTAINED = (STATES.index(s) for s in (
    VisibilityState.VISIBLE, VisibilityState.OCCLUDED, VisibilityState.CONTAINED))
_HEAD, _TAIL, _SINGLE, _DETECTION, _VESTIBULE, _CONTAINED_NODE = range(len(NODE_KINDS))
# trajectories start and end only on visible evidence: a head cannot end
# one, a tail cannot start one
ENTRY_KINDS = ("head", "single", "detection")
EXIT_KINDS = ("tail", "single", "detection")


@dataclass(frozen=True)
class GraphNode:
    """The record view of one node of a ``TransitionGraph``."""

    id: int
    frame: int
    location: np.ndarray
    state: VisibilityState
    # head | tail | single | detection | vestibule | contained; spline gap
    # frames are not nodes but interior stops of a tail -> head super-edge
    kind: str
    object_class: ObjectClass
    reward: float
    capacity: int
    detection_score: Optional[float] = None
    container_score: Optional[float] = None
    gap_similarity: Optional[float] = None
    pose_feature: Optional[np.ndarray] = None
    pose_energies: Optional[Mapping[str, float]] = None
    container_id: Optional[int] = None
    tracklet_id: Optional[int] = None


class Interior(NamedTuple):
    """The stops of a contracted chain, between its edge's endpoints.

    Stop ``i`` is at frame ``first_frame + i`` and ground point
    ``locations[i]``, in ``state``. ``actions`` lists the action each stop
    leaves by as runs of (action, stop count) in frame order, so a spline
    bridge keeps its sample array and at most two runs, not one record per
    frame.
    """

    first_frame: int
    locations: np.ndarray
    state: VisibilityState
    actions: Tuple[Tuple[str, int], ...]



@dataclass(frozen=True)
class GraphEdge:
    """The record view of one edge of a ``TransitionGraph``."""

    id: int
    src: int
    dst: int
    breakdown: EnergyBreakdown
    action: str
    net_cost: float
    is_container_chain: bool = False
    interior: Optional[Interior] = None  # the stops of a contracted chain


class Masked(NamedTuple):
    """An optional column: row ``i`` holds a value only where ``mask[i]``."""

    values: np.ndarray
    mask: np.ndarray

    def items(self) -> List:
        """Each row's value, or None where it has none."""
        return [v if m else None for v, m in zip(self.values.tolist(), self.mask.tolist())]


class NodeColumns(NamedTuple):
    """One row per node. ``state``, ``kind`` and ``object_class`` are codes
    into ``STATES``, ``NODE_KINDS`` and ``OBJECT_CLASSES``; ``pose`` is the
    row of the node's detection in the graph's ``PoseTable``."""

    frame: np.ndarray
    location: np.ndarray  # (n, 2)
    state: np.ndarray
    kind: np.ndarray
    object_class: np.ndarray
    reward: np.ndarray
    capacity: np.ndarray
    detection_score: Masked
    container_score: Masked
    gap_similarity: Masked
    container_id: Masked
    tracklet_id: Masked
    pose: Masked


def node_columns(frame, location, state, kind, object_class, reward, capacity,
                 detection_score=None, container_score=None, gap_similarity=None,
                 container_id=None, tracklet_id=None, pose=None) -> NodeColumns:
    """``NodeColumns`` from per-node arrays. An optional column holds NaN
    (scores) or -1 (ids) for a node without the value; one not given is
    absent from every node."""
    frame = np.asarray(frame, dtype=np.int64)
    n = len(frame)

    def scores(values) -> Masked:
        values = np.full(n, math.nan) if values is None else np.asarray(values, dtype=float)
        return Masked(values, ~np.isnan(values))

    def ids(values) -> Masked:
        values = np.full(n, -1) if values is None else np.asarray(values, dtype=np.int64)
        return Masked(values, values >= 0)

    return NodeColumns(frame, np.asarray(location, dtype=float).reshape(n, 2),
                       np.asarray(state, dtype=np.int8), np.asarray(kind, dtype=np.int8),
                       np.asarray(object_class, dtype=np.int8), np.asarray(reward, dtype=float),
                       np.asarray(capacity, dtype=np.int64), scores(detection_score),
                       scores(container_score), scores(gap_similarity), ids(container_id),
                       ids(tracklet_id), ids(pose))


class EdgeColumns(NamedTuple):
    """One row per edge. ``breakdown`` rows are (displacement, transition,
    visibility, action, total); ``action`` is a code into ``ACTIONS``;
    ``interior`` is the edge's row in the graph's ``InteriorColumns``, -1
    for a plain edge."""

    src: np.ndarray
    dst: np.ndarray
    net_cost: np.ndarray
    breakdown: np.ndarray  # (m, 5)
    action: np.ndarray
    is_container_chain: np.ndarray
    interior: np.ndarray


class InteriorColumns(NamedTuple):
    """One row per contracted chain: the frame of its first stop, its
    stops' state, their locations (a slice of the tracklet's positions, or
    the gap link's samples, not a copy), and the runs of actions they leave
    by, rows ``run_offsets[i]:run_offsets[i + 1]`` of ``run_action`` (codes
    into ``ACTIONS``) and ``run_length``."""

    first_frame: np.ndarray
    state: np.ndarray
    locations: Tuple[np.ndarray, ...]
    run_offsets: np.ndarray
    run_action: np.ndarray
    run_length: np.ndarray


NO_INTERIORS = InteriorColumns(np.zeros(0, np.int64), np.zeros(0, np.int8), (),
                               np.zeros(1, np.int64), np.zeros(0, np.int8), np.zeros(0, np.int64))


class PoseTable(NamedTuple):
    """The pose evidence of the detections a graph was built from: each
    detection's pose feature (None without one) and its
    ``energy.pose_distances`` under each of ``VISIBLE_STOP_ACTIONS`` (NaN
    without one)."""

    features: Tuple[Optional[np.ndarray], ...]
    energies: np.ndarray


NO_POSES = PoseTable((), np.zeros((0, 0)))


@dataclass(frozen=True)
class TransitionGraph:
    """The state-augmented DAG as columns.

    ``exit_costs`` maps each node a trajectory may end at to its full exit
    cost (node terms included). ``nodes`` and ``edges`` are record views of
    the columns, built on first access; the solve reads only the columns.
    """

    node_columns: NodeColumns
    edge_columns: EdgeColumns
    entry_cost: float
    exit_costs: Mapping[int, float]
    containers: ContainerSolution
    interior_columns: InteriorColumns = NO_INTERIORS
    poses: PoseTable = NO_POSES

    def __post_init__(self) -> None:
        frame, edges = self.node_columns.frame, self.edge_columns
        if (frame[edges.dst] <= frame[edges.src]).any():
            raise ValueError("graph edges must advance time")
        check_breakdowns(edges.breakdown)

    @property
    def num_nodes(self) -> int:
        return len(self.node_columns.frame)

    @cached_property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """The ids of each node's out-edges, in edge id order."""
        out: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for eid, src in enumerate(self.edge_columns.src.tolist()):
            out[src].append(eid)
        return tuple(map(tuple, out))

    def interior(self, index: int) -> Interior:
        """The record of contracted chain ``index``."""
        c = self.interior_columns
        runs = slice(c.run_offsets[index], c.run_offsets[index + 1])
        return Interior(int(c.first_frame[index]), c.locations[index], STATES[c.state[index]],
                        tuple((ACTIONS[code], length) for code, length in
                              zip(c.run_action[runs].tolist(), c.run_length[runs].tolist())))

    @cached_property
    def nodes(self) -> Tuple[GraphNode, ...]:
        """A record of every node, built from the columns on first access."""
        return _node_records(self)

    @cached_property
    def edges(self) -> Tuple[GraphEdge, ...]:
        """A record of every edge, built from the columns on first access."""
        return _edge_records(self)


def _node_records(graph: TransitionGraph) -> Tuple[GraphNode, ...]:
    c, poses = graph.node_columns, graph.poses
    pose_energies = [None if p is None else
                     dict(zip(VISIBLE_STOP_ACTIONS, poses.energies[p].tolist()))
                     for p in c.pose.items()]
    return tuple(
        GraphNode(id=i, frame=frame, location=location, state=STATES[state], kind=NODE_KINDS[kind],
                  object_class=OBJECT_CLASSES[cls], reward=reward, capacity=capacity,
                  detection_score=score, container_score=container_score,
                  gap_similarity=similarity,
                  pose_feature=None if pose is None else poses.features[pose],
                  pose_energies=energies, container_id=cid, tracklet_id=tid)
        for i, (frame, location, state, kind, cls, reward, capacity, score, container_score,
                similarity, pose, energies, cid, tid) in enumerate(zip(
            c.frame.tolist(), c.location, c.state.tolist(), c.kind.tolist(),
            c.object_class.tolist(), c.reward.tolist(), c.capacity.tolist(),
            c.detection_score.items(), c.container_score.items(), c.gap_similarity.items(),
            c.pose.items(), pose_energies, c.container_id.items(), c.tracklet_id.items())))


def _edge_records(graph: TransitionGraph) -> Tuple[GraphEdge, ...]:
    c = graph.edge_columns
    return tuple(
        GraphEdge(i, src, dst, EnergyBreakdown(*parts), ACTIONS[action], net, chain,
                  None if interior < 0 else graph.interior(interior))
        for i, (src, dst, parts, action, net, chain, interior) in enumerate(zip(
            c.src.tolist(), c.dst.tolist(), c.breakdown.tolist(), c.action.tolist(),
            c.net_cost.tolist(), c.is_container_chain.tolist(), c.interior.tolist())))


# The actions a visible stop can leave by: the legal actions out of the
# visible state, and the inertial action a trajectory's last point is
# priced under.
VISIBLE_STOP_ACTIONS = tuple(dict.fromkeys(
    (*(a for s in VisibilityState for a in LEGAL_ACTIONS[(VisibilityState.VISIBLE, s)]),
     INERTIAL_ACTION)))


def _price_poses(features: Sequence[Optional[np.ndarray]], params: ModelParameters) -> np.ndarray:
    """The pose energies of detections with pose ``features`` (None for a
    detection without one): the ``pose_distances`` of the features under
    each of ``VISIBLE_STOP_ACTIONS``, one stacked solve per action, as an
    ``(n, len(VISIBLE_STOP_ACTIONS))`` array whose rows are NaN for a
    detection without a pose feature."""
    energies = np.full((len(features), len(VISIBLE_STOP_ACTIONS)), math.nan)
    with_pose = [i for i, feature in enumerate(features) if feature is not None]
    if with_pose:
        for k, action in enumerate(VISIBLE_STOP_ACTIONS):
            energies[with_pose, k] = pose_distances([features[i] for i in with_pose],
                                                    pose_model(action, params))
    return energies


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, ...``, ``counts[i]`` values, for each
    ``i`` in turn."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _sequential_sums(parts: np.ndarray, first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of columns ``first[i]:first[i] + counts[i]`` of each row of
    ``parts``, added from 0 in column order, for every chain ``i``.

    The chains are taken one length at a time, so they stack without
    padding, and ``np.add.accumulate`` adds each chain's terms in order:
    the bits of adding them one at a time."""
    sums = np.zeros((len(parts), len(first)))
    order = np.argsort(counts, kind="stable")
    lengths, bounds = np.unique(counts[order], return_index=True)
    for count, group in zip(lengths.tolist(), np.split(order, bounds[1:])):
        chain = np.zeros((len(parts), len(group), count + 1))
        chain[:, :, 1:] = parts[:, first[group, None] + np.arange(count)]
        sums[:, group] = np.add.accumulate(chain, axis=2)[:, :, -1]
    return sums


class _GraphBuilder:
    """Builds a ``TransitionGraph``: first every node, as blocks of columns,
    then every edge, each kind of edge priced as one block, in the order
    that fixes the edge ids."""

    def __init__(self, camera, params, mode, detections: Sequence[Detection] = ()):
        if mode not in SOLVE_MODES:
            raise ValueError(f"unknown solve mode {mode!r}")
        self.camera = camera
        self.params = params
        self.mode = mode
        features = tuple(det.pose_feature for det in detections)
        self.poses = PoseTable(features, _price_poses(features, params))
        # whether each detection has a pose feature, and a last False for
        # the stops without a detection (index -1)
        self.has_pose = np.array([f is not None for f in features] + [False], dtype=bool)
        self.node_blocks: List[Dict[str, np.ndarray]] = []
        self.num_nodes = 0
        self.edge_blocks: List[Tuple[np.ndarray, ...]] = []
        self.interior_blocks: List[Tuple[np.ndarray, ...]] = []
        self.num_interiors = 0
        table = params.transition_table
        grammar = default_grammar()
        self.psi_occluded = min_inertial_energy(table, grammar, VisibilityState.OCCLUDED)
        self.psi_contained = min_inertial_energy(table, grammar, VisibilityState.CONTAINED)

    # -- nodes -------------------------------------------------------------------

    def add_nodes(self, count: int, **columns) -> np.ndarray:
        """Append ``count`` nodes (``node_columns``' arguments, scalars
        broadcast) and return their ids."""
        self.node_blocks.append({name: np.broadcast_to(value, (count, 2) if name == "location"
                                                        else (count,))
                                 for name, value in columns.items()})
        ids = np.arange(self.num_nodes, self.num_nodes + count)
        self.num_nodes += count
        return ids

    def finish_nodes(self) -> None:
        """Join the node blocks into the columns the edges are priced from;
        an optional column a block lacks is absent from its nodes."""
        absent = {"detection_score": math.nan, "container_score": math.nan,
                  "gap_similarity": math.nan, "container_id": -1, "tracklet_id": -1, "pose": -1}
        self.nodes = node_columns(**{
            name: np.concatenate([block[name] if name in block else
                                  np.full(len(block["frame"]), absent[name])
                                  for block in self.node_blocks])
            for name in ("frame", "location", "state", "kind", "object_class", "reward",
                         "capacity", *absent)})
        self.node_blocks = []

    def occluded_reward(self) -> float:
        """Covers displacement, inertial transition, and the neutral action
        term, but not the appearance-discrepancy energy: every occluded frame
        costs its own evidence deficit."""
        return 1.0 + self.psi_occluded + 1.0

    def contained_rewards(self, scores: np.ndarray) -> np.ndarray:
        """Cover the full inertial continuation cost; riding a container is
        per-frame neutral."""
        return 1.0 + self.psi_contained + (1.0 - scores) + 1.0

    # -- edges -------------------------------------------------------------------

    @property
    def likelihood(self) -> bool:
        """Whether edges pay the likelihood terms (all but ``prior_only``)."""
        return self.mode != "prior_only"

    @cached_property
    def pose_terms(self) -> np.ndarray:
        """The pose term of each detection under each of
        ``VISIBLE_STOP_ACTIONS``: the sigmoid of its pose energy, once per
        detection with a pose feature, else the neutral term; a last
        neutral row stands for the stops without a detection (pose row
        -1)."""
        energies = self.poses.energies
        terms = np.full((len(energies) + 1, energies.shape[1]), NEUTRAL_SIGMOID)
        with_pose = np.flatnonzero(self.has_pose)
        terms[with_pose] = sigmoids(energies[with_pose].ravel()).reshape(-1, energies.shape[1])
        return terms

    def pose_terms_of(self, rows: np.ndarray) -> Dict[str, np.ndarray]:
        """The pose terms of the hops that leave stops with pose rows
        ``rows`` (-1 without a pose feature), per action, as
        ``best_actions`` reads them."""
        return {action: self.pose_terms[rows, k] for k, action in enumerate(VISIBLE_STOP_ACTIONS)}

    def add_edges(self, src, dst, rows: np.ndarray, net: np.ndarray, action: np.ndarray,
                  is_container_chain: bool = False, interior: Optional[np.ndarray] = None) -> None:
        m = len(net)
        self.edge_blocks.append((np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
                                 net, rows, np.asarray(action, dtype=np.int8),
                                 np.full(m, is_container_chain),
                                 np.full(m, -1, dtype=np.int64) if interior is None else interior))

    def add_interiors(self, first_frame, state: int, locations: Sequence[np.ndarray],
                      run_counts: np.ndarray, run_action: np.ndarray, run_length: np.ndarray
                      ) -> np.ndarray:
        """Append contracted chains: chain ``i`` has the stops at
        ``locations[i]`` and ``run_counts[i]`` action runs, in the order of
        the run columns. Returns their rows."""
        count = len(locations)
        self.interior_blocks.append((np.asarray(first_frame, dtype=np.int64),
                                     np.full(count, state, dtype=np.int8), list(locations),
                                     run_counts, run_action, run_length))
        ids = np.arange(self.num_interiors, self.num_interiors + count)
        self.num_interiors += count
        return ids

    def add_plain_edges(self, src: np.ndarray, dst: np.ndarray,
                        choices: Tuple[np.ndarray, np.ndarray, np.ndarray],
                        is_container_chain: bool = False) -> None:
        """Append the one-frame hops ``src -> dst`` (node ids) as edges, each
        with its ``best_actions`` choice (codes, transition energies, action
        terms), priced as one block: ``hop_costs`` one source state at a
        time, each hop paying its source's evidence and losing its source's
        reward."""
        nodes = self.nodes
        codes, transition, action_term = choices
        if not self.likelihood:
            action_term = np.zeros(len(src))
        rows = np.empty((len(src), 5))
        state = nodes.state[src]
        for code in np.unique(state).tolist():
            k = np.flatnonzero(state == code)
            s = src[k]
            src_state = STATES[code]
            distance = (ground_distances(nodes.location[dst[k]], nodes.location[s])
                        if code == _VISIBLE else None)
            evidence = {_VISIBLE: nodes.detection_score, _OCCLUDED: nodes.gap_similarity,
                        _CONTAINED: nodes.container_score}[code].values[s]
            visibility = (visibility_likelihoods(src_state, evidence) if self.likelihood
                          else np.zeros(len(k)))
            rows[k] = hop_costs(src_state, distance, visibility, transition[k], action_term[k],
                                self.params, self.camera.frame_rate)
        self.add_edges(src, dst, rows, rows[:, 4] - nodes.reward[src], codes, is_container_chain)

    def contract(self, heads: np.ndarray, tails: np.ndarray, lengths: np.ndarray,
                 positions: np.ndarray, scores: np.ndarray, rewards: np.ndarray,
                 poses: np.ndarray) -> None:
        """One ``head -> tail`` super-edge over each tracklet of two or more
        stops, every tracklet's interior priced in one pass.

        The tracklets' stops are concatenated, tracklet by tracklet: at
        ``positions``, with detection ``scores``, log-odds ``rewards`` and
        pose rows ``poses`` (-1 for a stop without a pose feature); tracklet
        ``i`` has ``lengths[i]`` stops. Hop ``j`` leaves stop ``j`` and pays
        its evidence. Each hop is one visible -> visible frame priced by
        ``hop_costs`` (stripped in ``prior_only``): displacement 0/1 against
        the speed bound, the ``best_actions`` choice of its stop's pose
        terms, and visibility ``1 - score``. Each tracklet's components and
        net cost are added hop by hop in hop order (``_sequential_sums``), as
        a chain of nodes would add them.
        """
        last = np.cumsum(lengths) - 1
        leaves = np.ones(len(positions), dtype=bool)
        leaves[last] = False
        hop = np.flatnonzero(leaves)  # the stop each hop leaves
        V = VisibilityState.VISIBLE
        codes, transition, action_term = best_actions(V, V, self.params, len(hop),
                                                      self.pose_terms_of(poses[hop]))
        if self.likelihood:
            visibility = visibility_likelihoods(V, scores[hop])
        else:
            visibility = action_term = np.zeros(len(hop))
        rows = hop_costs(V, ground_distances(positions[hop + 1], positions[hop]), visibility,
                         transition, action_term, self.params, self.camera.frame_rate)

        # a tracklet's first hop follows one hop per earlier stop, less the
        # earlier tracklets' last stops
        first = last - lengths + 1
        chained = np.flatnonzero(lengths > 1)
        first_hop = (first - np.arange(len(lengths)))[chained]
        sums = _sequential_sums(np.vstack((rows.T, rows[:, 4] - rewards[hop])), first_hop,
                                lengths[chained] - 1)
        # interior stops leave by the hops after each tracklet's first
        inner = leaves.copy()
        inner[first] = False
        inner_codes = codes[np.flatnonzero(inner[hop])]
        owner = np.repeat(np.arange(len(chained)), lengths[chained] - 2)
        new_run = np.ones(len(inner_codes), dtype=bool)
        new_run[1:] = (inner_codes[1:] != inner_codes[:-1]) | (owner[1:] != owner[:-1])
        run_start = np.flatnonzero(new_run)
        interiors = self.add_interiors(
            self.nodes.frame[heads[chained]] + 1, _VISIBLE,
            [positions[a:b] for a, b in zip((first + 1)[chained].tolist(), last[chained].tolist())],
            np.bincount(owner[run_start], minlength=len(chained)),
            inner_codes[run_start], np.diff(np.append(run_start, len(inner_codes))))
        self.add_edges(heads[chained], tails[chained], sums[:5].T, sums[5], codes[first_hop],
                       interior=interiors)

    def bridges(self, spans: Sequence[Tuple[int, GapLink, int]]) -> None:
        """One ``tail -> head`` super-edge per ``(tail, link, head)`` (node
        ids) whose stops are the occluded spline samples of ``link``, all
        priced in one pass and appended in the order given.

        A link is dropped exactly when a hop of its chain (tail, samples,
        head) is longer than its gate, ``LINK_GATE_SLACK`` speed bounds of
        the tail's class per frame: one norm over every hop of every chain.
        Each hop costs what ``hop_costs`` gives it:

        - tail -> first stop: displacement 0/1 against the visible bound
          (one ``ground_distances`` call), visibility ``1 - score``, and the
          ``best_actions`` choice of the tail's pose terms;
        - stop -> stop and last stop -> head: displacement 1, since an
          occluded stop has no speed bound; visibility ``sigmoid(1 -
          similarity)``, once per link; and the ``best_actions`` choice
          without evidence, since an occluded stop has no pose and no
          fluent.

        Bridges exist only in ``full`` mode, so every term is paid. The five
        components and the net cost of each chain (its first hop, ``gap -
        1`` stop-to-stop hops and its last hop) are added hop by hop in hop
        order by ``_sequential_sums``, so the sums are those of the chain
        built as nodes.
        """
        if not spans:
            return
        V, O = VisibilityState.VISIBLE, VisibilityState.OCCLUDED
        nodes = self.nodes
        fps = self.camera.frame_rate
        tails = np.array([tail for tail, _, _ in spans], dtype=np.int64)
        heads = np.array([head for _, _, head in spans], dtype=np.int64)
        gaps = np.array([link.gap_frames for _, link, _ in spans], dtype=np.int64)
        first_samples = np.array([link.samples[0] for _, link, _ in spans]).reshape(-1, 2)
        last_samples = np.array([link.samples[-1] for _, link, _ in spans]).reshape(-1, 2)

        # the gate: each chain's longest hop, from the norms of the hops
        # into, between and out of its samples. The hops between samples
        # are measured over the links' samples concatenated, about
        # GATHER_BLOCK samples at a time, which bounds their temporaries
        longest = np.maximum(np.linalg.norm(first_samples - nodes.location[tails], axis=-1),
                             np.linalg.norm(nodes.location[heads] - last_samples, axis=-1))
        offsets = np.cumsum(gaps) - gaps  # of each link's first sample
        begin = 0
        while begin < len(spans):
            end = max(begin + 1, int(np.searchsorted(offsets, offsets[begin] + GATHER_BLOCK)))
            samples = np.concatenate([link.samples for _, link, _ in spans[begin:end]])
            between = np.zeros(len(samples))
            between[:-1] = np.linalg.norm(np.diff(samples, axis=0), axis=-1)
            firsts = offsets[begin:end] - offsets[begin]
            between[firsts + gaps[begin:end] - 1] = 0.0  # one link's last sample to the next
            longest[begin:end] = np.maximum(longest[begin:end],
                                            np.maximum.reduceat(between, firsts))
            begin = end
        classes = nodes.object_class[tails]
        gates = np.array([LINK_GATE_SLACK * self.params.speed_bound(cls) / fps
                          for cls in OBJECT_CLASSES])[classes]
        keep = ~(longest > gates)
        if not keep.all():
            spans = [span for span, kept in zip(spans, keep.tolist()) if kept]
            tails, heads, gaps = tails[keep], heads[keep], gaps[keep]
            first_samples = first_samples[keep]
        if not spans:
            return

        m = len(spans)
        tail_codes, transition, action_term = best_actions(
            V, O, self.params, m, self.pose_terms_of(nodes.pose.values[tails]))
        first = hop_costs(V, ground_distances(first_samples, nodes.location[tails]),
                          visibility_likelihoods(V, nodes.detection_score.values[tails]),
                          transition, action_term, self.params, fps)
        # every later hop leaves an occluded stop: displacement 1
        occluded = visibility_likelihoods(O, [link.similarity for _, link, _ in spans])
        reward = self.occluded_reward()
        mid_choice, last_choice = (best_actions(O, dst, self.params, m) for dst in (O, V))
        mid, last = (hop_costs(O, None, occluded, choice[1], choice[2], self.params, fps)
                     for choice in (mid_choice, last_choice))
        # each chain's sums, hop by hop from 0: the first hop, gap - 1
        # middle hops and the last hop. With the chains longest first, the
        # chains that still have a middle hop j are a prefix
        order = np.argsort(-gaps, kind="stable")
        first, mid, last = (np.vstack((rows.T, net))[:, order] for rows, net in (
            (first, first[:, 4] - nodes.reward[tails]), (mid, mid[:, 4] - reward),
            (last, last[:, 4] - reward)))
        ordered = 0.0 + first
        for alive in np.searchsorted(-gaps[order], -np.arange(2, gaps.max() + 1),
                                     "right").tolist():
            ordered[:, :alive] += mid[:, :alive]
        ordered += last
        sums = np.empty_like(ordered)
        sums[:, order] = ordered

        # the stops leave by two runs: gap - 1 middle hops (none for a
        # one-frame gap) and the last hop
        run_length = np.stack((gaps - 1, np.ones(m, dtype=np.int64)), axis=1).ravel()
        run_action = np.stack((mid_choice[0], last_choice[0]), axis=1).ravel()
        runs = run_length > 0
        interiors = self.add_interiors(nodes.frame[tails] + 1, _OCCLUDED,
                                       [link.samples for _, link, _ in spans], 1 + (gaps > 1),
                                       run_action[runs], run_length[runs])
        self.add_edges(tails, heads, sums[:5].T, sums[5], tail_codes, interior=interiors)

    def exit_costs(self) -> Dict[int, float]:
        """The exit cost of every node a trajectory may end at: the entry
        and exit cost plus the node's visibility term and its
        ``action_terms`` under the inertial action (both stripped in
        ``prior_only``), less the node's reward."""
        nodes = self.nodes
        ids = np.flatnonzero(np.isin(nodes.kind, [NODE_KINDS.index(k) for k in EXIT_KINDS]))
        rows = np.zeros((len(ids), 5))
        if self.likelihood:
            rows[:, 2] = visibility_likelihoods(VisibilityState.VISIBLE,
                                                nodes.detection_score.values[ids])
            rows[:, 3] = action_terms(INERTIAL_ACTION, len(ids),
                                      self.pose_terms_of(nodes.pose.values[ids]))
        rows[:, 4] = row_totals(rows)
        check_breakdowns(rows)
        costs = (self.params.solver_entry_exit_cost + rows[:, 4]) - nodes.reward[ids]
        return dict(zip(ids.tolist(), costs.tolist()))

    def graph(self, containers: ContainerSolution) -> TransitionGraph:
        """The graph of the nodes and of the edge and interior blocks so far,
        with every exit cost."""
        edges = EdgeColumns(*(np.concatenate(column) for column in zip(*self.edge_blocks)))
        first_frame, state, locations, run_counts, run_action, run_length = zip(
            *self.interior_blocks)
        interiors = InteriorColumns(
            np.concatenate(first_frame), np.concatenate(state),
            tuple(location for block in locations for location in block),
            np.concatenate(([0], np.cumsum(np.concatenate(run_counts)))),
            np.concatenate(run_action), np.concatenate(run_length))
        return TransitionGraph(self.nodes, edges, self.params.solver_entry_exit_cost,
                               self.exit_costs(), containers, interiors, self.poses)


def build_graph(
    detections: Sequence[Detection],
    tracklets: Sequence[Tracklet],
    gap_links: Sequence[GapLink],
    containers: ContainerSolution,
    camera: CameraModel,
    params: ModelParameters,
    mode: str = "full",
) -> TransitionGraph:
    """Assemble the state-augmented DAG for the object stage.

    Contained nodes exist once per container per frame (shared by up to
    ``max_contained`` objects); occluded vestibule nodes at the container's
    position let objects enter or leave at any frame of a candidate gap.
    ``mode`` selects the full model, a visible-only baseline (no occluded /
    contained nodes), or a prior-only ablation (visible-only graph with all
    likelihood terms zeroed).

    Capacity lives on nodes only: contained nodes admit ``max_contained``
    objects, every other node one. Every edge but a container chain edge
    touches a unit node, a chain edge joins two contained nodes, and a path
    visits a node at most once, so no edge can carry more objects than its
    ends admit.

    Nodes are numbered contained nodes first, then tracklet endpoints,
    leftover detections and vestibules; edges tracklet super-edges first,
    then visible adjacency, spline bridges, containment chains and container
    chains. Every kind of edge is priced as one block.
    """
    if params.transition_table is None:
        raise ValueError("params.transition_table is required to build the graph")
    det_list = list(detections)
    b = _GraphBuilder(camera, params, mode, det_list)
    full = mode == "full"
    V, O, C = VisibilityState.VISIBLE, VisibilityState.OCCLUDED, VisibilityState.CONTAINED

    # contained nodes: one per container per frame; container ``cid``'s
    # node of frame f is ``contained[cid] + f - birth``
    contained: Dict[int, int] = {}
    container_points: Dict[int, np.ndarray] = {}
    if full:
        for traj in containers.trajectories:
            cid = traj.object_id
            container_points[cid] = np.array([point.location for point in traj.points])
            scores = np.array([containers.evidence[cid][point.frame][0] for point in traj.points],
                              dtype=float)
            contained[cid] = int(b.add_nodes(
                len(scores), frame=np.arange(traj.birth_frame, traj.death_frame + 1),
                location=container_points[cid], state=_CONTAINED, kind=_CONTAINED_NODE,
                object_class=OBJECT_CLASSES.index(ObjectClass.PERSON),  # hosts persons, suitcases
                reward=b.contained_rewards(scores),
                capacity=params.max_contained, container_score=scores, container_id=cid)[0])

    # tracklet endpoint nodes: a head and a tail per tracklet, or one single
    # node. The super-edges over the contracted interiors are priced from
    # the tracklets' stops, concatenated in tracklet order
    ordered = sorted(tracklets, key=lambda t: t.id)
    lengths = np.array([len(t.positions) for t in ordered], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    positions = (np.concatenate([t.positions for t in ordered]) if ordered
                 else np.zeros((0, 2)))
    scores = np.array([s for t in ordered for s in (t.scores or (0.5,) * len(t.positions))],
                      dtype=float)
    stop_detections = np.array([d for t in ordered for d in
                                (t.detection_indices or (-1,) * len(t.positions))], dtype=np.int64)
    # a stop's pose row is its detection's, if that has a pose feature
    stop_poses = np.where(b.has_pose[stop_detections], stop_detections, -1)
    rewards = log_odds_each(scores)
    single = lengths == 1
    per_tracklet = 2 - single
    # each tracklet's head (or single) stop, then its tail stop unless single
    endpoint = np.stack((np.ones(len(ordered), dtype=bool), ~single), axis=1)
    ends = np.stack((starts, starts + lengths - 1), axis=1)[endpoint]
    kinds = np.stack((np.where(single, _SINGLE, _HEAD), np.full(len(ordered), _TAIL)),
                     axis=1)[endpoint]
    stop_frames = _ranges(np.array([t.start_frame for t in ordered], dtype=np.int64), lengths)
    ids = b.add_nodes(
        len(ends), frame=stop_frames[ends], location=positions[ends], state=_VISIBLE, kind=kinds,
        object_class=np.repeat([OBJECT_CLASSES.index(t.object_class) for t in ordered],
                               per_tracklet),
        reward=rewards[ends], capacity=1, detection_score=scores[ends], pose=stop_poses[ends],
        tracklet_id=np.repeat([t.id for t in ordered], per_tracklet))
    head_ids = ids[np.cumsum(per_tracklet) - per_tracklet]
    tail_ids = ids[np.cumsum(per_tracklet) - 1]
    head_of = dict(zip([t.id for t in ordered], head_ids.tolist()))
    tail_of = dict(zip([t.id for t in ordered], tail_ids.tolist()))

    # leftover detections (non-vehicle, unused by any tracklet)
    used = set(stop_detections.tolist())
    leftover = [idx for idx, det in enumerate(det_list)
                if idx not in used and det.object_class is not ObjectClass.VEHICLE]
    leftover_scores = [det_list[idx].score for idx in leftover]
    b.add_nodes(
        len(leftover), frame=[det_list[idx].frame for idx in leftover],
        location=ground_points(camera, [det_list[idx].bbox for idx in leftover]).reshape(-1, 2),
        state=_VISIBLE, kind=_DETECTION,
        object_class=[OBJECT_CLASSES.index(det_list[idx].object_class) for idx in leftover],
        reward=log_odds_each(leftover_scores), capacity=1,
        detection_score=leftover_scores,
        pose=np.where(b.has_pose[np.asarray(leftover, dtype=np.int64)], leftover, -1))

    # containment vestibules: occluded nodes riding each compatible container
    # (tail, first vestibule, vestibules, head, container id) of each chain
    chains: List[Tuple[int, int, int, int, int]] = []
    if full and containers.trajectories:
        for before, after, cid, similarity in _containment_pairs(tracklets, containers,
                                                                 container_points, params):
            birth = containers.trajectories[cid].birth_frame
            frames = np.arange(before.end_frame + 1, after.start_frame)
            chain = b.add_nodes(
                len(frames), frame=frames, location=container_points[cid][frames - birth],
                state=_OCCLUDED, kind=_VESTIBULE,
                object_class=OBJECT_CLASSES.index(before.object_class),
                reward=b.occluded_reward(), capacity=1, gap_similarity=similarity,
                container_id=cid)
            chains.append((tail_of[before.id], chain[0], len(chain), head_of[after.id], cid))
    b.finish_nodes()
    nodes = b.nodes

    # ---- edges ----

    b.contract(head_ids, tail_ids, lengths, positions, scores, rewards, stop_poses)

    # visible adjacency (dt == 1) between emitting and receiving visible
    # nodes of one class and not of one tracklet, within the class's gate:
    # by source id, then by target id
    visible = np.flatnonzero(nodes.state == _VISIBLE)
    emitters = visible[nodes.kind[visible] != _HEAD]
    receivers = visible[nodes.kind[visible] != _TAIL]
    receivers = receivers[np.argsort(nodes.frame[receivers], kind="stable")]
    target = nodes.frame[emitters] + 1
    low = np.searchsorted(nodes.frame[receivers], target, "left")
    count = np.searchsorted(nodes.frame[receivers], target, "right") - low
    src = np.repeat(emitters, count)
    dst = receivers[_ranges(low, count)]
    cls, tracklet = nodes.object_class, nodes.tracklet_id.values
    keep = (cls[src] == cls[dst]) & ~((tracklet[src] >= 0) & (tracklet[src] == tracklet[dst]))
    src, dst = src[keep], dst[keep]
    gates = np.array([LINK_GATE_SLACK * params.speed_bound(c) / camera.frame_rate
                      for c in OBJECT_CLASSES])
    keep = ~(ground_distances(nodes.location[src], nodes.location[dst]) > gates[cls[src]])
    src, dst = src[keep], dst[keep]
    b.add_plain_edges(src, dst, best_actions(V, V, params, len(src),
                                             b.pose_terms_of(nodes.pose.values[src])))

    # spline bridges: one super-edge per gap link, its missing frames occluded
    if full:
        b.bridges([(tail_of[link.before_id], link, head_of[link.after_id])
                   for link in sorted(gap_links, key=lambda l: (l.before_id, l.after_id))])

    # containment vestibule chains: per chain, tail -> first vestibule, the
    # vestibule hops, enters, exits, last vestibule -> head. The container
    # covers every frame of its chains (``_containment_pairs``), so every
    # vestibule but the last has a contained node one frame on, and every
    # one but the first a contained node one frame back. Crossing into or
    # out of a container additionally requires the container's fluent
    # evidence to support a door/trunk interaction at that frame (objects
    # cannot enter a vehicle whose doors never open). Each kind of hop is
    # chosen as one block over every chain, then the hops are put in chain
    # order
    tails, firsts, lengths, heads, cids = np.array(chains, dtype=np.int64).reshape(-1, 5).T
    steps = lengths - 1  # vestibule hops per chain
    owner = np.repeat(np.arange(len(chains)), steps)
    # the source of each vestibule hop: every vestibule but its chain's last
    hops = _ranges(firsts, steps)
    frames = nodes.frame[hops]
    # the contained node of each hop's container at the hop's frame
    rides = np.array([contained[cid] - containers.trajectories[cid].birth_frame
                      for cid in cids.tolist()], dtype=np.int64)[owner] + frames
    fluents = FluentDistances([containers.evidence[cid][frame][1] for cid, frame in
                               zip(cids[owner].tolist(), frames.tolist())],
                              params.vehicle_fluent_templates)
    enters = np.flatnonzero(_fluent_gate(fluents, LEGAL_ACTIONS[(O, C)]))
    exits = np.flatnonzero(_fluent_gate(fluents, LEGAL_ACTIONS[(C, O)]))
    each = np.arange(len(chains))
    blocks = (
        (tails, firsts, each, best_actions(V, O, params, len(chains),
                                            b.pose_terms_of(nodes.pose.values[tails]))),
        (hops, hops + 1, owner, best_actions(O, O, params, len(hops))),
        (hops[enters], rides[enters] + 1, owner[enters],
         best_actions(O, C, params, len(enters), fluents=fluents.take(enters))),
        (rides[exits], hops[exits] + 1, owner[exits],
         best_actions(C, O, params, len(exits), fluents=fluents.take(exits))),
        (firsts + steps, heads, each, best_actions(O, V, params, len(chains))))
    order = np.argsort(np.concatenate([block[2] for block in blocks]), kind="stable")
    src, dst = (np.concatenate([block[k] for block in blocks])[order] for k in (0, 1))
    b.add_plain_edges(src, dst, tuple(np.concatenate([block[3][k] for block in blocks])[order]
                                      for k in range(3)))

    # container chains, shared by up to max_contained objects. A chain hop
    # pays no fluent: riding is no door or trunk interaction, and the fluent
    # term, never below the neutral one, could only price those actions up
    src = [np.arange(first, first + len(containers.trajectories[cid].points) - 1)
           for cid, first in contained.items()]
    src = np.concatenate(src) if src else np.zeros(0, dtype=np.int64)
    b.add_plain_edges(src, src + 1, best_actions(C, C, params, len(src)),
                      is_container_chain=True)

    # the graph, with the exit costs (births and deaths live on visible
    # evidence only)
    return b.graph(containers)


def _fluent_gate(fluents: FluentDistances, actions) -> np.ndarray:
    """Whether each container fluent of ``fluents`` looks more like one of
    ``actions`` than like the idle template: its nearest template among
    theirs is nearer than the idle one. Permissive where the fluent is
    absent, or when the templates are."""
    templates = fluents.templates
    candidates = [a for a in actions if templates.get(a) is not None]
    if templates.get(INERTIAL_ACTION) is None or not candidates or not fluents.present.any():
        return np.ones(len(fluents.present), dtype=bool)
    nearest = np.minimum.reduce([fluents(a) for a in candidates])
    return ~fluents.present | (nearest < fluents(INERTIAL_ACTION))


def _containment_pairs(
    tracklets: Sequence[Tracklet],
    containers: ContainerSolution,
    container_points: Mapping[int, np.ndarray],
    params: ModelParameters,
) -> List[Tuple[Tracklet, Tracklet, int, float]]:
    """Compatible tracklet pairs that could be bridged through a container,
    by pair, then by container.

    Requires a gap of at least three frames and container proximity (tau_c)
    at both ends; the container must cover the whole gap. Unlike occlusion
    gaps there is no maximum gap: containment can carry an object for
    arbitrarily long. ``container_points`` holds each container's location
    per frame from its birth; each container gates every pair at once.
    """
    pairs = [(before, after, similarity)
             for before, after, similarity in compatible_pairs(tracklets, params)
             if gap_between(before, after) >= MIN_CONTAINMENT_GAP]
    if not pairs:
        return []
    enter = np.array([before.end_frame + 1 for before, _, _ in pairs])
    leave = np.array([after.start_frame - 1 for _, after, _ in pairs])
    tail_points = np.array([before.positions[-1] for before, _, _ in pairs])
    head_points = np.array([after.positions[0] for _, after, _ in pairs])
    found = []
    for traj in containers.trajectories:
        cid, birth = traj.object_id, traj.birth_frame
        covered = np.flatnonzero((birth <= enter) & (leave <= traj.death_frame))
        points = container_points[cid]
        near = (~(ground_distances(tail_points[covered], points[enter[covered] - birth])
                  > params.tau_c)
                & ~(ground_distances(head_points[covered], points[leave[covered] - birth])
                    > params.tau_c))
        found.extend((i, cid) for i in covered[near].tolist())
    return [(pairs[i][0], pairs[i][1], cid, pairs[i][2]) for i, cid in sorted(found)]


# ---------------------------------------------------------------------------
# successive-extraction solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSolution:
    """Extracted unit flows, their objective, and the decoded trajectories."""

    object_flows: Mapping[int, int]
    objective: float
    trajectories: Tuple[Trajectory, ...]
    paths: Tuple[Tuple[int, ...], ...] = ()
    energy_totals: EnergyBreakdown = ZERO_BREAKDOWN


class _Sweep(NamedTuple):
    """The graph as the DP reads it, as plain lists built once per solve;
    each list of nodes is in topological order, by (frame, id)."""

    entries: List[int]  # the nodes a trajectory may start at
    relax: List[Tuple[int, Tuple[int, ...]]]  # each node with out-edges, and their ids
    exits: List[Tuple[int, float]]  # the nodes a trajectory may end at, and its cost
    src: List[int]
    dst: List[int]
    net_cost: List[float]
    entry_cost: float


def _sweep(graph: TransitionGraph) -> _Sweep:
    nodes, edges = graph.node_columns, graph.edge_columns
    order = np.argsort(nodes.frame, kind="stable")
    entries = order[np.isin(nodes.kind[order], [NODE_KINDS.index(kind) for kind in ENTRY_KINDS])]
    adjacency = graph.adjacency
    order = order.tolist()
    return _Sweep(entries.tolist(), [(nid, adjacency[nid]) for nid in order if adjacency[nid]],
                  [(nid, graph.exit_costs[nid]) for nid in order if nid in graph.exit_costs],
                  edges.src.tolist(), edges.dst.tolist(), edges.net_cost.tolist(),
                  graph.entry_cost)


def _shortest_path(sweep: _Sweep, node_cap: List[int]) -> Tuple[float, List[int], List[int]]:
    """One DP sweep over the node ids in topological order; returns (net
    cost, node id path, the edge ids walked between those nodes).

    A candidate must beat the best so far by 1e-15, so ties go to the first
    found. Above 16 in magnitude that margin is below half the spacing of
    doubles and the comparison is a plain strict ``<``."""
    dist = [math.inf] * len(node_cap)
    parent_edge: List[Optional[int]] = [None] * len(node_cap)
    dst, net_cost = sweep.dst, sweep.net_cost
    for nid in sweep.entries:
        if node_cap[nid] > 0:
            if sweep.entry_cost < dist[nid]:
                dist[nid] = sweep.entry_cost
                parent_edge[nid] = None
    for nid, out in sweep.relax:
        here = dist[nid]
        if not math.isfinite(here):
            continue
        for eid in out:
            to = dst[eid]
            if node_cap[to] <= 0:
                continue
            cand = here + net_cost[eid]
            if cand < dist[to] - 1e-15:
                dist[to] = cand
                parent_edge[to] = eid

    best_cost = math.inf
    best_node = None
    for nid, exit_cost in sweep.exits:
        if not math.isfinite(dist[nid]) or node_cap[nid] <= 0:
            continue
        total = dist[nid] + exit_cost
        if total < best_cost - 1e-15:
            best_cost = total
            best_node = nid
    if best_node is None:
        return math.inf, [], []
    path = [best_node]
    edge_ids: List[int] = []
    while parent_edge[path[-1]] is not None:
        eid = parent_edge[path[-1]]
        edge_ids.append(eid)
        path.append(sweep.src[eid])
    path.reverse()
    edge_ids.reverse()
    return best_cost, path, edge_ids


def solve_objects(graph: TransitionGraph, params: ModelParameters) -> FlowSolution:
    """Extract trajectories one at a time while the objective improves.

    Each sweep runs an exact single-path DP over the remaining capacities;
    the path is accepted iff its net cost is strictly negative. Contained
    nodes admit up to ``max_contained`` units, every other node one; edges
    need no capacity of their own (see ``build_graph``). Greedy extraction
    is exact for a single object and for non-interacting objects; in tests,
    an exhaustive oracle quantifies the gap otherwise. The energy totals
    add the breakdown rows of the walked edges per component, in extraction
    order.
    """
    sweep = _sweep(graph)
    node_cap = graph.node_columns.capacity.tolist()
    breakdown = graph.edge_columns.breakdown
    object_flows: Dict[int, int] = {}
    paths: List[Tuple[int, ...]] = []
    edge_paths: List[List[int]] = []
    objective = 0.0
    totals = [0.0] * 5

    for _ in range(graph.num_nodes + 1):
        cost, path, edge_ids = _shortest_path(sweep, node_cap)
        if not path or cost >= -1e-12:
            break
        for nid in path:
            node_cap[nid] -= 1
            if node_cap[nid] < 0:
                raise InternalInvariantError(f"node {nid} capacity went negative")
        for eid in edge_ids:
            object_flows[eid] = object_flows.get(eid, 0) + 1
        for row in breakdown[edge_ids].tolist():
            for k, value in enumerate(row):
                totals[k] += value
        objective += -cost
        paths.append(tuple(path))
        edge_paths.append(edge_ids)

    solution = FlowSolution(
        object_flows=object_flows,
        objective=objective,
        trajectories=_decode_paths(graph, paths, edge_paths, len(graph.containers.trajectories)),
        paths=tuple(paths),
        energy_totals=EnergyBreakdown(*totals),
    )
    _validate_solution(graph, solution, params)
    return solution


def _decode_paths(graph: TransitionGraph, paths: Sequence[Sequence[int]],
                  edge_paths: Sequence[Sequence[int]], first_id: int) -> Tuple[Trajectory, ...]:
    """The trajectories along ``paths``, numbered from ``first_id``, whose
    hops are the edges ``edge_paths``, read in one pass from the rows of
    those nodes and edges and of the edges' interiors. Each point keeps the
    action its outgoing edge was priced with; a path's last point keeps the
    inertial action."""
    if not paths:
        return ()
    nodes, edges, interiors = graph.node_columns, graph.edge_columns, graph.interior_columns
    node = np.concatenate(paths)
    # each node's out-edge on its path, -1 after a path's last node, which
    # reads a row appended to the edge columns: the inertial action, and no
    # interior
    out = np.concatenate([(*e, -1) for e in edge_paths])
    action = np.append(edges.action, ACTIONS.index(INERTIAL_ACTION))[out]
    interior = np.append(edges.interior, -1)[out]
    inner = interior[interior >= 0]  # the walked interiors, in path order
    locations = [interiors.locations[k] for k in inner.tolist()]
    inner_stops = np.array(list(map(len, locations)), dtype=np.int64)
    stops = np.zeros(len(node), dtype=np.int64)  # each node's interior stops
    stops[interior >= 0] = inner_stops
    runs = _ranges(interiors.run_offsets[inner], np.diff(interiors.run_offsets)[inner])
    # each node's point is followed by its interior's stops
    at = np.arange(len(node)) + np.cumsum(stops) - stops
    order = np.argsort(np.concatenate([at, _ranges(at + 1, stops)]))

    def column(of_nodes: np.ndarray, of_stops: np.ndarray) -> list:
        return np.concatenate([of_nodes, of_stops])[order].tolist()

    lengths = list(map(len, paths))
    return tuple(trajectories_from_columns(
        range(first_id, first_id + len(paths)),
        [OBJECT_CLASSES[code] for code in nodes.object_class[[p[0] for p in paths]].tolist()],
        np.add.reduceat(1 + stops, np.cumsum(lengths) - lengths),
        column(nodes.frame[node], _ranges(interiors.first_frame[inner], inner_stops)),
        np.concatenate([nodes.location[node], *locations])[order],
        [STATES[c] for c in column(nodes.state[node], np.repeat(interiors.state[inner],
                                                                 inner_stops))],
        [ACTIONS[c] for c in column(action, np.repeat(interiors.run_action[runs],
                                                      interiors.run_length[runs]))],
        [c if c >= 0 else None for c in column(
            np.where(nodes.state[node] == _CONTAINED, nodes.container_id.values[node], -1),
            np.full(inner_stops.sum(), -1))]))


def _validate_solution(graph: TransitionGraph, solution: FlowSolution,
                       params: ModelParameters) -> None:
    n = graph.num_nodes
    nodes, edges = graph.node_columns, graph.edge_columns
    node_use = np.zeros(n, dtype=np.int64)
    in_flow = np.zeros(n, dtype=np.int64)
    out_flow = np.zeros(n, dtype=np.int64)
    for path in solution.paths:
        np.add.at(node_use, list(path), 1)
        in_flow[path[0]] += 1
        out_flow[path[-1]] += 1
    eids = np.fromiter(solution.object_flows, dtype=np.int64, count=len(solution.object_flows))
    flows = np.fromiter(solution.object_flows.values(), dtype=np.int64, count=len(eids))
    np.add.at(out_flow, edges.src[eids], flows)
    np.add.at(in_flow, edges.dst[eids], flows)
    for nid in np.flatnonzero(in_flow != out_flow)[:1].tolist():
        raise InternalInvariantError(f"flow not conserved at node {nid}")
    for nid in np.flatnonzero(node_use > nodes.capacity)[:1].tolist():
        raise InternalInvariantError(
            f"node {nid} over capacity: {node_use[nid]} > {nodes.capacity[nid]}")
    if (node_use[nodes.state == _CONTAINED] > params.max_contained).any():
        raise InternalInvariantError("containment capacity exceeded")


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointResult:
    solution: FlowSolution
    containers: ContainerSolution
    trajectories: Tuple[Trajectory, ...]  # containers first, then objects
    frame_parses: Tuple
    summary: Dict


def pipeline_graph(
    detections: Sequence[Detection],
    camera: CameraModel,
    params: ModelParameters,
    mode: str = "full",
) -> TransitionGraph:
    """Containers, tracklets, gap links (full mode only), and the transition
    graph over them; the solved containers ride on ``graph.containers``."""
    vehicles = [d for d in detections if d.object_class is ObjectClass.VEHICLE]
    others = [d for d in detections if d.object_class is not ObjectClass.VEHICLE]
    containers = solve_containers(vehicles, camera, params)
    tracks = generate_tracklets(others, camera, params)
    links = build_gap_links(tracks, params, camera.frame_rate) if mode == "full" else []
    return build_graph(others, tracks, links, containers, camera, params, mode)


def joint_solve(
    detections: Sequence[Detection],
    camera: CameraModel,
    params: ModelParameters,
    mode: str = "full",
) -> JointResult:
    """Containers, tracklets, graph, object solve, and parse extraction."""
    graph = pipeline_graph(detections, camera, params, mode)
    containers = graph.containers
    solution = solve_objects(graph, params)

    n_containers = len(containers.trajectories)
    trajectories = containers.trajectories + solution.trajectories
    parses = extract_frame_parses(trajectories)

    summary = {
        "objective": solution.objective,
        "container_objective": containers.objective,
        "container_score_margin": containers.score_margin_total,
        "num_trajectories": len(trajectories),
        "num_containers": n_containers,
        "energy_totals": {
            "displacement": solution.energy_totals.displacement,
            "transition": solution.energy_totals.transition,
            "visibility": solution.energy_totals.visibility,
            "action": solution.energy_totals.action,
            "total": solution.energy_totals.total,
        },
        "mode": mode,
    }
    return JointResult(
        solution=solution,
        containers=containers,
        trajectories=trajectories,
        frame_parses=tuple(parses),
        summary=summary,
    )
