"""State-augmented transition graph and joint trajectory inference.

Containers (vehicles) are tracked first by min-cost flow; objects are then
solved on a graph whose nodes carry a visibility state: visible nodes come
from tracklet endpoints and leftover detections, occluded nodes from
container-adjacent vestibules, contained nodes ride the container
trajectories. Graph nodes exist only where a trajectory can make a choice:
tracklet interiors and the occluded frames of spline gap links are pure
chains, contracted into super-edges. A super-edge keeps its stops as one
``Interior`` record: a location array (the gap link's spline samples, or a
slice of the tracklet's positions) and the stops' actions as runs, expanded
frame by frame only for the edges of solved paths. Trajectories are
extracted one at a time by dynamic programming over the DAG; in tests, an
exhaustive oracle bounds its optimality gap on small instances. Each
extraction returns the edges it walked, and a trajectory is decoded from
those edges alone: every point keeps the action its outgoing edge was
priced with, so the frame parses are the solved paths grouped by frame, not
a second labelling pass.

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
from itertools import groupby
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    CameraModel,
    Detection,
    InternalInvariantError,
    ModelParameters,
    ObjectClass,
    Tracklet,
    Trajectory,
    TrajectoryPoint,
    VisibilityState,
    ground_distance,
    ground_distances,
    ground_points,
)
from .energy import (
    NEUTRAL_SIGMOID,
    EnergyBreakdown,
    ZERO_BREAKDOWN,
    edge_cost,
    log_odds,
    node_exit_cost,
    pose_distances,
    pose_model,
    sigmoid,
    transition_energy,
    vehicle_fluent_distance,
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


class OracleLimitError(ValueError):
    """Instance exceeds the exhaustive oracle's guard rails."""


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

    def position(self, container_id: int, frame: int) -> Optional[np.ndarray]:
        traj = self.trajectories[container_id]
        if traj.birth_frame <= frame <= traj.death_frame:
            return traj.point_at(frame).location
        return None


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

    trajectories: List[Trajectory] = []
    evidence: Dict[int, Dict[int, Tuple[float, Optional[np.ndarray]]]] = {}
    margin = 0.0
    for cid, path in enumerate(paths):
        margin += sum(dets[i].score - 1.0 for i in path[:-1])
        points: List[TrajectoryPoint] = []
        ev: Dict[int, Tuple[float, Optional[np.ndarray]]] = {}
        for a, b in zip(path, path[1:] + [None]):
            fa = dets[a].frame
            points.append(
                TrajectoryPoint(fa, positions[a], VisibilityState.VISIBLE, INERTIAL_ACTION)
            )
            ev[fa] = (dets[a].score, dets[a].vehicle_fluent_feature)
            if b is not None and dets[b].frame > fa + 1:
                # linear fill across a short detection dropout
                fb = dets[b].frame
                for f in range(fa + 1, fb):
                    w = (f - fa) / (fb - fa)
                    loc = (1 - w) * positions[a] + w * positions[b]
                    points.append(
                        TrajectoryPoint(f, loc, VisibilityState.VISIBLE, INERTIAL_ACTION)
                    )
                    ev[f] = ((1 - w) * dets[a].score + w * dets[b].score, None)
        trajectories.append(Trajectory(object_id=cid, object_class=ObjectClass.VEHICLE,
                                       points=tuple(points)))
        evidence[cid] = ev
    return ContainerSolution(tuple(trajectories), evidence, -flow_cost, margin)


# ---------------------------------------------------------------------------
# transition graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphNode:
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

    @property
    def can_emit(self) -> bool:
        return self.kind != "head"

    @property
    def can_receive(self) -> bool:
        return self.kind != "tail"

    @property
    def is_endpoint(self) -> bool:
        # trajectory birth/death is restricted to visible evidence
        return self.kind in ("tail", "single", "detection")

    @property
    def is_entry(self) -> bool:
        return self.kind in ("head", "single", "detection")


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

    def stops(self) -> Iterator[Tuple[int, np.ndarray, VisibilityState, str]]:
        """(frame, location, state, action) of each stop, in frame order."""
        i = 0
        for action, count in self.actions:
            for _ in range(count):
                yield self.first_frame + i, self.locations[i], self.state, action
                i += 1


@dataclass(frozen=True)
class GraphEdge:
    id: int
    src: int
    dst: int
    breakdown: EnergyBreakdown
    action: str
    net_cost: float
    is_container_chain: bool = False
    interior: Optional[Interior] = None  # the stops of a contracted chain


@dataclass(frozen=True)
class TransitionGraph:
    nodes: Tuple[GraphNode, ...]
    edges: Tuple[GraphEdge, ...]
    entry_cost: float
    exit_costs: Mapping[int, float]  # node id -> full exit edge cost (incl. node terms)
    containers: ContainerSolution

    def out_edges(self, node_id: int) -> Tuple[int, ...]:
        return self._out[node_id]

    def __post_init__(self) -> None:
        out: List[List[int]] = [[] for _ in self.nodes]
        for e in self.edges:
            if self.nodes[e.dst].frame <= self.nodes[e.src].frame:
                raise ValueError("graph edges must advance time")
            out[e.src].append(e.id)
        object.__setattr__(self, "_out", tuple(tuple(v) for v in out))


def _strip_likelihood(breakdown: EnergyBreakdown) -> EnergyBreakdown:
    return EnergyBreakdown.build(breakdown.displacement, breakdown.transition, 0.0, 0.0)


class _Stop(NamedTuple):
    """One occluded stop of a spline bridge: where the trajectory passes, in
    which state, and the evidence its outgoing hop is priced with. The other
    evidence ``edge_cost`` reads is absent (None)."""

    frame: int
    location: np.ndarray
    state: VisibilityState
    detection_score: Optional[float] = None
    gap_similarity: Optional[float] = None
    pose_feature: Optional[np.ndarray] = None
    container_score: Optional[float] = None
    pose_energies: Optional[Mapping[str, float]] = None


# The actions a visible stop can leave by: the legal actions out of the
# visible state, and the inertial action a trajectory's last point is
# priced under.
VISIBLE_STOP_ACTIONS = tuple(dict.fromkeys(
    (*(a for s in VisibilityState for a in LEGAL_ACTIONS[(VisibilityState.VISIBLE, s)]),
     INERTIAL_ACTION)))


def _price_poses(detections: Sequence[Detection],
                 params: ModelParameters) -> List[Optional[Dict[str, float]]]:
    """Each detection's pose energies: the ``pose_distance`` of its pose
    feature under each of ``VISIBLE_STOP_ACTIONS``, one stacked solve per
    action, or None for a detection without a pose feature."""
    posed = [i for i, det in enumerate(detections) if det.pose_feature is not None]
    energies: List[Optional[Dict[str, float]]] = [None] * len(detections)
    if not posed:
        return energies
    features = [detections[i].pose_feature for i in posed]
    columns = [pose_distances(features, pose_model(action, params)).tolist()
               for action in VISIBLE_STOP_ACTIONS]
    for i, row in zip(posed, zip(*columns)):
        energies[i] = dict(zip(VISIBLE_STOP_ACTIONS, row))
    return energies


class _GraphBuilder:
    def __init__(self, camera, params, mode):
        if mode not in SOLVE_MODES:
            raise ValueError(f"unknown solve mode {mode!r}")
        self.camera = camera
        self.params = params
        self.mode = mode
        self.nodes: List[GraphNode] = []
        self.edges: List[GraphEdge] = []
        self.exit_costs: Dict[int, float] = {}
        table = params.transition_table
        grammar = default_grammar()
        self.psi_occluded = min_inertial_energy(table, grammar, VisibilityState.OCCLUDED)
        self.psi_contained = min_inertial_energy(table, grammar, VisibilityState.CONTAINED)

    # -- node constructors ---------------------------------------------------

    def add_node(self, **kw) -> int:
        node = GraphNode(id=len(self.nodes), **kw)
        self.nodes.append(node)
        return node.id

    def occluded_reward(self) -> float:
        """Covers displacement, inertial transition, and the neutral action
        term, but not the appearance-discrepancy energy: every occluded frame
        costs its own evidence deficit."""
        return 1.0 + self.psi_occluded + 1.0

    def contained_reward(self, score: float) -> float:
        """Covers the full inertial continuation cost; riding a container is
        per-frame neutral."""
        return 1.0 + self.psi_contained + (1.0 - score) + 1.0

    # -- edge constructors -----------------------------------------------------

    def price(self, src, dst, fluent=None) -> Tuple[EnergyBreakdown, str]:
        """Energy and best action of one hop between nodes or chain stops;
        the hop pays ``src``'s evidence."""
        breakdown, action = edge_cost(src, dst, self.params, self.camera.frame_rate, fluent)
        if self.mode == "prior_only":
            breakdown = _strip_likelihood(breakdown)
        return breakdown, action

    def append_edge(self, src: GraphNode, dst: GraphNode, breakdown: EnergyBreakdown,
                    action: str, net_cost: float, is_container_chain: bool = False,
                    interior: Optional[Interior] = None) -> None:
        self.edges.append(GraphEdge(len(self.edges), src.id, dst.id, breakdown, action,
                                    net_cost, is_container_chain, interior))

    def connect(self, src: GraphNode, dst: GraphNode, fluent=None,
                is_container_chain: bool = False) -> None:
        breakdown, action = self.price(src, dst, fluent)
        self.append_edge(src, dst, breakdown, action, breakdown.total - src.reward,
                         is_container_chain)

    def chain_edge(self, src: GraphNode, dst: GraphNode,
                   hops: Sequence[Tuple[Tuple[EnergyBreakdown, str], float, int]],
                   locations: np.ndarray, state: VisibilityState) -> None:
        """One ``src -> dst`` super-edge over a pure chain of stops.

        ``hops`` holds (price, reward of the stop the hop leaves, number of
        consecutive hops with that price and reward) in hop order. The stops
        are at the frames after ``src``, at ``locations``, all in ``state``.
        The five energy components are added hop by hop, in hop order, so the
        sums are those of the chain built as nodes.
        """
        displacement = transition = visibility = action_term = total = net = 0.0
        for (step, _), reward, count in hops:
            step_net = step.total - reward
            for _ in range(count):
                displacement += step.displacement
                transition += step.transition
                visibility += step.visibility
                action_term += step.action
                total += step.total
                net += step_net
        breakdown = EnergyBreakdown(displacement, transition, visibility, action_term, total)
        runs = tuple((action, count) for (_, action), _, count in hops[1:])
        self.append_edge(src, dst, breakdown, hops[0][0][1], net,
                         interior=Interior(src.frame + 1, locations, state, runs))

    @cached_property
    def visible_transitions(self) -> Tuple[Tuple[str, float], ...]:
        """(action, transition energy) of each legal visible -> visible
        action, in ``LEGAL_ACTIONS`` order."""
        return tuple((action, transition_energy(VisibilityState.VISIBLE, VisibilityState.VISIBLE,
                                                action, self.params.transition_table))
                     for action in LEGAL_ACTIONS[(VisibilityState.VISIBLE, VisibilityState.VISIBLE)])

    def contract(self, src: GraphNode, dst: GraphNode, positions: np.ndarray,
                 scores: Sequence[float], pose_energies: Sequence[Optional[Mapping[str, float]]]
                 ) -> None:
        """One ``src -> dst`` super-edge over a tracklet, its interior priced
        in one pass.

        The tracklet's stops are at ``positions``, with detection ``scores``
        and ``pose_energies`` (None for a stop without a pose feature); hop
        ``i`` leaves stop ``i`` and pays its evidence. Each hop costs what
        ``edge_cost`` (stripped in ``prior_only``) gives one visible ->
        visible frame: displacement 0/1 against the same bound, the minimum
        of transition + action term over ``visible_transitions`` with its tie
        rule, visibility ``1 - score``, and an action term of the sigmoid of
        the cached pose energy plus the neutral fluent term. The components
        and the net cost are added hop by hop in hop order, as ``chain_edge``
        adds them.
        """
        hops = len(positions) - 1
        bound = self.params.tau_s / self.camera.frame_rate  # displacement_energy's, dt = 1
        displacement = np.where(ground_distances(positions[1:], positions[:-1]) > bound, 1.0, 0.0)
        best = np.zeros(hops, dtype=int)
        best_value = np.full(hops, math.inf)
        transition = np.zeros(hops)
        action_term = np.zeros(hops)
        for k, (action, energy) in enumerate(self.visible_transitions):
            term = np.array([NEUTRAL_SIGMOID if e is None else sigmoid(e[action])
                             for e in pose_energies[:-1]]) + NEUTRAL_SIGMOID
            value = energy + term
            better = value < best_value - 1e-15
            best[better], best_value[better] = k, value[better]
            transition[better], action_term[better] = energy, term[better]
        if self.mode == "prior_only":
            visibility = action_term = np.zeros(hops)
        else:
            visibility = 1.0 - np.asarray(scores[:-1], dtype=float)
        total = displacement + transition + visibility + action_term
        net = total - np.array([log_odds(score) for score in scores[:-1]])
        parts = np.vstack((displacement, transition, visibility, action_term, total, net))
        sums = np.add.accumulate(np.hstack((np.zeros((6, 1)), parts)), axis=1)[:, -1].tolist()
        names = [self.visible_transitions[k][0] for k in best.tolist()]
        runs = tuple((action, len(list(run))) for action, run in groupby(names[1:]))
        self.append_edge(src, dst, EnergyBreakdown(*sums[:5]), names[0], sums[5],
                         interior=Interior(src.frame + 1, positions[1:-1],
                                           VisibilityState.VISIBLE, runs))

    def bridge(self, tail: GraphNode, head: GraphNode, link: GapLink, gate: float) -> None:
        """One ``tail -> head`` super-edge whose stops are the occluded
        spline samples of ``link``.

        One pass over the chain's consecutive distances drops the bridge if
        any hop is longer than ``gate`` metres. A hop that leaves an
        occluded stop has no pose evidence, so it costs displacement 1
        whatever its length: every stop-to-stop hop has one price, computed
        once, and the bridge costs three ``price`` calls whatever its gap.
        """
        samples = link.samples
        points = np.vstack((tail.location, samples, head.location))
        if (np.linalg.norm(np.diff(points, axis=0), axis=1) > gate).any():
            return
        reward = self.occluded_reward()

        def stop(i: int) -> _Stop:
            return _Stop(tail.frame + 1 + i, samples[i], VisibilityState.OCCLUDED,
                         gap_similarity=link.similarity)

        first, last = stop(0), stop(link.gap_frames - 1)
        hops = [(self.price(tail, first), tail.reward, 1)]
        if link.gap_frames > 1:
            hops.append((self.price(first, stop(1)), reward, link.gap_frames - 1))
        hops.append((self.price(last, head), reward, 1))
        self.chain_edge(tail, head, hops, samples, VisibilityState.OCCLUDED)

    def add_exit(self, node: GraphNode) -> None:
        breakdown = node_exit_cost(node, self.params)
        if self.mode == "prior_only":
            breakdown = _strip_likelihood(breakdown)
        self.exit_costs[node.id] = (
            self.params.solver_entry_exit_cost + breakdown.total - node.reward
        )


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
    """
    if params.transition_table is None:
        raise ValueError("params.transition_table is required to build the graph")
    b = _GraphBuilder(camera, params, mode)
    fps = camera.frame_rate

    # contained nodes: one per container per frame
    contained_ids: Dict[Tuple[int, int], int] = {}
    if mode == "full":
        for traj in containers.trajectories:
            for point in traj.points:
                score, _fluent = containers.evidence[traj.object_id][point.frame]
                nid = b.add_node(
                    frame=point.frame,
                    location=point.location,
                    state=VisibilityState.CONTAINED,
                    kind="contained",
                    object_class=ObjectClass.PERSON,  # hosts persons and suitcases
                    reward=b.contained_reward(score),
                    capacity=params.max_contained,
                    container_score=score,
                    container_id=traj.object_id,
                )
                contained_ids[(traj.object_id, point.frame)] = nid

    # tracklet endpoint nodes, and the super-edge over each tracklet's
    # contracted interior: these are the first edges, in tracklet order
    head_ids: Dict[int, int] = {}
    tail_ids: Dict[int, int] = {}
    det_list = list(detections)
    pose_energies = _price_poses(det_list, params)
    for t in sorted(tracklets, key=lambda t: t.id):
        n = len(t.positions)
        scores = t.scores or (0.5,) * n
        dets = t.detection_indices or (None,) * n
        energies = [None if det is None else pose_energies[det] for det in dets]

        def endpoint(i: int, kind: str) -> GraphNode:
            det = dets[i]
            return b.nodes[b.add_node(
                frame=t.start_frame + i, location=t.positions[i],
                state=VisibilityState.VISIBLE, kind=kind, object_class=t.object_class,
                reward=log_odds(scores[i]), capacity=1, detection_score=scores[i],
                pose_feature=None if det is None else det_list[det].pose_feature,
                pose_energies=energies[i], tracklet_id=t.id)]

        if n == 1:
            head = tail = endpoint(0, "single")
        else:
            head, tail = endpoint(0, "head"), endpoint(n - 1, "tail")
            b.contract(head, tail, t.positions, scores, energies)
        head_ids[t.id], tail_ids[t.id] = head.id, tail.id

    # leftover detections (non-vehicle, unused by any tracklet)
    used = set()
    for t in tracklets:
        if t.detection_indices:
            used.update(t.detection_indices)
    leftover = [idx for idx, det in enumerate(det_list)
                if idx not in used and det.object_class is not ObjectClass.VEHICLE]
    locations = ground_points(camera, [det_list[idx].bbox for idx in leftover])
    for idx, location in zip(leftover, locations):
        det = det_list[idx]
        b.add_node(
            frame=det.frame,
            location=location,
            state=VisibilityState.VISIBLE,
            kind="detection",
            object_class=det.object_class,
            reward=log_odds(det.score),
            capacity=1,
            detection_score=det.score,
            pose_feature=det.pose_feature,
            pose_energies=pose_energies[idx],
        )

    # containment vestibules: occluded nodes riding each compatible container
    vestibule_chains: List[Tuple[Tracklet, Tracklet, int, List[int]]] = []
    if mode == "full" and containers.trajectories:
        pairs = _containment_pairs(tracklets, containers, params)
        for before, after, cid, similarity in pairs:
            chain = []
            for frame in range(before.end_frame + 1, after.start_frame):
                chain.append(
                    b.add_node(
                        frame=frame,
                        location=containers.position(cid, frame),
                        state=VisibilityState.OCCLUDED,
                        kind="vestibule",
                        object_class=before.object_class,
                        reward=b.occluded_reward(),
                        capacity=1,
                        gap_similarity=similarity,
                        container_id=cid,
                    )
                )
            vestibule_chains.append((before, after, cid, chain))

    # ---- edges ----

    # visible adjacency (dt == 1) between emitting and receiving visible nodes
    visible_nodes = [n for n in b.nodes if n.state is VisibilityState.VISIBLE]
    recv_by_frame: Dict[int, List[GraphNode]] = {}
    for n in visible_nodes:
        if n.can_receive:
            recv_by_frame.setdefault(n.frame, []).append(n)
    for src in visible_nodes:
        if not src.can_emit:
            continue
        for dst in recv_by_frame.get(src.frame + 1, ()):
            if dst.object_class is not src.object_class:
                continue
            if src.tracklet_id is not None and src.tracklet_id == dst.tracklet_id:
                continue
            bound = LINK_GATE_SLACK * params.speed_bound(src.object_class) / fps
            if ground_distance(src.location, dst.location) > bound:
                continue
            b.connect(src, dst)

    # spline bridges: one super-edge per gap link, its missing frames occluded
    if mode == "full":
        for link in sorted(gap_links, key=lambda l: (l.before_id, l.after_id)):
            before_tail = b.nodes[tail_ids[link.before_id]]
            gate = LINK_GATE_SLACK * params.speed_bound(before_tail.object_class) / fps
            b.bridge(before_tail, b.nodes[head_ids[link.after_id]], link, gate)

    # containment vestibule bridges; crossing into or out of a container
    # additionally requires the container's fluent evidence to support a
    # door/trunk interaction at that frame (objects cannot enter a vehicle
    # whose doors never open)
    enter_actions = LEGAL_ACTIONS[(VisibilityState.OCCLUDED, VisibilityState.CONTAINED)]
    exit_actions = LEGAL_ACTIONS[(VisibilityState.CONTAINED, VisibilityState.OCCLUDED)]
    for before, after, cid, chain in vestibule_chains:
        before_tail = b.nodes[tail_ids[before.id]]
        after_head = b.nodes[head_ids[after.id]]
        nodes_chain = [b.nodes[i] for i in chain]
        fluent_of = containers.evidence[cid]
        b.connect(before_tail, nodes_chain[0])
        for u, v in zip(nodes_chain, nodes_chain[1:]):
            b.connect(u, v)
        for u in nodes_chain[:-1]:
            cnode = contained_ids.get((cid, u.frame + 1))
            fluent = fluent_of[u.frame][1]
            if cnode is not None and _fluent_supports(fluent, enter_actions, params):
                b.connect(u, b.nodes[cnode], fluent=fluent)
        for v in nodes_chain[1:]:
            cnode = contained_ids.get((cid, v.frame - 1))
            fluent = fluent_of[v.frame - 1][1]
            if cnode is not None and _fluent_supports(fluent, exit_actions, params):
                b.connect(b.nodes[cnode], v, fluent=fluent)
        b.connect(nodes_chain[-1], after_head)

    # container chains, shared by up to max_contained objects. A chain hop
    # pays no fluent: riding is no door or trunk interaction, and the fluent
    # term, never below the neutral one, could only price those actions up
    for traj in containers.trajectories:
        for f in range(traj.birth_frame, traj.death_frame):
            src_id = contained_ids.get((traj.object_id, f))
            dst_id = contained_ids.get((traj.object_id, f + 1))
            if src_id is None or dst_id is None:
                continue
            b.connect(b.nodes[src_id], b.nodes[dst_id], is_container_chain=True)

    # exits (births/deaths live on visible evidence only)
    for n in b.nodes:
        if n.is_endpoint:
            b.add_exit(n)

    return TransitionGraph(
        nodes=tuple(b.nodes),
        edges=tuple(b.edges),
        entry_cost=params.solver_entry_exit_cost,
        exit_costs=dict(b.exit_costs),
        containers=containers,
    )


def _fluent_supports(fluent, actions, params: ModelParameters) -> bool:
    """Whether the container's fluent looks more like one of ``actions`` than
    like the idle template. Permissive when evidence or templates are absent.
    """
    if fluent is None:
        return True
    idle = params.vehicle_fluent_templates.get(INERTIAL_ACTION)
    if idle is None:
        return True
    candidates = [params.vehicle_fluent_templates.get(a) for a in actions]
    candidates = [c for c in candidates if c is not None]
    if not candidates:
        return True
    best = min(vehicle_fluent_distance(fluent, c) for c in candidates)
    return best < vehicle_fluent_distance(fluent, idle)


def _containment_pairs(
    tracklets: Sequence[Tracklet],
    containers: ContainerSolution,
    params: ModelParameters,
) -> List[Tuple[Tracklet, Tracklet, int, float]]:
    """Compatible tracklet pairs that could be bridged through a container.

    Requires a gap of at least three frames and container proximity (tau_c)
    at both ends; the container must cover the whole gap. Unlike occlusion
    gaps there is no maximum gap: containment can carry an object for
    arbitrarily long.
    """
    pairs = []
    for before, after, similarity in compatible_pairs(tracklets, params):
        if gap_between(before, after) < MIN_CONTAINMENT_GAP:
            continue
        for traj in containers.trajectories:
            cid = traj.object_id
            if traj.birth_frame > before.end_frame + 1 or traj.death_frame < after.start_frame - 1:
                continue
            entry_pos = containers.position(cid, before.end_frame + 1)
            exit_pos = containers.position(cid, after.start_frame - 1)
            if entry_pos is None or exit_pos is None:
                continue
            if ground_distance(before.positions[-1], entry_pos) > params.tau_c:
                continue
            if ground_distance(after.positions[0], exit_pos) > params.tau_c:
                continue
            pairs.append((before, after, cid, similarity))
    return pairs


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


def _shortest_path(
    graph: TransitionGraph,
    node_cap: List[int],
    order: Sequence[int],
) -> Tuple[float, List[int], List[int]]:
    """One DP sweep over the node ids in topological ``order``; returns (net
    cost, node id path, the edge ids walked between those nodes)."""
    dist = [math.inf] * len(graph.nodes)
    parent_edge: List[Optional[int]] = [None] * len(graph.nodes)
    for nid in order:
        node = graph.nodes[nid]
        if node.is_entry and node_cap[nid] > 0:
            if graph.entry_cost < dist[nid]:
                dist[nid] = graph.entry_cost
                parent_edge[nid] = None
    for nid in order:
        if not math.isfinite(dist[nid]):
            continue
        for eid in graph.out_edges(nid):
            edge = graph.edges[eid]
            if node_cap[edge.dst] <= 0:
                continue
            cand = dist[nid] + edge.net_cost
            if cand < dist[edge.dst] - 1e-15:
                dist[edge.dst] = cand
                parent_edge[edge.dst] = eid

    best_cost = math.inf
    best_node = None
    for nid in order:
        exit_cost = graph.exit_costs.get(nid)
        if exit_cost is None or not math.isfinite(dist[nid]) or node_cap[nid] <= 0:
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
        path.append(graph.edges[eid].src)
    path.reverse()
    edge_ids.reverse()
    return best_cost, path, edge_ids


def solve_objects(graph: TransitionGraph, params: ModelParameters) -> FlowSolution:
    """Extract trajectories one at a time while the objective improves.

    Each sweep runs an exact single-path DP over the remaining capacities;
    the path is accepted iff its net cost is strictly negative. Contained
    nodes admit up to ``max_contained`` units, every other node one; edges
    need no capacity of their own (see ``build_graph``). Greedy extraction
    is exact for a single object and for non-interacting objects; the
    exhaustive oracle quantifies the gap otherwise.
    """
    node_cap = [n.capacity for n in graph.nodes]
    order = sorted(range(len(graph.nodes)), key=lambda i: (graph.nodes[i].frame, i))
    object_flows: Dict[int, int] = {}
    paths: List[Tuple[int, ...]] = []
    trajectories: List[Trajectory] = []
    objective = 0.0
    totals = ZERO_BREAKDOWN

    for _ in range(len(graph.nodes) + 1):
        cost, path, edge_ids = _shortest_path(graph, node_cap, order)
        if not path or cost >= -1e-12:
            break
        for nid in path:
            node_cap[nid] -= 1
            if node_cap[nid] < 0:
                raise InternalInvariantError(f"node {nid} capacity went negative")
        for eid in edge_ids:
            object_flows[eid] = object_flows.get(eid, 0) + 1
            totals = totals.add(graph.edges[eid].breakdown)
        objective += -cost
        paths.append(tuple(path))
        trajectories.append(_decode_path(graph, path, edge_ids, object_id=len(trajectories)))

    solution = FlowSolution(
        object_flows=object_flows,
        objective=objective,
        trajectories=tuple(trajectories),
        paths=tuple(paths),
        energy_totals=totals,
    )
    _validate_solution(graph, solution, params)
    return solution


def _decode_path(graph: TransitionGraph, path: Sequence[int], edge_ids: Sequence[int],
                 object_id: int) -> Trajectory:
    """The trajectory along ``path``, whose hops are the edges ``edge_ids``.

    Each point keeps the action its outgoing edge was priced with; the last
    point keeps the inertial action.
    """
    points: List[TrajectoryPoint] = []
    cls = graph.nodes[path[0]].object_class
    for i, nid in enumerate(path):
        node = graph.nodes[nid]
        action = graph.edges[edge_ids[i]].action if i < len(edge_ids) else INERTIAL_ACTION
        points.append(
            TrajectoryPoint(
                frame=node.frame,
                location=node.location,
                state=node.state,
                action=action,
                container_id=node.container_id if node.state is VisibilityState.CONTAINED else None,
            )
        )
        interior = graph.edges[edge_ids[i]].interior if i < len(edge_ids) else None
        if interior is not None:
            for frame, loc, state, action in interior.stops():
                points.append(TrajectoryPoint(frame=frame, location=loc, state=state,
                                              action=action))
    return Trajectory(object_id=object_id, object_class=cls, points=tuple(points))


def _validate_solution(graph: TransitionGraph, solution: FlowSolution,
                       params: ModelParameters) -> None:
    in_flow: Dict[int, int] = {}
    out_flow: Dict[int, int] = {}
    node_use: Dict[int, int] = {}
    for path in solution.paths:
        for nid in path:
            node_use[nid] = node_use.get(nid, 0) + 1
    for eid, flow in solution.object_flows.items():
        edge = graph.edges[eid]
        out_flow[edge.src] = out_flow.get(edge.src, 0) + flow
        in_flow[edge.dst] = in_flow.get(edge.dst, 0) + flow
    for path in solution.paths:
        first, last = path[0], path[-1]
        in_flow[first] = in_flow.get(first, 0) + 1
        out_flow[last] = out_flow.get(last, 0) + 1
    for nid, node in enumerate(graph.nodes):
        used = node_use.get(nid, 0)
        if in_flow.get(nid, 0) != out_flow.get(nid, 0):
            raise InternalInvariantError(f"flow not conserved at node {nid}")
        if used > node.capacity:
            raise InternalInvariantError(f"node {nid} over capacity: {used} > {node.capacity}")
        if node.state is VisibilityState.CONTAINED and used > params.max_contained:
            raise InternalInvariantError("containment capacity exceeded")


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

# The oracle's guard rails: the largest instance it takes (frames, graph
# nodes in one frame), the most objects it places, and the most entry -> exit
# paths it enumerates before it gives up.
ORACLE_MAX_FRAMES = 10
ORACLE_MAX_NODES_PER_FRAME = 12
ORACLE_MAX_OBJECTS = 4
ORACLE_PATH_BUDGET = 50000


def brute_force_oracle(graph: TransitionGraph) -> FlowSolution:
    """Globally optimal joint flow by exhaustive path-subset enumeration.

    Guard rails reject instances beyond ``ORACLE_MAX_FRAMES`` frames or
    ``ORACLE_MAX_NODES_PER_FRAME`` nodes in a frame, and more than
    ``ORACLE_PATH_BUDGET`` paths. The search enumerates every feasible set
    of at most ``ORACLE_MAX_OBJECTS`` capacity-respecting paths and returns
    the best total objective.
    """
    frames: Dict[int, int] = {}
    for n in graph.nodes:
        frames[n.frame] = frames.get(n.frame, 0) + 1
    if len(frames) > ORACLE_MAX_FRAMES:
        raise OracleLimitError(f"instance spans {len(frames)} frames > {ORACLE_MAX_FRAMES}")
    if frames and max(frames.values()) > ORACLE_MAX_NODES_PER_FRAME:
        raise OracleLimitError(
            f"instance has {max(frames.values())} nodes in one frame > "
            f"{ORACLE_MAX_NODES_PER_FRAME}"
        )

    # enumerate all entry -> exit paths
    paths: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []

    def extend(nid: int, cost: float, node_path: List[int], edge_path: List[int]) -> None:
        if len(paths) > ORACLE_PATH_BUDGET:
            raise OracleLimitError("path enumeration exceeded the oracle budget")
        exit_cost = graph.exit_costs.get(nid)
        if exit_cost is not None:
            paths.append((cost + exit_cost, tuple(node_path), tuple(edge_path)))
        for eid in graph.out_edges(nid):
            edge = graph.edges[eid]
            node_path.append(edge.dst)
            edge_path.append(eid)
            extend(edge.dst, cost + edge.net_cost, node_path, edge_path)
            node_path.pop()
            edge_path.pop()

    for n in graph.nodes:
        if n.is_entry:
            extend(n.id, graph.entry_cost, [n.id], [])

    candidates = sorted(
        (p for p in paths if p[0] < -1e-12), key=lambda p: (p[0], p[1])
    )
    best_total = 0.0
    best_subset: Tuple[int, ...] = ()
    suffix_min = [0.0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min(candidates[i][0], 0.0)

    node_capacity = [n.capacity for n in graph.nodes]

    def feasible(idx: int) -> bool:
        return all(node_capacity[n] > 0 for n in candidates[idx][1])

    def search(start: int, count: int, total: float, chosen: List[int]) -> None:
        # recursion depth is bounded by ORACLE_MAX_OBJECTS: we only recurse on takes
        nonlocal best_total, best_subset
        if total < best_total - 1e-15:
            best_total = total
            best_subset = tuple(chosen)
        if count >= ORACLE_MAX_OBJECTS:
            return
        for idx in range(start, len(candidates)):
            if total + suffix_min[idx] >= best_total - 1e-15:
                break
            if not feasible(idx):
                continue
            node_path = candidates[idx][1]
            for n in node_path:
                node_capacity[n] -= 1
            chosen.append(idx)
            search(idx + 1, count + 1, total + candidates[idx][0], chosen)
            chosen.pop()
            for n in node_path:
                node_capacity[n] += 1

    search(0, 0, 0.0, [])

    flows: Dict[int, int] = {}
    for idx in best_subset:
        for eid in candidates[idx][2]:
            flows[eid] = flows.get(eid, 0) + 1
    trajectories = tuple(
        _decode_path(graph, candidates[idx][1], candidates[idx][2], object_id=i)
        for i, idx in enumerate(best_subset)
    )
    return FlowSolution(
        object_flows=flows,
        objective=-best_total,
        trajectories=trajectories,
        paths=tuple(candidates[idx][1] for idx in best_subset),
    )


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
    trajectories = list(containers.trajectories)
    for traj in solution.trajectories:
        trajectories.append(Trajectory(object_id=traj.object_id + n_containers,
                                       object_class=traj.object_class, points=traj.points))
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
        trajectories=tuple(trajectories),
        frame_parses=tuple(parses),
        summary=summary,
    )
