import dataclasses
import itertools
import math
from collections import Counter
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluenttrack import solver
from fluenttrack.core import (
    CameraModel,
    Detection,
    ObjectClass,
    Tracklet,
    Trajectory,
    TrajectoryPoint,
    VisibilityState,
    ground_distance,
)
from fluenttrack.energy import EnergyBreakdown, FluentDistances
from fluenttrack.grammar import (
    LEGAL_ACTIONS,
    ActionStateTable,
    default_grammar,
    default_parameters,
    min_inertial_energy,
)
from fluenttrack.simulator import default_camera, simulate, standard_suite
from fluenttrack.solver import (
    ACTIONS,
    NODE_KINDS,
    OBJECT_CLASSES,
    SOLVE_MODES,
    STATES,
    ContainerSolution,
    EdgeColumns,
    Interior,
    TransitionGraph,
    _GraphBuilder,
    build_graph,
    joint_solve,
    node_columns,
    pipeline_graph,
    solve_containers,
    solve_objects,
)
from fluenttrack.tracklets import LINK_GATE_SLACK, GapLink, build_gap_links, generate_tracklets

from conftest import (
    Stop,
    interior_stops,
    make_detection,
    random_walk_instance,
    same_bits,
    unit_vector,
)
from energy_reference import edge_cost, log_odds, node_exit_cost, vehicle_fluent_distance
from oracle_reference import OracleLimitError, brute_force_oracle


@pytest.fixture(scope="module")
def camera():
    return CameraModel(np.eye(3), 10.0)


@pytest.fixture(scope="module")
def params():
    return default_parameters()


@pytest.fixture(scope="module")
def oracle_params():
    # a lower trajectory budget keeps tiny random instances non-vacuous
    return default_parameters(solver_entry_exit_cost=3.0)


def vehicle_track(detection_frames, camera, params, x=20.0, y=10.0, score=0.95):
    rng = np.random.default_rng(0)
    proto = unit_vector(rng)
    dets = [
        make_detection(f, x, y, score, proto, object_class=ObjectClass.VEHICLE)
        for f in detection_frames
    ]
    return solve_containers(dets, camera, params)


V = VisibilityState.VISIBLE


class EdgeRow(NamedTuple):
    """An edge as a test compares it: its breakdown, first action, net cost
    and interior."""

    breakdown: EnergyBreakdown
    action: str
    net_cost: float
    interior: Optional[Interior]


def edge_row(graph, eid):
    """Edge ``eid`` read from the graph's edge columns."""
    edges = graph.edge_columns
    interior = int(edges.interior[eid])
    return EdgeRow(EnergyBreakdown(*edges.breakdown[eid].tolist()), ACTIONS[edges.action[eid]],
                   float(edges.net_cost[eid]), None if interior < 0 else graph.interior(interior))


def node_stop(graph, nid):
    """Node ``nid`` as the stop ``edge_cost`` reads, from the graph's node
    columns and pose table."""
    nodes = graph.node_columns

    def optional(column):
        return column.values[nid].item() if column.mask[nid] else None

    pose = optional(nodes.pose)
    return Stop(int(nodes.frame[nid]), nodes.location[nid], STATES[nodes.state[nid]],
                optional(nodes.detection_score), optional(nodes.container_score),
                optional(nodes.gap_similarity),
                None if pose is None else graph.poses.features[pose],
                None if pose is None else dict(zip(solver.VISIBLE_STOP_ACTIONS,
                                                   graph.poses.energies[pose].tolist())))


def per_hop_edge(chain, rewards, state, params, frame_rate, mode="full"):
    """The super-edge over ``chain`` (its endpoints included) as the per-hop
    reference builds it: one ``edge_cost`` per hop, its likelihood terms
    zeroed in ``prior_only``, and each hop's five components and net cost
    (its total less ``rewards[i]``, the reward of the stop it leaves) added
    hop by hop in hop order. The interior stops leave by one-stop runs."""
    sums = [0.0] * 6
    actions = []
    for u, v, reward in zip(chain, chain[1:], rewards):
        step, action = edge_cost(u, v, params, frame_rate)
        if mode == "prior_only":
            step = EnergyBreakdown.build(step.displacement, step.transition, 0.0, 0.0)
        for k, value in enumerate((step.displacement, step.transition, step.visibility,
                                   step.action, step.total, step.total - reward)):
            sums[k] += value
        actions.append(action)
    interior = Interior(chain[0].frame + 1, np.array([s.location for s in chain[1:-1]]), state,
                        tuple((action, 1) for action in actions[1:]))
    return EdgeRow(EnergyBreakdown(*sums[:5]), actions[0], sums[5], interior)


def per_hop_tracklet_edge(head, tail, stops, params, frame_rate, mode):
    """``per_hop_edge`` over a tracklet's ``stops`` (its endpoints included)
    from ``head`` to ``tail``; a hop leaving a stop loses its log-odds
    reward."""
    return per_hop_edge([head, *stops[1:-1], tail],
                        [log_odds(s.detection_score) for s in stops[:-1]], V, params,
                        frame_rate, mode)


def assert_same_breakdown(edge, reference):
    """Bit-equal energies, net cost and first action."""
    fields = ("displacement", "transition", "visibility", "action", "total")
    assert same_bits([getattr(edge.breakdown, f) for f in fields],
                     [getattr(reference.breakdown, f) for f in fields])
    assert same_bits(edge.net_cost, reference.net_cost)
    assert edge.action == reference.action


def assert_same_edge(edge, reference):
    """Bit-equal energies, net cost and stops; the reference's one-stop
    action runs merged into maximal runs."""
    assert_same_breakdown(edge, reference)
    runs = []
    for action, count in reference.interior.actions:
        if runs and runs[-1][0] == action:
            action, count = action, runs.pop()[1] + count
        runs.append((action, count))
    assert edge.interior.actions == tuple(runs)
    assert edge.interior.first_frame == reference.interior.first_frame
    assert edge.interior.state is V
    assert same_bits(edge.interior.locations.reshape(-1, 2),
                     reference.interior.locations.reshape(-1, 2))


class TestSolveContainers:
    def test_stationary_vehicle_full_coverage(self, camera, params):
        cs = vehicle_track(range(20), camera, params)
        assert len(cs.trajectories) == 1
        traj = cs.trajectories[0]
        assert (traj.birth_frame, traj.death_frame) == (0, 19)
        assert all(p.state is VisibilityState.VISIBLE for p in traj.points)

    def test_all_weak_scores_yield_nothing(self, camera, params):
        cs = vehicle_track(range(5), camera, params, score=0.5)
        assert cs.trajectories == ()

    def test_two_separated_vehicles(self, camera, params):
        rng = np.random.default_rng(1)
        p1, p2 = unit_vector(rng), unit_vector(rng)
        dets = []
        for f in range(3):
            dets.append(make_detection(f, 5.0, 5.0, 0.95, p1, ObjectClass.VEHICLE))
            dets.append(make_detection(f, 40.0, 5.0, 0.95, p2, ObjectClass.VEHICLE))
        cs = solve_containers(dets, camera, params)
        assert len(cs.trajectories) == 2
        xs = sorted(round(float(t.points[0].location[0])) for t in cs.trajectories)
        assert xs == [5, 40]
        # no identity mixing: each trajectory stays on one side
        for t in cs.trajectories:
            spread = np.ptp([p.location[0] for p in t.points])
            assert spread < 1.0

    def test_dropout_interpolated(self, camera, params):
        cs = vehicle_track([0, 1, 2, 5, 6], camera, params)
        assert len(cs.trajectories) == 1
        traj = cs.trajectories[0]
        assert (traj.birth_frame, traj.death_frame) == (0, 6)
        frames = [p.frame for p in traj.points]
        assert frames == list(range(7))

    def test_score_margin_is_nonpositive(self, camera, params):
        cs = vehicle_track(range(10), camera, params)
        assert cs.score_margin_total <= 0.0

    def test_empty_input(self, camera, params):
        cs = solve_containers([], camera, params)
        assert cs.trajectories == () and cs.objective == 0.0

    def test_two_by_three_matches_exhaustive_path_sets(self, camera, params):
        # two vehicles over three frames: the flow objective equals the
        # brute-force optimum over every feasible chain decomposition
        from test_tracklets import brute_force_best_path_set

        rng = np.random.default_rng(9)
        p1, p2 = unit_vector(rng), unit_vector(rng)
        dets = []
        for f in range(3):
            dets.append(make_detection(f, 5.0 + 0.3 * f, 5.0, 0.93, p1,
                                       ObjectClass.VEHICLE))
            dets.append(make_detection(f, 40.0 - 0.3 * f, 5.0, 0.97, p2,
                                       ObjectClass.VEHICLE))
        cs = solve_containers(dets, camera, params)
        expected = -brute_force_best_path_set(dets, camera, params)
        assert cs.objective == pytest.approx(expected, abs=1e-9)
        assert len(cs.trajectories) == 2


V_CODE, O_CODE, C_CODE = (STATES.index(state) for state in VisibilityState)


def columns_graph(frames, rewards, src, dst, breakdown, entry=1.0, exits=1.0):
    """Hand-built visible-only graph as columns: one detection node per
    entry of ``frames``, with its reward, and the edges ``src -> dst`` with
    their ``breakdown`` rows (displacement, transition, visibility, action,
    total); every node can end a trajectory."""
    n, m = len(frames), len(src)
    rewards = np.asarray(rewards, dtype=float)
    nodes = node_columns(frame=frames, location=[[float(i), 0.0] for i in range(n)],
                         state=np.full(n, V_CODE), kind=np.full(n, NODE_KINDS.index("detection")),
                         object_class=np.full(n, OBJECT_CLASSES.index(ObjectClass.PERSON)),
                         reward=rewards, capacity=np.ones(n), detection_score=np.full(n, 0.9))
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    breakdown = np.asarray(breakdown, dtype=float).reshape(m, 5)
    edges = EdgeColumns(src, dst, breakdown[:, 4] - rewards[src], breakdown,
                        np.full(m, ACTIONS.index("walking")), np.zeros(m, dtype=bool),
                        np.full(m, -1))
    exit_costs = {i: exits - reward for i, reward in enumerate(rewards.tolist())}
    return TransitionGraph(nodes, edges, entry, exit_costs, ContainerSolution((), {}, 0, 0))


def tiny_graph(per_frame_rewards, entry=1.0, exits=1.0, edge_cost_value=0.1):
    """``columns_graph`` with one node per (frame, slot) and an edge of
    displacement ``edge_cost_value`` from every node to every node of the
    next frame."""
    frames = [f for f, rewards in enumerate(per_frame_rewards) for _ in rewards]
    pairs = [(u, v) for u, fu in enumerate(frames) for v, fv in enumerate(frames) if fv == fu + 1]
    return columns_graph(frames, [r for rewards in per_frame_rewards for r in rewards],
                         [u for u, _ in pairs], [v for _, v in pairs],
                         [[edge_cost_value, 0.0, 0.0, 0.0, edge_cost_value]] * len(pairs),
                         entry, exits)


@pytest.mark.parametrize("src, dst", [(0, 1), (2, 0)], ids=["same_frame", "backwards"])
def test_graph_edge_must_advance_time(src, dst):
    # nodes 0 and 1 in frame 0, node 2 in frame 1
    with pytest.raises(ValueError, match="advance time"):
        columns_graph([0, 0, 1], [0.5] * 3, [src], [dst], [[0.0] * 5])


# a long chain's parts: its total drifts from their sum by more than 1e-9,
# within a bound relative to the total
LARGE_PARTS = [80_000.0, 7_000.123456789, 299.87654321, 0.1]


@pytest.mark.parametrize("row, message", [
    ([math.nan, 0.0, 0.0, 0.0, math.nan], "finite"),
    ([0.0, -0.1, 0.0, 0.0, -0.1], ">= 0"),
    ([1.0, 0.5, 0.2, 0.3, 2.0 + 2e-9], "sum of the components"),
    ([*LARGE_PARTS, sum(LARGE_PARTS) + 3e-4], "sum of the components"),
], ids=["nan", "negative", "total_off", "large_total_off"])
def test_graph_rejects_bad_breakdown_row(row, message):
    # one bad row among good ones fails the whole graph
    good = [[0.1, 0.0, 0.0, 0.0, 0.1], [*LARGE_PARTS, sum(LARGE_PARTS) + 1.1e-9]]
    with pytest.raises(ValueError, match=message):
        columns_graph([0, 1, 2], [0.5] * 3, [0, 1], [1, 2], [good[0], row])
    columns_graph([0, 1, 2], [0.5] * 3, [0, 1], [1, 2], good)


class TestSolveObjectsDP:
    def test_matches_hand_enumeration_eight_paths(self, params):
        # 3 frames x 2 nodes; entry/exit priced so only the single best of the
        # eight full paths is profitable
        rewards = [[1.0, 1.2], [0.8, 1.5], [1.1, 0.9]]
        graph = tiny_graph(rewards, entry=1.5, exits=1.5, edge_cost_value=0.1)

        best = math.inf
        for a, b, c in itertools.product(range(2), range(2), range(2)):
            total = (1.5 + 1.5 + 2 * 0.1
                     - rewards[0][a] - rewards[1][b] - rewards[2][c])
            best = min(best, total)
        # shorter paths and the empty solution are all unprofitable here
        for f in range(3):
            for s in range(2):
                assert 3.0 - rewards[f][s] > 0
        for f in range(2):
            for s1 in range(2):
                for s2 in range(2):
                    assert 3.0 + 0.1 - rewards[f][s1] - rewards[f + 1][s2] > 0
        # after the best path consumes its nodes, only the complementary
        # path remains, and it is unprofitable
        assert 3.2 - (1.0 + 0.8 + 0.9) > 0

        solution = solve_objects(graph, params)
        assert len(solution.paths) == 1
        assert solution.objective == pytest.approx(-best, abs=1e-12)

    def test_empty_graph(self, params):
        graph = tiny_graph([])
        solution = solve_objects(graph, params)
        assert solution.objective == 0.0
        assert solution.trajectories == ()

    def test_unprofitable_graph_extracts_nothing(self, params):
        graph = tiny_graph([[0.1], [0.1]], entry=5.0, exits=5.0)
        solution = solve_objects(graph, params)
        assert solution.objective == 0.0

    def test_determinism(self, camera, oracle_params):
        dets = random_walk_instance(33, 2)
        g1 = pipeline_graph(dets, camera, oracle_params)
        g2 = pipeline_graph(dets, camera, oracle_params)
        s1 = solve_objects(g1, oracle_params)
        s2 = solve_objects(g2, oracle_params)
        assert s1.paths == s2.paths
        assert s1.objective == s2.objective


class TestOracleEquivalence:
    def test_single_object_instances(self, camera, oracle_params):
        nonempty = 0
        for seed in range(60):
            dets = random_walk_instance(seed, 1)
            graph = pipeline_graph(dets, camera, oracle_params)
            sol = solve_objects(graph, oracle_params)
            oracle = brute_force_oracle(graph)
            assert sol.objective == pytest.approx(oracle.objective, abs=1e-9)
            nonempty += sol.objective > 1e-9
        assert nonempty >= 20  # the comparison must not be vacuous

    def test_oracle_never_worse(self, camera, oracle_params):
        for seed in range(40):
            dets = random_walk_instance(7000 + seed, 2, agent_spacing=3.0)
            graph = pipeline_graph(dets, camera, oracle_params)
            sol = solve_objects(graph, oracle_params)
            oracle = brute_force_oracle(graph)
            assert oracle.objective >= sol.objective - 1e-9

    def test_limits_enforced(self, camera, oracle_params):
        # isolated weak detections stay leftovers, one graph node per frame
        rng = np.random.default_rng(0)
        dets = [make_detection(f, 1.0 + 10.0 * f, 1.0, 0.9, unit_vector(rng))
                for f in range(15)]
        graph = pipeline_graph(dets, camera, oracle_params)
        assert len({n.frame for n in graph.nodes}) == 15
        with pytest.raises(OracleLimitError):
            brute_force_oracle(graph)


def containment_setup(camera, params):
    """Person tracklets flank a containment window on a stationary vehicle.

    Each visible segment is long enough to pay the default trajectory budget
    on its own, so the visible-only baseline splits into two tracks.
    """
    rng = np.random.default_rng(3)
    vproto = unit_vector(rng)
    pproto = unit_vector(rng)
    dets = []
    enter_template = params.vehicle_fluent_templates["enter_vehicle"]
    exit_template = params.vehicle_fluent_templates["exit_vehicle"]
    idle_template = params.vehicle_fluent_templates["walking"]
    for f in range(55):
        if f in (19, 20, 21):
            fluent = enter_template
        elif f in (33, 34, 35):
            fluent = exit_template
        else:
            fluent = idle_template
        d = make_detection(f, 20.0, 10.0, 0.95, vproto, ObjectClass.VEHICLE)
        dets.append(type(d)(
            frame=d.frame, object_class=d.object_class, bbox=d.bbox,
            score=d.score, descriptor=d.descriptor, vehicle_fluent_feature=fluent,
        ))
    for f in range(0, 20):
        dets.append(make_detection(f, 15.5 + 0.15 * f, 10.0, 0.95, pproto))
    for f in range(35, 55):
        dets.append(make_detection(f, 20.5 + 0.15 * (f - 35), 10.0, 0.95, pproto))
    return dets


class TestContainment:
    def test_contained_nodes_one_per_container_frame(self, camera, params):
        cs = vehicle_track(range(10), camera, params)
        graph = build_graph([], [], [], cs, camera, params)
        contained = [n for n in graph.nodes if n.state is VisibilityState.CONTAINED]
        assert len(contained) == 10
        assert all(n.container_id == 0 for n in contained)

    def test_no_edge_into_distant_contained_node(self, camera, params):
        # visible tail 5 m from the container: tau_c = 3 blocks the vestibule
        rng = np.random.default_rng(4)
        proto = unit_vector(rng)
        dets = [make_detection(f, 20.0, 10.0, 0.95, proto, ObjectClass.VEHICLE)
                for f in range(12)]
        pp = unit_vector(rng)
        for f in range(0, 4):
            dets.append(make_detection(f, 25.0, 10.0, 0.95, pp))
        for f in range(8, 12):
            dets.append(make_detection(f, 25.0, 10.0, 0.95, pp))
        graph = pipeline_graph(dets, camera, params)
        contained_ids = {n.id for n in graph.nodes if n.state is VisibilityState.CONTAINED}
        for edge in graph.edges:
            if edge.dst in contained_ids:
                src = graph.nodes[edge.src]
                if src.state is VisibilityState.CONTAINED:
                    continue
                dst = graph.nodes[edge.dst]
                assert np.linalg.norm(src.location - dst.location) < params.tau_c

    def test_visible_only_mode_has_no_invisible_nodes(self, camera, params):
        dets = containment_setup(camera, params)
        graph = pipeline_graph(dets, camera, params, mode="visible_only")
        states = {n.state for n in graph.nodes}
        assert states <= {VisibilityState.VISIBLE}

    def test_containment_route_recovered(self, camera, params):
        dets = containment_setup(camera, params)
        result = joint_solve(dets, camera, params)
        person = [t for t in result.trajectories if t.object_class is ObjectClass.PERSON]
        assert len(person) == 1
        states = Counter(p.state for p in person[0].points)
        assert states[VisibilityState.CONTAINED] >= 8
        # contained points sit on the container
        for p in person[0].points:
            if p.state is VisibilityState.CONTAINED:
                assert p.container_id == 0
                np.testing.assert_allclose(p.location, [20.0, 10.0], atol=0.5)

    def test_visible_only_splits_track(self, camera, params):
        dets = containment_setup(camera, params)
        result = joint_solve(dets, camera, params, mode="visible_only")
        persons = [t for t in result.trajectories if t.object_class is ObjectClass.PERSON]
        assert len(persons) == 2  # the identity is lost without containment

    def test_capacity_respected(self, camera):
        params = default_parameters(max_contained=2)
        rng = np.random.default_rng(11)
        vproto = unit_vector(rng)
        dets = []
        enter = params.vehicle_fluent_templates["enter_vehicle"]
        exit_t = params.vehicle_fluent_templates["exit_vehicle"]
        idle = params.vehicle_fluent_templates["walking"]
        for f in range(55):
            fluent = enter if f in (19, 20, 21) else exit_t if f in (33, 34, 35) else idle
            d = make_detection(f, 20.0, 10.0, 0.95, vproto, ObjectClass.VEHICLE)
            dets.append(type(d)(frame=d.frame, object_class=d.object_class, bbox=d.bbox,
                                score=d.score, descriptor=d.descriptor,
                                vehicle_fluent_feature=fluent))
        for i in range(3):  # three candidates for two slots
            proto = unit_vector(rng)
            for f in range(0, 20):
                dets.append(make_detection(f, 15.5 + 0.15 * f, 9.0 + i, 0.95, proto))
            for f in range(35, 55):
                dets.append(make_detection(f, 20.5 + 0.15 * (f - 35), 9.0 + i, 0.95, proto))
        result = joint_solve(dets, camera, params)
        contained_per_frame = Counter()
        for t in result.trajectories:
            for p in t.points:
                if p.state is VisibilityState.CONTAINED:
                    contained_per_frame[p.frame] += 1
        assert contained_per_frame and max(contained_per_frame.values()) <= 2
        # edges carry no capacity: a container chain edge joins two contained
        # nodes, and every other edge touches a unit node
        graph = pipeline_graph(dets, camera, params)
        chain = [e for e in graph.edges if e.is_container_chain]
        assert chain and len(chain) < len(graph.edges)
        for e in graph.edges:
            ends = (graph.nodes[e.src], graph.nodes[e.dst])
            if e.is_container_chain:
                assert all(n.kind == "contained" and n.capacity == 2 for n in ends)
            else:
                assert min(n.capacity for n in ends) == 1


def per_fluent_supports(fluent, actions, params):
    """The scalar rule ``_fluent_gate`` applies to each fluent."""
    templates = params.vehicle_fluent_templates
    idle = templates.get("walking")
    candidates = [templates[a] for a in actions if templates.get(a) is not None]
    if fluent is None or idle is None or not candidates:
        return True
    return (min(vehicle_fluent_distance(fluent, c) for c in candidates)
            < vehicle_fluent_distance(fluent, idle))


@pytest.mark.parametrize("pair", [(VisibilityState.OCCLUDED, VisibilityState.CONTAINED),
                                  (VisibilityState.CONTAINED, VisibilityState.OCCLUDED)],
                         ids=["enter", "exit"])
def test_fluent_supports_match_per_fluent_rule(params, pair):
    # random fluents and fluents near each template, some absent: the
    # gate, reading the stacked distance table, keeps the per-fluent decision
    rng = np.random.default_rng(12)
    templates = list(params.vehicle_fluent_templates.values())
    fluents = [None if k % 7 == 0 else
               templates[k % len(templates)] + rng.normal(0, 0.05 * (k % 4), templates[0].shape)
               for k in range(300)]
    table = FluentDistances(fluents, params.vehicle_fluent_templates)
    support = solver._fluent_gate(table, LEGAL_ACTIONS[pair])
    expected = [per_fluent_supports(f, LEGAL_ACTIONS[pair], params) for f in fluents]
    assert support.tolist() == expected
    assert 0 < sum(expected) < len(expected) - 300 // 7
    no_idle = {name: t for name, t in params.vehicle_fluent_templates.items() if name != "walking"}
    assert solver._fluent_gate(FluentDistances(fluents, no_idle), LEGAL_ACTIONS[pair]).all()


class TestInvariants:
    def test_flow_and_legality_over_random_instances(self, camera, oracle_params):
        grammar = default_grammar()
        for seed in range(60):
            dets = random_walk_instance(500 + seed, int(1 + seed % 3), agent_spacing=5.0)
            graph = pipeline_graph(dets, camera, oracle_params)
            solution = solve_objects(graph, oracle_params)  # validates internally
            # unit capacity: no node id reused across paths
            seen = Counter()
            for path in solution.paths:
                for nid in path:
                    seen[nid] += 1
            for nid, count in seen.items():
                assert count <= graph.nodes[nid].capacity
            # legality of every decoded state sequence
            for traj in solution.trajectories:
                for a, b in zip(traj.points, traj.points[1:]):
                    assert grammar.legal_actions(a.state, b.state), (
                        f"illegal {a.state} -> {b.state}"
                    )

    def test_occlusion_bridged_one_identity(self, camera, params):
        # a 6-frame full occlusion between two strong tracklets: one track,
        # routed through occluded nodes, no identity switch
        rng = np.random.default_rng(8)
        proto = unit_vector(rng)
        dets = []
        for f in range(12):
            dets.append(make_detection(f, 1.0 + 0.3 * f, 5.0, 0.95, proto))
        for f in range(18, 30):
            dets.append(make_detection(f, 1.0 + 0.3 * f, 5.0, 0.95, proto))
        result = joint_solve(dets, camera, params)
        persons = [t for t in result.trajectories if t.object_class is ObjectClass.PERSON]
        assert len(persons) == 1
        states = [p.state for p in persons[0].points]
        assert VisibilityState.OCCLUDED in states
        assert states[0] is VisibilityState.VISIBLE
        assert states[-1] is VisibilityState.VISIBLE
        assert [p.frame for p in persons[0].points] == list(range(30))
        # the gap is one tail -> head super-edge, not a chain of nodes
        graph = pipeline_graph(dets, camera, params)
        assert not [n for n in graph.nodes if 12 <= n.frame <= 17]
        bridges = [e for e in graph.edges
                   if graph.nodes[e.src].kind == "tail" and graph.nodes[e.dst].kind == "head"]
        assert len(bridges) == 1
        stops = list(interior_stops(bridges[0].interior))
        assert [frame for frame, _, _, _ in stops] == list(range(12, 18))
        assert all(state is VisibilityState.OCCLUDED for _, _, state, _ in stops)

    def test_solved_bridge_decodes_to_per_frame_expansion(self, camera, params):
        # the solved trajectory crosses the 6-frame gap as the link's samples,
        # each occluded, each leaving by the action edge_cost picks for that
        # hop when the stops are expanded frame by frame
        proto = unit_vector(np.random.default_rng(8))
        dets = [make_detection(f, 1.0 + 0.3 * f + 0.002 * f * f, 5.0, 0.95, proto)
                for f in [*range(12), *range(18, 30)]]
        (person,) = joint_solve(dets, camera, params).solution.trajectories
        assert [p.frame for p in person.points] == list(range(30))
        (link,) = build_gap_links(generate_tracklets(dets, camera, params), params,
                                  camera.frame_rate)
        graph = pipeline_graph(dets, camera, params)
        head = next(n for n in graph.nodes if n.kind == "head" and n.frame == 18)
        expected = []
        for i, sample in enumerate(link.samples):
            stop = Stop(12 + i, sample, VisibilityState.OCCLUDED, gap_similarity=link.similarity)
            to_head = i == link.gap_frames - 1
            succ = head if to_head else Stop(13 + i, link.samples[i + 1],
                                             VisibilityState.OCCLUDED)
            expected.append((12 + i, sample, VisibilityState.OCCLUDED,
                             edge_cost(stop, succ, params, camera.frame_rate)[1]))
        decoded = [p for p in person.points if 12 <= p.frame <= 17]
        assert len(decoded) == len(expected) == 6
        for point, (frame, location, state, action) in zip(decoded, expected):
            assert point.frame == frame
            assert np.array_equal(point.location, location)
            assert point.state is state
            assert point.action == action
            assert point.container_id is None

    def test_spline_hop_over_speed_gate_drops_bridge(self, camera, params):
        # the chain of a 3-frame gap is tail (frame 4), three samples, head
        # (frame 8); shifting every point after hop ``hop`` by ``offset``
        # makes that hop, and no other, exceed the speed gate
        proto = unit_vector(np.random.default_rng(3))
        gate = LINK_GATE_SLACK * params.tau_s / camera.frame_rate
        before = Tracklet(0, ObjectClass.PERSON, 0, [[0.3 * f, 5.0] for f in range(5)], proto)

        def bridges(hop, offset):
            shift = [offset if f - 4 > hop else 0.0 for f in range(4, 9)]
            after = Tracklet(1, ObjectClass.PERSON, 8,
                             [[0.3 * f + shift[4], 5.0] for f in range(8, 13)], proto)
            samples = np.array([[0.3 * f + shift[f - 4], 5.0] for f in range(5, 8)])
            link = GapLink(0, 1, 3, 1.0, samples)
            graph = build_graph([], [before, after], [link],
                                ContainerSolution((), {}, 0.0, 0.0), camera, params)
            assert not [n for n in graph.nodes if 5 <= n.frame <= 7]
            return [e for e in graph.edges
                    if graph.nodes[e.src].tracklet_id == 0 and graph.nodes[e.dst].tracklet_id == 1]

        assert len(bridges(0, 0.0)) == 1
        assert gate > 0.3  # the unshifted hops stay under the gate
        for hop in range(4):
            assert bridges(hop, gate) == [], hop

    @pytest.mark.parametrize("shifted", [False, True])
    def test_spline_super_edge_matches_hop_by_hop_pricing(self, camera, params, shifted):
        # a 10-frame spline gap: the super-edge's energy, net cost and actions
        # equal an explicit edge_cost loop over every hop, gated hop by hop;
        # shifting the gap and the later tracklet by the gate drops the link
        grammar = default_grammar()
        proto = unit_vector(np.random.default_rng(5))
        gate = LINK_GATE_SLACK * params.tau_s / camera.frame_rate
        offset = gate if shifted else 0.0
        before = Tracklet(0, ObjectClass.PERSON, 0, [[0.3 * f, 5.0] for f in range(5)], proto,
                          scores=(0.9,) * 5)
        after = Tracklet(1, ObjectClass.PERSON, 15,
                         [[0.3 * f + offset, 5.0 + 0.01 * f] for f in range(15, 20)], proto,
                         scores=(0.8,) * 5)
        samples = np.array([[0.3 * f + offset, 5.0 + 0.01 * f] for f in range(5, 15)])
        link = GapLink(0, 1, 10, 0.85, samples)
        graph = build_graph([], [before, after], [link], ContainerSolution((), {}, 0.0, 0.0),
                            camera, params)
        tail = next(n for n in graph.nodes if n.kind == "tail" and n.tracklet_id == 0)
        head = next(n for n in graph.nodes if n.kind == "head" and n.tracklet_id == 1)

        reward = 2.0 + min_inertial_energy(params.transition_table, grammar,
                                           VisibilityState.OCCLUDED)
        stops = [Stop(f, loc, VisibilityState.OCCLUDED, gap_similarity=link.similarity)
                 for f, loc in zip(range(5, 15), samples)]
        chain = [tail, *stops, head]
        rewards = [tail.reward] + [reward] * len(stops)
        sums = [0.0] * 5
        net = 0.0
        actions = []
        gated = False
        for u, v, u_reward in zip(chain, chain[1:], rewards):
            if ground_distance(u.location, v.location) > gate:
                gated = True
                break
            step, action = edge_cost(u, v, params, camera.frame_rate)
            for k, value in enumerate((step.displacement, step.transition, step.visibility,
                                       step.action, step.total)):
                sums[k] += value
            net += step.total - u_reward
            actions.append(action)

        bridges = [e for e in graph.edges if e.src == tail.id and e.dst == head.id]
        assert gated == shifted
        if gated:
            assert bridges == []
            return
        (edge,) = bridges
        assert edge.breakdown == EnergyBreakdown(*sums)
        assert edge.net_cost == net
        assert edge.action == actions[0]
        stops = list(interior_stops(edge.interior))
        assert [a for _, _, _, a in stops] == actions[1:]
        assert [f for f, _, _, _ in stops] == list(range(5, 15))
        assert all(np.array_equal(loc, sample) for (_, loc, _, _), sample in zip(stops, samples))

    def test_containment_graph_edges_reprice_from_their_endpoints(self, suite_runs, params):
        # every edge of each suite graph with containers is the price of its
        # hops, read from the stops they join: a plain edge from its two
        # nodes, paying the container's fluent at its source frame when a
        # contained node is one end (a container chain edge, with two, pays
        # none, and the fluent would not change its price); a tracklet
        # super-edge hop by hop over the tracklet's scores and its
        # detections' pose features. Each kind of hop is chosen as one
        # block by best_actions, so this guards the evidence each block
        # reads
        camera = default_camera()
        kinds = Counter()
        sequences = 0
        for _, sim in suite_runs:
            graph = pipeline_graph(sim.detections, camera, params)
            if graph.containers.trajectories:
                sequences += 1
                self.assert_edges_reprice(graph, sim.detections, camera, params, kinds)
        assert sequences >= 6
        for pair in (("head", "tail"), ("tail", "vestibule"), ("vestibule", "contained"),
                     ("contained", "contained"), ("contained", "vestibule"),
                     ("vestibule", "head")):
            assert kinds[pair], pair

    @staticmethod
    def assert_edges_reprice(graph, dets, camera, params, kinds):
        others = [d for d in dets if d.object_class is not ObjectClass.VEHICLE]
        tracklets = {t.id: t for t in generate_tracklets(others, camera, params)}
        nodes, edges = graph.node_columns, graph.edge_columns
        for eid, (s, d) in enumerate(zip(edges.src.tolist(), edges.dst.tolist())):
            row, src, dst = edge_row(graph, eid), node_stop(graph, s), node_stop(graph, d)
            kinds[NODE_KINDS[nodes.kind[s]], NODE_KINDS[nodes.kind[d]]] += 1
            if row.interior is None:
                ends = [n for n in (s, d) if nodes.state[n] == C_CODE]
                fluent = (graph.containers.evidence[nodes.container_id.values[ends[0]]]
                          [src.frame][1] if ends else None)
                price = edge_cost(src, dst, params, camera.frame_rate, fluent)
                assert edges.is_container_chain[eid] == (len(ends) == 2)
                if edges.is_container_chain[eid]:
                    assert price == edge_cost(src, dst, params, camera.frame_rate)
                assert (row.breakdown, row.action) == price
                assert row.net_cost == row.breakdown.total - nodes.reward[s]
                continue
            if row.interior.state is VisibilityState.OCCLUDED:
                continue  # a spline bridge, priced in the test above
            t = tracklets[nodes.tracklet_id.values[s]]
            assert nodes.tracklet_id.values[d] == t.id and t.scores
            stops = [Stop(t.start_frame + i, location, VisibilityState.VISIBLE,
                          detection_score=t.scores[i],
                          pose_feature=others[t.detection_indices[i]].pose_feature)
                     for i, location in enumerate(t.positions)]
            sums = [0.0] * 5
            net = 0.0
            actions = []
            for u, v in zip(stops, stops[1:]):
                step, action = edge_cost(u, v, params, camera.frame_rate)
                for k, value in enumerate((step.displacement, step.transition,
                                           step.visibility, step.action, step.total)):
                    sums[k] += value
                net += step.total - log_odds(u.detection_score)
                actions.append(action)
            assert row.breakdown == EnergyBreakdown(*sums)
            assert row.net_cost == net
            assert row.action == actions[0]
            assert [a for _, _, _, a in interior_stops(row.interior)] == actions[1:]

    def test_suite_tracklet_edges_match_per_hop_reference(self, suite_runs, params):
        # every tracklet super-edge of the suite, in every mode, read from the
        # edge columns, is the per-hop edge_cost reference bit for bit; the
        # reference solves each stop's pose on its own instead of reading
        # cached energies. Every exit cost is the node_exit_cost reference
        camera = default_camera()
        for name, sim in suite_runs:
            vehicles = [d for d in sim.detections if d.object_class is ObjectClass.VEHICLE]
            others = [d for d in sim.detections if d.object_class is not ObjectClass.VEHICLE]
            containers = solve_containers(vehicles, camera, params)
            tracks = generate_tracklets(others, camera, params)
            links = build_gap_links(tracks, params, camera.frame_rate)
            for mode in SOLVE_MODES:
                graph = build_graph(others, tracks, links if mode == "full" else [], containers,
                                    camera, params, mode)
                nodes, edges = graph.node_columns, graph.edge_columns
                interiors = graph.interior_columns
                rows = [eid for eid, k in enumerate(edges.interior.tolist())
                        if k >= 0 and interiors.state[k] == V_CODE]
                assert len(rows) == sum(len(t.positions) > 1 for t in tracks), (name, mode)
                for eid in rows:
                    s, d = int(edges.src[eid]), int(edges.dst[eid])
                    t = tracks[nodes.tracklet_id.values[s]]
                    assert t.id == nodes.tracklet_id.values[s] == nodes.tracklet_id.values[d]
                    stops = [Stop(t.start_frame + i, location, V, detection_score=t.scores[i],
                                  pose_feature=others[t.detection_indices[i]].pose_feature)
                             for i, location in enumerate(t.positions)]
                    reference = per_hop_tracklet_edge(node_stop(graph, s), node_stop(graph, d),
                                                      stops, params, camera.frame_rate, mode)
                    assert_same_edge(edge_row(graph, eid), reference)
                exits = np.flatnonzero(np.isin(nodes.kind, [NODE_KINDS.index(kind) for kind
                                                            in ("tail", "single", "detection")]))
                assert sorted(graph.exit_costs) == exits.tolist()
                for nid in exits.tolist():
                    # prior_only strips the exit's likelihood terms
                    price = (0.0 if mode == "prior_only" else
                             node_exit_cost(node_stop(graph, nid), params).total)
                    assert same_bits(graph.exit_costs[nid],
                                     (params.solver_entry_exit_cost + price) - nodes.reward[nid])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_suite_bridges_match_per_hop_reference(self, params, seed):
        # every gap link of the suite in full mode is either absent, exactly
        # when one hop of tail, samples, head exceeds the gate, or one bridge
        # equal bit for bit to the per-hop edge_cost chain: tail -> first
        # sample, each occluded hop, last sample -> head, summed hop by hop;
        # the bridges come in link order, their actions as two runs
        camera = default_camera()
        O = VisibilityState.OCCLUDED
        occluded = _GraphBuilder(camera, params, "full").occluded_reward()
        bridged = dropped = 0
        for script, noise in standard_suite():
            noise = dataclasses.replace(noise, seed=noise.seed + seed)
            detections = simulate(script, noise, camera, params).detections
            vehicles = [d for d in detections if d.object_class is ObjectClass.VEHICLE]
            others = [d for d in detections if d.object_class is not ObjectClass.VEHICLE]
            tracks = generate_tracklets(others, camera, params)
            links = build_gap_links(tracks, params, camera.frame_rate)
            graph = build_graph(others, tracks, links, solve_containers(vehicles, camera, params),
                                camera, params)
            nodes, edges = graph.node_columns, graph.edge_columns
            ends = {}
            for nid in np.flatnonzero(nodes.tracklet_id.mask).tolist():
                ends.setdefault(nodes.tracklet_id.values[nid], []).append(nid)
            tails = {tid: ids[-1] for tid, ids in ends.items()}
            heads = {tid: ids[0] for tid, ids in ends.items()}
            bridges = [eid for eid, k in enumerate(edges.interior.tolist())
                       if k >= 0 and graph.interior_columns.state[k] == O_CODE]
            expected = []
            for link in sorted(links, key=lambda l: (l.before_id, l.after_id)):
                ids = tails[link.before_id], heads[link.after_id]
                tail, head = (node_stop(graph, nid) for nid in ids)
                cls = OBJECT_CLASSES[nodes.object_class[ids[0]]]
                gate = LINK_GATE_SLACK * params.speed_bound(cls) / camera.frame_rate
                stops = [Stop(tail.frame + 1 + i, sample, O, gap_similarity=link.similarity)
                         for i, sample in enumerate(link.samples)]
                chain = [tail, *stops, head]
                if any(ground_distance(u.location, v.location) > gate
                       for u, v in zip(chain, chain[1:])):
                    dropped += 1
                    continue
                expected.append((ids, per_hop_edge(chain,
                                                   [nodes.reward[ids[0]]] + [occluded] * len(stops),
                                                   O, params, camera.frame_rate)))
            assert len(bridges) == len(expected), script.name
            for eid, (ids, reference) in zip(bridges, expected):
                edge = edge_row(graph, eid)
                assert (edges.src[eid], edges.dst[eid]) == ids
                assert_same_breakdown(edge, reference)
                actions = [action for action, _ in reference.interior.actions]
                runs = ((actions[-1], 1),)
                if len(actions) > 1:
                    assert len(set(actions[:-1])) == 1
                    runs = ((actions[0], len(actions) - 1), *runs)
                assert edge.interior.actions == runs
                assert edge.interior.first_frame == reference.interior.first_frame
                assert same_bits(edge.interior.locations, reference.interior.locations)
            bridged += len(bridges)
        assert bridged > 1000 and dropped > 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_tracklet_edge_keeps_min_and_tie_rule(self, camera, params, data):
        # with a second legal visible -> visible action, each hop takes the
        # cheaper action, and a tie within 1e-15 goes to the first one: the
        # hops of a tracklet and a visible-adjacency hop from its tail to a
        # leftover detection one frame on, both priced by best_actions
        second = "open_vehicle_door"
        p_walk = params.transition_table.rows[(V, "walking")][V]
        # equal, within 1e-15 (one double up, so "second" is cheaper by less
        # than the margin), and apart
        p_second = data.draw(st.sampled_from([p_walk, math.nextafter(p_walk, 1.0), 1.0, 0.5]))
        rows = dict(params.transition_table.rows)
        rows[(V, second)] = {V: p_second, VisibilityState.OCCLUDED: 1.0 - p_second} \
            if p_second < 1.0 else {V: 1.0}
        table_params = default_parameters(transition_table=ActionStateTable(rows=rows))
        mode = data.draw(st.sampled_from(SOLVE_MODES))
        energy = st.sampled_from([0.0, 1.0, 2.5])
        stops = []
        for i in range(data.draw(st.integers(2, 8))):
            score = data.draw(st.floats(0.0, 1.0))
            posed = data.draw(st.booleans())
            stops.append(Stop(
                10 + i, np.array([0.3 * i + data.draw(st.floats(-0.2, 0.2)), 1.0]), V,
                detection_score=score, pose_feature=np.zeros(9) if posed else None,
                pose_energies={"walking": data.draw(energy), second: data.draw(energy)}
                if posed else None))
        # the stops are one tracklet over detections whose pose energies
        # under both actions are the drawn ones; the leftover detection,
        # 0.1 m on from the tail, has no pose
        energies = np.array([[math.nan] * 2 if s.pose_energies is None else
                             [s.pose_energies["walking"], s.pose_energies[second]]
                             for s in stops] + [[math.nan] * 2])
        detections = [Detection(s.frame, ObjectClass.PERSON, (1.0, 1.0, 0.5, 1.7),
                                s.detection_score, np.eye(8)[0], pose_feature=s.pose_feature)
                      for s in stops]
        x = stops[-1].location[0] + 0.1
        detections.append(Detection(stops[-1].frame + 1, ObjectClass.PERSON,
                                    (x - 0.25, 1.0 - 1.7, 0.5, 1.7), 0.9, np.eye(8)[0]))
        tracklet = Tracklet(0, ObjectClass.PERSON, stops[0].frame,
                            np.array([s.location for s in stops]), np.eye(8)[0],
                            scores=tuple(s.detection_score for s in stops),
                            detection_indices=tuple(range(len(stops))))
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(LEGAL_ACTIONS, (V, V), ("walking", second))
            patch.setattr(solver, "VISIBLE_STOP_ACTIONS", ("walking", second))
            patch.setattr(solver, "_price_poses", lambda features, params: energies)
            graph = build_graph(detections, [tracklet], [], ContainerSolution((), {}, 0.0, 0.0),
                                camera, table_params, mode)
            (eid,) = np.flatnonzero(graph.edge_columns.interior >= 0)
            tail_id = int(graph.edge_columns.dst[eid])
            head, tail = (node_stop(graph, nid) for nid in
                          (int(graph.edge_columns.src[eid]), tail_id))
            assert head.pose_energies == stops[0].pose_energies
            reference = per_hop_tracklet_edge(head, tail, stops, table_params,
                                              camera.frame_rate, mode)
            (hop,) = np.flatnonzero(graph.edge_columns.src == tail_id)
            leftover = node_stop(graph, int(graph.edge_columns.dst[hop]))
            assert leftover.frame == tail.frame + 1 and leftover.pose_feature is None
            step, action = edge_cost(tail, leftover, table_params, camera.frame_rate)
        assert_same_edge(edge_row(graph, eid), reference)
        if mode == "prior_only":
            step = EnergyBreakdown.build(step.displacement, step.transition, 0.0, 0.0)
        assert_same_breakdown(edge_row(graph, hop), EdgeRow(
            step, action, step.total - graph.node_columns.reward[tail_id], None))


def decode_path_reference(graph, path, edge_ids, object_id):
    """The trajectory along ``path``, whose hops are the edges ``edge_ids``,
    read point by point from the graph's record views, every point checked:
    the loop reference of ``solver._decode_paths``."""
    edges = [graph.edges[eid] for eid in edge_ids]
    points = []
    for nid, action, interior in zip(path, [e.action for e in edges] + ["walking"],
                                     [e.interior for e in edges] + [None]):
        node = graph.nodes[nid]
        contained = node.state is VisibilityState.CONTAINED
        points.append(TrajectoryPoint(node.frame, node.location, node.state, action,
                                      node.container_id if contained else None))
        if interior is not None:
            points.extend(TrajectoryPoint(*stop) for stop in interior_stops(interior))
    return Trajectory(object_id, graph.nodes[path[0]].object_class, tuple(points))


class TestJointSolve:
    def test_track_path_builds_no_records(self, suite_runs, params, monkeypatch):
        # joint_solve reads the graph's columns only: it builds no node or
        # edge record, one checked breakdown, the solution's totals, and no
        # checked trajectory point: every point is built from checked columns
        def refuse(*args, **kwargs):
            raise AssertionError("a graph record was built")

        def refuse_point(self):
            raise AssertionError("a trajectory point was checked")

        checked = []
        check = EnergyBreakdown.__post_init__
        monkeypatch.setattr(solver, "GraphNode", refuse)
        monkeypatch.setattr(solver, "GraphEdge", refuse)
        monkeypatch.setattr(TrajectoryPoint, "__post_init__", refuse_point)
        monkeypatch.setattr(EnergyBreakdown, "__post_init__",
                            lambda self: (checked.append(self), check(self)))
        sim = dict(suite_runs)["enter_drive_exit"]
        result = joint_solve(sim.detections, default_camera(), params)
        assert any(p.state is VisibilityState.CONTAINED
                   for t in result.solution.trajectories for p in t.points)
        assert len(checked) == 1
        monkeypatch.undo()
        with pytest.raises(AssertionError, match="record"):
            monkeypatch.setattr(solver, "GraphEdge", refuse)
            pipeline_graph(sim.detections, default_camera(), params).edges

    def test_decode_matches_the_point_by_point_reference(self, suite_runs, params,
                                                          monkeypatch):
        # every suite sequence's paths, decoded in one pass, are the
        # trajectories the loop reference builds, field for field and bit
        # for bit, numbered after the containers
        calls = []
        decode = solver._decode_paths
        monkeypatch.setattr(solver, "_decode_paths",
                            lambda *args: calls.append(args) or decode(*args))
        for _, sim in suite_runs:
            joint_solve(sim.detections, default_camera(), params)
        assert len(calls) == len(suite_runs)

        def fields(t):
            return (t.object_id, t.object_class,
                    [(p.frame, p.state, p.action, p.container_id) for p in t.points])

        for graph, paths, edge_paths, first_id in calls:
            assert first_id == len(graph.containers.trajectories)
            got = decode(graph, paths, edge_paths, first_id)
            assert len(got) == len(paths)
            for i, (path, edge_ids, traj) in enumerate(zip(paths, edge_paths, got)):
                expected = decode_path_reference(graph, path, edge_ids, first_id + i)
                assert fields(traj) == fields(expected)
                assert same_bits([p.location for p in traj.points],
                                 [p.location for p in expected.points])

    def test_empty_scene(self, camera, params):
        result = joint_solve([], camera, params)
        assert result.trajectories == ()
        assert result.frame_parses == ()

    def test_parse_graph_states_match_trajectories(self, camera, params):
        # each frame parse holds, in object-id order, every trajectory's own
        # point at that frame, not a copy
        dets = containment_setup(camera, params)
        result = joint_solve(dets, camera, params)
        assert any(p.state is VisibilityState.CONTAINED
                   for t in result.trajectories for p in t.points)
        by_frame = {}
        for parse in result.frame_parses:
            ids = [object_id for object_id, _ in parse.entries]
            assert ids == sorted(set(ids))
            by_frame[parse.frame] = dict(parse.entries)
        assert sum(map(len, by_frame.values())) == sum(len(t.points)
                                                      for t in result.trajectories)
        for traj in result.trajectories:
            for point in traj.points:
                assert by_frame[point.frame][traj.object_id] is point

    def test_summary_fields(self, camera, params):
        dets = containment_setup(camera, params)
        result = joint_solve(dets, camera, params)
        for key in ("objective", "container_objective", "container_score_margin",
                    "num_trajectories", "energy_totals", "mode"):
            assert key in result.summary
