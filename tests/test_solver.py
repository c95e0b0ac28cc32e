import itertools
import math
from collections import Counter

import numpy as np
import pytest

from fluenttrack.core import CameraModel, ObjectClass, Tracklet, VisibilityState
from fluenttrack.grammar import default_grammar, default_parameters
from fluenttrack.solver import (
    ContainerSolution,
    GraphEdge,
    GraphNode,
    OracleLimitError,
    OracleLimits,
    TransitionGraph,
    brute_force_oracle,
    build_graph,
    joint_solve,
    pipeline_graph,
    solve_containers,
    solve_objects,
)
from fluenttrack.tracklets import LINK_GATE_SLACK, GapLink

from conftest import make_detection, random_walk_instance, unit_vector


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


def tiny_graph(per_frame_rewards, entry=1.0, exits=1.0, edge_cost_value=0.1):
    """Hand-built visible-only graph: one node per (frame, slot), dense edges."""
    from fluenttrack.energy import EnergyBreakdown

    nodes = []
    for f, rewards in enumerate(per_frame_rewards):
        for r in rewards:
            nodes.append(GraphNode(
                id=len(nodes), frame=f, location=np.array([float(len(nodes)), 0.0]),
                state=VisibilityState.VISIBLE, kind="detection",
                object_class=ObjectClass.PERSON, reward=r, capacity=1,
                detection_score=0.9,
            ))
    edges = []
    for u in nodes:
        for v in nodes:
            if v.frame == u.frame + 1:
                bd = EnergyBreakdown.build(edge_cost_value, 0.0, 0.0, 0.0)
                edges.append(GraphEdge(
                    id=len(edges), src=u.id, dst=v.id, dt=1, breakdown=bd,
                    action="walking", net_cost=bd.total - u.reward, capacity=1,
                ))
    exit_costs = {n.id: exits - n.reward for n in nodes}
    return TransitionGraph(
        nodes=tuple(nodes), edges=tuple(edges), entry_cost=entry,
        exit_costs=exit_costs, containers=ContainerSolution((), {}, 0, 0),
        frame_rate=10.0,
    )


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
            oracle = brute_force_oracle(graph, oracle_params)
            assert sol.objective == pytest.approx(oracle.objective, abs=1e-9)
            nonempty += sol.objective > 1e-9
        assert nonempty >= 20  # the comparison must not be vacuous

    def test_oracle_never_worse(self, camera, oracle_params):
        for seed in range(40):
            dets = random_walk_instance(7000 + seed, 2, agent_spacing=3.0)
            graph = pipeline_graph(dets, camera, oracle_params)
            sol = solve_objects(graph, oracle_params)
            oracle = brute_force_oracle(graph, oracle_params)
            assert oracle.objective >= sol.objective - 1e-9

    def test_limits_enforced(self, camera, oracle_params):
        # isolated weak detections stay leftovers, one graph node per frame
        rng = np.random.default_rng(0)
        dets = [make_detection(f, 1.0 + 10.0 * f, 1.0, 0.9, unit_vector(rng))
                for f in range(15)]
        graph = pipeline_graph(dets, camera, oracle_params)
        assert len({n.frame for n in graph.nodes}) == 15
        with pytest.raises(OracleLimitError):
            brute_force_oracle(graph, oracle_params, OracleLimits(max_frames=10))


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
        interior = bridges[0].interior
        assert [frame for frame, _, _, _ in interior] == list(range(12, 18))
        assert all(state is VisibilityState.OCCLUDED for _, _, state, _ in interior)

    def test_spline_hop_over_speed_gate_drops_bridge(self, camera, params):
        # only the tail -> first-stop hop of the spline exceeds the speed gate
        # when the gap and the later tracklet are shifted by ``offset``
        proto = unit_vector(np.random.default_rng(3))
        gate = LINK_GATE_SLACK * params.tau_s / camera.frame_rate
        before = Tracklet(0, ObjectClass.PERSON, 0, [[0.3 * f, 5.0] for f in range(5)], proto)

        def bridges(offset):
            after = Tracklet(1, ObjectClass.PERSON, 8,
                             [[0.3 * f + offset, 5.0] for f in range(8, 13)], proto)
            path = tuple((f, np.array([0.3 * f + offset, 5.0])) for f in range(5, 8))
            link = GapLink(0, 1, 3, 1.0, path)
            graph = build_graph([], [before, after], [link],
                                ContainerSolution((), {}, 0.0, 0.0), camera, params)
            assert not [n for n in graph.nodes if 5 <= n.frame <= 7]
            return [e for e in graph.edges
                    if graph.nodes[e.src].tracklet_id == 0 and graph.nodes[e.dst].tracklet_id == 1]

        assert len(bridges(0.0)) == 1
        assert gate > 0.3  # the unshifted hops stay under the gate
        assert bridges(gate) == []


class TestJointSolve:
    def test_empty_scene(self, camera, params):
        result = joint_solve([], camera, params)
        assert result.trajectories == ()
        assert result.frame_parses == ()

    def test_parse_graph_states_match_trajectories(self, camera, params):
        dets = containment_setup(camera, params)
        result = joint_solve(dets, camera, params)
        by_frame = {p.frame: p for p in result.frame_parses}
        for traj in result.trajectories:
            for point in traj.points:
                entry = [e for e in by_frame[point.frame].entries
                         if e.object_id == traj.object_id]
                assert len(entry) == 1
                assert entry[0].state is point.state
                assert entry[0].action == point.action
                assert entry[0].container_id == point.container_id

    def test_summary_fields(self, camera, params):
        dets = containment_setup(camera, params)
        result = joint_solve(dets, camera, params)
        for key in ("objective", "container_objective", "container_score_margin",
                    "num_trajectories", "energy_totals", "mode"):
            assert key in result.summary
