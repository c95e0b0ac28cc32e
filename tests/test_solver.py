import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluenttrack.core import CameraModel, ObjectClass, Tracklet, VisibilityState, ground_distance
from fluenttrack.energy import EnergyBreakdown, edge_cost, log_odds
from fluenttrack.grammar import (
    LEGAL_ACTIONS,
    ActionStateTable,
    default_grammar,
    default_parameters,
    min_inertial_energy,
)
from fluenttrack.simulator import default_camera, scenario_by_name, simulate
from fluenttrack.solver import (
    SOLVE_MODES,
    ContainerSolution,
    GraphEdge,
    GraphNode,
    OracleLimitError,
    TransitionGraph,
    _GraphBuilder,
    brute_force_oracle,
    build_graph,
    joint_solve,
    pipeline_graph,
    solve_containers,
    solve_objects,
)
from fluenttrack.tracklets import LINK_GATE_SLACK, GapLink, build_gap_links, generate_tracklets

from conftest import Stop, make_detection, random_walk_instance, same_bits, unit_vector


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


def per_hop_tracklet_edge(builder, head, tail, stops):
    """The super-edge over a tracklet's ``stops`` (its endpoints included)
    as the per-hop reference builds it: one ``builder.price`` (``edge_cost``,
    stripped in ``prior_only``) per hop from ``head`` over the interior
    stops to ``tail``, the sums added by ``chain_edge``."""
    chain = [head, *stops[1:-1], tail]
    hops = [(builder.price(u, v), log_odds(u.detection_score), 1)
            for u, v in zip(chain, chain[1:])]
    builder.chain_edge(head, tail, hops, np.array([s.location for s in stops[1:-1]]), V)
    return builder.edges[-1]


def assert_same_edge(edge, reference):
    """Bit-equal energies, net cost and stops; the reference's one-stop
    action runs merged into maximal runs."""
    fields = ("displacement", "transition", "visibility", "action", "total")
    assert same_bits([getattr(edge.breakdown, f) for f in fields],
                     [getattr(reference.breakdown, f) for f in fields])
    assert same_bits(edge.net_cost, reference.net_cost)
    assert edge.action == reference.action
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
                    id=len(edges), src=u.id, dst=v.id, breakdown=bd,
                    action="walking", net_cost=bd.total - u.reward,
                ))
    exit_costs = {n.id: exits - n.reward for n in nodes}
    return TransitionGraph(
        nodes=tuple(nodes), edges=tuple(edges), entry_cost=entry,
        exit_costs=exit_costs, containers=ContainerSolution((), {}, 0, 0),
    )


@pytest.mark.parametrize("src, dst", [(0, 1), (2, 0)], ids=["same_frame", "backwards"])
def test_graph_edge_must_advance_time(src, dst):
    graph = tiny_graph([[0.5, 0.5], [0.5]])  # nodes 0 and 1 in frame 0, node 2 in frame 1
    edge = GraphEdge(id=0, src=src, dst=dst, breakdown=EnergyBreakdown.build(0.0, 0.0, 0.0, 0.0),
                     action="walking", net_cost=0.0)
    with pytest.raises(ValueError, match="advance time"):
        TransitionGraph(nodes=graph.nodes, edges=(edge,), entry_cost=graph.entry_cost,
                        exit_costs=graph.exit_costs, containers=graph.containers)


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
        stops = list(bridges[0].interior.stops())
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
        # only the tail -> first-stop hop of the spline exceeds the speed gate
        # when the gap and the later tracklet are shifted by ``offset``
        proto = unit_vector(np.random.default_rng(3))
        gate = LINK_GATE_SLACK * params.tau_s / camera.frame_rate
        before = Tracklet(0, ObjectClass.PERSON, 0, [[0.3 * f, 5.0] for f in range(5)], proto)

        def bridges(offset):
            after = Tracklet(1, ObjectClass.PERSON, 8,
                             [[0.3 * f + offset, 5.0] for f in range(8, 13)], proto)
            samples = np.array([[0.3 * f + offset, 5.0] for f in range(5, 8)])
            link = GapLink(0, 1, 3, 1.0, samples)
            graph = build_graph([], [before, after], [link],
                                ContainerSolution((), {}, 0.0, 0.0), camera, params)
            assert not [n for n in graph.nodes if 5 <= n.frame <= 7]
            return [e for e in graph.edges
                    if graph.nodes[e.src].tracklet_id == 0 and graph.nodes[e.dst].tracklet_id == 1]

        assert len(bridges(0.0)) == 1
        assert gate > 0.3  # the unshifted hops stay under the gate
        assert bridges(gate) == []

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
        stops = list(edge.interior.stops())
        assert [a for _, _, _, a in stops] == actions[1:]
        assert [f for f, _, _, _ in stops] == list(range(5, 15))
        assert all(np.array_equal(loc, sample) for (_, loc, _, _), sample in zip(stops, samples))

    def test_containment_graph_edges_reprice_from_their_endpoints(self, camera, params):
        # every edge of a graph with containers is the price of its hops, read
        # from the stops they join: a plain edge from its two nodes, paying
        # the container's fluent at its source frame when a contained node is
        # one end (a container chain edge, with two, pays none, and the fluent
        # would not change its price); a tracklet super-edge hop by hop over
        # the tracklet's scores and its detections' pose features
        script, noise = scenario_by_name("enter_drive_exit")
        dets = simulate(script, noise, camera, params).detections
        graph = pipeline_graph(dets, camera, params)
        others = [d for d in dets if d.object_class is not ObjectClass.VEHICLE]
        tracklets = {t.id: t for t in generate_tracklets(others, camera, params)}
        kinds = Counter()
        for edge in graph.edges:
            src, dst = graph.nodes[edge.src], graph.nodes[edge.dst]
            kinds[src.kind, dst.kind] += 1
            if edge.interior is None:
                ends = [n for n in (src, dst) if n.state is VisibilityState.CONTAINED]
                fluent = (graph.containers.evidence[ends[0].container_id][src.frame][1]
                          if ends else None)
                price = edge_cost(src, dst, params, camera.frame_rate, fluent)
                assert edge.is_container_chain == (len(ends) == 2)
                if edge.is_container_chain:
                    assert price == edge_cost(src, dst, params, camera.frame_rate)
                assert (edge.breakdown, edge.action) == price
                assert edge.net_cost == edge.breakdown.total - src.reward
                continue
            if edge.interior.state is VisibilityState.OCCLUDED:
                continue  # a spline bridge, priced in the test above
            t = tracklets[src.tracklet_id]
            assert dst.tracklet_id == t.id and t.scores
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
            assert edge.breakdown == EnergyBreakdown(*sums)
            assert edge.net_cost == net
            assert edge.action == actions[0]
            assert [a for _, _, _, a in edge.interior.stops()] == actions[1:]
        for pair in (("head", "tail"), ("tail", "vestibule"), ("vestibule", "contained"),
                     ("contained", "contained"), ("contained", "vestibule"),
                     ("vestibule", "head")):
            assert kinds[pair], pair


    def test_suite_tracklet_edges_match_per_hop_reference(self, suite_runs, params):
        # every tracklet super-edge of the suite, in every mode, is the per-hop
        # edge_cost + chain_edge reference bit for bit; the reference solves
        # each stop's pose on its own instead of reading cached energies
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
                edges = [e for e in graph.edges
                         if e.interior is not None and e.interior.state is V]
                assert len(edges) == sum(len(t.positions) > 1 for t in tracks), (name, mode)
                for edge in edges:
                    head, tail = graph.nodes[edge.src], graph.nodes[edge.dst]
                    t = tracks[head.tracklet_id]
                    assert t.id == head.tracklet_id == tail.tracklet_id
                    stops = [Stop(t.start_frame + i, location, V, detection_score=t.scores[i],
                                  pose_feature=others[t.detection_indices[i]].pose_feature)
                             for i, location in enumerate(t.positions)]
                    reference = per_hop_tracklet_edge(_GraphBuilder(camera, params, mode),
                                                      head, tail, stops)
                    assert_same_edge(edge, reference)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_tracklet_edge_keeps_min_and_tie_rule(self, camera, params, data):
        # with a second legal visible -> visible action, each hop takes the
        # cheaper action, and a tie within 1e-15 goes to the first one
        second = "open_vehicle_door"
        p_walk = params.transition_table.rows[(V, "walking")][V]
        p_second = data.draw(st.sampled_from([p_walk, 1.0, 0.5]))
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
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(LEGAL_ACTIONS, (V, V), ("walking", second))
            builder = _GraphBuilder(camera, table_params, mode)
            head, tail = (builder.nodes[builder.add_node(
                frame=stop.frame, location=stop.location, state=V, kind=kind,
                object_class=ObjectClass.PERSON, reward=log_odds(stop.detection_score),
                capacity=1, detection_score=stop.detection_score,
                pose_feature=stop.pose_feature, pose_energies=stop.pose_energies)]
                for stop, kind in ((stops[0], "head"), (stops[-1], "tail")))
            builder.contract(head, tail, np.array([s.location for s in stops]),
                             [s.detection_score for s in stops],
                             [s.pose_energies for s in stops])
            reference = per_hop_tracklet_edge(_GraphBuilder(camera, table_params, mode),
                                              head, tail, stops)
        assert_same_edge(builder.edges[-1], reference)

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
