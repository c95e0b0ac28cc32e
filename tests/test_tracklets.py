import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluenttrack import tracklets as tk
from fluenttrack.core import ObjectClass, Tracklet, ground_distance
from fluenttrack.energy import log_odds
from fluenttrack.grammar import default_parameters

from conftest import make_detection, unit_vector


@pytest.fixture(scope="module")
def params():
    return default_parameters()


@pytest.fixture(scope="module")
def camera():
    from fluenttrack.core import CameraModel
    return CameraModel(np.eye(3), 10.0)


def brute_force_best_path_set(detections, camera, params):
    """Exhaustive optimum of the tracklet objective on tiny instances.

    Enumerates every partition of the detections into frame-increasing,
    gate-respecting chains and returns the minimum total cost (entry + exit
    per chain, plus link costs, minus detection rewards).
    """
    from fluenttrack.core import project_to_ground

    n = len(detections)
    positions = [project_to_ground(camera, d.bbox) for d in detections]
    rewards = [log_odds(d.score, params) for d in detections]

    def link_ok(i, j):
        di, dj = detections[i], detections[j]
        if dj.frame != di.frame + 1 or di.object_class is not dj.object_class:
            return False
        bound = params.speed_bound(di.object_class) / camera.frame_rate
        return ground_distance(positions[i], positions[j]) <= tk.LINK_GATE_SLACK * bound

    def link_cost(i, j):
        bound = params.speed_bound(detections[i].object_class) / camera.frame_rate
        return ground_distance(positions[i], positions[j]) / bound

    best = [0.0]

    def extend(remaining, total):
        best[0] = min(best[0], total)
        if not remaining:
            return
        # each chain starts at the lowest remaining index to avoid duplicates
        first = min(remaining)
        chains = [[first]]
        while chains:
            chain = chains.pop()
            cost = (2 * params.entry_exit_cost
                    - sum(rewards[i] for i in chain)
                    + sum(link_cost(a, b) for a, b in zip(chain, chain[1:])))
            extend(remaining - set(chain), total + cost)
            for j in sorted(remaining - set(chain)):
                if link_ok(chain[-1], j):
                    chains.append(chain + [j])
        extend(remaining - {first}, total)  # leave `first` unexplained

    extend(frozenset(range(n)), 0.0)
    return best[0]


def solver_objective(detections, camera, params):
    """Total flow cost of the production flow on the consecutive-frame links."""
    if not detections:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: (detections[i].frame, i))
    dets = [detections[i] for i in order]
    from fluenttrack.core import project_to_ground

    positions = [project_to_ground(camera, d.bbox) for d in dets]
    links = []
    for i, d in enumerate(dets):
        for j in range(i + 1, len(dets)):
            if dets[j].frame != d.frame + 1:
                continue
            if dets[j].object_class is not d.object_class:
                continue
            bound = params.speed_bound(d.object_class) / camera.frame_rate
            dist = ground_distance(positions[i], positions[j])
            if dist <= tk.LINK_GATE_SLACK * bound:
                links.append((i, j, dist / bound))
    rewards = [log_odds(d.score, params) for d in dets]
    _, cost = tk.min_cost_paths(rewards, links, params.entry_exit_cost,
                                params.entry_exit_cost)
    return cost


class TestGenerateTracklets:
    def test_single_confident_detection_survives(self, camera, params):
        # reward log(0.99/0.01) = 4.595 beats entry + exit = 4.0
        out = tk.generate_tracklets([make_detection(0, 5, 5, score=0.99)], camera, params)
        assert len(out) == 1
        assert len(out[0].positions) == 1

    def test_weak_single_detection_dropped(self, camera, params):
        out = tk.generate_tracklets([make_detection(0, 5, 5, score=0.5)], camera, params)
        assert out == []

    def test_adjacent_pair_links(self, camera, params):
        proto = unit_vector(np.random.default_rng(0))
        dets = [make_detection(0, 5.0, 5.0, 0.95, proto),
                make_detection(1, 5.1, 5.0, 0.95, proto)]
        out = tk.generate_tracklets(dets, camera, params)
        assert len(out) == 1
        assert (out[0].start_frame, out[0].end_frame) == (0, 1)

    def test_empty_input(self, camera, params):
        assert tk.generate_tracklets([], camera, params) == []

    def test_no_detection_reused(self, camera, params):
        rng = np.random.default_rng(21)
        for trial in range(50):
            dets = []
            for a in range(2):
                proto = unit_vector(rng)
                x = rng.uniform(0, 3) + 4 * a
                for f in range(6):
                    if rng.random() < 0.2:
                        continue
                    dets.append(make_detection(
                        f, x + 0.1 * f, 5.0, float(rng.uniform(0.7, 0.99)), proto))
            out = tk.generate_tracklets(dets, camera, params)
            used = [i for t in out for i in t.detection_indices]
            assert len(used) == len(set(used))
            for t in out:
                assert len(t.positions) == t.end_frame - t.start_frame + 1
                assert np.isfinite(t.positions).all()

    def test_matches_brute_force_on_small_instances(self, camera, params):
        rng = np.random.default_rng(5)
        checked = 0
        for trial in range(80):
            n = int(rng.integers(1, 7))
            dets = []
            proto = unit_vector(rng)
            for k in range(n):
                dets.append(make_detection(
                    int(rng.integers(0, 4)),
                    float(rng.uniform(0, 2.5)),
                    float(rng.uniform(0, 2.5)),
                    float(rng.uniform(0.4, 0.99)),
                    proto,
                ))
            expected = brute_force_best_path_set(dets, camera, params)
            actual = solver_objective(dets, camera, params)
            assert actual == pytest.approx(expected, abs=1e-9)
            checked += 1
        assert checked == 80


def random_flow_instance(rng, num_frames, per_frame):
    """Items on a frame grid (in frame order) with log-odds-sized rewards and
    random links between consecutive frames; returns (rewards, links)."""
    frames = [f for f in range(num_frames) for _ in range(per_frame)]
    rewards = [float(rng.uniform(-1.0, 5.0)) for _ in frames]
    links = [(i, j, float(rng.uniform(0.0, 2.0)))
             for i in range(len(frames)) for j in range(len(frames))
             if frames[j] == frames[i] + 1 and rng.random() < 0.5]
    return rewards, links


def network_simplex_cost(rewards, links, entry=2.0, exit=2.0, scale=10**9):
    """Optimal cost of the free-amount flow by networkx's network simplex,
    with costs scaled to integers; returns (cost, rounding bound)."""
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    n = len(rewards)
    graph.add_node("source", demand=-n)
    graph.add_node("sink", demand=n)
    graph.add_edge("source", "sink", capacity=n, weight=0)  # units left unpushed

    def weight(cost):
        return int(round(cost * scale))

    for item, reward in enumerate(rewards):
        graph.add_edge("source", ("in", item), capacity=1, weight=weight(entry))
        graph.add_edge(("in", item), ("out", item), capacity=1, weight=weight(-reward))
        graph.add_edge(("out", item), "sink", capacity=1, weight=weight(exit))
    for a, b, cost in links:
        graph.add_edge(("out", a), ("in", b), capacity=1, weight=weight(cost))
    cost, _ = nx.network_simplex(graph)
    return cost / scale, 0.5 * graph.number_of_edges() / scale


@st.composite
def forward_link_instances(draw):
    """Any rewards and any forward links (a < b, at most one per pair)."""
    n = draw(st.integers(min_value=0, max_value=9))
    rewards = draw(st.lists(st.floats(-2.0, 6.0), min_size=n, max_size=n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    links = [(a, b, draw(st.floats(0.0, 3.0))) for a, b in sorted(chosen)]
    entry = draw(st.floats(0.0, 3.0))
    exit = draw(st.floats(0.0, 3.0))
    return rewards, links, entry, exit


class TestMinCostFlowTracker:
    """``min_cost_paths``, the flow behind tracklets and containers."""

    def test_disjoint_instances_solve_as_their_union(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ra, la = random_flow_instance(rng, int(rng.integers(2, 6)), 3)
            rb, lb = random_flow_instance(rng, int(rng.integers(2, 6)), 3)
            paths_a, cost_a = tk.min_cost_paths(ra, la, 2.0, 2.0)
            paths_b, cost_b = tk.min_cost_paths(rb, lb, 2.0, 2.0)
            k = len(ra)
            paths, cost = tk.min_cost_paths(
                ra + rb, la + [(i + k, j + k, c) for i, j, c in lb], 2.0, 2.0)
            union = [tuple(p) for p in paths_a] + [tuple(i + k for i in p) for p in paths_b]
            assert sorted(tuple(p) for p in paths) == sorted(union)
            assert cost == pytest.approx(cost_a + cost_b, abs=1e-12)

    def test_components_follow_links(self):
        links = [(1, 2, 0.1), (2, 4, 0.1)]
        components = tk._components(5, links)
        assert components == [([0], []), ([1, 2, 4], [(1, 2, 0.1), (2, 4, 0.1)]), ([3], [])]

    @pytest.mark.parametrize("link", [(2, 1, 0.5), (1, 1, 0.5), (-1, 1, 0.5), (1, 3, 0.5)])
    def test_link_not_forward_rejected(self, link):
        with pytest.raises(ValueError):
            tk.min_cost_paths([3.0, 3.0, 3.0], [link], 1.0, 1.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(forward_link_instances())
    def test_random_forward_links_match_network_simplex(self, instance):
        rewards, links, entry, exit = instance
        paths, cost = tk.min_cost_paths(rewards, links, entry, exit)
        expected, rounding = network_simplex_cost(rewards, links, entry, exit)
        assert abs(cost - expected) <= rounding + 1e-9
        used = [i for path in paths for i in path]
        assert len(used) == len(set(used))
        linked = {(a, b) for a, b, _ in links}
        for path in paths:
            assert all((a, b) in linked for a, b in zip(path, path[1:]))

    def test_suite_flows_match_network_simplex(self, monkeypatch):
        from fluenttrack.simulator import default_camera, simulate, standard_suite
        from fluenttrack.solver import solve_containers

        instances = []
        solve = tk.min_cost_paths

        def recording_min_cost_paths(rewards, links, entry_cost, exit_cost):
            result = solve(rewards, links, entry_cost, exit_cost)
            instances.append((rewards, links, entry_cost, exit_cost, result[1]))
            return result

        monkeypatch.setattr(tk, "min_cost_paths", recording_min_cost_paths)
        camera = default_camera()
        params = default_parameters()
        suite = standard_suite()
        assert len(suite) == 20
        with_vehicles = 0
        for script, noise in suite:
            sim = simulate(script, noise, camera, params)
            vehicles = [d for d in sim.detections if d.object_class is ObjectClass.VEHICLE]
            persons = [d for d in sim.detections if d.object_class is not ObjectClass.VEHICLE]
            solve_containers(vehicles, camera, params)
            tk.generate_tracklets(persons, camera, params)
            with_vehicles += bool(vehicles)
        assert with_vehicles > 0
        assert len(instances) == 20 + with_vehicles
        for rewards, links, entry, exit, cost in instances:
            expected, rounding = network_simplex_cost(rewards, links, entry, exit)
            assert abs(cost - expected) <= rounding + 1e-9


def line_tracklet(tid, start_frame, points, descriptor=None):
    desc = descriptor if descriptor is not None else np.eye(8)[0]
    return Tracklet(id=tid, object_class=ObjectClass.PERSON, start_frame=start_frame,
                    positions=np.asarray(points, dtype=float), pooled_descriptor=desc)


class TestGapCandidates:
    def test_all_gates_pass(self, params):
        t1 = line_tracklet(0, 0, [[0, 0], [0.2, 0]])
        t2 = line_tracklet(1, 12, [[1.0, 0], [1.2, 0]])
        cands = tk.find_gap_candidates([t1, t2], params, frame_rate=10.0)
        assert [(a.id, b.id, similarity) for a, b, similarity in cands] == [(0, 1, 1.0)]

    def test_similarity_below_threshold_rejected(self, params):
        d1 = np.eye(8)[0]
        # cosine 0.79 < 0.8
        d2 = 0.79 * d1 + math.sqrt(1 - 0.79**2) * np.eye(8)[1]
        t1 = line_tracklet(0, 0, [[0, 0]], d1)
        t2 = line_tracklet(1, 10, [[0.5, 0]], d2)
        assert tk.find_gap_candidates([t1, t2], params, 10.0) == []

    def test_adjacent_tracklets_rejected(self, params):
        t1 = line_tracklet(0, 0, [[0, 0], [0.2, 0]])
        t2 = line_tracklet(1, 2, [[0.4, 0]])  # gap of zero missing frames
        assert tk.find_gap_candidates([t1, t2], params, 10.0) == []

    def test_speed_gate(self, params):
        t1 = line_tracklet(0, 0, [[0, 0]])
        t2 = line_tracklet(1, 6, [[10.0, 0]])  # 10 m over 0.6 s = 16.7 m/s > 8
        assert tk.find_gap_candidates([t1, t2], params, 10.0) == []

    def test_gap_beyond_max_rejected(self, params):
        t1 = line_tracklet(0, 0, [[0, 0]])
        t2 = line_tracklet(1, params.max_gap_frames + 2, [[0.5, 0]])
        assert tk.find_gap_candidates([t1, t2], params, 10.0) == []


class TestBsplineFill:
    def test_collinear_constant_speed(self):
        t1 = line_tracklet(0, 0, [[i * 0.5, 1.0] for i in range(5)])
        t2 = line_tracklet(1, 9, [[(9 + i) * 0.5, 1.0] for i in range(5)])
        path = tk.bspline_fill(t1, t2)
        assert [f for f, _ in path] == [5, 6, 7, 8]
        for f, p in path:
            np.testing.assert_allclose(p, [f * 0.5, 1.0], atol=1e-6)
        steps = [np.linalg.norm(path[i + 1][1] - path[i][1]) for i in range(len(path) - 1)]
        assert max(steps) - min(steps) < 1e-6

    def test_single_gap_frame(self):
        t1 = line_tracklet(0, 0, [[0, 0], [1, 0]])
        t2 = line_tracklet(1, 3, [[3, 0], [4, 0]])
        path = tk.bspline_fill(t1, t2)
        assert len(path) == 1
        assert path[0][0] == 2
        np.testing.assert_allclose(path[0][1], [2.0, 0.0], atol=1e-6)

    def test_degenerate_same_point(self):
        t1 = line_tracklet(0, 0, [[2.0, 3.0]] * 3)
        t2 = line_tracklet(1, 8, [[2.0, 3.0]] * 3)
        path = tk.bspline_fill(t1, t2)
        for _, p in path:
            np.testing.assert_allclose(p, [2.0, 3.0], atol=1e-6)

    def test_boundary_interpolation_random(self):
        # on collinear constant-speed data the interpolating spline IS the
        # line, so every virtual sample (including the ones abutting the
        # tracklet endpoints) must land exactly on it
        rng = np.random.default_rng(17)
        for _ in range(200):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            gap = int(rng.integers(1, 8))
            origin = rng.uniform(-10, 10, size=2)
            velocity = rng.uniform(-0.4, 0.4, size=2)
            frames1 = np.arange(n1)
            frames2 = np.arange(n1 + gap, n1 + gap + n2)
            t1 = line_tracklet(0, 0, origin + np.outer(frames1, velocity))
            t2 = line_tracklet(1, n1 + gap, origin + np.outer(frames2, velocity))
            path = tk.bspline_fill(t1, t2)
            assert len(path) == gap
            assert path[0][0] == t1.end_frame + 1
            assert path[-1][0] == t2.start_frame - 1
            for f, p in path:
                np.testing.assert_allclose(p, origin + f * velocity, atol=1e-6)

    def test_empty_tracklet_rejected(self):
        t1 = line_tracklet(0, 0, [[0, 0]])
        t2 = line_tracklet(1, 1, [[1, 0]])  # adjacent: no gap
        with pytest.raises(ValueError):
            tk.bspline_fill(t1, t2)


class TestGapLink:
    def test_virtual_path_must_cover_gap(self):
        with pytest.raises(ValueError):
            tk.GapLink(before_id=0, after_id=1, gap_frames=3, similarity=0.9,
                       virtual_path=((5, np.zeros(2)),))

    def test_build_gap_links(self, params):
        t1 = line_tracklet(0, 0, [[i * 0.3, 0] for i in range(5)])
        t2 = line_tracklet(1, 8, [[(8 + i) * 0.3, 0] for i in range(5)])
        links = tk.build_gap_links([t1, t2], params, 10.0)
        assert len(links) == 1
        assert links[0].gap_frames == 3
        assert len(links[0].virtual_path) == 3
