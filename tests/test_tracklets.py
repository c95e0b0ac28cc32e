import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import make_interp_spline

from fluenttrack import tracklets as tk
from fluenttrack.core import ObjectClass, Tracklet, ground_distance, ground_points
from fluenttrack.grammar import default_parameters
from fluenttrack.simulator import default_camera
from fluenttrack.solver import CONTAINER_LINK_GAP

import ssp_reference
from conftest import make_detection, same_bits, unit_vector
from core_reference import descriptor_similarity, project_to_ground
from energy_reference import log_odds


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
    n = len(detections)
    positions = [project_to_ground(camera, d.bbox) for d in detections]
    rewards = [log_odds(d.score) for d in detections]

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
            cost = (2 * tk.ENTRY_EXIT_COST
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
    rewards = [log_odds(d.score) for d in dets]
    _, cost = tk.min_cost_paths(rewards, links, tk.ENTRY_EXIT_COST, tk.ENTRY_EXIT_COST)
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


@st.composite
def forward_link_dags(draw):
    """Forward-link DAGs made of up to three blocks of 0-6 items that no
    link joins, so an instance may be empty, one item, or disconnected;
    links are in random order, and rewards and costs take any sign."""
    sizes = draw(st.lists(st.integers(0, 6), max_size=3))
    rewards, links, offset = [], [], 0
    for size in sizes:
        rewards += draw(st.lists(st.floats(-3.0, 6.0), min_size=size, max_size=size))
        pairs = [(offset + a, offset + b) for a in range(size) for b in range(a + 1, size)]
        if pairs:
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
            links += [(a, b, draw(st.floats(-1.0, 3.0))) for a, b in chosen]
        offset += size
    entry = draw(st.floats(0.0, 3.0))
    exit = draw(st.floats(0.0, 3.0))
    return rewards, draw(st.permutations(links)), entry, exit


def exact_cost(paths, rewards, links, entry, exit):
    """The cost of ``paths``, rounded once from its exact sum; of parallel
    links the cheapest counts."""
    cheapest = {}
    for a, b, cost in links:
        cheapest[a, b] = min(cost, cheapest.get((a, b), cost))
    total = Fraction(0)
    for path in paths:
        total += Fraction(entry) + Fraction(exit) - sum(Fraction(rewards[i]) for i in path)
        total += sum(Fraction(cheapest[a, b]) for a, b in zip(path, path[1:]))
    return float(total)


def assert_valid_cover(paths, num_items, links):
    """Paths are disjoint, increasing, follow links, and come in order of
    their first item."""
    used = [i for path in paths for i in path]
    assert len(used) == len(set(used))
    assert all(0 <= i < num_items for i in used)
    linked = {(a, b) for a, b, _ in links}
    for path in paths:
        assert all((a, b) in linked for a, b in zip(path, path[1:]))
        assert path == sorted(path)
    assert [path[0] for path in paths] == sorted(path[0] for path in paths)


def linker_flows(sims, camera, params):
    """Every ``min_cost_paths`` call the container and tracklet flows of
    ``sims`` make, as (rewards, links, entry, exit)."""
    from fluenttrack.solver import solve_containers

    flows = []
    solve = tk.min_cost_paths

    def recording(rewards, links, entry_cost, exit_cost):
        flows.append((rewards, links, entry_cost, exit_cost))
        return solve(rewards, links, entry_cost, exit_cost)

    tk.min_cost_paths = recording
    try:
        for sim in sims:
            vehicles = [d for d in sim.detections if d.object_class is ObjectClass.VEHICLE]
            others = [d for d in sim.detections if d.object_class is not ObjectClass.VEHICLE]
            solve_containers(vehicles, camera, params)
            tk.generate_tracklets(others, camera, params)
    finally:
        tk.min_cost_paths = solve
    return flows


def per_pair_links(dets, positions, frame_rate, params, max_gap):
    """The links of ``detection_links`` by one ``ground_distance`` per
    candidate pair, in (i, frames apart, j) order: its scalar reference."""
    by_frame = {}
    for i, det in enumerate(dets):
        by_frame.setdefault(det.frame, []).append(i)
    links = []
    for i, det in enumerate(dets):
        for dt in range(1, max_gap + 1):
            for j in by_frame.get(det.frame + dt, ()):
                if dets[j].object_class is not det.object_class:
                    continue
                bound = params.speed_bound(det.object_class) * dt / frame_rate
                dist = ground_distance(positions[i], positions[j])
                if dist > tk.LINK_GATE_SLACK * bound:
                    continue
                links.append((i, j, dist / bound + tk.SKIP_FRAME_PENALTY * (dt - 1)))
    return links


def link_bits(links):
    """Links with each cost as its exact bits."""
    return [(i, j, float.hex(cost)) for i, j, cost in links]


CLASSES = (ObjectClass.PERSON, ObjectClass.SUITCASE, ObjectClass.VEHICLE)


@st.composite
def link_instances(draw):
    """Frame-sorted detections of mixed classes over frames with gaps (some
    frames empty, some crowded), their ground points, and a largest gap."""
    frames = sorted(draw(st.lists(st.integers(0, 15), max_size=40)))
    classes = draw(st.lists(st.sampled_from(CLASSES), min_size=len(frames),
                            max_size=len(frames)))
    positions = draw(hnp.arrays(float, (len(frames), 2), elements=st.floats(-3.0, 3.0)))
    dets = [make_detection(f, 0.0, 0.0, object_class=c) for f, c in zip(frames, classes)]
    return dets, positions, draw(st.integers(1, 5))


class TestDetectionLinks:
    """``detection_links`` keeps the links, order and bits of the per-pair loop."""

    def test_suite_links_match_per_pair_loop(self, suite_runs, params):
        camera = default_camera()
        total = 0
        for name, sim in suite_runs:
            others = [d for d in sim.detections if d.object_class is not ObjectClass.VEHICLE]
            order = sorted(range(len(others)), key=lambda i: (others[i].frame, i))
            vehicles = sorted((d for d in sim.detections
                               if d.object_class is ObjectClass.VEHICLE),
                              key=lambda d: (d.frame, d.bbox))
            # tracklets link one frame apart, containers up to CONTAINER_LINK_GAP
            for dets, max_gap in (([others[i] for i in order], 1),
                                  ([others[i] for i in order], CONTAINER_LINK_GAP),
                                  (vehicles, CONTAINER_LINK_GAP)):
                positions = ground_points(camera, [d.bbox for d in dets])
                links = tk.detection_links(dets, positions, camera.frame_rate, params, max_gap)
                expected = per_pair_links(dets, positions, camera.frame_rate, params, max_gap)
                assert link_bits(links) == link_bits(expected), name
                total += len(links)
        assert total > 10000

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(link_instances())
    def test_random_links_match_per_pair_loop(self, instance):
        dets, positions, max_gap = instance
        params = default_parameters()
        links = tk.detection_links(dets, positions, 10.0, params, max_gap)
        assert link_bits(links) == link_bits(per_pair_links(dets, positions, 10.0, params,
                                                            max_gap))

    def test_unsorted_detections_rejected(self, params):
        dets = [make_detection(2, 0.0, 0.0), make_detection(1, 0.0, 0.0)]
        with pytest.raises(ValueError, match="sorted by frame"):
            tk.detection_links(dets, np.zeros((2, 2)), 10.0, params, 1)


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
        components = ssp_reference.components(5, links)
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
        assert_valid_cover(paths, len(rewards), links)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(forward_link_dags())
    @example(([], [], 2.0, 2.0))  # no item
    @example(([3.0], [], 1.0, 1.0))  # one item
    @example(([5.0, 5.0, 5.0, 5.0], [(2, 3, 0.5), (0, 1, 0.5)], 1.0, 1.0))  # two components
    def test_random_dags_match_ssp_and_network_simplex(self, instance):
        rewards, links, entry, exit = instance
        paths, cost = tk.min_cost_paths(rewards, links, entry, exit)
        assert_valid_cover(paths, len(rewards), links)
        assert cost == exact_cost(paths, rewards, links, entry, exit)
        _, ssp_cost = ssp_reference.ssp_min_cost_paths(rewards, links, entry, exit)
        assert cost == pytest.approx(ssp_cost, rel=1e-12, abs=1e-12)
        expected, rounding = network_simplex_cost(rewards, links, entry, exit)
        assert abs(cost - expected) <= rounding + 1e-9

    def test_parallel_links_take_the_cheapest(self):
        links = [(0, 1, 3.0), (0, 1, 0.5), (0, 1, 1.0)]
        assert tk.min_cost_paths([5.0, 5.0], links, 2.0, 2.0) == ([[0, 1]], -5.5)

    # (rewards, links, SSP's paths, the engine's paths); every case ties two
    # optima. Observed with SciPy 1.17.1, which says that the choice between
    # optima may vary with its version.
    TIES = {
        "two successors": ([5.0] * 3, [(0, 1, 0.5), (0, 2, 0.5)],
                           [[0, 1], [2]], [[0, 2], [1]]),
        "three successors": ([5.0] * 4, [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5)],
                             [[0, 1], [2], [3]], [[0, 3], [1], [2]]),
        "two predecessors": ([5.0] * 3, [(0, 2, 0.5), (1, 2, 0.5)],
                             [[0, 2], [1]], [[0, 2], [1]]),
        "crossing pairs": ([5.0] * 4, [(0, 2, 0.5), (0, 3, 0.5), (1, 2, 0.5), (1, 3, 0.5)],
                           [[0, 2], [1, 3]], [[0, 3], [1, 2]]),
        "zero-cost pair": ([2.0, 2.0], [(0, 1, 0.0)], [], [[0, 1]]),
        "zero-cost item": ([4.0], [], [], []),
    }

    @pytest.mark.parametrize("case", sorted(TIES))
    def test_tie_rule(self, case):
        """Of equal successors the engine takes the last, where SSP took the
        first; of equal predecessors both take the first; a path of cost
        exactly 0 may be taken, where SSP never takes one."""
        rewards, links, ssp_paths, paths = self.TIES[case]
        ssp = ssp_reference.ssp_min_cost_paths(rewards, links, 2.0, 2.0)
        engine = tk.min_cost_paths(rewards, links, 2.0, 2.0)
        assert (sorted(ssp[0]), engine[0]) == (ssp_paths, paths)
        assert engine[1] == ssp[1]

    def test_suite_flows_match_ssp(self, suite_runs):
        """Every linker flow of the suite at benchmark seeds 0 and 1 has
        SSP's path set and SSP's cost up to rounding; the cost is the exactly
        rounded sum of the paths' terms."""
        from fluenttrack.simulator import default_camera, simulate, standard_suite

        camera, params = default_camera(), default_parameters()
        seed_1 = [simulate(script, dataclasses.replace(noise, seed=noise.seed + 1), camera,
                           params) for script, noise in standard_suite()]
        flows = linker_flows([sim for _, sim in suite_runs] + seed_1, camera, params)
        assert len(flows) == 80  # a tracklet flow per sequence and seed, 40 container flows
        for rewards, links, entry, exit in flows:
            paths, cost = tk.min_cost_paths(rewards, links, entry, exit)
            ssp_paths, ssp_cost = ssp_reference.ssp_min_cost_paths(rewards, links, entry, exit)
            assert paths == sorted(ssp_paths)
            assert cost == pytest.approx(ssp_cost, rel=1e-14)
            assert cost == exact_cost(paths, rewards, links, entry, exit)

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


def per_pair_compatible(tracklets, params):
    """``compatible_pairs`` by one ``descriptor_similarity`` per pair: its
    scalar reference, as (before id, after id, similarity bits)."""
    by_id = sorted(tracklets, key=lambda t: t.id)
    pairs = []
    for before in by_id:
        for after in by_id:
            if before.object_class is not after.object_class:
                continue
            if tk.gap_between(before, after) < 1:
                continue
            similarity = descriptor_similarity(before.pooled_descriptor,
                                               after.pooled_descriptor)
            if similarity >= params.tau_sigma:
                pairs.append((before.id, after.id, float.hex(similarity)))
    return pairs


def pair_bits(pairs):
    return [(before.id, after.id, float.hex(similarity)) for before, after, similarity in pairs]


@st.composite
def random_tracklets(draw):
    """Tracklets of mixed classes, lengths and starts, in shuffled id order,
    with descriptors near a few shared prototypes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    prototypes = [unit_vector(rng) for _ in range(3)]
    count = draw(st.integers(0, 25))
    ids = draw(st.permutations(range(count)))
    out = []
    for tid in ids:
        d = prototypes[int(rng.integers(3))] + rng.normal(scale=0.3, size=8)
        out.append(Tracklet(id=tid, object_class=CLASSES[int(rng.integers(3))],
                            start_frame=int(rng.integers(0, 40)),
                            positions=np.zeros((int(rng.integers(1, 6)), 2)),
                            pooled_descriptor=d / np.linalg.norm(d)))
    return out


class TestCompatiblePairs:
    """The stacked similarities keep the pairs, order and bits of the
    per-pair ``descriptor_similarity`` loop."""

    def test_suite_pairs_match_per_pair_loop(self, suite_runs, params):
        camera = default_camera()
        total = 0
        for name, sim in suite_runs:
            others = [d for d in sim.detections if d.object_class is not ObjectClass.VEHICLE]
            tracklets = tk.generate_tracklets(others, camera, params)
            pairs = tk.compatible_pairs(tracklets, params)
            assert pair_bits(pairs) == per_pair_compatible(tracklets, params), name
            total += len(pairs)
        assert total > 1000

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(random_tracklets(), st.sampled_from([0.05, 0.5, 0.8]))
    def test_random_pairs_match_per_pair_loop(self, tracklets, tau_sigma):
        params = default_parameters(tau_sigma=tau_sigma)
        assert (pair_bits(tk.compatible_pairs(tracklets, params))
                == per_pair_compatible(tracklets, params))

    def test_more_pairs_than_one_block(self, monkeypatch):
        from fluenttrack import core

        rng = np.random.default_rng(3)
        tracklets = [line_tracklet(tid, 3 * tid, [[0.0, 0.0]], unit_vector(rng))
                     for tid in range(20)]
        params = default_parameters(tau_sigma=0.05)
        monkeypatch.setattr(core, "GATHER_BLOCK", 7)
        assert (pair_bits(tk.compatible_pairs(tracklets, params))
                == per_pair_compatible(tracklets, params))


def per_pair_gap_candidates(tracklets, params, frame_rate):
    """``find_gap_candidates`` as a per-pair loop with the scalar distance."""
    out = []
    for before, after, similarity in tk.compatible_pairs(tracklets, params):
        if tk.gap_between(before, after) > params.max_gap_frames:
            continue
        dt = after.start_frame - before.end_frame
        speed = ground_distance(before.positions[-1], after.positions[0]) / (dt / frame_rate)
        if speed > tk.LINK_GATE_SLACK * params.speed_bound(before.object_class):
            continue
        out.append((before.id, after.id, similarity))
    return out


class TestGapCandidates:
    def test_suite_candidates_match_per_pair_loop(self, suite_runs, params):
        # the stacked distances keep the candidates, their order and their
        # similarities' bits; some pairs fail each gate
        camera = default_camera()
        kept = gated = 0
        for name, sim in suite_runs:
            others = [d for d in sim.detections if d.object_class is not ObjectClass.VEHICLE]
            tracklets = tk.generate_tracklets(others, camera, params)
            found = [(a.id, b.id, s) for a, b, s in
                     tk.find_gap_candidates(tracklets, params, camera.frame_rate)]
            expected = per_pair_gap_candidates(tracklets, params, camera.frame_rate)
            assert found == expected, name
            kept += len(found)
            gated += sum(tk.gap_between(a, b) <= params.max_gap_frames
                         for a, b, _ in tk.compatible_pairs(tracklets, params)) - len(found)
        assert kept > 1000 and gated > 10

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


def spline_fill(before, after):
    """The (frame, ground point) samples ``bspline_fill`` gives one pair."""
    (samples,) = tk.bspline_fill([(before, after)])
    frames = range(before.end_frame + 1, after.start_frame)
    assert samples.shape == (len(frames), 2)
    return list(zip(frames, samples))


def per_pair_spline(before, after):
    """One spline per pair on absolute frames, up to five points a side."""
    n_before = min(5, len(before.positions))
    n_after = min(5, len(after.positions))
    frames = [*range(before.end_frame - n_before + 1, before.end_frame + 1),
              *range(after.start_frame, after.start_frame + n_after)]
    points = np.vstack([before.positions[-n_before:], after.positions[:n_after]])
    spline = make_interp_spline(np.array(frames, dtype=float), points,
                                k=min(3, len(frames) - 1))
    return spline(np.arange(before.end_frame + 1, after.start_frame, dtype=float))


@st.composite
def gap_pairs(draw):
    """Up to eight tracklet pairs of mixed shapes: 1-7 points a side, gaps
    of 1..max_gap_frames, fragments starting anywhere up to frame 10**6."""
    coordinate = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    shape = st.tuples(st.integers(1, 7), st.integers(1, 7),
                      st.integers(1, default_parameters().max_gap_frames))
    shapes = draw(st.lists(shape, min_size=1, max_size=3))  # so that shapes repeat
    pairs = []
    for tid in range(0, 2 * draw(st.integers(1, 8)), 2):
        n_before, n_after, gap = draw(st.sampled_from(shapes))
        start = draw(st.integers(0, 10 ** 6))
        points = draw(st.lists(st.tuples(coordinate, coordinate),
                               min_size=n_before + n_after, max_size=n_before + n_after))
        pairs.append((line_tracklet(tid, start, points[:n_before]),
                      line_tracklet(tid + 1, start + n_before + gap, points[n_before:])))
    return pairs


class TestBsplineFill:
    def test_collinear_constant_speed(self):
        t1 = line_tracklet(0, 0, [[i * 0.5, 1.0] for i in range(5)])
        t2 = line_tracklet(1, 9, [[(9 + i) * 0.5, 1.0] for i in range(5)])
        path = spline_fill(t1, t2)
        assert [f for f, _ in path] == [5, 6, 7, 8]
        for f, p in path:
            np.testing.assert_allclose(p, [f * 0.5, 1.0], atol=1e-6)
        steps = [np.linalg.norm(path[i + 1][1] - path[i][1]) for i in range(len(path) - 1)]
        assert max(steps) - min(steps) < 1e-6

    def test_single_gap_frame(self):
        t1 = line_tracklet(0, 0, [[0, 0], [1, 0]])
        t2 = line_tracklet(1, 3, [[3, 0], [4, 0]])
        path = spline_fill(t1, t2)
        assert len(path) == 1
        assert path[0][0] == 2
        np.testing.assert_allclose(path[0][1], [2.0, 0.0], atol=1e-6)

    def test_degenerate_same_point(self):
        t1 = line_tracklet(0, 0, [[2.0, 3.0]] * 3)
        t2 = line_tracklet(1, 8, [[2.0, 3.0]] * 3)
        path = spline_fill(t1, t2)
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
            path = spline_fill(t1, t2)
            assert len(path) == gap
            assert path[0][0] == t1.end_frame + 1
            assert path[-1][0] == t2.start_frame - 1
            for f, p in path:
                np.testing.assert_allclose(p, origin + f * velocity, atol=1e-6)

    def test_empty_tracklet_rejected(self):
        t1 = line_tracklet(0, 0, [[0, 0]])
        t2 = line_tracklet(1, 1, [[1, 0]])  # adjacent: no gap
        with pytest.raises(ValueError):
            tk.bspline_fill([(t1, t2)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gap_pairs())
    def test_batched_fill_matches_per_pair_spline(self, pairs):
        # pairs of one shape share a spline solve on frames relative to the
        # earlier fragment's end; that must be the per-pair spline, bit for bit
        filled = tk.bspline_fill(pairs)
        assert len(filled) == len(pairs)
        for (before, after), samples in zip(pairs, filled):
            assert np.array_equal(samples, per_pair_spline(before, after))


    def test_every_shape_matches_per_pair_spline(self):
        # every shape bspline_fill factors once, up to five points a side and
        # every gap up to max_gap_frames, on random data: the per-pair spline
        # on absolute frames, bit for bit; each factor serves its own gap only
        rng = np.random.default_rng(24)
        pairs = []
        for n_before in range(1, 6):
            for n_after in range(1, 6):
                for gap in range(1, default_parameters().max_gap_frames + 1):
                    start = int(rng.integers(0, 10 ** 6))
                    points = rng.uniform(-100.0, 100.0, size=(n_before + n_after, 2))
                    pairs.append((line_tracklet(0, start, points[:n_before]),
                                  line_tracklet(1, start + n_before + gap, points[n_before:])))
        for (before, after), samples in zip(pairs, tk.bspline_fill(pairs)):
            assert same_bits(samples, per_pair_spline(before, after))


class TestGapLink:
    def test_virtual_path_must_cover_gap(self):
        with pytest.raises(ValueError):
            tk.GapLink(before_id=0, after_id=1, gap_frames=3, similarity=0.9,
                       samples=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            tk.GapLink(before_id=0, after_id=1, gap_frames=3, similarity=0.9,
                       samples=np.zeros(6))

    def test_build_gap_links(self, params):
        t1 = line_tracklet(0, 0, [[i * 0.3, 0] for i in range(5)])
        t2 = line_tracklet(1, 8, [[(8 + i) * 0.3, 0] for i in range(5)])
        links = tk.build_gap_links([t1, t2], params, 10.0)
        assert len(links) == 1
        assert links[0].gap_frames == 3
        assert links[0].samples.shape == (3, 2)
        assert not links[0].samples.flags.writeable
        assert np.array_equal(links[0].samples, per_pair_spline(t1, t2))
