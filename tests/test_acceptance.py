"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The heavy fixtures (simulator suite + both solver modes) are shared
across criteria.
"""

import dataclasses
import math
import time
from collections import Counter

import numpy as np
import pytest

from fluenttrack import fileio, tracklets
from fluenttrack.core import ActionModel, ObjectClass, VisibilityState
from fluenttrack.grammar import (
    default_grammar,
    default_parameters,
    fit_transition_table,
)
from fluenttrack.metrics import (
    MatchResult,
    STATE_ORDER,
    clear_metrics,
    fluent_metrics,
    match_frames,
    observations,
    trajectories_to_observations,
)
from fluenttrack.simulator import default_camera, scenario_by_name, simulate, standard_suite
from fluenttrack.solver import joint_solve, pipeline_graph, solve_objects

from conftest import point_at, random_walk_instance
from energy_reference import log_odds, pose_distance, vehicle_fluent_distance
from oracle_reference import brute_force_oracle


def report(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {criterion}] PASS: {name}{suffix}")


@pytest.fixture(scope="module")
def camera():
    return default_camera()


@pytest.fixture(scope="module")
def params():
    return default_parameters()


@pytest.fixture(scope="module")
def suite_results(camera, params):
    """Simulate + track + evaluate the 20-scenario suite in both modes."""
    t0 = time.time()
    results = {}
    for script, noise in standard_suite():
        sim = simulate(script, noise, camera, params)
        gt = fileio.ground_truth_observations(sim.ground_truth)
        entry = {"sim": sim, "gt": gt}
        for mode in ("full", "prior_only", "visible_only"):
            joint = joint_solve(sim.detections, camera, params, mode=mode)
            pred = trajectories_to_observations(joint.trajectories)
            match = match_frames(gt, pred)
            clear, fluents = clear_metrics(match, len(gt)), fluent_metrics(gt, pred, match)
            entry[mode] = {"joint": joint, "clear": clear, "fluents": fluents,
                           "match": match}
        results[script.name] = entry
    results["_elapsed"] = time.time() - t0
    return results


class TestCriterion1OracleEquivalence:
    def test_oracle_equivalence(self, camera):
        params = default_parameters(solver_entry_exit_cost=3.0)
        t0 = time.time()
        single_nonempty = 0
        for seed in range(200):
            dets = random_walk_instance(seed, 1)
            graph = pipeline_graph(dets, camera, params)
            sol = solve_objects(graph, params)
            oracle = brute_force_oracle(graph)
            assert abs(sol.objective - oracle.objective) <= 1e-9, f"seed {seed}"
            single_nonempty += sol.objective > 1e-9

        multi_nonempty = 0
        for seed in range(100):
            n_agents = 2 + seed % 2
            dets = random_walk_instance(20_000 + seed, n_agents)
            graph = pipeline_graph(dets, camera, params)
            sol = solve_objects(graph, params)
            oracle = brute_force_oracle(graph)
            assert abs(sol.objective - oracle.objective) <= 1e-9, f"multi seed {seed}"
            multi_nonempty += len(sol.paths) >= 2
        elapsed = time.time() - t0
        assert elapsed < 60.0
        assert single_nonempty >= 50 and multi_nonempty >= 20
        report(1, "oracle equivalence on 300 random instances",
               f"{single_nonempty}/200 single and {multi_nonempty}/100 multi "
               f"non-trivial, {elapsed:.1f}s")


class TestCriterion2AblationOrdering:
    def test_full_model_beats_prior_only(self, suite_results):
        names = [s.name for s, _ in standard_suite()]
        full = [suite_results[n]["full"]["clear"].mota for n in names]
        prior = [suite_results[n]["prior_only"]["clear"].mota for n in names]
        mean_full = float(np.mean(full))
        mean_prior = float(np.mean(prior))
        assert mean_full >= 0.85
        assert mean_full - mean_prior >= 0.05
        assert suite_results["_elapsed"] < 300.0
        report(2, "ablation ordering on the 20-scenario suite",
               f"MOTA full={mean_full:.3f} prior-only={mean_prior:.3f}, "
               f"suite solved in {suite_results['_elapsed']:.0f}s")


class TestCriterion3ContainmentRecovery:
    def test_containment_recovered_and_baseline_fails(self, suite_results):
        entry = suite_results["enter_drive_exit"]
        gt_records = entry["sim"].ground_truth
        vehicle_pos = {r.frame: r.location for r in gt_records if r.object_id == 0}
        contained_gt = [r for r in gt_records
                        if r.object_id == 1 and r.state is VisibilityState.CONTAINED]
        assert contained_gt

        joint = entry["full"]["joint"]
        persons = [t for t in joint.trajectories
                   if t.object_class is ObjectClass.PERSON]
        assert len(persons) == 1
        person = persons[0]
        covered = 0
        for r in contained_gt:
            if not (person.birth_frame <= r.frame <= person.death_frame):
                continue
            point = point_at(person, r.frame)
            if point.state is VisibilityState.CONTAINED and (
                np.linalg.norm(point.location - vehicle_pos[r.frame]) <= 1.0
            ):
                covered += 1
        coverage = covered / len(contained_gt)
        assert coverage >= 0.95
        assert entry["full"]["clear"].ids == 0

        baseline = entry["visible_only"]
        base_persons = [t for t in baseline["joint"].trajectories
                        if t.object_class is ObjectClass.PERSON]
        base_covered = 0
        for r in contained_gt:
            for t in base_persons:
                if t.birth_frame <= r.frame <= t.death_frame:
                    p = point_at(t, r.frame)
                    if p.state is VisibilityState.CONTAINED:
                        base_covered += 1
        base_coverage = base_covered / len(contained_gt)
        assert baseline["clear"].ids >= 1 or base_coverage < 0.5
        report(3, "containment recovery",
               f"coverage={coverage:.1%}, IDS=0; visible-only baseline "
               f"coverage={base_coverage:.1%}, IDS={baseline['clear'].ids}")


class TestCriterion4FluentEstimation:
    def test_per_state_precision_recall(self, suite_results):
        names = [s.name for s, _ in standard_suite()]
        confusion = sum(suite_results[n]["full"]["fluents"].confusion for n in names)
        idx = {s: i for i, s in enumerate(STATE_ORDER)}
        scores = {}
        for s in STATE_ORDER:
            i = idx[s]
            precision = confusion[i, i] / confusion[:, i].sum()
            recall = confusion[i, i] / confusion[i, :].sum()
            scores[s] = (precision, recall)
        assert scores[VisibilityState.VISIBLE][0] >= 0.8
        assert scores[VisibilityState.VISIBLE][1] >= 0.8
        assert scores[VisibilityState.CONTAINED][0] >= 0.8
        assert scores[VisibilityState.CONTAINED][1] >= 0.8
        assert scores[VisibilityState.OCCLUDED][1] >= 0.6
        report(4, "visibility-state estimation", ", ".join(
            f"{s.value} P={scores[s][0]:.2f} R={scores[s][1]:.2f}" for s in STATE_ORDER
        ))


class TestCriterion5ClearCorrectness:
    def test_fixtures_and_invariances(self):
        clear = clear_metrics(MatchResult(fp=5, fn=10, ids=2), 100)
        assert abs(clear.mota - 0.83) <= 1e-12

        rng = np.random.default_rng(42)
        for _ in range(100):
            m = MatchResult(fp=int(rng.integers(0, 60)), fn=int(rng.integers(0, 60)),
                            ids=int(rng.integers(0, 30)))
            c = clear_metrics(m, gt_count=int(rng.integers(50, 200)))
            assert c.mota <= c.moda + 1e-12

        def obs(count):
            # ids 0 .. count - 1 in each of 5 frames, each at a uniform x
            keys = [(f, i) for f in range(5) for i in range(count)]
            return observations([f for f, _ in keys], [i for _, i in keys],
                                [[float(rng.uniform(0, 4)), 0.0] for _ in keys],
                                [None] * len(keys))

        for trial in range(30):
            gt, pred = obs(2), obs(3)
            shuffled = dataclasses.replace(pred, object_id=999 - pred.object_id)
            c1 = clear_metrics(match_frames(gt, pred), len(gt))
            c2 = clear_metrics(match_frames(gt, shuffled), len(gt))
            assert c1.as_dict() == c2.as_dict()
        report(5, "CLEAR metric correctness",
               "MOTA fixture exact to 1e-12, MOTA<=MODA on 100 fixtures, "
               "relabeling invariant")


class TestCriterion6EnergyUnits:
    def test_worked_examples(self, params):
        # representative derived values; the exhaustive example coverage
        # lives in test_energy / test_grammar / test_tracklets
        from fluenttrack.energy import EnergyBreakdown, sigmoid, transition_energy
        from fluenttrack.grammar import ActionStateTable, V, O

        assert sigmoid(0.0) == 0.5
        table = ActionStateTable(rows={(V, "walking"): {V: 0.5, O: 0.5}})
        assert abs(transition_energy(V, V, "walking", table) - 0.6931) < 1e-4
        table0 = ActionStateTable(rows={(V, "walking"): {V: 1.0, O: 0.0}})
        assert transition_energy(O, V, "walking", table0) == pytest.approx(
            -math.log(1e-9))
        model = ActionModel("walking", np.zeros(2), np.eye(2))
        assert pose_distance(np.zeros(2), model) == pytest.approx(
            math.log(2 * math.pi), abs=1e-12)
        assert vehicle_fluent_distance(np.ones(4), np.zeros(4)) == pytest.approx(2.0)
        assert EnergyBreakdown.build(1.0, 0.6931, 0.2, 1.0).total == pytest.approx(
            2.8931, abs=1e-9)
        assert log_odds(0.99) == pytest.approx(math.log(99.0))
        # grammar: Laplace fit example 9/12 on a toy grammar that allows it
        from test_grammar import toy_grammar
        g = toy_grammar()
        events = [(V, "enter_vehicle", O)] * 8 + [(V, "enter_vehicle", V)] * 2
        table = fit_transition_table(events, 1.0, g)
        assert table.probability(O, V, "enter_vehicle") == pytest.approx(0.75)

    def test_pose_distance_against_monte_carlo(self):
        """-log density must match a Monte-Carlo quadrature within 1%.

        The normalizing constant is integrated numerically over a uniform box
        (no closed-form Gaussian identities on the oracle side).
        """
        rng = np.random.default_rng(123)
        cases = [
            (np.array([0.0, 0.0]), np.eye(2), np.array([1.0, 0.5])),
            (np.array([1.0, -2.0]), np.diag([2.0, 0.5]), np.array([0.0, -1.0])),
            (np.array([0.0, 0.0]), np.array([[1.0, 0.4], [0.4, 1.0]]),
             np.array([0.8, 0.8])),
        ]
        for mean, cov, x in cases:
            stds = np.sqrt(np.diag(cov))
            lo = mean - 8 * stds
            hi = mean + 8 * stds
            n = 400_000
            samples = rng.uniform(lo, hi, size=(n, 2))
            diff = samples - mean
            inv = np.linalg.inv(cov)
            quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
            volume = float(np.prod(hi - lo))
            z_estimate = volume * float(np.mean(np.exp(-0.5 * quad)))
            dx = x - mean
            log_density = -0.5 * float(dx @ inv @ dx) - math.log(z_estimate)
            expected = -log_density
            actual = pose_distance(x, ActionModel("a", mean, cov))
            assert abs(actual - expected) <= 0.01 * abs(expected)
        report(6, "energy unit suite",
               "worked examples plus Monte-Carlo density check within 1%")


class TestCriterion7InvariantSuite:
    def test_randomized_invariants(self, camera):
        cases = 0
        grammar = default_grammar()
        params = default_parameters(solver_entry_exit_cost=3.0)

        # flow conservation, capacities, state legality on solved instances
        for seed in range(150):
            dets = random_walk_instance(40_000 + seed, 1 + seed % 3, agent_spacing=5.0)
            graph = pipeline_graph(dets, camera, params)
            solution = solve_objects(graph, params)  # internal validation runs
            used = Counter(nid for path in solution.paths for nid in path)
            for nid, count in used.items():
                node = graph.nodes[nid]
                assert count <= node.capacity
                if node.state is VisibilityState.CONTAINED:
                    assert count <= params.max_contained
            for traj in solution.trajectories:
                for a, b in zip(traj.points, traj.points[1:]):
                    assert grammar.legal_actions(a.state, b.state)
            cases += 1 + len(solution.paths)

        # spline endpoint interpolation on random collinear configurations
        rng = np.random.default_rng(7)
        for _ in range(400):
            n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            gap = int(rng.integers(1, 8))
            origin = rng.uniform(-5, 5, size=2)
            vel = rng.uniform(-0.4, 0.4, size=2)
            from fluenttrack.core import Tracklet
            desc = np.eye(4)[0]
            t1 = Tracklet(0, ObjectClass.PERSON, 0,
                          origin + np.outer(np.arange(n1), vel), desc)
            t2 = Tracklet(1, ObjectClass.PERSON, n1 + gap,
                          origin + np.outer(np.arange(n1 + gap, n1 + gap + n2), vel),
                          desc)
            (samples,) = tracklets.bspline_fill([(t1, t2)])
            assert samples.shape == (gap, 2)
            for f, p in zip(range(t1.end_frame + 1, t2.start_frame), samples):
                assert np.linalg.norm(p - (origin + f * vel)) < 1e-6
            cases += 1

        # transition-table row stochasticity under random fits
        legal = sorted(grammar.transitions,
                       key=lambda t: (t[0].value, t[1], t[2].value))
        for _ in range(300):
            events = [legal[i] for i in rng.integers(0, len(legal), size=40)]
            table = fit_transition_table(events, float(rng.uniform(0, 2)), grammar)
            for row in table.rows.values():
                assert abs(sum(row.values()) - 1.0) <= 1e-9
            cases += 1

        # containment capacity on repeated capacity-stress solves
        for seed in range(3):
            script, noise = scenario_by_name("capacity_stress")
            noise = type(noise)(**{**noise.__dict__, "seed": 5000 + seed})
            sim = simulate(script, noise, camera, default_parameters())
            joint = joint_solve(sim.detections, camera, default_parameters())
            per_frame = Counter()
            for t in joint.trajectories:
                for p in t.points:
                    if p.state is VisibilityState.CONTAINED:
                        per_frame[(p.container_id, p.frame)] += 1
            assert per_frame and max(per_frame.values()) <= 5
            cases += 1

        assert cases >= 1000
        report(7, "invariant suite", f"{cases} randomized cases, zero violations")


class TestCriterion8Determinism:
    def test_pipelines_byte_identical(self, tmp_path):
        from fluenttrack.cli import main

        def run_all(root):
            sim_dir = root / "sim"
            assert main(["simulate", "--suite", "--out", str(sim_dir)]) == 0
            track_dir = root / "track"
            seqs = sorted(p for p in sim_dir.iterdir() if p.is_dir())
            assert main(["track", *[str(s) for s in seqs],
                         "--out", str(track_dir)]) == 0
            eval_dir = root / "eval"
            eval_dir.mkdir()
            for seq in seqs:
                assert main([
                    "evaluate",
                    "--predictions", str(track_dir / seq.name / "trajectories.jsonl"),
                    "--ground-truth", str(seq / "ground_truth.jsonl"),
                    "--out", str(eval_dir / f"{seq.name}.json"),
                    "--sequence", seq.name,
                ]) == 0

        root1 = tmp_path / "run1"
        root2 = tmp_path / "run2"
        run_all(root1)
        run_all(root2)

        files1 = sorted(p.relative_to(root1) for p in root1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(root2) for p in root2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (root1 / rel).read_bytes() == (root2 / rel).read_bytes(), rel
        report(8, "determinism", f"{len(files1)} files byte-identical across two runs")
