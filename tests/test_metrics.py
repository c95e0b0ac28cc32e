from typing import NamedTuple, Optional

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from fluenttrack import fileio, metrics

from fluenttrack.core import (
    ObjectClass,
    Trajectory,
    TrajectoryPoint,
    VisibilityState,
    ground_distance,
)
from fluenttrack.metrics import (
    INFEASIBLE,
    PERSISTENCE_TIEBREAK,
    STATE_CODES,
    Gate,
    MatchResult,
    Observations,
    clear_metrics,
    fluent_metrics,
    match_frames,
    observations,
    trajectories_to_observations,
)

from conftest import same_bits


class Obs(NamedTuple):
    """One (frame, id) observation, as the per-pair references read it."""

    frame: int
    object_id: int
    location: np.ndarray
    state: Optional[VisibilityState] = None


def obs(frame, oid, x, y=0.0, state=None):
    return Obs(frame, oid, np.array([float(x), float(y)]), state)


def columns(items) -> Observations:
    """The observations ``items`` as the columns ``metrics`` evaluates."""
    return observations([o.frame for o in items], [o.object_id for o in items],
                        [o.location for o in items], [o.state for o in items])


def track(oid, frames, xs, jitter=0.0):
    return [obs(f, oid, x + jitter) for f, x in zip(frames, xs)]


def per_pair_match(gt, pred, gate):
    """``match_frames`` with one ``ground_distance`` per same-frame pair:
    its scalar reference."""
    gt_frames, pred_frames = {}, {}
    for o in gt:
        gt_frames.setdefault(o.frame, []).append(o)
    for o in pred:
        pred_frames.setdefault(o.frame, []).append(o)
    result = MatchResult()
    last_pred_of, was_matched, seen_matched = {}, {}, {}
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        gts = sorted(gt_frames.get(frame, []), key=lambda o: o.object_id)
        preds = sorted(pred_frames.get(frame, []), key=lambda o: o.object_id)
        pairs, qualities = (), []
        if gts and preds:
            cost = np.full((len(gts), len(preds)), INFEASIBLE)
            quality = np.zeros((len(gts), len(preds)))
            for i, g in enumerate(gts):
                for j, p in enumerate(preds):
                    d = ground_distance(g.location, p.location)
                    if d > gate.threshold:
                        continue
                    c = d - PERSISTENCE_TIEBREAK if last_pred_of.get(g.object_id) == p.object_id else d
                    cost[i, j], quality[i, j] = c, 1.0 - d / gate.threshold
            rows, cols = linear_sum_assignment(cost)
            chosen = sorted((i, j) for i, j in zip(rows, cols) if cost[i, j] < INFEASIBLE)
            pairs = tuple((gts[i].object_id, preds[j].object_id) for i, j in chosen)
            qualities = [quality[i, j] for i, j in chosen]
        matched_gt = {g for g, _ in pairs}
        result.matches[frame] = pairs
        result.fn += len(gts) - len(matched_gt)
        result.fp += len(preds) - len({p for _, p in pairs})
        result.n_matches += len(pairs)
        result.quality_sum += float(sum(qualities))
        if pairs:
            result.frame_precisions.append(float(np.mean(qualities)))
        for g, p in pairs:
            if g in last_pred_of and last_pred_of[g] != p:
                result.ids += 1
            last_pred_of[g] = p
        for g_obs in gts:
            hit = g_obs.object_id in matched_gt
            if hit and seen_matched.get(g_obs.object_id, False) and not was_matched.get(
                    g_obs.object_id, True):
                result.frag += 1
            was_matched[g_obs.object_id] = hit
            if hit:
                seen_matched[g_obs.object_id] = True
    return result


def per_pair_fluent(gt, pred, match):
    """``fluent_metrics``' confusion from dicts keyed by (frame, id): its
    reference."""
    gt_state = {(o.frame, o.object_id): o.state for o in gt}
    pred_state = {(o.frame, o.object_id): o.state for o in pred}
    confusion = np.zeros((3, 3), dtype=int)
    for frame, pairs in match.matches.items():
        for g, p in pairs:
            gs, ps = gt_state.get((frame, g)), pred_state.get((frame, p))
            if gs is not None and ps is not None:
                confusion[STATE_CODES[gs], STATE_CODES[ps]] += 1
    return confusion


def assert_same_match(got, expected, label=None):
    """Every field of two match results equal, floats bit for bit."""
    assert got.matches == expected.matches, label
    assert ((got.fp, got.fn, got.ids, got.frag, got.n_matches)
            == (expected.fp, expected.fn, expected.ids, expected.frag,
                expected.n_matches)), label
    assert float.hex(got.quality_sum) == float.hex(expected.quality_sum), label
    assert ([float.hex(v) for v in got.frame_precisions]
            == [float.hex(v) for v in expected.frame_precisions]), label


def grid_instance(rng, n_frames):
    """Truth and predictions on a quarter-metre grid, in shuffled input
    order. Many pairs lie exactly at a gate of 0.25, 0.5 or 1 m, or tie in
    distance; some frames hold only truth or only predictions; ids recur
    across frames, so persistence, switches and fragments come into play."""
    gt, pred = [], []
    for f in range(n_frames):
        kind = rng.integers(0, 4)  # 0, 1: both sides; 2: truth only; 3: predictions only
        for i in rng.choice(6, 0 if kind == 3 else rng.integers(1, 5), replace=False):
            gt.append(obs(f, int(i), *(rng.integers(0, 5, size=2) * 0.25)))
        for j in rng.choice(6, 0 if kind == 2 else rng.integers(1, 5), replace=False):
            pred.append(obs(f, 10 + int(j), *(rng.integers(0, 5, size=2) * 0.25)))
    return ([gt[k] for k in rng.permutation(len(gt))],
            [pred[k] for k in rng.permutation(len(pred))])


class TestMatcherEquivalence:
    """``match_frames`` on columns, solving the assignment only on
    contested frames, equals ``per_pair_match`` bit for bit."""

    def test_grid_instances(self, monkeypatch):
        solved = []  # the size of each assignment match_frames solves
        monkeypatch.setattr(metrics, "linear_sum_assignment",
                            lambda cost: solved.append(cost.shape) or linear_sum_assignment(cost))
        rng = np.random.default_rng(19)
        at_gate = frames_with_pairs = 0
        for trial in range(150):
            gt, pred = grid_instance(rng, int(rng.integers(1, 9)))
            for threshold in (0.25, 0.5, 1.0):
                gate = Gate(threshold)
                expected = per_pair_match(gt, pred, gate)
                assert_same_match(match_frames(columns(gt), columns(pred), gate), expected,
                                  (trial, threshold))
                got_confusion = fluent_metrics(columns(gt), columns(pred), expected).confusion
                assert (got_confusion == per_pair_fluent(gt, pred, expected)).all()
                at_gate += sum(ground_distance(g.location, p.location) == threshold
                               for g in gt for p in pred if g.frame == p.frame)
                frames_with_pairs += len({g.frame for g in gt} & {p.frame for p in pred})
        # contested frames were solved, uncontested ones were not
        assert 0 < len(solved) < frames_with_pairs
        assert at_gate > 0

    def test_crowded_frames_keep_the_mean_bits(self):
        # 40 matches a frame: np.mean sums a frame's qualities pairwise,
        # which a sequential sum does not reproduce; frame 0 is contested
        rng = np.random.default_rng(7)
        gt = [obs(f, i, 3.0 * i) for f in range(8) for i in range(40)]
        pred = [obs(f, 100 + i, 3.0 * i + rng.uniform(-0.9, 0.9)) for f in range(8)
                for i in range(40)] + [obs(0, 200, 0.5)]
        m = match_frames(columns(gt), columns(pred))
        assert [len(pairs) for pairs in m.matches.values()] == [40] * 8
        assert_same_match(m, per_pair_match(gt, pred, Gate()))

    def test_pair_at_the_gate_matches_with_quality_zero(self):
        gt = [obs(0, 0, 0.0), obs(1, 0, 0.0), obs(1, 1, 2.0)]
        pred = [obs(0, 5, 0.5), obs(1, 5, 0.5), obs(1, 6, 1.5)]
        m = match_frames(columns(gt), columns(pred), Gate(0.5))
        assert m.matches == {0: ((0, 5),), 1: ((0, 5), (1, 6))}
        assert m.frame_precisions == [0.0, 0.0]
        assert_same_match(m, per_pair_match(gt, pred, Gate(0.5)))
        far = columns([obs(0, 5, np.nextafter(0.5, 1.0))])
        assert match_frames(columns(gt), far, Gate(0.5)).matches[0] == ()

    @pytest.mark.parametrize("kept", [7, 8])
    def test_persistence_decides_a_contested_tie(self, kept):
        # in frame 1 both assignments of truths 0, 1 to predictions 7, 8
        # cost the same: the pair kept from frame 0 wins
        gt = [obs(0, 0, 0.0), obs(1, 0, 0.0), obs(1, 1, 1.0)]
        pred = [obs(0, kept, 0.5, 0.2), obs(1, 7, 0.5, 0.2), obs(1, 8, 0.5, -0.2)]
        m = match_frames(columns(gt), columns(pred))
        assert m.matches[1] == ((0, kept), (1, 15 - kept))
        assert m.ids == 0
        assert_same_match(m, per_pair_match(gt, pred, Gate()))

    def test_nan_location_is_rejected_as_by_the_reference(self):
        gt, pred = [obs(0, 0, float("nan"))], [obs(0, 1, 0.0)]
        with pytest.raises(ValueError):
            per_pair_match(gt, pred, Gate())
        with pytest.raises(ValueError):
            match_frames(columns(gt), columns(pred))

    def test_gate_beyond_infeasible_rejected(self):
        # a pair within such a gate could cost as much as one outside it, and
        # the assignment would then drop it
        for threshold in (INFEASIBLE / 2, INFEASIBLE, 2 * INFEASIBLE):
            with pytest.raises(ValueError, match="gate must be below 5e\\+08 m"):
                Gate(threshold)
        gate = Gate(0.4 * INFEASIBLE)
        gt, pred = [obs(0, 0, 0.0), obs(1, 0, 0.0)], [obs(0, 1, 0.3 * INFEASIBLE), obs(1, 1, 0.5)]
        m = match_frames(columns(gt), columns(pred), gate)
        assert m.matches == {0: ((0, 1),), 1: ((0, 1),)}
        assert_same_match(m, per_pair_match(gt, pred, gate))

    def test_frames_with_one_side_only(self):
        gt = [obs(0, 0, 0.0), obs(2, 0, 0.0)]
        pred = [obs(1, 4, 0.0), obs(2, 4, 0.1)]
        m = match_frames(columns(gt), columns(pred))
        assert m.matches == {0: (), 1: (), 2: ((0, 4),)}
        assert (m.fp, m.fn) == (1, 1)
        assert_same_match(m, per_pair_match(gt, pred, Gate()))

    def test_duplicate_named_first_in_input_order(self):
        # (0, 0) repeats first in (frame, id) order, (1, 3) first in input order
        gt = [obs(1, 3, 0.0), obs(0, 0, 0.0), obs(1, 5, 0.0), obs(1, 3, 1.0), obs(0, 0, 1.0)]
        pred = [obs(2, 7, 0.0), obs(2, 7, 0.5)]
        with pytest.raises(ValueError, match=r"^duplicate gt id 3 in frame 1$"):
            match_frames(columns(gt), columns([]))
        with pytest.raises(ValueError, match=r"^duplicate prediction id 7 in frame 2$"):
            match_frames(columns([]), columns(pred))
        with pytest.raises(ValueError, match=r"^duplicate gt id 3 in frame 1$"):
            match_frames(columns(gt), columns(pred))

    @pytest.mark.parametrize("threshold", [1.0, 0.3])
    def test_suite_outputs(self, suite_prior_only, threshold):
        gate = Gate(threshold)
        for name, sim, result in suite_prior_only:
            records = fileio.ground_truth_observations(sim.ground_truth)
            pred_columns = trajectories_to_observations(result.trajectories)
            gt = [Obs(r.frame, r.object_id, r.location, r.state) for r in sim.ground_truth]
            pred = [Obs(p.frame, t.object_id, p.location, p.state)
                    for t in result.trajectories for p in t.points]
            expected = per_pair_match(gt, pred, gate)
            got = match_frames(records, pred_columns, gate)
            assert_same_match(got, expected, name)
            assert (fluent_metrics(records, pred_columns, got).confusion
                    == per_pair_fluent(gt, pred, expected)).all(), name


class TestMatchFrames:
    def test_perfect_tracking(self):
        gt = track(0, range(10), [0.1 * f for f in range(10)])
        pred = track(5, range(10), [0.1 * f for f in range(10)])
        m = match_frames(columns(gt), columns(pred))
        assert (m.fp, m.fn, m.ids, m.frag) == (0, 0, 0, 0)

    def test_all_missed(self):
        gt = track(0, range(10), [0.0] * 10)
        m = match_frames(columns(gt), columns([]))
        assert m.fn == 10 and m.fp == 0

    def test_identity_switch_counted_once(self):
        gt = track(0, range(10), [0.0] * 10)
        pred = track(1, range(5), [0.0] * 5) + track(2, range(5, 10), [0.0] * 5)
        m = match_frames(columns(gt), columns(pred))
        assert m.ids == 1
        assert m.fp == 0 and m.fn == 0

    def test_fragmentation(self):
        gt = track(0, range(9), [0.0] * 9)
        pred = track(1, [0, 1, 2], [0.0] * 3) + track(1, [6, 7, 8], [0.0] * 3)
        m = match_frames(columns(gt), columns(pred))
        assert m.frag == 1
        assert m.fn == 3

    def test_gate_excludes_distant_pairs(self):
        gt = [obs(0, 0, 0.0)]
        pred = [obs(0, 1, 5.0)]
        m = match_frames(columns(gt), columns(pred), Gate(threshold=1.0))
        assert m.fp == 1 and m.fn == 1

    @pytest.mark.parametrize("threshold,jitter", [(1.0, 0.3), (0.05, 0.02)])
    def test_suite_matches_per_pair_reference(self, suite_runs, threshold, jitter):
        # predictions are the truth with noise, some points dropped and
        # some identities swapped; every field must keep its bits
        rng = np.random.default_rng(12)
        gate = Gate(threshold=threshold)
        for name, sim in suite_runs:
            gt = [Obs(r.frame, r.object_id, r.location, r.state) for r in sim.ground_truth]
            pred = [Obs(o.frame, (o.object_id * 7 + o.frame // 40) % 23,
                        o.location + rng.normal(scale=jitter, size=2))
                    for o in gt if rng.random() > 0.1]
            pred = list({(o.frame, o.object_id): o for o in pred}.values())
            assert_same_match(match_frames(columns(gt), columns(pred), gate),
                              per_pair_match(gt, pred, gate), name)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            match_frames(columns([obs(0, 0, 0.0), obs(0, 0, 1.0)]), columns([]))
        with pytest.raises(ValueError):
            match_frames(columns([]), columns([obs(0, 0, 0.0), obs(0, 0, 1.0)]))

    def test_persistence_preference(self):
        # two equidistant predictions: the previously matched one keeps winning
        gt = [obs(f, 0, 0.0) for f in range(4)]
        pred = ([obs(0, 7, 0.2)]
                + [o for f in range(1, 4)
                   for o in (obs(f, 7, 0.2), obs(f, 8, -0.2))])
        m = match_frames(columns(gt), columns(pred))
        assert m.ids == 0
        for f in range(1, 4):
            assert m.matches[f] == ((0, 7),)

    def test_fp_fn_swap_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            gt = [obs(f, i, rng.uniform(0, 5))
                  for f in range(4) for i in range(rng.integers(0, 4))]
            pred = [obs(f, 10 + i, rng.uniform(0, 5))
                    for f in range(4) for i in range(rng.integers(0, 4))]
            m1 = match_frames(columns(gt), columns(pred))
            m2 = match_frames(columns(pred), columns(gt))
            assert (m1.fp, m1.fn) == (m2.fn, m2.fp)


class TestClearMetrics:
    def test_textbook_mota(self):
        m = MatchResult(fp=5, fn=10, ids=2)
        clear = clear_metrics(m, gt_count=100)
        assert clear.mota == pytest.approx(0.83, abs=1e-12)
        assert clear.moda == pytest.approx(0.85, abs=1e-12)

    def test_perfect_scores(self):
        gt = track(0, range(10), [0.1 * f for f in range(10)])
        pred = track(3, range(10), [0.1 * f for f in range(10)])
        m = match_frames(columns(gt), columns(pred))
        clear = clear_metrics(m, gt_count=10)
        assert clear.mota == 1.0 and clear.moda == 1.0
        assert clear.motp == pytest.approx(1.0)

    def test_negative_mota_allowed(self):
        m = MatchResult(fp=80, fn=40, ids=0)
        clear = clear_metrics(m, gt_count=100)
        assert clear.moda == pytest.approx(-0.2)
        assert clear.mota < 0

    def test_zero_gt_rejected(self):
        with pytest.raises(ValueError):
            clear_metrics(MatchResult(), 0)

    def test_mota_never_exceeds_moda(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = MatchResult(fp=int(rng.integers(0, 50)), fn=int(rng.integers(0, 50)),
                            ids=int(rng.integers(0, 20)))
            clear = clear_metrics(m, gt_count=100)
            assert clear.mota <= clear.moda + 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            gt = [obs(f, i, rng.uniform(0, 3), state=VisibilityState.VISIBLE)
                  for f in range(6) for i in range(2)]
            pred = [obs(f, i, rng.uniform(0, 3), state=VisibilityState.VISIBLE)
                    for f in range(6) for i in range(3)]
            relabeled = [o._replace(object_id=o.object_id + 100) for o in pred]
            c1 = clear_metrics(match_frames(columns(gt), columns(pred)), len(gt))
            c2 = clear_metrics(match_frames(columns(gt), columns(relabeled)), len(gt))
            assert c1.as_dict() == c2.as_dict()


class TestFluentMetrics:
    def test_identical_states(self):
        gt = [obs(f, 0, 0.0, state=VisibilityState.VISIBLE) for f in range(6)]
        pred = [obs(f, 1, 0.0, state=VisibilityState.VISIBLE) for f in range(6)]
        m = match_frames(columns(gt), columns(pred))
        report = fluent_metrics(columns(gt), columns(pred), m)
        assert report.precision[VisibilityState.VISIBLE] == 1.0
        assert report.recall[VisibilityState.VISIBLE] == 1.0

    def test_occluded_recall_zero_when_all_pred_visible(self):
        states = [VisibilityState.VISIBLE] * 5 + [VisibilityState.OCCLUDED] * 5
        gt = [obs(f, 0, 0.0, state=s) for f, s in enumerate(states)]
        pred = [obs(f, 1, 0.0, state=VisibilityState.VISIBLE) for f in range(10)]
        m = match_frames(columns(gt), columns(pred))
        report = fluent_metrics(columns(gt), columns(pred), m)
        assert report.recall[VisibilityState.OCCLUDED] == 0.0

    def test_confusion_row_sums_match_gt_counts(self):
        rng = np.random.default_rng(3)
        states = list(VisibilityState)
        gt = [obs(f, 0, 0.0, state=states[rng.integers(0, 3)]) for f in range(50)]
        pred = [obs(f, 1, 0.0, state=states[rng.integers(0, 3)]) for f in range(50)]
        m = match_frames(columns(gt), columns(pred))
        report = fluent_metrics(columns(gt), columns(pred), m)
        from fluenttrack.metrics import STATE_ORDER
        gt_state = {o.frame: o.state for o in gt}
        matched_frames = [f for f, pairs in m.matches.items() if pairs]
        for i, s in enumerate(STATE_ORDER):
            expected = sum(1 for f in matched_frames if gt_state[f] is s)
            assert report.confusion[i, :].sum() == expected


class TestAdapters:
    def test_trajectories_to_observations(self):
        points = tuple(
            TrajectoryPoint(f, np.array([float(f), 0.0]), VisibilityState.VISIBLE)
            for f in range(3)
        )
        traj = Trajectory(4, ObjectClass.PERSON, points)
        got = trajectories_to_observations([traj])
        assert got.frame.tolist() == [0, 1, 2]
        assert got.object_id.tolist() == [4, 4, 4]
        assert got.state.tolist() == [STATE_CODES[VisibilityState.VISIBLE]] * 3
        assert same_bits(got.location, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
