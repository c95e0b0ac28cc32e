import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fluenttrack.core import ActionModel, VisibilityState, descriptor_similarity
from fluenttrack.energy import (
    EnergyBreakdown,
    action_likelihood,
    displacement_energy,
    edge_cost,
    node_exit_cost,
    pose_distance,
    pose_distances,
    sigmoid,
    transition_energy,
    vehicle_fluent_distance,
    visibility_likelihood,
)
from fluenttrack.grammar import (
    C,
    O,
    V,
    default_grammar,
    default_action_models,
    default_parameters,
    default_vehicle_templates,
    fit_transition_table,
)

from conftest import Stop, same_bits

FRAME_RATE = 10.0


@pytest.fixture(scope="module")
def params():
    return default_parameters()


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-9)

    def test_complement(self):
        for x in (-3.2, -0.5, 0.1, 2.7, 10.0):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(-10, 10, 101)
        ys = [sigmoid(float(x)) for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))


class TestDisplacementEnergy:
    def test_visible_within_bound(self, params):
        # bound = tau_s * dt / fps = 4 * 1 / 4 = 1.0 m
        assert displacement_energy((0.5, 0), (0, 0), VisibilityState.VISIBLE,
                                   params, 1, 4.0) == 0.0

    def test_visible_beyond_bound(self, params):
        assert displacement_energy((3.0, 0), (0, 0), VisibilityState.VISIBLE,
                                   params, 1, 4.0) == 1.0

    def test_invisible_always_one(self, params):
        for state in (VisibilityState.OCCLUDED, VisibilityState.CONTAINED):
            assert displacement_energy((0, 0), (0, 0), state, params, 1, 4.0) == 1.0
            assert displacement_energy((99, 99), (0, 0), state, params, 3, 4.0) == 1.0

    def test_bound_scales_with_gap(self, params):
        # 2.5 m over 3 frames at 4 fps stays under 4 m/s
        assert displacement_energy((2.5, 0), (0, 0), VisibilityState.VISIBLE,
                                   params, 3, 4.0) == 0.0


class TestTransitionEnergy:
    def test_certain_transition_free(self):
        from fluenttrack.grammar import ActionStateTable, V, O
        table = ActionStateTable(rows={(V, "walking"): {V: 1.0}})
        assert transition_energy(V, V, "walking", table) == 0.0

    def test_half_probability(self):
        from fluenttrack.grammar import ActionStateTable, V, O
        table = ActionStateTable(rows={(V, "walking"): {V: 0.5, O: 0.5}})
        assert transition_energy(O, V, "walking", table) == pytest.approx(0.6931, abs=1e-4)

    def test_zero_probability_floored(self):
        from fluenttrack.grammar import ActionStateTable, V, O
        table = ActionStateTable(rows={(V, "walking"): {V: 1.0, O: 0.0}})
        assert transition_energy(O, V, "walking", table) == pytest.approx(
            -math.log(1e-9), abs=1e-9
        )

    def test_strictly_decreasing_in_p(self):
        from fluenttrack.grammar import ActionStateTable, V, O
        values = []
        for p in (0.1, 0.3, 0.5, 0.9, 1.0):
            table = ActionStateTable(rows={(V, "walking"): {V: p, O: 1.0 - p}})
            values.append(transition_energy(V, V, "walking", table))
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0


class TestVisibilityLikelihood:
    def test_visible_perfect_detection(self):
        assert visibility_likelihood(VisibilityState.VISIBLE, detection_score=1.0) == 0.0

    def test_contained(self):
        assert visibility_likelihood(
            VisibilityState.CONTAINED, container_score=0.8
        ) == pytest.approx(0.2)

    def test_occluded_identical_descriptors(self):
        v = np.zeros(4)
        v[0] = 1.0
        assert visibility_likelihood(VisibilityState.OCCLUDED,
                                     gap_similarity=descriptor_similarity(v, v)) == 0.5

    def test_missing_evidence_rejected(self):
        with pytest.raises(ValueError):
            visibility_likelihood(VisibilityState.VISIBLE)
        with pytest.raises(ValueError):
            visibility_likelihood(VisibilityState.OCCLUDED)
        with pytest.raises(ValueError):
            visibility_likelihood(VisibilityState.CONTAINED)

    def test_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = float(rng.uniform(0, 1))
            assert 0.0 <= visibility_likelihood(VisibilityState.VISIBLE,
                                                detection_score=s) <= 1.0
            assert 0.0 <= visibility_likelihood(VisibilityState.CONTAINED,
                                                container_score=s) <= 1.0
            a = rng.normal(size=5)
            a /= np.linalg.norm(a)
            b = rng.normal(size=5)
            b /= np.linalg.norm(b)
            occ = visibility_likelihood(VisibilityState.OCCLUDED,
                                        gap_similarity=descriptor_similarity(a, b))
            assert 0.0 < occ < 1.0


class TestPoseDistance:
    def test_at_mean_identity_cov(self):
        model = ActionModel("walking", np.zeros(2), np.eye(2))
        assert pose_distance(np.zeros(2), model) == pytest.approx(
            math.log(2 * math.pi), abs=1e-12
        )

    def test_unit_offset(self):
        model = ActionModel("walking", np.zeros(2), np.eye(2))
        assert pose_distance(np.array([1.0, 0.0]), model) == pytest.approx(
            math.log(2 * math.pi) + 0.5, abs=1e-12
        )

    def test_scaled_covariance_logdet(self):
        model = ActionModel("walking", np.zeros(2), 4.0 * np.eye(2))
        assert pose_distance(np.zeros(2), model) == pytest.approx(
            math.log(2 * math.pi) + 0.5 * math.log(16.0), abs=1e-12
        )

    def test_minimum_at_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            mean = rng.normal(size=d)
            a = rng.normal(size=(d, d))
            cov = a @ a.T + 0.1 * np.eye(d)
            model = ActionModel("walking", mean, cov)
            base = pose_distance(mean, model)
            probe = mean + rng.normal(scale=2.0, size=d)
            assert pose_distance(probe, model) >= base - 1e-12

    def test_dimension_mismatch(self):
        model = ActionModel("walking", np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            pose_distance(np.zeros(3), model)

    def test_non_pd_covariance(self):
        # rejected when the model is built, before any pose is scored
        with pytest.raises(ValueError, match="positive definite"):
            ActionModel("walking", np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


def solved_pose_distance(x, model):
    """``pose_distance`` as one 1-D solve per feature: the scalar reference."""
    diff = np.asarray(x, dtype=float) - model.mean
    quad = float(diff @ np.linalg.solve(model.covariance, diff))
    d = model.mean.shape[0]
    return 0.5 * (quad + model.log_det + d * math.log(2.0 * math.pi))


@st.composite
def pose_instances(draw):
    d = draw(st.integers(1, 9))
    elements = st.floats(-3.0, 3.0)
    a = draw(hnp.arrays(float, (d, d), elements=elements))
    mean = draw(hnp.arrays(float, d, elements=elements))
    features = draw(hnp.arrays(float, st.tuples(st.integers(1, 20), st.just(d)),
                               elements=st.floats(-10.0, 10.0)))
    return ActionModel("walking", mean, a @ a.T + 0.1 * np.eye(d)), features


class TestPoseDistances:
    """The stacked solve keeps the bits of one solve per feature."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pose_instances())
    def test_match_per_feature_solve(self, instance):
        model, features = instance
        expected = [solved_pose_distance(x, model) for x in features]
        assert same_bits(pose_distances(features, model), expected)
        assert same_bits([pose_distance(x, model) for x in features], expected)

    def test_suite_pose_features_match(self, suite_runs):
        features = [d.pose_feature for _, sim in suite_runs for d in sim.detections
                    if d.pose_feature is not None]
        assert len(features) > 1000
        for model in default_action_models().values():
            assert same_bits(pose_distances(features, model),
                             [solved_pose_distance(x, model) for x in features]), model.name

    def test_dimension_mismatch_names_both(self):
        model = ActionModel("walking", np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=re.escape("(3,) != model dimension (2,)")):
            pose_distances(np.zeros((4, 3)), model)
        with pytest.raises(ValueError, match=re.escape("(3,) != model dimension (2,)")):
            pose_distance(np.zeros(3), model)


class TestVehicleFluentDistance:
    def test_self_distance(self):
        t = np.array([1.0, 2.0, 3.0])
        assert vehicle_fluent_distance(t, t) == 0.0

    def test_three_four_five(self):
        assert vehicle_fluent_distance(np.array([3.0, 4.0]), np.zeros(2)) == 5.0

    def test_all_ones(self):
        assert vehicle_fluent_distance(np.ones(4), np.zeros(4)) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vehicle_fluent_distance(np.zeros(3), np.zeros(4))


class TestActionLikelihood:
    def test_both_distances_zero_like(self, params):
        # a pose exactly at a broad model's mean with negative log-density 0
        model = ActionModel("walking", np.zeros(2), np.eye(2) / (2 * math.pi))
        p = default_parameters(action_pose_models={"walking": model},
                               vehicle_fluent_templates={"walking": np.zeros(2)})
        # log-density at the mean is exactly 0 for this covariance
        value = action_likelihood("walking", p, pose_feature=np.zeros(2))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_neutral_substitution(self, params):
        assert action_likelihood("walking", params) == pytest.approx(1.0)

    def test_saturation(self, params):
        model = params.action_pose_models["enter_vehicle"]
        far_pose = model.mean + 100.0
        fluent = params.vehicle_fluent_templates["enter_vehicle"] + 100.0
        value = action_likelihood("enter_vehicle", params, pose_feature=far_pose,
                                  vehicle_fluent_feature=fluent)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_range(self, params):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pose = rng.normal(scale=3.0, size=9)
            fluent = rng.normal(scale=3.0, size=9)
            v = action_likelihood("enter_vehicle", params, pose_feature=pose,
                                  vehicle_fluent_feature=fluent)
            assert 0.0 < v < 2.0

    def test_unknown_action_with_feature(self, params):
        with pytest.raises(KeyError):
            action_likelihood("cartwheel", params, pose_feature=np.zeros(9))


class TestEdgeCost:
    def ctx(self, from_state=V, to_state=V, to_location=(0.1, 0.0), dt_frames=1, **evidence):
        """The (source, destination) stops of a hop that leaves the origin at
        frame 0; ``evidence`` sets the source's, a detection score of 0.9 by
        default."""
        src = Stop(0, np.zeros(2), from_state, **{"detection_score": 0.9, **evidence})
        return src, Stop(dt_frames, np.asarray(to_location, dtype=float), to_state)

    def test_breakdown_sums(self, params):
        breakdown, action = edge_cost(*self.ctx(), params, FRAME_RATE)
        assert action == "walking"
        parts = (breakdown.displacement, breakdown.transition,
                 breakdown.visibility, breakdown.action)
        assert breakdown.total == pytest.approx(sum(parts), abs=1e-9)

    def test_component_sum_fixed_values(self):
        bd = EnergyBreakdown.build(1.0, 0.6931, 0.2, 1.0)
        assert bd.total == pytest.approx(2.8931, abs=1e-9)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EnergyBreakdown.build(float("nan"), 0.0, 0.0, 0.0)

    def test_zero_total(self):
        bd = EnergyBreakdown.build(0.0, 0.0, 0.0, 0.0)
        assert bd.total == 0.0

    def test_random_breakdown_sums(self, params):
        rng = np.random.default_rng(13)
        for _ in range(300):
            score = float(rng.uniform(0.1, 0.99))
            dist = float(rng.uniform(0, 2))
            src, dst = self.ctx(detection_score=score, to_location=(dist, 0.0))
            breakdown, _ = edge_cost(src, dst, params, FRAME_RATE)
            parts = (breakdown.displacement, breakdown.transition,
                     breakdown.visibility, breakdown.action)
            assert breakdown.total == pytest.approx(sum(parts), abs=1e-9)
            assert math.isfinite(breakdown.total)

    def enter_ctx(self):
        """An occluded -> contained hop, offered every grammar-legal action."""
        return self.ctx(O, C, detection_score=None, gap_similarity=0.9)

    def test_occluded_to_contained_is_enter(self, params):
        # enter_vehicle and load_baggage price equally; ties go to the lower id
        _, action = edge_cost(*self.enter_ctx(), params, FRAME_RATE)
        assert action == "enter_vehicle"

    def test_tie_broken_by_lowest_action_id(self):
        g = default_grammar()
        uniform = default_parameters(transition_table=fit_transition_table([], 1.0, g))
        ids = {a.name: a.id for a in g.actions}
        assert ids["enter_vehicle"] < ids["load_baggage"]
        _, action = edge_cost(*self.enter_ctx(), uniform, FRAME_RATE)
        assert action == "enter_vehicle"

    def test_evidence_changes_label(self, params):
        fluent = default_vehicle_templates()["load_baggage"] + 0.1
        _, action = edge_cost(*self.enter_ctx(), params, FRAME_RATE, fluent=fluent)
        assert action == "load_baggage"

    def test_temporal_precondition(self, params):
        with pytest.raises(ValueError):
            edge_cost(*self.ctx(dt_frames=0), params, FRAME_RATE)

    @pytest.mark.parametrize("from_state,to_state", [(V, C), (C, V)],
                             ids=["visible-contained", "contained-visible"])
    def test_visible_contained_hop_rejected(self, params, from_state, to_state):
        # the grammar reaches containment only through occlusion
        src, dst = self.ctx(from_state, to_state, container_score=0.9)
        with pytest.raises(ValueError, match="no legal action"):
            edge_cost(src, dst, params, FRAME_RATE)

    def test_exit_cost_components(self, params):
        bd = node_exit_cost(Stop(0, np.zeros(2), V, detection_score=0.75), params)
        assert bd.displacement == 0.0 and bd.transition == 0.0
        assert bd.visibility == pytest.approx(0.25)
