import math

import numpy as np
import pytest

from fluenttrack.core import ActionModel, VisibilityState, descriptor_similarity
from fluenttrack.energy import (
    EdgeContext,
    EnergyBreakdown,
    action_likelihood,
    displacement_energy,
    edge_cost,
    node_exit_cost,
    pose_distance,
    sigmoid,
    transition_energy,
    vehicle_fluent_distance,
    visibility_likelihood,
)
from fluenttrack.grammar import (
    C,
    O,
    default_grammar,
    default_parameters,
    default_vehicle_templates,
    fit_transition_table,
)


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
        model = ActionModel("walking", np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            pose_distance(np.zeros(2), model)


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
    def ctx(self, params, **kw):
        defaults = dict(
            from_state=VisibilityState.VISIBLE,
            to_state=VisibilityState.VISIBLE,
            from_location=np.zeros(2),
            to_location=np.array([0.1, 0.0]),
            dt_frames=1,
            frame_rate=10.0,
            legal_actions=("walking",),
            detection_score=0.9,
        )
        defaults.update(kw)
        return EdgeContext(**defaults)

    def test_breakdown_sums(self, params):
        breakdown, action = edge_cost(self.ctx(params), params)
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
            ctx = self.ctx(params, detection_score=score,
                           to_location=np.array([dist, 0.0]))
            breakdown, _ = edge_cost(ctx, params)
            parts = (breakdown.displacement, breakdown.transition,
                     breakdown.visibility, breakdown.action)
            assert breakdown.total == pytest.approx(sum(parts), abs=1e-9)
            assert math.isfinite(breakdown.total)

    def enter_ctx(self, params, **kw):
        """An occluded -> contained hop, offered every grammar-legal action."""
        legal = tuple(a.name for a in default_grammar().legal_actions(O, C))
        return self.ctx(params, from_state=O, to_state=C, legal_actions=legal,
                        detection_score=None, gap_similarity=0.9, **kw)

    def test_occluded_to_contained_is_enter(self, params):
        # enter_vehicle and load_baggage price equally; ties go to the lower id
        _, action = edge_cost(self.enter_ctx(params), params)
        assert action == "enter_vehicle"

    def test_tie_broken_by_lowest_action_id(self):
        g = default_grammar()
        uniform = default_parameters(transition_table=fit_transition_table([], 1.0, g))
        assert g.action_by_name("enter_vehicle").id < g.action_by_name("load_baggage").id
        _, action = edge_cost(self.enter_ctx(uniform), uniform)
        assert action == "enter_vehicle"

    def test_evidence_changes_label(self, params):
        fluent = default_vehicle_templates()["load_baggage"] + 0.1
        _, action = edge_cost(self.enter_ctx(params, container_fluent_feature=fluent), params)
        assert action == "load_baggage"

    def test_temporal_precondition(self, params):
        with pytest.raises(ValueError):
            edge_cost(self.ctx(params, dt_frames=0), params)

    def test_exit_cost_components(self, params):
        bd, action = node_exit_cost(VisibilityState.VISIBLE, params, detection_score=0.75)
        assert action == "walking"
        assert bd.displacement == 0.0 and bd.transition == 0.0
        assert bd.visibility == pytest.approx(0.25)
