import numpy as np
import pytest
from scipy.stats import chi2

from fluenttrack import simulator as sim
from fluenttrack.core import ObjectClass, VisibilityState
from fluenttrack.grammar import default_parameters
from fluenttrack.simulator import (
    AgentScript,
    NoiseProfile,
    ScenarioEvent,
    ScenarioScript,
    default_camera,
    scenario_by_name,
    simulate,
    standard_suite,
)


@pytest.fixture(scope="module")
def camera():
    return default_camera()


@pytest.fixture(scope="module")
def params():
    return default_parameters()


def simple_script(duration=40, events=(), obstacles=()):
    walker = AgentScript(0, ObjectClass.PERSON,
                         ((0, 2.0, 10.0), (duration - 1, 12.0, 10.0)))
    vehicle = AgentScript(1, ObjectClass.VEHICLE, ((0, 8.0, 12.0),))
    return ScenarioScript(name="test", duration_frames=duration,
                          agents=(walker, vehicle), events=tuple(events),
                          obstacles=tuple(obstacles))


def states_of(result, object_id):
    """Frame -> ground-truth visibility state of one object."""
    return {r.frame: r.state for r in result.ground_truth if r.object_id == object_id}


def zero_noise(seed=0):
    return NoiseProfile(position_sigma=0.0, detection_miss_prob_visible=0.0,
                        false_positive_rate=0.0, descriptor_noise_sigma=0.0,
                        feature_noise_sigma=0.0, score_sigma=0.0, seed=seed)


class TestSimulate:
    def test_noiseless_passthrough(self, camera, params):
        script = simple_script()
        result = simulate(script, zero_noise(), camera, params)
        person_dets = [d for d in result.detections
                       if d.object_class is ObjectClass.PERSON]
        assert len(person_dets) == script.duration_frames
        for d in person_dets:
            expected = script.agent(0).position(d.frame)
            bc = np.array([d.bbox[0] + d.bbox[2] / 2, d.bbox[1] + d.bbox[3]])
            np.testing.assert_allclose(bc, expected, atol=1e-9)
        assert all(r.state is VisibilityState.VISIBLE for r in result.ground_truth)

    def test_enter_event_state_timeline(self, camera, params):
        events = [ScenarioEvent("enter_vehicle", 0, 10, 16, target_id=1),
                  ScenarioEvent("exit_vehicle", 0, 26, 32, target_id=1)]
        result = simulate(simple_script(events=events), zero_noise(), camera, params)
        states = states_of(result, 0)
        assert states[9] is VisibilityState.VISIBLE
        assert states[10] is VisibilityState.OCCLUDED  # entry boundary
        assert states[11] is VisibilityState.CONTAINED
        assert states[20] is VisibilityState.CONTAINED  # persists after window
        assert states[31] is VisibilityState.CONTAINED
        assert states[32] is VisibilityState.OCCLUDED  # exit boundary
        assert states[33] is VisibilityState.VISIBLE

    def test_contained_agents_emit_no_detections(self, camera, params):
        events = [ScenarioEvent("enter_vehicle", 0, 10, 16, target_id=1)]
        result = simulate(simple_script(events=events), zero_noise(), camera, params)
        contained_frames = {r.frame for r in result.ground_truth
                            if r.object_id == 0 and r.state is VisibilityState.CONTAINED}
        person_frames = {d.frame for d in result.detections
                         if d.object_class is ObjectClass.PERSON}
        assert contained_frames
        assert not (contained_frames & person_frames)

    def test_motion_independence_contained_follows_container(self, camera, params):
        script = ScenarioScript(
            name="ride", duration_frames=40,
            agents=(
                AgentScript(0, ObjectClass.PERSON, ((0, 7.8, 11.8),)),
                AgentScript(1, ObjectClass.VEHICLE, ((0, 8.0, 12.0), (39, 30.0, 12.0))),
            ),
            events=(ScenarioEvent("enter_vehicle", 0, 2, 4, target_id=1),),
        )
        result = simulate(script, zero_noise(), camera, params)
        vehicle_pos = {r.frame: r.location for r in result.ground_truth if r.object_id == 1}
        for r in result.ground_truth:
            if r.object_id == 0 and r.state is VisibilityState.CONTAINED:
                np.testing.assert_array_equal(r.location, vehicle_pos[r.frame])
                assert r.container_id == 1

    def test_occlude_event(self, camera, params):
        events = [ScenarioEvent("occlude", 0, 5, 9)]
        result = simulate(simple_script(events=events), zero_noise(), camera, params)
        states = states_of(result, 0)
        for f in range(5, 10):
            assert states[f] is VisibilityState.OCCLUDED
        assert states[4] is VisibilityState.VISIBLE
        assert states[10] is VisibilityState.VISIBLE

    def test_geometric_occlusion_behind_obstacle(self, camera, params):
        # obstacle shadowing the middle of the walker's path
        script = simple_script(obstacles=[sim.Obstacle((9.0, 0.0), (11.0, 0.0))])
        result = simulate(script, zero_noise(), camera, params)
        states = states_of(result, 0)
        occluded = [f for f, s in states.items() if s is VisibilityState.OCCLUDED]
        assert occluded  # the path crosses the shadow
        assert min(occluded) > 0 and max(occluded) < script.duration_frames - 1

    def test_determinism_same_seed(self, camera, params):
        script, noise = scenario_by_name("enter_drive_exit")
        r1 = simulate(script, noise, camera, params)
        r2 = simulate(script, noise, camera, params)
        assert len(r1.detections) == len(r2.detections)
        for a, b in zip(r1.detections, r2.detections):
            assert a.frame == b.frame and a.score == b.score
            np.testing.assert_array_equal(a.descriptor, b.descriptor)
            assert a.bbox == b.bbox

    def test_different_seed_differs(self, camera, params):
        script, noise = scenario_by_name("walk_single")
        r1 = simulate(script, noise, camera, params)
        r2 = simulate(script, NoiseProfile(**{**noise.__dict__, "seed": noise.seed + 1}),
                      camera, params)
        assert [d.score for d in r1.detections] != [d.score for d in r2.detections]


class TestScriptValidation:
    def test_exit_requires_prior_enter(self):
        with pytest.raises(ValueError):
            ScenarioScript(
                name="bad", duration_frames=20,
                agents=(AgentScript(0, ObjectClass.PERSON, ((0, 0.0, 0.0),)),
                        AgentScript(1, ObjectClass.VEHICLE, ((0, 1.0, 0.0),))),
                events=(ScenarioEvent("exit_vehicle", 0, 5, 8, target_id=1),),
            )

    def test_event_window_inside_duration(self):
        with pytest.raises(ValueError):
            ScenarioScript(
                name="bad", duration_frames=10,
                agents=(AgentScript(0, ObjectClass.PERSON, ((0, 0.0, 0.0),)),),
                events=(ScenarioEvent("occlude", 0, 5, 12),),
            )

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError):
            ScenarioScript(
                name="bad", duration_frames=10,
                agents=(AgentScript(0, ObjectClass.PERSON, ((0, 0.0, 0.0),)),),
                events=(ScenarioEvent("occlude", 7, 1, 2),),
            )


class TestStandardSuite:
    def test_suite_size(self):
        assert len(standard_suite()) == 20

    def test_unique_names(self):
        names = [s.name for s, _ in standard_suite()]
        assert len(set(names)) == 20

    def test_every_scenario_simulates(self, camera, params):
        for script, noise in standard_suite():
            result = simulate(script, noise, camera, params)
            assert result.detections
            assert len(result.ground_truth) == script.duration_frames * len(script.agents)

    def test_capacity_scenario_has_six_containment_intents(self):
        script, _ = scenario_by_name("capacity_stress")
        enters = [e for e in script.events if e.kind == "enter_vehicle"]
        assert len(enters) == 6
        assert len({e.agent_id for e in enters}) == 6

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario_by_name("no_such_scenario")


class TestDetectionStatistics:
    def test_counts_match_expectation_chi_square(self, camera, params):
        """Detections = Binomial(visible frames, 1 - miss) + Poisson clutter."""
        script, _ = scenario_by_name("walk_single")
        base = NoiseProfile(detection_miss_prob_visible=0.1, false_positive_rate=0.3)
        duration = script.duration_frames
        miss = base.detection_miss_prob_visible
        rate = base.false_positive_rate

        z_squares = []
        for seed in range(30):
            noise = NoiseProfile(**{**base.__dict__, "seed": 4000 + seed})
            result = simulate(script, noise, camera, params)
            visible = sum(r.state is VisibilityState.VISIBLE for r in result.ground_truth)
            expected = visible * (1 - miss) + duration * rate
            variance = visible * miss * (1 - miss) + duration * rate
            z_squares.append((len(result.detections) - expected) ** 2 / variance)
        stat = sum(z_squares)
        p_value = chi2.sf(stat, df=len(z_squares))
        assert p_value > 0.01
