import math

import numpy as np
import pytest

from fluenttrack.core import (
    ActionModel,
    CameraModel,
    DegenerateProjectionError,
    Detection,
    ObjectClass,
    Tracklet,
    descriptor_similarity,
    ground_distance,
    pool_descriptors,
    project_to_ground,
)


class TestProjectToGround:
    def test_identity_maps_bottom_center(self):
        cam = CameraModel(np.eye(3), 30.0)
        point = project_to_ground(cam, (8, 10, 4, 10))
        np.testing.assert_allclose(point, [10.0, 20.0])

    def test_pure_scaling(self):
        cam = CameraModel(np.diag([2.0, 2.0, 1.0]), 30.0)
        point = project_to_ground(cam, (8, 10, 4, 10))
        np.testing.assert_allclose(point, [20.0, 40.0])

    def test_degenerate_third_row(self):
        h = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
        with pytest.raises(DegenerateProjectionError):
            project_to_ground(h, (8, 10, 4, 10))

    def test_roundtrip_through_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h = np.eye(3) + rng.normal(scale=0.1, size=(3, 3))
            if abs(np.linalg.det(h)) < 1e-6:
                continue
            cam = CameraModel(h, 30.0)
            ground = rng.uniform(-10, 10, size=2)
            # pull the ground point back to pixels, re-project its box
            pixel = np.linalg.inv(h) @ np.array([ground[0], ground[1], 1.0])
            if abs(pixel[2]) < 1e-6:
                continue
            pixel = pixel[:2] / pixel[2]
            bbox = (pixel[0] - 1.0, pixel[1] - 2.0, 2.0, 2.0)
            np.testing.assert_allclose(project_to_ground(cam, bbox), ground, atol=1e-6)


class TestGroundDistance:
    def test_three_four_five(self):
        assert ground_distance((0, 0), (3, 4)) == 5.0

    def test_identity(self):
        assert ground_distance((2.5, -1.0), (2.5, -1.0)) == 0.0

    def test_hand_arithmetic(self):
        assert ground_distance((1, 1), (4, 5)) == pytest.approx(5.0, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b, c = rng.uniform(-50, 50, size=(3, 2))
            assert ground_distance(a, c) <= (
                ground_distance(a, b) + ground_distance(b, c) + 1e-9
            )


class TestDescriptorSimilarity:
    def test_self_similarity(self):
        v = np.array([0.6, 0.8])
        assert descriptor_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert descriptor_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_opposite(self):
        v = np.array([0.6, 0.8])
        assert descriptor_similarity(v, -v) == pytest.approx(-1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.normal(size=6)
            a /= np.linalg.norm(a)
            b = rng.normal(size=6)
            b /= np.linalg.norm(b)
            assert descriptor_similarity(a, b) == descriptor_similarity(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            descriptor_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            descriptor_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


class TestPoolDescriptors:
    def test_single_vector(self):
        v = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(pool_descriptors([v]), v)

    def test_identical_vectors(self):
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(pool_descriptors([e1, e1]), e1)

    def test_two_basis_vectors(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        expected = np.array([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])
        np.testing.assert_allclose(pool_descriptors([e1, e2]), expected)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            vs = rng.normal(size=(rng.integers(1, 8), 12))
            vs = vs / np.linalg.norm(vs, axis=1, keepdims=True)
            pooled = pool_descriptors(list(vs))
            assert abs(np.linalg.norm(pooled) - 1.0) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_descriptors([])

    def test_cancellation_rejected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            pool_descriptors([v, -v])


class TestTypes:
    def test_camera_requires_invertible(self):
        with pytest.raises(ValueError):
            CameraModel(np.zeros((3, 3)), 30.0)

    def test_camera_requires_positive_fps(self):
        with pytest.raises(ValueError):
            CameraModel(np.eye(3), 0.0)

    def test_detection_validation(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            Detection(0, ObjectClass.PERSON, (0, 0, -1, 2), 0.5, v)
        with pytest.raises(ValueError):
            Detection(0, ObjectClass.PERSON, (0, 0, 1, 2), 1.5, v)
        with pytest.raises(ValueError):
            Detection(0, ObjectClass.PERSON, (0, 0, 1, 2), 0.5, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Detection(0, ObjectClass.SUITCASE, (0, 0, 1, 2), 0.5, v,
                      pose_feature=np.array([1.0]))
        with pytest.raises(ValueError):
            Detection(0, ObjectClass.PERSON, (0, 0, 1, 2), 0.5, v,
                      vehicle_fluent_feature=np.array([1.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_detection_rejects_non_finite_bbox(self, slot, value):
        bbox = [0.0, 0.0, 1.0, 2.0]
        bbox[slot] = value
        with pytest.raises(ValueError, match="finite"):
            Detection(0, ObjectClass.PERSON, tuple(bbox), 0.5, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_camera_rejects_non_finite_homography(self, value):
        h = np.eye(3)
        h[0, 2] = value
        with pytest.raises(ValueError, match="finite"):
            CameraModel(h, 30.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_camera_rejects_non_finite_frame_rate(self, value):
        with pytest.raises(ValueError, match="finite"):
            CameraModel(np.eye(3), value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["descriptor", "pose_feature",
                                       "vehicle_fluent_feature"])
    def test_detection_rejects_non_finite_vector(self, field, value):
        fields = {"descriptor": np.array([1.0, 0.0])}
        fields[field] = np.array([value, 0.0])
        cls = ObjectClass.VEHICLE if field == "vehicle_fluent_feature" else ObjectClass.PERSON
        with pytest.raises(ValueError, match="finite"):
            Detection(0, cls, (0.0, 0.0, 1.0, 2.0), 0.5, **fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_tracklet_rejects_non_finite_descriptor(self, value):
        with pytest.raises(ValueError, match="finite"):
            Tracklet(0, ObjectClass.PERSON, 0, np.zeros((1, 2)), np.array([value, 0.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_action_model_rejects_non_finite_mean(self, value):
        with pytest.raises(ValueError, match="finite"):
            ActionModel("walking", np.array([value, 0.0]), np.eye(2))

    def test_trajectory_contiguity(self):
        from fluenttrack.core import Trajectory, TrajectoryPoint, VisibilityState
        p0 = TrajectoryPoint(0, np.zeros(2), VisibilityState.VISIBLE)
        p2 = TrajectoryPoint(2, np.zeros(2), VisibilityState.VISIBLE)
        with pytest.raises(ValueError):
            Trajectory(0, ObjectClass.PERSON, (p0, p2))

    def test_container_id_iff_contained(self):
        from fluenttrack.core import TrajectoryPoint, VisibilityState
        with pytest.raises(ValueError):
            TrajectoryPoint(0, np.zeros(2), VisibilityState.VISIBLE, container_id=1)
        with pytest.raises(ValueError):
            TrajectoryPoint(0, np.zeros(2), VisibilityState.CONTAINED)
