import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fluenttrack.core import (
    ActionModel,
    CameraModel,
    DegenerateProjectionError,
    Detection,
    ModelParameters,
    ObjectClass,
    Tracklet,
    detections_from_columns,
    ground_distance,
    ground_distances,
    ground_points,
    pool_descriptors,
    row_dots,
)
from fluenttrack.simulator import default_camera

from conftest import same_bits
from core_reference import descriptor_similarity, project_to_ground


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
        # invertible (det -20), but the foot point (10, 20) of the box has
        # homogeneous scale 20 - 20 = 0
        cam = CameraModel([[1, 0, 0], [0, 1, 0], [0, 1, -20]], 10)
        with pytest.raises(DegenerateProjectionError):
            project_to_ground(cam, (8, 10, 4, 10))

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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_action_model_rejects_non_finite_covariance(self, value):
        cov = np.eye(2)
        cov[0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            ActionModel("walking", np.zeros(2), cov)

    @pytest.mark.parametrize("cov", [np.zeros((2, 2)), np.diag([1.0, -1.0]), -np.eye(2)])
    def test_action_model_rejects_non_positive_definite(self, cov):
        with pytest.raises(ValueError, match="positive definite"):
            ActionModel("walking", np.zeros(2), cov)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    @pytest.mark.parametrize("name", ["tau_s", "tau_sigma", "tau_c", "solver_entry_exit_cost"])
    def test_model_parameters_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            ModelParameters(**{name: value})

    def test_action_model_caches_log_determinant(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert ActionModel("walking", np.zeros(2), cov).log_det == np.linalg.slogdet(cov)[1]

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


COORDINATES = st.floats(-1e4, 1e4, allow_nan=False)


class TestBatchedGeometry:
    """The stacked kernels keep the bits of their scalar references."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hnp.arrays(float, st.tuples(st.integers(0, 40), st.just(4)), elements=COORDINATES))
    def test_ground_distances_match_ground_distance(self, rows):
        p, q = rows[:, :2], rows[:, 2:]
        expected = [ground_distance(a, b) for a, b in zip(p, q)]
        assert same_bits(ground_distances(p, q), np.reshape(expected, -1))

    def test_random_distances_match(self):
        rng = np.random.default_rng(5)
        p, q = rng.normal(scale=20.0, size=(2, 20000, 2))
        assert same_bits(ground_distances(p, q), [ground_distance(a, b) for a, b in zip(p, q)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hnp.arrays(float, (3, 3), elements=st.floats(-2.0, 2.0)),
           hnp.arrays(float, st.tuples(st.integers(0, 30), st.just(4)),
                      elements=st.floats(0.5, 2000.0)))
    def test_ground_points_match_project_to_ground(self, homography, boxes):
        homography[2, 2] = 5.0  # keeps the determinant and the scale away from 0
        try:
            camera = CameraModel(homography, 10.0)
        except ValueError:
            return
        try:
            expected = np.reshape([project_to_ground(camera, box) for box in boxes], (-1, 2))
        except DegenerateProjectionError as exc:
            with pytest.raises(DegenerateProjectionError, match=re.escape(str(exc))):
                ground_points(camera, boxes)
            return
        assert same_bits(ground_points(camera, boxes), expected)

    def test_suite_matches_scalar_references(self, suite_runs):
        camera = default_camera()
        for name, sim in suite_runs:
            dets = sorted(sim.detections, key=lambda d: d.frame)
            points = ground_points(camera, [d.bbox for d in dets])
            assert same_bits(points, [project_to_ground(camera, d.bbox) for d in dets]), name
            # every pair of detections one to five frames apart
            frames = np.array([d.frame for d in dets])
            apart = frames[None, :] - frames[:, None]
            i, j = np.nonzero((apart >= 1) & (apart <= 5))
            assert len(i) > 0
            assert same_bits(ground_distances(points[i], points[j]),
                             [ground_distance(points[a], points[b]) for a, b in zip(i, j)]), name
            descriptors = np.array([d.descriptor for d in dets])
            assert same_bits(np.sqrt(row_dots(descriptors, descriptors)),
                             [np.linalg.norm(v) for v in descriptors]), name

    def test_degenerate_box_raises_as_the_scalar_call(self):
        camera = CameraModel(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, -10.0]]), 10.0)
        boxes = [(0.0, 0.0, 2.0, 4.0), (0.0, 8.0, 2.0, 2.0), (0.0, 9.0, 2.0, 1.0)]
        with pytest.raises(DegenerateProjectionError) as scalar:
            project_to_ground(camera, boxes[1])
        with pytest.raises(DegenerateProjectionError) as batched:
            ground_points(camera, boxes)
        assert str(batched.value) == str(scalar.value)

    def test_gathered_rows_match_one_gather(self, monkeypatch):
        from fluenttrack import core

        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 50, 3))
        i, j = rng.integers(0, 50, size=(2, 333))
        monkeypatch.setattr(core, "GATHER_BLOCK", 10)
        for kernel in (ground_distances, row_dots):
            assert same_bits(core.gathered_rows(kernel, a, i, b, j), kernel(a[i], b[j]))
        assert core.gathered_rows(row_dots, a, i[:0], b, j[:0]).shape == (0,)

    def test_empty_inputs(self):
        assert ground_points(CameraModel(np.eye(3), 10.0), []).shape == (0, 2)
        assert ground_distances(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)


NON_FINITE = (math.nan, math.inf, -math.inf)


def _set(name, value):
    return lambda draw, r: r.update({name: value})


def _entry(name, values):
    def fault(draw, r):
        v = list(r[name])
        v[draw(st.integers(0, len(v) - 1))] = draw(st.sampled_from(values))
        r[name] = type(r[name])(v)
    return fault


def _scaled(factor):
    return lambda draw, r: r.update(descriptor=[factor * v for v in r["descriptor"]])


def _feature_on(name, object_class):
    return lambda draw, r: r.update({"object_class": object_class, name: [0.5] * 3})


# Ways to change one record that Detection accepts, each aimed at one of its
# checks; the scores 0 and 1 and a descriptor scaled by less than
# UNIT_NORM_TOL sit on the accepting side of their bounds
DETECTION_FAULTS = (
    _set("frame", -1), _entry("bbox", NON_FINITE), _entry("bbox", [0.0, -0.0, -1.0]),
    _set("score", 1.5), _set("score", -0.25), _set("score", math.nan), _set("score", 1.0),
    _set("score", 0.0), _entry("descriptor", NON_FINITE), _scaled(1 + 2e-6), _scaled(1 + 5e-7),
    _feature_on("pose_feature", ObjectClass.VEHICLE),
    _feature_on("pose_feature", ObjectClass.SUITCASE),
    _feature_on("vehicle_fluent_feature", ObjectClass.PERSON),
    _feature_on("vehicle_fluent_feature", ObjectClass.SUITCASE),
)


@st.composite
def detection_columns(draw):
    """One to four records that ``Detection`` accepts, each then broken by
    at most one of ``DETECTION_FAULTS`` (or a NaN in a feature); every
    feature has one length across the records."""
    finite = st.floats(-5.0, 5.0)
    dim = draw(st.integers(1, 4))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        descriptor = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)
                                   .filter(lambda v: np.linalg.norm(v) > 0.1)))
        object_class = draw(st.sampled_from(list(ObjectClass)))
        record = {
            "frame": draw(st.integers(0, 50)),
            "object_class": object_class,
            "bbox": (draw(finite), draw(finite), draw(st.floats(0.01, 5.0)),
                     draw(st.floats(0.01, 5.0))),
            "score": draw(st.floats(0.0, 1.0)),
            "descriptor": (descriptor / np.linalg.norm(descriptor)).tolist(),
        }
        name = {ObjectClass.PERSON: "pose_feature",
                ObjectClass.VEHICLE: "vehicle_fluent_feature"}.get(object_class)
        if name and draw(st.booleans()):
            record[name] = draw(st.lists(finite, min_size=3, max_size=3))
        fault = draw(st.sampled_from((None,) * len(DETECTION_FAULTS) + DETECTION_FAULTS))
        if fault is not None:
            fault(draw, record)
        elif name in record and draw(st.booleans()):
            _entry(name, NON_FINITE)(draw, record)
        records.append(record)
    return records, {"descriptor": dim, "pose_feature": 3, "vehicle_fluent_feature": 3}


class TestDetectionsFromColumns:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(detection_columns())
    def test_accepts_and_rejects_as_post_init(self, drawn):
        # the column check rejects a set of records if and only if
        # Detection rejects one of them, with the message Detection gives the
        # row it names; accepted rows are the Detections, bit for bit
        records, dims = drawn
        expected = []
        for record in records:
            try:
                expected.append(Detection(**record))
            except ValueError as exc:
                expected.append(str(exc))
        features = {}
        for name in ("pose_feature", "vehicle_fluent_feature"):
            rows = [i for i, r in enumerate(records) if name in r]
            features[name] = (rows, np.reshape([records[i][name] for i in rows],
                                               (len(rows), dims[name])))

        def columns():
            return detections_from_columns(
                [r["frame"] for r in records], [r["object_class"] for r in records],
                [r["bbox"] for r in records], [r["score"] for r in records],
                [r["descriptor"] for r in records], features)

        if any(isinstance(e, str) for e in expected):
            with pytest.raises(ValueError) as exc:
                columns()
            row = int(re.match(r"detection (\d+): ", str(exc.value)).group(1))
            assert str(exc.value) == f"detection {row}: {expected[row]}"
            return
        for got, want in zip(columns(), expected, strict=True):
            assert got.frame == want.frame and got.object_class is want.object_class
            assert type(got.bbox) is tuple and all(type(v) is float for v in got.bbox)
            assert same_bits(got.bbox, want.bbox)
            assert type(got.score) is float and same_bits(got.score, want.score)
            for name in ("descriptor", "pose_feature", "vehicle_fluent_feature"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None)
                if a is not None:
                    assert same_bits(a, b) and a.ndim == 1 and not a.flags.writeable

    def test_empty_columns(self):
        assert detections_from_columns([], [], np.empty((0, 4)), np.empty(0),
                                       np.empty((0, 2)), {}) == []
