import json

import numpy as np
import pytest

from fluenttrack import fileio
from fluenttrack.core import (
    CameraModel,
    Detection,
    ObjectClass,
    Trajectory,
    TrajectoryPoint,
    VisibilityState,
)
from fluenttrack.fileio import InputFormatError
from fluenttrack.grammar import (
    default_action_models,
    default_transition_table,
    default_vehicle_templates,
)
from fluenttrack.metrics import MatchResult, clear_metrics
from fluenttrack.simulator import GroundTruthRecord, scenario_by_name

from conftest import unit_vector


def sample_detections():
    rng = np.random.default_rng(0)
    pose = rng.normal(size=4)
    fluent = rng.normal(size=4)
    d1 = Detection(3, ObjectClass.PERSON, (1.0, 2.0, 0.5, 1.7), 0.875,
                   unit_vector(rng), pose_feature=pose)
    d2 = Detection(4, ObjectClass.VEHICLE, (5.0, 2.0, 4.0, 1.6), 0.9375,
                   unit_vector(rng), vehicle_fluent_feature=fluent)
    d3 = Detection(5, ObjectClass.SUITCASE, (2.0, 2.0, 0.4, 0.6), 0.5,
                   unit_vector(rng))
    return [d1, d2, d3]


class TestDetectionsRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        original = sample_detections()
        fileio.write_detections(path, original)
        loaded = fileio.read_detections(path)
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert a.frame == b.frame
            assert a.object_class is b.object_class
            assert a.bbox == b.bbox
            assert a.score == b.score  # exact: json round-trips float repr
            np.testing.assert_array_equal(a.descriptor, b.descriptor)
            if a.pose_feature is None:
                assert b.pose_feature is None
            else:
                np.testing.assert_array_equal(a.pose_feature, b.pose_feature)

    def test_line_numbered_diagnostic(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        good = json.dumps({"frame": 0, "class": "person", "bbox": [0, 0, 1, 2],
                           "score": 0.5, "descriptor": [1.0, 0.0]})
        path.write_text(good + "\n" + "{broken\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=r":2"):
            fileio.read_detections(path)

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text(json.dumps({"frame": 0, "class": "person"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(InputFormatError, match=r":1"):
            fileio.read_detections(path)


class TestCameraRoundTrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "camera.json"
        camera = CameraModel(np.array([[1.0, 0.1, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]),
                             12.5)
        fileio.write_camera(path, camera)
        loaded = fileio.read_camera(path)
        np.testing.assert_array_equal(camera.homography, loaded.homography)
        assert camera.frame_rate == loaded.frame_rate


class TestTrajectoriesRoundTrip:
    def test_roundtrip(self, tmp_path):
        points = (
            TrajectoryPoint(0, np.array([1.0, 2.0]), VisibilityState.VISIBLE, "walking"),
            TrajectoryPoint(1, np.array([1.25, 2.0]), VisibilityState.OCCLUDED, "walking"),
            TrajectoryPoint(2, np.array([1.5, 2.0]), VisibilityState.CONTAINED,
                            "enter_vehicle", container_id=9),
        )
        traj = Trajectory(3, ObjectClass.PERSON, points)
        path = tmp_path / "trajectories.jsonl"
        fileio.write_trajectories(path, [traj])
        loaded = fileio.read_trajectories(path)
        assert len(loaded) == 1
        assert loaded[0].object_id == 3
        for a, b in zip(points, loaded[0].points):
            assert a.frame == b.frame and a.state is b.state and a.action == b.action
            assert a.container_id == b.container_id
            np.testing.assert_array_equal(a.location, b.location)


class TestGroundTruthRoundTrip:
    def test_roundtrip(self, tmp_path):
        records = [
            GroundTruthRecord(0, 1, ObjectClass.PERSON, np.array([3.0, 4.0]),
                              VisibilityState.VISIBLE),
            GroundTruthRecord(1, 1, ObjectClass.PERSON, np.array([3.5, 4.0]),
                              VisibilityState.CONTAINED, container_id=0),
        ]
        path = tmp_path / "gt.jsonl"
        fileio.write_ground_truth(path, records)
        loaded = fileio.read_ground_truth(path)
        for a, b in zip(records, loaded):
            assert (a.frame, a.object_id, a.state, a.container_id) == (
                b.frame, b.object_id, b.state, b.container_id)
            np.testing.assert_array_equal(a.location, b.location)


class TestTableAndModels:
    def test_transition_table_roundtrip(self, tmp_path):
        table = default_transition_table()
        path = tmp_path / "table.json"
        fileio.write_transition_table(path, table, alpha=1.0)
        loaded = fileio.read_transition_table(path)
        assert set(loaded.rows) == set(table.rows)
        for key, row in table.rows.items():
            for state, p in row.items():
                assert loaded.rows[key].get(state, 0.0) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("value", [float("nan"), -0.5])
    def test_transition_table_bad_probability_rejected(self, tmp_path, value):
        # {Visible: 1.0} alone is a valid row, so the bad entry must not be dropped
        path = tmp_path / "table.json"
        fileio.write_transition_table(path, default_transition_table())
        payload = json.loads(path.read_text())
        row = next(r for r in payload["rows"]
                   if (r["state"], r["action"]) == ("Occluded", "walking"))
        row["next"] = {"Occluded": value, "Visible": 1.0}
        path.write_text(json.dumps(payload))
        with pytest.raises(InputFormatError):
            fileio.read_transition_table(path)

    def test_action_models_roundtrip(self, tmp_path):
        models = default_action_models()
        templates = default_vehicle_templates()
        table = default_transition_table()
        path = tmp_path / "models.json"
        fileio.write_action_models(path, models, templates, table)
        m2, t2, table2 = fileio.read_action_models(path)
        assert set(m2) == set(models)
        for name in models:
            np.testing.assert_array_equal(models[name].mean, m2[name].mean)
            np.testing.assert_array_equal(models[name].covariance, m2[name].covariance)
            np.testing.assert_array_equal(templates[name], t2[name])
        assert set(table2.rows) == set(table.rows)


class TestScenarioRoundTrip:
    def test_roundtrip(self, tmp_path):
        script, noise = scenario_by_name("enter_drive_exit")
        path = tmp_path / "scenario.json"
        fileio.write_scenario(path, script, noise)
        script2, noise2 = fileio.read_scenario(path)
        assert script2 == script
        assert noise2 == noise


class TestMetricsReport:
    def test_json_report_fields(self, tmp_path):
        clear = clear_metrics(MatchResult(fp=5, fn=10, ids=2), 100)
        path = tmp_path / "metrics.json"
        fileio.write_metrics_report(path, clear)
        payload = json.loads(path.read_text())
        for field in ("MOTA", "MOTP", "MODA", "MODP", "FP", "FN", "IDS", "Frag"):
            assert field in payload

    def test_csv_report_columns(self, tmp_path):
        clear = clear_metrics(MatchResult(fp=5, fn=10, ids=2), 100)
        path = tmp_path / "metrics.csv"
        fileio.write_metrics_report(path, clear, fmt="csv", sequence="seq0")
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == fileio.CSV_COLUMNS
        assert lines[1].startswith("seq0,")
