import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fluenttrack import fileio
from fluenttrack.cli import EXIT_INPUT, EXIT_OK, fit_pose_model, main
from fluenttrack.core import ObjectClass, Trajectory, TrajectoryPoint, VisibilityState


def run(args):
    return main([str(a) for a in args])


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["simulate", "--scenario", "walk_single", "--seed", 7,
                        "--out", out]) == EXIT_OK
        for name in ("detections.jsonl", "ground_truth.jsonl", "camera.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_scenario_lists_names(self, tmp_path, capsys):
        code = run(["simulate", "--scenario", "nope", "--out", tmp_path / "x"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "walk_single" in err  # valid names are listed

    def test_creates_output_dir(self, tmp_path):
        out = tmp_path / "deep" / "nested"
        assert run(["simulate", "--scenario", "walk_single", "--out", out]) == EXIT_OK
        assert (out / "detections.jsonl").exists()

    def test_script_file(self, tmp_path):
        src = tmp_path / "sim"
        run(["simulate", "--scenario", "occlude_short", "--out", src])
        code = run(["simulate", "--script", src / "scenario.json",
                    "--out", tmp_path / "again"])
        assert code == EXIT_OK


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "enter_exit_quick"
    assert run(["simulate", "--scenario", "enter_exit_quick", "--out", out]) == EXIT_OK
    return out


class TestTrackCommand:
    def test_track_produces_contained_frames(self, simulated, tmp_path):
        out = tmp_path / "tracked"
        code = run(["track", "--detections", simulated / "detections.jsonl",
                    "--camera", simulated / "camera.json", "--out", out])
        assert code == EXIT_OK
        trajectories = fileio.read_trajectories(out / "trajectories.jsonl")
        states = [p.state for t in trajectories for p in t.points]
        assert VisibilityState.CONTAINED in states
        assert (out / "frame_parses.jsonl").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "objective" in summary and "container_objective" in summary

    def test_empty_detections(self, simulated, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "tracked_empty"
        code = run(["track", "--detections", empty,
                    "--camera", simulated / "camera.json", "--out", out])
        assert code == EXIT_OK
        assert fileio.read_trajectories(out / "trajectories.jsonl") == []

    def test_missing_camera_is_input_error(self, simulated, tmp_path):
        code = run(["track", "--detections", simulated / "detections.jsonl",
                    "--camera", tmp_path / "missing.json", "--out", tmp_path / "x"])
        assert code == EXIT_INPUT

    def test_non_finite_box_is_input_error(self, simulated, tmp_path):
        lines = (simulated / "detections.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["bbox"][0] = float("nan")
        bad = tmp_path / "detections.jsonl"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        out = tmp_path / "tracked_nan"
        code = run(["track", "--detections", bad,
                    "--camera", simulated / "camera.json", "--out", out])
        assert code == EXIT_INPUT
        assert not (out / "trajectories.jsonl").exists()

    def test_infinite_frame_rate_is_input_error(self, simulated, tmp_path):
        camera = json.loads((simulated / "camera.json").read_text())
        camera["frame_rate"] = float("inf")
        bad = tmp_path / "camera.json"
        bad.write_text(json.dumps(camera))
        out = tmp_path / "tracked_inf"
        code = run(["track", "--detections", simulated / "detections.jsonl",
                    "--camera", bad, "--out", out])
        assert code == EXIT_INPUT
        assert not out.exists()

    def test_non_finite_pose_is_input_error(self, simulated, tmp_path):
        lines = (simulated / "detections.jsonl").read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if "pose_feature" in json.loads(line))
        record = json.loads(lines[index])
        record["pose_feature"][0] = float("nan")
        lines[index] = json.dumps(record)
        bad = tmp_path / "detections.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "tracked_nan_pose"
        code = run(["track", "--detections", bad,
                    "--camera", simulated / "camera.json", "--out", out])
        assert code == EXIT_INPUT
        assert not out.exists()

    def test_batch_sequence_dirs(self, simulated, tmp_path):
        out = tmp_path / "batch"
        code = run(["track", simulated, "--out", out, "--jobs", 2])
        assert code == EXIT_OK
        assert (out / simulated.name / "trajectories.jsonl").exists()


class TestEvaluateCommand:
    def test_perfect_predictions_score_one(self, simulated, tmp_path):
        gt = fileio.read_ground_truth(simulated / "ground_truth.jsonl")
        # predictions identical to ground truth
        by_id = {}
        for r in gt:
            by_id.setdefault(r.object_id, []).append(r)
        trajectories = []
        for oid, records in sorted(by_id.items()):
            records.sort(key=lambda r: r.frame)
            points = tuple(
                TrajectoryPoint(r.frame, r.location, r.state, "walking", r.container_id)
                for r in records
            )
            trajectories.append(Trajectory(oid, records[0].object_class, points))
        pred_path = tmp_path / "pred.jsonl"
        fileio.write_trajectories(pred_path, trajectories)
        out = tmp_path / "metrics.json"
        code = run(["evaluate", "--predictions", pred_path,
                    "--ground-truth", simulated / "ground_truth.jsonl", "--out", out])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["MOTA"] == 1.0
        for field in ("MOTA", "MOTP", "MODA", "MODP", "FP", "FN", "IDS", "Frag"):
            assert field in payload
        assert "fluents" in payload

    def test_id_collision_is_input_error(self, simulated, tmp_path):
        gt = tmp_path / "gt.jsonl"
        row = json.dumps({"frame": 0, "object_id": 1, "location": [0.0, 0.0],
                          "state": "Visible"})
        gt.write_text(row + "\n" + row + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text("")
        code = run(["evaluate", "--predictions", pred, "--ground-truth", gt,
                    "--out", tmp_path / "m.json"])
        assert code == EXIT_INPUT

    def test_csv_format(self, simulated, tmp_path):
        pred = tmp_path / "pred.jsonl"
        pred.write_text("")
        out = tmp_path / "metrics.csv"
        code = run(["evaluate", "--predictions", pred,
                    "--ground-truth", simulated / "ground_truth.jsonl",
                    "--format", "csv", "--out", out, "--sequence", "quick"])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",") == fileio.CSV_COLUMNS
        assert lines[1].startswith("quick,")


class TestFitModelCommand:
    def test_fit_from_clips(self, tmp_path):
        clips = tmp_path / "clips.jsonl"
        rows = [
            {"action": "walking", "pose_feature": [0.0, 0.0],
             "transitions": [["Visible", "walking", "Visible"]]},
            {"action": "walking", "pose_feature": [2.0, 0.0],
             "transitions": [["Visible", "walking", "Occluded"]]},
            {"action": "enter_vehicle", "vehicle_fluent_feature": [1.0, 1.0],
             "transitions": [["Occluded", "enter_vehicle", "Contained"]]},
            {"action": "enter_vehicle", "vehicle_fluent_feature": [3.0, 3.0]},
        ]
        clips.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "models.json"
        assert run(["fit-model", "--clips", clips, "--out", out]) == EXIT_OK
        models, templates, table = fileio.read_action_models(out)
        np.testing.assert_allclose(models["walking"].mean, [1.0, 0.0])
        # unbiased covariance of {0,2} is 2 on the first axis, shrunk by
        # lambda = 1e-3 * trace/d = 1e-3
        np.testing.assert_allclose(
            models["walking"].covariance, [[2.001, 0.0], [0.0, 0.001]], atol=1e-12
        )
        np.testing.assert_allclose(templates["enter_vehicle"], [2.0, 2.0])

    def test_single_sample_covariance_rejected(self):
        with pytest.raises(ValueError):
            fit_pose_model("walking", [np.zeros(2)])

    def test_zero_variance_gets_floor(self):
        model = fit_pose_model("walking", [np.ones(3), np.ones(3)])
        np.testing.assert_allclose(model.covariance, 1e-3 * np.eye(3), atol=1e-15)


class TestOracleCommand:
    def test_report_fields_and_zero_gap(self, tmp_path, capsys):
        # one short confident track: an easy single-object instance
        rng = np.random.default_rng(0)
        proto = rng.normal(size=8)
        proto /= np.linalg.norm(proto)
        from fluenttrack.core import Detection
        dets = [
            Detection(f, ObjectClass.PERSON, (1.0 + 0.2 * f, 2.0, 0.5, 1.7), 0.97, proto)
            for f in range(6)
        ]
        det_path = tmp_path / "detections.jsonl"
        fileio.write_detections(det_path, dets)
        cam_path = tmp_path / "camera.json"
        from fluenttrack.simulator import default_camera
        fileio.write_camera(cam_path, default_camera())
        out = tmp_path / "report.json"
        code = run(["oracle", "--detections", det_path, "--camera", cam_path,
                    "--out", out])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert set(report) == {"dp_objective", "oracle_objective", "gap"}
        assert abs(report["gap"]) < 1e-9

    def test_oversized_instance_is_input_error(self, tmp_path):
        rng = np.random.default_rng(1)
        dets = []
        for f in range(14):
            v = rng.normal(size=8)
            v /= np.linalg.norm(v)
            from fluenttrack.core import Detection
            dets.append(Detection(f, ObjectClass.PERSON,
                                  (1.0 + 7.0 * f, 2.0, 0.5, 1.7), 0.6, v))
        det_path = tmp_path / "detections.jsonl"
        fileio.write_detections(det_path, dets)
        cam_path = tmp_path / "camera.json"
        from fluenttrack.simulator import default_camera
        fileio.write_camera(cam_path, default_camera())
        code = run(["oracle", "--detections", det_path, "--camera", cam_path,
                    "--out", tmp_path / "r.json"])
        assert code == EXIT_INPUT


class TestRenderCommand:
    def test_empty_trajectories_valid_svg(self, tmp_path):
        pred = tmp_path / "empty.jsonl"
        pred.write_text("")
        out = tmp_path / "plot.svg"
        assert run(["render", "--trajectories", pred, "--out", out]) == EXIT_OK
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_contained_segment_dashed(self, tmp_path):
        points = tuple(
            [TrajectoryPoint(f, np.array([float(f), 0.0]), VisibilityState.VISIBLE,
                             "walking") for f in range(3)]
            + [TrajectoryPoint(f, np.array([float(f), 0.0]), VisibilityState.CONTAINED,
                               "walking", container_id=0) for f in range(3, 6)]
        )
        traj = Trajectory(0, ObjectClass.PERSON, points)
        pred = tmp_path / "traj.jsonl"
        fileio.write_trajectories(pred, [traj])
        out = tmp_path / "plot.svg"
        assert run(["render", "--trajectories", pred, "--out", out]) == EXIT_OK
        text = out.read_text()
        root = ET.fromstring(text)
        dashes = [el for el in root.iter() if el.get("stroke-dasharray") == "8,4"]
        assert len(dashes) == 1

    def test_deterministic_bytes(self, tmp_path):
        pred = tmp_path / "traj.jsonl"
        points = tuple(
            TrajectoryPoint(f, np.array([float(f), 1.0]), VisibilityState.VISIBLE,
                            "walking") for f in range(4)
        )
        fileio.write_trajectories(pred, [Trajectory(2, ObjectClass.PERSON, points)])
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["render", "--trajectories", pred, "--out", out1])
        run(["render", "--trajectories", pred, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()
