import gc
import json
import re
import shlex
import shutil
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fluenttrack import cli, fileio
from fluenttrack.cli import EXIT_INPUT, EXIT_OK, build_parser, fit_pose_model, main
from fluenttrack.core import ObjectClass, Trajectory, TrajectoryPoint, VisibilityState
from fluenttrack.metrics import Gate


def run(args):
    return main([str(a) for a in args])


def strict_json(text):
    """Parse ``text``, failing on the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


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

    @pytest.mark.parametrize("edit", [
        lambda s: s["agents"][0]["waypoints"][1].__setitem__(0, 2.5),
        lambda s: s["agents"][0].__setitem__("id", 0.7),
        lambda s: s["noise"].__setitem__("position_sigma", float("nan")),
    ], ids=["fractional_frame", "fractional_id", "nan_noise"])
    def test_malformed_script_is_input_error(self, tmp_path, capsys, edit):
        src = tmp_path / "sim"
        run(["simulate", "--scenario", "walk_single", "--out", src])
        script = json.loads((src / "scenario.json").read_text())
        edit(script)
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(script))
        out = tmp_path / "again"
        assert run(["simulate", "--script", bad, "--out", out]) == EXIT_INPUT
        assert not out.exists()
        assert f"{bad}:" in capsys.readouterr().err

    def test_missing_scenario_writes_nothing(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--out", out]) == EXIT_INPUT
        assert not out.exists()


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

    def test_non_finite_sigma_is_input_error(self, simulated, tmp_path):
        from fluenttrack.grammar import (
            default_action_models,
            default_transition_table,
            default_vehicle_templates,
        )

        models_path = tmp_path / "models.json"
        fileio.write_action_models(models_path, default_action_models(),
                                   default_vehicle_templates(), default_transition_table())
        payload = json.loads(models_path.read_text())
        entry = next(e for e in payload["actions"] if e["name"] == "close_trunk")
        entry["sigma"][0][0] = float("nan")
        models_path.write_text(json.dumps(payload))
        out = tmp_path / "tracked_nan_sigma"
        code = run(["track", "--detections", simulated / "detections.jsonl",
                    "--camera", simulated / "camera.json", "--out", out,
                    "--action-models", models_path])
        assert code == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tau-s", "--tau-sigma", "--tau-c"])
    def test_infinite_threshold_is_input_error(self, simulated, tmp_path, flag):
        out = tmp_path / "tracked_inf_tau"
        code = run(["track", "--detections", simulated / "detections.jsonl",
                    "--camera", simulated / "camera.json", "--out", out, flag, "inf"])
        assert code == EXIT_INPUT
        assert not out.exists()

    def test_batch_sequence_dirs(self, simulated, tmp_path):
        out = tmp_path / "batch"
        code = run(["track", simulated, "--out", out, "--jobs", 2])
        assert code == EXIT_OK
        assert (out / simulated.name / "trajectories.jsonl").exists()

    def test_repeated_sequence_name_is_input_error(self, simulated, tmp_path, capsys):
        # both would write out / enter_exit_quick
        other = tmp_path / "other" / simulated.name
        shutil.copytree(simulated, other)
        out = tmp_path / "batch"
        code = run(["track", simulated, other, "--out", out, "--jobs", 2])
        assert code == EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert str(simulated) in err and str(other) in err

    def test_sequence_dirs_exclude_detections_and_camera(self, simulated, tmp_path):
        out = tmp_path / "batch"
        code = run(["track", simulated, "--detections", tmp_path / "missing.jsonl",
                    "--camera", tmp_path / "missing.json", "--out", out])
        assert code == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_must_be_positive(self, simulated, tmp_path, jobs):
        out = tmp_path / "batch"
        assert run(["track", simulated, "--out", out, "--jobs", jobs]) == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_failed_batch_leaves_no_output(self, simulated, tmp_path, jobs):
        # the other sequences solve; "bad" has a NaN box on line 6. With more
        # workers than cores and frequent thread switches, outputs of
        # sequences still running when "bad" fails must go too.
        seqs = [simulated]
        for name in ("second", "bad", "third"):
            seqs.append(tmp_path / name)
            shutil.copytree(simulated, seqs[-1])
        lines = (tmp_path / "bad" / "detections.jsonl").read_text().splitlines()
        record = json.loads(lines[5])
        record["bbox"][0] = float("nan")
        lines[5] = json.dumps(record)
        (tmp_path / "bad" / "detections.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "batch"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            code = run(["track", *seqs, "--out", out, "--jobs", jobs])
        finally:
            sys.setswitchinterval(interval)
        assert code == EXIT_INPUT
        assert [p for p in out.rglob("*") if p.is_file()] == []
        assert not out.exists()

    def test_failed_rerun_keeps_earlier_outputs(self, simulated, tmp_path):
        # a batch succeeds; a re-run into the same --out fails on its second
        # sequence after the first has solved. Every file of the first run
        # stays byte for byte, and no staging directory is left behind
        seqs = []
        for name in ("a", "b"):
            seqs.append(tmp_path / "in" / name)
            shutil.copytree(simulated, seqs[-1])
        out = tmp_path / "out"
        assert run(["track", *seqs, "--out", out]) == EXIT_OK
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert len(before) == 6
        with open(seqs[1] / "detections.jsonl", "a") as f:
            f.write(json.dumps({"frame": "x"}) + "\n")
        assert run(["track", *seqs, "--out", out]) == EXIT_INPUT
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == ["a", "b"]

    @pytest.mark.parametrize("frame", [2**63, 2**64])
    def test_frame_beyond_int64_is_input_error(self, simulated, tmp_path, capsys, frame):
        # a frame that no int64 holds is refused by the reader with its line
        # (not an OverflowError in a later stage), and --out keeps the
        # earlier run's files
        seq = tmp_path / "in" / "seq"
        shutil.copytree(simulated, seq)
        out = tmp_path / "out"
        assert run(["track", seq, "--out", out]) == EXIT_OK
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        lines = (seq / "detections.jsonl").read_text().splitlines()
        record = json.loads(lines[-1])
        record["frame"] = frame
        (seq / "detections.jsonl").write_text("\n".join([*lines, json.dumps(record)]) + "\n")
        assert run(["track", seq, "--out", out]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{seq / 'detections.jsonl'}:{len(lines) + 1}: frame must lie within" in err
        assert "Traceback" not in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert [p.name for p in out.iterdir()] == ["seq"]

    @pytest.mark.parametrize("blocked", ["b/summary.json", "b"])
    def test_blocked_target_keeps_earlier_outputs(self, simulated, tmp_path, capsys, blocked):
        # a batch succeeds; then one of its targets is blocked (an output
        # path made a directory, or a sequence directory made a file) and
        # the first sequence's input changes. The re-run solves every
        # sequence, fails on the blocked target, and moves nothing
        seqs = []
        for name in ("a", "b"):
            seqs.append(tmp_path / "in" / name)
            shutil.copytree(simulated, seqs[-1])
        out = tmp_path / "out"
        assert run(["track", *seqs, "--out", out]) == EXIT_OK
        if blocked == "b":
            shutil.rmtree(out / "b")
            (out / "b").write_text("kept\n")
        else:
            (out / blocked).unlink()
            (out / blocked).mkdir()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        lines = (seqs[0] / "detections.jsonl").read_text().splitlines()
        (seqs[0] / "detections.jsonl").write_text("\n".join(lines[:len(lines) // 2]) + "\n")
        assert run(["track", *seqs, "--out", out]) == EXIT_INPUT
        assert str(out / blocked) in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == ["a", "b"]
        assert (out / blocked).is_dir() == (blocked != "b")

    @pytest.mark.parametrize("field", ["pose_feature", "vehicle_fluent_feature"])
    def test_feature_length_must_match_models(self, simulated, tmp_path, capsys, field):
        # every feature of the kind is cut alike, so the file agrees with itself
        records = [json.loads(line)
                   for line in (simulated / "detections.jsonl").read_text().splitlines()]
        for record in records:
            if field in record:
                record[field] = record[field][:2]
        first = next(i for i, record in enumerate(records, start=1) if field in record)
        bad = tmp_path / "detections.jsonl"
        bad.write_text("".join(json.dumps(record) + "\n" for record in records))
        out = tmp_path / "tracked"
        code = run(["track", "--detections", bad, "--camera", simulated / "camera.json",
                    "--out", out])
        assert code == EXIT_INPUT
        assert not out.exists()
        assert f"{bad}:{first}: {field} has 2 entries" in capsys.readouterr().err


def write_perfect_predictions(gt_path, pred_path):
    """Write trajectories identical to the ground truth at ``gt_path``."""
    by_id = {}
    for r in fileio.read_ground_truth(gt_path):
        by_id.setdefault(r.object_id, []).append(r)
    trajectories = []
    for oid, records in sorted(by_id.items()):
        records.sort(key=lambda r: r.frame)
        points = tuple(
            TrajectoryPoint(r.frame, r.location, r.state, "walking", r.container_id)
            for r in records
        )
        trajectories.append(Trajectory(oid, records[0].object_class, points))
    fileio.write_trajectories(pred_path, trajectories)


class TestEvaluateCommand:
    def test_perfect_predictions_score_one(self, simulated, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        write_perfect_predictions(simulated / "ground_truth.jsonl", pred_path)
        out = tmp_path / "metrics.json"
        code = run(["evaluate", "--predictions", pred_path,
                    "--ground-truth", simulated / "ground_truth.jsonl", "--out", out])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["MOTA"] == 1.0
        for field in ("MOTA", "MOTP", "MODA", "MODP", "FP", "FN", "IDS", "Frag"):
            assert field in payload
        assert "fluents" in payload

    def test_infinite_truth_location_is_input_error(self, simulated, tmp_path, capsys):
        lines = (simulated / "ground_truth.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record["location"] = [float("inf"), 1.0]
        lines[2] = json.dumps(record)
        gt = tmp_path / "gt.jsonl"
        gt.write_text("\n".join(lines) + "\n")
        pred = tmp_path / "pred.jsonl"
        write_perfect_predictions(simulated / "ground_truth.jsonl", pred)
        out = tmp_path / "metrics.json"
        code = run(["evaluate", "--predictions", pred, "--ground-truth", gt, "--out", out])
        assert code == EXIT_INPUT
        assert not out.exists()
        assert f"{gt}:3:" in capsys.readouterr().err

    def test_nan_predicted_location_is_input_error(self, simulated, tmp_path, capsys):
        good = {"object_id": 0, "class": "person",
                "track": [{"frame": 0, "location": [1.0, 2.0], "state": "Visible"}]}
        bad = {"object_id": 1, "class": "person",
               "track": [{"frame": 0, "location": [float("nan"), 2.0], "state": "Visible"}]}
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        out = tmp_path / "metrics.json"
        code = run(["evaluate", "--predictions", pred,
                    "--ground-truth", simulated / "ground_truth.jsonl", "--out", out])
        assert code == EXIT_INPUT
        assert not out.exists()
        assert f"{pred}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("gate", ["0", "-0.5", "nan", "inf"])
    def test_gate_must_be_finite_positive_distance(self, simulated, tmp_path, gate):
        # exact matches are at distance 0, which a zero gate would divide by
        pred = tmp_path / "pred.jsonl"
        write_perfect_predictions(simulated / "ground_truth.jsonl", pred)
        out = tmp_path / "metrics.json"
        code = run(["evaluate", "--predictions", pred,
                    "--ground-truth", simulated / "ground_truth.jsonl",
                    "--gate", gate, "--out", out])
        assert code == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("gate", ["5e8", "2e9"])
    def test_gate_beyond_half_infeasible_is_input_error(self, simulated, tmp_path, capsys,
                                                        gate):
        # a pair within such a gate could cost as much as one outside it
        pred = tmp_path / "pred.jsonl"
        write_perfect_predictions(simulated / "ground_truth.jsonl", pred)
        out = tmp_path / "metrics.json"
        code = run(["evaluate", "--predictions", pred,
                    "--ground-truth", simulated / "ground_truth.jsonl",
                    "--gate", gate, "--out", out])
        assert code == EXIT_INPUT
        assert not out.exists()
        assert "gate must be below 5e+08 m" in capsys.readouterr().err

    def test_parsed_values_do_not_carry_over(self, simulated, tmp_path, monkeypatch):
        # the parser is built once per process, and a --gate given to one
        # call is not the default of the next
        built, gates = [], []

        def counting_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_parser)
        monkeypatch.setattr(cli, "Gate", lambda threshold: gates.append(threshold) or
                            Gate(threshold))
        pred = tmp_path / "pred.jsonl"
        write_perfect_predictions(simulated / "ground_truth.jsonl", pred)
        for extra in (["--gate", "0.5"], []):
            assert run(["evaluate", "--predictions", pred,
                        "--ground-truth", simulated / "ground_truth.jsonl",
                        "--out", tmp_path / "metrics.json", *extra]) == EXIT_OK
        assert (built, gates) == ([1], [0.5, 1.0])

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

    def test_undefined_rates_written_as_null(self, tmp_path):
        # walk_single has no contained frames, so that state's precision and
        # recall have an empty base; the report stays strict JSON
        seq = tmp_path / "walk_single"
        assert run(["simulate", "--scenario", "walk_single", "--out", seq]) == EXIT_OK
        assert run(["track", "--detections", seq / "detections.jsonl",
                    "--camera", seq / "camera.json", "--out", tmp_path / "tracked"]) == EXIT_OK
        out = tmp_path / "metrics.json"
        assert run(["evaluate", "--predictions", tmp_path / "tracked" / "trajectories.jsonl",
                    "--ground-truth", seq / "ground_truth.jsonl", "--out", out]) == EXIT_OK
        payload = strict_json(out.read_text())
        assert payload["fluents"]["Contained"] == {"precision": None, "recall": None}
        assert 0.0 < payload["fluents"]["Visible"]["recall"] <= 1.0

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

    @pytest.mark.parametrize("feature", [[True, 0.0], [float("nan"), 0.0], [1.0]],
                             ids=["bool", "nan", "short"])
    def test_bad_pose_feature_is_input_error(self, tmp_path, capsys, feature):
        clips = tmp_path / "clips.jsonl"
        rows = [{"action": "walking", "pose_feature": [0.0, 0.0]},
                {"action": "walking", "pose_feature": feature}]
        clips.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "models.json"
        assert run(["fit-model", "--clips", clips, "--out", out]) == EXIT_INPUT
        assert not out.exists()
        assert f"{clips}:2:" in capsys.readouterr().err

    def test_single_sample_covariance_rejected(self):
        with pytest.raises(ValueError):
            fit_pose_model("walking", [np.zeros(2)])

    def test_zero_variance_gets_floor(self):
        model = fit_pose_model("walking", [np.ones(3), np.ones(3)])
        np.testing.assert_allclose(model.covariance, 1e-3 * np.eye(3), atol=1e-15)


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


def command_inputs(simulated, tmp_path):
    """Input files for `evaluate`, `render` and `fit-model`, by placeholder."""
    inputs = {"pred": tmp_path / "pred.jsonl", "gt": simulated / "ground_truth.jsonl",
              "clips": tmp_path / "clips.jsonl"}
    write_perfect_predictions(inputs["gt"], inputs["pred"])
    rows = [{"action": "walking", "pose_feature": [0.0, 0.0]},
            {"action": "walking", "pose_feature": [2.0, 1.0]}]
    inputs["clips"].write_text("".join(json.dumps(r) + "\n" for r in rows))
    return inputs


@pytest.mark.parametrize("command", [
    ["evaluate", "--format", "json", "--predictions", "{pred}", "--ground-truth", "{gt}"],
    ["evaluate", "--format", "csv", "--predictions", "{pred}", "--ground-truth", "{gt}"],
    ["render", "--trajectories", "{pred}"],
    ["fit-model", "--clips", "{clips}"],
], ids=["evaluate-json", "evaluate-csv", "render", "fit-model"])
def test_out_directory_is_created(simulated, tmp_path, command):
    # like simulate and track, every command creates the directory of --out,
    # and only once its result is computed: a failed run leaves none
    inputs = command_inputs(simulated, tmp_path)

    def args(paths, out):
        return [arg.format(**paths) for arg in command] + ["--out", out]

    out = tmp_path / "new" / "dir" / "result"
    missing = {name: tmp_path / "missing" for name in inputs}
    assert run(args(missing, out)) == EXIT_INPUT
    assert not (tmp_path / "new").exists()
    assert run(args(inputs, out)) == EXIT_OK
    assert run(args(inputs, tmp_path / "result")) == EXIT_OK
    assert out.read_bytes() == (tmp_path / "result").read_bytes()


@pytest.mark.parametrize("command", [
    ["evaluate", "--predictions", "{pred}", "--ground-truth", "{gt}"],
    ["render", "--trajectories", "{pred}"],
    ["fit-model", "--clips", "{clips}"],
], ids=["evaluate", "render", "fit-model"])
def test_out_existing_directory_is_input_error(simulated, tmp_path, capsys, command):
    # a file-system error is exit 2 with its path, not a traceback
    inputs = command_inputs(simulated, tmp_path)
    out = tmp_path / "taken"
    out.mkdir()
    code = run([arg.format(**inputs) for arg in command] + ["--out", out])
    assert code == EXIT_INPUT
    assert str(out) in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


def test_track_out_existing_file_is_input_error(simulated, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    code = run(["track", "--detections", simulated / "detections.jsonl",
                "--camera", simulated / "camera.json", "--out", out])
    assert code == EXIT_INPUT
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "kept\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Every ``fluenttrack`` command in README's command-line block, with
    backslash continuations joined."""
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("fluenttrack ")]


@pytest.mark.parametrize("command", readme_commands(), ids=lambda c: c.split()[1])
def test_readme_command_parses(command):
    # argparse exits on a flag the parser does not define
    args = build_parser().parse_args(shlex.split(command)[1:])
    assert callable(args.func)


def test_readme_commands_run(tmp_path, monkeypatch):
    # each command reads what the ones before it wrote; fit-model reads clips.jsonl
    monkeypatch.chdir(tmp_path)
    rows = [{"action": "walking", "pose_feature": [0.0, 0.0]},
            {"action": "walking", "pose_feature": [2.0, 0.0]}]
    Path("clips.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    for command in readme_commands():
        assert main(shlex.split(command)[1:]) == EXIT_OK, command


def test_main_freezes_import_state_once():
    # the first command freezes what the imports made; later commands leave
    # their own leftovers, such as this cycle, to the collector
    assert run(["evaluate"]) == EXIT_INPUT
    frozen = gc.get_freeze_count()
    assert frozen > 0
    cycle = []
    cycle.append(cycle)
    del cycle
    assert run(["evaluate"]) == EXIT_INPUT
    assert gc.get_freeze_count() == frozen
