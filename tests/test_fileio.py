import copy
import json
import re
import sys
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluenttrack import fileio
from fluenttrack.cli import EXIT_INPUT, _model_lengths, main
from fluenttrack.core import (
    CameraModel,
    Detection,
    FrameParse,
    ObjectClass,
    Trajectory,
    TrajectoryPoint,
    VisibilityState,
)
from fluenttrack.fileio import InputFormatError
from fluenttrack.grammar import (
    default_action_models,
    default_parameters,
    default_transition_table,
    default_vehicle_templates,
)
from fluenttrack.metrics import MatchResult, clear_metrics
from fluenttrack.simulator import (
    AgentScript,
    GroundTruthRecord,
    NoiseProfile,
    Obstacle,
    ScenarioEvent,
    ScenarioScript,
    default_camera,
    scenario_by_name,
)

from conftest import same_bits, unit_vector


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

    @pytest.mark.parametrize("field", ["descriptor", "pose_feature", "vehicle_fluent_feature"])
    def test_vector_length_change_reports_line(self, tmp_path, field):
        path = tmp_path / "detections.jsonl"
        fileio.write_detections(path, sample_detections())
        lines = path.read_text().splitlines()
        record = next(json.loads(line) for line in lines if field in json.loads(line))
        record[field].append(0.0)  # a zero keeps a descriptor unit norm
        path.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        with pytest.raises(InputFormatError, match=re.escape(f"{path}:4: {field}")):
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


class TestTrackOutputs:
    def test_frame_parses_records(self, tmp_path):
        parse = FrameParse(7, (
            (0, TrajectoryPoint(7, np.array([1.0, 2.0]), VisibilityState.VISIBLE, "walking")),
            (1, TrajectoryPoint(7, np.array([3.0, 4.5]), VisibilityState.CONTAINED, "ride",
                                container_id=2)),
        ))
        path = tmp_path / "frame_parses.jsonl"
        fileio.write_frame_parses(path, [parse])
        assert path.read_text() == (
            '{"frame":7,"objects":['
            '{"object_id":0,"location":[1.0,2.0],"state":"Visible","action":"walking"},'
            '{"object_id":1,"location":[3.0,4.5],"state":"Contained","action":"ride",'
            '"container_id":2}]}\n'
        )

    def test_summary_nan_rejected(self, tmp_path):
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            fileio.write_json(path, {"objective": float("nan")})
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_line_rejected(self, tmp_path, value):
        # the non-finite value sits in the last record, after a valid one:
        # each writer raises before it opens its file
        location = np.array([1.0, value])
        visible = VisibilityState.VISIBLE
        points = (TrajectoryPoint(0, np.array([1.0, 2.0]), visible, "walking"),
                  TrajectoryPoint(1, location, visible, "walking"))
        writes = {
            "trajectories": (fileio.write_trajectories,
                             [Trajectory(0, ObjectClass.PERSON, points[:1]),
                              Trajectory(1, ObjectClass.PERSON, points)]),
            "frame_parses": (fileio.write_frame_parses, [
                FrameParse(p.frame, ((0, p),)) for p in points]),
            "ground_truth": (fileio.write_ground_truth, [
                GroundTruthRecord(0, 0, ObjectClass.PERSON, np.array([1.0, 2.0]), visible),
                GroundTruthRecord(1, 0, ObjectClass.PERSON, location, visible)]),
        }
        for name, (write, records) in writes.items():
            path = tmp_path / f"{name}.jsonl"
            with pytest.raises(ValueError):
                write(path, records)
            assert not path.exists(), name

    @pytest.mark.parametrize("value", [2**64, -2**63 - 1])
    def test_int_beyond_64_bits_rejected(self, tmp_path, value):
        # orjson refuses such an int mid-file; the writer removes the file
        path = tmp_path / "ground_truth.jsonl"
        records = [GroundTruthRecord(0, object_id, ObjectClass.PERSON, np.array([1.0, 2.0]),
                                     VisibilityState.VISIBLE) for object_id in (0, value)]
        with pytest.raises(ValueError, match="64-bit"):
            fileio.write_ground_truth(path, records)
        assert not path.exists()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=6))
    def test_written_floats_read_back_bit_equal(self, pairs):
        # any finite float: subnormals, -0.0, values of 1e16 and more. Each
        # line reads back to the same bits, and where repr and orjson write
        # a float alike (0 and 1e-4 <= |x| < 1e16) the line is the one the
        # standard json module writes for the same record
        contained = VisibilityState.CONTAINED
        locations = [np.array(pair) for pair in pairs]
        trajectory = Trajectory(0, ObjectClass.PERSON, tuple(
            TrajectoryPoint(i, loc, contained, "ride", container_id=7)
            for i, loc in enumerate(locations)))
        parses = [FrameParse(p.frame, ((3, p),)) for p in trajectory.points]
        truth = [GroundTruthRecord(i, 3, ObjectClass.VEHICLE, loc, contained, container_id=7)
                 for i, loc in enumerate(locations)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            fileio.write_trajectories(tmp / "t.jsonl", [trajectory])
            fileio.write_frame_parses(tmp / "p.jsonl", parses)
            fileio.write_ground_truth(tmp / "g.jsonl", truth)
            (back,) = fileio.read_trajectories(tmp / "t.jsonl")
            assert all(map(same_bits, locations, (p.location for p in back.points)))
            assert all(map(same_bits, locations, (r.location for r in
                                                  fileio.read_ground_truth(tmp / "g.jsonl"))))
            lines = {name: (tmp / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
                     for name in ("t", "p", "g")}
        assert all(same_bits(loc, json.loads(line)["objects"][0]["location"])
                   for loc, line in zip(locations, lines["p"], strict=True))
        if all(x == 0 or 1e-4 <= abs(x) < 1e16 for pair in pairs for x in pair):
            # json.loads gives back the record the writer encoded (its
            # values are bit-equal, its keys in order), so json.dumps of it
            # is the line the standard json module would have written
            assert all(line == json.dumps(json.loads(line), separators=(",", ":"))
                       for line in chain.from_iterable(lines.values()))


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
    @pytest.mark.parametrize("value", [float("nan"), -0.5])
    def test_transition_table_bad_probability_rejected(self, tmp_path, value):
        # {Visible: 1.0} alone is a valid row, so the bad entry must not be dropped
        path = tmp_path / "models.json"
        fileio.write_action_models(path, default_action_models(), default_vehicle_templates(),
                                   default_transition_table())
        payload = json.loads(path.read_text())
        row = next(r for r in payload["transition_table"]["rows"]
                   if (r["state"], r["action"]) == ("Occluded", "walking"))
        row["next"] = {"Occluded": value, "Visible": 1.0}
        path.write_text(json.dumps(payload))
        with pytest.raises(InputFormatError, match=re.escape(str(path))):
            fileio.read_action_models(path)

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
        for key, row in table.rows.items():
            for state, p in row.items():
                assert table2.rows[key].get(state, 0.0) == pytest.approx(p, abs=1e-12)


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


# -- property tests: one corrupted field makes a reader fail at its line ------

NON_FINITE = (float("nan"), float("inf"), float("-inf"))
TOO_LARGE = -10**400  # a JSON integer no float can hold

# values of the wrong type for each kind of field
WRONG_TYPE = {
    "int": ["3", 2.5, True, None, [1]],
    "number": ["0.5", True, None, [0.5]],
    "pair": [5.0, "1,2", None, {"x": 1.0}, [[1.0], [2.0]], [True, 1.0]],
    "box": [5.0, "1,2,3,4", None, {"x": 1.0}, [[1.0], [2.0], [3.0], [4.0]]],
    "feature": [5.0, "1,2", {"x": 1.0}, [[1.0], [2.0]], [True, 1.0]],
    "name": [5, None, ["person"], float("nan")],
    "action": [5, ["walking"], {"a": 1}],
    "track": [5, "track", None, {}, [], [5]],
    "optional_int": ["0", 1.5, True, [0]],
    "matrix": [5.0, "eye", None, {"x": 1.0}, [1.0, 0.0], [[True, 0.0], [0.0, 1.0]],
               [["1", "0"], ["0", "1"]]],
    "list": [5, "items", None, {}, [5]],
    "mapping": [5, "mapping", None, [], [["key", 1.0]]],
}

CLASSES = st.sampled_from(["person", "vehicle", "suitcase"])
STATES = st.sampled_from(["Visible", "Occluded", "Contained"])
FINITE = st.floats(-1e3, 1e3, allow_nan=False)


def corruptions(kind, required):
    """(operation, value) pairs that make a field of ``kind`` invalid."""
    out = []
    if kind in ("int", "number"):
        out += [("set", v) for v in NON_FINITE]
    if kind == "number":
        out.append(("set", TOO_LARGE))
    if kind in ("pair", "box", "feature"):
        out += [("element", v) for v in NON_FINITE + (TOO_LARGE,)]
    if kind == "matrix":
        out += [("cell", v) for v in NON_FINITE + (TOO_LARGE,)]
    if kind in ("pair", "box", "matrix"):
        out += [("length", -1), ("length", 1)]
    out += [("set", v) for v in WRONG_TYPE[kind]]
    if required:
        out.append(("missing", None))
    return out


def corrupt(owner, key, operation, value):
    if operation == "missing":
        del owner[key]
    elif operation == "set":
        owner[key] = value
    elif operation == "element":
        owner[key][0] = value
    elif operation == "cell":
        owner[key][0][0] = value
    else:
        owner[key] = owner[key][:-1] if value < 0 else owner[key] + [1.0]


@st.composite
def detection_records(draw):
    cls = draw(CLASSES)
    dim = draw(st.integers(2, 6))
    desc = np.array(draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)
                         .filter(lambda v: np.linalg.norm(v) > 0.1)))
    record = {
        "frame": draw(st.integers(0, 10**6)),
        "class": cls,
        "bbox": [draw(FINITE), draw(FINITE), draw(st.floats(0.1, 100)),
                 draw(st.floats(0.1, 100))],
        "score": draw(st.floats(0, 1)),
        "descriptor": (desc / np.linalg.norm(desc)).tolist(),
    }
    feature = {"person": "pose_feature", "vehicle": "vehicle_fluent_feature"}.get(cls)
    if feature and draw(st.booleans()):
        record[feature] = draw(st.lists(FINITE, min_size=1, max_size=9))
    fields = [(record, "frame", "int", True), (record, "class", "name", True),
              (record, "bbox", "box", True), (record, "score", "number", True),
              (record, "descriptor", "feature", True)]
    if feature in record:
        fields.append((record, feature, "feature", False))
    return record, fields


@st.composite
def trajectory_records(draw):
    start = draw(st.integers(0, 10**4))
    track = []
    fields = []
    for i in range(draw(st.integers(1, 4))):
        state = draw(STATES)
        point = {"frame": start + i, "location": [draw(FINITE), draw(FINITE)],
                 "state": state, "action": draw(st.sampled_from(["walking", "exit_vehicle"]))}
        fields += [(point, "frame", "int", True), (point, "location", "pair", True),
                   (point, "state", "name", True), (point, "action", "action", False)]
        if state == "Contained":
            point["container_id"] = draw(st.integers(0, 50))
            fields.append((point, "container_id", "optional_int", True))
        track.append(point)
    record = {"object_id": draw(st.integers(0, 10**4)), "class": draw(CLASSES),
              "track": track}
    fields += [(record, "object_id", "int", True), (record, "class", "name", True),
               (record, "track", "track", True)]
    return record, fields


@st.composite
def ground_truth_records(draw):
    state = draw(STATES)
    record = {"frame": draw(st.integers(0, 10**6)), "object_id": draw(st.integers(0, 10**4)),
              "location": [draw(FINITE), draw(FINITE)], "state": state}
    fields = [(record, "frame", "int", True), (record, "object_id", "int", True),
              (record, "location", "pair", True), (record, "state", "name", True)]
    if draw(st.booleans()):
        record["class"] = draw(CLASSES)
        fields.append((record, "class", "name", False))
    if state == "Contained":
        record["container_id"] = draw(st.integers(0, 50))
        fields.append((record, "container_id", "optional_int", False))
    return record, fields


@st.composite
def clip_records(draw):
    # a pose feature in every record, so a file's pose samples count its records
    record = {"action": draw(st.sampled_from(["walking", "enter_vehicle"])),
              "pose_feature": draw(st.lists(FINITE, min_size=1, max_size=9))}
    fields = [(record, "action", "name", True), (record, "pose_feature", "feature", False)]
    if draw(st.booleans()):
        record["vehicle_fluent_feature"] = draw(st.lists(FINITE, min_size=1, max_size=9))
        fields.append((record, "vehicle_fluent_feature", "feature", False))
    if draw(st.booleans()):
        triple = [draw(STATES), draw(st.sampled_from(["walking", "enter_vehicle"])), draw(STATES)]
        record["transitions"] = [triple]
        fields += [(record, "transitions", "list", False), (triple, 0, "name", True),
                   (triple, 1, "action", True), (triple, 2, "name", True)]
    return record, fields


def corrupted_copy(draw, record, fields):
    """A copy of ``record`` with one of its ``fields`` corrupted."""
    index = draw(st.integers(0, len(fields) - 1))
    operation, value = draw(st.sampled_from(corruptions(*fields[index][2:])))
    # the field list points into ``record``: corrupt a deep copy of both
    bad_record, bad_fields = copy.deepcopy((record, fields))
    owner, key = bad_fields[index][:2]
    corrupt(owner, key, operation, value)
    return bad_record


@st.composite
def corrupted_files(draw, records):
    """(valid lines, the same lines with the last record corrupted)."""
    record, fields = draw(records)
    valid = [json.dumps(record)] * draw(st.integers(1, 3))
    return valid, valid[:-1] + [json.dumps(corrupted_copy(draw, record, fields))]


@st.composite
def corrupted_documents(draw, documents):
    """(a valid document, the same document with one field corrupted)."""
    document, fields = draw(documents)
    return document, corrupted_copy(draw, document, fields)


# JSON text where orjson and json decode apart, by the kind of field it
# replaces. orjson refuses the NaN and Infinity tokens, numbers beyond the
# largest float, lone surrogates and invalid UTF-8; it decodes an int beyond
# 64 bits as a float, the largest float for one just past it. As a frame,
# 2**63 (an int to orjson, but beyond int64) and 2**64 exceed the readers'
# bound
PARTING = {
    "int": [str(v).encode() for v in (2**63, 2**64, -2**63 - 1)] + [b"NaN", b"1e400"],
    "number": [str(v).encode() for v in (2**64, int(sys.float_info.max),
                                         2**1024 - 2**970 - 1, TOO_LARGE)]
    + [b"NaN", b"-Infinity", b"1e400"],
    "name": [b'"\\ud800"', b'"Visible\\udc00"', b'"\xff"', b'"\xed\xa0\x80"'],
}
PARTING["optional_int"] = PARTING["int"]
PARTING["action"] = PARTING["name"]
PARTING_ELEMENT = ("pair", "box", "feature")  # the first entry is replaced
_PLACEHOLDER = "@@parting@@"


def parted_line(record, fields, index, text, element=False) -> bytes:
    """``record`` as one line of JSON text with its field ``fields[index]``
    (the field's first entry if ``element``) written as ``text``."""
    bad_record, bad_fields = copy.deepcopy((record, fields))
    owner, key = bad_fields[index][:2]
    if element:
        owner, key = owner[key], 0
    owner[key] = _PLACEHOLDER
    return json.dumps(bad_record).encode().replace(json.dumps(_PLACEHOLDER).encode(), text)


def duplicate_key(owner, key, other, other_last) -> bytes:
    """The text of ``owner[key]`` with the key written twice, ``other`` the
    value of the first or (``other_last``) of the second."""
    first, last = (owner[key], other) if other_last else (other, owner[key])
    return f"{json.dumps(first)}, {json.dumps(key)}: {json.dumps(last)}".encode()


@st.composite
def parting_line(draw, record, fields):
    """``record`` as one line of JSON text (bytes) with one of its
    ``fields`` written where orjson and json decode apart: a text of
    ``PARTING``, or the key twice, either value last. The line may still be
    a valid record."""
    index = draw(st.integers(0, len(fields) - 1))
    owner, key, kind, _ = fields[index]
    texts = PARTING.get("number" if kind in PARTING_ELEMENT else kind)
    if texts and draw(st.booleans()):
        return parted_line(record, fields, index, draw(st.sampled_from(texts)),
                           element=kind in PARTING_ELEMENT)
    text = duplicate_key(owner, key, draw(st.sampled_from(WRONG_TYPE[kind])), draw(st.booleans()))
    return parted_line(record, fields, index, text)


def _write_lines(path, lines):
    """Each line (a str, or bytes for text that is not valid UTF-8) and a
    newline."""
    path.write_bytes(b"".join((line.encode() if isinstance(line, str) else line) + b"\n"
                              for line in lines))


def _outcome(read, *args):
    """What ``read(*args)`` gives: its records, or its input error's
    message."""
    try:
        return read(*args)
    except InputFormatError as exc:
        return str(exc)


def _same_detection(a, b):
    return ((a.frame, a.object_class) == (b.frame, b.object_class) and type(b.frame) is int
            and same_bits(a.bbox, b.bbox) and same_bits(a.score, b.score)
            and all((u is None) == (v is None) and (u is None or same_bits(u, v))
                    for u, v in ((getattr(a, f), getattr(b, f)) for f in
                                 ("descriptor", "pose_feature", "vehicle_fluent_feature"))))


class TestReaderProperties:
    """A valid record with one field made NaN, infinite, of the wrong type,
    of the wrong length, or missing fails its reader at its line, and the
    command that reads it exits 2 and writes nothing."""

    def check(self, reader, valid, bad, command):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            good_path, path = tmp / "good.jsonl", tmp / "bad.jsonl"
            _write_lines(good_path, valid)
            assert len(reader(good_path)) == len(valid)
            _write_lines(path, bad)
            with pytest.raises(fileio.InputFormatError,
                               match=re.escape(f"{path}:{len(bad)}:")):
                reader(path)
            out = tmp / "out"
            assert main([str(a) for a in command(tmp, path, out)]) == EXIT_INPUT
            assert not out.exists()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corrupted_files(detection_records()))
    def test_detections(self, files):
        def track(tmp, path, out):
            fileio.write_camera(tmp / "camera.json", default_camera())
            return ["track", "--detections", path, "--camera", tmp / "camera.json",
                    "--out", out]

        self.check(fileio.read_detections, *files, track)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corrupted_files(trajectory_records()))
    def test_trajectories(self, files):
        def evaluate(tmp, path, out):
            gt = tmp / "gt.jsonl"
            _write_lines(gt, [json.dumps({"frame": 0, "object_id": 0, "location": [0, 0],
                                          "state": "Visible"})])
            return ["evaluate", "--predictions", path, "--ground-truth", gt, "--out", out]

        self.check(fileio.read_trajectories, *files, evaluate)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corrupted_files(ground_truth_records()))
    def test_ground_truth(self, files):
        def evaluate(tmp, path, out):
            pred = tmp / "pred.jsonl"
            _write_lines(pred, [json.dumps({
                "object_id": 0, "class": "person",
                "track": [{"frame": 0, "location": [0, 0], "state": "Visible"}]})])
            return ["evaluate", "--predictions", pred, "--ground-truth", path, "--out", out]

        self.check(fileio.read_ground_truth, *files, evaluate)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corrupted_files(clip_records()))
    def test_clips(self, files):
        def pose_samples(path):
            return [x for samples in fileio.read_clips(path)[0].values() for x in samples]

        def fit_model(tmp, path, out):
            return ["fit-model", "--clips", path, "--out", out]

        self.check(pose_samples, *files, fit_model)


# -- detections as checked columns ----------------------------------------------

# (field, value, the record reader's message after "path:line: ") of one
# corrupted detection record
RECORD_FAULTS = {
    "bbox_width": ("bbox", lambda r: r["bbox"][:2] + [-1.0, r["bbox"][3]],
                   "bad detection record: bbox width and height must be positive"),
    "descriptor_type": ("descriptor", lambda r: "x",
                        "descriptor must be a list of any number of finite numbers, got 'x'"),
    "score_range": ("score", lambda r: 1.5, "bad detection record: score must lie in [0, 1]"),
    "frame_type": ("frame", lambda r: 2.0, "frame has the wrong type: 2.0"),
    "negative_frame": ("frame", lambda r: -3, "bad detection record: frame index must be >= 0"),
    "class_name": ("class", lambda r: "bus",
                   "class must be one of person, vehicle, suitcase, got 'bus'"),
    "descriptor_norm": ("descriptor", lambda r: [2.0 * v for v in r["descriptor"]],
                        "bad detection record: descriptor must be unit norm (within 1e-6)"),
}


@pytest.fixture(scope="module")
def suite_lines(suite_runs, tmp_path_factory):
    """The lines of the detections file of the suite's largest sequence."""
    _, sim = max(suite_runs, key=lambda run: len(run[1].detections))
    path = tmp_path_factory.mktemp("suite") / "detections.jsonl"
    fileio.write_detections(path, sim.detections)
    return path.read_text(encoding="utf-8").splitlines()


def _with_faults(lines, faults):
    """``lines`` with the record at each 0-based index of ``faults``
    changed by its ``RECORD_FAULTS`` entry."""
    lines = list(lines)
    for index, name in faults.items():
        record = json.loads(lines[index])
        field, value, _ = RECORD_FAULTS[name]
        record[field] = value(record)
        lines[index] = json.dumps(record)
    return lines


class TestDetectionColumns:
    """``read_detections`` checks a file as columns, and reads a file that
    fails a check again record by record, which names the first bad line."""

    def test_suite_roundtrip_keeps_bits(self, suite_runs, tmp_path, monkeypatch):
        def record_reader(*args):
            raise AssertionError("a valid file was read record by record")

        monkeypatch.setattr(fileio, "_detection_records", record_reader)
        lengths = _model_lengths(default_parameters())
        for name, sim in suite_runs:
            path = tmp_path / f"{name}.jsonl"
            fileio.write_detections(path, sim.detections)
            loaded = fileio.read_detections(path, lengths)
            assert len(loaded) == len(sim.detections), name
            for a, b in zip(sim.detections, loaded):
                assert type(b.frame) is int and b.frame == a.frame
                assert b.object_class is a.object_class
                assert type(b.bbox) is tuple and all(type(v) is float for v in b.bbox)
                assert same_bits(b.bbox, a.bbox)
                assert type(b.score) is float and same_bits(b.score, a.score)
                for field in ("descriptor", "pose_feature", "vehicle_fluent_feature"):
                    u, v = getattr(a, field), getattr(b, field)
                    assert (u is None) == (v is None), (name, field)
                    if v is not None:
                        assert same_bits(v, u) and not v.flags.writeable, (name, field)

    @pytest.mark.parametrize("first,second", [("bbox_width", "descriptor_type"),
                                              ("descriptor_type", "score_range"),
                                              ("frame_type", "class_name"),
                                              ("descriptor_norm", "negative_frame")])
    def test_two_corrupt_records_name_the_earlier_line(self, suite_lines, tmp_path,
                                                       first, second):
        path = tmp_path / "detections.jsonl"
        earlier, later = 100, len(suite_lines) // 2
        _write_lines(path, _with_faults(suite_lines, {earlier: first, later: second}))
        with pytest.raises(InputFormatError) as exc:
            fileio.read_detections(path)
        assert str(exc.value) == f"{path}:{earlier + 1}: {RECORD_FAULTS[first][2]}"

    @pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
    def test_corrupt_last_line_is_named(self, suite_lines, tmp_path, fault):
        path = tmp_path / "detections.jsonl"
        _write_lines(path, _with_faults(suite_lines, {len(suite_lines) - 1: fault}))
        with pytest.raises(InputFormatError) as exc:
            fileio.read_detections(path)
        assert str(exc.value) == f"{path}:{len(suite_lines)}: {RECORD_FAULTS[fault][2]}"

    @pytest.mark.parametrize("field", ["bbox", "score"])
    def test_int_just_past_the_largest_float_is_rejected(self, suite_lines, tmp_path, field):
        # such an int converts to the largest float, not to infinity, so
        # only its own bound rejects it
        record = json.loads(suite_lines[0])
        too_large = 2**1024 - 2**970 - 1
        assert float(too_large) == sys.float_info.max
        record[field] = [too_large] + record["bbox"][1:] if field == "bbox" else too_large
        path = tmp_path / "detections.jsonl"
        _write_lines(path, [json.dumps(record)] + suite_lines[1:])
        with pytest.raises(InputFormatError) as expected:
            fileio._detection_records(path, None)
        with pytest.raises(InputFormatError) as exc:
            fileio.read_detections(path)
        assert str(exc.value) == str(expected.value)
        assert str(exc.value).startswith(f"{path}:1: ")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_corruptions_read_as_the_record_reader(self, suite_lines, data):
        # two records corrupted in random fields: by a wrong JSON type, a
        # non-finite or missing value, a value a Detection check rejects, or
        # text where orjson and json decode apart, which may leave the
        # record valid. The reader gives the record reader's detections, bit
        # for bit, or its message, which names the earlier line if that one
        # cannot be valid
        lines = list(suite_lines)
        indices = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2,
                                     unique=True).map(sorted))
        fatal = []
        for index in indices:
            record = json.loads(lines[index])
            fields = [(record, key, kind, True) for key, kind in
                      (("frame", "int"), ("class", "name"), ("bbox", "box"),
                       ("score", "number"), ("descriptor", "feature"))]
            fields += [(record, key, "feature", False) for key in
                       ("pose_feature", "vehicle_fluent_feature") if key in record]
            how = data.draw(st.sampled_from(["field", "fault", "parting"]))
            if how == "field":
                lines[index] = json.dumps(corrupted_copy(data.draw, record, fields))
            elif how == "fault":
                lines[index] = _with_faults([lines[index]], {
                    0: data.draw(st.sampled_from(sorted(RECORD_FAULTS)))})[0]
            else:
                lines[index] = data.draw(parting_line(record, fields))
            fatal.append(how != "parting")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "detections.jsonl"
            _write_lines(path, lines)
            expected = _outcome(fileio._detection_records, path, None)
            got = _outcome(fileio.read_detections, path)
        if isinstance(expected, str):
            assert got == expected
            assert any(expected.startswith(f"{path}:{i + 1}: ")
                       for i in (indices[:1] if fatal[0] else indices))
        else:
            assert not any(fatal)
            assert len(got) == len(expected) and all(map(_same_detection, expected, got))


# -- property tests over the single-document readers --------------------------

def _document(write, *args):
    """The JSON document that ``write(path, *args)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        write(path, *args)
        return json.loads(path.read_text())


@st.composite
def camera_documents(draw):
    homography = np.eye(3) * draw(st.floats(0.5, 2.0))
    homography[:2, 2] = [draw(FINITE), draw(FINITE)]
    document = _document(fileio.write_camera,
                         CameraModel(homography, draw(st.floats(1.0, 60.0))))
    return document, [(document, "homography", "matrix", True),
                      (document, "frame_rate", "number", True)]


@st.composite
def action_model_documents(draw):
    models, templates = default_action_models(), default_vehicle_templates()
    keep = draw(st.lists(st.sampled_from(sorted(set(models) | set(templates))),
                         min_size=1, unique=True))
    document = _document(fileio.write_action_models,
                         {n: m for n, m in models.items() if n in keep},
                         {n: t for n, t in templates.items() if n in keep},
                         default_transition_table())
    table = document["transition_table"]
    fields = [(document, "actions", "list", True), (document, "transition_table", "mapping", True),
              (table, "rows", "list", True)]
    for entry in document["actions"]:
        fields.append((entry, "name", "name", True))
        if "mu" in entry:
            fields += [(entry, "mu", "feature", False), (entry, "sigma", "matrix", True)]
        if "vehicle_template" in entry:
            fields.append((entry, "vehicle_template", "feature", False))
    for row in table["rows"]:
        fields += [(row, "state", "name", True), (row, "action", "action", True),
                   (row, "next", "mapping", True), (row["next"], next(iter(row["next"])),
                                                    "number", True)]
    return document, fields


@st.composite
def scenario_documents(draw):
    duration = draw(st.integers(20, 60))
    person, vehicle = draw(st.lists(st.integers(0, 99), min_size=2, max_size=2, unique=True))

    def waypoints():
        frames = draw(st.lists(st.integers(0, duration), min_size=1, max_size=3, unique=True))
        return tuple((f, draw(FINITE), draw(FINITE)) for f in sorted(frames))

    enter = draw(st.integers(0, 5))
    leave = draw(st.integers(10, duration - 3))
    events = [ScenarioEvent("enter_vehicle", person, enter, enter + 2, vehicle),
              ScenarioEvent("exit_vehicle", person, leave, leave + 2, vehicle)]
    if draw(st.booleans()):
        events.append(ScenarioEvent("occlude", person, 0, 1))
    script = ScenarioScript(
        name=draw(st.sampled_from(["walk", "ride"])),
        duration_frames=duration,
        agents=(AgentScript(person, ObjectClass.PERSON, waypoints()),
                AgentScript(vehicle, ObjectClass.VEHICLE, waypoints())),
        events=tuple(events),
        obstacles=tuple(Obstacle((draw(FINITE), draw(FINITE)), (draw(FINITE), draw(FINITE)))
                        for _ in range(draw(st.integers(0, 2)))),
        camera_point=(draw(FINITE), draw(FINITE)),
    )
    noise = NoiseProfile(position_sigma=draw(st.floats(0.0, 1.0)),
                         seed=draw(st.integers(0, 2**31)))
    document = _document(fileio.write_scenario, script, noise)
    fields = [(document, "name", "name", True), (document, "duration_frames", "int", True),
              (document, "camera_point", "pair", False), (document, "agents", "list", True),
              (document, "events", "list", False), (document, "obstacles", "list", False),
              (document, "noise", "mapping", False)]
    for agent in document["agents"]:
        fields += [(agent, "id", "int", True), (agent, "class", "name", True),
                   (agent, "waypoints", "track", True)]
        for waypoint in agent["waypoints"]:
            fields += [(waypoint, 0, "int", True), (waypoint, 1, "number", True),
                       (waypoint, 2, "number", True)]
    for event in document["events"]:
        fields += [(event, "kind", "name", True), (event, "agent_id", "int", True),
                   (event, "start_frame", "int", True), (event, "end_frame", "int", True)]
        if "target_id" in event:
            fields.append((event, "target_id", "optional_int", True))
    for obstacle in document["obstacles"]:
        fields += [(obstacle, "p1", "pair", True), (obstacle, "p2", "pair", True)]
    fields += [(document["noise"], name, "int" if name == "seed" else "number", False)
               for name in document["noise"]]
    return document, fields


class TestDocumentReaderProperties:
    """A valid camera, action-models or scenario file with one field made
    NaN, infinite, of the wrong type, of the wrong length, or missing fails
    its reader with the file named, and the command that reads it exits 2
    and writes nothing."""

    def check(self, reader, valid, bad, command):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            good_path, path = tmp / "good.json", tmp / "bad.json"
            good_path.write_text(json.dumps(valid), encoding="utf-8")
            reader(good_path)
            path.write_text(json.dumps(bad), encoding="utf-8")
            with pytest.raises(fileio.InputFormatError, match=re.escape(f"{path}:")):
                reader(path)
            out = tmp / "out"
            assert main([str(a) for a in command(tmp, path, out)]) == EXIT_INPUT
            assert not out.exists()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corrupted_documents(camera_documents()))
    def test_camera(self, documents):
        def track(tmp, path, out):
            (tmp / "detections.jsonl").write_text("")
            return ["track", "--detections", tmp / "detections.jsonl", "--camera", path,
                    "--out", out]

        self.check(fileio.read_camera, *documents, track)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corrupted_documents(action_model_documents()))
    def test_action_models(self, documents):
        def track(tmp, path, out):
            (tmp / "detections.jsonl").write_text("")
            fileio.write_camera(tmp / "camera.json", default_camera())
            return ["track", "--detections", tmp / "detections.jsonl",
                    "--camera", tmp / "camera.json", "--action-models", path, "--out", out]

        self.check(fileio.read_action_models, *documents, track)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corrupted_documents(scenario_documents()))
    def test_scenario(self, documents):
        def simulate(tmp, path, out):
            return ["simulate", "--script", path, "--out", out]

        self.check(fileio.read_scenario, *documents, simulate)


# -- ground truth and trajectories as checked columns ----------------------------

# (name, change to one parsed line, the record reader's message after
# "path:line: ") for a ground-truth line and for a trajectory line
TRUTH_FAULTS = {
    "location_inf": (lambda r: r.update(location=[float("inf"), 1.0]),
                     "location must be a list of 2 finite numbers, got [inf, 1.0]"),
    "state_name": (lambda r: r.update(state="Hidden"),
                   "state must be one of Visible, Occluded, Contained, got 'Hidden'"),
    "frame_type": (lambda r: r.update(frame=2.0), "frame has the wrong type: 2.0"),
    "id_missing": (lambda r: r.pop("object_id"), "bad ground-truth record: 'object_id'"),
    "container_type": (lambda r: r.update(container_id="0"),
                       "container_id has the wrong type: '0'"),
    "class_name": (lambda r: r.update({"class": "bus"}),
                   "class must be one of person, vehicle, suitcase, got 'bus'"),
}
TRAJECTORY_FAULTS = {
    "container_on_visible": (
        lambda r: r["track"][-1].update(state="Visible", container_id=3),
        "bad trajectory record: container_id must be present iff state is Contained"),
    "frame_skip": (lambda r: r["track"][-1].update(frame=r["track"][-1]["frame"] + 2),
                   "bad trajectory record: trajectory frames must be contiguous and increasing"),
    "empty_track": (lambda r: r.update(track=[]),
                    "bad trajectory record: trajectory must contain at least one point"),
    "location_length": (lambda r: r["track"][-1].update(location=[1.0, 2.0, 3.0]),
                        "location must be a list of 2 finite numbers, got [1.0, 2.0, 3.0]"),
    "action_type": (lambda r: r["track"][-1].update(action=5), "action has the wrong type: 5"),
    "id_type": (lambda r: r.update(object_id=True), "object_id has the wrong type: True"),
}


@pytest.fixture(scope="module")
def evaluate_lines(suite_prior_only, tmp_path_factory):
    """The lines of the ground truth and of the `prior_only` trajectories of
    the suite's sequence with the most ground truth."""
    _, sim, result = max(suite_prior_only, key=lambda run: len(run[1].ground_truth))
    out = tmp_path_factory.mktemp("evaluate")
    fileio.write_ground_truth(out / "ground_truth.jsonl", sim.ground_truth)
    fileio.write_trajectories(out / "trajectories.jsonl", result.trajectories)
    return {name: (out / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
            for name in ("ground_truth", "trajectories")}


def _same_truth(a, b):
    return ((a.frame, a.object_id, a.object_class, a.state, a.container_id)
            == (b.frame, b.object_id, b.object_class, b.state, b.container_id)
            and type(b.frame) is int and type(b.object_id) is int
            and same_bits(a.location, b.location))


def _same_trajectory(a, b):
    return ((a.object_id, a.object_class, len(a.points)) == (b.object_id, b.object_class,
                                                              len(b.points))
            and all((p.frame, p.state, p.action, p.container_id)
                    == (q.frame, q.state, q.action, q.container_id)
                    and type(q.frame) is int and same_bits(p.location, q.location)
                    for p, q in zip(a.points, b.points)))


@st.composite
def record_lines(draw, records, faults):
    """(1-4 lines, whether one parts orjson from json). Each line is a
    valid record, the record with one field corrupted, the record broken by
    one of ``faults``, or the record with one field written where the two
    decoders part (``parting_line``)."""
    lines = []
    parted = False
    for _ in range(draw(st.integers(1, 4))):
        record, fields = draw(records)
        kind = draw(st.sampled_from(["valid", "field"] + (["fault"] if faults else [])
                                    + ["parting"]))
        if kind == "field":
            record = corrupted_copy(draw, record, fields)
        elif kind == "fault":
            faults[draw(st.sampled_from(sorted(faults)))][0](record)
        parted |= kind == "parting"
        lines.append(draw(parting_line(record, fields)) if kind == "parting"
                     else json.dumps(record))
    return lines, parted


class TestEvaluateColumns:
    """``read_ground_truth`` and ``read_trajectories`` check a file as
    columns, and read a file that fails a check again record by record,
    which names the first bad line."""

    def test_suite_roundtrip_keeps_bits(self, suite_prior_only, tmp_path, monkeypatch):
        def record_reader(*args):
            raise AssertionError("a valid file was read record by record")

        monkeypatch.setattr(fileio, "_ground_truth_records", record_reader)
        monkeypatch.setattr(fileio, "_trajectory_records", record_reader)
        for name, sim, result in suite_prior_only:
            fileio.write_ground_truth(tmp_path / "gt.jsonl", sim.ground_truth)
            fileio.write_trajectories(tmp_path / "traj.jsonl", result.trajectories)
            truth = fileio.read_ground_truth(tmp_path / "gt.jsonl")
            trajectories = fileio.read_trajectories(tmp_path / "traj.jsonl")
            assert len(truth) == len(sim.ground_truth), name
            assert all(map(_same_truth, sim.ground_truth, truth)), name
            assert not any(r.location.flags.writeable for r in truth), name
            assert len(trajectories) == len(result.trajectories), name
            assert all(map(_same_trajectory, result.trajectories, trajectories)), name
            assert not any(p.location.flags.writeable for t in trajectories for p in t.points)

    @pytest.mark.parametrize("what,fault", [("ground_truth", f) for f in sorted(TRUTH_FAULTS)]
                             + [("trajectories", f) for f in sorted(TRAJECTORY_FAULTS)])
    def test_corrupt_late_line_is_named(self, evaluate_lines, tmp_path, what, fault):
        lines = list(evaluate_lines[what])
        change, message = (TRUTH_FAULTS if what == "ground_truth" else TRAJECTORY_FAULTS)[fault]
        record = json.loads(lines[-2])
        change(record)
        lines[-2] = json.dumps(record)
        path = tmp_path / f"{what}.jsonl"
        _write_lines(path, lines)
        reader = fileio.read_ground_truth if what == "ground_truth" else fileio.read_trajectories
        with pytest.raises(InputFormatError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}:{len(lines) - 1}: {message}"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(["ground_truth", "trajectories"]), st.data())
    def test_columns_accept_and_reject_as_records(self, what, data):
        # the columns accept a file iff the record reader does, with the
        # same records; where orjson and json decode apart the columns may
        # leave a valid file to the record path, but never accept one it
        # rejects. The reader gives the record reader's records or message
        if what == "ground_truth":
            lines, parted = data.draw(record_lines(ground_truth_records(), {}))
            read, columns, records, same = (fileio.read_ground_truth, fileio._ground_truth_columns,
                                            fileio._ground_truth_records, _same_truth)
        else:
            lines, parted = data.draw(record_lines(trajectory_records(), TRAJECTORY_FAULTS))
            read, columns, records, same = (fileio.read_trajectories, fileio._trajectory_columns,
                                            fileio._trajectory_records, _same_trajectory)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            _write_lines(path, lines)
            expected = _outcome(records, path)
            try:
                got = columns(path)
            except (KeyError, TypeError, ValueError, OverflowError):
                got = None
            read_back = _outcome(read, path)
        if isinstance(expected, str):
            assert got is None and read_back == expected
        else:
            assert got is not None or parted
            for result in [read_back] if got is None else [read_back, got]:
                assert len(result) == len(expected) and all(map(same, expected, result))


def _parting_cases():
    """(reader, record reader, record equality, a valid record, its fields)
    per JSON Lines input."""
    detection = {"frame": 3, "class": "person", "bbox": [1.0, 2.0, 0.5, 1.7], "score": 0.875,
                 "descriptor": [0.6, 0.8], "pose_feature": [0.25, -1.5]}
    truth = {"frame": 3, "object_id": 1, "location": [1.5, -2.0], "state": "Contained",
             "class": "person", "container_id": 4}
    point = {"frame": 5, "location": [1.5, -2.0], "state": "Contained", "action": "ride",
             "container_id": 4}
    trajectory = {"object_id": 2, "class": "person", "track": [point]}
    return {
        "detections": (fileio.read_detections, lambda path: fileio._detection_records(path, None),
                       _same_detection, detection,
                       [(detection, key, kind, True) for key, kind in
                        (("frame", "int"), ("class", "name"), ("bbox", "box"),
                         ("score", "number"), ("descriptor", "feature"),
                         ("pose_feature", "feature"))]),
        "ground_truth": (fileio.read_ground_truth, fileio._ground_truth_records, _same_truth,
                         truth, [(truth, key, kind, True) for key, kind in
                                 (("frame", "int"), ("object_id", "int"), ("location", "pair"),
                                  ("state", "name"), ("class", "name"),
                                  ("container_id", "optional_int"))]),
        "trajectories": (fileio.read_trajectories, fileio._trajectory_records, _same_trajectory,
                         trajectory,
                         [(trajectory, key, kind, True) for key, kind in
                          (("object_id", "int"), ("class", "name"), ("track", "track"))]
                         + [(point, key, kind, True) for key, kind in
                            (("frame", "int"), ("location", "pair"), ("state", "name"),
                             ("action", "action"), ("container_id", "optional_int"))]),
    }


@pytest.mark.parametrize("what", ["detections", "ground_truth", "trajectories"])
def test_every_parting_text_reads_as_the_record_reader(tmp_path, what):
    # each field of a valid record written as each text of PARTING, or with
    # its key twice: the reader gives the record reader's records, bit for
    # bit, or its message
    read, records, same, record, fields = _parting_cases()[what]
    lines = []
    for index, (owner, key, kind, _) in enumerate(fields):
        element = kind in PARTING_ELEMENT
        for text in PARTING.get("number" if element else kind, []):
            lines.append(parted_line(record, fields, index, text, element))
        for other_last in (False, True):
            text = duplicate_key(owner, key, WRONG_TYPE[kind][0], other_last)
            lines.append(parted_line(record, fields, index, text))
    path = tmp_path / f"{what}.jsonl"
    outcomes = set()
    for line in lines:
        _write_lines(path, [json.dumps(record), line])
        expected = _outcome(records, path)
        got = _outcome(read, path)
        if isinstance(expected, str):
            assert got == expected, line
        else:
            assert len(got) == len(expected) and all(map(same, expected, got)), line
        outcomes.add(isinstance(expected, str))
    assert outcomes == {False, True}  # some of the texts leave the record valid
