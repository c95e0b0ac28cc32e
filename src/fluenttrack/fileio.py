"""Readers and writers for every on-disk format.

JSON Lines is used for anything sequence-shaped (detections, ground truth,
trajectories, frame parses) so files stream, diff, and append well;
everything else is one indented JSON document. Every writer but the metrics
report emits strict JSON: a NaN or infinite value raises ``ValueError``
instead of being written as the non-standard ``NaN``/``Infinity`` tokens.
Malformed input raises :class:`InputFormatError` carrying the path and line
number.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ActionModel,
    CameraModel,
    Detection,
    FrameParse,
    ObjectClass,
    Trajectory,
    TrajectoryPoint,
    VisibilityState,
)
from .grammar import ActionStateTable
from .metrics import ClearMetrics, FluentReport, TrackObservation
from .simulator import (
    AgentScript,
    GroundTruthRecord,
    NoiseProfile,
    Obstacle,
    ScenarioEvent,
    ScenarioScript,
)


class InputFormatError(ValueError):
    """Malformed input file; message carries file and line context."""


def _fail(path, lineno: Optional[int], message: str) -> None:
    location = f"{path}:{lineno}" if lineno is not None else str(path)
    raise InputFormatError(f"{location}: {message}")


def _read_jsonl(path) -> Iterable[Tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                _fail(path, lineno, f"invalid JSON ({exc.msg})")
            if not isinstance(record, dict):
                _fail(path, lineno, "expected a JSON object")
            yield lineno, record


def _write_jsonl(path, records: Iterable[dict]) -> None:
    """One compact strict-JSON object per line, streamed; a NaN or infinity
    raises ``ValueError`` at its record."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n")


def _write_json(path, payload) -> None:
    """Indented strict JSON; a NaN or infinity raises ``ValueError``."""
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n",
                          encoding="utf-8")


def _vector(value, path, lineno, name) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) for v in value):
        _fail(path, lineno, f"{name} must be a list of numbers")
    return np.asarray(value, dtype=float)


# -- detections --------------------------------------------------------------

def write_detections(path, detections: Sequence[Detection]) -> None:
    def record(d: Detection) -> dict:
        r = {
            "frame": d.frame,
            "class": d.object_class.value,
            "bbox": list(d.bbox),
            "score": d.score,
            "descriptor": d.descriptor.tolist(),
        }
        if d.pose_feature is not None:
            r["pose_feature"] = d.pose_feature.tolist()
        if d.vehicle_fluent_feature is not None:
            r["vehicle_fluent_feature"] = d.vehicle_fluent_feature.tolist()
        return r

    _write_jsonl(path, (record(d) for d in detections))


def read_detections(path) -> List[Detection]:
    detections = []
    for lineno, r in _read_jsonl(path):
        try:
            cls = ObjectClass(r["class"])
            pose = r.get("pose_feature")
            fluent = r.get("vehicle_fluent_feature")
            detections.append(
                Detection(
                    frame=int(r["frame"]),
                    object_class=cls,
                    bbox=tuple(float(v) for v in r["bbox"]),
                    score=float(r["score"]),
                    descriptor=_vector(r["descriptor"], path, lineno, "descriptor"),
                    pose_feature=_vector(pose, path, lineno, "pose_feature")
                    if pose is not None else None,
                    vehicle_fluent_feature=_vector(fluent, path, lineno,
                                                   "vehicle_fluent_feature")
                    if fluent is not None else None,
                )
            )
        except InputFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            _fail(path, lineno, f"bad detection record: {exc}")
    return detections


# -- camera -------------------------------------------------------------------

def write_camera(path, camera: CameraModel) -> None:
    _write_json(path, {"homography": camera.homography.tolist(),
                       "frame_rate": camera.frame_rate})


def read_camera(path) -> CameraModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return CameraModel(np.asarray(payload["homography"], dtype=float),
                           float(payload["frame_rate"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _fail(path, None, f"bad camera file: {exc}")


# -- trajectories ---------------------------------------------------------------

def write_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    def record(t: Trajectory) -> dict:
        track = []
        for p in t.points:
            entry = {
                "frame": p.frame,
                "location": p.location.tolist(),
                "state": p.state.value,
                "action": p.action,
            }
            if p.container_id is not None:
                entry["container_id"] = p.container_id
            track.append(entry)
        return {"object_id": t.object_id, "class": t.object_class.value, "track": track}

    _write_jsonl(path, (record(t) for t in trajectories))


def read_trajectories(path) -> List[Trajectory]:
    out = []
    for lineno, r in _read_jsonl(path):
        try:
            points = tuple(
                TrajectoryPoint(
                    frame=int(p["frame"]),
                    location=np.asarray(p["location"], dtype=float),
                    state=VisibilityState(p["state"]),
                    action=p.get("action"),
                    container_id=p.get("container_id"),
                )
                for p in r["track"]
            )
            out.append(Trajectory(object_id=int(r["object_id"]),
                                  object_class=ObjectClass(r["class"]),
                                  points=points))
        except InputFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            _fail(path, lineno, f"bad trajectory record: {exc}")
    return out


# -- track outputs ---------------------------------------------------------------

def write_frame_parses(path, parses: Sequence[FrameParse]) -> None:
    def record(parse: FrameParse) -> dict:
        objects = []
        for e in parse.entries:
            entry = {
                "object_id": e.object_id,
                "location": e.location.tolist(),
                "state": e.state.value,
                "action": e.action,
            }
            if e.container_id is not None:
                entry["container_id"] = e.container_id
            objects.append(entry)
        return {"frame": parse.frame, "objects": objects}

    _write_jsonl(path, (record(p) for p in parses))


def write_summary(path, summary: Mapping) -> None:
    _write_json(path, summary)


# -- ground truth ----------------------------------------------------------------

def write_ground_truth(path, records: Sequence[GroundTruthRecord]) -> None:
    def record(r: GroundTruthRecord) -> dict:
        d = {
            "frame": r.frame,
            "object_id": r.object_id,
            "location": r.location.tolist(),
            "state": r.state.value,
            "class": r.object_class.value,
        }
        if r.container_id is not None:
            d["container_id"] = r.container_id
        return d

    _write_jsonl(path, (record(r) for r in records))


def read_ground_truth(path) -> List[GroundTruthRecord]:
    out = []
    for lineno, r in _read_jsonl(path):
        try:
            out.append(
                GroundTruthRecord(
                    frame=int(r["frame"]),
                    object_id=int(r["object_id"]),
                    object_class=ObjectClass(r.get("class", "person")),
                    location=np.asarray(r["location"], dtype=float),
                    state=VisibilityState(r["state"]),
                    container_id=r.get("container_id"),
                )
            )
        except InputFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            _fail(path, lineno, f"bad ground-truth record: {exc}")
    return out


def ground_truth_observations(records: Sequence[GroundTruthRecord]) -> List[TrackObservation]:
    return [
        TrackObservation(frame=r.frame, object_id=r.object_id, location=r.location,
                         state=r.state)
        for r in records
    ]


# -- transition table ----------------------------------------------------------

def _table_payload(table: ActionStateTable, alpha: float) -> dict:
    rows = []
    for (state, action), probs in sorted(
        table.rows.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        rows.append(
            {
                "state": state.value,
                "action": action,
                "next": {s.value: p for s, p in sorted(probs.items(), key=lambda kv: kv[0].value)},
            }
        )
    return {"alpha": alpha, "rows": rows}


def write_transition_table(path, table: ActionStateTable, alpha: float = 1.0) -> None:
    _write_json(path, _table_payload(table, alpha))


def _table_from_rows(records) -> ActionStateTable:
    """Zero entries are dropped; negative and non-finite ones reach
    ``ActionStateTable``, which rejects them."""
    rows = {}
    for r in records:
        key = (VisibilityState(r["state"]), str(r["action"]))
        rows[key] = {VisibilityState(s): float(p) for s, p in r["next"].items() if p != 0}
    return ActionStateTable(rows=rows)


def read_transition_table(path) -> ActionStateTable:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return _table_from_rows(payload["rows"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _fail(path, None, f"bad transition table: {exc}")


# -- action models ----------------------------------------------------------------

def write_action_models(
    path,
    models: Mapping[str, ActionModel],
    templates: Mapping[str, np.ndarray],
    table: ActionStateTable,
    alpha: float = 1.0,
) -> None:
    actions = []
    for name in sorted(set(models) | set(templates)):
        entry = {"name": name}
        if name in models:
            entry["mu"] = models[name].mean.tolist()
            entry["sigma"] = models[name].covariance.tolist()
        if name in templates:
            entry["vehicle_template"] = np.asarray(templates[name]).tolist()
        actions.append(entry)
    _write_json(path, {"actions": actions, "transition_table": _table_payload(table, alpha)})


def read_action_models(path):
    """Returns (pose models, vehicle templates, transition table)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        models = {}
        templates = {}
        for entry in payload["actions"]:
            name = str(entry["name"])
            if "mu" in entry:
                models[name] = ActionModel(
                    name=name,
                    mean=np.asarray(entry["mu"], dtype=float),
                    covariance=np.asarray(entry["sigma"], dtype=float),
                )
            if "vehicle_template" in entry:
                templates[name] = np.asarray(entry["vehicle_template"], dtype=float)
        return models, templates, _table_from_rows(payload["transition_table"]["rows"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _fail(path, None, f"bad action models file: {exc}")


# -- scenario scripts ----------------------------------------------------------------

def write_scenario(path, script: ScenarioScript, noise: NoiseProfile) -> None:
    payload = {
        "name": script.name,
        "duration_frames": script.duration_frames,
        "camera_point": list(script.camera_point),
        "agents": [
            {
                "id": a.agent_id,
                "class": a.object_class.value,
                "waypoints": [list(w) for w in a.waypoints],
            }
            for a in script.agents
        ],
        "events": [
            {
                "kind": e.kind,
                "agent_id": e.agent_id,
                "start_frame": e.start_frame,
                "end_frame": e.end_frame,
                **({"target_id": e.target_id} if e.target_id is not None else {}),
            }
            for e in script.events
        ],
        "obstacles": [
            {"p1": list(o.p1), "p2": list(o.p2)} for o in script.obstacles
        ],
        "noise": {
            "position_sigma": noise.position_sigma,
            "detection_miss_prob_visible": noise.detection_miss_prob_visible,
            "detection_miss_prob_occluded": noise.detection_miss_prob_occluded,
            "false_positive_rate": noise.false_positive_rate,
            "descriptor_noise_sigma": noise.descriptor_noise_sigma,
            "feature_noise_sigma": noise.feature_noise_sigma,
            "seed": noise.seed,
            "score_mean": noise.score_mean,
            "score_sigma": noise.score_sigma,
            "vehicle_score_mean": noise.vehicle_score_mean,
            "fp_score_low": noise.fp_score_low,
            "fp_score_high": noise.fp_score_high,
        },
    }
    _write_json(path, payload)


def read_scenario(path) -> Tuple[ScenarioScript, NoiseProfile]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        agents = tuple(
            AgentScript(
                agent_id=int(a["id"]),
                object_class=ObjectClass(a["class"]),
                waypoints=tuple(tuple(w) for w in a["waypoints"]),
            )
            for a in payload["agents"]
        )
        events = tuple(
            ScenarioEvent(
                kind=str(e["kind"]),
                agent_id=int(e["agent_id"]),
                start_frame=int(e["start_frame"]),
                end_frame=int(e["end_frame"]),
                target_id=e.get("target_id"),
            )
            for e in payload.get("events", [])
        )
        obstacles = tuple(
            Obstacle(p1=tuple(o["p1"]), p2=tuple(o["p2"]))
            for o in payload.get("obstacles", [])
        )
        script = ScenarioScript(
            name=str(payload["name"]),
            duration_frames=int(payload["duration_frames"]),
            agents=agents,
            events=events,
            obstacles=obstacles,
            camera_point=tuple(payload.get("camera_point", (25.0, -40.0))),
        )
        noise = NoiseProfile(**payload.get("noise", {}))
        return script, noise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _fail(path, None, f"bad scenario file: {exc}")


# -- metrics report -------------------------------------------------------------

CSV_COLUMNS = ["sequence", "MOTA", "MOTP", "MODA", "MODP", "FP", "FN", "IDS", "Frag"]


def write_metrics_report(
    path,
    clear: ClearMetrics,
    fluents: Optional[FluentReport] = None,
    sequence: str = "sequence",
    fmt: str = "json",
) -> None:
    if fmt == "json":
        payload = dict(clear.as_dict())
        if fluents is not None:
            payload["fluents"] = fluents.as_dict()
            payload["fluent_confusion"] = fluents.confusion.tolist()
        payload["sequence"] = sequence
        Path(path).write_text(json.dumps(payload, indent=2, allow_nan=True) + "\n",
                              encoding="utf-8")
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        row = {"sequence": sequence}
        row.update({k: clear.as_dict()[k] for k in CSV_COLUMNS[1:]})
        writer.writerow(row)
        Path(path).write_text(buf.getvalue(), encoding="utf-8")
    else:
        raise ValueError(f"unknown metrics format {fmt!r}")
