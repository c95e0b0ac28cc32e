"""Readers and writers for every on-disk format.

JSON Lines is used for anything sequence-shaped (detections, ground truth,
trajectories, frame parses) so files stream, diff, and append well;
everything else is one indented JSON document. Every writer emits strict
JSON: a NaN or infinite value raises ``ValueError`` instead of being written
as the non-standard ``NaN``/``Infinity`` tokens. The metrics report writes
``null`` for a per-state precision or recall that is undefined.

Two JSON libraries do the work. The JSON Lines files, the ones every run
reads and writes, go through ``orjson``, which decodes and encodes at C
speed; the single documents (camera, action models, scenario, summary,
metrics report) are a few lines each and stay with the standard ``json``,
indented.

- Writing. ``_write_jsonl`` encodes each record with one ``orjson.dumps``
  call and writes it as its own line. ``orjson`` would write NaN and the
  infinities as ``null``, so each JSON Lines writer first checks its
  numbers with ``np.isfinite`` and raises ``ValueError`` before it opens the
  file. ``orjson`` refuses an int outside [-2**63, 2**64); that too raises
  ``ValueError``, and no file is left. Strings are written as UTF-8, not as
  ``\\u`` escapes. A float is written as ``repr`` writes it for 0 and
  1e-4 <= |x| < 1e16; outside that range the notation differs
  (``1.2345e-9``, ``0.000012345`` and ``1.2345e16`` where ``repr`` gives
  ``1.2345e-09``, ``1.2345e-05`` and ``1.2345e+16``), but both read back as
  the same double.
- Reading, record path. Every reader shares one error path. ``_parse``
  decodes one record (a line of a JSON Lines file) or one document with
  ``json`` and runs the reader's parse of it. A failed check raises
  :class:`InputFormatError` itself; any ``KeyError``, ``TypeError``,
  ``ValueError`` or ``OverflowError`` raised while decoding or parsing (a
  missing field, an unknown enum value, a model's own check) becomes
  ``InputFormatError("path[:line]: bad <what>: <reason>")``. The line is
  named for JSON Lines files, the file alone for documents. Every list of
  numbers goes through ``_numbers``: JSON numbers only (not bools), each
  finite, of a fixed length or as long as the first of its name in the
  file. Every frame goes through ``_frame``: an int within ``MAX_FRAME``
  of 0, so that no later stage overflows on it.
- Reading, column path. Detections, ground truth and trajectories, the
  inputs read on every run, are checked as columns first
  (``_read_checked``): ``_decoded`` decodes each line with ``orjson``, then
  each field's JSON types, finiteness and lengths are checked in one pass
  over the file. ``core.detections_from_columns`` and
  ``core.trajectories_from_columns`` make the checks of ``Detection``,
  ``TrajectoryPoint`` and ``Trajectory`` once per column, and every record
  is built without a ``_parse`` call, its vectors rows of read-only arrays.
  A file that fails any of these checks is parsed again record by record
  through ``_parse``, which raises at the first bad line with the message
  that line gets on its own; a valid file is never parsed twice.

The record path is the reference; the column path accepts only what it
accepts, with the same values. Where the two decoders part, the column path
gives the file to the record path: ``orjson`` refuses the ``NaN`` and
``Infinity`` tokens, a number beyond the largest float (``1e400``), a lone
surrogate escape and invalid UTF-8, which ``json`` decodes (or rejects with
its own message). It decodes an int beyond 64 bits as the nearest float, so
such an int fails an int field's type check, and one just past the largest
float decodes to ±``_FLOAT_MAX``, which no float column accepts.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import orjson

from .core import (
    FEATURE_CLASSES,
    ActionModel,
    CameraModel,
    Detection,
    FrameParse,
    ObjectClass,
    Trajectory,
    TrajectoryPoint,
    VisibilityState,
    detections_from_columns,
    trajectories_from_columns,
)
from .grammar import ActionStateTable
from .metrics import ClearMetrics, FluentReport, Observations, observations
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


def _parse(parse, data: bytes, path, lineno: Optional[int], what: str):
    """``parse(record, lineno)`` of the JSON object in the UTF-8 ``data``:
    one line of the file at ``path``, or all of it when ``lineno`` is None.
    This is the one place where an error raised while decoding or parsing
    becomes an :class:`InputFormatError`."""
    try:
        record = json.loads(data.decode("utf-8"))
        if type(record) is not dict:
            _fail(path, lineno, "expected a JSON object")
        return parse(record, lineno)
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        _fail(path, lineno, f"bad {what}: {exc}")


def _read_jsonl(path, what: str, parse) -> list:
    """``parse(record, lineno)`` of each non-blank line, in file order."""
    with open(path, "rb") as fh:
        return [_parse(parse, line, path, lineno, what)
                for lineno, line in enumerate(fh, start=1) if not line.isspace()]


def _read_json(path, what: str, parse):
    """``parse(document, None)`` of the single JSON document at ``path``."""
    return _parse(parse, Path(path).read_bytes(), path, None, what)


def _check_finite(arrays: list) -> None:
    """Raise ``ValueError`` unless every entry of ``arrays`` (1-D arrays or
    sequences of numbers) is finite: ``orjson`` would write NaN and the
    infinities as ``null``."""
    if arrays and not np.isfinite(np.concatenate(arrays)).all():
        raise ValueError("Out of range float values are not JSON compliant")


def _write_jsonl(path, records: Iterable[dict]) -> None:
    """One compact JSON object per line, each encoded by one ``orjson.dumps``
    call and written as it is made. The caller has checked that its numbers
    are finite; an int ``orjson`` refuses raises ``ValueError`` and leaves no
    file."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(orjson.dumps(record, option=orjson.OPT_APPEND_NEWLINE)
                          for record in records)
    except orjson.JSONEncodeError as exc:
        Path(path).unlink()
        raise ValueError(f"{path}: {exc}") from None


def write_json(path, payload) -> None:
    """Indented strict JSON; a NaN or infinity raises ``ValueError``."""
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n",
                          encoding="utf-8")


_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max
# The largest frame magnitude the readers accept: a float holds every frame
# up to it exactly, and an int64 the sums and differences of frames.
MAX_FRAME = 2**53
_OPTIONAL_INT = (int, type(None))
_CLASSES = {c.value: c for c in ObjectClass}
_STATES = {s.value: s for s in VisibilityState}
# each class and state by member, for the writers: a dict lookup costs less
# than the ``value`` property, and than ``orjson`` encoding the member
_NAMES = {m: m.value for m in (*ObjectClass, *VisibilityState)}


def _typed(value, types, path, lineno, name):
    """``value`` if its type is exactly one of ``types`` (so a JSON ``true``
    is not an int), else an input error."""
    if type(value) not in types:
        _fail(path, lineno, f"{name} has the wrong type: {value!r}")
    return value


def _frame(value, path, lineno):
    """``value`` if it is an int frame within ``MAX_FRAME`` of 0, else an
    input error."""
    if abs(_typed(value, (int,), path, lineno, "frame")) > MAX_FRAME:
        _fail(path, lineno, f"frame must lie within {MAX_FRAME} of 0, got {value!r}")
    return value


def _member(members, value, path, lineno, name):
    """The enum member that ``members`` (members by value) maps ``value``
    to, else an input error. It is a dict lookup because an Enum call costs
    about ten times as much, and readers make one or more per record."""
    member = members.get(value) if type(value) is str else None
    if member is None:
        _fail(path, lineno, f"{name} must be one of {', '.join(members)}, got {value!r}")
    return member


def _finite(value, path, lineno, name):
    """``value`` if it is a JSON number (not a bool) that a float holds
    finitely, else an input error. The bound rejects NaN, the infinities and
    integers too large to convert."""
    if not (type(value) in _NUMBER and abs(value) <= _FLOAT_MAX):
        _fail(path, lineno, f"{name} must be a finite number, got {value!r}")
    return value


def _numbers(value, path, lineno, name, length=None, lengths=None) -> list:
    """``value`` if it is a list of numbers that ``_finite`` would accept,
    else an input error. It must have ``length`` entries if given. With
    ``lengths``, a dict shared by the records of one file, it must be as
    long as the first ``name`` in the file."""
    # one plain loop: a call per number, or a generator per list, costs
    # more, and readers check several lists per record
    bad = type(value) is not list or (length is not None and len(value) != length)
    for v in () if bad else value:
        if not (type(v) in _NUMBER and abs(v) <= _FLOAT_MAX):
            bad = True
            break
    if bad:
        _fail(path, lineno, f"{name} must be a list of {length or 'any number of'} finite "
                            f"numbers, got {value!r}")
    if lengths is not None:
        # lengths[name] is the (length, line) of the first ``name`` in the file
        first, _ = lengths.setdefault(name, (len(value), lineno))
        if len(value) != first:
            _fail(path, lineno, f"{name} has {len(value)} entries, the first in the file "
                                f"has {first}")
    return value


def _matrix(value, path, name) -> np.ndarray:
    """A list of rows of finite numbers (in a single-document file)."""
    rows = _typed(value, (list,), path, None, name)
    return np.asarray([_numbers(row, path, None, name) for row in rows], dtype=float)


# -- detections --------------------------------------------------------------

def write_detections(path, detections: Sequence[Detection]) -> None:
    scalars = [v for d in detections for v in (*d.bbox, d.score)]
    vectors = [v for d in detections
               for v in (d.descriptor, d.pose_feature, d.vehicle_fluent_feature) if v is not None]
    _check_finite([scalars, *vectors])

    def record(d: Detection) -> dict:
        r = {
            "frame": d.frame,
            "class": _NAMES[d.object_class],
            "bbox": list(d.bbox),
            "score": float(d.score),
            "descriptor": d.descriptor.tolist(),
        }
        if d.pose_feature is not None:
            r["pose_feature"] = d.pose_feature.tolist()
        if d.vehicle_fluent_feature is not None:
            r["vehicle_fluent_feature"] = d.vehicle_fluent_feature.tolist()
        return r

    _write_jsonl(path, (record(d) for d in detections))


def read_detections(path, model_lengths: Optional[Mapping] = None) -> List[Detection]:
    """``model_lengths`` maps a feature's field name to the lengths of the
    models that price it, each of which the file's features must have."""
    return _read_checked(_detection_columns, _detection_records, path, model_lengths)


def _float_column(values: list) -> Optional[np.ndarray]:
    """``values``, as ``_decoded`` gives them, as a float array if
    ``_finite`` accepts each of them, else None. A column that holds
    ±``_FLOAT_MAX`` is refused too: ``orjson`` decodes an int just past the
    largest float to it, which ``_finite`` rejects, and the record path
    reads a float that is truly the largest as well."""
    if not _all_of(values, int, float):
        return None
    column = np.array(values, dtype=float)
    return column if (np.abs(column) < _FLOAT_MAX).all() else None


def _numbers_column(values: list, length: Optional[int] = None) -> Optional[np.ndarray]:
    """``values`` as one ``(len(values), k)`` float array if each is a list
    that ``_numbers`` accepts and all have one length ``k`` (``length`` if
    given), else None."""
    lengths = set(map(len, values)) if set(map(type, values)) == {list} else set()
    if len(lengths) != 1 or (length is not None and lengths != {length}):
        return None
    column = _float_column(list(chain.from_iterable(values)))
    return None if column is None else column.reshape(len(values), lengths.pop())


def _all_of(values: list, *types) -> bool:
    """Whether the type of each value is exactly one of ``types``."""
    return set(map(type, values)) <= set(types)


def _frames(values: list) -> bool:
    """Whether ``_frame`` accepts each value."""
    return _all_of(values, int) and max(map(abs, values), default=0) <= MAX_FRAME


def _members(members, values: list) -> Optional[list]:
    """The enum member that ``members`` maps each value to, if each is a
    str that it maps, else None."""
    if not (_all_of(values, str) and set(values) <= members.keys()):
        return None
    return [members[v] for v in values]


def _decoded(path) -> Optional[list]:
    """Each non-blank line of the file decoded by ``orjson``, or None if one
    is not a JSON object. A line that ``orjson`` refuses raises
    ``ValueError``, so the file goes to the record path."""
    with open(path, "rb") as fh:
        records = [orjson.loads(line) for line in fh if not line.isspace()]
    return records if _all_of(records, dict) else None


def _read_checked(columns, records, path, *args):
    """``columns(path, *args)``, the file read and checked as columns. A
    file that fails any check there (``columns`` returns None, or raises
    one of the errors ``_parse`` turns into an input error) is read again
    by ``records(path, *args)`` one record at a time, which raises at the
    first bad line; a valid file is never parsed twice."""
    try:
        result = columns(path, *args)
    except (KeyError, TypeError, ValueError, OverflowError):
        result = None
    return records(path, *args) if result is None else result


def _detection_columns(path, model_lengths: Optional[Mapping]) -> Optional[List[Detection]]:
    """The file's detections, with every check of ``_detection_records`` made
    once per column: each line decoded by ``_decoded``, the JSON types of
    each field in one pass, then ``core.detections_from_columns`` for the
    checks of ``Detection``. If any check fails, None or one of the errors
    ``_parse`` turns into an input error."""
    records = _decoded(path)
    if not records:
        return records
    frames = [r["frame"] for r in records]
    classes = _members(_CLASSES, [r["class"] for r in records])
    if not _frames(frames) or classes is None:
        return None
    columns = {"bbox": _numbers_column([r["bbox"] for r in records], 4),
               "score": _float_column([r["score"] for r in records]),
               "descriptor": _numbers_column([r["descriptor"] for r in records])}
    features = {}
    for name in FEATURE_CLASSES:
        values = [r.get(name) for r in records]
        rows = [i for i, v in enumerate(values) if v is not None]
        if rows:
            columns[name] = _numbers_column([values[i] for i in rows])
            features[name] = (rows, columns[name])
    if any(column is None for column in columns.values()):
        return None
    for name in ("descriptor", *features):
        length = columns[name].shape[1]
        if ((model_lengths or {}).get(name) or {length}) != {length}:
            return None
    return detections_from_columns(frames, classes, columns["bbox"],
                                   columns["score"], columns["descriptor"], features)


def _detection_records(path, model_lengths: Optional[Mapping]) -> List[Detection]:
    """The file's detections, parsed and checked one record at a time: the
    first bad record raises its ``path:line: message``."""
    lengths = {}  # every descriptor (pose, fluent feature) as long as the first

    def detection(r, lineno) -> Detection:
        pose = r.get("pose_feature")
        fluent = r.get("vehicle_fluent_feature")
        return Detection(
            frame=_frame(r["frame"], path, lineno),
            object_class=_member(_CLASSES, r["class"], path, lineno, "class"),
            bbox=_numbers(r["bbox"], path, lineno, "bbox", 4),
            score=float(_typed(r["score"], _NUMBER, path, lineno, "score")),
            descriptor=_numbers(r["descriptor"], path, lineno, "descriptor", lengths=lengths),
            pose_feature=_numbers(pose, path, lineno, "pose_feature", lengths=lengths)
            if pose is not None else None,
            vehicle_fluent_feature=_numbers(fluent, path, lineno, "vehicle_fluent_feature",
                                            lengths=lengths)
            if fluent is not None else None,
        )

    # as in ``detections_from_columns``: a descriptor's norm that overflows
    # is inf, which fails its check, so the overflow itself is no news
    with np.errstate(over="ignore"):
        detections = _read_jsonl(path, "detection record", detection)
    for name, (length, lineno) in lengths.items():
        wanted = (model_lengths or {}).get(name) or {length}
        if wanted != {length}:
            _fail(path, lineno, f"{name} has {length} entries, the models have "
                                f"{'/'.join(map(str, sorted(wanted)))}")
    return detections


# -- camera -------------------------------------------------------------------

def write_camera(path, camera: CameraModel) -> None:
    write_json(path, {"homography": camera.homography.tolist(),
                      "frame_rate": camera.frame_rate})


def read_camera(path) -> CameraModel:
    def camera(payload, _) -> CameraModel:
        return CameraModel(_matrix(payload["homography"], path, "homography"),
                           float(_finite(payload["frame_rate"], path, None, "frame_rate")))

    return _read_json(path, "camera file", camera)


# -- trajectories ---------------------------------------------------------------

def write_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    _check_finite([p.location for t in trajectories for p in t.points])

    def record(t: Trajectory) -> dict:
        track = []
        for p in t.points:
            entry = {
                "frame": p.frame,
                "location": p.location.tolist(),
                "state": _NAMES[p.state],
                "action": p.action,
            }
            if p.container_id is not None:
                entry["container_id"] = p.container_id
            track.append(entry)
        return {"object_id": t.object_id, "class": _NAMES[t.object_class], "track": track}

    _write_jsonl(path, (record(t) for t in trajectories))


def read_trajectories(path) -> List[Trajectory]:
    return _read_checked(_trajectory_columns, _trajectory_records, path)


def _trajectory_columns(path) -> Optional[List[Trajectory]]:
    """The file's trajectories, with every check of ``_trajectory_records``
    made once per column: the JSON types of each field, then
    ``core.trajectories_from_columns`` for the checks of ``TrajectoryPoint``
    and ``Trajectory``. If any check fails, None or one of the errors
    ``_parse`` turns into an input error."""
    records = _decoded(path)
    if not records:
        return records
    object_ids = [r["object_id"] for r in records]
    classes = _members(_CLASSES, [r["class"] for r in records])
    tracks = [r["track"] for r in records]
    if not (_all_of(object_ids, int) and classes is not None and _all_of(tracks, list)):
        return None
    points = list(chain.from_iterable(tracks))
    if not _all_of(points, dict):
        return None
    frames = [p["frame"] for p in points]
    locations = _numbers_column([p["location"] for p in points], 2)
    states = _members(_STATES, [p["state"] for p in points])
    actions = [p.get("action") for p in points]
    container_ids = [p.get("container_id") for p in points]
    if not (_frames(frames) and locations is not None and states is not None
            and _all_of(actions, str, type(None)) and _all_of(container_ids, *_OPTIONAL_INT)):
        return None
    return trajectories_from_columns(object_ids, classes, list(map(len, tracks)), frames,
                                     locations, states, actions, container_ids)


def _trajectory_records(path) -> List[Trajectory]:
    """The file's trajectories, parsed and checked one record at a time:
    the first bad record raises its ``path:line: message``."""
    def trajectory(r, lineno) -> Trajectory:
        points = tuple(
            TrajectoryPoint(
                frame=_frame(p["frame"], path, lineno),
                location=_numbers(p["location"], path, lineno, "location", 2),
                state=_member(_STATES, p["state"], path, lineno, "state"),
                action=_typed(p.get("action"), (str, type(None)), path, lineno, "action"),
                container_id=_typed(p.get("container_id"), _OPTIONAL_INT, path, lineno,
                                    "container_id"),
            )
            for p in r["track"]
        )
        return Trajectory(object_id=_typed(r["object_id"], (int,), path, lineno, "object_id"),
                          object_class=_member(_CLASSES, r["class"], path, lineno, "class"),
                          points=points)

    return _read_jsonl(path, "trajectory record", trajectory)


# -- track outputs ---------------------------------------------------------------

def write_frame_parses(path, parses: Sequence[FrameParse]) -> None:
    _check_finite([p.location for parse in parses for _, p in parse.entries])

    def record(parse: FrameParse) -> dict:
        objects = []
        for object_id, p in parse.entries:
            entry = {
                "object_id": object_id,
                "location": p.location.tolist(),
                "state": _NAMES[p.state],
                "action": p.action,
            }
            if p.container_id is not None:
                entry["container_id"] = p.container_id
            objects.append(entry)
        return {"frame": parse.frame, "objects": objects}

    _write_jsonl(path, (record(p) for p in parses))


# -- ground truth ----------------------------------------------------------------

def write_ground_truth(path, records: Sequence[GroundTruthRecord]) -> None:
    _check_finite([r.location for r in records])

    def record(r: GroundTruthRecord) -> dict:
        d = {
            "frame": r.frame,
            "object_id": r.object_id,
            "location": r.location.tolist(),
            "state": _NAMES[r.state],
            "class": _NAMES[r.object_class],
        }
        if r.container_id is not None:
            d["container_id"] = r.container_id
        return d

    _write_jsonl(path, (record(r) for r in records))


def read_ground_truth(path) -> List[GroundTruthRecord]:
    return _read_checked(_ground_truth_columns, _ground_truth_records, path)


def _ground_truth_columns(path) -> Optional[List[GroundTruthRecord]]:
    """The file's records, with every check of ``_ground_truth_records``
    made once per column, each location a row of a read-only array. If any
    check fails, None or one of the errors ``_parse`` turns into an input
    error."""
    records = _decoded(path)
    if not records:
        return records
    frames = [r["frame"] for r in records]
    object_ids = [r["object_id"] for r in records]
    classes = _members(_CLASSES, [r.get("class", "person") for r in records])
    locations = _numbers_column([r["location"] for r in records], 2)
    states = _members(_STATES, [r["state"] for r in records])
    container_ids = [r.get("container_id") for r in records]
    if not (_frames(frames) and _all_of(object_ids, int) and classes is not None
            and locations is not None and states is not None
            and _all_of(container_ids, *_OPTIONAL_INT)):
        return None
    locations.setflags(write=False)
    new = object.__new__
    out = []
    for frame, object_id, object_class, location, state, container_id in zip(
            frames, object_ids, classes, locations, states, container_ids):
        record = new(GroundTruthRecord)
        object.__setattr__(record, "__dict__", {
            "frame": frame, "object_id": object_id, "object_class": object_class,
            "location": location, "state": state, "container_id": container_id})
        out.append(record)
    return out


def _ground_truth_records(path) -> List[GroundTruthRecord]:
    """The file's records, parsed and checked one record at a time: the
    first bad record raises its ``path:line: message``."""
    def record(r, lineno) -> GroundTruthRecord:
        return GroundTruthRecord(
            frame=_frame(r["frame"], path, lineno),
            object_id=_typed(r["object_id"], (int,), path, lineno, "object_id"),
            object_class=_member(_CLASSES, r.get("class", "person"), path, lineno, "class"),
            location=np.asarray(_numbers(r["location"], path, lineno, "location", 2),
                                dtype=float),
            state=_member(_STATES, r["state"], path, lineno, "state"),
            container_id=_typed(r.get("container_id"), _OPTIONAL_INT, path, lineno,
                                "container_id"),
        )

    return _read_jsonl(path, "ground-truth record", record)


def ground_truth_observations(records: Sequence[GroundTruthRecord]) -> Observations:
    """The records as the columns ``metrics`` evaluates."""
    return observations([r.frame for r in records], [r.object_id for r in records],
                        [r.location for r in records], [r.state for r in records])


# -- transition table (inside the action-models file) -------------------------

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


def _table_from_rows(records, path) -> ActionStateTable:
    """Zero entries are dropped; a non-number or non-finite one is an input
    error here, and a negative one reaches ``ActionStateTable``, which
    rejects it."""
    rows = {}
    for r in _typed(records, (list,), path, None, "transition table rows"):
        key = (_member(_STATES, r["state"], path, None, "state"),
               _typed(r["action"], (str,), path, None, "action"))
        rows[key] = {_member(_STATES, s, path, None, "next state"):
                     float(_finite(p, path, None, "probability"))
                     for s, p in _typed(r["next"], (dict,), path, None, "next").items()
                     if p != 0}
    return ActionStateTable(rows=rows)


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
    write_json(path, {"actions": actions, "transition_table": _table_payload(table, alpha)})


def read_action_models(path):
    """Returns (pose models, vehicle templates, transition table)."""
    def action_models(payload, _):
        models = {}
        templates = {}
        for entry in _typed(payload["actions"], (list,), path, None, "actions"):
            name = _typed(entry["name"], (str,), path, None, "action name")
            if "mu" in entry:
                models[name] = ActionModel(
                    name=name,
                    mean=_numbers(entry["mu"], path, None, "mu"),
                    covariance=_matrix(entry["sigma"], path, "sigma"),
                )
            if "vehicle_template" in entry:
                templates[name] = np.asarray(
                    _numbers(entry["vehicle_template"], path, None, "vehicle_template"),
                    dtype=float)
        return models, templates, _table_from_rows(payload["transition_table"]["rows"], path)

    return _read_json(path, "action models file", action_models)


# -- training clips --------------------------------------------------------------

def read_clips(path):
    """Training clips for ``fit-model``: returns (pose features by action,
    vehicle fluent features by action, (state, action, next state) triples).

    A clip record is ``{"action", "pose_feature"?, "vehicle_fluent_feature"?,
    "transitions"?: [[state, action, next state], ...]}``; every feature of
    one kind in a file has the same length.
    """
    features = {"pose_feature": {}, "vehicle_fluent_feature": {}}
    transitions = []
    lengths = {}

    def clip(r, lineno) -> None:
        action = _typed(r["action"], (str,), path, lineno, "action")
        for name, by_action in features.items():
            value = r.get(name)
            if value is not None:
                by_action.setdefault(action, []).append(
                    np.asarray(_numbers(value, path, lineno, name, lengths=lengths), dtype=float))
        for triple in _typed(r.get("transitions", []), (list,), path, lineno, "transitions"):
            s_cur, act, s_next = _typed(triple, (list,), path, lineno, "transition")
            transitions.append((_member(_STATES, s_cur, path, lineno, "transition state"),
                                _typed(act, (str,), path, lineno, "transition action"),
                                _member(_STATES, s_next, path, lineno, "transition state")))

    _read_jsonl(path, "clip record", clip)
    return features["pose_feature"], features["vehicle_fluent_feature"], transitions


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
        "noise": dataclasses.asdict(noise),
    }
    write_json(path, payload)


def read_scenario(path) -> Tuple[ScenarioScript, NoiseProfile]:
    def integer(value, name):
        return _typed(value, (int,), path, None, name)

    def point(value, name):
        return tuple(_numbers(value, path, None, name, 2))

    def waypoint(value):
        frame, x, y = _numbers(value, path, None, "waypoint", 3)
        return integer(frame, "waypoint frame"), x, y

    def scenario(payload, _):
        agents = tuple(
            AgentScript(
                agent_id=integer(a["id"], "agent id"),
                object_class=_member(_CLASSES, a["class"], path, None, "agent class"),
                waypoints=tuple(waypoint(w) for w in
                                _typed(a["waypoints"], (list,), path, None, "waypoints")),
            )
            for a in _typed(payload["agents"], (list,), path, None, "agents")
        )
        events = tuple(
            ScenarioEvent(
                kind=_typed(e["kind"], (str,), path, None, "event kind"),
                agent_id=integer(e["agent_id"], "event agent_id"),
                start_frame=integer(e["start_frame"], "event start_frame"),
                end_frame=integer(e["end_frame"], "event end_frame"),
                target_id=_typed(e.get("target_id"), _OPTIONAL_INT, path, None,
                                 "event target_id"),
            )
            for e in _typed(payload.get("events", []), (list,), path, None, "events")
        )
        obstacles = tuple(
            Obstacle(p1=point(o["p1"], "obstacle p1"), p2=point(o["p2"], "obstacle p2"))
            for o in _typed(payload.get("obstacles", []), (list,), path, None, "obstacles")
        )
        script = ScenarioScript(
            name=_typed(payload["name"], (str,), path, None, "name"),
            duration_frames=integer(payload["duration_frames"], "duration_frames"),
            agents=agents,
            events=events,
            obstacles=obstacles,
            camera_point=point(payload.get("camera_point", [25.0, -40.0]), "camera_point"),
        )
        noise = NoiseProfile(**{
            name: integer(value, name) if name == "seed" else _finite(value, path, None, name)
            for name, value in _typed(payload.get("noise", {}), (dict,), path, None,
                                      "noise").items()
        })
        return script, noise

    return _read_json(path, "scenario file", scenario)


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
            # a precision or recall with an empty base is NaN: written as null
            payload["fluents"] = {
                state: {name: None if math.isnan(value) else value
                        for name, value in scores.items()}
                for state, scores in fluents.as_dict().items()
            }
            payload["fluent_confusion"] = fluents.confusion.tolist()
        payload["sequence"] = sequence
        write_json(path, payload)
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
