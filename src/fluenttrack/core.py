"""Shared domain types, ground-plane geometry, and descriptor utilities.

Everything in this module is an immutable value record or a pure function, so
instances can be shared freely between threads.

Batched kernels keep the bits of their scalar references. ``ground_points``
and ``ground_distances`` compute a whole sequence in one stacked call, and
each row is the same BLAS kernel on the same operands as one call of
``project_to_ground`` (kept in ``tests/core_reference.py``) or
``ground_distance``: a stacked ``np.matmul`` of
``(n, 3, 3) @ (n, 3, 1)`` runs the ``gemv`` of ``homography @ foot``, and
``row_dots``, a stacked ``(n, 1, k) @ (n, k, 1)``, runs the ``ddot`` of a
1-D ``a @ b``, ``np.dot(a, b)`` and ``np.linalg.norm(v)``. Forms that look
equal are not: ``np.einsum``, ``np.linalg.norm(axis=1)`` and
``x * x + y * y`` round differently from ``ddot`` in about 8 % of random 2-D
distances (OpenBLAS's ``ddot`` fuses a multiply-add), and
``feet @ homography.T`` runs ``gemm``, which differs from ``gemv`` in about a
fifth of random homogeneous coordinates (NumPy 2.4 on OpenBLAS). A 1-D norm
is ``math.sqrt(v @ v)``, the same ``ddot`` as ``np.linalg.norm`` without its
overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

UNIT_NORM_TOL = 1e-6


class DegenerateProjectionError(ValueError):
    """Homography sent a point to (or too close to) the line at infinity."""


class InternalInvariantError(RuntimeError):
    """A solver-internal bookkeeping invariant was violated (exit code 3)."""


class ObjectClass(str, Enum):
    PERSON = "person"
    VEHICLE = "vehicle"
    SUITCASE = "suitcase"


class VisibilityState(str, Enum):
    """Per-frame visibility status of a tracked object.

    Visible objects are detectable; occluded objects are hidden but move
    independently; contained objects sit inside a container and inherit its
    motion.
    """

    VISIBLE = "Visible"
    OCCLUDED = "Occluded"
    CONTAINED = "Contained"


@dataclass(frozen=True)
class AtomicAction:
    """One entry of the action vocabulary. Ids are contiguous from 0."""

    id: int
    name: str


@dataclass(frozen=True)
class CameraModel:
    """Ground-plane calibration: pixel -> metric homography plus frame rate."""

    homography: np.ndarray
    frame_rate: float

    def __post_init__(self) -> None:
        h = np.asarray(self.homography, dtype=float)
        if h.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("homography entries must be finite")
        if abs(float(np.linalg.det(h))) <= 1e-12:
            raise ValueError("homography must be invertible (|det| > 1e-12)")
        if not (math.isfinite(self.frame_rate) and self.frame_rate > 0):
            raise ValueError("frame_rate must be finite and positive")
        h.setflags(write=False)
        object.__setattr__(self, "homography", h)
        object.__setattr__(self, "frame_rate", float(self.frame_rate))


def _as_readonly_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Detection:
    """A single per-frame observation ingested from a detector.

    ``descriptor`` is a unit-norm appearance vector; ``pose_feature`` exists
    only for persons and ``vehicle_fluent_feature`` only for vehicles.
    """

    frame: int
    object_class: ObjectClass
    bbox: Tuple[float, float, float, float]
    score: float
    descriptor: np.ndarray
    pose_feature: Optional[np.ndarray] = None
    vehicle_fluent_feature: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError("frame index must be >= 0")
        x, y, w, h = map(float, self.bbox)
        if not all(map(math.isfinite, (x, y, w, h))):
            raise ValueError("bbox values must be finite")
        if w <= 0 or h <= 0:
            raise ValueError("bbox width and height must be positive")
        object.__setattr__(self, "bbox", (x, y, w, h))
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")
        desc = _as_readonly_vector(self.descriptor, "descriptor")
        if abs(math.sqrt(desc @ desc) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("descriptor must be unit norm (within 1e-6)")
        object.__setattr__(self, "descriptor", desc)
        if self.pose_feature is not None:
            if self.object_class is not ObjectClass.PERSON:
                raise ValueError("pose_feature is only valid for persons")
            object.__setattr__(
                self, "pose_feature", _as_readonly_vector(self.pose_feature, "pose_feature")
            )
        if self.vehicle_fluent_feature is not None:
            if self.object_class is not ObjectClass.VEHICLE:
                raise ValueError("vehicle_fluent_feature is only valid for vehicles")
            object.__setattr__(
                self,
                "vehicle_fluent_feature",
                _as_readonly_vector(self.vehicle_fluent_feature, "vehicle_fluent_feature"),
            )


# The class each optional detection feature is valid for.
FEATURE_CLASSES = {"pose_feature": ObjectClass.PERSON,
                   "vehicle_fluent_feature": ObjectClass.VEHICLE}


def detections_from_columns(
    frames: Sequence[int],
    classes: Sequence[ObjectClass],
    bboxes: np.ndarray,
    scores: np.ndarray,
    descriptors: np.ndarray,
    features: Mapping[str, Tuple[Sequence[int], np.ndarray]],
) -> List[Detection]:
    """The ``Detection`` of each row of the columns, with the checks of
    ``Detection.__post_init__`` made once per column.

    Row ``i`` is ``frames[i]``, ``classes[i]``, the ``(n, 4)`` ``bboxes``,
    ``scores`` and the ``(n, k)`` ``descriptors``. ``features`` maps a name
    of ``FEATURE_CLASSES`` to ``(rows, values)``: ``values[j]`` is that
    feature of detection ``rows[j]``, and the others have none. A check that
    ``__post_init__`` would fail on some row raises its ``ValueError``,
    naming the first such row; checks run in ``__post_init__``'s order. The
    detections are then built without running it: each field holds the
    value ``__post_init__`` would give it, and every vector is a row of a
    read-only array.
    """
    def check(bad: np.ndarray, message: str) -> None:
        rows = np.flatnonzero(bad)
        if len(rows):
            raise ValueError(f"detection {rows[0]}: {message}")

    n = len(frames)
    if n == 0:
        return []
    check(np.array([f < 0 for f in frames]), "frame index must be >= 0")
    bboxes = np.array(bboxes, dtype=float)
    check(~np.isfinite(bboxes).all(axis=1), "bbox values must be finite")
    check(~((bboxes[:, 2] > 0) & (bboxes[:, 3] > 0)), "bbox width and height must be positive")
    scores = np.array(scores, dtype=float)
    check(~((scores >= 0.0) & (scores <= 1.0)), "score must lie in [0, 1]")
    descriptors = np.array(descriptors, dtype=float)
    check(~np.isfinite(descriptors).all(axis=1), "descriptor entries must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, which fails the check
        norms = np.sqrt(row_dots(descriptors, descriptors))
    check(np.abs(norms - 1.0) > UNIT_NORM_TOL, "descriptor must be unit norm (within 1e-6)")
    descriptors.setflags(write=False)
    by_row = {}
    for name, object_class in FEATURE_CLASSES.items():
        rows, values = features.get(name, ((), np.empty((0, 0))))
        values = np.array(values, dtype=float)
        wrong_class = np.zeros(n, dtype=bool)
        wrong_class[list(rows)] = [classes[r] is not object_class for r in rows]
        check(wrong_class, f"{name} is only valid for {object_class.value}s")
        not_finite = np.zeros(n, dtype=bool)
        not_finite[list(rows)] = ~np.isfinite(values).all(axis=1)
        check(not_finite, f"{name} entries must be finite")
        values.setflags(write=False)
        column = [None] * n
        for r, row in zip(rows, values):
            column[r] = row
        by_row[name] = column

    boxes = map(tuple, bboxes.tolist())
    new = object.__new__
    detections = []
    for frame, object_class, bbox, score, descriptor, pose, fluent in zip(
            frames, classes, boxes, scores.tolist(), descriptors,
            by_row["pose_feature"], by_row["vehicle_fluent_feature"]):
        detection = new(Detection)
        object.__setattr__(detection, "__dict__", {
            "frame": frame, "object_class": object_class, "bbox": bbox, "score": score,
            "descriptor": descriptor, "pose_feature": pose, "vehicle_fluent_feature": fluent})
        detections.append(detection)
    return detections


@dataclass(frozen=True)
class Tracklet:
    """A short confident trajectory fragment over a contiguous frame range.

    ``scores`` and ``detection_indices`` keep the link back to the member
    detections so later stages can reuse their evidence; both are optional for
    hand-built fixtures.
    """

    id: int
    object_class: ObjectClass
    start_frame: int
    positions: np.ndarray
    pooled_descriptor: np.ndarray
    scores: Optional[Tuple[float, ...]] = None
    detection_indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be an (n, 2) array with n >= 1")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        pooled = _as_readonly_vector(self.pooled_descriptor, "pooled_descriptor")
        if abs(math.sqrt(pooled @ pooled) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("pooled_descriptor must be unit norm (within 1e-6)")
        object.__setattr__(self, "pooled_descriptor", pooled)
        for extra_name in ("scores", "detection_indices"):
            extra = getattr(self, extra_name)
            if extra is not None and len(extra) != pos.shape[0]:
                raise ValueError(f"{extra_name} length must match positions")

    @property
    def end_frame(self) -> int:
        return self.start_frame + len(self.positions) - 1


@dataclass(frozen=True)
class TrajectoryPoint:
    frame: int
    location: np.ndarray
    state: VisibilityState
    action: Optional[str] = None
    container_id: Optional[int] = None

    def __post_init__(self) -> None:
        loc = np.asarray(self.location, dtype=float)
        if loc.shape != (2,):
            raise ValueError("location must be a 2-D ground point")
        loc.setflags(write=False)
        object.__setattr__(self, "location", loc)
        if (self.container_id is not None) != (self.state is VisibilityState.CONTAINED):
            raise ValueError("container_id must be present iff state is Contained")


@dataclass(frozen=True)
class Trajectory:
    """A solved object track: one point per frame from birth to death."""

    object_id: int
    object_class: ObjectClass
    points: Tuple[TrajectoryPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("trajectory must contain at least one point")
        frames = [p.frame for p in self.points]
        for a, b in zip(frames, frames[1:]):
            if b != a + 1:
                raise ValueError("trajectory frames must be contiguous and increasing")

    @property
    def birth_frame(self) -> int:
        return self.points[0].frame

    @property
    def death_frame(self) -> int:
        return self.points[-1].frame


def trajectories_from_columns(
    object_ids: Sequence[int],
    classes: Sequence[ObjectClass],
    lengths: Sequence[int],
    frames: Sequence[int],
    locations: np.ndarray,
    states: Sequence[VisibilityState],
    actions: Sequence[Optional[str]],
    container_ids: Sequence[Optional[int]],
) -> List[Trajectory]:
    """The ``Trajectory`` of each row of ``object_ids`` and ``classes``,
    with the checks of ``TrajectoryPoint`` and ``Trajectory`` made once per
    column.

    Trajectory ``t`` has the next ``lengths[t]`` rows of the point columns:
    ``frames``, the ``(n, 2)`` ``locations``, ``states``, ``actions`` and
    ``container_ids``. Each check of ``__post_init__`` runs over all rows at
    once, points' checks before trajectories'; the first that fails raises
    its ``ValueError``, naming the first point or trajectory it fails on.
    The trajectories are then built without running ``__post_init__``:
    each location is a row of a read-only array.
    """
    def check(bad, what: str, message: str) -> None:
        rows = np.flatnonzero(bad)
        if len(rows):
            raise ValueError(f"{what} {rows[0]}: {message}")

    locations = np.array(locations, dtype=float)
    if locations.shape != (len(frames), 2):
        raise ValueError("location must be a 2-D ground point")
    check([(c is not None) != (s is VisibilityState.CONTAINED)
           for c, s in zip(container_ids, states)],
          "point", "container_id must be present iff state is Contained")
    lengths = np.array(lengths, dtype=np.int64)
    check(lengths < 1, "trajectory", "trajectory must contain at least one point")
    ends = np.cumsum(lengths)
    skips = np.diff(np.array(frames, dtype=np.int64)) != 1
    skips[ends[:-1] - 1] = False  # the step from one trajectory to the next
    bad = np.zeros(len(lengths), dtype=bool)
    bad[np.searchsorted(ends, np.flatnonzero(skips), side="right")] = True
    check(bad, "trajectory", "trajectory frames must be contiguous and increasing")
    locations.setflags(write=False)

    new = object.__new__
    points = []
    for frame, location, state, action, container_id in zip(
            frames, locations, states, actions, container_ids):
        point = new(TrajectoryPoint)
        object.__setattr__(point, "__dict__", {
            "frame": frame, "location": location, "state": state, "action": action,
            "container_id": container_id})
        points.append(point)
    trajectories = []
    start = 0
    for object_id, object_class, n in zip(object_ids, classes, lengths.tolist()):
        trajectory = new(Trajectory)
        object.__setattr__(trajectory, "__dict__", {
            "object_id": object_id, "object_class": object_class,
            "points": tuple(points[start:start + n])})
        trajectories.append(trajectory)
        start += n
    return trajectories


class FrameParse(NamedTuple):
    """Every object's solved point at one frame: ``entries`` holds
    ``(object_id, point)`` pairs in object-id order, and each point is its
    trajectory's own, not a copy."""

    frame: int
    entries: Tuple[Tuple[int, TrajectoryPoint], ...]


@dataclass(frozen=True)
class ActionModel:
    """Gaussian pose model for one action (mean + positive-definite covariance).

    ``log_det`` caches the covariance's log-determinant.
    """

    name: str
    mean: np.ndarray
    covariance: np.ndarray
    log_det: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = _as_readonly_vector(self.mean, "mean")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError("covariance shape must match mean dimension")
        if not np.isfinite(cov).all():
            raise ValueError(f"covariance entries for action {self.name!r} must be finite")
        not_positive_definite = f"covariance for action {self.name!r} is not positive definite"
        try:
            # a positive determinant alone would admit -I in even dimensions
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError(not_positive_definite) from None
        sign, log_det = np.linalg.slogdet(cov)
        if sign <= 0:
            raise ValueError(not_positive_definite)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "log_det", float(log_det))


# Speed bound of vehicles, in m/s: containers move much faster than the
# pedestrians that ``tau_s`` bounds.
VEHICLE_SPEED_BOUND = 20.0


@dataclass(frozen=True)
class ModelParameters:
    """All tunable thresholds and fitted models used across the pipeline.

    ``transition_table`` holds the action-conditioned state transition
    probabilities (see :mod:`fluenttrack.grammar`).
    """

    tau_s: float = 4.0
    tau_sigma: float = 0.8
    tau_c: float = 3.0
    max_contained: int = 5
    max_gap_frames: int = 150
    solver_entry_exit_cost: float = 12.0
    transition_table: Optional["ActionStateTable"] = None  # noqa: F821
    action_pose_models: Mapping[str, ActionModel] = field(default_factory=dict)
    vehicle_fluent_templates: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("tau_s", "tau_sigma", "tau_c", "solver_entry_exit_cost"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.max_contained < 1:
            raise ValueError("max_contained must be >= 1")
        if self.max_gap_frames < 1:
            raise ValueError("max_gap_frames must be >= 1")

    def speed_bound(self, object_class: ObjectClass) -> float:
        """Speed bound of ``object_class`` in m/s: ``VEHICLE_SPEED_BOUND``
        for vehicles, ``tau_s`` otherwise."""
        if object_class is ObjectClass.VEHICLE:
            return VEHICLE_SPEED_BOUND
        return self.tau_s


# ---------------------------------------------------------------------------
# geometry and descriptor operations
# ---------------------------------------------------------------------------

def ground_points(camera: CameraModel, bboxes: Sequence[Sequence[float]]) -> np.ndarray:
    """Map each pixel box to ground-plane meters via its bottom-center
    point, as one ``(n, 2)`` array with the bits of the scalar
    ``project_to_ground`` in ``tests/core_reference.py``. Raises
    :class:`DegenerateProjectionError` for the first box whose projected
    homogeneous scale is (near) zero."""
    boxes = np.asarray(bboxes, dtype=float).reshape(-1, 4)
    feet = np.stack([boxes[:, 0] + boxes[:, 2] / 2.0, boxes[:, 1] + boxes[:, 3],
                     np.ones(len(boxes))], axis=1)
    homographies = np.broadcast_to(camera.homography, (len(boxes), 3, 3))
    projected = np.matmul(homographies, feet[:, :, None])[:, :, 0]
    degenerate = np.flatnonzero(np.abs(projected[:, 2]) < 1e-9)
    if len(degenerate):
        k = degenerate[0]
        raise DegenerateProjectionError(
            f"bottom-center {feet[k, :2]} projects to homogeneous scale {projected[k, 2]:.3e}"
        )
    return projected[:, :2] / projected[:, 2:]


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``, each
    with the bits of ``a[i] @ b[i]``."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def ground_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two ground-plane points, in meters. The
    scalar reference of ``ground_distances``."""
    return float(np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)))


def ground_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``ground_distance`` of each row pair of two ``(n, 2)`` arrays, with
    the same bits."""
    diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return np.sqrt(row_dots(diff, diff))


# Rows that ``gathered_rows`` gathers for one stacked call: bounds the
# memory of the gathered copies, whatever the number of pairs.
GATHER_BLOCK = 2048


def gathered_rows(kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  a: np.ndarray, i: np.ndarray, b: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``kernel(a[i], b[j])`` for a row-wise kernel (``ground_distances``,
    ``row_dots``), computed ``GATHER_BLOCK`` rows at a time; each row keeps
    its bits."""
    out = np.empty(len(i))
    for start in range(0, len(i), GATHER_BLOCK):
        rows = slice(start, start + GATHER_BLOCK)
        out[rows] = kernel(a[i[rows]], b[j[rows]])
    return out


def pool_descriptors(descriptors: Sequence[np.ndarray]) -> np.ndarray:
    """Average a set of unit descriptors and re-normalize to unit length."""
    if len(descriptors) == 0:
        raise ValueError("cannot pool an empty descriptor list")
    stacked = np.asarray(descriptors, dtype=float)
    if stacked.ndim != 2:
        raise ValueError("descriptors must share a common dimension")
    mean = stacked.mean(axis=0)
    norm = math.sqrt(mean @ mean)
    if norm < 1e-12:
        raise ValueError("descriptors cancel out; pooled mean has zero norm")
    return mean / norm
