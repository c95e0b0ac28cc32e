"""Shared domain types, ground-plane geometry, and descriptor utilities.

Everything in this module is an immutable value record or a pure function, so
instances can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence, Tuple

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
        if abs(float(np.linalg.norm(desc)) - 1.0) > UNIT_NORM_TOL:
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
        if abs(float(np.linalg.norm(pooled)) - 1.0) > UNIT_NORM_TOL:
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

    def point_at(self, frame: int) -> TrajectoryPoint:
        return self.points[frame - self.birth_frame]


@dataclass(frozen=True)
class ParseEntry:
    object_id: int
    location: np.ndarray
    state: VisibilityState
    action: str
    container_id: Optional[int] = None

    def __post_init__(self) -> None:
        loc = np.asarray(self.location, dtype=float)
        loc.setflags(write=False)
        object.__setattr__(self, "location", loc)
        if (self.container_id is not None) != (self.state is VisibilityState.CONTAINED):
            raise ValueError("container_id must be present iff state is Contained")


@dataclass(frozen=True)
class FrameParse:
    """Per-frame assignment of location, state, and action for every object."""

    frame: int
    entries: Tuple[ParseEntry, ...]

    def __post_init__(self) -> None:
        ids = [e.object_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("object ids must be unique within a frame")


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


@dataclass(frozen=True)
class ModelParameters:
    """All tunable thresholds and fitted models used across the pipeline.

    ``transition_table`` holds the action-conditioned state transition
    probabilities (see :mod:`fluenttrack.grammar`). Vehicles get their own
    speed bound because containers move much faster than pedestrians.
    """

    tau_s: float = 4.0
    tau_sigma: float = 0.8
    tau_c: float = 3.0
    max_contained: int = 5
    max_gap_frames: int = 150
    tau_s_vehicle: float = 20.0
    entry_exit_cost: float = 2.0
    solver_entry_exit_cost: float = 12.0
    score_floor: float = 0.01
    score_ceiling: float = 0.99
    container_max_link_gap: int = 5
    link_skip_penalty: float = 0.6
    transition_table: Optional["ActionStateTable"] = None  # noqa: F821
    action_pose_models: Mapping[str, ActionModel] = field(default_factory=dict)
    vehicle_fluent_templates: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("tau_s", "tau_sigma", "tau_c", "tau_s_vehicle", "entry_exit_cost",
                     "solver_entry_exit_cost"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_contained < 1:
            raise ValueError("max_contained must be >= 1")
        if self.max_gap_frames < 1:
            raise ValueError("max_gap_frames must be >= 1")
        if not 0 < self.score_floor < self.score_ceiling < 1:
            raise ValueError("score clamp bounds must satisfy 0 < floor < ceiling < 1")

    def clamp_score(self, score: float) -> float:
        return min(max(float(score), self.score_floor), self.score_ceiling)

    def speed_bound(self, object_class: ObjectClass) -> float:
        if object_class is ObjectClass.VEHICLE:
            return self.tau_s_vehicle
        return self.tau_s


# ---------------------------------------------------------------------------
# geometry and descriptor operations
# ---------------------------------------------------------------------------

def project_to_ground(camera, bbox: Sequence[float]) -> np.ndarray:
    """Map a pixel box to ground-plane meters via its bottom-center point.

    ``camera`` may be a :class:`CameraModel` or a bare 3x3 homography.
    Raises :class:`DegenerateProjectionError` when the homogeneous scale of
    the projected point is (near) zero.
    """
    h = camera.homography if isinstance(camera, CameraModel) else np.asarray(camera, dtype=float)
    if h.shape != (3, 3):
        raise ValueError("homography must be 3x3")
    x, y, w, hh = (float(v) for v in bbox)
    foot = np.array([x + w / 2.0, y + hh, 1.0])
    projected = h @ foot
    if abs(projected[2]) < 1e-9:
        raise DegenerateProjectionError(
            f"bottom-center {foot[:2]} projects to homogeneous scale {projected[2]:.3e}"
        )
    return projected[:2] / projected[2]


def ground_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two ground-plane points, in meters."""
    return float(np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)))


def descriptor_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit-norm appearance descriptors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"descriptor dimensions differ: {a.shape} vs {b.shape}")
    for v in (a, b):
        if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("descriptors must be unit norm (within 1e-6)")
    return float(np.dot(a, b))


def pool_descriptors(descriptors: Sequence[np.ndarray]) -> np.ndarray:
    """Average a set of unit descriptors and re-normalize to unit length."""
    if len(descriptors) == 0:
        raise ValueError("cannot pool an empty descriptor list")
    stacked = np.asarray(descriptors, dtype=float)
    if stacked.ndim != 2:
        raise ValueError("descriptors must share a common dimension")
    mean = stacked.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise ValueError("descriptors cancel out; pooled mean has zero norm")
    return mean / norm
