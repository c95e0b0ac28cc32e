"""Scalar references of the stacked geometry and descriptor kernels:
``core.ground_points`` keeps the bits of ``project_to_ground`` on every box,
and ``tracklets.compatible_pairs`` those of ``descriptor_similarity`` on
every pair.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from fluenttrack.core import UNIT_NORM_TOL, CameraModel, DegenerateProjectionError


def project_to_ground(camera: CameraModel, bbox: Sequence[float]) -> np.ndarray:
    """Map a pixel box to ground-plane meters via its bottom-center point.

    Raises :class:`DegenerateProjectionError` when the homogeneous scale of
    the projected point is (near) zero. The scalar reference of
    ``ground_points``.
    """
    x, y, w, hh = (float(v) for v in bbox)
    foot = np.array([x + w / 2.0, y + hh, 1.0])
    projected = camera.homography @ foot
    if abs(projected[2]) < 1e-9:
        raise DegenerateProjectionError(
            f"bottom-center {foot[:2]} projects to homogeneous scale {projected[2]:.3e}"
        )
    return projected[:2] / projected[2]


def descriptor_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit-norm appearance descriptors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"descriptor dimensions differ: {a.shape} vs {b.shape}")
    for v in (a, b):
        if abs(math.sqrt(v @ v) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("descriptors must be unit norm (within 1e-6)")
    return float(a @ b)
