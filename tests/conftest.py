"""Shared fixtures and instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fluenttrack import core, grammar


@pytest.fixture(scope="session")
def camera():
    return core.CameraModel(np.eye(3), 10.0)


@pytest.fixture(scope="session")
def params():
    return grammar.default_parameters()


def unit_vector(rng, dim=8):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def make_detection(frame, x, y, score=0.95, descriptor=None, object_class=None, rng=None):
    if descriptor is None:
        descriptor = unit_vector(rng or np.random.default_rng(0))
    object_class = object_class or core.ObjectClass.PERSON
    if object_class is core.ObjectClass.VEHICLE:
        bbox = (x - 2.0, y - 1.6, 4.0, 1.6)
    else:
        bbox = (x - 0.25, y - 1.7, 0.5, 1.7)
    return core.Detection(frame=frame, object_class=object_class, bbox=bbox,
                          score=score, descriptor=descriptor)


def random_walk_instance(seed, n_agents=1, agent_spacing=8.0):
    """Small random tracking instance: noisy walks, misses, a few clutter hits."""
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(5, 10))
    dets = []
    for a in range(n_agents):
        proto = unit_vector(rng)
        pos = np.array([rng.uniform(0, 4) + agent_spacing * a, rng.uniform(0, 4)])
        vel = rng.uniform(-0.2, 0.2, size=2)
        for f in range(n_frames):
            pos = pos + vel + rng.normal(scale=0.03, size=2)
            if rng.random() < 0.12:
                continue
            d = proto + rng.normal(scale=0.02, size=8)
            d /= np.linalg.norm(d)
            dets.append(make_detection(f, pos[0], pos[1],
                                       score=float(rng.uniform(0.85, 0.98)), descriptor=d))
    for _ in range(int(rng.integers(0, 3))):
        dets.append(make_detection(
            int(rng.integers(0, n_frames)), rng.uniform(0, 12), rng.uniform(0, 6),
            score=float(rng.uniform(0.3, 0.6)), descriptor=unit_vector(rng)))
    return dets

