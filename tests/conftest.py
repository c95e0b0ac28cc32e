"""Shared fixtures and instance generators for the test suite."""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Optional, Tuple

import numpy as np
import pytest

from fluenttrack import core, grammar


@pytest.fixture(scope="session")
def camera():
    return core.CameraModel(np.eye(3), 10.0)


@pytest.fixture(scope="session")
def params():
    return grammar.default_parameters()


@pytest.fixture(scope="session")
def suite_runs():
    """The 20 suite sequences, simulated as the acceptance suite simulates
    them: (name, SimulationResult) pairs."""
    from fluenttrack.simulator import default_camera, simulate, standard_suite

    camera, params = default_camera(), grammar.default_parameters()
    return [(script.name, simulate(script, noise, camera, params))
            for script, noise in standard_suite()]


@pytest.fixture(scope="session")
def suite_prior_only(suite_runs, params):
    """Each suite sequence solved in ``prior_only`` mode: (name,
    SimulationResult, JointResult) triples, in suite order."""
    from fluenttrack.simulator import default_camera
    from fluenttrack.solver import joint_solve

    return [(name, sim, joint_solve(sim.detections, default_camera(), params, mode="prior_only"))
            for name, sim in suite_runs]


def same_bits(a, b) -> bool:
    """Whether two float arrays have the same shape and the same bits in
    every entry (so -0.0 != 0.0, and a NaN equals only the same NaN)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and bool((a.view(np.uint64) == b.view(np.uint64)).all())


class Stop(NamedTuple):
    """A stop as ``energy_reference.edge_cost`` reads it: where and when, in which
    state, and the evidence a hop leaving it pays."""

    frame: int
    location: np.ndarray
    state: core.VisibilityState
    detection_score: Optional[float] = None
    container_score: Optional[float] = None
    gap_similarity: Optional[float] = None
    pose_feature: Optional[np.ndarray] = None
    pose_energies: Optional[Mapping[str, float]] = None


def interior_stops(interior) -> Iterator[Tuple[int, np.ndarray, core.VisibilityState, str]]:
    """(frame, location, state, action) of each stop of a ``solver.Interior``,
    in frame order: its action runs expanded one stop at a time."""
    i = 0
    for action, count in interior.actions:
        for _ in range(count):
            yield interior.first_frame + i, interior.locations[i], interior.state, action
            i += 1


def point_at(trajectory: core.Trajectory, frame: int) -> core.TrajectoryPoint:
    """The point of ``trajectory`` at ``frame``, which it must cover."""
    return trajectory.points[frame - trajectory.birth_frame]


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

