"""Synthetic ground-plane scenarios with exact ground truth.

Agents follow piecewise-linear waypoint schedules; scripted events put them
inside vehicles (inheriting the vehicle's motion exactly) or behind
occluders. Detections are emitted for visible agents only, with Gaussian
position noise, per-identity appearance prototypes, action-model features,
and Poisson false positives. Everything is a pure function of (script,
noise profile, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import CameraModel, Detection, ModelParameters, ObjectClass, VisibilityState
from .grammar import default_parameters

EVENT_KINDS = ("enter_vehicle", "exit_vehicle", "load_baggage", "unload_baggage", "occlude")

# enter/exit windows begin/end with this many occluded boundary frames
BOUNDARY_OCCLUDED_FRAMES = 1

DETECTION_BOX_SIZES = {
    ObjectClass.PERSON: (0.5, 1.8),
    ObjectClass.VEHICLE: (4.0, 1.6),
    ObjectClass.SUITCASE: (0.4, 0.6),
}


@dataclass(frozen=True)
class AgentScript:
    agent_id: int
    object_class: ObjectClass
    waypoints: Tuple[Tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError(f"agent {self.agent_id} has no waypoints")

    def position(self, frame: int) -> np.ndarray:
        wps = self.waypoints
        if frame <= wps[0][0]:
            return np.array(wps[0][1:], dtype=float)
        if frame >= wps[-1][0]:
            return np.array(wps[-1][1:], dtype=float)
        for (f0, x0, y0), (f1, x1, y1) in zip(wps, wps[1:]):
            if f0 <= frame <= f1:
                w = 0.0 if f1 == f0 else (frame - f0) / (f1 - f0)
                return np.array([x0 + w * (x1 - x0), y0 + w * (y1 - y0)])
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class ScenarioEvent:
    kind: str
    agent_id: int
    start_frame: int
    end_frame: int
    target_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.end_frame < self.start_frame:
            raise ValueError("event window must be non-empty")
        if self.kind != "occlude" and self.target_id is None:
            raise ValueError(f"{self.kind} requires a target vehicle")


@dataclass(frozen=True)
class Obstacle:
    """Static occluder on the ground plane, as a line segment."""

    p1: Tuple[float, float]
    p2: Tuple[float, float]


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    duration_frames: int
    agents: Tuple[AgentScript, ...]
    events: Tuple[ScenarioEvent, ...] = ()
    obstacles: Tuple[Obstacle, ...] = ()
    camera_point: Tuple[float, float] = (25.0, -40.0)

    def __post_init__(self) -> None:
        ids = {a.agent_id for a in self.agents}
        if len(ids) != len(self.agents):
            raise ValueError("agent ids must be unique")
        pair_last_exit: Dict[Tuple[int, int], int] = {}
        for ev in sorted(self.events, key=lambda e: e.start_frame):
            if ev.agent_id not in ids:
                raise ValueError(f"event references unknown agent {ev.agent_id}")
            if ev.target_id is not None and ev.target_id not in ids:
                raise ValueError(f"event references unknown target {ev.target_id}")
            if not (0 <= ev.start_frame and ev.end_frame < self.duration_frames):
                raise ValueError("event window must lie within the scenario duration")
        for ev in self.events:
            if ev.kind in ("exit_vehicle", "unload_baggage"):
                enters = [
                    e for e in self.events
                    if e.kind in ("enter_vehicle", "load_baggage")
                    and e.agent_id == ev.agent_id and e.target_id == ev.target_id
                    and e.end_frame < ev.start_frame
                ]
                if not enters:
                    raise ValueError(
                        f"agent {ev.agent_id} exits vehicle {ev.target_id} without entering"
                    )

    def agent(self, agent_id: int) -> AgentScript:
        for a in self.agents:
            if a.agent_id == agent_id:
                return a
        raise KeyError(agent_id)


@dataclass(frozen=True)
class NoiseProfile:
    position_sigma: float = 0.05
    detection_miss_prob_visible: float = 0.05
    detection_miss_prob_occluded: float = 1.0
    false_positive_rate: float = 0.1
    descriptor_noise_sigma: float = 0.02
    feature_noise_sigma: float = 0.15
    seed: int = 0
    score_mean: float = 0.92
    score_sigma: float = 0.03
    vehicle_score_mean: float = 0.96
    fp_score_low: float = 0.4
    fp_score_high: float = 0.7

    def __post_init__(self) -> None:
        for name in ("detection_miss_prob_visible", "detection_miss_prob_occluded"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("position_sigma", "descriptor_noise_sigma", "feature_noise_sigma",
                     "false_positive_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class GroundTruthRecord:
    frame: int
    object_id: int
    object_class: ObjectClass
    location: np.ndarray
    state: VisibilityState
    container_id: Optional[int] = None


@dataclass(frozen=True)
class SimulationResult:
    detections: Tuple[Detection, ...]
    ground_truth: Tuple[GroundTruthRecord, ...]


def _segments_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    return o1 != o2 and o3 != o4


def _true_states(
    script: ScenarioScript,
) -> Tuple[Dict[Tuple[int, int], VisibilityState], Dict[Tuple[int, int], Optional[int]]]:
    """Per (agent, frame) ground-truth state and containing vehicle."""
    states: Dict[Tuple[int, int], VisibilityState] = {}
    containers: Dict[Tuple[int, int], Optional[int]] = {}
    for agent in script.agents:
        for f in range(script.duration_frames):
            states[(agent.agent_id, f)] = VisibilityState.VISIBLE
            containers[(agent.agent_id, f)] = None

    for ev in sorted(script.events, key=lambda e: (e.start_frame, e.agent_id)):
        aid = ev.agent_id
        if ev.kind == "occlude":
            for f in range(ev.start_frame, ev.end_frame + 1):
                states[(aid, f)] = VisibilityState.OCCLUDED
        elif ev.kind in ("enter_vehicle", "load_baggage"):
            b = BOUNDARY_OCCLUDED_FRAMES
            for f in range(ev.start_frame, min(ev.start_frame + b, ev.end_frame + 1)):
                states[(aid, f)] = VisibilityState.OCCLUDED
            for f in range(ev.start_frame + b, script.duration_frames):
                states[(aid, f)] = VisibilityState.CONTAINED
                containers[(aid, f)] = ev.target_id
        elif ev.kind in ("exit_vehicle", "unload_baggage"):
            b = BOUNDARY_OCCLUDED_FRAMES
            for f in range(max(ev.end_frame - b + 1, ev.start_frame), ev.end_frame + 1):
                states[(aid, f)] = VisibilityState.OCCLUDED
                containers[(aid, f)] = None
            for f in range(ev.end_frame + 1, script.duration_frames):
                states[(aid, f)] = VisibilityState.VISIBLE
                containers[(aid, f)] = None

    # geometric occlusion against the virtual camera point
    cam = script.camera_point
    for agent in script.agents:
        if agent.object_class is ObjectClass.VEHICLE:
            continue
        for f in range(script.duration_frames):
            key = (agent.agent_id, f)
            if states[key] is not VisibilityState.VISIBLE:
                continue
            pos = _agent_position(script, agent.agent_id, f, states, containers)
            for obs in script.obstacles:
                if _segments_intersect(cam, tuple(pos), obs.p1, obs.p2):
                    states[key] = VisibilityState.OCCLUDED
                    break
    return states, containers


def _agent_position(script, agent_id, frame, states, containers) -> np.ndarray:
    cid = containers.get((agent_id, frame))
    if cid is not None:
        return script.agent(cid).position(frame)
    return script.agent(agent_id).position(frame)


def _vehicle_activity(script: ScenarioScript) -> Dict[Tuple[int, int], str]:
    """Per (vehicle, frame) fluent activity driving the emitted features.

    Door/trunk activity is broadcast over a small window around the state
    transition so the evidence is present when the solver needs it.
    """
    activity: Dict[Tuple[int, int], str] = {}
    for agent in script.agents:
        if agent.object_class is ObjectClass.VEHICLE:
            for f in range(script.duration_frames):
                activity[(agent.agent_id, f)] = "walking"  # idle
    pad = 3
    for ev in sorted(script.events, key=lambda e: (e.start_frame, e.agent_id)):
        if ev.kind == "occlude" or ev.target_id is None:
            continue
        key_frames = range(
            max(0, ev.start_frame - pad),
            min(script.duration_frames, ev.end_frame + pad + 1),
        )
        for f in key_frames:
            if (ev.target_id, f) in activity:
                activity[(ev.target_id, f)] = ev.kind
    return activity


def simulate(
    script: ScenarioScript,
    noise: NoiseProfile,
    camera: CameraModel,
    params: Optional[ModelParameters] = None,
) -> SimulationResult:
    """Run a scenario and emit noisy detections plus exact ground truth."""
    params = params or default_parameters()
    rng = np.random.default_rng(noise.seed)
    states, containers = _true_states(script)
    activity = _vehicle_activity(script)

    h_inv = np.linalg.inv(camera.homography)

    agents = sorted(script.agents, key=lambda a: a.agent_id)
    descriptor_dim = 16
    prototypes: Dict[int, np.ndarray] = {}
    for agent in agents:
        v = rng.normal(size=descriptor_dim)
        prototypes[agent.agent_id] = v / np.linalg.norm(v)

    # scene bounds for false positives
    xs = [w[1] for a in agents for w in a.waypoints]
    ys = [w[2] for a in agents for w in a.waypoints]
    lo = (min(xs) - 5.0, min(ys) - 5.0)
    hi = (max(xs) + 5.0, max(ys) + 5.0)

    def make_bbox(ground_pos: np.ndarray, object_class: ObjectClass):
        p = h_inv @ np.array([ground_pos[0], ground_pos[1], 1.0])
        bc = p[:2] / p[2]
        w, h = DETECTION_BOX_SIZES[object_class]
        return (float(bc[0] - w / 2), float(bc[1] - h), w, h)

    detections: List[Detection] = []
    ground_truth: List[GroundTruthRecord] = []
    for f in range(script.duration_frames):
        for agent in agents:
            aid = agent.agent_id
            state = states[(aid, f)]
            cid = containers[(aid, f)]
            pos = _agent_position(script, aid, f, states, containers)
            ground_truth.append(
                GroundTruthRecord(
                    frame=f,
                    object_id=aid,
                    object_class=agent.object_class,
                    location=pos,
                    state=state,
                    container_id=cid,
                )
            )
            miss_prob = (
                noise.detection_miss_prob_visible
                if state is VisibilityState.VISIBLE
                else noise.detection_miss_prob_occluded
            )
            emit = rng.random() >= miss_prob
            if state is VisibilityState.CONTAINED or not emit:
                continue
            noisy = pos + rng.normal(scale=noise.position_sigma, size=2)
            desc = prototypes[aid] + rng.normal(scale=noise.descriptor_noise_sigma,
                                                size=descriptor_dim)
            desc = desc / np.linalg.norm(desc)
            if agent.object_class is ObjectClass.VEHICLE:
                score = float(np.clip(rng.normal(noise.vehicle_score_mean, noise.score_sigma),
                                      0.05, 0.999))
                template = params.vehicle_fluent_templates[activity[(aid, f)]]
                fluent = template + rng.normal(scale=noise.feature_noise_sigma,
                                               size=template.shape[0])
                detections.append(
                    Detection(
                        frame=f,
                        object_class=agent.object_class,
                        bbox=make_bbox(noisy, agent.object_class),
                        score=score,
                        descriptor=desc,
                        vehicle_fluent_feature=fluent,
                    )
                )
            else:
                score = float(np.clip(rng.normal(noise.score_mean, noise.score_sigma),
                                      0.05, 0.999))
                pose = None
                if agent.object_class is ObjectClass.PERSON:
                    model = params.action_pose_models["walking"]
                    pose = model.mean + rng.normal(scale=noise.feature_noise_sigma,
                                                   size=model.mean.shape[0])
                detections.append(
                    Detection(
                        frame=f,
                        object_class=agent.object_class,
                        bbox=make_bbox(noisy, agent.object_class),
                        score=score,
                        descriptor=desc,
                        pose_feature=pose,
                    )
                )
        n_fp = rng.poisson(noise.false_positive_rate)
        for _ in range(n_fp):
            fp_pos = np.array([rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])])
            fp_class = [ObjectClass.PERSON, ObjectClass.SUITCASE, ObjectClass.VEHICLE][
                int(rng.integers(0, 3))
            ]
            v = rng.normal(size=descriptor_dim)
            detections.append(
                Detection(
                    frame=f,
                    object_class=fp_class,
                    bbox=make_bbox(fp_pos, fp_class),
                    score=float(rng.uniform(noise.fp_score_low, noise.fp_score_high)),
                    descriptor=v / np.linalg.norm(v),
                )
            )
    return SimulationResult(tuple(detections), tuple(ground_truth))


# ---------------------------------------------------------------------------
# the fixed scenario suite
# ---------------------------------------------------------------------------

# All scenarios are authored for a 10 fps camera: pedestrians cover about
# 0.15-0.3 m per frame, driving vehicles 1-1.5 m per frame. Containment
# scenarios displace the vehicle far enough that a straight-line bridge
# between the endpoint tracklets would exceed twice the pedestrian speed
# bound, which is what separates containment from plain occlusion.

def _walker(aid: int, p0, p1, t0: int, t1: int) -> AgentScript:
    return AgentScript(aid, ObjectClass.PERSON,
                       ((t0, p0[0], p0[1]), (t1, p1[0], p1[1])))


def _scenario_walk(name: str, n_agents: int, duration: int) -> ScenarioScript:
    agents = []
    for i in range(n_agents):
        y = 6.0 + 4.0 * i
        start, end = ((2.0, y), (48.0, y)) if i % 2 == 0 else ((48.0, y), (2.0, y))
        agents.append(_walker(i, start, end, 0, duration - 1))
    return ScenarioScript(name=name, duration_frames=duration, agents=tuple(agents))


def _scenario_crossing(name: str, duration: int) -> ScenarioScript:
    a = _walker(0, (2.0, 4.0), (46.0, 26.0), 0, duration - 1)
    b = _walker(1, (46.0, 4.0), (2.0, 26.0), 0, duration - 1)
    return ScenarioScript(name=name, duration_frames=duration, agents=(a, b))


def _scenario_pillar(name: str, duration: int, n_agents: int = 1) -> ScenarioScript:
    # agents cross behind a pillar segment; occlusion interval ~10 frames
    agents = [
        _walker(i, (2.0, 10.0 + 3.0 * i), (46.0, 10.0 + 3.0 * i), 0, duration - 1)
        for i in range(n_agents)
    ]
    pillar = Obstacle((23.0, -2.0), (25.0, -2.0))
    return ScenarioScript(name=name, duration_frames=duration, agents=tuple(agents),
                          obstacles=(pillar,))


def _scenario_occlude_event(name: str, duration: int, occ_frames: int) -> ScenarioScript:
    mid = duration // 2
    agent = _walker(0, (2.0, 12.0), (46.0, 12.0), 0, duration - 1)
    ev = ScenarioEvent("occlude", 0, mid, mid + occ_frames - 1)
    return ScenarioScript(name=name, duration_frames=duration, agents=(agent,), events=(ev,))


def _scenario_vehicle_cross_behind(name: str, duration: int) -> ScenarioScript:
    # the person's path passes within tau_c of the parked vehicle, so the
    # solver must pick plain occlusion over a containment bridge
    vehicle = AgentScript(1, ObjectClass.VEHICLE, ((0, 24.0, 14.0),))
    person = _walker(0, (2.0, 16.0), (46.0, 16.0), 0, duration - 1)
    body = Obstacle((22.0, 14.0), (26.0, 14.0))
    return ScenarioScript(name=name, duration_frames=duration, agents=(person, vehicle),
                          obstacles=(body,))


def _scenario_enter_drive_exit(name: str, duration: int = 260,
                               n_persons: int = 1) -> ScenarioScript:
    agents = [AgentScript(
        0, ObjectClass.VEHICLE,
        ((0, 30.0, 15.0), (85, 30.0, 15.0), (150, 125.0, 15.0), (duration - 1, 125.0, 15.0)),
    )]
    events = []
    for i in range(n_persons):
        pid = 1 + i
        agents.append(AgentScript(
            pid, ObjectClass.PERSON,
            ((0, 12.0 + 1.5 * i, 12.0 + 1.5 * i), (66, 28.8, 14.1 + 0.5 * i),
             (72, 29.5, 14.7), (165, 124.3, 14.6),
             (duration - 1, 110.0, 30.0 + 2.0 * i)),
        ))
        events.append(ScenarioEvent("enter_vehicle", pid, 72 + 2 * i, 78 + 2 * i, target_id=0))
        events.append(ScenarioEvent("exit_vehicle", pid, 160 + 2 * i, 166 + 2 * i, target_id=0))
    return ScenarioScript(name=name, duration_frames=duration, agents=tuple(agents),
                          events=tuple(events))


def _scenario_enter_exit_quick(name: str, duration: int = 200) -> ScenarioScript:
    vehicle = AgentScript(
        0, ObjectClass.VEHICLE,
        ((0, 25.0, 15.0), (60, 25.0, 15.0), (100, 90.0, 15.0), (duration - 1, 90.0, 15.0)),
    )
    person = AgentScript(
        1, ObjectClass.PERSON,
        ((0, 12.0, 12.8), (46, 24.2, 14.3), (50, 24.6, 14.6), (114, 89.3, 14.5),
         (duration - 1, 75.0, 28.0)),
    )
    events = (
        ScenarioEvent("enter_vehicle", 1, 50, 56, target_id=0),
        ScenarioEvent("exit_vehicle", 1, 108, 114, target_id=0),
    )
    return ScenarioScript(name=name, duration_frames=duration, agents=(vehicle, person),
                          events=events)


def _scenario_two_vehicle_swap(name: str, duration: int = 260) -> ScenarioScript:
    v1 = AgentScript(0, ObjectClass.VEHICLE,
                     ((0, 20.0, 10.0), (100, 20.0, 10.0), (160, 115.0, 10.0),
                      (duration - 1, 115.0, 10.0)))
    v2 = AgentScript(1, ObjectClass.VEHICLE,
                     ((0, 115.0, 22.0), (100, 115.0, 22.0), (160, 20.0, 22.0),
                      (duration - 1, 20.0, 22.0)))
    p1 = AgentScript(2, ObjectClass.PERSON,
                     ((0, 6.0, 8.0), (80, 19.2, 9.3), (177, 114.3, 9.4),
                      (duration - 1, 100.0, 2.0)))
    p2 = AgentScript(3, ObjectClass.PERSON,
                     ((0, 128.0, 24.0), (80, 115.8, 22.7), (179, 21.0, 22.6),
                      (duration - 1, 8.0, 30.0)))
    events = (
        ScenarioEvent("enter_vehicle", 2, 84, 90, target_id=0),
        ScenarioEvent("exit_vehicle", 2, 170, 176, target_id=0),
        ScenarioEvent("enter_vehicle", 3, 86, 92, target_id=1),
        ScenarioEvent("exit_vehicle", 3, 172, 178, target_id=1),
    )
    return ScenarioScript(name=name, duration_frames=duration, agents=(v1, v2, p1, p2),
                          events=events)


def _scenario_luggage(name: str, duration: int = 240) -> ScenarioScript:
    vehicle = AgentScript(
        0, ObjectClass.VEHICLE,
        ((0, 28.0, 16.0), (90, 28.0, 16.0), (150, 120.0, 16.0), (duration - 1, 120.0, 16.0)),
    )
    porter = AgentScript(
        1, ObjectClass.PERSON,
        ((0, 10.0, 13.0), (70, 27.0, 15.0), (110, 27.0, 15.0), (duration - 1, 12.0, 26.0)),
    )
    case = AgentScript(
        2, ObjectClass.SUITCASE,
        ((0, 10.3, 12.7), (70, 27.2, 14.7), (73, 27.6, 15.4), (172, 119.3, 15.2),
         (duration - 1, 112.0, 26.0)),
    )
    events = (
        ScenarioEvent("load_baggage", 2, 74, 80, target_id=0),
        ScenarioEvent("unload_baggage", 2, 165, 171, target_id=0),
    )
    return ScenarioScript(name=name, duration_frames=duration,
                          agents=(vehicle, porter, case), events=events)


def _scenario_capacity_stress(name: str, duration: int = 260) -> ScenarioScript:
    vehicle = AgentScript(
        0, ObjectClass.VEHICLE,
        ((0, 30.0, 16.0), (110, 30.0, 16.0), (170, 125.0, 16.0), (duration - 1, 125.0, 16.0)),
    )
    agents = [vehicle]
    events = []
    for i in range(6):
        pid = 1 + i
        angle = 2 * math.pi * i / 6
        start = (30.0 + 14.0 * math.cos(angle), 16.0 + 9.0 * math.sin(angle))
        agents.append(AgentScript(
            pid, ObjectClass.PERSON,
            ((0, start[0], start[1]), (76 + 3 * i, 29.0 + 0.3 * i, 15.2),
             (184 + 3 * i, 124.2, 15.1 + 0.2 * i), (duration - 1, 108.0 + 3 * i, 32.0)),
        ))
        events.append(ScenarioEvent("enter_vehicle", pid, 78 + 3 * i, 84 + 3 * i, target_id=0))
        events.append(ScenarioEvent("exit_vehicle", pid, 178 + 3 * i, 184 + 3 * i, target_id=0))
    return ScenarioScript(name=name, duration_frames=duration, agents=tuple(agents),
                          events=tuple(events))


def _scenario_mixed(name: str, duration: int = 260) -> ScenarioScript:
    base = _scenario_enter_drive_exit("tmp", duration)
    walkers = (
        _walker(10, (2.0, 28.0), (48.0, 28.0), 0, duration - 1),
        _walker(11, (48.0, 32.0), (2.0, 32.0), 0, duration - 1),
    )
    return ScenarioScript(name=name, duration_frames=duration,
                          agents=base.agents + walkers, events=base.events)


def _scenario_crowded(name: str, duration: int = 260) -> ScenarioScript:
    base = _scenario_enter_drive_exit("tmp", duration)
    walkers = tuple(
        _walker(10 + i, (2.0 + i, 24.0 + 2.5 * i), (48.0 - i, 24.0 + 2.5 * i), 0, duration - 1)
        for i in range(4)
    )
    pillar = Obstacle((11.0, 12.0), (13.0, 12.0))
    return ScenarioScript(name=name, duration_frames=duration,
                          agents=base.agents + walkers, events=base.events,
                          obstacles=(pillar,))


def standard_suite() -> List[Tuple[ScenarioScript, NoiseProfile]]:
    """Twenty fixed scenarios exercising walking, occlusion, and containment."""
    suite: List[Tuple[ScenarioScript, NoiseProfile]] = []

    def add(script: ScenarioScript, **noise_kw) -> None:
        noise_kw.setdefault("seed", 1000 + len(suite))
        suite.append((script, NoiseProfile(**noise_kw)))

    add(_scenario_walk("walk_single", 1, 200))
    add(_scenario_walk("walk_pair", 2, 200))
    add(_scenario_walk("walk_trio", 3, 200))
    add(_scenario_walk("walk_many", 6, 220))
    add(_scenario_crossing("walk_crossing", 180))
    add(_scenario_pillar("pillar_occlusion", 200))
    add(_scenario_pillar("pillar_double", 200, n_agents=2))
    add(_scenario_occlude_event("occlude_short", 180, 6))
    add(_scenario_occlude_event("occlude_long", 200, 15))
    add(_scenario_vehicle_cross_behind("vehicle_cross_behind", 200))
    add(_scenario_enter_drive_exit("enter_drive_exit"))
    add(_scenario_enter_drive_exit("enter_drive_exit_pair", n_persons=2))
    add(_scenario_enter_exit_quick("enter_exit_quick"))
    add(_scenario_two_vehicle_swap("two_vehicle_swap"))
    add(_scenario_luggage("luggage_trunk"))
    add(_scenario_capacity_stress("capacity_stress"))
    add(_scenario_mixed("mixed_enter_walkers"))
    add(_scenario_walk("fp_heavy", 2, 200), false_positive_rate=0.5)
    add(_scenario_walk("miss_heavy", 2, 200), detection_miss_prob_visible=0.12)
    add(_scenario_crowded("crowded_plaza"))

    assert len(suite) == 20
    return suite


def scenario_by_name(name: str) -> Tuple[ScenarioScript, NoiseProfile]:
    for script, noise in standard_suite():
        if script.name == name:
            return script, noise
    names = ", ".join(s.name for s, _ in standard_suite())
    raise KeyError(f"unknown scenario {name!r}; valid names: {names}")


SUITE_FRAME_RATE = 10.0  # frames per second the suite is authored for


def default_camera() -> CameraModel:
    """Identity ground-plane camera at ``SUITE_FRAME_RATE``, used by the
    simulator suite."""
    return CameraModel(np.eye(3), SUITE_FRAME_RATE)
