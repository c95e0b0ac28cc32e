"""The benchmark's workloads and how their input files are made.

Every workload is a list of (scenario script, noise profile) pairs. The
benchmark seed is added to each noise seed, so seed 0 reproduces the
acceptance suite's inputs exactly.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, List, Tuple

from fluenttrack import fileio, simulator
from fluenttrack.core import ObjectClass
from fluenttrack.grammar import default_parameters
from fluenttrack.simulator import AgentScript, NoiseProfile, ScenarioScript

Scenarios = List[Tuple[ScenarioScript, NoiseProfile]]

CROWD_WALKERS = 12
CROWD_FRAMES = 440


def crowd_scenarios() -> Scenarios:
    """One long walker-only sequence in the geometry of the suite's walk scenarios.

    Walkers cross the scene on parallel lanes 4 m apart, alternating direction;
    there are no vehicles, obstacles or scripted events.
    """
    agents = []
    last = CROWD_FRAMES - 1
    for i in range(CROWD_WALKERS):
        y = 6.0 + 4.0 * i
        x0, x1 = (2.0, 48.0) if i % 2 == 0 else (48.0, 2.0)
        agents.append(AgentScript(i, ObjectClass.PERSON, ((0, x0, y), (last, x1, y))))
    script = ScenarioScript(name="crowd", duration_frames=CROWD_FRAMES, agents=tuple(agents))
    return [(script, NoiseProfile())]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # the `fluenttrack track --mode`
    scenarios: Callable[[], Scenarios]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite", "full", simulator.standard_suite),
        Workload("ablation", "prior_only", simulator.standard_suite),
        Workload("crowd", "full", crowd_scenarios),
    )
}


def write_inputs(workload: Workload, seed: int, root: Path) -> List[Path]:
    """Simulate every sequence of the workload into ``root/<name>/``.

    Each sequence directory gets detections.jsonl, ground_truth.jsonl and
    camera.json, the layout `fluenttrack track <dirs>` reads.
    """
    camera = simulator.default_camera()
    params = default_parameters()
    dirs = []
    for script, noise in workload.scenarios():
        noise = dataclasses.replace(noise, seed=noise.seed + seed)
        result = simulator.simulate(script, noise, camera, params)
        seq = root / script.name
        seq.mkdir(parents=True)
        fileio.write_detections(seq / "detections.jsonl", result.detections)
        fileio.write_ground_truth(seq / "ground_truth.jsonl", result.ground_truth)
        fileio.write_camera(seq / "camera.json", camera)
        dirs.append(seq)
    return dirs
