"""The benchmark's tracer still reads the fields it counts.

``bench/tracing.py`` wraps `solver` and `cli` functions and reads counts off
their arguments and results (``GapLink.gap_frames``, ``result.paths``, ...).
A renamed field would break ``bench/run.py --trace 1`` without failing any
program test, so this runs `track --jobs 2` under the tracer and checks its
counts against the program's own outputs.
"""

import importlib.util
import json
import sys
from pathlib import Path

from fluenttrack import fileio, simulator
from fluenttrack.cli import EXIT_OK, main
from fluenttrack.core import ObjectClass
from fluenttrack.grammar import default_parameters
from fluenttrack.tracklets import build_gap_links, generate_tracklets

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SEQUENCES = ("enter_exit_quick", "occlude_short")  # a container and a spline bridge


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_track_counts_match_outputs(tmp_path, monkeypatch):
    camera = simulator.default_camera()
    params = default_parameters()
    suite = {script.name: (script, noise) for script, noise in simulator.standard_suite()}
    seq_dirs, gap_frames = [], 0
    for name in SEQUENCES:
        result = simulator.simulate(*suite[name], camera, params)
        seq = tmp_path / name
        seq.mkdir()
        fileio.write_detections(seq / "detections.jsonl", result.detections)
        fileio.write_camera(seq / "camera.json", camera)
        seq_dirs.append(str(seq))
        others = [d for d in result.detections if d.object_class is not ObjectClass.VEHICLE]
        links = build_gap_links(generate_tracklets(others, camera, params), params,
                                camera.frame_rate)
        gap_frames += sum(len(link.samples) for link in links)

    tracer = load_tracer(monkeypatch)
    tracer.install()
    try:
        code = main(["track", *seq_dirs, "--jobs", "2", "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == EXIT_OK
    report = tracer.report()

    containers = objects = parses = 0
    for name in SEQUENCES:
        summary = json.loads((tmp_path / "out" / name / "summary.json").read_text())
        containers += summary["num_containers"]
        objects += summary["num_trajectories"] - summary["num_containers"]
        parses += len((tmp_path / "out" / name / "frame_parses.jsonl").read_text().splitlines())
    assert report["cli.sequences"] == len(SEQUENCES)
    assert report["grammar.parses"] == parses > 0
    assert report["containers.count"] == containers > 0
    assert report["objects.paths"] == objects > 0
    assert report["tracklets.gap_frames"] == gap_frames > 0
