"""Stage-by-stage benchmark of the fluenttrack pipeline.

    python3 bench/run.py --workload suite|ablation|crowd --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the ``src`` directory next
to this one. Set-up simulates the workload with ``simulator.simulate`` and
writes its input files with the ``fileio`` writers, several times, and
reports the median as ``setup_s``. A pass is ``fluenttrack track <all
sequences> --jobs min(2, nproc)`` followed by ``fluenttrack evaluate`` of
every output, each through ``cli.main`` in a fresh process (passrun.py).

With ``--trace 0`` the run makes passes for about ``--seconds`` seconds and
prints the end-to-end metrics: median pass time and peak memory, and the
mean MOTA. With ``--trace 1`` it makes one untraced and one traced pass and
prints the per-layer metrics: busy time and sizes per stage from spans
recorded around each layer's public functions (tracing.py), the untraced
pass's quality counts, and the tracing overhead.

Every pass goes through the correctness gate: each `track` and `evaluate`
call that raises or exits non-zero, and each output that does not read back
through ``fileio.read_trajectories`` or has two consecutive points that skip
a frame or have no legal action in the default grammar, is one failed
operation. All passes of a run must write byte-identical outputs, and at
seed 0 the acceptance numbers must come out. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The exit
code is 0 when the run is correct, 1 when it is not, and 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

JOBS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s, however its passes behave
OUTPUT_FILES = ("trajectories.jsonl", "frame_parses.jsonl", "summary.json")
STATES = ("visible", "occluded", "contained")

# Seed-0 acceptance numbers, to the digits the acceptance suite prints them
# (criterion 2: mean MOTA per mode; criterion 4: pooled per-state P/R).
REFERENCE = {
    "suite": {"mota": (0.987, 3),
              "visible_precision": (1.00, 2), "visible_recall": (0.96, 2),
              "occluded_precision": (0.19, 2), "occluded_recall": (0.98, 2),
              "contained_precision": (0.99, 2), "contained_recall": (0.94, 2)},
    "ablation": {"mota": (0.745, 3)},
}

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "mota": "ratio"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_per_detection", "_speedup", "_share", "_precision",
                      "_recall")):
        return "ratio"
    return "count"


class Gate:
    """Operations attempted and failed, plus run-level problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def operation(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


@dataclass
class Pass:
    pipeline_s: float
    track_s: float
    peak_rss_mb: float
    wall_s: float
    motas: List[float] = field(default_factory=list)
    ids: int = 0
    confusion: List[List[int]] = field(default_factory=lambda: [[0] * 3 for _ in range(3)])
    summary_containers: int = 0
    summary_objects: int = 0
    hashes: Dict[str, str] = field(default_factory=dict)
    trace: Optional[Dict[str, float]] = None


def check_output(path: Path, legal_steps) -> Optional[str]:
    """The problem with one trajectories file, or None if it is sound."""
    from fluenttrack import fileio

    try:
        trajectories = fileio.read_trajectories(path)
    except (fileio.InputFormatError, OSError) as exc:
        return f"{path.name} does not read back: {exc}"
    for traj in trajectories:
        for p, q in zip(traj.points, traj.points[1:]):
            if q.frame != p.frame + 1:
                return (f"{path.parent.name}: object {traj.object_id} skips from frame "
                        f"{p.frame} to {q.frame}")
            if (p.state, q.state) not in legal_steps:
                return (f"{path.parent.name}: object {traj.object_id} has no legal action "
                        f"from {p.state.value} to {q.state.value} at frame {q.frame}")
    return None


def run_pass(index: int, seqs: List[Path], mode: str, work: Path, trace: bool,
             deadline: float, gate: Gate, legal_steps) -> Optional[Pass]:
    out = work / f"pass{index}"
    out.mkdir(parents=True)
    result_file = out / "result.json"
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--out", str(out), "--mode", mode,
           "--jobs", str(JOBS), "--trace", str(int(trace)), "--result", str(result_file),
           *map(str, seqs)]
    start = time.perf_counter()
    timeout = max(1.0, deadline - start)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
        ok = proc.returncode == 0 and result_file.is_file()
        why = f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        ok, why = False, f"timed out after {timeout:.0f} s"
    wall_s = time.perf_counter() - start
    if not ok:
        gate.operation(f"pass {index}: track {why}")
        for seq in seqs:
            gate.operation(f"pass {index}: no evaluate of {seq.name}")
            gate.operation(f"pass {index}: no output check of {seq.name}")
        return None

    raw = json.loads(result_file.read_text(encoding="utf-8"))
    for error in raw["errors"]:
        print(error, file=sys.stderr)
    result = Pass(raw["pipeline_s"], raw["track_s"], raw["peak_rss_mb"], wall_s,
                  trace=raw["trace"])
    print(f"pass {index}{' (traced)' if trace else ''}: pipeline {result.pipeline_s:.3f} s, "
          f"track {result.track_s:.3f} s, peak RSS {result.peak_rss_mb:.1f} MB", file=sys.stderr)
    rc = raw["track_rc"]
    gate.operation(None if rc == 0 else f"pass {index}: track "
                   + ("raised" if rc is None else f"exit code {rc}"))
    for seq in seqs:
        rc = raw["evaluate_rc"][seq.name]
        gate.operation(None if rc == 0 else f"pass {index}: evaluate {seq.name} "
                       + ("raised" if rc is None else f"exit code {rc}"))
    for seq in seqs:
        seq_out = out / "track" / seq.name
        problem = check_output(seq_out / "trajectories.jsonl", legal_steps)
        gate.operation(None if problem is None else f"pass {index}: {problem}")
        for name in OUTPUT_FILES:
            path = seq_out / name
            if path.is_file():
                result.hashes[f"{seq.name}/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        summary = seq_out / "summary.json"
        if summary.is_file():
            record = json.loads(summary.read_text(encoding="utf-8"))
            result.summary_containers += record["num_containers"]
            result.summary_objects += record["num_trajectories"] - record["num_containers"]
        report = out / "eval" / f"{seq.name}.json"
        if report.is_file():
            record = json.loads(report.read_text(encoding="utf-8"))
            result.motas.append(record["MOTA"])
            result.ids += record["IDS"]
            for i, row in enumerate(record["fluent_confusion"]):
                for j, value in enumerate(row):
                    result.confusion[i][j] += value
    shutil.rmtree(out / "track")
    return result


def quality(p: Pass) -> Dict[str, float]:
    """Mean MOTA, total IDS and pooled per-state counts, precision and recall.

    A precision or recall whose base is empty is reported as 0 beside its
    zero base count.
    """
    out: Dict[str, float] = {
        "mota": statistics.fmean(p.motas) if p.motas else 0.0,
        "metrics.ids": p.ids,
    }
    c = p.confusion
    for i, state in enumerate(STATES):
        tp = c[i][i]
        predicted = sum(row[i] for row in c)
        truth = sum(c[i])
        out[f"metrics.{state}.tp"] = tp
        out[f"metrics.{state}.predicted"] = predicted
        out[f"metrics.{state}.truth"] = truth
        out[f"metrics.{state}_precision"] = tp / predicted if predicted else 0.0
        out[f"metrics.{state}_recall"] = tp / truth if truth else 0.0
    return out


def check_reference(workload: str, values: Dict[str, float], gate: Gate) -> None:
    for name, (expected, digits) in REFERENCE.get(workload, {}).items():
        value = values["mota" if name == "mota" else f"metrics.{name}"]
        gate.require(round(value, digits) == expected,
                     f"seed 0 reference: {name} = {value:.4f}, acceptance suite has {expected}")


def run(workload_name: str, seed: int, seconds: int, trace: bool, work: Path,
        deadline: float) -> Dict:
    from fluenttrack.core import VisibilityState
    from fluenttrack.grammar import default_grammar
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS[workload_name]
    grammar = default_grammar()
    legal_steps = {(a, b) for a in VisibilityState for b in VisibilityState
                   if grammar.legal_actions(a, b)}

    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs = work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        seqs = write_inputs(workload, seed, inputs)
        setup_times.append(time.perf_counter() - start)

    gate = Gate()

    def one_pass(index: int, traced: bool) -> Optional[Pass]:
        return run_pass(index, seqs, workload.mode, work, traced, deadline, gate, legal_steps)

    passes = [one_pass(0, False)]
    if trace:
        passes.append(one_pass(1, True))
    elif passes[0] is not None:
        # as many passes as fill --seconds, judged by the first, and all within budget
        wall = passes[0].wall_s
        fit = int((deadline - time.perf_counter()) // wall)
        for index in range(1, max(1, min(round(seconds / wall), fit + 1))):
            passes.append(one_pass(index, False))

    done = [p for p in passes if p is not None]
    for p in done[1:]:
        gate.require(p.hashes == done[0].hashes,
                     "outputs differ between passes of one run: " + ", ".join(
                         sorted(k for k in set(p.hashes) | set(done[0].hashes)
                                if p.hashes.get(k) != done[0].hashes.get(k))))
    untraced = passes[0]
    values = quality(untraced) if untraced is not None else {}
    if values and seed == 0:
        check_reference(workload_name, values, gate)

    metrics: Dict[str, float] = {}
    if not trace:
        timed = [p for p in passes if p is not None]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": statistics.median(p.pipeline_s for p in timed) if timed else 0.0,
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in timed) if timed else 0.0,
            "mota": values.get("mota", 0.0),
        }
        units = END_TO_END_UNITS
    else:
        traced = passes[1]
        if traced is not None and untraced is not None:
            layers = dict(traced.trace)
            layers.update({k: v for k, v in values.items() if k != "mota"})
            layers["cli.jobs"] = JOBS
            layers["cli.track_s"] = untraced.track_s
            layers["cli.batch_speedup"] = layers["cli.sequence_s"] / untraced.track_s
            layers["trace.untraced_pipeline_s"] = untraced.pipeline_s
            layers["trace.traced_pipeline_s"] = traced.pipeline_s
            layers["trace.overhead_s"] = traced.pipeline_s - untraced.pipeline_s
            layers["trace.overhead_share"] = layers["trace.overhead_s"] / untraced.pipeline_s
            # the spans and the untraced outputs must describe the same solution
            gate.require(layers["containers.count"] == untraced.summary_containers,
                         f"traced containers.count {layers['containers.count']} but "
                         f"summary.json has {untraced.summary_containers} containers")
            gate.require(layers["objects.paths"] == untraced.summary_objects,
                         f"traced objects.paths {layers['objects.paths']} but "
                         f"summary.json has {untraced.summary_objects} objects")
            metrics = layers
        units = {name: per_layer_unit(name) for name in metrics}

    for problem in gate.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not gate.problems and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "ablation", "crowd"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "fluenttrack" / "cli.py").is_file():
        print(f"error: the fluenttrack sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + RUN_BUDGET_S

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
