"""Command-line front-end.

Subcommands: simulate | track | evaluate | fit-model | render.
Exit codes: 0 success, 2 input or file-system error (the message names the
path), 3 internal invariant violation.
Log level comes from the FLUENT_TRACK_LOG environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import gc
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence, Set

import numpy as np

from . import fileio
from .core import ActionModel, InternalInvariantError, ModelParameters
from .grammar import default_grammar, default_parameters, fit_transition_table
from .metrics import Gate, clear_metrics, fluent_metrics, match_frames, trajectories_to_observations
from .render import write_svg
from .simulator import default_camera, scenario_by_name, simulate, standard_suite
from .solver import SOLVE_MODES, joint_solve

log = logging.getLogger("fluenttrack")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _configure_logging() -> None:
    level_name = os.environ.get("FLUENT_TRACK_LOG", "warn").lower()
    level = {"error": logging.ERROR, "warn": logging.WARNING, "warning": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# ModelParameters fields that `track` sets from a flag of the same name
MODEL_FLAGS = (("tau_s", float), ("tau_sigma", float), ("tau_c", float),
               ("max_contained", int), ("max_gap_frames", int))


def _build_parameters(args) -> ModelParameters:
    overrides = {name: getattr(args, name) for name, _ in MODEL_FLAGS}
    if args.action_models:
        models, templates, table = fileio.read_action_models(args.action_models)
        overrides.update(action_pose_models=models, vehicle_fluent_templates=templates,
                         transition_table=table)
    return default_parameters(**overrides)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _simulate_into(out_dir: Path, script, noise, seed: Optional[int]) -> None:
    """Simulate one scenario, with its noise seed replaced by ``seed`` if
    given, and write its detections, ground truth, camera and scenario."""
    if seed is not None:
        noise = dataclasses.replace(noise, seed=seed)
    camera = default_camera()
    result = simulate(script, noise, camera, default_parameters())
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_detections(out_dir / "detections.jsonl", result.detections)
    fileio.write_ground_truth(out_dir / "ground_truth.jsonl", result.ground_truth)
    fileio.write_camera(out_dir / "camera.json", camera)
    fileio.write_scenario(out_dir / "scenario.json", script, noise)
    log.info("simulated %s into %s", script.name, out_dir)


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    if args.suite:
        for script, noise in standard_suite():
            _simulate_into(out_dir / script.name, script, noise, args.seed)
        return EXIT_OK

    if args.script:
        script, noise = fileio.read_scenario(args.script)
    elif args.scenario:
        script, noise = scenario_by_name(args.scenario)
    else:
        raise fileio.InputFormatError("simulate requires --scenario, --script, or --suite")
    _simulate_into(out_dir, script, noise, args.seed)
    return EXIT_OK


def _model_lengths(params: ModelParameters) -> Dict[str, Set[int]]:
    """The lengths of the models that price each detection feature."""
    return {"pose_feature": {len(m.mean) for m in params.action_pose_models.values()},
            "vehicle_fluent_feature": {len(t) for t in params.vehicle_fluent_templates.values()}}


def _track_one(detections_path: str, camera_path: str, out_dir: Path,
               params: ModelParameters, mode: str) -> None:
    """Solve one sequence and write its outputs into ``out_dir``."""
    detections = fileio.read_detections(detections_path, _model_lengths(params))
    camera = fileio.read_camera(camera_path)
    result = joint_solve(detections, camera, params, mode=mode)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write, payload in (
            ("trajectories.jsonl", fileio.write_trajectories, result.trajectories),
            ("frame_parses.jsonl", fileio.write_frame_parses, result.frame_parses),
            ("summary.json", fileio.write_json, result.summary)):
        write(out_dir / name, payload)


def _out_file(out: str) -> Path:
    """``out``, once its directory exists. Called only when the result is
    computed, so a run that fails before then writes nothing."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_track(args) -> int:
    """Track each sequence into a staging directory under ``--out`` and
    move the outputs into place only when every sequence has succeeded. If
    a sequence fails, the run removes the staging directory, and ``--out``
    too if the run created it, so ``--out`` is left as it was."""
    out_dir = Path(args.out)
    if args.jobs < 1:
        raise fileio.InputFormatError(f"--jobs must be at least 1, got {args.jobs}")
    if args.sequence_dirs:
        if args.detections or args.camera:
            raise fileio.InputFormatError(
                "track takes sequence directories or --detections and --camera, not both")
        seen: Dict[str, str] = {}  # each sequence writes into out_dir / its name
        for seq in args.sequence_dirs:
            name = Path(seq).name
            if name in seen:
                raise fileio.InputFormatError(
                    f"sequence directories {seen[name]} and {seq} would both write "
                    f"{out_dir / name}")
            seen[name] = seq
        # (detections, camera, the output subdirectory of out_dir: "" for out_dir)
        jobs = [(Path(seq) / "detections.jsonl", Path(seq) / "camera.json", Path(seq).name)
                for seq in args.sequence_dirs]
    elif args.detections and args.camera:
        jobs = [(args.detections, args.camera, "")]
    else:
        raise fileio.InputFormatError("track requires --detections and --camera")
    params = _build_parameters(args)

    created = next((d for d in reversed((out_dir, *out_dir.parents)) if not d.exists()), None)
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".track-", dir=out_dir))
    try:
        # one sequence after another on this thread: the interpreter lock
        # serializes a thread pool's workers, which only adds their overhead
        for detections, camera, name in jobs:
            _track_one(detections, camera, staging / name, params, args.mode)
            log.info("tracked %s", out_dir / name)
        moves = [(output, out_dir / name / output.name)
                 for _, _, name in jobs for output in (staging / name).iterdir()]
        # a target the file system blocks fails the run before the first
        # move, so --out never holds outputs of two runs
        for _, target in moves:
            if target.parent.exists() and not target.parent.is_dir():
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST),
                                      str(target.parent))
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for _, _, name in jobs:
            (out_dir / name).mkdir(exist_ok=True)
        for output, target in moves:
            os.replace(output, target)
    except BaseException:
        shutil.rmtree(created or staging, ignore_errors=True)
        raise
    shutil.rmtree(staging)  # only the emptied sequence directories are left
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if not args.predictions or not args.ground_truth:
        raise fileio.InputFormatError("evaluate requires --predictions and --ground-truth")
    trajectories = fileio.read_trajectories(args.predictions)
    gt_records = fileio.read_ground_truth(args.ground_truth)
    gt = fileio.ground_truth_observations(gt_records)
    gate = Gate(threshold=args.gate)
    pred = trajectories_to_observations(trajectories)
    match = match_frames(gt, pred, gate)
    clear = clear_metrics(match, len(gt))
    fluents = fluent_metrics(gt, pred, match)
    fileio.write_metrics_report(_out_file(args.out), clear, fluents, sequence=args.sequence,
                                fmt=args.format)
    log.info("MOTA=%.4f MOTP=%.4f FP=%d FN=%d IDS=%d", clear.mota, clear.motp,
             clear.fp, clear.fn, clear.ids)
    return EXIT_OK


def cmd_fit_model(args) -> int:
    if not args.clips:
        raise fileio.InputFormatError("fit-model requires --clips")
    pose_samples, fluent_samples, transitions = fileio.read_clips(args.clips)
    models = {}
    for action, samples in sorted(pose_samples.items()):
        models[action] = fit_pose_model(action, samples)
    templates = {
        action: np.mean(np.asarray(samples, dtype=float), axis=0)
        for action, samples in sorted(fluent_samples.items())
    }
    table = fit_transition_table(transitions, args.alpha, default_grammar())
    fileio.write_action_models(_out_file(args.out), models, templates, table, alpha=args.alpha)
    log.info("fit %d pose models, %d templates from %s", len(models), len(templates), args.clips)
    return EXIT_OK


def fit_pose_model(action: str, samples: Sequence[np.ndarray]) -> ActionModel:
    """Sample mean and shrunk sample covariance (lambda = 1e-3 * trace / d).

    The shrinkage floor keeps the covariance positive definite even for
    zero-variance inputs. Needs at least two samples.
    """
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError(f"action {action!r} needs >= 2 pose samples for a covariance")
    mean = data.mean(axis=0)
    cov = np.cov(data, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    d = cov.shape[0]
    lam = 1e-3 * float(np.trace(cov)) / d
    if lam <= 0:
        lam = 1e-3
    cov = cov + lam * np.eye(d)
    return ActionModel(name=action, mean=mean, covariance=cov)


def cmd_render(args) -> int:
    if not args.trajectories:
        raise fileio.InputFormatError("render requires --trajectories")
    trajectories = fileio.read_trajectories(args.trajectories)
    write_svg(_out_file(args.out), trajectories)
    log.info("rendered %d trajectories to %s", len(trajectories), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluenttrack",
        description="Multi-object tracking with visibility-state reasoning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    p_sim.add_argument("--scenario", help="named scenario from the standard suite")
    p_sim.add_argument("--script", help="scenario JSON file")
    p_sim.add_argument("--suite", action="store_true", help="simulate all 20 scenarios")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default="sim_out", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_track = sub.add_parser("track", help="solve trajectories from detections")
    p_track.add_argument("--detections")
    p_track.add_argument("--camera")
    p_track.add_argument("sequence_dirs", nargs="*",
                         help="sequence directories with detections.jsonl + camera.json")
    p_track.add_argument("--mode", choices=SOLVE_MODES, default="full")
    p_track.add_argument("--out", default="track_out", help="output directory")
    p_track.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility and changes nothing: sequences "
                              "are tracked one after another (at least 1)")
    p_track.add_argument("--action-models", dest="action_models",
                         help="pose models, vehicle templates and transition table "
                              "written by fit-model")
    for name, kind in MODEL_FLAGS:
        p_track.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                             default=getattr(ModelParameters, name))
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("evaluate", help="CLEAR metrics against ground truth")
    p_eval.add_argument("--predictions")
    p_eval.add_argument("--ground-truth", dest="ground_truth")
    p_eval.add_argument("--gate", type=float, default=1.0,
                        help="largest matching distance, in metres: positive and below 5e8 "
                             "(default 1)")
    p_eval.add_argument("--format", choices=["json", "csv"], default="json")
    p_eval.add_argument("--sequence", default="sequence")
    p_eval.add_argument("--out", default="metrics.json")
    p_eval.set_defaults(func=cmd_evaluate)

    p_fit = sub.add_parser("fit-model", help="fit action models and transition table")
    p_fit.add_argument("--clips")
    p_fit.add_argument("--alpha", type=float, default=1.0)
    p_fit.add_argument("--out", default="action_models.json")
    p_fit.set_defaults(func=cmd_fit_model)

    p_render = sub.add_parser("render", help="render trajectories to SVG")
    p_render.add_argument("--trajectories")
    p_render.add_argument("--out", default="trajectories.svg")
    p_render.set_defaults(func=cmd_render)

    return parser


# whether this process has frozen its import-time objects; gc.get_freeze_count
# would tell too, but it walks every frozen object on each call
_frozen = False


def _freeze_imports() -> None:
    """Move every object alive now, most of them numpy's and scipy's import
    state, out of reach of the garbage collector, once per process: a full
    collection no longer re-scans them. A second freeze would also pin the
    uncollected cycles of the commands run since."""
    global _frozen
    if not _frozen:
        gc.freeze()
        _frozen = True


# the parser of this process, built on the first call of main: parse_args
# fills a new namespace on each call, so no value carries over between calls
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    _freeze_imports()
    _configure_logging()
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (fileio.InputFormatError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
