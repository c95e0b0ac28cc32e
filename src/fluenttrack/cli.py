"""Command-line front-end.

Subcommands: simulate | track | evaluate | fit-model | oracle | render.
Exit codes: 0 success, 2 input error, 3 internal invariant violation.
Log level comes from the FLUENT_TRACK_LOG environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import fileio
from .core import ActionModel, InternalInvariantError, ModelParameters, VisibilityState
from .grammar import default_grammar, default_parameters, fit_transition_table
from .metrics import Gate, clear_metrics, fluent_metrics, match_frames, trajectories_to_observations
from .render import write_svg
from .simulator import default_camera, scenario_by_name, simulate, standard_suite
from .solver import (
    OracleLimitError,
    OracleLimits,
    brute_force_oracle,
    joint_solve,
    pipeline_graph,
    solve_objects,
)

log = logging.getLogger("fluenttrack")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _configure_logging() -> None:
    level_name = os.environ.get("FLUENT_TRACK_LOG", "warn").lower()
    level = {"error": logging.ERROR, "warn": logging.WARNING, "warning": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: Optional[str]) -> Dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise fileio.InputFormatError(f"{path}: cannot read config ({exc})")
    if not isinstance(config, dict):
        raise fileio.InputFormatError(f"{path}: config must be a JSON object")
    return config


def _setting(args, config: Dict, name: str, default=None):
    """Flags win over the config file, which wins over the default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    return config.get(name, default)


def _build_parameters(args, config: Dict) -> ModelParameters:
    overrides = {}
    for name in ("tau_s", "tau_sigma", "tau_c", "max_contained", "max_gap_frames",
                 "solver_entry_exit_cost", "entry_exit_cost"):
        value = _setting(args, config, name)
        if value is not None:
            overrides[name] = value
    params = default_parameters(**overrides)
    models_path = _setting(args, config, "action_models")
    if models_path:
        models, templates, table = fileio.read_action_models(models_path)
        params = default_parameters(
            action_pose_models=models,
            vehicle_fluent_templates=templates,
            transition_table=table,
            **overrides,
        )
    table_path = _setting(args, config, "transition_table")
    if table_path:
        table = fileio.read_transition_table(table_path)
        current = {
            "action_pose_models": params.action_pose_models,
            "vehicle_fluent_templates": params.vehicle_fluent_templates,
        }
        params = default_parameters(transition_table=table, **current, **overrides)
    return params


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out_dir = Path(_setting(args, config, "out", "sim_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    camera = default_camera()
    params = default_parameters()

    if args.suite:
        jobs = max(1, int(_setting(args, config, "jobs", 1)))
        pairs = standard_suite()

        def run(pair):
            script, noise = pair
            if args.seed is not None:
                noise = type(noise)(**{**noise.__dict__, "seed": args.seed})
            seq_dir = out_dir / script.name
            seq_dir.mkdir(parents=True, exist_ok=True)
            result = simulate(script, noise, camera, params)
            fileio.write_detections(seq_dir / "detections.jsonl", result.detections)
            fileio.write_ground_truth(seq_dir / "ground_truth.jsonl", result.ground_truth)
            fileio.write_camera(seq_dir / "camera.json", camera)
            fileio.write_scenario(seq_dir / "scenario.json", script, noise)
            return script.name

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for name in pool.map(run, pairs):
                log.info("simulated %s", name)
        return EXIT_OK

    if args.script:
        script, noise = fileio.read_scenario(args.script)
    else:
        name = _setting(args, config, "scenario")
        if not name:
            raise fileio.InputFormatError("simulate requires --scenario, --script, or --suite")
        script, noise = scenario_by_name(name)
    if args.seed is not None:
        noise = type(noise)(**{**noise.__dict__, "seed": args.seed})
    result = simulate(script, noise, camera, params)
    fileio.write_detections(out_dir / "detections.jsonl", result.detections)
    fileio.write_ground_truth(out_dir / "ground_truth.jsonl", result.ground_truth)
    fileio.write_camera(out_dir / "camera.json", camera)
    fileio.write_scenario(out_dir / "scenario.json", script, noise)
    log.info("simulated %s into %s", script.name, out_dir)
    return EXIT_OK


def _track_one(detections_path: str, camera_path: str, out_dir: Path,
               params: ModelParameters, mode: str) -> None:
    detections = fileio.read_detections(detections_path)
    camera = fileio.read_camera(camera_path)
    result = joint_solve(detections, camera, params, mode=mode)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_trajectories(out_dir / "trajectories.jsonl", result.trajectories)
    fileio.write_frame_parses(out_dir / "frame_parses.jsonl", result.frame_parses)
    fileio.write_summary(out_dir / "summary.json", result.summary)


def cmd_track(args) -> int:
    config = _load_config(args.config)
    params = _build_parameters(args, config)
    mode = _setting(args, config, "mode", "full")
    out_dir = Path(_setting(args, config, "out", "track_out"))

    if args.sequence_dirs:
        jobs = max(1, int(_setting(args, config, "jobs", 1)))

        def run(seq: str) -> str:
            seq_path = Path(seq)
            _track_one(
                str(seq_path / "detections.jsonl"),
                str(seq_path / "camera.json"),
                out_dir / seq_path.name,
                params,
                mode,
            )
            return seq_path.name

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for name in pool.map(run, args.sequence_dirs):
                log.info("tracked %s", name)
        return EXIT_OK

    detections = _setting(args, config, "detections")
    camera = _setting(args, config, "camera")
    if not detections or not camera:
        raise fileio.InputFormatError("track requires --detections and --camera")
    _track_one(detections, camera, out_dir, params, mode)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    pred_path = _setting(args, config, "predictions")
    gt_path = _setting(args, config, "ground_truth")
    if not pred_path or not gt_path:
        raise fileio.InputFormatError("evaluate requires --predictions and --ground-truth")
    trajectories = fileio.read_trajectories(pred_path)
    gt_records = fileio.read_ground_truth(gt_path)
    gt = fileio.ground_truth_observations(gt_records)
    gate = Gate(kind=_setting(args, config, "gate_kind", "distance"),
                threshold=float(_setting(args, config, "gate", 1.0)))
    pred = trajectories_to_observations(trajectories)
    match = match_frames(gt, pred, gate)
    clear = clear_metrics(match, len(gt))
    fluents = fluent_metrics(gt, pred, match)
    out = Path(_setting(args, config, "out", "metrics.json"))
    fmt = _setting(args, config, "format", "json")
    fileio.write_metrics_report(out, clear, fluents,
                                sequence=_setting(args, config, "sequence", "sequence"),
                                fmt=fmt)
    log.info("MOTA=%.4f MOTP=%.4f FP=%d FN=%d IDS=%d", clear.mota, clear.motp,
             clear.fp, clear.fn, clear.ids)
    return EXIT_OK


def cmd_fit_model(args) -> int:
    config = _load_config(args.config)
    clips_path = _setting(args, config, "clips")
    if not clips_path:
        raise fileio.InputFormatError("fit-model requires --clips")
    alpha = float(_setting(args, config, "alpha", 1.0))
    out = Path(_setting(args, config, "out", "action_models.json"))

    pose_samples: Dict[str, List[np.ndarray]] = {}
    fluent_samples: Dict[str, List[np.ndarray]] = {}
    transitions = []
    for lineno, record in fileio._read_jsonl(clips_path):
        try:
            action = str(record["action"])
            if "pose_feature" in record and record["pose_feature"] is not None:
                pose_samples.setdefault(action, []).append(
                    np.asarray(record["pose_feature"], dtype=float)
                )
            if "vehicle_fluent_feature" in record and record["vehicle_fluent_feature"] is not None:
                fluent_samples.setdefault(action, []).append(
                    np.asarray(record["vehicle_fluent_feature"], dtype=float)
                )
            for s_cur, act, s_next in record.get("transitions", []):
                transitions.append(
                    (VisibilityState(s_cur), str(act), VisibilityState(s_next))
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise fileio.InputFormatError(f"{clips_path}:{lineno}: bad clip record: {exc}")

    models = {}
    for action, samples in sorted(pose_samples.items()):
        models[action] = fit_pose_model(action, samples)
    templates = {
        action: np.mean(np.asarray(samples, dtype=float), axis=0)
        for action, samples in sorted(fluent_samples.items())
    }
    table = fit_transition_table(transitions, alpha, default_grammar())
    fileio.write_action_models(out, models, templates, table, alpha=alpha)
    log.info("fit %d pose models, %d templates from %s", len(models), len(templates), clips_path)
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


def cmd_oracle(args) -> int:
    config = _load_config(args.config)
    detections_path = _setting(args, config, "detections")
    camera_path = _setting(args, config, "camera")
    if not detections_path or not camera_path:
        raise fileio.InputFormatError("oracle requires --detections and --camera")
    params = _build_parameters(args, config)
    detections = fileio.read_detections(detections_path)
    camera = fileio.read_camera(camera_path)

    graph = pipeline_graph(detections, camera, params)
    limits = OracleLimits(
        max_nodes_per_frame=int(_setting(args, config, "max_nodes_per_frame", 12)),
        max_frames=int(_setting(args, config, "max_frames", 10)),
        max_objects=int(_setting(args, config, "max_objects", 4)),
    )
    solution = solve_objects(graph, params)
    oracle = brute_force_oracle(graph, params, limits)
    report = {
        "dp_objective": solution.objective,
        "oracle_objective": oracle.objective,
        "gap": oracle.objective - solution.objective,
    }
    out = Path(_setting(args, config, "out", "oracle_report.json"))
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report))
    return EXIT_OK


def cmd_render(args) -> int:
    config = _load_config(args.config)
    traj_path = _setting(args, config, "trajectories")
    if not traj_path:
        raise fileio.InputFormatError("render requires --trajectories")
    trajectories = fileio.read_trajectories(traj_path)
    out = Path(_setting(args, config, "out", "trajectories.svg"))
    write_svg(out, trajectories)
    log.info("rendered %d trajectories to %s", len(trajectories), out)
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
    p_sim.add_argument("--out", help="output directory")
    p_sim.add_argument("--jobs", type=int, default=None)
    p_sim.add_argument("--config", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_track = sub.add_parser("track", help="solve trajectories from detections")
    p_track.add_argument("--detections")
    p_track.add_argument("--camera")
    p_track.add_argument("sequence_dirs", nargs="*",
                         help="sequence directories with detections.jsonl + camera.json")
    p_track.add_argument("--mode", choices=["full", "visible_only", "prior_only"], default=None)
    p_track.add_argument("--out", help="output directory")
    p_track.add_argument("--jobs", type=int, default=None)
    p_track.add_argument("--action-models", dest="action_models")
    p_track.add_argument("--transition-table", dest="transition_table")
    for name in ("tau-s", "tau-sigma", "tau-c"):
        p_track.add_argument(f"--{name}", dest=name.replace("-", "_"), type=float, default=None)
    p_track.add_argument("--max-contained", dest="max_contained", type=int, default=None)
    p_track.add_argument("--max-gap-frames", dest="max_gap_frames", type=int, default=None)
    p_track.add_argument("--config", default=None)
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("evaluate", help="CLEAR metrics against ground truth")
    p_eval.add_argument("--predictions")
    p_eval.add_argument("--ground-truth", dest="ground_truth")
    p_eval.add_argument("--gate", type=float, default=None)
    p_eval.add_argument("--gate-kind", dest="gate_kind", choices=["distance", "iou"],
                        default=None)
    p_eval.add_argument("--format", choices=["json", "csv"], default=None)
    p_eval.add_argument("--sequence", default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--config", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_fit = sub.add_parser("fit-model", help="fit action models and transition table")
    p_fit.add_argument("--clips")
    p_fit.add_argument("--alpha", type=float, default=None)
    p_fit.add_argument("--out", default=None)
    p_fit.add_argument("--config", default=None)
    p_fit.set_defaults(func=cmd_fit_model)

    p_oracle = sub.add_parser("oracle", help="compare the solver with the exhaustive oracle")
    p_oracle.add_argument("--detections")
    p_oracle.add_argument("--camera")
    p_oracle.add_argument("--max-nodes-per-frame", dest="max_nodes_per_frame", type=int,
                          default=None)
    p_oracle.add_argument("--max-frames", dest="max_frames", type=int, default=None)
    p_oracle.add_argument("--max-objects", dest="max_objects", type=int, default=None)
    p_oracle.add_argument("--out", default=None)
    p_oracle.add_argument("--config", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_render = sub.add_parser("render", help="render trajectories to SVG")
    p_render.add_argument("--trajectories")
    p_render.add_argument("--out", default=None)
    p_render.add_argument("--config", default=None)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (fileio.InputFormatError, FileNotFoundError, KeyError, OracleLimitError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
