"""CLEAR-MOT evaluation and visibility-state estimation metrics.

Per-frame correspondences are solved by exact min-cost bipartite matching
among pairs passing the gate: a ground-plane distance of at most the gate's
threshold, in metres. A persistence preference makes previously matched
pairs win ties. Identity switches count changes of a ground-truth
track's matched prediction id; fragmentations count matched -> unmatched ->
matched toggles.

``match_frames`` measures every same-frame (ground truth, prediction) pair of
a sequence at once, with stacked ``ground_distances`` calls, which keep the
bits of one ``ground_distance`` per pair: their rows run the same BLAS
``ddot``, where ``np.linalg.norm(axis=1)`` or ``np.einsum`` would round
differently in the last digit (see ``core``) and move MOTP and MODP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Trajectory, VisibilityState, gathered_rows, ground_distances

PERSISTENCE_TIEBREAK = 1e-9
INFEASIBLE = 1e9


@dataclass(frozen=True)
class TrackObservation:
    """One (frame, id) observation of either ground truth or a prediction."""

    frame: int
    object_id: int
    location: np.ndarray
    state: Optional[VisibilityState] = None


@dataclass(frozen=True)
class Gate:
    """Match feasibility rule: ground-plane distance of at most
    ``threshold`` metres."""

    threshold: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"gate must be a finite positive distance, got {self.threshold}")

    def score(self, distances: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(whether each pair passes the gate, its matching cost, its match
        quality in [0, 1]); a gated-out pair costs ``INFEASIBLE`` and has
        quality 0."""
        feasible = ~(distances > self.threshold)
        return (feasible, np.where(feasible, distances, INFEASIBLE),
                np.where(feasible, 1.0 - distances / self.threshold, 0.0))


@dataclass
class MatchResult:
    """Frame-level correspondences and the accumulated CLEAR error counts."""

    matches: Dict[int, Tuple[Tuple[int, int], ...]] = field(default_factory=dict)
    fp: int = 0
    fn: int = 0
    ids: int = 0
    frag: int = 0
    quality_sum: float = 0.0
    n_matches: int = 0
    frame_precisions: List[float] = field(default_factory=list)


def _by_frame(observations: Sequence[TrackObservation],
              what: str) -> Dict[int, List[TrackObservation]]:
    """Observations grouped by frame, each group sorted by id; a repeated
    (frame, id) raises."""
    frames: Dict[int, List[TrackObservation]] = {}
    seen = set()
    for obs in observations:
        key = (obs.frame, obs.object_id)
        if key in seen:
            raise ValueError(f"duplicate {what} id {obs.object_id} in frame {obs.frame}")
        seen.add(key)
        frames.setdefault(obs.frame, []).append(obs)
    for bucket in frames.values():
        bucket.sort(key=lambda o: o.object_id)
    return frames


def match_frames(
    gt: Sequence[TrackObservation],
    pred: Sequence[TrackObservation],
    gate: Gate = Gate(),
) -> MatchResult:
    """Optimal per-frame one-to-one assignment with persistence preference."""
    gt_frames = _by_frame(gt, "gt")
    pred_frames = _by_frame(pred, "prediction")

    # every same-frame (gt, prediction) pair, row-major per frame, measured
    # in one call; observations are rows in (frame, id) order
    frames = sorted(set(gt_frames) | set(pred_frames))
    gt_rows = [o for frame in frames for o in gt_frames.get(frame, [])]
    pred_rows = [o for frame in frames for o in pred_frames.get(frame, [])]
    n_gt = np.array([len(gt_frames.get(frame, [])) for frame in frames], dtype=np.int64)
    n_pred = np.array([len(pred_frames.get(frame, [])) for frame in frames], dtype=np.int64)
    counts = n_gt * n_pred
    offsets = np.cumsum(counts) - counts
    k = np.arange(counts.sum()) - np.repeat(offsets, counts)
    width = np.repeat(n_pred, counts)
    gi = np.repeat(np.cumsum(n_gt) - n_gt, counts) + k // width
    pj = np.repeat(np.cumsum(n_pred) - n_pred, counts) + k % width
    del k, width
    distances = gathered_rows(ground_distances,
                              np.reshape([o.location for o in gt_rows], (-1, 2)), gi,
                              np.reshape([o.location for o in pred_rows], (-1, 2)), pj)

    result = MatchResult()
    last_pred_of: Dict[int, int] = {}   # gt id -> last matched pred id
    was_matched: Dict[int, bool] = {}   # gt id -> matched at its previous appearance
    seen_matched: Dict[int, bool] = {}  # gt id -> ever matched before

    for frame, start in zip(frames, offsets.tolist()):
        gts = gt_frames.get(frame, [])
        preds = pred_frames.get(frame, [])
        pairs: Tuple[Tuple[int, int], ...] = ()
        if gts and preds:
            feasible, cost, quality = gate.score(
                distances[start:start + len(gts) * len(preds)].reshape(len(gts), len(preds)))
            column = {p.object_id: j for j, p in enumerate(preds)}
            for i, g in enumerate(gts):
                j = column.get(last_pred_of.get(g.object_id))
                if j is not None and feasible[i, j]:
                    cost[i, j] -= PERSISTENCE_TIEBREAK
            rows, cols = linear_sum_assignment(cost)
            chosen = []
            for i, j in zip(rows, cols):
                if cost[i, j] >= INFEASIBLE:
                    continue
                chosen.append((i, j))
            pairs = tuple(
                (gts[i].object_id, preds[j].object_id) for i, j in sorted(chosen)
            )
            qualities = [quality[i, j] for i, j in sorted(chosen)]
        else:
            qualities = []

        matched_gt = {g for g, _ in pairs}
        matched_pred = {p for _, p in pairs}
        result.matches[frame] = pairs
        result.fn += len(gts) - len(matched_gt)
        result.fp += len(preds) - len(matched_pred)
        result.n_matches += len(pairs)
        result.quality_sum += float(sum(qualities))
        if pairs:
            result.frame_precisions.append(float(np.mean(qualities)))

        for g, p in pairs:
            if g in last_pred_of and last_pred_of[g] != p:
                result.ids += 1
            last_pred_of[g] = p
        for g_obs in gts:
            gid = g_obs.object_id
            hit = gid in matched_gt
            if hit and seen_matched.get(gid, False) and not was_matched.get(gid, True):
                result.frag += 1
            was_matched[gid] = hit
            if hit:
                seen_matched[gid] = True
    return result


@dataclass(frozen=True)
class ClearMetrics:
    mota: float
    motp: float
    moda: float
    modp: float
    fp: int
    fn: int
    ids: int
    frag: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "MOTA": self.mota, "MOTP": self.motp, "MODA": self.moda, "MODP": self.modp,
            "FP": self.fp, "FN": self.fn, "IDS": self.ids, "Frag": self.frag,
        }


def clear_metrics(match: MatchResult, gt_count: int) -> ClearMetrics:
    """The eight CLEAR scores from an accumulated match result.

    MOTA may go negative when FP + FN + IDS exceeds the ground-truth count.
    """
    if gt_count <= 0:
        raise ValueError("gt_count must be positive")
    motp = match.quality_sum / match.n_matches if match.n_matches else 0.0
    modp = (
        float(np.mean(match.frame_precisions)) if match.frame_precisions else 0.0
    )
    return ClearMetrics(
        mota=1.0 - (match.fp + match.fn + match.ids) / gt_count,
        motp=motp,
        moda=1.0 - (match.fp + match.fn) / gt_count,
        modp=modp,
        fp=match.fp,
        fn=match.fn,
        ids=match.ids,
        frag=match.frag,
    )


STATE_ORDER = (VisibilityState.VISIBLE, VisibilityState.OCCLUDED, VisibilityState.CONTAINED)


@dataclass(frozen=True)
class FluentReport:
    """Confusion over matched frame pairs (rows: truth, cols: prediction)."""

    confusion: np.ndarray
    precision: Dict[VisibilityState, float]
    recall: Dict[VisibilityState, float]

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            s.value: {"precision": self.precision[s], "recall": self.recall[s]}
            for s in STATE_ORDER
        }


def fluent_metrics(
    gt: Sequence[TrackObservation],
    pred: Sequence[TrackObservation],
    match: MatchResult,
) -> FluentReport:
    """Per-state precision/recall over matched (gt, pred) frame pairs.

    States without any support (no true or predicted instance among the
    matched pairs) report NaN.
    """
    gt_state = {(o.frame, o.object_id): o.state for o in gt}
    pred_state = {(o.frame, o.object_id): o.state for o in pred}
    idx = {s: i for i, s in enumerate(STATE_ORDER)}
    confusion = np.zeros((3, 3), dtype=int)
    for frame, pairs in match.matches.items():
        for g, p in pairs:
            gs = gt_state.get((frame, g))
            ps = pred_state.get((frame, p))
            if gs is None or ps is None:
                continue
            confusion[idx[gs], idx[ps]] += 1
    precision = {}
    recall = {}
    for s in STATE_ORDER:
        i = idx[s]
        col = confusion[:, i].sum()
        row = confusion[i, :].sum()
        precision[s] = confusion[i, i] / col if col else float("nan")
        recall[s] = confusion[i, i] / row if row else float("nan")
    return FluentReport(confusion=confusion, precision=precision, recall=recall)


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------

def trajectories_to_observations(trajectories: Sequence[Trajectory]) -> List[TrackObservation]:
    out = []
    for traj in trajectories:
        for point in traj.points:
            out.append(
                TrackObservation(
                    frame=point.frame,
                    object_id=traj.object_id,
                    location=point.location,
                    state=point.state,
                )
            )
    return out


def evaluate_trajectories(
    gt: Sequence[TrackObservation],
    trajectories: Sequence[Trajectory],
    gate: Gate = Gate(),
) -> Tuple[ClearMetrics, FluentReport, MatchResult]:
    """Convenience wrapper: match, CLEAR scores, and fluent report."""
    pred = trajectories_to_observations(trajectories)
    match = match_frames(gt, pred, gate)
    return clear_metrics(match, len(gt)), fluent_metrics(gt, pred, match), match
