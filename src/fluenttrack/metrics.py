"""CLEAR-MOT evaluation and visibility-state estimation metrics.

Per-frame correspondences are solved by exact min-cost bipartite matching
among pairs passing the gate: a ground-plane distance of at most the gate's
threshold, in metres. A persistence preference makes previously matched
pairs win ties. Identity switches count changes of a ground-truth
track's matched prediction id; fragmentations count matched -> unmatched ->
matched toggles.

Evaluation runs on columns. ``ground_truth_observations`` (in ``fileio``)
and ``trajectories_to_observations`` return one :class:`Observations`
record: a frame, an id, an ``(n, 2)`` location and a state code per
observation; ``match_frames`` and ``fluent_metrics`` take both sides in that
form.

``match_frames`` sorts each side by (frame, id) with ``np.lexsort`` and
measures every same-frame (ground truth, prediction) pair of a sequence at
once, with stacked ``ground_distances`` calls, which keep the bits of one
``ground_distance`` per pair: their rows run the same BLAS ``ddot``, where
``np.linalg.norm(axis=1)`` or ``np.einsum`` would round differently in the
last digit (see ``core``) and move MOTP and MODP.

The assignment is solved only on contested frames: those where some ground
truth or prediction has more than one pair within the gate. On any other
frame the pairs within the gate already form a matching, and it is the
optimal assignment, with or without the persistence preference. A pair
within the gate costs its distance, at most the gate (less
``PERSISTENCE_TIEBREAK`` for a kept pair), and a pair outside it costs
``INFEASIBLE``; every assignment can hold all the gated pairs, so one that
drops a gated pair for an outside one costs ``INFEASIBLE`` minus at most
the gate more. ``Gate`` keeps the gate below ``INFEASIBLE / 2``, so that
always holds. Identity switches, fragmentations and the
MOTP and MODP sums stay one loop over frames in frame order, so their
sums keep their order and bits.
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

STATE_ORDER = (VisibilityState.VISIBLE, VisibilityState.OCCLUDED, VisibilityState.CONTAINED)
# an observation's state as an index of STATE_ORDER; NO_STATE when it has none
STATE_CODES = {s: i for i, s in enumerate(STATE_ORDER)}
NO_STATE = -1


@dataclass(frozen=True)
class Observations:
    """Observations as columns: row ``i`` is ``frame[i]``, ``object_id[i]``
    (both int64), the ``location[i]`` row of an ``(n, 2)`` float array, and
    ``state[i]``, an index of ``STATE_ORDER`` or ``NO_STATE``."""

    frame: np.ndarray
    object_id: np.ndarray
    location: np.ndarray
    state: np.ndarray

    def __len__(self) -> int:
        return len(self.frame)


def observations(frames: Sequence[int], object_ids: Sequence[int],
                 locations: Sequence[np.ndarray],
                 states: Sequence[Optional[VisibilityState]]) -> Observations:
    """The columns of observations given field by field. A frame or id that
    an int64 cannot hold raises ``ValueError``."""
    try:
        frame = np.array(frames, dtype=np.int64)
        object_id = np.array(object_ids, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"frames and object ids must fit in 64 bits: {exc}") from None
    location = np.array(locations, dtype=float).reshape(-1, 2)
    state = np.array([STATE_CODES.get(s, NO_STATE) for s in states], dtype=np.int8)
    return Observations(frame, object_id, location, state)


@dataclass(frozen=True)
class Gate:
    """Match feasibility rule: ground-plane distance of at most
    ``threshold`` metres, a positive distance below ``INFEASIBLE / 2``: a
    pair within the gate must cost less than one outside it, with room for
    the assignment to prefer every pair within the gate."""

    threshold: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"gate must be a finite positive distance, got {self.threshold}")
        if not self.threshold < INFEASIBLE / 2:
            raise ValueError(f"gate must be below {INFEASIBLE / 2:g} m, got {self.threshold:g}")

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


def _sorted(obs: Observations, what: str) -> Observations:
    """``obs`` in (frame, id) order; a repeated (frame, id) raises, naming
    the first repeat in input order."""
    order = np.lexsort((obs.object_id, obs.frame))
    frame, object_id = obs.frame[order], obs.object_id[order]
    repeats = order[1:][(frame[1:] == frame[:-1]) & (object_id[1:] == object_id[:-1])]
    if len(repeats):
        first = repeats.min()
        raise ValueError(f"duplicate {what} id {obs.object_id[first]} in frame "
                         f"{obs.frame[first]}")
    return Observations(frame, object_id, obs.location[order], obs.state[order])


def match_frames(gt: Observations, pred: Observations, gate: Gate = Gate()) -> MatchResult:
    """Optimal per-frame one-to-one assignment with persistence preference."""
    gt = _sorted(gt, "gt")
    pred = _sorted(pred, "prediction")

    # every same-frame (gt, prediction) pair, row-major per frame, measured
    # in one call; rows are in (frame, id) order
    frames = np.union1d(gt.frame, pred.frame)
    g_start = np.searchsorted(gt.frame, frames)
    n_gt = np.searchsorted(gt.frame, frames, side="right") - g_start
    p_start = np.searchsorted(pred.frame, frames)
    n_pred = np.searchsorted(pred.frame, frames, side="right") - p_start
    counts = n_gt * n_pred
    offsets = np.cumsum(counts) - counts
    k = np.arange(counts.sum()) - np.repeat(offsets, counts)
    width = np.repeat(n_pred, counts)
    gi = np.repeat(g_start, counts) + k // width
    pj = np.repeat(p_start, counts) + k % width
    del k, width
    distances = gathered_rows(ground_distances, gt.location, gi, pred.location, pj)
    feasible, cost, quality = gate.score(distances)

    # a frame is contested if a row or column has two gated pairs (or a
    # NaN distance, which the assignment rejects as it always has)
    gated = np.flatnonzero(feasible)
    shared = ((np.bincount(gi[gated], minlength=len(gt))[gi[gated]] > 1)
              | (np.bincount(pj[gated], minlength=len(pred))[pj[gated]] > 1)
              | np.isnan(distances[gated]))
    pair_frame = np.repeat(np.arange(len(frames)), counts)
    contested = np.bincount(pair_frame[gated[shared]], minlength=len(frames)) > 0
    # on the other frames the gated pairs are the assignment, in (i, j) order
    kept = gated[~contested[pair_frame[gated]]]
    kept_start = np.searchsorted(pair_frame[kept], np.arange(len(frames) + 1)).tolist()

    g_id, p_id = gt.object_id.tolist(), pred.object_id.tolist()
    kept_pairs = list(zip(gt.object_id[gi[kept]].tolist(), pred.object_id[pj[kept]].tolist()))
    kept_quality = quality[kept].tolist()

    result = MatchResult()
    last_pred_of: Dict[int, int] = {}   # gt id -> last matched pred id
    was_matched: Dict[int, bool] = {}   # gt id -> matched at its previous appearance
    seen_matched: Dict[int, bool] = {}  # gt id -> ever matched before

    for f, (frame, g0, ng, p0, npred, start, solve) in enumerate(zip(
            frames.tolist(), g_start.tolist(), n_gt.tolist(), p_start.tolist(),
            n_pred.tolist(), offsets.tolist(), contested.tolist())):
        gts = g_id[g0:g0 + ng]
        if solve:
            preds = p_id[p0:p0 + npred]
            block = slice(start, start + ng * npred)
            frame_feasible = feasible[block].reshape(ng, npred)
            frame_cost = cost[block].reshape(ng, npred).copy()
            frame_quality = quality[block].reshape(ng, npred)
            column = {p: j for j, p in enumerate(preds)}
            for i, g in enumerate(gts):
                j = column.get(last_pred_of.get(g))
                if j is not None and frame_feasible[i, j]:
                    frame_cost[i, j] -= PERSISTENCE_TIEBREAK
            rows, cols = linear_sum_assignment(frame_cost)
            chosen = sorted((i, j) for i, j in zip(rows, cols)
                            if frame_cost[i, j] < INFEASIBLE)
            pairs = tuple((gts[i], preds[j]) for i, j in chosen)
            qualities = [frame_quality[i, j] for i, j in chosen]
        else:
            pairs = tuple(kept_pairs[kept_start[f]:kept_start[f + 1]])
            qualities = kept_quality[kept_start[f]:kept_start[f + 1]]

        result.matches[frame] = pairs
        result.fn += ng - len(pairs)
        result.fp += npred - len(pairs)
        result.n_matches += len(pairs)
        result.quality_sum += float(sum(qualities))
        if pairs:
            # np.mean's sum and division, without its overhead
            result.frame_precisions.append(float(np.add.reduce(qualities) / len(qualities)))

        matched_gt = set()
        for g, p in pairs:
            if g in last_pred_of and last_pred_of[g] != p:
                result.ids += 1
            last_pred_of[g] = p
            matched_gt.add(g)
        for gid in gts:
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


def _states_at(obs: Observations, frames: np.ndarray, object_ids: np.ndarray) -> np.ndarray:
    """The state code of the last observation at each (frame, id), or
    ``NO_STATE`` where there is none."""
    # (frame, id) as one int64 key: the product of the two ranks' counts
    # is below len(keys) ** 2
    _, frame = np.unique(np.concatenate([obs.frame, frames]), return_inverse=True)
    ids, object_id = np.unique(np.concatenate([obs.object_id, object_ids]),
                               return_inverse=True)
    keys = frame * len(ids) + object_id
    order = np.argsort(keys[:len(obs)], kind="stable")
    table, query = keys[:len(obs)][order], keys[len(obs):]
    at = np.searchsorted(table, query, side="right") - 1
    found = at >= 0
    found[found] = table[at[found]] == query[found]
    codes = np.full(len(query), NO_STATE, dtype=np.int8)
    codes[found] = obs.state[order][at[found]]
    return codes


def fluent_metrics(gt: Observations, pred: Observations, match: MatchResult) -> FluentReport:
    """Per-state precision/recall over matched (gt, pred) frame pairs.

    States without any support (no true or predicted instance among the
    matched pairs) report NaN.
    """
    frames = np.array([frame for frame, pairs in match.matches.items() for _ in pairs],
                      dtype=np.int64)
    pairs = [pair for pairs in match.matches.values() for pair in pairs]
    g_id, p_id = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    g_state, p_state = _states_at(gt, frames, g_id), _states_at(pred, frames, p_id)
    known = (g_state != NO_STATE) & (p_state != NO_STATE)
    confusion = np.zeros((3, 3), dtype=int)
    np.add.at(confusion, (g_state[known], p_state[known]), 1)
    precision = {}
    recall = {}
    for i, s in enumerate(STATE_ORDER):
        col = confusion[:, i].sum()
        row = confusion[i, :].sum()
        precision[s] = confusion[i, i] / col if col else float("nan")
        recall[s] = confusion[i, i] / row if row else float("nan")
    return FluentReport(confusion=confusion, precision=precision, recall=recall)


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------

def trajectories_to_observations(trajectories: Sequence[Trajectory]) -> Observations:
    """Every point of the trajectories as columns, trajectory by trajectory."""
    points = [p for traj in trajectories for p in traj.points]
    return observations([p.frame for p in points],
                        [traj.object_id for traj in trajectories for _ in traj.points],
                        [p.location for p in points], [p.state for p in points])
