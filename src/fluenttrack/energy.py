"""Energy terms of the tracking objective, priced as arrays.

Four components are combined on every transition-graph edge: a displacement
term (motion consistency), a state-transition term (-log transition
probability), a visibility term (how well the data supports the state), and
an action term (pose / vehicle-fluent evidence).

A hop's action is chosen by one kernel, ``best_actions``: for a block of
hops between one pair of states, each hop takes the legal action of least
transition energy plus action term. The action term (``action_terms``)
reads each hop's pose terms and its container fluent's distances to the
action templates (``FluentDistances``). ``hop_costs`` adds the displacement
and visibility terms, which do not depend on the action, and gives the
block's ``(m, 5)`` breakdown rows; ``check_breakdowns`` holds
``EnergyBreakdown``'s checks for such rows. Every kernel keeps, entry by
entry, the bits of the scalar per-hop pricing in
``tests/energy_reference.py``, which the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import ActionModel, ModelParameters, VisibilityState, row_dots
from .grammar import DEFAULT_ACTIONS, LEGAL_ACTIONS, VEHICLE_ACTIONS, ActionStateTable

PROBABILITY_FLOOR = 1e-9
NEUTRAL_SIGMOID = 0.5  # sigmoid at zero evidence; used when a feature is absent

# How far a breakdown's total may drift from the sum of its parts, relative
# to the total and never below this absolute bound: a chain of a thousand
# hops sums to totals near 1e5, whose rounding alone exceeds 1e-9.
TOTAL_TOLERANCE = 1e-9

# The action names; an action code is an index into this tuple.
ACTIONS = tuple(action.name for action in DEFAULT_ACTIONS)
_ACTION_CODES = {name: code for code, name in enumerate(ACTIONS)}


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def transition_energy(
    s_next: VisibilityState,
    s_cur: VisibilityState,
    action: str,
    table: ActionStateTable,
) -> float:
    """-log p(s_next | s_cur, action), floored so tabulated zeros stay finite."""
    p = table.probability(s_next, s_cur, action)
    return -math.log(max(p, PROBABILITY_FLOOR))


def pose_model(action: str, params: ModelParameters) -> ActionModel:
    """The fitted pose model of ``action``; KeyError if there is none."""
    model = params.action_pose_models.get(action)
    if model is None:
        raise KeyError(f"no fitted pose model for action {action!r}")
    return model


def pose_distances(features: Sequence[np.ndarray], model: ActionModel) -> np.ndarray:
    """The negative Gaussian log-density of each of ``n`` pose features
    under an action model, as one array.

    One stacked ``np.linalg.solve`` with one right-hand side per feature
    runs LAPACK's ``gesv`` on each feature as the 1-D solve of the scalar
    reference does, so every value keeps its bits; solving all features as the columns of one
    right-hand side matrix does not (2,093 of the suite's 8,278 energies
    under the walking model move in the last digit).
    """
    x = np.asarray(features, dtype=float)
    mean = model.mean
    if x.ndim != 2 or x.shape[1:] != mean.shape:
        raise ValueError(
            f"pose feature dimension {x.shape[1:]} != model dimension {mean.shape}")
    diff = x - mean
    quad = row_dots(diff, np.linalg.solve(model.covariance, diff[..., None])[..., 0])
    if (quad < 0).any():
        raise ValueError(f"covariance for action {model.name!r} is not positive definite")
    d = mean.shape[0]
    return 0.5 * (quad + model.log_det + d * math.log(2.0 * math.pi))


@dataclass(frozen=True)
class EnergyBreakdown:
    """The four edge-cost components plus their sum; all finite and >= 0."""

    displacement: float
    transition: float
    visibility: float
    action: float
    total: float

    def __post_init__(self) -> None:
        parts = (self.displacement, self.transition, self.visibility, self.action)
        if not all(math.isfinite(v) for v in parts) or not math.isfinite(self.total):
            raise ValueError("energy components must be finite")
        if any(v < 0 for v in parts):
            raise ValueError("energy components must be >= 0")
        if abs(self.total - sum(parts)) > TOTAL_TOLERANCE * max(1.0, abs(self.total)):
            raise ValueError("total must equal the sum of the components")

    @classmethod
    def build(
        cls, displacement: float, transition: float, visibility: float, action: float
    ) -> "EnergyBreakdown":
        return cls(
            displacement=displacement,
            transition=transition,
            visibility=visibility,
            action=action,
            total=displacement + transition + visibility + action,
        )


ZERO_BREAKDOWN = EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)


def row_totals(parts: np.ndarray) -> np.ndarray:
    """Each row's displacement + transition + visibility + action, added in
    that order, as ``EnergyBreakdown.build`` and ``sum`` of the parts add
    them."""
    return ((parts[:, 0] + parts[:, 1]) + parts[:, 2]) + parts[:, 3]


def check_breakdowns(rows: np.ndarray) -> None:
    """``EnergyBreakdown``'s checks on ``(m, 5)`` rows of (displacement,
    transition, visibility, action, total), with its messages."""
    if not np.isfinite(rows).all():
        raise ValueError("energy components must be finite")
    if (rows[:, :4] < 0).any():
        raise ValueError("energy components must be >= 0")
    total = rows[:, 4]
    bound = TOTAL_TOLERANCE * np.maximum(1.0, np.abs(total))
    if (np.abs(total - row_totals(rows)) > bound).any():
        raise ValueError("total must equal the sum of the components")


def sigmoids(x) -> np.ndarray:
    """``sigmoid`` of each value, with its bits: the scalar kernel, once per
    distinct value."""
    values, inverse = np.unique(np.asarray(x, dtype=float), return_inverse=True)
    return np.array([sigmoid(v) for v in values.tolist()])[inverse.reshape(-1)]


def visibility_likelihoods(state: VisibilityState, evidence: np.ndarray) -> np.ndarray:
    """The visibility term of stops in ``state`` from the evidence that
    state reads: ``1 - score`` for detection scores (visible) and container
    scores (contained), the sigmoid of ``1 - similarity`` for the gap
    similarities of the two tracklets an occluded stop bridges."""
    evidence = np.asarray(evidence, dtype=float)
    if state is not VisibilityState.OCCLUDED:
        return 1.0 - evidence
    return sigmoids(1.0 - evidence)


class FluentDistances:
    """The container fluents of ``m`` hops (None for a hop without one) and
    their Euclidean distance to each action's template, measured once per
    action on first use: the enter/exit gate and the action terms read one
    table."""

    def __init__(self, fluents: Sequence[Optional[np.ndarray]],
                 templates: Mapping[str, np.ndarray]):
        self.fluents = list(fluents)
        self.templates = templates
        self.present = np.array([f is not None for f in self.fluents], dtype=bool)
        self.columns: Dict[str, np.ndarray] = {}

    def __call__(self, action: str) -> np.ndarray:
        """Each hop's distance to ``action``'s template, NaN for a hop
        without a fluent; each value has the bits of ``math.sqrt(d @ d)``.
        KeyError if ``action`` has no template, ValueError if a fluent's
        length is not the template's."""
        column = self.columns.get(action)
        if column is None:
            template = self.templates.get(action)
            if template is None:
                raise KeyError(f"no fluent template for action {action!r}")
            template = np.asarray(template, dtype=float)
            features = [np.asarray(f, dtype=float) for f in self.fluents if f is not None]
            for feature in features:
                if feature.shape != template.shape:
                    raise ValueError(f"fluent feature dimension {feature.shape} != template "
                                     f"dimension {template.shape}")
            column = np.full(len(self.fluents), math.nan)
            if features:
                diff = np.array(features) - template
                column[self.present] = np.sqrt(row_dots(diff, diff))
            self.columns[action] = column
        return column

    def take(self, rows: np.ndarray) -> "FluentDistances":
        """The table of the hops ``rows``, with the distances measured so far."""
        table = FluentDistances([self.fluents[i] for i in rows.tolist()], self.templates)
        table.columns = {action: column[rows] for action, column in self.columns.items()}
        return table


def action_terms(action: str, count: int, pose_terms: Optional[Mapping[str, np.ndarray]] = None,
                 fluents: Optional[FluentDistances] = None) -> np.ndarray:
    """The action term of ``action`` for each of ``count`` hops: its pose
    term plus its fluent term.

    ``pose_terms[action]`` holds each hop's pose term, the sigmoid of its
    source's pose distance under the action's model, or the neutral 0.5
    for a source without a pose feature; without ``pose_terms`` every hop
    takes the neutral term. The fluent term is the sigmoid of the hop's
    ``fluents`` distance for an action that involves a vehicle and a hop
    that has a fluent, and the neutral 0.5 otherwise.
    """
    pose = np.full(count, NEUTRAL_SIGMOID) if pose_terms is None else pose_terms[action]
    fluent = np.full(count, NEUTRAL_SIGMOID)
    if fluents is not None and action in VEHICLE_ACTIONS and fluents.present.any():
        fluent[fluents.present] = sigmoids(fluents(action)[fluents.present])
    return pose + fluent


def best_actions(src_state: VisibilityState, dst_state: VisibilityState,
                 params: ModelParameters, count: int,
                 pose_terms: Optional[Mapping[str, np.ndarray]] = None,
                 fluents: Optional[FluentDistances] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The action of each of ``count`` hops from ``src_state`` to
    ``dst_state``, with its transition energy and action term, as three
    arrays: action codes into ``ACTIONS``, transition energies and action
    terms.

    Each hop takes the action of least transition energy plus action term
    (``action_terms`` of its ``pose_terms`` and ``fluents``) among those
    ``LEGAL_ACTIONS`` allows for the state pair; an action replaces the
    best so far only when it is lower by more than 1e-15, so a tie goes to
    the first in ``LEGAL_ACTIONS`` order. ValueError for a state pair with
    no legal action; when a hop has a fluent, ``fluents`` raises KeyError
    for a legal vehicle action without a template and ValueError for a
    fluent whose length is not the template's.
    """
    legal = LEGAL_ACTIONS[(src_state, dst_state)]
    if not legal:
        raise ValueError(
            f"no legal action for state pair {src_state.value} -> {dst_state.value}")
    table = params.transition_table
    if table is None:
        raise ValueError("params.transition_table is required for edge costs")
    codes = np.zeros(count, dtype=np.int8)
    best = np.full(count, math.inf)
    transition = np.zeros(count)
    action_term = np.zeros(count)
    for action in legal:
        energy = transition_energy(dst_state, src_state, action, table)
        term = action_terms(action, count, pose_terms, fluents)
        value = energy + term
        better = value < best - 1e-15
        codes[better], best[better] = _ACTION_CODES[action], value[better]
        transition[better], action_term[better] = energy, term[better]
    return codes, transition, action_term


def hop_costs(src_state: VisibilityState, distance: Optional[np.ndarray],
              visibility: np.ndarray, transition: np.ndarray, action_term: np.ndarray,
              params: ModelParameters, frame_rate: float) -> np.ndarray:
    """The energy of ``m`` one-frame hops that leave stops in
    ``src_state``, as ``(m, 5)`` rows of displacement, transition,
    visibility, action and total.

    ``distance`` is each hop's ground distance, read only for a visible
    source, whose displacement is 0/1 against the speed bound
    ``tau_s / frame_rate``; any other source pays 1. ``visibility`` is the
    source's ``visibility_likelihoods``, and ``transition`` and
    ``action_term`` are each hop's ``best_actions`` choice; a caller that
    strips the likelihood terms passes zeros.
    """
    rows = np.empty((len(visibility), 5))
    if src_state is VisibilityState.VISIBLE:
        bound = params.tau_s / frame_rate
        rows[:, 0] = np.where(np.asarray(distance) > bound, 1.0, 0.0)
    else:
        rows[:, 0] = 1.0
    rows[:, 1] = transition
    rows[:, 2] = visibility
    rows[:, 3] = action_term
    rows[:, 4] = row_totals(rows)
    return rows


# Scores are clamped to this range before their log-odds are taken, so a
# detection of score 0 or 1 still has a finite reward.
LOG_ODDS_MIN_SCORE = 0.01
LOG_ODDS_MAX_SCORE = 0.99


def log_odds_each(scores) -> np.ndarray:
    """The clamped log-odds of each detection score, the node reward unit:
    the clamp and the odds as arrays, the logarithm with the scalar
    ``math.log``."""
    h = np.clip(np.asarray(scores, dtype=float), LOG_ODDS_MIN_SCORE, LOG_ODDS_MAX_SCORE)
    return np.array([math.log(odds) for odds in (h / (1.0 - h)).tolist()])
