"""Scalar energy terms of the tracking objective and the composite edge cost.

Four components are combined on every transition-graph edge: a displacement
term (motion consistency), a state-transition term (-log transition
probability), a visibility term (how well the data supports the state), and
an action term (pose / vehicle-fluent evidence). All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    ActionModel,
    ModelParameters,
    VisibilityState,
    ground_distance,
)
from .grammar import VEHICLE_ACTIONS, ActionStateTable

PROBABILITY_FLOOR = 1e-9
NEUTRAL_SIGMOID = 0.5  # sigmoid at zero evidence; used when a feature is absent


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def displacement_energy(
    l_next,
    l_cur,
    state_cur: VisibilityState,
    params: ModelParameters,
    dt_frames: int,
    frame_rate: float,
) -> float:
    """Motion-consistency gate: 0/1 speed indicator for visible objects.

    Invisible (occluded or contained) steps always cost 1, which makes every
    frame spent out of sight carry a fixed displacement penalty.
    """
    if dt_frames < 1:
        raise ValueError("dt_frames must be >= 1")
    if state_cur is not VisibilityState.VISIBLE:
        return 1.0
    bound = params.tau_s * dt_frames / frame_rate
    return 1.0 if ground_distance(l_next, l_cur) > bound else 0.0


def transition_energy(
    s_next: VisibilityState,
    s_cur: VisibilityState,
    action: str,
    table: ActionStateTable,
) -> float:
    """-log p(s_next | s_cur, action), floored so tabulated zeros stay finite."""
    p = table.probability(s_next, s_cur, action)
    return -math.log(max(p, PROBABILITY_FLOOR))


def visibility_likelihood(
    state: VisibilityState,
    detection_score: Optional[float] = None,
    container_score: Optional[float] = None,
    gap_similarity: Optional[float] = None,
) -> float:
    """Evidence energy for a node's visibility state.

    Visible nodes cost 1 - detection score, contained nodes 1 - container
    score, and occluded nodes the sigmoid of the appearance discrepancy
    (1 - pooled-descriptor similarity) between the two tracklets they bridge.
    """
    if state is VisibilityState.VISIBLE:
        if detection_score is None:
            raise ValueError("visible state requires a detection score")
        return 1.0 - float(detection_score)
    if state is VisibilityState.CONTAINED:
        if container_score is None:
            raise ValueError("contained state requires a container score")
        return 1.0 - float(container_score)
    if gap_similarity is None:
        raise ValueError("occluded state requires a gap similarity")
    return sigmoid(1.0 - float(gap_similarity))


def pose_distance(pose_feature: np.ndarray, model: ActionModel) -> float:
    """Negative Gaussian log-density of a pose feature under an action model."""
    x = np.asarray(pose_feature, dtype=float)
    mean = model.mean
    if x.shape != mean.shape:
        raise ValueError(f"pose feature dimension {x.shape} != model dimension {mean.shape}")
    cov = model.covariance
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError(f"covariance for action {model.name!r} is not positive definite")
    diff = x - mean
    quad = float(diff @ np.linalg.solve(cov, diff))
    if quad < 0:
        raise ValueError(f"covariance for action {model.name!r} is not positive definite")
    d = mean.shape[0]
    return 0.5 * (quad + float(logdet) + d * math.log(2.0 * math.pi))


def vehicle_fluent_distance(fluent_feature: np.ndarray, template: np.ndarray) -> float:
    """Euclidean distance between an observed vehicle fluent and a template."""
    x = np.asarray(fluent_feature, dtype=float)
    t = np.asarray(template, dtype=float)
    if x.shape != t.shape:
        raise ValueError(f"fluent feature dimension {x.shape} != template dimension {t.shape}")
    return float(np.linalg.norm(x - t))


def action_likelihood(
    action: str,
    params: ModelParameters,
    pose_feature: Optional[np.ndarray] = None,
    vehicle_fluent_feature: Optional[np.ndarray] = None,
) -> float:
    """sigmoid(pose distance) + sigmoid(fluent distance) for one action.

    A missing feature contributes the neutral constant 0.5 (the sigmoid at
    zero evidence). The fluent term only consults features for actions that
    involve a vehicle; walking always takes the neutral term.
    """
    if pose_feature is not None:
        model = params.action_pose_models.get(action)
        if model is None:
            raise KeyError(f"no fitted pose model for action {action!r}")
        pose_term = sigmoid(pose_distance(pose_feature, model))
    else:
        pose_term = NEUTRAL_SIGMOID
    if vehicle_fluent_feature is not None and action in VEHICLE_ACTIONS:
        template = params.vehicle_fluent_templates.get(action)
        if template is None:
            raise KeyError(f"no fluent template for action {action!r}")
        fluent_term = sigmoid(vehicle_fluent_distance(vehicle_fluent_feature, template))
    else:
        fluent_term = NEUTRAL_SIGMOID
    return pose_term + fluent_term


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
        if abs(self.total - sum(parts)) > 1e-9:
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

    def add(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            displacement=self.displacement + other.displacement,
            transition=self.transition + other.transition,
            visibility=self.visibility + other.visibility,
            action=self.action + other.action,
            total=self.total + other.total,
        )


ZERO_BREAKDOWN = EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EdgeContext:
    """Everything needed to price one graph edge.

    Evidence fields describe the *from* node (its likelihood is paid on its
    outgoing edge). ``legal_actions`` enumerates the grammar-legal actions for
    the state pair, ordered by action id.
    """

    from_state: VisibilityState
    to_state: VisibilityState
    from_location: np.ndarray
    to_location: np.ndarray
    dt_frames: int
    frame_rate: float
    legal_actions: Tuple[str, ...]
    detection_score: Optional[float] = None
    container_score: Optional[float] = None
    gap_similarity: Optional[float] = None
    pose_feature: Optional[np.ndarray] = None
    container_fluent_feature: Optional[np.ndarray] = None


def edge_cost(ctx: EdgeContext, params: ModelParameters) -> Tuple[EnergyBreakdown, str]:
    """Composite energy of a transition-graph edge and its best action label.

    The transition and action terms are minimized jointly over the legal
    actions (ties go to the first, i.e. lowest-id, action); displacement and
    visibility do not depend on the action.
    """
    if ctx.dt_frames < 1:
        raise ValueError("edges must advance time (dt_frames >= 1)")
    if not ctx.legal_actions:
        raise ValueError(
            f"no legal action for state pair {ctx.from_state.value} -> {ctx.to_state.value}"
        )
    table = params.transition_table
    if table is None:
        raise ValueError("params.transition_table is required for edge costs")

    displacement = displacement_energy(
        ctx.to_location, ctx.from_location, ctx.from_state, params, ctx.dt_frames, ctx.frame_rate
    )
    visibility = visibility_likelihood(
        ctx.from_state,
        detection_score=ctx.detection_score,
        container_score=ctx.container_score,
        gap_similarity=ctx.gap_similarity,
    )

    best_action = None
    best_transition = 0.0
    best_action_term = 0.0
    best_value = math.inf
    for action in ctx.legal_actions:
        transition = transition_energy(ctx.to_state, ctx.from_state, action, table)
        action_term = action_likelihood(
            action,
            params,
            pose_feature=ctx.pose_feature,
            vehicle_fluent_feature=ctx.container_fluent_feature,
        )
        value = transition + action_term
        if value < best_value - 1e-15:
            best_value = value
            best_action = action
            best_transition = transition
            best_action_term = action_term
    assert best_action is not None
    breakdown = EnergyBreakdown.build(displacement, best_transition, visibility, best_action_term)
    return breakdown, best_action


def node_exit_cost(
    state: VisibilityState,
    params: ModelParameters,
    detection_score: Optional[float] = None,
    container_score: Optional[float] = None,
    gap_similarity: Optional[float] = None,
    pose_feature: Optional[np.ndarray] = None,
) -> Tuple[EnergyBreakdown, str]:
    """Likelihood terms paid when a trajectory ends at a node (no transition)."""
    visibility = visibility_likelihood(
        state, detection_score=detection_score, container_score=container_score,
        gap_similarity=gap_similarity,
    )
    action_term = action_likelihood("walking", params, pose_feature=pose_feature)
    return EnergyBreakdown.build(0.0, 0.0, visibility, action_term), "walking"


def log_odds(score: float, params: ModelParameters) -> float:
    """Clamped log-odds of a detection score; the node reward unit."""
    h = params.clamp_score(score)
    return math.log(h / (1.0 - h))
