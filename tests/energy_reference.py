"""The scalar per-hop pricing that the array kernels of ``energy`` and the
graph builder are compared against, bit for bit.

``edge_cost`` prices one hop between two stops, read by attribute: any stop
has ``frame``, ``location`` and ``state``, and the hop's source also carries
the evidence it pays, ``detection_score``, ``container_score``,
``gap_similarity``, ``pose_feature`` and ``pose_energies`` (None when
absent). ``pose_energies`` maps action names to the ``pose_distance`` of the
stop's pose feature, as the graph's ``PoseTable`` holds them; a hop reads
it instead of solving again. ``edge_cost`` is ``best_action``, the action
choice of ``energy.best_actions`` for one hop, plus the displacement and
visibility terms. ``node_exit_cost`` is the exit term of one node.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Tuple

import numpy as np

from fluenttrack.core import ActionModel, ModelParameters, VisibilityState, ground_distance
from fluenttrack.energy import (
    LOG_ODDS_MAX_SCORE,
    LOG_ODDS_MIN_SCORE,
    NEUTRAL_SIGMOID,
    EnergyBreakdown,
    pose_distances,
    pose_model,
    sigmoid,
    transition_energy,
)
from fluenttrack.grammar import INERTIAL_ACTION, LEGAL_ACTIONS, VEHICLE_ACTIONS


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
    if x.shape != model.mean.shape:
        raise ValueError(
            f"pose feature dimension {x.shape} != model dimension {model.mean.shape}")
    return float(pose_distances(x[None], model)[0])


def vehicle_fluent_distance(fluent_feature: np.ndarray, template: np.ndarray) -> float:
    """Euclidean distance between an observed vehicle fluent and a template."""
    x = np.asarray(fluent_feature, dtype=float)
    t = np.asarray(template, dtype=float)
    if x.shape != t.shape:
        raise ValueError(f"fluent feature dimension {x.shape} != template dimension {t.shape}")
    diff = x - t
    return math.sqrt(diff @ diff)


def action_likelihood(
    action: str,
    params: ModelParameters,
    pose_feature: Optional[np.ndarray] = None,
    vehicle_fluent_feature: Optional[np.ndarray] = None,
    pose_energies: Optional[Mapping[str, float]] = None,
) -> float:
    """sigmoid(pose distance) + sigmoid(fluent distance) for one action.

    A missing feature contributes the neutral constant 0.5 (the sigmoid at
    zero evidence). The fluent term only consults features for actions that
    involve a vehicle; walking always takes the neutral term.
    ``pose_energies`` holds the pose distance of ``pose_feature`` for the
    actions it was already priced for.
    """
    if pose_feature is not None:
        if pose_energies is not None and action in pose_energies:
            distance = pose_energies[action]
        else:
            distance = pose_distance(pose_feature, pose_model(action, params))
        pose_term = sigmoid(distance)
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


def best_action(
    src_state: VisibilityState,
    dst_state: VisibilityState,
    params: ModelParameters,
    pose_feature: Optional[np.ndarray] = None,
    pose_energies: Optional[Mapping[str, float]] = None,
    fluent: Optional[np.ndarray] = None,
) -> Tuple[str, float, float]:
    """The action of a ``src_state -> dst_state`` hop, with its transition
    energy and action term: (action, transition, action term).

    The transition and action terms are minimized jointly over the actions
    ``LEGAL_ACTIONS`` allows for the state pair (ties go to the first, i.e.
    lowest-id, action). The evidence is the hop source's pose feature and
    pose energies and the container's vehicle-fluent feature, as in
    ``action_likelihood``; nothing else enters the choice.
    """
    legal_actions = LEGAL_ACTIONS[(src_state, dst_state)]
    if not legal_actions:
        raise ValueError(
            f"no legal action for state pair {src_state.value} -> {dst_state.value}"
        )
    table = params.transition_table
    if table is None:
        raise ValueError("params.transition_table is required for edge costs")
    best = None
    best_transition = 0.0
    best_action_term = 0.0
    best_value = math.inf
    for action in legal_actions:
        transition = transition_energy(dst_state, src_state, action, table)
        action_term = action_likelihood(
            action,
            params,
            pose_feature=pose_feature,
            vehicle_fluent_feature=fluent,
            pose_energies=pose_energies,
        )
        value = transition + action_term
        if value < best_value - 1e-15:
            best_value = value
            best = action
            best_transition = transition
            best_action_term = action_term
    assert best is not None
    return best, best_transition, best_action_term


def _hop_terms(src, dst, params: ModelParameters, frame_rate: float) -> Tuple[float, float]:
    """The displacement and visibility terms of the hop ``src -> dst``,
    which do not depend on its action."""
    dt_frames = dst.frame - src.frame
    if dt_frames < 1:
        raise ValueError("edges must advance time (dt_frames >= 1)")
    displacement = displacement_energy(
        dst.location, src.location, src.state, params, dt_frames, frame_rate
    )
    visibility = visibility_likelihood(
        src.state,
        detection_score=src.detection_score,
        container_score=src.container_score,
        gap_similarity=src.gap_similarity,
    )
    return displacement, visibility


def edge_cost(src, dst, params: ModelParameters, frame_rate: float,
              fluent: Optional[np.ndarray] = None) -> Tuple[EnergyBreakdown, str]:
    """Composite energy of the hop ``src -> dst`` and its best action label.

    A stop is anything with ``frame``, ``location`` and ``state``; the hop
    spans ``dst.frame - src.frame`` frames. The hop pays ``src``'s evidence:
    its ``detection_score``, ``container_score``, ``gap_similarity`` and
    ``pose_feature`` (each None when absent). ``fluent`` is the container's
    vehicle-fluent feature, for hops into, out of or along a container.

    The transition and action terms are those of ``best_action``;
    displacement and visibility do not depend on the action.
    """
    displacement, visibility = _hop_terms(src, dst, params, frame_rate)
    action, transition, action_term = best_action(src.state, dst.state, params,
                                                  src.pose_feature, src.pose_energies, fluent)
    return EnergyBreakdown.build(displacement, transition, visibility, action_term), action


def node_exit_cost(node, params: ModelParameters) -> EnergyBreakdown:
    """Likelihood terms paid when a trajectory ends at ``node`` (no
    transition), scored under the inertial action. ``node`` supplies the
    same evidence as an ``edge_cost`` source stop."""
    visibility = visibility_likelihood(
        node.state, detection_score=node.detection_score,
        container_score=node.container_score, gap_similarity=node.gap_similarity,
    )
    action_term = action_likelihood(INERTIAL_ACTION, params, pose_feature=node.pose_feature,
                                    pose_energies=node.pose_energies)
    return EnergyBreakdown.build(0.0, 0.0, visibility, action_term)


def log_odds(score: float) -> float:
    """Clamped log-odds of a detection score; the node reward unit."""
    h = min(max(float(score), LOG_ODDS_MIN_SCORE), LOG_ODDS_MAX_SCORE)
    return math.log(h / (1.0 - h))
