"""Action-conditioned visibility-state grammar.

Declares which (state, action, next state) transitions are physically legal,
holds the fitted transition probabilities, and groups solved trajectories
into per-frame parses, checking each solved step against the grammar. The
topology is declared; only the probabilities are fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ActionModel,
    AtomicAction,
    FrameParse,
    ModelParameters,
    ParseEntry,
    Trajectory,
    VisibilityState,
)

V = VisibilityState.VISIBLE
O = VisibilityState.OCCLUDED
C = VisibilityState.CONTAINED

ROW_SUM_TOL = 1e-9

DEFAULT_ACTIONS: Tuple[AtomicAction, ...] = (
    AtomicAction(0, "walking"),
    AtomicAction(1, "open_vehicle_door"),
    AtomicAction(2, "enter_vehicle"),
    AtomicAction(3, "exit_vehicle"),
    AtomicAction(4, "close_vehicle_door"),
    AtomicAction(5, "open_trunk"),
    AtomicAction(6, "load_baggage"),
    AtomicAction(7, "unload_baggage"),
    AtomicAction(8, "close_trunk"),
)

INERTIAL_ACTION = "walking"

# Actions whose evidence lives on the interacting vehicle's fluent features.
VEHICLE_ACTIONS = frozenset(a.name for a in DEFAULT_ACTIONS if a.name != INERTIAL_ACTION)


class IllegalTransitionError(ValueError):
    """A (state, action, next state) triple outside the declared grammar."""


Triple = Tuple[VisibilityState, str, VisibilityState]


@dataclass(frozen=True)
class VisibilityGrammar:
    """Legal transition topology over visibility states and atomic actions."""

    actions: Tuple[AtomicAction, ...]
    transitions: frozenset

    def __post_init__(self) -> None:
        ids = sorted(a.id for a in self.actions)
        if ids != list(range(len(self.actions))):
            raise ValueError("action ids must be distinct and contiguous from 0")
        names = {a.name for a in self.actions}
        used = {t[1] for t in self.transitions}
        missing = names - used
        if missing:
            raise ValueError(f"actions never used by any transition: {sorted(missing)}")
        for state in VisibilityState:
            if (state, INERTIAL_ACTION, state) not in self.transitions:
                raise ValueError(f"missing inertial self-loop for state {state.value}")

    def is_legal(self, state: VisibilityState, action: str, succ: VisibilityState) -> bool:
        return (state, action, succ) in self.transitions

    def legal_successors(self, state: VisibilityState, action: str) -> Tuple[VisibilityState, ...]:
        succ = [s for s in VisibilityState if (state, action, s) in self.transitions]
        return tuple(succ)

    def legal_actions(self, state: VisibilityState, succ: VisibilityState) -> Tuple[AtomicAction, ...]:
        """All actions that can move ``state`` to ``succ``, ordered by id."""
        out = [a for a in sorted(self.actions, key=lambda a: a.id)
               if (state, a.name, succ) in self.transitions]
        return tuple(out)

    def legal_pairs(self) -> Tuple[Tuple[VisibilityState, str], ...]:
        pairs = sorted({(t[0], t[1]) for t in self.transitions},
                       key=lambda p: (p[0].value, p[1]))
        return tuple(pairs)


def default_grammar() -> VisibilityGrammar:
    """The default topology: containment is reached only through occlusion.

    Walking is the inertial action (self-loop in every state) and the only
    action that toggles visible/occluded. Door and trunk manipulation happens
    behind the vehicle, i.e. in the occluded state. There is no direct
    visible<->contained edge.
    """
    triples: List[Triple] = [
        (V, "walking", V),
        (O, "walking", O),
        (C, "walking", C),
        (V, "walking", O),
        (O, "walking", V),
        (O, "open_vehicle_door", O),
        (O, "close_vehicle_door", O),
        (C, "close_vehicle_door", C),
        (O, "open_trunk", O),
        (O, "close_trunk", O),
        (C, "close_trunk", C),
        (O, "enter_vehicle", C),
        (O, "load_baggage", C),
        (C, "exit_vehicle", O),
        (C, "unload_baggage", O),
    ]
    return VisibilityGrammar(actions=DEFAULT_ACTIONS, transitions=frozenset(triples))


def _legal_action_names(
    grammar: VisibilityGrammar,
) -> Dict[Tuple[VisibilityState, VisibilityState], Tuple[str, ...]]:
    return {(u, v): tuple(a.name for a in grammar.legal_actions(u, v))
            for u in VisibilityState for v in VisibilityState}


# The names of the actions that move each state to each next state in the
# default grammar, ordered by action id; () for a pair no action joins.
LEGAL_ACTIONS = _legal_action_names(default_grammar())


@dataclass(frozen=True)
class ActionStateTable:
    """p(next state | state, action), with rows exactly for legal pairs."""

    rows: Mapping[Tuple[VisibilityState, str], Mapping[VisibilityState, float]]

    def __post_init__(self) -> None:
        for key, row in self.rows.items():
            if not all(math.isfinite(p) for p in row.values()):
                raise ValueError(f"row {key} has a non-finite probability")
            total = sum(row.values())
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ValueError(f"row {key} sums to {total}, expected 1")
            if any(p < 0 for p in row.values()):
                raise ValueError(f"row {key} has a negative probability")

    def probability(self, s_next: VisibilityState, s_cur: VisibilityState, action: str) -> float:
        key = (s_cur, action)
        if key not in self.rows:
            raise IllegalTransitionError(
                f"no transition row for state {s_cur.value!r} and action {action!r}"
            )
        return float(self.rows[key].get(s_next, 0.0))


def fit_transition_table(
    events: Iterable[Triple],
    alpha: float,
    grammar: Optional[VisibilityGrammar] = None,
) -> ActionStateTable:
    """Estimate transition probabilities with Laplace smoothing.

    p(s'|s,a) = (count(s,a,s') + alpha) / (count(s,a,.) + alpha * n_legal),
    normalized over the legal successors of (s, a) only. Observed triples
    outside the grammar raise :class:`IllegalTransitionError`.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    grammar = grammar or default_grammar()
    counts: Dict[Triple, int] = {}
    for triple in events:
        s_cur, action, s_next = triple
        if not grammar.is_legal(s_cur, action, s_next):
            raise IllegalTransitionError(
                f"observed illegal transition ({s_cur.value}, {action}, {s_next.value})"
            )
        counts[triple] = counts.get(triple, 0) + 1

    rows: Dict[Tuple[VisibilityState, str], Dict[VisibilityState, float]] = {}
    for s_cur, action in grammar.legal_pairs():
        successors = grammar.legal_successors(s_cur, action)
        raw = {s: counts.get((s_cur, action, s), 0) for s in successors}
        total = sum(raw.values())
        denom = total + alpha * len(successors)
        if denom == 0:
            # alpha == 0 and no observations: fall back to uniform
            rows[(s_cur, action)] = {s: 1.0 / len(successors) for s in successors}
        else:
            rows[(s_cur, action)] = {s: (raw[s] + alpha) / denom for s in successors}
    return ActionStateTable(rows=rows)


def default_transition_table() -> ActionStateTable:
    """Hand-set inertial defaults used when no training data is available.

    Walking strongly favors keeping the current state. Every other row is
    the unfitted (uniform) one: the door/trunk and enter/exit actions are
    deterministic given their single legal successor sets in the default
    grammar.
    """
    grammar = default_grammar()
    preferred: Dict[Tuple[VisibilityState, str], Dict[VisibilityState, float]] = {
        (V, "walking"): {V: 0.85, O: 0.15},
        (O, "walking"): {O: 0.70, V: 0.30},
        (C, "walking"): {C: 1.0},
    }
    for (s_cur, action), row in preferred.items():
        if set(row) != set(grammar.legal_successors(s_cur, action)):
            raise ValueError("default probabilities do not match grammar successors")
    return ActionStateTable(rows={**fit_transition_table([], 1.0, grammar).rows, **preferred})


def min_inertial_energy(
    table: ActionStateTable,
    grammar: VisibilityGrammar,
    state: VisibilityState,
) -> float:
    """Cheapest -log p over actions that keep ``state`` unchanged."""
    best = math.inf
    for action in grammar.legal_actions(state, state):
        p = table.probability(state, state, action.name)
        if p > 0:
            best = min(best, -math.log(p))
    if not math.isfinite(best):
        raise IllegalTransitionError(f"state {state.value} has no self-loop probability")
    return best


# ---------------------------------------------------------------------------
# parse extraction
# ---------------------------------------------------------------------------

def extract_frame_parses(trajectories: Sequence[Trajectory]) -> List[FrameParse]:
    """Group solved trajectory points by frame into per-frame parses.

    Each entry keeps its point's location, state, action and container: the
    action of a step is the one the solver chose and priced for it. Every
    step ``(state, action, next state)`` must be legal in the default
    grammar, otherwise :class:`IllegalTransitionError` is raised.
    """
    grammar = default_grammar()
    by_frame: Dict[int, List[ParseEntry]] = {}
    for traj in trajectories:
        for point, succ in zip(traj.points, traj.points[1:]):
            if not grammar.is_legal(point.state, point.action, succ.state):
                raise IllegalTransitionError(
                    f"object {traj.object_id}: illegal transition {point.state.value} "
                    f"-{point.action}-> {succ.state.value} at frame {point.frame}"
                )
        for point in traj.points:
            entry = ParseEntry(
                object_id=traj.object_id,
                location=point.location,
                state=point.state,
                action=point.action,
                container_id=point.container_id,
            )
            by_frame.setdefault(point.frame, []).append(entry)
    parses = []
    for frame in sorted(by_frame):
        entries = tuple(sorted(by_frame[frame], key=lambda e: e.object_id))
        parses.append(FrameParse(frame=frame, entries=entries))
    return parses


# ---------------------------------------------------------------------------
# default fitted models and parameter assembly
# ---------------------------------------------------------------------------

POSE_FEATURE_DIM = 9
FLUENT_FEATURE_DIM = 9
_POSE_SCALE = 3.0
_FLUENT_SCALE = 4.0
_POSE_STDDEV = 0.15


def default_action_models() -> Dict[str, ActionModel]:
    """Synthetic one-hot pose prototypes, one per action, with tight spheres."""
    models = {}
    for action in DEFAULT_ACTIONS:
        mean = np.zeros(POSE_FEATURE_DIM)
        mean[action.id] = _POSE_SCALE
        cov = np.eye(POSE_FEATURE_DIM) * _POSE_STDDEV**2
        models[action.name] = ActionModel(name=action.name, mean=mean, covariance=cov)
    return models


def default_vehicle_templates() -> Dict[str, np.ndarray]:
    """Synthetic vehicle-fluent templates; walking doubles as the idle state."""
    templates = {}
    for action in DEFAULT_ACTIONS:
        t = np.zeros(FLUENT_FEATURE_DIM)
        t[action.id] = _FLUENT_SCALE
        t.setflags(write=False)
        templates[action.name] = t
    return templates


def default_parameters(**overrides) -> ModelParameters:
    """ModelParameters wired with the default grammar, table, and models."""
    params = dict(
        transition_table=default_transition_table(),
        action_pose_models=default_action_models(),
        vehicle_fluent_templates=default_vehicle_templates(),
    )
    params.update(overrides)
    return ModelParameters(**params)
