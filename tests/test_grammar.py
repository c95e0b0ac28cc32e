import numpy as np
import pytest

from fluenttrack.core import ObjectClass, Trajectory, TrajectoryPoint, VisibilityState
from fluenttrack.grammar import (
    C,
    DEFAULT_ACTIONS,
    ActionStateTable,
    IllegalTransitionError,
    O,
    V,
    VisibilityGrammar,
    default_grammar,
    default_transition_table,
    extract_frame_parses,
    fit_transition_table,
)


class TestDefaultGrammar:
    def test_no_direct_visible_contained(self):
        g = default_grammar()
        assert not g.is_legal(V, "enter_vehicle", C)
        assert not any(g.is_legal(V, a.name, C) for a in g.actions)
        assert not any(g.is_legal(C, a.name, V) for a in g.actions)

    def test_inertial_self_loop(self):
        g = default_grammar()
        assert g.is_legal(V, "walking", V)

    def test_containment_through_occlusion(self):
        g = default_grammar()
        assert g.is_legal(O, "enter_vehicle", C)

    def test_every_action_used(self):
        g = default_grammar()
        used = {t[1] for t in g.transitions}
        assert used == {a.name for a in DEFAULT_ACTIONS}

    def test_grammar_rejects_missing_inertial(self):
        triples = frozenset({(V, "walking", V), (O, "walking", O)})
        with pytest.raises(ValueError):
            VisibilityGrammar(actions=DEFAULT_ACTIONS[:1], transitions=triples)


def toy_grammar():
    """Grammar where entering from Visible is legal, for the fit example."""
    triples = {
        (V, "walking", V), (O, "walking", O), (C, "walking", C),
        (V, "enter_vehicle", O), (V, "enter_vehicle", V),
    }
    actions = (DEFAULT_ACTIONS[0], DEFAULT_ACTIONS[2])
    return VisibilityGrammar(actions=(type(actions[0])(0, "walking"),
                                      type(actions[0])(1, "enter_vehicle")),
                             transitions=frozenset(triples))


class TestFitTransitionTable:
    def test_laplace_formula(self):
        g = toy_grammar()
        events = [(V, "enter_vehicle", O)] * 8 + [(V, "enter_vehicle", V)] * 2
        table = fit_transition_table(events, alpha=1.0, grammar=g)
        assert table.probability(O, V, "enter_vehicle") == pytest.approx(9 / 12)
        assert table.probability(V, V, "enter_vehicle") == pytest.approx(3 / 12)

    def test_no_observations_uniform(self):
        g = default_grammar()
        table = fit_transition_table([], alpha=1.0, grammar=g)
        succ = g.legal_successors(V, "walking")
        for s in succ:
            assert table.probability(s, V, "walking") == pytest.approx(1 / len(succ))

    def test_mle_alpha_zero(self):
        g = default_grammar()
        table = fit_transition_table([(V, "walking", O)], alpha=0.0, grammar=g)
        assert table.probability(O, V, "walking") == pytest.approx(1.0)

    def test_illegal_event_rejected(self):
        with pytest.raises(IllegalTransitionError):
            fit_transition_table([(V, "enter_vehicle", C)], alpha=1.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        g = default_grammar()
        legal = sorted(g.transitions, key=lambda t: (t[0].value, t[1], t[2].value))
        for trial in range(200):
            events = [legal[i] for i in rng.integers(0, len(legal), size=30)]
            table = fit_transition_table(events, alpha=float(rng.uniform(0, 2)), grammar=g)
            for row in table.rows.values():
                assert abs(sum(row.values()) - 1.0) < 1e-9

    def test_order_invariance(self):
        g = default_grammar()
        events = [(V, "walking", V)] * 3 + [(V, "walking", O)] * 2 + [(O, "walking", V)]
        t1 = fit_transition_table(events, 0.5, g)
        t2 = fit_transition_table(list(reversed(events)), 0.5, g)
        assert t1.rows == t2.rows


def straight_trajectory(states, actions=None, object_id=0, container_id=None, start=0):
    """A trajectory through ``states``; by default each step takes its
    lowest-id legal action (walking where none is legal) and the last point
    walks."""
    g = default_grammar()
    if actions is None:
        actions = [next(iter(g.legal_actions(s, t)), DEFAULT_ACTIONS[0]).name
                   for s, t in zip(states, states[1:])] + ["walking"]
    points = []
    for i, (s, a) in enumerate(zip(states, actions)):
        points.append(TrajectoryPoint(
            frame=start + i, location=np.array([float(i), 0.0]), state=s, action=a,
            container_id=container_id if s is VisibilityState.CONTAINED else None,
        ))
    return Trajectory(object_id=object_id, object_class=ObjectClass.PERSON,
                      points=tuple(points))


class TestExtractFrameParses:
    def test_constant_visible_labeled_walking(self):
        traj = straight_trajectory([V] * 5)
        parses = extract_frame_parses([traj])
        assert all(p.entries[0].action == "walking" for p in parses)

    def test_points_grouped_by_frame(self):
        late = straight_trajectory([V, V, V], object_id=4, start=2)
        early = straight_trajectory([V, O, C, C], object_id=1, container_id=7)
        parses = extract_frame_parses([late, early])
        assert [p.frame for p in parses] == [0, 1, 2, 3, 4]
        assert [[e.object_id for e in p.entries] for p in parses] == [
            [1], [1], [1, 4], [1, 4], [4]]
        entry = parses[2].entries[0]
        assert (entry.state, entry.container_id) == (C, 7)
        np.testing.assert_array_equal(entry.location, early.points[2].location)

    def test_states_never_altered(self):
        # states and solved actions pass through unchanged, including
        # actions that are not the lowest-id label for their step
        rng = np.random.default_rng(2)
        g = default_grammar()
        for _ in range(50):
            states = [V]
            actions = []
            for _ in range(10):
                options = [(a.name, s) for s in (V, O, C) for a in g.legal_actions(states[-1], s)]
                action, nxt = options[int(rng.integers(0, len(options)))]
                actions.append(action)
                states.append(nxt)
            traj = straight_trajectory(states, actions + ["walking"], container_id=0)
            parses = extract_frame_parses([traj], g)
            assert [p.entries[0].state for p in parses] == states
            assert [p.entries[0].action for p in parses] == actions + ["walking"]

    def test_illegal_transition_rejected(self):
        traj = straight_trajectory([V, C], container_id=1)
        with pytest.raises(IllegalTransitionError):
            extract_frame_parses([traj])

    def test_illegal_action_rejected(self):
        # V -> O is a legal state pair, but only by walking
        traj = straight_trajectory([V, O], ["enter_vehicle", "walking"])
        with pytest.raises(IllegalTransitionError):
            extract_frame_parses([traj])


class TestTableValidation:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError):
            ActionStateTable(rows={(V, "walking"): {V: 0.5, O: 0.4}})

    def test_unknown_row_raises(self):
        table = default_transition_table()
        with pytest.raises(IllegalTransitionError):
            table.probability(V, C, "open_trunk")
