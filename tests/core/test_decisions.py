"""Unit tests for the Phase-4 decision rule, as the reference
(``tests/core/reference_related_set.py``) states it; the policy runs it
inline and ``tests/properties/test_verdict_props.py`` holds the two equal."""

from __future__ import annotations

from repro.core.comparison import ComparisonResult
from repro.core.decisions import Action
from repro.core.scaling import AdaptedParameters
from repro.overlay.roles import Role
from tests.core.reference_related_set import decide


def params(z_promote=0.3, z_demote=0.7):
    return AdaptedParameters(
        mu=0.0, x_capa=1.0, x_age=1.0, z_promote=z_promote, z_demote=z_demote
    )


def y(y_capa, y_age):
    return ComparisonResult(y_capa=y_capa, y_age=y_age, g_size=10)


class TestLeafPromotion:
    def test_promotes_when_both_y_below_threshold(self):
        d = decide(Role.LEAF, y(0.1, 0.2), params())
        assert d.action is Action.PROMOTE

    def test_requires_both_metrics(self):
        """§4: capacity AND age must qualify (disjoint metrics)."""
        assert decide(Role.LEAF, y(0.1, 0.9), params()).action is Action.NONE
        assert decide(Role.LEAF, y(0.9, 0.1), params()).action is Action.NONE

    def test_equal_to_threshold_does_not_promote(self):
        assert decide(Role.LEAF, y(0.3, 0.3), params()).action is Action.NONE

    def test_leaf_never_demotes(self):
        assert decide(Role.LEAF, y(1.0, 1.0), params()).action is Action.NONE


class TestSuperDemotion:
    def test_demotes_when_both_y_above_threshold(self):
        d = decide(Role.SUPER, y(0.9, 0.8), params())
        assert d.action is Action.DEMOTE

    def test_requires_both_metrics(self):
        assert decide(Role.SUPER, y(0.9, 0.1), params()).action is Action.NONE
        assert decide(Role.SUPER, y(0.1, 0.9), params()).action is Action.NONE

    def test_equal_to_threshold_does_not_demote(self):
        assert decide(Role.SUPER, y(0.7, 0.7), params()).action is Action.NONE

    def test_super_never_promotes(self):
        assert decide(Role.SUPER, y(0.0, 0.0), params()).action is Action.NONE


class TestDecisionEvidence:
    def test_decision_carries_evidence(self):
        evidence = y(0.05, 0.1)
        p = params()
        d = decide(Role.LEAF, evidence, p)
        assert d.y is evidence and d.params is p

    def test_threshold_adaptation_changes_outcome(self):
        """The same Y flips from NONE to PROMOTE as Z_promote rises."""
        evidence = y(0.4, 0.4)
        assert decide(Role.LEAF, evidence, params(z_promote=0.3)).action is Action.NONE
        assert (
            decide(Role.LEAF, evidence, params(z_promote=0.5)).action
            is Action.PROMOTE
        )

    def test_demote_threshold_adaptation(self):
        evidence = y(0.75, 0.75)
        assert decide(Role.SUPER, evidence, params(z_demote=0.8)).action is Action.NONE
        assert (
            decide(Role.SUPER, evidence, params(z_demote=0.6)).action is Action.DEMOTE
        )
