"""Tests of objective-driven configuration (framework step 3)."""

import numpy as np
import pytest

from repro.framework import Configurator, Objective

from .conftest import MOCK_A, MOCK_ALPHA, MOCK_B, MOCK_BETA


def _configurator(mock_system, tiny_dataset) -> Configurator:
    c = Configurator(mock_system, tiny_dataset, n_points=10, n_replications=1)
    c.fit(use_active_region=False)
    return c


class TestObjective:
    def test_validation(self):
        with pytest.raises(ValueError):
            Objective("speed", "<=", 1.0)
        with pytest.raises(ValueError):
            Objective("privacy", "<", 1.0)

    def test_satisfied_by(self):
        le = Objective("privacy", "<=", 0.1)
        assert le.satisfied_by(0.05)
        assert not le.satisfied_by(0.2)
        assert le.satisfied_by(0.12, tol=0.05)
        ge = Objective("utility", ">=", 0.8)
        assert ge.satisfied_by(0.9)
        assert not ge.satisfied_by(0.7)

    def test_str(self):
        assert str(Objective("privacy", "<=", 0.1)) == "privacy <= 0.1"

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, target):
        # A NaN bound compares false both ways, so the objective would
        # silently vanish from the recommendation.
        with pytest.raises(ValueError, match="finite"):
            Objective("privacy", "<=", target)


class TestRecommend:
    def test_requires_fit(self, mock_system, tiny_dataset):
        c = Configurator(mock_system, tiny_dataset)
        with pytest.raises(RuntimeError):
            c.recommend([Objective("privacy", "<=", 0.5)])
        with pytest.raises(RuntimeError):
            _ = c.sweep

    def test_privacy_only_objective(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        target = MOCK_A + MOCK_B * np.log(200.0)  # satisfied for shift <= 200
        rec = c.recommend([Objective("privacy", "<=", target)])
        assert rec.feasible
        # Privacy grows with shift; utility falls with shift, so the
        # max_utility policy picks the low (small-shift) side of the
        # interval, backed off the edge by the safety margin.
        lo, hi = rec.interval
        assert lo <= rec.value <= np.sqrt(lo * hi) * 1.0001
        assert rec.predicted_privacy <= target + 1e-6

    def test_zero_safety_picks_exact_edge(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        target = MOCK_A + MOCK_B * np.log(200.0)
        rec = c.recommend([Objective("privacy", "<=", target)], safety=0.0)
        assert rec.value == pytest.approx(rec.interval[0], rel=1e-9)

    def test_safety_validation(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        with pytest.raises(ValueError):
            c.recommend([Objective("privacy", "<=", 0.5)], safety=0.6)
        with pytest.raises(ValueError):
            c.recommend([Objective("privacy", "<=", 0.5)], tolerance=-0.1)

    def test_tight_intervals_resolved_within_tolerance(
        self, mock_system, tiny_dataset
    ):
        c = _configurator(mock_system, tiny_dataset)
        # Objectives whose model bounds cross by a hair: privacy wants
        # shift <= x, utility wants shift >= x * 1.02.
        x = 300.0
        rec = c.recommend(
            [
                Objective("privacy", "<=", MOCK_A + MOCK_B * np.log(x)),
                Objective("utility", "<=", MOCK_ALPHA + MOCK_BETA * np.log(x * 1.02)),
            ],
            tolerance=0.05,
        )
        assert rec.feasible
        assert "tight" in rec.notes
        assert rec.value == pytest.approx(x * np.sqrt(1.02), rel=0.05)

    def test_joint_objectives_feasible(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        pr_target = MOCK_A + MOCK_B * np.log(1000.0)   # shift <= 1000
        ut_target = MOCK_ALPHA + MOCK_BETA * np.log(50.0)  # shift <= 50 for >=
        rec = c.recommend([
            Objective("privacy", "<=", pr_target),
            Objective("utility", ">=", ut_target),
        ])
        assert rec.feasible
        lo, hi = rec.interval
        assert lo <= rec.value <= hi
        assert hi <= 1000.0 * 1.05
        assert hi <= 50.0 * 1.05  # utility is the binding constraint

    def test_infeasible_detected(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        # Demand very low privacy (small shift) and very low utility
        # metric (huge shift) simultaneously: impossible.
        rec = c.recommend([
            Objective("privacy", "<=", MOCK_A + MOCK_B * np.log(5.0)),
            Objective("utility", "<=", MOCK_ALPHA + MOCK_BETA * np.log(5000.0)),
        ])
        assert not rec.feasible
        assert rec.value is None

    def test_policies_order(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        objectives = [Objective("privacy", "<=", MOCK_A + MOCK_B * np.log(500.0))]
        max_ut = c.recommend(objectives, policy="max_utility").value
        max_pr = c.recommend(objectives, policy="max_privacy").value
        mid = c.recommend(objectives, policy="midpoint").value
        # Utility falls with shift: max_utility => smallest shift;
        # max_privacy => the most protective extreme (largest shift here,
        # since the mock privacy metric grows with shift... the policy
        # simply picks the other end of the interval).
        assert max_ut < mid < max_pr

    def test_unknown_policy_rejected(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        with pytest.raises(ValueError):
            c.recommend([Objective("privacy", "<=", 0.5)], policy="vibes")

    def test_empty_objectives_rejected(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        with pytest.raises(ValueError):
            c.recommend([])


class TestVerify:
    def test_verification_matches_prediction(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        rec = c.recommend(
            [Objective("privacy", "<=", MOCK_A + MOCK_B * np.log(300.0))]
        )
        measured_pr, measured_ut = c.verify(rec)
        assert measured_pr == pytest.approx(rec.predicted_privacy, abs=0.02)
        assert measured_ut == pytest.approx(rec.predicted_utility, abs=0.02)

    def test_verify_infeasible_rejected(self, mock_system, tiny_dataset):
        c = _configurator(mock_system, tiny_dataset)
        rec = c.recommend([
            Objective("privacy", "<=", MOCK_A + MOCK_B * np.log(5.0)),
            Objective("utility", "<=", MOCK_ALPHA + MOCK_BETA * np.log(5000.0)),
        ])
        with pytest.raises(ValueError):
            c.verify(rec)
