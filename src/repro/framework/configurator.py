"""Objective-driven configuration — step 3 of the framework.

The configurator inverts the fitted :class:`SystemModel` at the
designer's objectives.  In the paper's worked example the objectives
are "at most 10 % of POIs retrieved" and "at least 80 % area-coverage
utility", and inverting the model yields ε ≈ 0.01.

Each objective defines a half-line of parameter values satisfying it
(the models are monotone); the feasible set is the intersection of
those half-lines with the model domain.  The recommended value inside
the feasible interval follows a selection policy — the paper's choice
corresponds to ``"max_utility"``: make privacy binding and spend the
rest of the budget on utility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..engine import EvaluationEngine
from ..mobility import Dataset
from .models import LogLinearMetricModel, SystemModel, fit_system_model
from .runner import ExperimentRunner, SweepResult
from .spec import SystemDefinition

__all__ = ["Objective", "Recommendation", "Configurator"]

_OPS = ("<=", ">=")
_KINDS = ("privacy", "utility")
_POLICIES = ("max_utility", "max_privacy", "midpoint")


@dataclass(frozen=True)
class Objective:
    """A designer constraint on one metric, e.g. privacy <= 0.1."""

    kind: str
    op: str
    target: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}")
        if not math.isfinite(self.target):
            raise ValueError(f"target must be a finite number, got {self.target!r}")

    def satisfied_by(self, value: float, tol: float = 0.0) -> bool:
        """Whether a measured metric value meets the objective."""
        if self.op == "<=":
            return value <= self.target + tol
        return value >= self.target - tol

    def __str__(self) -> str:
        return f"{self.kind} {self.op} {self.target:g}"


@dataclass(frozen=True)
class Recommendation:
    """The configurator's answer for one set of objectives."""

    param_name: str
    value: Optional[float]
    feasible: bool
    interval: Tuple[float, float]
    predicted_privacy: Optional[float]
    predicted_utility: Optional[float]
    notes: str = ""


def _objective_interval(
    objective: Objective, model: LogLinearMetricModel, domain: Tuple[float, float]
) -> Tuple[float, float]:
    """Parameter interval (within ``domain``) satisfying one objective.

    Uses the model's monotonicity: for positive slope the metric grows
    with the parameter, so ``metric <= t`` bounds the parameter above.
    An empty intersection collapses to an inverted interval the caller
    detects with ``lo > hi``.
    """
    lo, hi = domain
    if model.slope == 0:
        # Flat response: objective is either always or never satisfied.
        flat_value = model.intercept
        if objective.satisfied_by(flat_value):
            return (lo, hi)
        return (1.0, 0.0)
    boundary = model.invert(objective.target)
    grows = model.slope > 0
    wants_low_metric = objective.op == "<="
    if grows == wants_low_metric:
        # Satisfied at parameter values below the boundary.
        return (lo, min(hi, boundary))
    return (max(lo, boundary), hi)


class Configurator:
    """Fits the model once (offline) and answers configuration queries.

    Parameters
    ----------
    system:
        The system definition (LPPM factory, parameter ranges, metrics).
    dataset:
        The dataset the LPPM will protect.
    n_points, n_replications, base_seed:
        Sweep resolution used by :meth:`fit`.
    engine:
        Optional shared :class:`EvaluationEngine`; lets the offline
        sweep run on a parallel backend and persist to a disk cache,
        and lets several configurators pool their evaluations.
    """

    def __init__(
        self,
        system: SystemDefinition,
        dataset: Dataset,
        n_points: int = 15,
        n_replications: int = 3,
        base_seed: int = 0,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.system = system
        self.dataset = dataset
        self.n_points = n_points
        self.runner = ExperimentRunner(
            system, dataset, n_replications=n_replications,
            base_seed=base_seed, engine=engine,
        )
        self._sweep: Optional[SweepResult] = None
        self._model: Optional[SystemModel] = None

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def fit(
        self,
        param_name: Optional[str] = None,
        use_active_region: bool = True,
        rel_tol: float = 0.05,
    ) -> SystemModel:
        """Run the sweep and fit the invertible model (step 2)."""
        self._sweep = self.runner.sweep(param_name, n_points=self.n_points)
        self._model = fit_system_model(
            self._sweep, use_active_region=use_active_region, rel_tol=rel_tol
        )
        return self._model

    @property
    def sweep(self) -> SweepResult:
        """The sweep behind the fitted model."""
        if self._sweep is None:
            raise RuntimeError("call fit() before using the configurator")
        return self._sweep

    @property
    def model(self) -> SystemModel:
        """The fitted invertible model."""
        if self._model is None:
            raise RuntimeError("call fit() before using the configurator")
        return self._model

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def recommend(
        self,
        objectives: Sequence[Objective],
        policy: str = "max_utility",
        safety: float = 0.25,
        tolerance: float = 0.05,
    ) -> Recommendation:
        """Invert the model at the objectives (step 3).

        The feasible interval intersects every objective's half-line
        with the model domain.  ``policy`` picks the value inside it:

        * ``"max_utility"`` — the feasible edge with the best utility
          (the paper's choice for GEO-I: make privacy binding and spend
          the rest of the budget on utility);
        * ``"max_privacy"`` — the opposite edge;
        * ``"midpoint"`` — geometric midpoint.

        Policies are expressed on the *utility* model's slope sign, so
        they keep their meaning for mechanisms whose utility decreases
        with the parameter.

        ``safety`` backs an edge recommendation off its boundary by that
        fraction of the interval's log-width: a value sitting exactly on
        the model's objective boundary fails verification half the time
        on sharp response curves, so deployments should keep margin.
        ``tolerance`` accepts *near*-feasible intervals — when the model
        says the bounds cross by no more than this relative gap, the
        crossing point is recommended (flagged in the notes) instead of
        rejecting outright; the model error at sharp transitions easily
        exceeds such hairline gaps.
        """
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if not objectives:
            raise ValueError("need at least one objective")
        if not 0.0 <= safety < 0.5:
            raise ValueError("safety must be in [0, 0.5)")
        if tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        model = self.model
        lo, hi = model.domain()
        for objective in objectives:
            metric_model = (
                model.privacy if objective.kind == "privacy" else model.utility
            )
            o_lo, o_hi = _objective_interval(objective, metric_model, (lo, hi))
            lo, hi = max(lo, o_lo), min(hi, o_hi)
        notes = f"policy={policy}"
        if lo > hi:
            if hi > 0 and lo <= hi * (1.0 + tolerance):
                # Hairline miss: the bounds cross by less than the
                # model's own credibility; recommend the crossing point.
                value = float(np.sqrt(lo * hi))
                pr, ut = model.predict(value)
                return Recommendation(
                    param_name=model.param_name,
                    value=value,
                    feasible=True,
                    interval=(value, value),
                    predicted_privacy=pr,
                    predicted_utility=ut,
                    notes=notes + "; tight (bounds crossed within tolerance)",
                )
            return Recommendation(
                param_name=model.param_name,
                value=None,
                feasible=False,
                interval=(lo, hi),
                predicted_privacy=None,
                predicted_utility=None,
                notes="objectives are jointly infeasible on this dataset",
            )
        utility_grows = model.utility.slope >= 0
        if lo > 0:
            # Positive ranges (all log-swept parameters) back off in
            # log space, matching the geometry of the sweep.
            log_lo, log_hi = np.log(lo), np.log(hi)
            margin = safety * (log_hi - log_lo)
            edges = (
                float(np.exp(log_lo + margin)),
                float(np.exp((log_lo + log_hi) / 2.0)),
                float(np.exp(log_hi - margin)),
            )
        else:
            margin = safety * (hi - lo)
            edges = (lo + margin, (lo + hi) / 2.0, hi - margin)
        if policy == "midpoint":
            value = edges[1]
        elif (policy == "max_utility") == utility_grows:
            value = edges[2]
        else:
            value = edges[0]
        pr, ut = model.predict(value)
        return Recommendation(
            param_name=model.param_name,
            value=value,
            feasible=True,
            interval=(float(lo), float(hi)),
            predicted_privacy=pr,
            predicted_utility=ut,
            notes=notes,
        )

    def verify(
        self, recommendation: Recommendation, n_replications: int = 3
    ) -> Tuple[float, float]:
        """Re-measure the metrics at the recommended value.

        Closes the loop: the paper's claim is that the model-predicted
        configuration meets the objectives when actually applied.
        """
        if not recommendation.feasible or recommendation.value is None:
            raise ValueError("cannot verify an infeasible recommendation")
        point = self.runner.evaluate(
            {recommendation.param_name: recommendation.value},
            n_replications=n_replications,
        )
        return (point.privacy_mean, point.utility_mean)
