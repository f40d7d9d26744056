#!/usr/bin/env python3
"""A production deployment workflow, end to end.

The offline and online phases of the framework naturally live in
different processes (a batch job fits the model; a service answers
configuration queries).  This example walks the full production path:

1. offline: sweep the dataset on the evaluation engine (parallel
   backend + persistent result cache), fit equation (2), persist both
   to JSON;
2. online: load the model (no sweep), answer a designer query;
3. refinement: spend a handful of real evaluations to confirm the
   recommendation against measurements (guards against model error at
   sharp transitions) — answered from the shared cache when possible;
4. deployment: protect the dataset at the final epsilon and write the
   release CSV.

Run:  python examples/production_workflow.py
"""

import tempfile
from pathlib import Path

from repro import (
    Configurator,
    EvaluationEngine,
    GeoIndistinguishability,
    Objective,
    TaxiFleetConfig,
    generate_taxi_fleet,
    geo_ind_system,
    load_model,
    refine_recommendation,
    save_model,
    save_sweep,
    write_csv,
)
from repro.report import model_summary, recommendation_summary

OBJECTIVES = [
    Objective("privacy", "<=", 0.10),
    Objective("utility", ">=", 0.80),
]


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-workflow-"))
    dataset = generate_taxi_fleet(TaxiFleetConfig(n_cabs=10, shift_hours=8.0))
    system = geo_ind_system()
    # One engine for the whole deployment: "auto" fans the offline
    # sweep over a process pool, and the disk cache makes every result
    # durable — a re-run of this job performs zero new evaluations.
    engine = EvaluationEngine(engine="auto", cache_dir=workdir / "cache")

    # ---- 1. offline batch job ----------------------------------------
    configurator = Configurator(
        system, dataset, n_points=14, n_replications=2, engine=engine
    )
    model = configurator.fit()
    save_sweep(configurator.sweep, workdir / "sweep.json")
    save_model(model, workdir / "model.json")
    offline_cost = configurator.runner.n_evaluations
    print(f"[offline] swept {offline_cost} evaluations, artefacts in {workdir}")
    print(model_summary(model))
    print()

    # ---- 2. online query service --------------------------------------
    # Fresh instance, no sweep; sharing the engine means any check
    # evaluations it does run are pooled with the offline phase's.
    service = Configurator(system, dataset, engine=engine)
    service._model = load_model(workdir / "model.json")
    recommendation = service.recommend(OBJECTIVES)
    print("[online] " + recommendation_summary(recommendation))

    # ---- 3. measurement-backed refinement -----------------------------
    result = refine_recommendation(
        service.runner, recommendation, OBJECTIVES, max_evaluations=5
    )
    print(f"[refine] eps = {result.value:.4g} after {result.n_evaluations} "
          f"check evaluations; measured privacy {result.privacy:.3f}, "
          f"utility {result.utility:.3f} "
          f"({'objectives met' if result.satisfied else 'NOT met'})")

    # ---- 4. deployment -------------------------------------------------
    lppm = GeoIndistinguishability(result.value)
    release = lppm.protect(dataset, seed=2024)
    out = workdir / "release.csv"
    write_csv(release, out)
    print(f"[deploy] protected release written to {out} "
          f"({release.n_records} records)")
    print(f"[engine] {engine.counters.read()}")


if __name__ == "__main__":
    main()
