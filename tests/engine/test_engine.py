"""Engine parity and caching guarantees.

The two load-bearing promises of the engine subsystem:

* **backend parity** — the process pool produces *bit-identical*
  results to the serial backend (same RNG derivation, same code path);
* **durable caching** — a warm disk cache answers a repeated sweep
  with zero new (protect + measure) executions.

These run against the real GEO-I system on a small synthetic fleet, so
randomised protection and both paper metrics are genuinely exercised.
"""

import pytest

from repro import (
    EvaluationEngine,
    ExperimentRunner,
    TaxiFleetConfig,
    generate_taxi_fleet,
    geo_ind_system,
)
from repro.engine import EvalJob, ProcessPoolBackend, SerialBackend


@pytest.fixture(scope="module")
def fleet():
    return generate_taxi_fleet(TaxiFleetConfig(n_cabs=4, shift_hours=1.0, seed=7))


def _sweep(engine, fleet, n_points=4, n_replications=2):
    runner = ExperimentRunner(
        geo_ind_system(), fleet, n_replications=n_replications, engine=engine
    )
    return runner.sweep(n_points=n_points), runner


def _assert_bit_identical(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a.points, b.points):
        assert pa.params == pb.params
        assert pa.privacy_mean == pb.privacy_mean      # exact, not approx
        assert pa.privacy_std == pb.privacy_std
        assert pa.utility_mean == pb.utility_mean
        assert pa.utility_std == pb.utility_std


class TestBackendParity:
    def test_process_sweep_bit_identical_to_serial(self, fleet):
        serial_sweep, _ = _sweep(EvaluationEngine(engine="serial"), fleet)
        process_sweep, _ = _sweep(
            EvaluationEngine(engine="process", jobs=2), fleet
        )
        _assert_bit_identical(serial_sweep, process_sweep)

    def test_trace_level_parallelism_bit_identical(self, fleet):
        # A single job cannot be split at the job level; the pool backend
        # runs it whole in one worker, and the result matches serial.
        system = geo_ind_system()
        job = EvalJob.make({"epsilon": 0.01}, seed=3)
        serial = SerialBackend().run(system, fleet, [job])
        backend = ProcessPoolBackend(max_workers=2)
        try:
            parallel = backend.run(system, fleet, [job])
        finally:
            backend.close()
        assert serial == parallel

    def test_lone_job_is_a_one_task_batch(self, fleet):
        system = geo_ind_system()
        job = EvalJob.make({"epsilon": 0.01}, seed=3)
        serial = SerialBackend().run(system, fleet, [job])
        backend = ProcessPoolBackend(max_workers=2)
        try:
            assert backend.run(system, fleet, [job]) == serial
            assert backend.pools_built == 1
        finally:
            backend.close()

    def test_legacy_protect_override_still_works_serially(self, fleet):
        # Mechanisms overriding protect() with the (dataset, seed)
        # signature keep working: the engine passes nothing else.
        from dataclasses import replace

        from repro import GeoIndistinguishability

        class LegacyGeoInd(GeoIndistinguishability):
            def protect(self, dataset, seed=0):
                return super().protect(dataset, seed=seed)

        system = replace(geo_ind_system(), lppm_factory=LegacyGeoInd)
        [result] = SerialBackend().run(
            system, fleet, [EvalJob.make({"epsilon": 0.01}, seed=0)]
        )
        reference = SerialBackend().run(
            geo_ind_system(), fleet, [EvalJob.make({"epsilon": 0.01}, seed=0)]
        )
        assert [result] == reference

    def test_mapper_hook_preserves_protection(self, fleet):
        # Each trace's generator depends only on (seed, user id), so
        # protecting users one at a time — as any backend may place
        # them — reproduces the whole-dataset protection exactly.
        from repro.mobility import Dataset

        lppm = geo_ind_system().make_lppm(epsilon=0.01)
        plain = lppm.protect(fleet, seed=5)
        for trace in reversed(fleet.traces):
            [mapped] = lppm.protect(Dataset.from_traces([trace]), seed=5).traces
            assert (plain[trace.user].lats == mapped.lats).all()
            assert (plain[trace.user].lons == mapped.lons).all()


class TestCaching:
    def test_warm_disk_cache_runs_zero_evaluations(self, fleet, tmp_path):
        cold = EvaluationEngine(cache_dir=tmp_path)
        _, cold_runner = _sweep(cold, fleet)
        assert cold_runner.n_evaluations == 4 * 2
        assert cold.n_executions == 8

        # A brand-new engine (fresh process, in spirit) with the same
        # cache dir must answer the same sweep entirely from disk.
        warm = EvaluationEngine(cache_dir=tmp_path)
        warm_sweep, warm_runner = _sweep(warm, fleet)
        assert warm_runner.n_evaluations == 0
        assert warm.n_executions == 0
        assert warm.counters["disk_hits"] == 8

        cold_sweep, _ = _sweep(EvaluationEngine(), fleet)
        _assert_bit_identical(cold_sweep, warm_sweep)

    def test_memory_cache_shared_across_runners(self, fleet):
        engine = EvaluationEngine()
        _, first = _sweep(engine, fleet)
        _, second = _sweep(engine, fleet)
        assert first.n_evaluations == 8
        assert second.n_evaluations == 0

    def test_duplicate_jobs_in_batch_execute_once(self, fleet):
        engine = EvaluationEngine()
        jobs = [EvalJob.make({"epsilon": 0.01}, seed=0)] * 3
        results = engine.run(geo_ind_system(), fleet, jobs)
        assert engine.n_executions == 1
        assert [r.cached for r in results] == [False, True, True]
        assert len({(r.privacy, r.utility) for r in results}) == 1
        # Accounting reconciles: the three requests were one distinct
        # piece of work, counted as one miss and one execution.
        assert engine.counters["misses"] == 1

    def test_cache_does_not_leak_across_mechanisms(self, fleet):
        # Same system name and metrics, different LPPM factory: the
        # signature must keep their fingerprints apart.
        from dataclasses import replace

        from repro import ElasticGeoIndistinguishability

        geo = geo_ind_system()
        elastic = replace(geo, lppm_factory=ElasticGeoIndistinguishability)
        engine = EvaluationEngine()
        job = [EvalJob.make({"epsilon": 0.01}, seed=0)]
        [a] = engine.run(geo, fleet, job)
        [b] = engine.run(elastic, fleet, job)
        assert not b.cached
        assert a.fingerprint != b.fingerprint
        assert (a.privacy, a.utility) != (b.privacy, b.utility)

    def test_cache_does_not_leak_across_datasets(self, fleet):
        other = generate_taxi_fleet(
            TaxiFleetConfig(n_cabs=4, shift_hours=1.0, seed=8)
        )
        engine = EvaluationEngine()
        job = [EvalJob.make({"epsilon": 0.01}, seed=0)]
        [a] = engine.run(geo_ind_system(), fleet, job)
        [b] = engine.run(geo_ind_system(), other, job)
        assert not b.cached
        assert a.fingerprint != b.fingerprint


class TestEngineLifecycle:
    def test_fingerprint_memo_does_not_pin_datasets(self):
        import weakref

        engine = EvaluationEngine()
        dataset = generate_taxi_fleet(
            TaxiFleetConfig(n_cabs=2, shift_hours=0.5, seed=1)
        )
        engine.fingerprint_of(dataset)
        ref = weakref.ref(dataset)
        del dataset
        assert ref() is None  # the engine held no strong reference

    def test_process_pool_persists_across_batches(self, fleet):
        # One pool for the backend's life: batches over datasets A, B,
        # A run on the same pool and the same worker processes, and
        # every result matches the serial reference bit for bit.
        other = generate_taxi_fleet(
            TaxiFleetConfig(n_cabs=3, shift_hours=1.0, seed=8)
        )
        system = geo_ind_system()
        jobs = [
            EvalJob.make({"epsilon": eps}, seed=s)
            for eps in (0.005, 0.02) for s in (0, 1)
        ]
        backend = ProcessPoolBackend(max_workers=2)
        try:
            seen = []
            for dataset in (fleet, other, fleet):
                parallel = backend.run(system, dataset, jobs)
                assert parallel == SerialBackend().run(system, dataset, jobs)
                seen.append((backend._pool, set(backend._pool._processes)))
            (pool, pids), *rest = seen
            assert len(pids) == 2
            assert all(p is pool and q == pids for p, q in rest)
            # An equal-but-not-identical system ships as new work to
            # the same pool.
            backend.run(geo_ind_system(), other, jobs)
            assert backend._pool is pool
            assert backend.pools_built == 1
        finally:
            backend.close()
        assert backend._pool is None

    def test_engine_context_manager_closes(self, fleet):
        with EvaluationEngine(engine="process", jobs=2) as engine:
            runner = ExperimentRunner(
                geo_ind_system(), fleet, n_replications=2, engine=engine
            )
            runner.sweep(n_points=3)
        assert engine._process is None or engine._process._pool is None


class TestEngineValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            EvaluationEngine(engine="gpu")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            EvaluationEngine(jobs=0)

    def test_auto_policy_falls_back_to_serial_for_one_job(self, fleet):
        engine = EvaluationEngine(engine="auto", jobs=4)
        assert engine._backend_for(1).name == "serial"
        assert engine._backend_for(2).name == "process"


class TestRunnerReplicationValidation:
    def test_explicit_zero_replications_rejected(self, fleet):
        runner = ExperimentRunner(geo_ind_system(), fleet, n_replications=2)
        with pytest.raises(ValueError):
            runner.evaluate({"epsilon": 0.01}, n_replications=0)

    def test_explicit_one_replication_honoured(self, fleet):
        runner = ExperimentRunner(geo_ind_system(), fleet, n_replications=3)
        point = runner.evaluate({"epsilon": 0.01}, n_replications=1)
        assert point.n_replications == 1
        assert runner.n_evaluations == 1
