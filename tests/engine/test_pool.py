"""The persistent process pool: worker caches, crash replay, cancellation.

``ProcessPoolBackend`` keeps one pool for its whole life and ships each
batch's (system, dataset) pair with its tasks.  These tests pin what
that design has to keep true:

* a pool worker's metrics read the worker's own default analysis
  cache, which holds one dataset's artifacts at a time;
* a worker crash mid-batch replays only the unfinished jobs on one
  rebuilt pool, and a second crash finishes the batch serially — both
  bit-identical to a fault-free run, each job settled exactly once;
* cancellation mid-batch raises within one job (or one poll interval
  while waiting), keeps finished results cached, and a resubmission
  runs only the rest.
"""

import os
import threading
import time

import pytest

from repro import (
    EvaluationEngine,
    TaxiFleetConfig,
    generate_taxi_fleet,
    geo_ind_system,
)
from repro.engine import EvalJob, EvaluationCancelled, ProcessPoolBackend
from repro.resilience import (
    default_injector,
    events_by_kind,
    recent_events,
    reset_events,
)
from tests.service.test_jobs import slow_system_factory


@pytest.fixture(autouse=True)
def _disarmed_faults():
    default_injector().clear()
    reset_events()
    yield
    default_injector().clear()
    reset_events()


@pytest.fixture(scope="module")
def fleet():
    return generate_taxi_fleet(
        TaxiFleetConfig(n_cabs=3, shift_hours=1.0, seed=5)
    )


def _jobs(n):
    return [
        EvalJob.make({"epsilon": 0.002 * (i + 1)}, seed=i % 2)
        for i in range(n)
    ]


def _values(results):
    return [(r.privacy, r.utility) for r in results]


def _probe_worker_cache():
    """Runs inside a pool worker: which analysis cache do metrics read,
    and which datasets does the worker's default cache hold?"""
    from repro.analysis import current_cache, default_cache

    time.sleep(0.2)  # keep this worker busy so its sibling takes a probe
    cache = default_cache()
    keys = [key[0] for key in list(cache._entries)]
    return {
        "pid": os.getpid(),
        "ambient_is_default": current_cache() is cache,
        "entries": len(keys),
        "datasets": {k.split(":")[1] for k in keys if k.startswith("d:")},
    }


def _probe(engine):
    pool = engine._process._pool
    futures = [pool.submit(_probe_worker_cache)
               for _ in range(engine.max_workers)]
    return [future.result(timeout=30) for future in futures]


class TestWorkerAnalysisCache:
    def test_workers_read_their_own_default_cache(self, fleet):
        # The pool forks inside the engine's use_cache(); a worker that
        # kept the inherited ambient cache would read a stale copy of
        # the parent's LRU and leave its seeded default cache empty.
        with EvaluationEngine(engine="process", jobs=2) as engine:
            engine.run(geo_ind_system(), fleet, _jobs(4))
            probes = _probe(engine)
            fp = engine.fingerprint_of(fleet)
        assert all(p["ambient_is_default"] for p in probes), probes
        assert any(p["entries"] > 0 for p in probes), probes
        assert all(p["datasets"] <= {fp} for p in probes), probes

    def test_worker_cache_holds_one_dataset_after_many(self):
        fleets = [
            generate_taxi_fleet(
                TaxiFleetConfig(n_cabs=2, shift_hours=0.5, seed=seed)
            )
            for seed in range(20, 26)
        ]
        with EvaluationEngine(engine="process", jobs=2) as engine:
            for dataset in fleets:
                engine.run(geo_ind_system(), dataset, _jobs(4))
            probes = _probe(engine)
            fps = [engine.fingerprint_of(d) for d in fleets]
            assert engine._process.pools_built == 1
        held = set().union(*(p["datasets"] for p in probes))
        assert all(len(p["datasets"]) <= 1 for p in probes), probes
        assert fps[-1] in held
        assert held <= set(fps[-2:])


class _DieOnce:
    """Privacy metric that kills the pool worker evaluating it once
    ``after`` evaluations have finished, the first time only."""

    def __init__(self, inner, workdir, after: int) -> None:
        self._inner = inner
        self.kind = inner.kind
        self._workdir = workdir
        self._after = after
        self._parent = os.getpid()

    def evaluate(self, dataset, protected):
        done = self._workdir / "done"
        if os.getpid() != self._parent and \
                len(list(done.iterdir())) >= self._after:
            try:
                os.close(os.open(self._workdir / "died",
                                 os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        value = self._inner.evaluate(dataset, protected)
        (done / f"{os.getpid()}-{time.monotonic_ns()}").touch()
        return value


class TestCrashReplay:
    def test_worker_death_mid_batch_replays_only_unfinished_jobs(
        self, fleet, tmp_path
    ):
        from dataclasses import replace

        (tmp_path / "done").mkdir()
        plain = geo_ind_system()
        dying = replace(
            plain, privacy_metric=_DieOnce(plain.privacy_metric, tmp_path, 2)
        )
        jobs = _jobs(8)
        settled = []
        backend = ProcessPoolBackend(max_workers=2)
        try:
            values = backend.run(
                dying, fleet, jobs,
                on_result=lambda i, value: settled.append(i),
            )
        finally:
            backend.close()
        assert (tmp_path / "died").exists()
        assert sorted(settled) == list(range(len(jobs)))
        assert (backend.pool_rebuilds, backend.serial_fallbacks) == (1, 0)
        [event] = [e for e in recent_events() if e["kind"] == "pool.rebuilt"]
        assert 0 < event["jobs"] < len(jobs)  # finished jobs not replayed
        assert values == _values(EvaluationEngine().run(plain, fleet, jobs))

    def test_crash_fault_is_bit_identical_and_exactly_once(self, fleet):
        system = geo_ind_system()
        reference = EvaluationEngine().run(system, fleet, _jobs(8))
        default_injector().configure("pool.crash:1")
        with EvaluationEngine(engine="process", jobs=2) as engine:
            crashed = engine.run(system, fleet, _jobs(8))
            backend = engine._process
            assert (backend.pool_rebuilds, backend.serial_fallbacks) == (1, 0)
            assert backend.pools_built == 2
            assert engine.n_executions == 8
            # The rebuilt pool serves the next batch too.
            engine.run(system, fleet, _jobs(10))
            assert backend.pools_built == 2
        assert _values(crashed) == _values(reference)
        assert events_by_kind().get("pool.rebuilt") == 1

    def test_second_crash_falls_back_to_serial(self, fleet):
        system = geo_ind_system()
        reference = EvaluationEngine().run(system, fleet, _jobs(8))
        default_injector().configure("pool.crash:2")
        with EvaluationEngine(engine="process", jobs=2) as engine:
            degraded = engine.run(system, fleet, _jobs(8))
            backend = engine._process
            assert (backend.pool_rebuilds, backend.serial_fallbacks) == (1, 1)
            assert engine.n_executions == 8
        assert _values(degraded) == _values(reference)
        assert events_by_kind().get("pool.serial-fallback") == 1


class TestCancellation:
    def test_cancel_mid_batch_keeps_finished_results(self, fleet):
        # 50 ms jobs: completions cannot pile up between two polls.
        system = slow_system_factory(0.05)()
        done = []
        with EvaluationEngine(engine="process", jobs=2) as engine:
            with engine.hooks(
                jobs_done=done.append, should_cancel=lambda: bool(done)
            ):
                with pytest.raises(EvaluationCancelled):
                    engine.run(system, fleet, _jobs(8))
            partial = engine.n_executions
            # Raised at the first completion: at most one result per
            # worker landed before the predicate was polled.
            assert 1 <= partial <= engine.max_workers
            assert sum(done) == partial
            with engine.measure() as cost:
                resumed = engine.run(system, fleet, _jobs(8))
            assert cost.count == 8 - partial
        assert _values(resumed) == _values(
            EvaluationEngine().run(system, fleet, _jobs(8))
        )

    def test_cancel_while_waiting_raises_before_a_job_finishes(self, fleet):
        system = slow_system_factory(1.0)()
        cancel = threading.Event()
        threading.Timer(0.3, cancel.set).start()
        with EvaluationEngine(engine="process", jobs=2) as engine:
            start = time.monotonic()
            with engine.hooks(should_cancel=cancel.is_set):
                with pytest.raises(EvaluationCancelled):
                    engine.run(system, fleet, _jobs(4))
            elapsed = time.monotonic() - start
            assert engine.n_executions == 0
        assert elapsed < 0.9, f"cancel took {elapsed:.2f}s"
