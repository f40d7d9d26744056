"""Sweep memos: ε-independent work computed once, releases unchanged.

A sweep protects one dataset at many ε with a few replication seeds.
Geo-I's unit noise (draws, Lambert W, angle trig, projection) depends
on the block and the seed only, and the area-coverage utility's actual
side on the actual trace and the grid only; both are memoised per
object instance.  The promise is bit-identity with a cold run and with
the per-trace seed reference, whatever order the jobs come in and
whichever process runs them, and memos that stay bounded and die with
their subject.
"""

import gc
import hashlib
import multiprocessing
import pickle
import sys
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import TaxiFleetConfig, generate_taxi_fleet, geo_ind_system
from repro.engine import EvalJob, EvaluationEngine
from repro.engine.backends import SerialBackend, execute_job
from repro.geo import (
    LatLon,
    SpatialGrid,
    cell_f1,
    f1_from_counts,
    shared_rows,
)
from repro.lppm import ElasticGeoIndistinguishability, GeoIndistinguishability
from repro.lppm.geo_ind import _SEEDS_PER_BLOCK, _UNIT_NOISE
from repro.metrics import AreaCoverageUtility
from repro.metrics.utility import _ACTUAL_CELLS, _GRIDS_PER_TRACE
from repro.mobility import Dataset, Trace

from .reference import (
    _reference_area_coverage,
    _reference_protect,
    make_block_dataset,
    reference_sweep,
)

EPSILONS = [float(e) for e in np.geomspace(1e-3, 0.5, 8)]
SEEDS = [0, 1, 2]
ORDERS = {
    "eps_major": [(e, s) for e in EPSILONS for s in SEEDS],
    "seed_major": [(e, s) for s in SEEDS for e in EPSILONS],
}
MECHANISMS = {
    "geo_ind": GeoIndistinguishability,
    "elastic_geo_ind": lambda eps: ElasticGeoIndistinguishability(
        eps, cell_size_m=250.0
    ),
}


def _dataset() -> Dataset:
    """Two cabs plus short many-user traces and an empty trace."""
    fleet = generate_taxi_fleet(
        TaxiFleetConfig(n_cabs=2, shift_hours=1.0, seed=17)
    )
    extra = make_block_dataset(4, 30, seed=3).traces
    empty = Trace("zz-empty", [], [], [])
    return Dataset.from_traces([*fleet.traces, *extra, empty])


def _fresh_copy(dataset: Dataset) -> Dataset:
    """Same records, new trace and block objects: every memo cold."""
    return Dataset.from_traces([
        Trace(t.user, t.times_s, t.lats, t.lons) for t in dataset.traces
    ])


def _seed_keys(block) -> list:
    """The seeds whose unit noise ``block`` holds, least recent first."""
    return [key for key in _UNIT_NOISE.keys(block) if key != "xy"]


def _digest(dataset: Dataset) -> str:
    digest = hashlib.sha256()
    for trace in dataset.traces:
        digest.update(trace.user.encode())
        for arr in (trace.times_s, trace.lats, trace.lons):
            digest.update(arr.tobytes())
    return digest.hexdigest()


def _memo_digests(mech_name: str, order: str, dataset: Dataset) -> list:
    """Protect ``dataset`` over the grid in ``order``, memo warming."""
    make = MECHANISMS[mech_name]
    return [
        _digest(make(eps).protect(dataset, seed=seed))
        for eps, seed in ORDERS[order]
    ]


def _pool_digests(args) -> list:
    mech_name, order, payload = args
    return _memo_digests(mech_name, order, pickle.loads(payload))


@pytest.fixture(scope="module")
def dataset() -> Dataset:
    return _dataset()


@pytest.fixture(scope="module")
def expected(dataset):
    """Per mechanism, job -> digest from the per-trace seed reference."""
    return {
        name: {
            (eps, seed): _digest(_reference_protect(make(eps), dataset, seed))
            for eps in EPSILONS
            for seed in SEEDS
        }
        for name, make in MECHANISMS.items()
    }


class TestProtectParity:
    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("mech_name", sorted(MECHANISMS))
    def test_memoised_equals_cold_and_reference(
        self, dataset, expected, mech_name, order
    ):
        ds = _fresh_copy(dataset)
        memoised = _memo_digests(mech_name, order, ds)
        make = MECHANISMS[mech_name]
        cold = [
            _digest(make(eps).protect(_fresh_copy(dataset), seed=seed))
            for eps, seed in ORDERS[order]
        ]
        want = [expected[mech_name][job] for job in ORDERS[order]]
        assert memoised == cold == want
        # Three seeds fit the bound: each was drawn once for all eight ε.
        assert sorted(_seed_keys(ds.columns())) == SEEDS

    def test_sweep_equals_per_job_reference(self, dataset):
        # The benchmark's baseline: protect + area coverage, each job
        # from scratch.
        ds = _fresh_copy(dataset)
        metric = AreaCoverageUtility(cell_size_m=600.0)
        jobs = ORDERS["eps_major"]
        memoised = []
        for eps, seed in jobs:
            protected = GeoIndistinguishability(eps).protect(ds, seed=seed)
            memoised.append(
                (_digest(protected), metric.evaluate(ds, protected))
            )
        reference = [
            (_digest(protected), utility)
            for protected, utility in reference_sweep(dataset, jobs, 600.0)
        ]
        assert memoised == reference

    def test_process_pool_equals_reference(self, dataset, expected):
        payload = pickle.dumps(dataset)
        tasks = [
            (name, order, payload)
            for name in sorted(MECHANISMS)
            for order in sorted(ORDERS)
        ]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            results = list(pool.map(_pool_digests, tasks, timeout=300))
        for (name, order, _), digests in zip(tasks, results):
            assert digests == [expected[name][job] for job in ORDERS[order]]

    def test_threads_sharing_one_block(self, dataset, expected):
        # More threads than cores race on one block's memo, each over
        # the whole grid in its own order; every release must still be
        # the reference and the bound must hold throughout.
        ds = _fresh_copy(dataset)
        block = ds.columns()
        jobs = ORDERS["eps_major"]
        failures = []

        def worker(offset: int) -> None:
            try:
                for eps, seed in jobs[offset:] + jobs[:offset]:
                    got = _digest(GeoIndistinguishability(eps).protect(
                        ds, seed=seed))
                    if got != expected["geo_ind"][(eps, seed)]:
                        failures.append((eps, seed))
                    if len(_seed_keys(block)) > _SEEDS_PER_BLOCK:
                        failures.append("bound")
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(7 * i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_memoised_arrays_are_read_only(self, dataset):
        ds = _fresh_copy(dataset)
        GeoIndistinguishability(0.01).protect(ds, seed=5)
        block = ds.columns()
        from repro.lppm.geo_ind import _unit_noise

        for arr in _unit_noise(block, 5):
            assert not arr.flags.writeable


class TestEngineSweep:
    def _jobs(self):
        return [
            EvalJob.make({"epsilon": eps}, seed)
            for eps, seed in ORDERS["eps_major"]
        ]

    def test_misses_go_to_the_backend_seed_major(self, dataset):
        seen = []

        class Recording(SerialBackend):
            def run(self, system, dataset, jobs, **kwargs):
                seen.extend(job.seed for job in jobs)
                return super().run(system, dataset, jobs, **kwargs)

        engine = EvaluationEngine(engine="serial")
        engine._serial = Recording()
        jobs = self._jobs()
        results = engine.run(geo_ind_system(), dataset, jobs)
        assert seen == sorted(seen) and len(seen) == len(jobs)
        # Results still come back in job order.
        assert [r.job for r in results] == jobs

    @pytest.mark.parametrize("engine_name", ["serial", "process"])
    def test_results_equal_cold_per_job_execution(self, dataset, engine_name):
        system = geo_ind_system()
        jobs = self._jobs()
        cold = [
            execute_job(system, _fresh_copy(dataset), job) for job in jobs
        ]
        with EvaluationEngine(engine=engine_name, jobs=2) as engine:
            results = engine.run(system, _fresh_copy(dataset), jobs)
        assert [(r.privacy, r.utility) for r in results] == cold


# ----------------------------------------------------------------------
# Row-based area coverage
# ----------------------------------------------------------------------
def _random_points(rng, n, lat0, lon0, spread_deg):
    lats = np.clip(lat0 + rng.normal(0.0, spread_deg, n), -89.9, 89.9)
    lons = np.clip(lon0 + rng.normal(0.0, spread_deg, n), -179.9, 179.9)
    return lats, lons


class TestCellRows:
    @pytest.mark.parametrize("case", range(40))
    def test_counts_equal_cell_f1_on_random_sets(self, case):
        rng = np.random.default_rng(case)
        cell_size_m = float(rng.choice([1e-3, 0.5, 50.0, 600.0, 5e4]))
        spread = float(rng.choice([1e-4, 1e-2, 1.0, 60.0]))
        grid = SpatialGrid.around(LatLon(37.76, -122.42), cell_size_m)
        n_a, n_b = (int(n) for n in rng.integers(0, 300, size=2))
        if case % 10 == 0:
            n_a = 0
        if case % 10 == 1:
            n_b = 0
        a = _random_points(rng, n_a, 37.76, -122.42, spread)
        # Protected-like: a jittered copy of part of the actual side.
        b = _random_points(rng, n_b, 37.76, -122.42, spread)
        if n_a and n_b:
            k = min(n_a, n_b) // 2
            b[0][:k] = a[0][:k]
            b[1][:k] = a[1][:k]
        rows_a, rows_b = grid.cell_rows(*a), grid.cell_rows(*b)
        cells_a, cells_b = grid.covered_cells(*a), grid.covered_cells(*b)
        assert rows_a.size == len(cells_a) and rows_b.size == len(cells_b)
        assert shared_rows(rows_a, rows_b) == len(cells_a & cells_b)
        assert f1_from_counts(
            rows_a.size, rows_b.size, shared_rows(rows_a, rows_b)
        ) == cell_f1(cells_a, cells_b)

    def test_antipodal_span_is_exact(self):
        # Cell indices near ±2e10 on a millimetre grid: far past what a
        # packed 64-bit (ix, iy) key could hold, exact as rows.
        grid = SpatialGrid.around(LatLon(0.0, 0.0), 1e-3)
        lats = np.array([-89.9, 89.9, 0.0, 0.0, 89.9, -89.9])
        lons = np.array([-179.9, 179.9, 179.9, -179.9, 179.9, -179.9])
        rows = grid.cell_rows(lats, lons)
        cells = grid.covered_cells(lats, lons)
        assert max(abs(c) for cell in cells for c in cell) > 1e10
        assert rows.size == len(cells) == 4
        other = grid.cell_rows(lats[:3], lons[:3])
        assert shared_rows(rows, other) == 3

    def test_empty_sides(self):
        grid = SpatialGrid.around(LatLon(37.76, -122.42), 200.0)
        empty = grid.cell_rows(np.empty(0), np.empty(0))
        some = grid.cell_rows(np.array([37.76]), np.array([-122.42]))
        assert empty.size == 0
        assert f1_from_counts(0, 0, shared_rows(empty, empty)) == \
            cell_f1([], []) == 1.0
        assert f1_from_counts(1, 0, shared_rows(some, empty)) == \
            cell_f1([(0, 0)], []) == 0.0

    @pytest.mark.parametrize("cell_size_m", [1e-3, 200.0, 600.0])
    def test_utility_equals_frozenset_reference(self, dataset, cell_size_m):
        metric = AreaCoverageUtility(cell_size_m=cell_size_m)
        for eps, seed in ORDERS["eps_major"][:6]:
            protected = GeoIndistinguishability(eps).protect(dataset, seed)
            assert metric.evaluate(dataset, protected) == \
                _reference_area_coverage(dataset, protected, cell_size_m)

    def test_utility_with_an_empty_protected_side(self, dataset):
        # A protected trace may come back empty (subsampling); the
        # actual empty trace is skipped.
        protected = Dataset.from_traces([
            Trace(t.user, [], [], []) if i == 0 else t
            for i, t in enumerate(dataset.traces)
        ])
        metric = AreaCoverageUtility(cell_size_m=200.0)
        assert metric.evaluate(dataset, protected) == \
            _reference_area_coverage(dataset, protected, 200.0)


# ----------------------------------------------------------------------
# Bounds and lifetime
# ----------------------------------------------------------------------
class TestMemoLifetime:
    def test_unit_noise_holds_at_most_its_bound(self, dataset):
        ds = _fresh_copy(dataset)
        lppm = GeoIndistinguishability(0.01)
        for seed in range(3 * _SEEDS_PER_BLOCK):
            lppm.protect(ds, seed=seed)
            assert len(_seed_keys(ds.columns())) <= _SEEDS_PER_BLOCK
        # Least recently used out first: the newest seeds stay, and the
        # projection, read on every call, is never the one evicted.
        assert _seed_keys(ds.columns()) == list(
            range(2 * _SEEDS_PER_BLOCK, 3 * _SEEDS_PER_BLOCK)
        )
        assert "xy" in _UNIT_NOISE.keys(ds.columns())

    def test_projection_held_once_per_block(self, dataset):
        from repro.lppm.geo_ind import _unit_noise

        ds = _fresh_copy(dataset)
        block = ds.columns()
        first = _unit_noise(block, 0)
        second = _unit_noise(block, 1)
        # The seed-independent (x, y) is one pair of arrays for every
        # seed; only (q, cos θ, sin θ) is per seed.
        assert first[3] is second[3] and first[4] is second[4]
        assert not any(a is b for a, b in zip(first[:3], second[:3]))

    def test_unit_noise_released_with_its_block(self, dataset):
        from repro.lppm.geo_ind import _unit_noise

        ds = _fresh_copy(dataset)
        GeoIndistinguishability(0.01).protect(ds, seed=1)
        held = [weakref.ref(arr) for arr in _unit_noise(ds.columns(), 1)]
        before = len(_UNIT_NOISE)
        del ds
        gc.collect()
        assert all(ref() is None for ref in held)
        assert len(_UNIT_NOISE) < before

    def test_actual_cells_hold_at_most_their_bound(self, dataset):
        ds = _fresh_copy(dataset)
        protected = GeoIndistinguishability(0.01).protect(ds, seed=0)
        trace = ds.traces[0]
        for size in (100.0, 200.0, 300.0, 400.0, 500.0, 600.0):
            AreaCoverageUtility(cell_size_m=size).evaluate(ds, protected)
            assert len(_ACTUAL_CELLS.keys(trace)) <= _GRIDS_PER_TRACE
        assert [g.cell_size_m for g in _ACTUAL_CELLS.keys(trace)] == \
            [300.0, 400.0, 500.0, 600.0]

    def test_actual_cells_released_with_their_trace(self, dataset):
        ds = _fresh_copy(dataset)
        protected = GeoIndistinguishability(0.01).protect(ds, seed=0)
        AreaCoverageUtility(cell_size_m=200.0).evaluate(ds, protected)
        trace = ds.traces[0]
        [grid] = _ACTUAL_CELLS.keys(trace)
        rows = _ACTUAL_CELLS.get(trace, grid, lambda: None)
        assert not rows.flags.writeable
        held = weakref.ref(rows)
        del ds, protected, trace, rows
        gc.collect()
        assert held() is None
