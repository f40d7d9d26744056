"""Columnar protect parity: block path vs the seed per-trace path.

``LPPM.protect`` routes through ``protect_block`` — for the vectorised
mechanisms, batched math over a whole dataset's concatenated records.
The promise is **bit-identity**: same users, same floats, record for
record, as the seed implementation that protected one trace at a time.  This suite proves it against verbatim
copies of the seed per-trace implementations (``reference.py``), on a
plain synthetic dataset and on adversarial shapes (empty trace, single
point, duplicate timestamps, an antimeridian straddle, a subsample
that keeps only record 0), and across the engine's execution paths.
"""

import functools

import numpy as np
import pytest

from repro import (
    ElasticGeoIndistinguishability,
    GaussianPerturbation,
    GeoIndistinguishability,
    GridRounding,
    Promesse,
    Subsampling,
    TimePerturbation,
    UniformDiskNoise,
    generate_taxi_fleet,
    geo_ind_system,
)
from repro.engine import EvalJob, ProcessPoolBackend, SerialBackend
from repro.geo import LatLon
from repro.lppm import Pipeline, available_lppms
from repro.lppm.base import _protect_single_trace
from repro.lppm.elastic import DensityMap
from repro import TaxiFleetConfig
from repro.mobility import Dataset, Trace

from .reference import _reference_protect, make_block_dataset

SEED = 11


def _plain_dataset() -> Dataset:
    return make_block_dataset(12, 40, seed=3)


def _adversarial_dataset() -> Dataset:
    rng = np.random.default_rng(9)
    n = 24
    return Dataset.from_traces([
        Trace("a_empty", [], [], []),
        Trace("b_single", [100.0], [37.7601], [-122.4202]),
        Trace(
            "c_dup_times",
            [0.0, 0.0, 10.0, 10.0, 10.0, 50.0],
            37.76 + rng.normal(0.0, 1e-3, size=6),
            -122.42 + rng.normal(0.0, 1e-3, size=6),
        ),
        # Straddles the antimeridian: the per-trace centroid lands near
        # lon 0, so projected x values are huge — any reassociation of
        # the projection math would show up immediately.
        Trace(
            "d_antimeridian",
            np.arange(8) * 30.0,
            37.76 + rng.normal(0.0, 1e-3, size=8),
            np.asarray([179.5, -179.5] * 4) + rng.normal(0.0, 1e-3, size=8),
        ),
        Trace(
            "e_normal",
            np.cumsum(rng.uniform(5.0, 60.0, size=n)),
            37.75 + np.cumsum(rng.normal(0.0, 2e-4, size=n)),
            -122.41 + np.cumsum(rng.normal(0.0, 2e-4, size=n)),
        ),
    ])


DATASETS = {
    "plain": _plain_dataset,
    "adversarial": _adversarial_dataset,
}

# One configuration per registered mechanism, plus the edge variants
# called out in the issue (fixed rounding ref, prebuilt elastic prior,
# keep-only-record-0 subsampling, zero-sigma time perturbation).
MECHANISMS = {
    "geo_ind": lambda ds: GeoIndistinguishability(0.05),
    "elastic_dataset_prior": lambda ds: ElasticGeoIndistinguishability(
        0.05, cell_size_m=250.0
    ),
    "elastic_prebuilt_prior": lambda ds: ElasticGeoIndistinguishability(
        0.05, cell_size_m=250.0,
        density=DensityMap.from_dataset(ds, 250.0),
    ),
    "gaussian": lambda ds: GaussianPerturbation(25.0),
    "uniform_disk": lambda ds: UniformDiskNoise(60.0),
    "rounding_centroid": lambda ds: GridRounding(150.0),
    "rounding_fixed_ref": lambda ds: GridRounding(
        150.0, ref=LatLon(37.76, -122.42)
    ),
    "subsampling": lambda ds: Subsampling(0.5),
    "subsampling_keep_first_only": lambda ds: Subsampling(1e-9),
    "time_perturbation": lambda ds: TimePerturbation(45.0),
    "time_perturbation_zero_sigma": lambda ds: TimePerturbation(0.0),
    "promesse": lambda ds: Promesse(80.0),
    "pipeline": lambda ds: Pipeline(
        [Subsampling(0.7), GaussianPerturbation(30.0)]
    ),
}


def _assert_datasets_identical(a: Dataset, b: Dataset) -> None:
    assert a.users == b.users
    for user in a.users:
        ta, tb = a[user], b[user]
        assert np.array_equal(ta.times_s, tb.times_s), user
        assert np.array_equal(ta.lats, tb.lats), user
        assert np.array_equal(ta.lons, tb.lons), user


def _map_protect(lppm, dataset: Dataset, seed: int) -> Dataset:
    """Protect trace by trace, last trace first, via the per-trace path."""
    if isinstance(lppm, ElasticGeoIndistinguishability) and lppm.density is None:
        # ``protect`` fixes the dataset-wide prior before any trace.
        lppm = ElasticGeoIndistinguishability(
            lppm.epsilon, lppm.exponent, lppm.max_scale, lppm.cell_size_m,
            DensityMap.from_dataset(dataset, lppm.cell_size_m),
        )
    fn = functools.partial(_protect_single_trace, lppm, seed)
    mapped = list(map(fn, reversed(dataset.traces)))
    return Dataset.from_traces(mapped[::-1])


class TestBlockParity:
    def test_every_registered_mechanism_is_covered(self):
        built = {
            factory(_plain_dataset()).name for factory in MECHANISMS.values()
        }
        assert set(available_lppms()) <= built

    @pytest.mark.parametrize("dataset_name", sorted(DATASETS))
    @pytest.mark.parametrize("mech_name", sorted(MECHANISMS))
    def test_block_equals_seed_reference(self, mech_name, dataset_name):
        dataset = DATASETS[dataset_name]()
        lppm = MECHANISMS[mech_name](dataset)
        block_out = lppm.protect(dataset, seed=SEED)
        ref_out = _reference_protect(lppm, dataset, seed=SEED)
        _assert_datasets_identical(block_out, ref_out)

    @pytest.mark.parametrize("mech_name", sorted(MECHANISMS))
    def test_mapper_path_equals_block_path(self, mech_name):
        # Mapping the per-trace function over the traces, in any order,
        # agrees with the block path float for float.
        dataset = _adversarial_dataset()
        lppm = MECHANISMS[mech_name](dataset)
        block_out = lppm.protect(dataset, seed=SEED)
        mapped_out = _map_protect(lppm, dataset, seed=SEED)
        _assert_datasets_identical(block_out, mapped_out)

    def test_subsampling_edge_keeps_exactly_record_zero(self):
        dataset = _plain_dataset()
        out = Subsampling(1e-9).protect(dataset, seed=SEED)
        for user in dataset.users:
            assert len(out[user]) == 1
            assert out[user].times_s[0] == dataset[user].times_s[0]

    def test_columns_memoised_and_excluded_from_pickle(self):
        import pickle

        dataset = _plain_dataset()
        assert dataset.columns() is dataset.columns()
        clone = pickle.loads(pickle.dumps(dataset))
        _assert_datasets_identical(dataset, clone)
        # The rebuilt block matches the original's content.
        assert np.array_equal(clone.columns().lats, dataset.columns().lats)


class TestEngineSweepParity:
    def test_process_sweep_equals_serial_block_path(self):
        # Serial execution protects through the block path; the process
        # pool protects in workers (job level) — results must match
        # float for float across a multi-seed sweep.
        fleet = generate_taxi_fleet(
            TaxiFleetConfig(n_cabs=3, shift_hours=1.0, seed=5)
        )
        system = geo_ind_system()
        jobs = [
            EvalJob.make({"epsilon": eps}, seed=s)
            for eps in (0.005, 0.02)
            for s in (0, 1)
        ]
        serial = SerialBackend().run(system, fleet, jobs)
        backend = ProcessPoolBackend(max_workers=2)
        try:
            parallel = backend.run(system, fleet, jobs)
        finally:
            backend.close()
        assert serial == parallel
