"""Segment-at-a-time track building is bit-identical to fix-at-a-time.

``TrackBuilder`` emits each ``dwell``/``travel`` segment with one noise
draw and one vectorised path pass.  Three guards pin that its output
never changed:

* golden sha256 digests of every generator's trace bytes, recorded from
  the fix-at-a-time builder — perfbench's cold check recomputes
  recommendations with the live generator, so only a fixed digest
  notices a generator that changed the data;
* the four generators run with the verbatim reference builder
  (``reference.py``) swapped in, compared byte for byte;
* a property test over random segment programs (duplicate and single
  waypoints, zero and exact-multiple durations, fractional and large
  start clocks) comparing arrays, clock and final generator state.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import LatLon, LocalProjection
from repro.synth import (
    CommuterConfig,
    LevyFlightConfig,
    PathSampler,
    RandomWaypointConfig,
    TaxiFleetConfig,
    TrackBuilder,
    generate_commuters,
    generate_levy_flight,
    generate_random_waypoint,
    generate_taxi_fleet,
)

from .reference import (
    ReferencePathSampler,
    ReferenceTrackBuilder,
    generate_with_reference,
    trace_bytes,
)

SF = LatLon(37.7749, -122.4194)

#: name -> (generator, config, sha256 of the trace bytes, record count),
#: digests recorded with the fix-at-a-time builder.
GOLDEN = {
    "taxi-2": (
        generate_taxi_fleet, TaxiFleetConfig(n_cabs=2, seed=300_009),
        "4f472b1c09d7cbb07618285b59da8e055d53145cb9d0d5aedb49f261f574fa74",
        1024,
    ),
    "taxi-16": (
        generate_taxi_fleet, TaxiFleetConfig(n_cabs=16, seed=11),
        "4ed03bb7f9f9b7ff7895e52ccee6e35c2dd158ec84f621d825e67efc700992b0",
        13373,
    ),
    "taxi-zero-noise": (
        generate_taxi_fleet,
        TaxiFleetConfig(n_cabs=3, seed=5, gps_noise_m=0.0, heterogeneity=0.0),
        "62d10d5c69f91fce48330973e571c0721cd880c4dfb979f4f523df4f0364eb45",
        1918,
    ),
    "commuters": (
        generate_commuters, CommuterConfig(n_users=4, n_days=2, seed=3),
        "22530d73b52ed5a8f1d8697fc33f6fb9b6c2a85957ac50ea83ad4a7e9dfabe04",
        1939,
    ),
    "random_waypoint": (
        generate_random_waypoint, RandomWaypointConfig(n_users=4, seed=2),
        "743ea06326c6ac70c9f676f41200ec82c81d10525be9a8612034f06f0ece8093",
        2310,
    ),
    "levy_flight": (
        generate_levy_flight, LevyFlightConfig(n_users=4, seed=9),
        "cb368a392c1330c6b0e8cb76cbbb2f5834549233b6dcffd47bdc67761733e69f",
        1102,
    ),
}


def _digest(dataset) -> str:
    h = hashlib.sha256()
    for user, *columns in trace_bytes(dataset):
        h.update(user.encode() + b"\0")
        for column in columns:
            h.update(column)
    return h.hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_generator_output_unchanged(self, name):
        generate, config, digest, n_records = GOLDEN[name]
        dataset = generate(config)
        assert dataset.n_records == n_records
        assert _digest(dataset) == digest


class TestGeneratorParity:
    @pytest.mark.parametrize(
        "generate, config",
        [
            (generate_taxi_fleet, TaxiFleetConfig(n_cabs=2, seed=1)),
            (generate_taxi_fleet, TaxiFleetConfig(
                n_cabs=2, seed=4, gps_noise_m=0.0, heterogeneity=0.0)),
            (generate_commuters, CommuterConfig(n_users=3, n_days=2, seed=8)),
            (generate_random_waypoint, RandomWaypointConfig(
                n_users=3, seed=6, pause_s=0.0)),
            (generate_levy_flight, LevyFlightConfig(n_users=3, seed=7)),
        ],
        ids=["taxi", "taxi-zero-noise", "commuters", "random_waypoint",
             "levy_flight"],
    )
    def test_live_builder_equals_reference(self, generate, config):
        assert trace_bytes(generate(config)) == trace_bytes(
            generate_with_reference(generate, config)
        )

    def test_reference_is_swapped_in(self):
        # Guard the guard: the patch must reach the generator modules.
        built = []

        def spy(*args, **kwargs):
            builder = ReferenceTrackBuilder(*args, **kwargs)
            built.append(builder)
            return builder

        with mock.patch("tests.synth.reference.ReferenceTrackBuilder", spy):
            generate_with_reference(
                generate_random_waypoint, RandomWaypointConfig(n_users=2)
            )
        assert len(built) == 2


# ----------------------------------------------------------------------
# Property test: random segment programs
# ----------------------------------------------------------------------
_coord = st.floats(-500.0, 500.0, allow_nan=False)
_point = st.tuples(_coord, _coord)
_interval = st.one_of(
    st.sampled_from([1.0, 30.0, 60.0, 0.1 + 0.2, 7.3]),
    st.floats(5.0, 120.0),
)


@st.composite
def _waypoints(draw):
    points = draw(st.lists(_point, min_size=1, max_size=5))
    # Repeated waypoints make zero-length legs.
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(points) - 1))
        points.insert(i, points[i])
    return points


@st.composite
def _duration(draw, interval):
    kind = draw(st.sampled_from(["zero", "multiple", "free"]))
    if kind == "zero":
        return 0.0
    if kind == "multiple":
        return draw(st.integers(1, 40)) * interval
    return draw(st.floats(0.0, 40.0 * interval))


@st.composite
def _segment(draw):
    op = draw(st.sampled_from(["dwell", "travel", "emit", "skip"]))
    if op == "dwell":
        interval = draw(_interval)
        return ("dwell", draw(_point), draw(_duration(interval)), interval)
    if op == "travel":
        return ("travel", draw(_waypoints()), draw(st.floats(2.0, 30.0)),
                draw(_interval))
    if op == "emit":
        return ("emit", draw(_point))
    return ("skip", draw(st.floats(0.0, 600.0)))


def _run(builder, program):
    clocks = []
    for segment in program:
        op = segment[0]
        if op == "dwell":
            (x, y), duration, interval = segment[1:]
            builder.dwell(x, y, duration, interval)
        elif op == "travel":
            builder.travel(*segment[1:])
        elif op == "emit":
            builder.emit(*segment[1])
        else:
            builder.skip(segment[1])
        clocks.append(builder.now_s)
    return clocks


class TestSegmentParity:
    @settings(max_examples=150, deadline=None)
    @given(
        program=st.lists(_segment(), min_size=1, max_size=6),
        start=st.one_of(
            st.floats(0.0, 1e5), st.floats(1e8, 2e9),
            st.sampled_from([0.0, 0.1, 1.0 / 3.0]),
        ),
        noise=st.sampled_from([0.0, 5.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_builder_matches_reference(self, program, start, noise, seed):
        projection = LocalProjection(SF)
        live = TrackBuilder("u", projection, np.random.default_rng(seed),
                            gps_noise_m=noise, now_s=start)
        ref = ReferenceTrackBuilder("u", projection,
                                    np.random.default_rng(seed),
                                    gps_noise_m=noise, now_s=start)
        assert _run(live, program) == _run(ref, program)
        assert json.dumps(live.rng.bit_generator.state) == json.dumps(
            ref.rng.bit_generator.state
        )
        if not ref._times:
            with pytest.raises(ValueError):
                live.build()
            return
        got, want = live.build(), ref.build()
        for column in ("times_s", "lats", "lons"):
            assert getattr(got, column).tobytes() == getattr(
                want, column
            ).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        waypoints=_waypoints(),
        distances=st.lists(st.floats(-1e3, 5e3, allow_nan=False),
                           min_size=1, max_size=30),
    )
    def test_path_sampler_matches_reference(self, waypoints, distances):
        live = PathSampler(waypoints)
        ref = ReferencePathSampler(waypoints)
        want = [ref.at(d) for d in distances]
        assert [live.at(d) for d in distances] == want
        xs, ys = live.at_many(np.asarray(distances))
        assert list(zip(xs.tolist(), ys.tolist())) == want
