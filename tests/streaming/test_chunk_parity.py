"""Chunked live releases vs the record-at-a-time reference path.

:meth:`OnlineProtector.push_many` protects a whole chunk of updates in
one pass.  However a stream is cut into chunks, it must release exactly
what the verbatim record-at-a-time reference (``reference.py``)
released, leave the carried ``(seed, user)`` generator in the same
state and replay the same batch result — for the O(1) mechanisms,
whose chunk path is vectorised, and for the prefix-replay fallbacks
alike.  A chunk with a bad record is rejected whole.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lppm import GeoIndistinguishability
from repro.mobility import Trace
from tests.streaming.reference import reference_online
from tests.streaming.test_live_golden import O1_MECHANISMS
from tests.streaming.test_online_parity import MECHANISMS, SEED, TRACES

FALLBACK_MECHANISMS = sorted(set(MECHANISMS) - set(O1_MECHANISMS))


def _walk(n: int, seed: int) -> Trace:
    rng = np.random.default_rng(seed)
    return Trace(
        f"walk{seed}",
        np.cumsum(rng.uniform(1.0, 60.0, size=n)),
        37.75 + np.cumsum(rng.normal(0.0, 3e-4, size=n)),
        -122.41 + np.cumsum(rng.normal(0.0, 3e-4, size=n)),
    )


def _rows(trace: Trace) -> list:
    return list(zip(trace.times_s.tolist(), trace.lats.tolist(),
                    trace.lons.tolist()))


def _chunked(rows: list, sizes: list) -> list:
    """Cut ``rows`` into chunks of ``sizes``, cycled until consumed."""
    if not any(sizes):
        return [rows]
    chunks, i, k = [], 0, 0
    while i < len(rows):
        size = sizes[k % len(sizes)]
        chunks.append(rows[i:i + size])
        i += size
        k += 1
    return chunks


def _state(protector) -> dict:
    return protector._rng.bit_generator.state


def _result_bytes(protector) -> bytes:
    trace = protector.result()
    return trace.times_s.tobytes() + trace.lats.tobytes() + trace.lons.tobytes()


def _assert_same_stream(mech_name: str, trace: Trace, chunks: list) -> None:
    lppm = MECHANISMS[mech_name]()
    protector = lppm.protect_online(seed=SEED, user=trace.user)
    reference = reference_online(lppm, seed=SEED, user=trace.user)
    chunked = [r for chunk in chunks for r in protector.push_many(chunk)]
    expected = [reference.push(*row) for chunk in chunks for row in chunk]
    assert chunked == expected
    assert protector.n_pushed == reference.n_pushed
    assert _state(protector) == _state(reference)
    if trace.is_empty and mech_name == "elastic":
        return  # both sides refuse an empty replay; parity suite pins it
    assert _result_bytes(protector) == _result_bytes(reference)


class TestO1ChunksMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(
        mech_name=st.sampled_from(O1_MECHANISMS),
        n=st.integers(0, 300),
        trace_seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(0, 64), min_size=1, max_size=12),
    )
    def test_random_chunkings(self, mech_name, n, trace_seed, sizes):
        trace = _walk(n, trace_seed)
        _assert_same_stream(mech_name, trace, _chunked(_rows(trace), sizes))

    @pytest.mark.parametrize("size", [1, 7, 50, 64])
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("mech_name", O1_MECHANISMS)
    def test_fixed_chunkings(self, mech_name, trace_name, size):
        trace = TRACES[trace_name]
        _assert_same_stream(mech_name, trace, _chunked(_rows(trace), [size]))


class TestFallbackChunks:
    @pytest.mark.parametrize("sizes", [[1], [5, 0, 3], [64]])
    @pytest.mark.parametrize("trace_name", ["c_dup_times", "e_normal"])
    @pytest.mark.parametrize("mech_name", FALLBACK_MECHANISMS)
    def test_push_many_equals_looped_push(self, mech_name, trace_name, sizes):
        trace = TRACES[trace_name]
        chunks = _chunked(_rows(trace), sizes)
        lppm = MECHANISMS[mech_name]()
        many = lppm.protect_online(seed=SEED, user=trace.user)
        one = lppm.protect_online(seed=SEED, user=trace.user)
        chunked = [r for chunk in chunks for r in many.push_many(chunk)]
        looped = [one.push(*row) for row in _rows(trace)]
        assert chunked == looped
        assert _result_bytes(many) == _result_bytes(one)
        # And both equal the record-at-a-time reference.
        _assert_same_stream(mech_name, trace, chunks)


class TestBadChunkIsRejectedWhole:
    CLEAN = [(60.0 * i, 37.76 + 1e-4 * i, -122.42) for i in range(5)]

    @pytest.mark.parametrize("bad_row, message", [
        ((120.0, 95.0, -122.42), "outside valid lat/lon"),
        ((120.0, 37.76, 181.0), "outside valid lat/lon"),
        ((120.0, float("nan"), -122.42), "outside valid lat/lon"),
        ((float("inf"), 37.76, -122.42), "finite"),
    ])
    def test_nothing_is_accepted_or_drawn(self, bad_row, message):
        protector = GeoIndistinguishability(0.05).protect_online(seed=SEED)
        before = _state(protector)
        chunk = list(self.CLEAN)
        chunk[2] = bad_row
        with pytest.raises(ValueError, match=message):
            protector.push_many(chunk)
        assert protector.n_pushed == 0
        assert _state(protector) == before
        # A retry releases exactly what a clean first try would.
        fresh = GeoIndistinguishability(0.05).protect_online(seed=SEED)
        assert protector.push_many(self.CLEAN) == fresh.push_many(self.CLEAN)

    def test_first_bad_record_names_the_error(self):
        protector = GeoIndistinguishability(0.05).protect_online(seed=SEED)
        chunk = [(0.0, 37.76, -122.42), (float("nan"), 37.76, -122.42),
                 (0.0, 91.0, -122.42)]
        with pytest.raises(ValueError, match="finite"):
            protector.push_many(chunk)

    @pytest.mark.parametrize(
        "chunk", [[(0.0, 37.76)], [(0.0, 37.76, 1.0, 2.0)], [()]]
    )
    def test_wrong_arity_is_rejected(self, chunk):
        protector = GeoIndistinguishability(0.05).protect_online(seed=SEED)
        with pytest.raises(ValueError):
            protector.push_many(chunk)
        assert protector.n_pushed == 0

    def test_empty_chunk_is_a_no_op(self):
        protector = GeoIndistinguishability(0.05).protect_online(seed=SEED)
        before = _state(protector)
        assert protector.push_many([]) == []
        assert protector.n_pushed == 0
        assert _state(protector) == before
