"""LPPM base class and registry.

A Location Privacy Protection Mechanism transforms a trace into a
protected trace.  Mechanisms are *stateless and deterministic given an
explicit random generator*, which is what makes the framework's
experiment sweeps replicable: the runner derives one child generator per
(trace, replication) pair from a root seed.

The registry maps mechanism names to classes so that the CLI, the
benchmarks and the "other LPPMs" experiment can enumerate every
available mechanism without import gymnastics.
"""

from __future__ import annotations

import abc
import functools
import inspect
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Tuple,
    Type,
)

import numpy as np

from ..geo import LatLon, LocalProjection
from ..mobility import Dataset, Trace, TraceBlock, update_columns

__all__ = [
    "LPPM",
    "OnlineProtector",
    "register_lppm",
    "lppm_class",
    "available_lppms",
    "primary_param",
]

def _protect_single_trace(lppm: "LPPM", seed: int, trace: Trace) -> Trace:
    """Protect one trace with its own (seed, user)-derived generator.

    The RNG derivation lives here, next to the work, which keeps the
    output independent of the order or the process in which traces
    are handled.
    """
    rng = LPPM._trace_rng(seed, trace.user)
    return lppm.protect_trace(trace, rng)


@functools.lru_cache(maxsize=4096)
def _user_entropy(seed: int, user: str) -> Tuple[int, ...]:
    """Spawn-ready SeedSequence entropy for one ``(seed, user)`` pair.

    Sweeps re-derive the per-trace generator for every user at every
    point, so the entropy assembly (a Python loop over the user id) is
    memoised.  Only the *entropy* is cached — never a ``SeedSequence``
    or ``Generator``: spawning children off a shared ``SeedSequence``
    (as :class:`Pipeline` does through ``rng.spawn``) advances its
    child counter, so reused instances would break bit-identity across
    call orders.  A fresh ``SeedSequence`` per call keeps every
    derivation independent of history.
    """
    return (seed & 0xFFFFFFFF, *(ord(c) for c in user))


@functools.lru_cache(maxsize=4096)
def _pcg_state(seed: int, user: str) -> dict:
    """Initial PCG64 state for one ``(seed, user)`` pair, memoised.

    Seeding a ``PCG64`` through a ``SeedSequence`` costs ~20 µs of
    entropy mixing; restoring a cached state dict costs ~1 µs and
    yields the bit-identical stream.  The block paths restore this
    state into one reused generator per trace, which is where the
    per-trace floor of the columnar protect path comes from.  The
    cached dict is read-only to the bit generator (its setter copies
    the values out), so sharing it across restores is safe.
    """
    ss = np.random.SeedSequence(list(_user_entropy(seed, user)))
    return np.random.PCG64(ss).state


def _block_rng() -> Callable[[int, str], np.random.Generator]:
    """One reusable generator, re-seeded per trace by state restore.

    Returns ``at(seed, user)`` handing back the same ``Generator``
    object positioned at the start of that pair's stream — draws are
    bit-identical to a fresh :meth:`LPPM._trace_rng` generator, minus
    the construction cost.  The generator is shared and mutable:
    consume each trace's draws before restoring the next.  Not suitable
    when ``rng.spawn`` is needed (the reused bit generator's seed
    sequence is a dummy), which is why :meth:`LPPM._trace_rng` still
    builds the real thing for the per-trace fallback path.
    """
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)

    def at(seed: int, user: str) -> np.random.Generator:
        bit_gen.state = _pcg_state(seed, user)
        return rng

    return at


def _concat_trace_draws(
    block: "TraceBlock", seed: int, draw: Callable
) -> Tuple[np.ndarray, ...]:
    """Per-trace RNG draws over a block, concatenated column-wise.

    ``draw(rng, trace)`` returns a tuple of 1-D arrays for one trace;
    each position is concatenated across traces in block order.  Every
    trace draws from its own ``(seed, user)`` generator in the same
    order as the per-trace path, so the concatenated streams are
    bit-identical to protecting trace by trace — only the downstream
    deterministic math is batched.
    """
    columns: List[List[np.ndarray]] = []
    rng_at = _block_rng()
    for trace in block.traces:
        rng = rng_at(seed, trace.user)
        drawn = draw(rng, trace)
        if not columns:
            columns = [[] for _ in drawn]
        for col, arr in zip(columns, drawn):
            col.append(arr)
    return tuple(
        np.concatenate(col) if col else np.empty(0) for col in columns
    )


_REGISTRY: Dict[str, Type["LPPM"]] = {}


def register_lppm(name: str) -> Callable[[Type["LPPM"]], Type["LPPM"]]:
    """Class decorator adding an LPPM to the global registry."""

    def _register(cls: Type["LPPM"]) -> Type["LPPM"]:
        if name in _REGISTRY and _REGISTRY[name] is not cls:
            raise ValueError(f"LPPM name {name!r} already registered")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return _register


def lppm_class(name: str) -> Type["LPPM"]:
    """Look up a registered LPPM class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown LPPM {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_lppms() -> List[str]:
    """Sorted names of all registered mechanisms."""
    return sorted(_REGISTRY)


def primary_param(name: str) -> str:
    """Name of a registered mechanism's primary scalar parameter.

    Every registered LPPM takes its headline knob (ε, σ, a radius, …)
    as the first constructor argument; the CLI's ``--param`` and the
    service's ``/protect`` both bind to it by this name.  Raises
    :class:`ValueError` for constructors with no *named* scalar slot
    (``*args``/``**kwargs``-only), so callers can answer "?" instead of
    passing a bogus keyword.
    """
    return _primary_param_of(lppm_class(name), name)


@functools.lru_cache(maxsize=256)
def _primary_param_of(cls: Type["LPPM"], name: str) -> str:
    """:func:`primary_param` of one class, inspected once per class.

    Keyed on the class the name resolves to, so a name registered
    again to a new class resolves afresh.  Errors are not cached; they
    raise again on the next call.
    """
    init = inspect.signature(cls.__init__)
    named = [
        p
        for p in init.parameters.values()
        if p.name != "self"
        and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD,
                       p.KEYWORD_ONLY)
    ]
    if not named:
        raise ValueError(f"LPPM {name!r} takes no named parameters")
    first = named[0]
    if first.kind is first.POSITIONAL_ONLY:
        # Callers bind the knob by keyword; a positional-only slot
        # cannot be, and silently skipping it would name the wrong one.
        raise ValueError(
            f"LPPM {name!r}: first parameter {first.name!r} is "
            "positional-only and cannot be bound by name"
        )
    return first.name


class LPPM(abc.ABC):
    """Base class of every protection mechanism.

    Subclasses implement :meth:`protect_trace`; the dataset-level method
    and seed plumbing are shared.  ``params()`` exposes the mechanism's
    configuration for the framework's sweep machinery and for reporting.
    """

    #: Registry name, set by :func:`register_lppm`.
    name: str = "abstract"

    @abc.abstractmethod
    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        """Return the protected counterpart of ``trace``."""

    @abc.abstractmethod
    def params(self) -> Mapping[str, float]:
        """The mechanism's configuration parameters, by name."""

    def protect(self, dataset: Dataset, seed: int = 0) -> Dataset:
        """Protect every trace of ``dataset`` deterministically.

        Each trace gets an independent generator derived from ``seed``
        and the user id, so protecting a subset of users yields exactly
        the same protected traces as protecting the full dataset.

        Protection runs through the columnar block path
        (:meth:`protect_block` over :meth:`Dataset.columns`):
        vectorised mechanisms cover the whole dataset in one kernel
        call, everything else takes the per-trace fallback — both
        bit-identical to protecting trace by trace.
        """
        return Dataset.from_traces(
            self.protect_block(dataset.columns(), seed)
        )

    def protect_block(self, block: TraceBlock, seed: int) -> List[Trace]:
        """Protect every trace of a columnar block, in block order.

        The base implementation is the per-trace reference path — one
        ``(seed, user)`` generator and one :meth:`protect_trace` call
        per trace — so any subclass is block-ready by construction.
        Vectorised mechanisms override this to batch their
        deterministic math over the whole block while drawing each
        trace's randomness from its own generator in the reference
        order, which keeps block output bit-identical to the per-trace
        path.
        """
        return [
            _protect_single_trace(self, seed, trace) for trace in block.traces
        ]

    @staticmethod
    def _trace_rng(seed: int, user: str) -> np.random.Generator:
        """Deterministic per-user generator derived from a root seed."""
        ss = np.random.SeedSequence(list(_user_entropy(seed, user)))
        return np.random.default_rng(ss)

    #: The stateful stream class :meth:`protect_online` instantiates;
    #: mechanisms with a true O(1)-per-update path point this at their
    #: own :class:`OnlineProtector` subclass.
    _online_cls: Type["OnlineProtector"]

    def protect_online(
        self, seed: int = 0, user: str = "stream"
    ) -> "OnlineProtector":
        """A stateful online protection stream for one user.

        The returned :class:`OnlineProtector` accepts incremental
        location updates, one (:meth:`OnlineProtector.push`) or a chunk
        (:meth:`OnlineProtector.push_many`) at a time, emitting a live
        protected record per update, and replays the accumulated
        batch through the mechanism's batch path on demand
        (:meth:`OnlineProtector.result`) — the replay is bit-identical
        to :meth:`protect` over the same records.
        """
        return self._online_cls(self, seed, user)

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"


class OnlineProtector:
    """A stateful protection stream for one user — the online seam.

    Two guarantees, two paths:

    * :meth:`push_many` emits a **live** protected record per update of
      a chunk (:meth:`push` is ``push_many`` of one record).  The base
      implementation wraps the existing per-trace machinery — release
      k re-protects the accumulated prefix up to k with a fresh
      ``(seed, user)`` generator and emits its tail, which is correct
      for every mechanism but costs O(prefix) per update.  Mechanisms
      with separable per-record randomness (geo-I, Gaussian, rounding,
      subsampling, uniform disk) override :meth:`_emit_many` with a
      true O(1)-per-update path: a session-fixed projection anchor and
      a carried per-``(seed, user)`` RNG stream, so live output is
      drawn from the same distribution as the batch path.  Each chunk
      draws its randomness in one call that consumes the carried
      stream exactly as record-by-record pushes would, so a chunk
      releases the same bits however the stream is cut into chunks.
    * :meth:`result` replays everything pushed so far through
      :meth:`LPPM.protect` with the session's seed.  A replayed batch
      is therefore **bit-identical** to protecting the same trace
      offline — the invariant the online/batch parity suite pins for
      every registered mechanism.

    Updates must arrive with non-decreasing timestamps per the usual
    trace contract; out-of-order pushes are accepted (the replay
    stable-sorts, as :class:`Trace` always has) but live emissions
    then reflect arrival order, not time order.
    """

    def __init__(self, lppm: "LPPM", seed: int = 0, user: str = "stream"):
        if not user:
            raise ValueError("online protection user id must be non-empty")
        self.lppm = lppm
        self.seed = int(seed)
        self.user = str(user)
        self._times: List[float] = []
        self._lats: List[float] = []
        self._lons: List[float] = []
        #: Carried RNG stream for the live draws of O(1) overrides.
        self._rng = LPPM._trace_rng(self.seed, self.user)

    @property
    def n_pushed(self) -> int:
        """How many updates this stream has accepted."""
        return len(self._times)

    def push(self, time_s: float, lat: float, lon: float):
        """Accept one location update; return the live protected record.

        Returns a ``(time_s, lat, lon)`` tuple, or ``None`` when the
        mechanism suppresses the record (subsampling) or has nothing to
        emit yet.  Raises :class:`ValueError` for coordinates outside
        valid ranges, mirroring :class:`Trace` validation.
        """
        return self.push_many([(time_s, lat, lon)])[0]

    def push_many(self, records) -> list:
        """Accept a chunk of ``(time_s, lat, lon)`` updates at once.

        Returns one entry per record, each what :meth:`push` would
        have returned for it.  The whole chunk is validated by
        :func:`~repro.mobility.update_columns` (once: an already
        validated chunk passes straight through) before any state
        changes: a bad record raises :class:`ValueError` with nothing
        accepted and no randomness spent, so a retried chunk releases
        exactly what a clean first try would have.
        """
        times, lats, lons = update_columns(records)
        if not times.size:
            return []
        self._times.extend(times.tolist())
        self._lats.extend(lats.tolist())
        self._lons.extend(lons.tolist())
        return self._emit_many(times, lats, lons)

    def _emit_many(self, times, lats, lons) -> list:
        """Live emissions for a chunk already appended to the stream.

        The base is the prefix replay: release k depends on every
        update up to k, so it loops :meth:`_emit_live` over the
        chunk's prefix ends.
        """
        first = self.n_pushed - times.size + 1
        return [self._emit_live(end) for end in range(first, self.n_pushed + 1)]

    def _emit_live(self, end: int):
        """Live emission of update ``end - 1``: its prefix replay's tail."""
        protected = self._protect_prefix(end)
        if protected.is_empty:
            return None
        return (
            float(protected.times_s[-1]),
            float(protected.lats[-1]),
            float(protected.lons[-1]),
        )

    def pushed_trace(self) -> Trace:
        """The accumulated raw updates as a :class:`Trace`."""
        return Trace(self.user, self._times, self._lats, self._lons)

    def recent(self, n: int) -> Tuple[List[float], List[float], List[float]]:
        """The last ``n`` accepted updates as ``(times, lats, lons)`` lists."""
        start = self.n_pushed - n
        return self._times[start:], self._lats[start:], self._lons[start:]

    def result(self) -> Trace:
        """Protect everything pushed so far through the batch path.

        Bit-identical to ``lppm.protect(Dataset.from_traces([t]),
        seed)`` of the pushed trace ``t`` — the per-trace generator
        depends only on ``(seed, user)``, so an online session replayed
        in one go cannot be told apart from an offline run.
        """
        return self._protect_prefix(self.n_pushed)

    def _protect_prefix(self, end: int) -> Trace:
        """The batch protection of the first ``end`` pushed updates."""
        prefix = Trace(
            self.user, self._times[:end], self._lats[:end], self._lons[:end]
        )
        dataset = Dataset.from_traces([prefix])
        return self.lppm.protect(dataset, seed=self.seed)[self.user]


def _release_rows(times, lats, lons) -> List[Tuple[float, float, float]]:
    """A chunk's ``(time_s, lat, lon)`` columns as release tuples."""
    return list(zip(times.tolist(), lats.tolist(), lons.tolist()))


class _AnchoredOnline(OnlineProtector):
    """O(1) online base: projection anchored at the first push.

    An online session cannot know the eventual trace centroid, so the
    projection is fixed by the first update; each chunk is then
    projected, displaced by :meth:`_displace` and mapped back in one
    vectorised pass.
    """

    def __init__(self, lppm: "LPPM", seed: int = 0, user: str = "stream"):
        super().__init__(lppm, seed, user)
        self._projection = None

    def _emit_many(self, times, lats, lons) -> list:
        if self._projection is None:
            self._projection = LocalProjection(
                LatLon(float(lats[0]), float(lons[0]))
            )
        x, y = self._projection.to_xy(lats, lons)
        out_lats, out_lons = self._projection.to_latlon(
            *self._displace(x, y)
        )
        return _release_rows(times, out_lats, out_lons)

    def _displace(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """Displaced ``(x, y)`` of a chunk, drawn from the carried stream."""
        raise NotImplementedError

    def _draw_polar(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(u, theta)`` of ``n`` polar displacements in one draw.

        Pushed alone, an update draws ``u ~ Uniform[0, 1)`` then
        ``theta ~ Uniform[0, 2π)``: two consecutive doubles ``d`` and
        ``2π·d`` of the stream.  One ``2n`` draw consumes the same
        doubles, so ``u`` sits at the even positions and the raw angle
        at the odd ones — and a chunk releases the same bits however
        the stream is cut.
        """
        v = self._rng.uniform(0.0, 1.0, size=2 * n)
        return v[0::2], v[1::2] * (2.0 * np.pi)


# The default for every mechanism; set after the class exists because
# LPPM's body cannot reference a name defined below it.
LPPM._online_cls = OnlineProtector
