"""In-memory span recorder wrapped around the public functions of ``repro``.

Installed by :mod:`trace_serve` before the daemon's CLI runs, so every
process the daemon forks (pre-fork workers, process-pool workers)
inherits the wrappers.  Nothing under ``src/`` is edited: the wrappers
replace module and class attributes at start-up.

Each span adds its duration to its parent's child time, so a layer's
*self* time is its duration minus the time its child spans cover.
Spans are aggregated per process in memory (calls, total, self and one
layer-specific extra counter per name) and flushed to
``<out_dir>/spans-<pid>.json``:

* at most every :data:`FLUSH_EVERY_S` seconds, when an outermost span
  ends;
* in ``os._exit`` — pre-fork workers and multiprocessing children leave
  through it, skipping at-exit hooks;
* at interpreter exit, for the supervising process.

Dispatch spans also append ``<request id> <seconds>`` lines to
``dispatch-<pid>.tsv``, so the benchmark can subtract server time from
the latency its client saw.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import time

#: Minimum seconds between two time-triggered flushes of one process.
FLUSH_EVERY_S = 0.5


class Tracer:
    """Per-process span aggregates plus the flush machinery."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child starts empty: its parent's totals stay the
        # parent's, and spans open on the forking thread never close here.
        self.lock = threading.Lock()
        self.tls = threading.local()
        #: name -> [calls, total_s, self_s, extra]
        self.stats: dict = {}
        self.dispatch: list = []
        self.last_flush = time.perf_counter()

    def wrap(self, name: str, fn, extra=None, dispatch: bool = False):
        """``fn`` recorded as span ``name``.

        ``extra(args, result, seconds)`` returns a number summed into the
        span's extra counter; ``dispatch`` records the response's request
        id with the span's duration.
        """
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            tls = tracer.tls
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            stack.append(0.0)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                seconds = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += seconds
                added = extra(args, result, seconds) if extra else 0.0
                with tracer.lock:
                    row = tracer.stats.get(name)
                    if row is None:
                        row = tracer.stats[name] = [0, 0.0, 0.0, 0.0]
                    row[0] += 1
                    row[1] += seconds
                    row[2] += seconds - child
                    row[3] += added
                    if dispatch and result is not None:
                        rid = result.headers.get("X-Request-Id")
                        if rid:
                            tracer.dispatch.append((rid, seconds))
                if not stack and perf() - tracer.last_flush >= FLUSH_EVERY_S:
                    tracer.flush()

        return functools.update_wrapper(traced, fn)

    def flush(self) -> None:
        """Write this process's totals (atomically) and new dispatch rows."""
        if not self.lock.acquire(timeout=1.0):
            return
        try:
            self.last_flush = time.perf_counter()
            stats = {name: list(row) for name, row in self.stats.items()}
            pending, self.dispatch = self.dispatch, []
        finally:
            self.lock.release()
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump({"pid": pid, "ppid": os.getppid(), "stats": stats},
                      handle)
        os.replace(tmp, path)
        if pending:
            with open(os.path.join(self.out_dir, f"dispatch-{pid}.tsv"),
                      "a") as handle:
                handle.writelines(f"{rid}\t{sec!r}\n" for rid, sec in pending)


def _stay_point_records(args, result, seconds):
    return len(args[0])


def _backend_capacity(args, result, seconds):
    return seconds * args[0].max_workers


def _patch_function(tracer: Tracer, name: str, module, attr: str, extra=None):
    """Replace ``module.attr`` everywhere ``repro`` bound it by name."""
    original = getattr(module, attr)
    traced = tracer.wrap(name, original, extra)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "repro" or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _patch_method(tracer: Tracer, name: str, cls, attr: str, extra=None,
                  dispatch=False):
    """Wrap ``cls.attr`` and every subclass override of it."""
    seen = [cls]
    while seen:
        klass = seen.pop()
        if attr in vars(klass):
            setattr(klass, attr,
                    tracer.wrap(name, vars(klass)[attr], extra, dispatch))
        seen.extend(klass.__subclasses__())


def _patch_get_or_compute(tracer: Tracer, cls) -> None:
    """``analysis.get_or_compute`` with extra = 1 when ``compute`` was
    skipped (a memory or spill hit)."""
    original = cls.get_or_compute

    def get_or_compute(self, key, kind, compute):
        called = []

        def counted():
            called.append(True)
            return compute()

        value = original(self, key, kind, counted)
        tls = tracer.tls
        tls.analysis_hit = not called
        return value

    traced = tracer.wrap(
        "analysis.get_or_compute", get_or_compute,
        extra=lambda args, result, seconds: float(
            getattr(tracer.tls, "analysis_hit", False)),
    )
    cls.get_or_compute = traced


def install(out_dir: str) -> Tracer:
    """Import every traced layer and wrap its public entry points."""
    from repro.analysis.cache import AnalysisCache
    from repro.analysis.spill import AnalysisSpill
    from repro.attacks import poi, staypoints
    from repro.engine import backends
    from repro.engine.cache import ResultCache
    from repro.engine.core import EvaluationEngine
    from repro.framework import store
    from repro.framework.configurator import Configurator
    from repro.lppm.base import LPPM, OnlineProtector
    from repro.metrics.privacy import PoiRetrievalPrivacy
    from repro.metrics.utility import AreaCoverageUtility
    from repro.mobility.dataset import Dataset
    from repro.service import app, middleware, state
    from repro.streaming.session import ProtectionSession, SessionManager
    from repro.synth import taxi

    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer(out_dir)

    _patch_method(tracer, "service.dispatch", app.ConfigService, "dispatch",
                  dispatch=True)
    # The endpoint handler, inside the innermost middleware.
    _patch_method(tracer, "service.handler", app.ConfigService, "_route")
    for klass in vars(middleware).values():
        if (isinstance(klass, type)
                and issubclass(klass, middleware.Middleware)
                and klass is not middleware.Middleware
                and "handle" in vars(klass)):
            _patch_method(tracer, f"service.mw.{klass.name}", klass, "handle")
    _patch_method(tracer, "service.state.dataset_for", state.ServiceState,
                  "dataset_for")
    _patch_method(tracer, "service.state.configurator_for",
                  state.ServiceState, "configurator_for")
    _patch_function(tracer, "synth.generate", taxi, "generate_taxi_fleet")
    _patch_method(tracer, "mobility.columns", Dataset, "columns")
    _patch_method(tracer, "framework.fit", Configurator, "fit")
    _patch_method(tracer, "framework.recommend", Configurator, "recommend")
    _patch_method(tracer, "engine.run", EvaluationEngine, "run")
    _patch_method(tracer, "engine.backend.wait", backends.ProcessPoolBackend,
                  "run", extra=_backend_capacity)
    _patch_function(tracer, "engine.job", backends, "execute_job")
    _patch_method(tracer, "engine.cache.read_disk", ResultCache, "read_disk")
    _patch_method(tracer, "engine.cache.write_disk", ResultCache,
                  "write_disk")
    _patch_function(tracer, "store.read", store, "read_eval_record")
    _patch_function(tracer, "store.read", store, "read_json_payload")
    _patch_function(tracer, "store.write", store, "write_json_atomic")
    _patch_method(tracer, "lppm.protect", LPPM, "protect")
    _patch_method(tracer, "metrics.privacy", PoiRetrievalPrivacy, "evaluate")
    _patch_method(tracer, "metrics.utility", AreaCoverageUtility, "evaluate")
    _patch_function(tracer, "attacks.stay_points", staypoints,
                    "extract_stay_points", extra=_stay_point_records)
    _patch_function(tracer, "attacks.cluster", poi, "cluster_stay_points")
    _patch_get_or_compute(tracer, AnalysisCache)
    _patch_method(tracer, "analysis.spill.load", AnalysisSpill, "load")
    _patch_method(tracer, "analysis.spill.store", AnalysisSpill, "store")
    _patch_method(tracer, "lppm.online_push", OnlineProtector, "push")
    _patch_method(tracer, "streaming.update", SessionManager, "update")
    _patch_method(tracer, "streaming.metrics", ProtectionSession, "metrics")
    _patch_method(tracer, "streaming.flush", SessionManager, "close_session")

    real_exit = os._exit

    def flushing_exit(status):
        try:
            tracer.flush()
        except OSError:
            pass
        real_exit(status)

    os._exit = flushing_exit
    atexit.register(tracer.flush)
    return tracer
