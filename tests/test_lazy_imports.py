"""scipy loads only in processes that draw geo-I noise.

geo-I's polar Laplace radius is the one user of scipy (its Lambert W),
and ``_unit_q`` imports it on first use, so a daemon that only answers
from its caches never pays scipy's import time or memory.  Each test
runs a fresh interpreter: ``sys.modules`` of the test process is
already full.

A lazy import opens one hazard, pinned by :class:`TestImportBeforeFork`:
a pool forked while another thread is inside that import hands its
workers a half-initialised module whose import lock no thread of theirs
holds, so their first draw hangs.  ``ProcessPoolBackend._pool_of``
finishes the import before it forks.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(program: str, *args: str, timeout: float = 120.0) -> str:
    """Run ``program`` in a fresh interpreter; its stdout, stripped.

    The child gets its own session so that pool workers it leaves
    behind (hung ones, on purpose) are killed with it.  Its output goes
    to files, not pipes: such a worker holds a pipe's write end open.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        process = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(program), *args],
            env=env, stdout=out, stderr=err, start_new_session=True,
        )
        try:
            process.wait(timeout=timeout)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        out.seek(0)
        err.seek(0)
        assert process.returncode == 0, err.read()
        return out.read().strip()


def test_importing_the_cli_leaves_scipy_out():
    out = _run("""
        import sys
        import repro.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out == "[]"


def test_a_warm_service_never_loads_scipy(tmp_path):
    """/healthz and a /sweep answered from a primed disk cache."""
    program = """
        import sys
        from repro.service import ConfigService, ServiceClient

        with ServiceClient(ConfigService(shared_dir=sys.argv[1])) as client:
            assert client.healthz()["status"] == "ok"
            sweep = client.sweep({"workload": "taxi", "users": 2, "seed": 7},
                                 points=3, replications=1)
        print(sweep["engine"]["executions_this_request"],
              "scipy" in sys.modules)
    """
    assert _run(program, str(tmp_path)) == "3 True"  # priming draws noise
    assert _run(program, str(tmp_path)) == "0 False"


def test_one_geo_ind_protect_loads_scipy():
    out = _run("""
        import sys
        from repro.lppm import GeoIndistinguishability
        from repro.synth import TaxiFleetConfig, generate_taxi_fleet

        fleet = generate_taxi_fleet(TaxiFleetConfig(n_cabs=1, seed=3))
        before = "scipy.special" in sys.modules
        GeoIndistinguishability(epsilon=0.01).protect(fleet, seed=0)
        print(before, "scipy.special" in sys.modules)
    """)
    assert out == "False True"


# A thread starts importing scipy.special and stalls inside it (a
# meta-path finder waits on the first scipy.special submodule) while
# the main thread runs a geo-I batch on a fresh two-worker pool.  The
# stall ends as soon as the pool has forked, or after STALL_S when
# nothing forks (the guard keeps the main thread waiting on the import
# lock).  The batch runs on a daemon thread so that a hang is reported
# as "hung" after ``bound_s`` instead of blocking the interpreter's exit.
_FORK_DURING_IMPORT = """
    import os, sys, threading
    from repro.engine import EvalJob, EvaluationEngine, backends
    from repro.framework import geo_ind_system
    from repro.synth import TaxiFleetConfig, generate_taxi_fleet

    guarded, bound_s = sys.argv[1] == "guarded", float(sys.argv[2])
    STALL_S = 1.0
    if not guarded:
        backends._import_before_fork = lambda: None
    inside, forked, done = (threading.Event() for _ in range(3))
    os.register_at_fork(after_in_parent=forked.set)

    class Stall:
        def find_spec(self, name, path=None, target=None):
            if name.startswith("scipy.special.") and not inside.is_set():
                inside.set()
                forked.wait(STALL_S)
            return None

    fleet = generate_taxi_fleet(TaxiFleetConfig(n_cabs=2, seed=5))
    jobs = [EvalJob.make({"epsilon": 0.002 * (i + 1)}, seed=i % 2)
            for i in range(4)]
    sys.meta_path.insert(0, Stall())
    threading.Thread(target=__import__, args=("scipy.special",)).start()
    inside.wait()

    def batch():
        with EvaluationEngine(engine="process", jobs=2) as engine:
            engine.run(geo_ind_system(), fleet, jobs)
        done.set()

    threading.Thread(target=batch, daemon=True).start()
    print("finished" if done.wait(bound_s) else "hung", flush=True)
    os._exit(0)
"""


class TestImportBeforeFork:
    def test_pool_forked_after_the_import_finishes(self):
        assert _run(_FORK_DURING_IMPORT, "guarded", "90") == "finished"

    def test_without_the_guard_the_workers_hang(self):
        """The hazard itself: drop the guard and the batch never ends.

        A correct batch of 4 jobs takes well under a second, so 5 s
        without a result is a hang (it never ends at all).
        """
        assert _run(_FORK_DURING_IMPORT, "unguarded", "5") == "hung"
