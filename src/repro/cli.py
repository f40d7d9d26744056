"""Command-line interface: ``repro-lppm <command>``.

The commands cover the library's workflow end to end:

* ``generate`` — synthesise a dataset (taxi fleet or commuters) to CSV;
* ``protect``  — apply an LPPM to a CSV dataset;
* ``sweep``    — run the framework's parameter sweep and print/save the
  response curves (the data behind the paper's Figure 1);
* ``configure``— fit the model and invert it at privacy/utility
  objectives (the paper's three automated steps in one command);
* ``attack``   — run the POI attack (and, given a protected file, the
  retrieval and re-identification measurements) against a dataset;
* ``alp``      — configure via the ALP greedy baseline instead;
* ``stats``    — dataset and per-user statistics;
* ``list``     — available mechanisms and metrics;
* ``serve``    — run the long-lived configuration service (JSON over
  HTTP, one shared engine and warm cache across all requests; see
  docs/service.md);
* ``job``      — drive a running daemon's async jobs: ``submit`` a
  sweep/configure/recommend body, ``status``/``wait``/``cancel`` it;
* ``stream``   — replay a CSV trace file against a running daemon's
  live ``/stream`` endpoints, one session per user, and print the
  final sliding-window metrics (see docs/streaming.md);
* ``datasets`` — the scenario registry: ``list`` named scenarios,
  ``show`` one (optionally resolving it), ``register`` a new one —
  locally, or on a running daemon with ``--url`` (see
  docs/datasets.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__
from .attacks import extract_pois, reidentify, retrieved_fraction
from .engine import ENGINE_CHOICES, EvaluationEngine
from .framework import (
    Configurator,
    ExperimentRunner,
    Objective,
    alp_configure,
    geo_ind_system,
)
from .lppm import available_lppms, lppm_class, primary_param
from .metrics import available_metrics
from .mobility import (
    dataset_stats,
    iter_csv_records,
    read_csv,
    trace_stats,
    write_csv,
)
from .report import (
    format_table,
    model_summary,
    recommendation_summary,
    sweep_table,
)
from .scenarios import SCENARIO_KINDS, ScenarioSpec, default_registry
from .service.handlers import SCHEMAS

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _port(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError("port must be in 0-65535")
    return value


def _add_engine_options(cmd: argparse.ArgumentParser) -> None:
    """Evaluation-engine knobs shared by every sweeping command."""
    cmd.add_argument(
        "--engine", choices=list(ENGINE_CHOICES), default="auto",
        help="execution backend: serial, process pool, or auto "
             "(pool for batches with more than one uncached job; default)",
    )
    cmd.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes for the process backend (default: CPU count)",
    )
    cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache directory; re-running the same "
             "sweep against it performs zero new evaluations",
    )


#: Help of the options whose defaults the service's request schemas own.
_SCHEMA_OPTIONS = {
    "lppm": "mechanism name",
    "param": "the mechanism's parameter value",
    "seed": "protection seed",
    "points": "sweep resolution",
    "replications": "seeds per point",
}


def _add_schema_options(cmd: argparse.ArgumentParser, endpoint: str,
                        *names: str) -> None:
    """Options defaulting to what ``endpoint``'s schema fills in."""
    for name in names:
        field = SCHEMAS[endpoint][name]
        kind = ({"choices": available_lppms()} if name == "lppm"
                else {"type": field.type})
        cmd.add_argument(f"--{name}", default=field.default, **kind,
                         help=f"{_SCHEMA_OPTIONS[name]} (default: %(default)s)")


def _engine_from(args: argparse.Namespace) -> EvaluationEngine:
    return EvaluationEngine(
        engine=args.engine, jobs=args.jobs, cache_dir=args.cache_dir
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-lppm",
        description="Automated configuration of location privacy mechanisms",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a mobility dataset")
    gen.add_argument("output", help="CSV file to write")
    gen.add_argument(
        "--workload", choices=["taxi", "commuters"], default="taxi",
        help="generator to use (default: taxi)",
    )
    gen.add_argument("--users", type=int, default=20, help="number of users")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")

    prot = sub.add_parser("protect", help="apply an LPPM to a CSV dataset")
    prot.add_argument("input", help="CSV dataset to protect")
    prot.add_argument("output", help="CSV file to write")
    _add_schema_options(prot, "POST /protect", "lppm", "param", "seed")

    sweep = sub.add_parser("sweep", help="sweep epsilon and print the curves")
    sweep.add_argument("input", help="CSV dataset to analyse")
    _add_schema_options(sweep, "POST /sweep", "points", "replications")
    sweep.add_argument("--csv", help="also write the sweep to this CSV file")
    _add_engine_options(sweep)

    conf = sub.add_parser("configure", help="fit the model and invert objectives")
    conf.add_argument("input", help="CSV dataset to analyse")
    conf.add_argument(
        "--max-privacy", type=float, default=0.1,
        help="privacy objective: retrieved POI fraction at most this "
             "(default: 0.1, the paper's example)",
    )
    conf.add_argument(
        "--min-utility", type=float, default=0.8,
        help="utility objective: area coverage at least this "
             "(default: 0.8, the paper's example)",
    )
    _add_schema_options(conf, "POST /configure", "points", "replications")
    _add_engine_options(conf)

    attack = sub.add_parser("attack", help="run the POI attack on a dataset")
    attack.add_argument("input", help="CSV dataset (the ground truth)")
    attack.add_argument(
        "--protected",
        help="protected CSV; adds POI retrieval and re-identification measures",
    )

    alp = sub.add_parser("alp", help="configure via the ALP greedy baseline")
    alp.add_argument("input", help="CSV dataset to configure for")
    alp.add_argument("--max-privacy", type=float, default=0.1,
                     help="privacy objective (default: 0.1)")
    alp.add_argument("--min-utility", type=float, default=0.8,
                     help="utility objective (default: 0.8)")
    alp.add_argument("--start", type=float, default=0.01,
                     help="initial epsilon (default: 0.01)")
    _add_engine_options(alp)

    stats = sub.add_parser("stats", help="dataset and per-user statistics")
    stats.add_argument("input", help="CSV dataset to describe")

    sub.add_parser("list", help="available mechanisms and metrics")

    srv = sub.add_parser(
        "serve",
        help="run the long-lived configuration service (JSON over HTTP)",
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: loopback; the service "
                          "trusts its clients — path dataset specs read "
                          "server-side files — so front non-loopback "
                          "binds with an authenticating proxy)")
    srv.add_argument("--port", type=_port, default=8080,
                     help="TCP port; 0 picks a free one (default: 8080)")
    srv.add_argument("--workers", type=_positive_int, default=2, metavar="N",
                     help="async job worker threads (default: 2); sweeps "
                          "submitted to POST /jobs run on these, off the "
                          "request path")
    srv.add_argument("--processes", type=_positive_int, default=1,
                     metavar="N",
                     help="pre-fork worker processes (default: 1); N > 1 "
                          "binds the port once, forks N full service "
                          "workers sharing the result cache and job "
                          "store under --cache-dir "
                          "(a temporary directory when unset), and "
                          "restarts any worker that crashes")
    srv.add_argument("--job-ttl", type=float, default=600.0, metavar="S",
                     help="seconds a finished job stays pollable "
                          "(default: 600)")
    srv.add_argument("--grace", type=float, default=10.0, metavar="S",
                     help="shutdown grace period for in-flight jobs on "
                          "SIGTERM/SIGINT (default: 10)")
    srv.add_argument("--api-keys", metavar="FILE", default=None,
                     help="API-key file (one key:tenant per line; blank "
                          "lines and # comments ignored); configuring "
                          "keys denies keyless requests unless "
                          "--allow-anonymous is also given")
    srv.add_argument("--allow-anonymous", action="store_true", default=None,
                     help="serve keyless requests as tenant 'anonymous' "
                          "even when --api-keys is configured")
    srv.add_argument("--rate-limit", type=float, default=None, metavar="RPS",
                     help="per-tenant request rate limit in requests/s "
                          "(default: unlimited); excess requests get a "
                          "typed 429 with Retry-After")
    srv.add_argument("--burst", type=_positive_int, default=None, metavar="N",
                     help="token-bucket burst size (default: max(1, "
                          "--rate-limit))")
    srv.add_argument("--tenant-jobs", type=_positive_int, default=None,
                     metavar="N",
                     help="max live (queued+running) async jobs per tenant "
                          "(default: unlimited)")
    srv.add_argument("--max-in-flight", type=_positive_int, default=None,
                     metavar="N",
                     help="max concurrent requests per worker before the "
                          "load shedder answers a typed 503 with "
                          "Retry-After (default: unlimited)")
    srv.add_argument("--fault-spec", default=None, metavar="SPEC",
                     help="chaos testing: arm fault points in this "
                          "process and every child, e.g. "
                          "'pool.crash:1,disk.write:100:partial' "
                          "(point:count[:value], comma-separated; "
                          "count '*' = always)")
    _add_engine_options(srv)

    job = sub.add_parser(
        "job",
        help="submit/inspect async jobs on a running daemon",
    )
    job_sub = job.add_subparsers(dest="job_command", required=True)

    def _add_url(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--url", default="http://127.0.0.1:8080",
                         help="daemon base URL "
                              "(default: http://127.0.0.1:8080)")
        cmd.add_argument("--api-key", default=None,
                         help="X-API-Key for daemons started with "
                              "--api-keys (default: none)")

    job_submit = job_sub.add_parser(
        "submit", help="enqueue a sweep/configure/recommend job")
    job_submit.add_argument(
        "endpoint", choices=["sweep", "configure", "recommend"],
        help="which evaluation endpoint the job runs",
    )
    body = job_submit.add_mutually_exclusive_group(required=True)
    body.add_argument("--body", metavar="JSON",
                      help="request body as inline JSON (what the sync "
                           "endpoint would take)")
    body.add_argument("--body-file", metavar="PATH",
                      help="request body from a JSON file ('-' for stdin)")
    job_submit.add_argument("--wait", action="store_true",
                            help="poll until the job finishes and print "
                                 "its final snapshot")
    job_submit.add_argument("--timeout", type=float, default=600.0,
                            metavar="S",
                            help="--wait deadline in seconds (default: 600)")
    _add_url(job_submit)

    job_status = job_sub.add_parser("status", help="one job's status")
    job_status.add_argument("job_id", help="the id POST /jobs returned")
    _add_url(job_status)

    job_wait = job_sub.add_parser(
        "wait", help="poll with backoff until a job finishes")
    job_wait.add_argument("job_id", help="the id POST /jobs returned")
    job_wait.add_argument("--timeout", type=float, default=600.0, metavar="S",
                          help="deadline in seconds (default: 600)")
    _add_url(job_wait)

    job_cancel = job_sub.add_parser(
        "cancel", help="cancel a queued or running job")
    job_cancel.add_argument("job_id", help="the id POST /jobs returned")
    _add_url(job_cancel)

    job_list = job_sub.add_parser("list", help="live jobs + pool counters")
    _add_url(job_list)

    stream = sub.add_parser(
        "stream",
        help="replay a CSV trace file against a daemon's live "
             "/stream endpoints",
    )
    stream.add_argument("input",
                        help="CSV trace file (user,time_s,lat,lon) to "
                             "replay in on-disk record order")
    stream.add_argument("--session", default=None, metavar="NAME",
                        help="session name prefix (default: the input "
                             "file's stem); each user streams as "
                             "<prefix>.<user>")
    _add_schema_options(stream, "POST /stream/<session>",
                        "lppm", "param", "seed")
    stream.add_argument("--window", type=float, default=None, metavar="S",
                        help="sliding metrics window in seconds "
                             "(default: the server's, 3600)")
    stream.add_argument("--batch", type=_positive_int, default=64,
                        metavar="N",
                        help="records per POST chunk (default: 64)")
    stream.add_argument("--keep-open", action="store_true",
                        help="leave the sessions live on the daemon "
                             "instead of closing them after the replay")
    stream.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    _add_url(stream)

    datasets = sub.add_parser(
        "datasets",
        help="the scenario registry: named, parameterised datasets",
    )
    ds_sub = datasets.add_subparsers(dest="datasets_command", required=True)

    def _add_ds_common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--url", default=None, metavar="URL",
                         help="operate on a running daemon's registry "
                              "instead of the local built-ins")
        cmd.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")

    ds_list = ds_sub.add_parser(
        "list", help="registered scenarios (local, or a daemon's)")
    _add_ds_common(ds_list)

    ds_show = ds_sub.add_parser(
        "show", help="one scenario's spec, fingerprint and shape")
    ds_show.add_argument("name", help="scenario name")
    ds_show.add_argument("--resolve", action="store_true",
                         help="also resolve the dataset and report its "
                              "users/records (local only; may generate "
                              "or read data)")
    _add_ds_common(ds_show)

    ds_register = ds_sub.add_parser(
        "register",
        help="register a scenario on a daemon (--url), or validate and "
             "resolve it locally as a dry run",
    )
    ds_register.add_argument("name", help="scenario name to register")
    ds_register.add_argument(
        "--kind", required=True, choices=list(SCENARIO_KINDS),
        help="generator family or on-disk format",
    )
    ds_register.add_argument(
        "--params", metavar="JSON", default=None,
        help="kind parameters as JSON, e.g. "
             "'{\"users\": 5, \"seed\": 42}' or '{\"path\": \"dir/\"}'",
    )
    ds_register.add_argument("--description", default="",
                             help="free-text description for listings")
    ds_register.add_argument("--replace", action="store_true",
                             help="redefine the name if it exists with a "
                                  "different spec")
    _add_ds_common(ds_register)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = ScenarioSpec.make(
        args.workload, args.workload, {"users": args.users, "seed": args.seed}
    ).resolve()
    write_csv(dataset, args.output)
    print(f"wrote {dataset.n_records} records for {len(dataset)} users to {args.output}")
    return 0


def _cmd_protect(args: argparse.Namespace) -> int:
    dataset = read_csv(args.input)
    param_name = primary_param(args.lppm)
    lppm = lppm_class(args.lppm)(**{param_name: args.param})
    protected = lppm.protect(dataset, seed=args.seed)
    write_csv(protected, args.output)
    print(f"protected {len(dataset)} users with {lppm!r} -> {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = read_csv(args.input)
    engine = _engine_from(args)
    configurator = Configurator(
        geo_ind_system(), dataset,
        n_points=args.points, n_replications=args.replications,
        engine=engine,
    )
    model = configurator.fit()
    print(sweep_table(configurator.sweep))
    print()
    print(model_summary(model))
    print(f"\nengine: {engine.counters.read()}")
    if args.csv:
        configurator.sweep.write_csv(args.csv)
        print(f"sweep written to {args.csv}")
    return 0


def _cmd_configure(args: argparse.Namespace) -> int:
    objectives = [
        Objective("privacy", "<=", args.max_privacy),
        Objective("utility", ">=", args.min_utility),
    ]
    dataset = read_csv(args.input)
    configurator = Configurator(
        geo_ind_system(), dataset,
        n_points=args.points, n_replications=args.replications,
        engine=_engine_from(args),
    )
    model = configurator.fit()
    print(model_summary(model))
    recommendation = configurator.recommend(objectives)
    print()
    print(recommendation_summary(recommendation))
    return 0 if recommendation.feasible else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    dataset = read_csv(args.input)
    pois_by_user = {u: extract_pois(t) for u, t in dataset.items()}
    rows = [
        (u, len(t), len(pois_by_user[u]))
        for u, t in dataset.items()
    ]
    print(format_table(["user", "records", "POIs found"], rows))
    if not args.protected:
        return 0
    protected = read_csv(args.protected)
    common = [u for u in dataset.users if u in protected]
    if not common:
        print("no users in common with the protected dataset")
        return 1
    retrieval_rows = []
    for user in common:
        found = extract_pois(protected[user])
        actual = pois_by_user[user]
        if not actual:
            continue
        retrieval_rows.append(
            (user, f"{retrieved_fraction(actual, found):.2f}")
        )
    print()
    print(format_table(["user", "POIs retrieved"], retrieval_rows))
    result = reidentify(dataset.subset(common), protected.subset(common))
    print(f"\nre-identification: {result.n_correct}/{result.n_total} "
          f"users linked ({result.rate:.0%})")
    return 0


def _cmd_alp(args: argparse.Namespace) -> int:
    dataset = read_csv(args.input)
    system = geo_ind_system()
    runner = ExperimentRunner(
        system, dataset, n_replications=1, engine=_engine_from(args)
    )
    objectives = [
        Objective("privacy", "<=", args.max_privacy),
        Objective("utility", ">=", args.min_utility),
    ]
    result = alp_configure(system, runner, objectives, initial=args.start)
    rows = [
        (i, f"{s.value:.4g}", f"{s.privacy:.3f}", f"{s.utility:.3f}")
        for i, s in enumerate(result.trajectory)
    ]
    print(format_table(["step", "epsilon", "privacy", "utility"], rows))
    if result.satisfied:
        print(f"\nconverged: epsilon = {result.final_value:.4g} "
              f"after {result.n_evaluations} evaluations")
        return 0
    print(f"\ndid not converge within {result.n_evaluations} evaluations")
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = read_csv(args.input)
    aggregate = dataset_stats(dataset)
    print(format_table(
        ["statistic", "value"],
        [(k, f"{v:.4g}") for k, v in aggregate.items()],
    ))
    print()
    rows = []
    for trace in dataset.traces:
        s = trace_stats(trace)
        rows.append((
            s.user, s.n_records, f"{s.duration_s / 3600.0:.1f} h",
            f"{s.length_m / 1000.0:.1f} km",
            f"{s.radius_of_gyration_m:.0f} m",
        ))
    print(format_table(
        ["user", "records", "duration", "length", "radius of gyration"], rows
    ))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("mechanisms:")
    for name in available_lppms():
        try:
            param = primary_param(name)
        except ValueError:
            # A user-registered mechanism with an exotic constructor
            # must not abort the listing.
            param = "?"
        print(f"  {name}  (parameter: {param})")
    print("metrics:")
    for name in available_metrics():
        print(f"  {name}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: only the daemon needs the service package.
    from .service import ApiKeyStore, serve

    api_keys = None
    if args.api_keys is not None:
        try:
            api_keys = ApiKeyStore.from_file(args.api_keys)
        except FileNotFoundError:
            print(f"error: no such API-key file: {args.api_keys}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if len(api_keys) == 0:
            print(f"error: API-key file {args.api_keys} defines no keys",
                  file=sys.stderr)
            return 2
    if args.burst is not None and args.rate_limit is None:
        print("error: --burst requires --rate-limit", file=sys.stderr)
        return 2
    if args.rate_limit is not None and args.rate_limit <= 0:
        print("error: --rate-limit must be positive", file=sys.stderr)
        return 2
    if args.fault_spec is not None:
        from .resilience.faults import parse_spec

        try:
            parse_spec(args.fault_spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    # Multi-process mode needs shared on-disk state (result cache,
    # cross-process job store), and serve() refuses it without one.
    # --cache-dir doubles as that root; without it a temporary directory
    # holds both the engine's cache and the workers' shared state for
    # this run, and is removed on exit.
    cache_dir = args.cache_dir
    tmp_root = None
    if args.processes > 1 and cache_dir is None:
        import tempfile

        tmp_root = tempfile.mkdtemp(prefix="repro-lppm-serve-")
        cache_dir = tmp_root
    engine = EvaluationEngine(
        engine=args.engine, jobs=args.jobs, cache_dir=cache_dir
    )
    try:
        return serve(
            host=args.host,
            port=args.port,
            engine=engine,
            workers=args.workers,
            job_ttl_s=args.job_ttl,
            grace_s=args.grace,
            api_keys=api_keys,
            allow_anonymous=args.allow_anonymous,
            rate_limit_rps=args.rate_limit,
            rate_limit_burst=args.burst,
            max_jobs_per_tenant=args.tenant_jobs,
            processes=args.processes,
            # Whenever there is a cache directory, share it: a
            # restarted single-process daemon then starts warm too.
            shared_dir=cache_dir,
            max_in_flight=args.max_in_flight,
            fault_spec=args.fault_spec,
        )
    finally:
        if tmp_root is not None:
            import shutil

            shutil.rmtree(tmp_root, ignore_errors=True)


def _cmd_job(args: argparse.Namespace) -> int:
    """Drive a running daemon's async-job endpoints; prints JSON."""
    import json

    from .service import HttpServiceClient, ServiceClientError

    client = HttpServiceClient(args.url, api_key=args.api_key)

    def emit(payload: dict) -> None:
        print(json.dumps(payload, indent=2, sort_keys=True))

    try:
        if args.job_command == "submit":
            if args.body is not None:
                raw = args.body
            elif args.body_file == "-":
                raw = sys.stdin.read()
            else:
                with open(args.body_file, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            try:
                body = json.loads(raw)
            except ValueError as exc:
                print(f"error: body is not valid JSON: {exc}",
                      file=sys.stderr)
                return 2
            if not isinstance(body, dict):
                print("error: body must be a JSON object", file=sys.stderr)
                return 2
            submitted = client.submit(args.endpoint, body)
            if not args.wait:
                emit(submitted)
                return 0
            emit(client.wait(submitted["job_id"], timeout_s=args.timeout))
            return 0
        if args.job_command == "status":
            emit(client.status(args.job_id))
            return 0
        if args.job_command == "wait":
            emit(client.wait(args.job_id, timeout_s=args.timeout))
            return 0
        if args.job_command == "cancel":
            emit(client.cancel(args.job_id))
            return 0
        emit(client.jobs())
        return 0
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _cmd_stream(args: argparse.Namespace) -> int:
    """Replay a CSV trace file as live streams against a daemon.

    Records are read in on-disk order through the record-iterator layer
    (never materialising the file), buffered per user, and POSTed as
    chunks of at most ``--batch`` records — the transport's form of a
    chunked live stream.  Each user gets their own tenant-namespaced
    session; the final sliding-window metrics print at the end.
    """
    import json

    from .service import HttpServiceClient, ServiceClientError

    client = HttpServiceClient(args.url, api_key=args.api_key)
    base = args.session or os.path.splitext(os.path.basename(args.input))[0]
    buffers: dict = {}
    order: List[str] = []

    def session_name(user: str) -> str:
        # Session names are path segments; user ids are free-form.
        return f"{base}.{user}".replace("/", "_")

    def push(user: str) -> None:
        batch = buffers[user]
        if not batch:
            return
        client.stream_update(
            session_name(user), batch, lppm=args.lppm, param=args.param,
            seed=args.seed, user=user, window_s=args.window,
        )
        buffers[user] = []

    try:
        for user, t, lat, lon in iter_csv_records(args.input):
            if user not in buffers:
                buffers[user] = []
                order.append(user)
            buffers[user].append([t, lat, lon])
            if len(buffers[user]) >= args.batch:
                push(user)
        results = []
        for user in order:
            push(user)
            if args.keep_open:
                final = client.stream_metrics(session_name(user))
            else:
                final = client.stream_close(session_name(user))["final"]
            results.append({
                "session": session_name(user),
                "user": user,
                "updates": final["updates"],
                "released": final["released"],
                "dropped": final["dropped"],
                "window": final["window"],
            })
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"sessions": results}, indent=2, sort_keys=True))
        return 0
    rows = []
    for r in results:
        window = r["window"]
        rows.append((
            r["session"], r["updates"], r["released"], r["dropped"],
            f"{window.get('distortion_m', float('nan')):.1f}",
            f"{window.get('coverage_f1', float('nan')):.2f}",
            window.get("pois", 0),
        ))
    print(format_table(
        ["session", "updates", "released", "dropped",
         "distortion (m)", "coverage F1", "POIs"],
        rows,
    ))
    state = "left open" if args.keep_open else "closed"
    print(f"\n{len(results)} sessions {state} on {args.url}")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    """The scenario registry: list / show / register."""
    import json

    from .service import HttpServiceClient, ServiceClientError

    def emit(payload) -> None:
        print(json.dumps(payload, indent=2, sort_keys=True))

    def scenario_rows(scenarios: List[dict]) -> int:
        print(format_table(
            ["name", "kind", "params", "description"],
            [
                (
                    s["name"], s["kind"],
                    json.dumps(s["params"], sort_keys=True),
                    s.get("description", ""),
                )
                for s in scenarios
            ],
        ))
        return 0

    try:
        if args.datasets_command == "list":
            if args.url:
                listing = HttpServiceClient(args.url).datasets()
                scenarios = listing["scenarios"]
            else:
                scenarios = [
                    s.to_jsonable() for s in default_registry().specs()
                ]
            if args.json:
                emit({"scenarios": scenarios})
                return 0
            return scenario_rows(scenarios)

        if args.datasets_command == "show":
            if args.url and args.resolve:
                # The daemon's spec may name server-side paths (or
                # generate large data); resolving it on this machine
                # would be misleading at best.
                print("error: --resolve is local-only and cannot be "
                      "combined with --url", file=sys.stderr)
                return 2
            if args.url:
                listing = HttpServiceClient(args.url).datasets()
                matches = [
                    s for s in listing["scenarios"]
                    if s["name"] == args.name
                ]
                if not matches:
                    print(f"error: no scenario named {args.name!r}",
                          file=sys.stderr)
                    return 2
                payload = matches[0]
                spec = None
            else:
                try:
                    spec = default_registry().get(args.name)
                except KeyError as exc:
                    print(f"error: {exc.args[0]}", file=sys.stderr)
                    return 2
                payload = spec.to_jsonable()
            if args.resolve:
                dataset = default_registry().resolve_spec(spec)
                payload = dict(
                    payload,
                    users=len(dataset),
                    records=dataset.n_records,
                    fingerprint=spec.fingerprint(),
                )
            if args.json:
                emit(payload)
                return 0
            for key in ("name", "kind", "description"):
                print(f"{key}: {payload.get(key, '')}")
            print(f"params: {json.dumps(payload['params'], sort_keys=True)}")
            if args.resolve:
                print(f"users: {payload['users']}")
                print(f"records: {payload['records']}")
                print(f"fingerprint: {payload['fingerprint']}")
            return 0

        # register
        params = {}
        if args.params is not None:
            try:
                params = json.loads(args.params)
            except ValueError as exc:
                print(f"error: --params is not valid JSON: {exc}",
                      file=sys.stderr)
                return 2
            if not isinstance(params, dict):
                print("error: --params must be a JSON object",
                      file=sys.stderr)
                return 2
        if args.url:
            result = HttpServiceClient(args.url).register_dataset(
                args.name, args.kind, params,
                description=args.description, replace=args.replace,
            )
            if args.json:
                emit(result)
            else:
                print(f"registered {args.name!r} "
                      f"({result['scenarios']} scenarios on the daemon)")
            return 0
        # No daemon: validate the spec and resolve it once, so a typo'd
        # registration fails here instead of in some later request.
        spec = ScenarioSpec.make(
            args.name, args.kind, params, args.description
        )
        default_registry().register(spec, replace=args.replace)
        dataset = default_registry().resolve_spec(spec)
        if args.json:
            emit(dict(
                spec.to_jsonable(),
                users=len(dataset),
                records=dataset.n_records,
                fingerprint=spec.fingerprint(),
            ))
        else:
            print(f"validated {args.name!r}: {len(dataset)} users, "
                  f"{dataset.n_records} records "
                  "(local registration lasts this process only; use "
                  "--url to register on a daemon)")
        return 0
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Operator mistakes (missing files, parameter values a mechanism
    rejects, unusable ports) exit with code 2 and a one-line message
    instead of a traceback; exit code 1 keeps its meaning of "ran,
    objectives not met".  The catch is deliberately at the dispatch
    level — the message still names the cause — but a truncated
    consumer (``| head``) is not an error, and ``REPRO_DEBUG=1``
    re-raises for the full traceback when an internal bug is
    suspected.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "protect": _cmd_protect,
        "sweep": _cmd_sweep,
        "configure": _cmd_configure,
        "attack": _cmd_attack,
        "alp": _cmd_alp,
        "stats": _cmd_stats,
        "list": _cmd_list,
        "serve": _cmd_serve,
        "job": _cmd_job,
        "stream": _cmd_stream,
        "datasets": _cmd_datasets,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout's consumer went away (e.g. `... | head`); standard
        # Unix behaviour is a quiet non-zero exit, not an error.
        return 1
    except (OSError, ValueError) as exc:
        # Covers missing/unreadable files, ports already in use or
        # unresolvable bind addresses, and parameter values the
        # mechanisms reject.
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
