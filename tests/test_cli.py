"""End-to-end tests of the command-line interface."""

import pytest

import repro
from repro.cli import build_parser, main
from repro.mobility import read_csv


@pytest.fixture
def taxi_csv(tmp_path):
    path = tmp_path / "taxi.csv"
    code = main(["generate", str(path), "--workload", "taxi", "--users", "3",
                 "--seed", "1"])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_lppm_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["protect", "in.csv", "out.csv", "--lppm", "nope"]
            )

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_invalid_engine_value_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", "in.csv", "--engine", "gpu"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8080)
        assert args.engine == "auto"

    @pytest.mark.parametrize("port", ["99999", "-1", "http"])
    def test_serve_rejects_bad_ports(self, port, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--port", port])
        assert excinfo.value.code == 2
        assert "port" in capsys.readouterr().err

    def test_serve_accepts_engine_options(self):
        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0",
            "--engine", "serial", "--jobs", "2", "--cache-dir", "/tmp/c",
        ])
        assert args.port == 0
        assert args.jobs == 2

    def test_serve_worker_pool_options(self):
        args = build_parser().parse_args(["serve"])
        assert (args.workers, args.job_ttl, args.grace) == (2, 600.0, 10.0)
        args = build_parser().parse_args(
            ["serve", "--workers", "4", "--job-ttl", "30", "--grace", "2"]
        )
        assert (args.workers, args.job_ttl, args.grace) == (4, 30.0, 2.0)

    def test_serve_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_processes_default_and_parse(self):
        assert build_parser().parse_args(["serve"]).processes == 1
        args = build_parser().parse_args(["serve", "--processes", "4"])
        assert args.processes == 4

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_serve_rejects_bad_process_counts(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--processes", value])
        assert excinfo.value.code == 2
        assert "--processes" in capsys.readouterr().err

    def test_job_submit_requires_a_body_source(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["job", "submit", "sweep"])
        assert excinfo.value.code == 2
        assert "--body" in capsys.readouterr().err

    def test_job_submit_rejects_unknown_endpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["job", "submit", "protect", "--body", "{}"]
            )

    def test_job_subcommands_parse(self):
        args = build_parser().parse_args(
            ["job", "wait", "job-x-1", "--timeout", "5",
             "--url", "http://localhost:9"]
        )
        assert args.job_command == "wait"
        assert args.job_id == "job-x-1"
        assert args.timeout == 5.0
        assert build_parser().parse_args(["job", "list"]).job_command == \
            "list"


class TestErrorPaths:
    """Operator mistakes exit 2 with a message, never a traceback."""

    def test_missing_input_file(self, capsys):
        code = main(["stats", "/no/such/input.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "input.csv" in err

    def test_missing_input_file_sweep(self, capsys):
        assert main(["sweep", "/no/such/file.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_param_value(self, taxi_csv, tmp_path, capsys):
        code = main([
            "protect", str(taxi_csv), str(tmp_path / "out.csv"),
            "--lppm", "geo_ind", "--param", "-1.0",
        ])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_bad_param_value_subsampling(self, taxi_csv, tmp_path, capsys):
        code = main([
            "protect", str(taxi_csv), str(tmp_path / "out.csv"),
            "--lppm", "subsampling", "--param", "7.0",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_infinite_param_is_refused(self, taxi_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["protect", str(taxi_csv), str(out), "--param", "inf"])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_objective_is_refused_before_the_fit(self, taxi_csv,
                                                      capsys):
        code = main(["configure", str(taxi_csv), "--max-privacy", "nan"])
        assert code == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_request_defaults_come_from_the_service_schema(self):
        from repro.service.handlers import SCHEMAS

        parser = build_parser()
        sweep = parser.parse_args(["sweep", "in.csv"])
        protect = parser.parse_args(["protect", "in.csv", "out.csv"])
        fields = SCHEMAS["POST /sweep"]
        assert sweep.points == fields["points"].default
        assert sweep.replications == fields["replications"].default
        for name in ("lppm", "param", "seed"):
            assert getattr(protect, name) == \
                SCHEMAS["POST /protect"][name].default

    def test_serve_port_already_in_use(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_broken_pipe_is_quiet_exit_1(self, monkeypatch, capsys):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module, "_cmd_list",
            lambda args: (_ for _ in ()).throw(BrokenPipeError()),
        )
        assert main(["list"]) == 1
        assert capsys.readouterr().err == ""

    def test_repro_debug_reraises(self, taxi_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        with pytest.raises(ValueError):
            main(["protect", str(taxi_csv), str(tmp_path / "o.csv"),
                  "--param", "-1.0"])

    def test_unreadable_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,valid,header\n1,2,3,4\n")
        assert main(["stats", str(bad)]) == 2
        assert "header" in capsys.readouterr().err


class TestGenerate:
    def test_taxi_csv_readable(self, taxi_csv):
        dataset = read_csv(taxi_csv)
        assert len(dataset) == 3
        assert dataset.n_records > 100

    def test_commuters(self, tmp_path, capsys):
        path = tmp_path / "commuters.csv"
        assert main(["generate", str(path), "--workload", "commuters",
                     "--users", "2"]) == 0
        assert len(read_csv(path)) == 2
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("workload", ["taxi", "commuters"])
    def test_csv_matches_the_direct_generator(self, tmp_path, workload):
        from repro.mobility import write_csv
        from repro.synth import (
            CommuterConfig,
            TaxiFleetConfig,
            generate_commuters,
            generate_taxi_fleet,
        )

        via_cli = tmp_path / "cli.csv"
        assert main(["generate", str(via_cli), "--workload", workload,
                     "--users", "3", "--seed", "4"]) == 0
        direct = tmp_path / "direct.csv"
        if workload == "taxi":
            dataset = generate_taxi_fleet(TaxiFleetConfig(n_cabs=3, seed=4))
        else:
            dataset = generate_commuters(CommuterConfig(n_users=3, seed=4))
        write_csv(dataset, direct)
        assert via_cli.read_bytes() == direct.read_bytes()


class TestProtect:
    def test_geo_ind_protection(self, taxi_csv, tmp_path):
        out = tmp_path / "protected.csv"
        code = main([
            "protect", str(taxi_csv), str(out),
            "--lppm", "geo_ind", "--param", "0.01", "--seed", "3",
        ])
        assert code == 0
        original = read_csv(taxi_csv)
        protected = read_csv(out)
        assert protected.users == original.users
        user = original.users[0]
        assert protected[user].lats.tolist() != original[user].lats.tolist()

    def test_every_registered_lppm_usable(self, taxi_csv, tmp_path):
        # keep_fraction must be in (0,1]; 0.5 works for all mechanisms'
        # scale parameters too.
        for lppm in ("gaussian", "uniform_disk", "rounding", "subsampling",
                     "time_perturbation"):
            out = tmp_path / f"{lppm}.csv"
            assert main([
                "protect", str(taxi_csv), str(out), "--lppm", lppm,
                "--param", "0.5",
            ]) == 0


class TestAttack:
    def test_poi_table(self, taxi_csv, capsys):
        assert main(["attack", str(taxi_csv)]) == 0
        out = capsys.readouterr().out
        assert "POIs found" in out

    def test_with_protected_reports_retrieval_and_linking(
        self, taxi_csv, tmp_path, capsys
    ):
        protected = tmp_path / "protected.csv"
        main(["protect", str(taxi_csv), str(protected), "--param", "0.001"])
        capsys.readouterr()
        assert main(["attack", str(taxi_csv), "--protected", str(protected)]) == 0
        out = capsys.readouterr().out
        assert "POIs retrieved" in out
        assert "re-identification" in out

    def test_disjoint_users_fail(self, taxi_csv, tmp_path, capsys):
        other = tmp_path / "other.csv"
        main(["generate", str(other), "--workload", "commuters", "--users", "2"])
        capsys.readouterr()
        assert main(["attack", str(taxi_csv), "--protected", str(other)]) == 1


class TestAlp:
    def test_trajectory_printed(self, taxi_csv, capsys):
        code = main([
            "alp", str(taxi_csv), "--max-privacy", "0.9",
            "--min-utility", "0.05", "--start", "0.01",
        ])
        out = capsys.readouterr().out
        assert "epsilon" in out
        assert code == 0  # loose objectives converge immediately


class TestStatsAndList:
    def test_stats(self, taxi_csv, capsys):
        assert main(["stats", str(taxi_csv)]) == 0
        out = capsys.readouterr().out
        assert "radius of gyration" in out
        assert "n_users" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "geo_ind" in out
        assert "promesse" in out
        assert "poi_retrieval" in out


class TestSweepAndConfigure:
    def test_sweep_prints_series(self, taxi_csv, tmp_path, capsys):
        csv_out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(taxi_csv), "--points", "5", "--replications", "1",
            "--csv", str(csv_out),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "privacy" in out
        assert "paper: 0.84" in out
        assert csv_out.exists()

    def test_configure_reports_recommendation(self, taxi_csv, capsys):
        code = main([
            "configure", str(taxi_csv), "--points", "6", "--replications", "1",
            "--max-privacy", "0.5", "--min-utility", "0.1",
        ])
        out = capsys.readouterr().out
        assert "epsilon" in out
        assert code in (0, 1)  # feasibility depends on the tiny dataset


class TestJobCommand:
    """The ``repro-lppm job`` subcommands against a live daemon."""

    @pytest.fixture
    def daemon_url(self):
        import threading

        from repro.service import ConfigService

        app = ConfigService(workers=1)
        server = app.make_server("127.0.0.1", 0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            app.close()
            thread.join(timeout=5)

    def test_submit_wait_status_cancel_flow(self, daemon_url, capsys):
        import json

        body = json.dumps({
            "dataset": {"workload": "taxi", "users": 3, "seed": 4},
            "points": 4, "replications": 1,
        })
        assert main(["job", "submit", "sweep", "--body", body,
                     "--url", daemon_url]) == 0
        submitted = json.loads(capsys.readouterr().out)
        job_id = submitted["job_id"]

        assert main(["job", "wait", job_id, "--url", daemon_url]) == 0
        final = json.loads(capsys.readouterr().out)
        assert final["status"] == "done"
        assert len(final["result"]["points"]) == 4

        assert main(["job", "status", job_id, "--url", daemon_url]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "done"

        assert main(["job", "cancel", job_id, "--url", daemon_url]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "done"

        assert main(["job", "list", "--url", daemon_url]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["by_status"].get("done") == 1

    def test_submit_wait_inline(self, daemon_url, capsys):
        import json

        body = json.dumps({
            "dataset": {"workload": "taxi", "users": 3, "seed": 5},
            "points": 4, "replications": 1,
        })
        assert main(["job", "submit", "sweep", "--body", body, "--wait",
                     "--url", daemon_url]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "done"

    def test_submit_body_file(self, daemon_url, tmp_path, capsys):
        import json

        body_file = tmp_path / "body.json"
        body_file.write_text(json.dumps({
            "dataset": {"workload": "taxi", "users": 3, "seed": 6},
            "points": 4, "replications": 1,
        }))
        assert main(["job", "submit", "sweep",
                     "--body-file", str(body_file),
                     "--url", daemon_url]) == 0
        assert "job_id" in json.loads(capsys.readouterr().out)

    def test_submit_invalid_json_body_exits_2(self, daemon_url, capsys):
        assert main(["job", "submit", "sweep", "--body", "{nope",
                     "--url", daemon_url]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_rejected_body_is_typed_error_exit_2(self, daemon_url, capsys):
        assert main(["job", "submit", "sweep", "--body", "{}",
                     "--url", daemon_url]) == 2
        assert "invalid-request" in capsys.readouterr().err

    def test_unknown_job_exit_2(self, daemon_url, capsys):
        assert main(["job", "status", "job-nope-9",
                     "--url", daemon_url]) == 2
        assert "job-not-found" in capsys.readouterr().err

    def test_daemon_down_is_clean_error(self, capsys):
        assert main(["job", "list", "--url", "http://127.0.0.1:9"]) == 2
        assert "error:" in capsys.readouterr().err


class TestDatasetsCommand:
    """The ``repro-lppm datasets`` subcommands, local and over HTTP."""

    @pytest.fixture
    def daemon_url(self):
        import threading

        from repro.service import ConfigService

        app = ConfigService(workers=1)
        server = app.make_server("127.0.0.1", 0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            app.close()
            thread.join(timeout=5)

    def test_list_shows_builtins(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        assert "taxi-small" in out and "commuters" in out

    def test_list_json(self, capsys):
        import json

        assert main(["datasets", "list", "--json"]) == 0
        names = [s["name"]
                 for s in json.loads(capsys.readouterr().out)["scenarios"]]
        assert "taxi" in names and "levy_flight" in names

    def test_show_known(self, capsys):
        assert main(["datasets", "show", "taxi-small"]) == 0
        out = capsys.readouterr().out
        assert "taxi-small" in out and '"users": 5' in out

    def test_show_unknown_exit_2(self, capsys):
        assert main(["datasets", "show", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_show_resolve_rejected_with_url(self, capsys):
        # --resolve is local-only: a daemon's spec may name paths that
        # exist only on the server.
        assert main(["datasets", "show", "taxi-small", "--resolve",
                     "--url", "http://127.0.0.1:9"]) == 2
        assert "local-only" in capsys.readouterr().err

    def test_show_resolve_reports_shape(self, capsys):
        import json

        assert main(["datasets", "show", "commuters-small",
                     "--resolve", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["users"] == 5
        assert payload["records"] > 0
        assert len(payload["fingerprint"]) == 64

    def test_register_local_dry_run(self, capsys):
        assert main(["datasets", "register", "cli-test-reg",
                     "--kind", "taxi",
                     "--params", '{"users": 2, "seed": 3}',
                     "--replace"]) == 0
        assert "2 users" in capsys.readouterr().out

    def test_register_invalid_params_exit_2(self, capsys):
        assert main(["datasets", "register", "x", "--kind", "taxi",
                     "--params", "{nope"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert main(["datasets", "register", "x", "--kind", "taxi",
                     "--params", '{"bogus": 1}']) == 2
        assert "bogus" in capsys.readouterr().err

    def test_register_file_backed_local(self, taxi_csv, capsys):
        import json

        assert main(["datasets", "register", "cli-csv-reg",
                     "--kind", "csv",
                     "--params", json.dumps({"path": str(taxi_csv)}),
                     "--replace", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["users"] == 3

    def test_register_and_list_on_daemon(self, daemon_url, capsys):
        import json

        assert main(["datasets", "register", "daemon-reg",
                     "--kind", "taxi", "--params", '{"users": 2}',
                     "--url", daemon_url]) == 0
        assert "registered" in capsys.readouterr().out
        assert main(["datasets", "list", "--url", daemon_url,
                     "--json"]) == 0
        names = [s["name"]
                 for s in json.loads(capsys.readouterr().out)["scenarios"]]
        assert "daemon-reg" in names
        assert main(["datasets", "show", "daemon-reg",
                     "--url", daemon_url]) == 0
        assert "daemon-reg" in capsys.readouterr().out

    def test_daemon_conflict_exit_2(self, daemon_url, capsys):
        assert main(["datasets", "register", "dup", "--kind", "taxi",
                     "--params", '{"users": 2}', "--url", daemon_url]) == 0
        capsys.readouterr()
        assert main(["datasets", "register", "dup", "--kind", "taxi",
                     "--params", '{"users": 3}', "--url", daemon_url]) == 2
        assert "scenario-exists" in capsys.readouterr().err
