"""CLI tests."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "figure3" in out and "table1" in out


def test_list_aligns_every_column(capsys):
    from repro.harness.experiments import EXPERIMENTS

    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(EXPERIMENTS)
    ref_starts = {
        line.index(e.paper_ref, len(e.id)) for line, e in zip(lines, EXPERIMENTS.values())
    }
    title_starts = {
        line.rindex(e.title) for line, e in zip(lines, EXPERIMENTS.values())
    }
    assert len(ref_starts) == len(title_starts) == 1


def test_describe(capsys):
    assert main(["describe", "super"]) == 0
    out = capsys.readouterr().out
    assert "Invalidation - Reissue" in out


def test_describe_unknown(capsys):
    assert main(["describe", "amazing"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_run_unknown_experiment(capsys):
    assert main(["run", "figure9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_table1(capsys):
    assert main(["run", "table1", "--max-instructions", "1500"]) == 0
    out = capsys.readouterr().out
    assert "Benchmark Characteristics" in out
    assert "xlisp" in out


def test_run_figure1(capsys):
    assert main(["run", "figure1"]) == 0
    out = capsys.readouterr().out
    assert "base" in out and "good/incorrect" in out


def test_bench_with_model(capsys):
    code = main(
        [
            "bench", "compress",
            "--max-instructions", "1500",
            "--model", "great",
            "--timing", "I",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup over base" in out
    assert "value predictions" in out


def test_bench_base_only(capsys):
    assert main(
        ["bench", "perl", "--max-instructions", "1000", "--model", "none"]
    ) == 0
    out = capsys.readouterr().out
    assert "base" in out and "speedup" not in out


def test_run_limit_study(capsys):
    code = main(
        ["run", "limit-study", "--max-instructions", "600",
         "--benchmarks", "perl"]
    )
    assert code == 0
    assert "VP bound" in capsys.readouterr().out


def test_run_abl_equality(capsys):
    code = main(
        ["run", "abl-equality", "--max-instructions", "800",
         "--benchmarks", "compress"]
    )
    assert code == 0
    assert "strict (paper)" in capsys.readouterr().out


def test_every_registered_experiment_is_listed(capsys):
    from repro.harness.experiments import EXPERIMENTS

    main(["list"])
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_figure4_shorthand(capsys):
    code = main(
        [
            "figure4",
            "--max-instructions", "800",
            "--benchmarks", "compress",
        ]
    )
    assert code == 0
    assert "CH %" in capsys.readouterr().out


def test_batch_option_is_gone_and_shorthands_share_grid_options(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["figure3", "--batch", "2"])
    assert excinfo.value.code == 2
    assert "--batch" in capsys.readouterr().err

    from repro.cli import build_parser

    parser = build_parser()
    for command in ("run table1", "table1", "figure1", "figure3", "figure4",
                    "ablate"):
        args = parser.parse_args(
            command.split() + ["--jobs", "2", "--backend", "service",
                               "--max-instructions", "500",
                               "--benchmarks", "compress"]
        )
        assert (args.jobs, args.backend) == (2, "service"), command
        assert args.max_instructions == 500
        assert args.benchmarks == ["compress"]


def test_ablate(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert main([
        "ablate", "--max-instructions", "600", "--limit", "2",
        "--json", str(json_path), "--csv", str(csv_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "ablation report v1" in out
    assert "baseline speedup" in out
    assert "importance" in out
    assert "dropped by --limit" in out
    assert json_path.exists() and csv_path.exists()

    import json as json_module

    report = json_module.loads(json_path.read_text())
    assert report["kind"] == "ablation"
    assert len(report["components"]) == 2
    assert csv_path.read_text().startswith("rank,run_id,label")


def test_ablate_pairs_grow_the_run_set(capsys):
    assert main([
        "ablate", "--max-instructions", "600", "--limit", "0", "--pairs",
    ]) == 0
    out = capsys.readouterr().out
    # limit 0 drops every lesioned run but the counter proves the pairs
    # were planned.
    assert "dropped by --limit" in out


@pytest.mark.parametrize("command", ["run", "export"])
def test_unknown_benchmark_is_a_one_line_error(command, capsys):
    code = main(
        [command, "abl-inval", "--max-instructions", "300",
         "--benchmarks", "compress", "cmopress"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and "cmopress" in err


def test_submit_unknown_benchmark_fails_before_contacting_the_service(
    monkeypatch, capsys
):
    from repro.service.client import ENV_ADDR

    monkeypatch.setenv(ENV_ADDR, "127.0.0.1:1")
    code = main(
        ["submit", "abl-inval", "--max-instructions", "300",
         "--benchmarks", "cmopress"]
    )
    assert code == 2
    assert "cmopress" in capsys.readouterr().err


def test_run_table1_honours_benchmarks(capsys):
    code = main(
        ["run", "table1", "--max-instructions", "300",
         "--benchmarks", "go", "compress"]
    )
    assert code == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[3:]]
    assert rows == ["compress", "go"]


def test_export_table1_honours_benchmarks(capsys):
    code = main(
        ["export", "table1", "--max-instructions", "300",
         "--benchmarks", "compress"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("compress,")


def test_submit_without_an_address_is_a_one_line_error(monkeypatch, capsys):
    from repro.service.client import ENV_ADDR

    monkeypatch.delenv(ENV_ADDR, raising=False)
    assert main(["submit", "abl-inval", "--max-instructions", "300",
                 "--benchmarks", "compress"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and ENV_ADDR in err
    # The service owns its capacity: `submit` takes no `--jobs`.
    with pytest.raises(SystemExit) as excinfo:
        main(["submit", "abl-inval", "--jobs", "2"])
    assert excinfo.value.code == 2


def test_unknown_sweep_backend_is_a_one_line_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SWEEP_BACKEND", "cluster")
    code = main(["run", "abl-inval", "--max-instructions", "300",
                 "--benchmarks", "compress"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err
    assert "'cluster'" in err and "local, service" in err


@pytest.mark.parametrize("command", [
    ["cluster", "serve"],
    ["cluster", "submit", "figure3"],
    ["run", "figure3", "--backend", "cluster"],
    ["cluster", "work"],
    ["serve", "--backend", "cluster"],
    ["serve", "--heartbeat-timeout", "3"],
])
def test_removed_cluster_commands_no_longer_parse(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert excinfo.value.code == 2
    # A removed option is unrecognized; a removed command or backend is
    # not among the choices.
    expected = ("unrecognized arguments: --heartbeat-timeout"
                if "--heartbeat-timeout" in command else "invalid choice")
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--max-queue", "0"),
    ("--store-max-entries", "-1"),
])
def test_out_of_range_serve_setting_is_a_one_line_error(option, value,
                                                        capsys):
    assert main(["serve", "--store", "off", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: ")
    assert captured.err.count("\n") == 1
    assert option[2:].replace("-", "_") in captured.err


def test_serve_defaults_are_the_service_config_defaults():
    from repro.cli import build_parser
    from repro.service.server import ServiceConfig

    args = build_parser().parse_args(["serve"])
    names = ("backend", "jobs", "max_queue", "store_max_entries")
    config = ServiceConfig()
    assert ({name: getattr(args, name) for name in names}
            == {name: getattr(config, name) for name in names})


def test_figure1_ignores_grid_options_on_submit(monkeypatch, capsys):
    from repro.service.client import ENV_ADDR

    # figure1 runs no grid, so the service is never contacted
    monkeypatch.setenv(ENV_ADDR, "127.0.0.1:1")
    assert main(["run", "figure1", "--max-instructions", "100"]) == 0
    expected = capsys.readouterr().out
    code = main(
        ["submit", "figure1", "--max-instructions", "100",
         "--benchmarks", "compress"]
    )
    assert code == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", [
    ["submit", "figure1", "--connect", "nonsense"],
    ["status", "--connect", "nonsense"],
    ["serve", "--bind", "nonsense"],
])
def test_bad_address_option_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].endswith(
        "expected host:port, got 'nonsense'"
    )


@pytest.mark.parametrize("command", [
    ["bench", "compress", "--model", "bogus"],
    ["bench", "compress", "--confidence", "bogus"],
    ["bench", "compress", "--timing", "X"],
    ["bench", "compress", "--config", "9/9"],
    ["obs", "histo", "micro:fib", "--timing", "X"],
    ["obs", "trace", "micro:fib", "--config", "9/9"],
    ["obs", "export", "micro:fib", "--model", "bogus"],
    ["ablate", "--model", "none"],
])
def test_bad_run_option_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "invalid choice" in err.strip().splitlines()[-1]


@pytest.mark.parametrize("command, model, limit", [
    (["bench", "compress"], "great", 10000),
    (["obs", "histo", "micro:fib"], "good", 20000),
])
def test_run_option_defaults(command, model, limit):
    from repro.cli import build_parser

    args = build_parser().parse_args(command)
    assert (args.config, args.model, args.confidence, args.timing,
            args.max_instructions) == ("8/48", model, "real", "D", limit)


@pytest.mark.parametrize("command", [
    ["run", "abl-inval", "--max-instructions", "300",
     "--benchmarks", "compress", "--backend", "service"],
    ["submit", "abl-inval", "--max-instructions", "300",
     "--benchmarks", "compress"],
    ["status"],
])
def test_bad_service_address_in_the_environment_is_a_one_line_error(
    command, monkeypatch, capsys
):
    from repro.service.client import ENV_ADDR

    monkeypatch.setenv(ENV_ADDR, "nonsense")
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err
    assert ENV_ADDR in err and "'nonsense'" in err


def test_cache_warm_limit_alias_is_gone(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["cache", "warm", "--limit", "5"])
    assert caught.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_blank_service_address_in_the_environment_reads_as_unset(
    monkeypatch, capsys
):
    from repro.service.client import ENV_ADDR

    monkeypatch.setenv(ENV_ADDR, "  ")
    assert main(["status"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"no service address (--connect or {ENV_ADDR})"
    )


def test_submit_connect_leaves_the_callers_environment(monkeypatch, capsys):
    import os

    from repro.service.client import ENV_ADDR

    # figure1 runs no grid, so neither address is ever contacted
    monkeypatch.delenv(ENV_ADDR, raising=False)
    assert main(["submit", "figure1", "--connect", "127.0.0.1:9"]) == 0
    assert ENV_ADDR not in os.environ
    monkeypatch.setenv(ENV_ADDR, "127.0.0.1:1")
    assert main(["submit", "figure1", "--connect", "127.0.0.1:9"]) == 0
    assert os.environ[ENV_ADDR] == "127.0.0.1:1"


def test_refused_service_address_fails_fast(monkeypatch, capsys):
    import socket
    import time

    from repro.service.client import ENV_ADDR

    with socket.socket() as sock:  # a port that was bound, now closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    monkeypatch.setenv(ENV_ADDR, f"127.0.0.1:{port}")
    begin = time.monotonic()
    assert main([
        "run", "abl-inval", "--max-instructions", "300",
        "--benchmarks", "compress", "--backend", "service",
    ]) == 2
    assert time.monotonic() - begin < 30
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert f"{ENV_ADDR}=127.0.0.1:{port}" in lines[0]
    assert "connection refused" in lines[0]
