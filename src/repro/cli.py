"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list                      list reproducible experiments
run <id> [options]        run one experiment and print its table/figure
describe <model>          print a speculative-execution model's two tables
bench <name> [options]    simulate one benchmark kernel and print counters
obs trace|histo|export    instrumented runs: timelines, latency histograms
ablate [options]          leave-one-out ablation, ranked importance report
cache info|clear|warm     manage the persistent on-disk trace cache
serve [options]           run the simulation service (HTTP, result store)
submit <id> [--connect]   run an experiment through the simulation service
status [--connect]        print a running service's jobs, queue and store
table1 / figure1 / figure3 / figure4   shorthands for ``run <id>``

Any grid-running command accepts ``--backend service`` (or
``REPRO_SWEEP_BACKEND=service``) to run its simulation grid through the
running simulation service at ``REPRO_SERVICE_ADDR=HOST:PORT``, with
bit-identical results; see docs/SERVICE.md.

``obs`` accepts suite kernel names and micro kernels via the
``micro:<name>`` form (e.g. ``micro:fib``).

Trace acquisition (``bench``, ``analyze`` and every experiment sweep)
goes through the content-addressed trace cache (``repro.trace.cache``,
``REPRO_TRACE_CACHE`` to relocate or disable): a warm cache replays
captured kernel traces from disk instead of re-running the functional
simulator.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.model import named_models
from repro.engine.config import PAPER_CONFIGS, paper_config
from repro.engine.sim import run_baseline, run_trace
from repro.env import EnvError
from repro.harness.experiments import EXPERIMENTS
from repro.harness.parallel import BACKENDS, BackendSelectionError
from repro.metrics.summary import summarize_counters
from repro.programs.suite import BenchmarkSelectionError, kernel, kernel_names


#: The ``--config`` choices: the paper's ``width/window`` labels.
CONFIG_LABELS = tuple(config.label for config in PAPER_CONFIGS)

#: `repro ablate` defaults for the shared grid options it leaves unset.
ABLATE_BENCHMARKS = ("micro:fib",)
ABLATE_MAX_INSTRUCTIONS = 3000


def _experiment_kwargs(args: argparse.Namespace) -> dict:
    kwargs: dict = {}
    if getattr(args, "max_instructions", None) is not None:
        kwargs["max_instructions"] = args.max_instructions
    if getattr(args, "benchmarks", None):
        kwargs["benchmarks"] = args.benchmarks
    if getattr(args, "jobs", None) is not None:
        kwargs["jobs"] = args.jobs
    if getattr(args, "backend", None) is not None:
        kwargs["backend"] = args.backend
    return kwargs


def _cmd_list(args: argparse.Namespace) -> int:
    id_width = max(len(e.id) for e in EXPERIMENTS.values())
    ref_width = max(len(e.paper_ref) for e in EXPERIMENTS.values())
    for e in EXPERIMENTS.values():
        print(f"{e.id:{id_width}s} {e.paper_ref:{ref_width}s} {e.title}")
    return 0


def _cmd_run(args: argparse.Namespace, **overrides) -> int:
    """Run experiment ``args.id`` with the command's grid options
    (``overrides`` win); ``submit`` pins the backend through it."""
    experiment = EXPERIMENTS.get(args.id)
    if experiment is None:
        print(f"unknown experiment {args.id!r}; try `repro list`", file=sys.stderr)
        return 2
    print(experiment.run(**{**_experiment_kwargs(args), **overrides}))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    models = named_models()
    model = models.get(args.model)
    if model is None:
        print(
            f"unknown model {args.model!r}; know {sorted(models)}",
            file=sys.stderr,
        )
        return 2
    print(model.describe())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.trace.cache import cached_trace

    spec = kernel(args.name)
    trace = cached_trace(args.name, args.max_instructions)
    config = paper_config(args.config)
    base = run_baseline(trace, config)
    print(summarize_counters(base.counters, f"{spec.name} @ {config.label} (base)"))
    if args.model != "none":
        model = named_models()[args.model]
        result = run_trace(
            trace,
            config,
            model,
            confidence=args.confidence,
            update_timing=args.timing,
        )
        label = (
            f"{spec.name} @ {config.label} "
            f"({model.name}, {result.setting_label})"
        )
        print()
        print(summarize_counters(result.counters, label))
        print(f"\n  speedup over base       {base.cycles / result.cycles:12.3f}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.harness.export import EXPORTS, export_csv

    if args.id == "--list" or args.id == "list":
        for key in sorted(EXPORTS):
            print(key)
        return 0
    try:
        text = export_csv(args.id, args.out, **_experiment_kwargs(args))
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    if args.out is None:
        print(text, end="")
    else:
        print(f"wrote {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import render_workload_report
    from repro.trace.cache import cached_trace

    spec = kernel(args.name)
    trace = cached_trace(args.name, args.max_instructions)
    print(render_workload_report(trace, f"{spec.name} ({spec.input_label})"))
    return 0


def _run_obs(args: argparse.Namespace):
    from repro.obs import run_instrumented

    model = None if args.model == "none" else args.model
    return run_instrumented(
        args.name,
        config=args.config,
        model=model,
        max_instructions=args.max_instructions,
        confidence=args.confidence,
        update_timing=args.timing,
    )


def _obs_out_path(args: argparse.Namespace, suffix: str) -> str:
    if args.out:
        return args.out
    safe = args.name.replace(":", "_").replace("/", "_")
    return f"{safe}_{args.model}{suffix}"


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import (
        aggregate_by_opcode,
        metrics_csv,
        metrics_dict,
        summary_table,
    )
    from repro.obs.export import write_chrome_trace

    try:
        run = _run_obs(args)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    label = (
        f"{run.benchmark} @ {run.result.config.label} "
        f"({run.model_name or 'base'}) — "
        f"{run.result.cycles} cycles, ipc {run.result.ipc:.3f}"
    )

    if args.action == "trace":
        path = _obs_out_path(args, "_trace.json")
        doc = write_chrome_trace(run.tracer, path, label=run.benchmark)
        print(label)
        print(
            f"wrote {path}: {len(doc['traceEvents'])} events "
            "(load in Perfetto / chrome://tracing)"
        )
        dropped = run.tracer.marks.dropped + run.tracer.latencies.dropped
        if dropped:
            print(f"  note: ring buffers dropped {dropped} oldest events")
        return 0

    if args.action == "histo":
        print(summary_table(run.histograms, title=label))
        if args.by_opcode:
            print()
            for kind, per_op in sorted(
                aggregate_by_opcode(run.tracer).items(),
                key=lambda item: item[0].value,
            ):
                print(f"{kind.paper_name}:")
                for op, hist in sorted(per_op.items()):
                    print(
                        f"  {op:10s} count={hist.count:6d} "
                        f"mean={hist.mean:8.2f} max={hist.max}"
                    )
        return 0

    # export
    if args.format == "csv":
        text = metrics_csv(run.histograms)
    else:
        import json as _json

        text = _json.dumps(metrics_dict(run.histograms, label=label), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """A running service's ``GET /v1/status`` (``repro status``)."""
    import json as _json

    from repro.service.client import (
        ENV_ADDR,
        ServiceClient,
        env_address,
        parse_address,
    )

    host_port = parse_address(args.connect) if args.connect else env_address()
    if host_port is None:
        print(f"no service address (--connect or {ENV_ADDR})", file=sys.stderr)
        return 2
    address = f"{host_port[0]}:{host_port[1]}"
    try:
        status = ServiceClient(*host_port).status()
    except OSError as error:
        print(f"service unreachable at {address}: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0
    _print_status_text(status, f"service at {address}")
    return 0


def _print_status_text(status: dict, title: str) -> None:
    """Human rendering of a service status document."""
    print(title)
    jobs = status.get("jobs") or {}
    print(
        "  jobs     "
        + "  ".join(f"{k}={jobs.get(k, 0)}" for k in
                    ("pending", "leased", "done", "failed"))
    )
    queue = status.get("queue")
    if isinstance(queue, dict):
        print(f"  queue    {queue.get('depth', 0)}/{queue.get('max', '?')}")
    store = status.get("store")
    if isinstance(store, dict):
        if store.get("enabled"):
            print(
                f"  store    {store.get('entries', 0)} entries, "
                f"{store.get('bytes', 0)} bytes at {store.get('dir')}"
            )
        else:
            print("  store    disabled")
    stats = status.get("stats")
    if isinstance(stats, dict):
        print(
            "  stats    "
            + "  ".join(
                f"{k}={stats.get(k, 0)}"
                for k in ("submitted", "executed", "warm_hits", "joined",
                          "rejected")
            )
        )


def _store_option(args: argparse.Namespace):
    """The store directory ``serve --store`` names (``None``:
    disabled)."""
    from repro.service import results as rs

    return rs.resolve_store(rs.AUTO_STORE if args.store is None else args.store)


def _print_store_line(store) -> None:
    print(
        "result store: "
        + (str(store) if store is not None else
           "(disabled — results held in memory only)")
    )


def _serve_until_interrupted(server) -> None:
    """Block until Ctrl+C, then stop the started ``server``."""
    import signal
    import time

    try:
        if hasattr(signal, "pause"):
            signal.pause()
        while True:  # no signal.pause, or a handled signal woke it
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


def _cmd_serve(args: argparse.Namespace) -> int:
    """The simulation service (``repro serve``)."""
    from repro.service.client import parse_address
    from repro.service.server import ServiceConfig, SimulationService

    host, port = parse_address(args.bind)
    store = _store_option(args)
    try:
        config = ServiceConfig(
            host=host,
            port=port,
            store=store,
            backend=args.backend,
            jobs=args.jobs,
            max_queue=args.max_queue,
            store_max_entries=args.store_max_entries,
        )
    except ValueError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    service = SimulationService(config)
    bound = service.start()
    address = f"{bound[0]}:{bound[1]}"
    print(f"simulation service listening on http://{address}/v1/")
    _print_store_line(service.store_dir)
    print(f"backend: {config.backend} (jobs={service.width})")
    print(f"submit with: repro submit <id> --connect {address}")
    _serve_until_interrupted(service)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Run an experiment's grid through the simulation service at
    ``--connect`` (or ``REPRO_SERVICE_ADDR``); with neither, a grid is
    a one-line error."""
    from repro.env import setting
    from repro.service.client import ENV_ADDR

    if args.connect is None:
        return _cmd_run(args, backend="service")
    # The grid finds the service through the environment; the caller's
    # value comes back afterwards, so a later grid in this process does
    # not silently target this address.
    with setting(ENV_ADDR, args.connect):
        return _cmd_run(args, backend="service")


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.trace import cache as trace_cache

    if args.action == "info":
        info = trace_cache.cache_info()
        state = "enabled" if info["enabled"] else "disabled"
        print(f"trace cache: {state}")
        if info["enabled"]:
            print(f"  dir      {info['dir']}")
            print(f"  entries  {info['entries']}")
            print(f"  bytes    {info['bytes']}")
            if info["temp_files"]:
                print(f"  stranded {info['temp_files']} unfinished capture(s)")
            for name, records in info["records"].items():
                described = (
                    "[unreadable entry]" if records is None
                    else f"{records} records"
                )
                print(f"    {name}  {described}")
        return 0
    if args.action == "clear":
        removed = trace_cache.clear_cache()
        print(f"removed {removed} cached trace(s)")
        return 0
    # warm
    if not trace_cache.cache_enabled():
        print(
            f"trace cache is disabled ({trace_cache.ENV_VAR}); "
            "nothing to warm",
            file=sys.stderr,
        )
        return 2
    names = args.benchmarks or kernel_names()
    lengths = trace_cache.warm_cache(names, args.max_instructions)
    for name, length in lengths.items():
        print(f"{name:10s} {length:8d} instructions cached")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    """``repro ablate``: run a leave-one-out ablation and print the
    ranked per-component importance report."""
    from repro.ablation import (
        AblationPoint,
        AblationSpec,
        build_report,
        execute_plan,
        plan_ablation,
        render_csv,
        render_text,
        validate_report,
        write_report,
    )

    model = named_models()[args.model]
    point = AblationPoint(
        config=paper_config(args.config),
        model=model,
        update_timing=args.update_timing,
    )
    spec = AblationSpec(
        benchmarks=tuple(
            ABLATE_BENCHMARKS if args.benchmarks is None else args.benchmarks
        ),
        point=point,
        max_instructions=(
            ABLATE_MAX_INSTRUCTIONS
            if args.max_instructions is None
            else args.max_instructions
        ),
    )
    plan = plan_ablation(spec, pairs=args.pairs, limit=args.limit)
    executed = execute_plan(
        plan,
        jobs=args.jobs if args.jobs is not None else 1,
        backend=args.backend,
    )
    report = build_report(plan, executed)
    validate_report(report)
    print(render_text(report))
    if args.json:
        path = write_report(report, args.json)
        print(f"json report written to {path}")
    if args.csv:
        from pathlib import Path

        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_csv(report) + "\n")
        print(f"csv report written to {path}")
    return 0


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory completed points persist to and "
        "resume from, or `off` to disable (default: REPRO_RESULT_STORE, "
        "else repro/results in the user cache directory)",
    )


def _add_run_options(
    parser: argparse.ArgumentParser, *, model: str, max_instructions: int
) -> None:
    """The one-run options `bench` and the `obs` subcommands share; a
    value outside the choices is a usage error."""
    parser.add_argument("--config", default="8/48", choices=CONFIG_LABELS)
    parser.add_argument(
        "--model", default=model, choices=(*named_models(), "none"),
        help=f"speculation model; none = base machine only (default: {model})",
    )
    parser.add_argument("--confidence", default="real", choices=("real", "oracle"))
    parser.add_argument("--timing", default="D", choices=("I", "D"))
    parser.add_argument("--max-instructions", type=int, default=max_instructions)


def _address_option(text: str) -> str:
    """argparse ``type`` of ``--connect`` and ``--bind``: a ``host:port``
    that :func:`~repro.service.client.parse_address` accepts, kept as
    typed."""
    from repro.service.client import parse_address

    try:
        parse_address(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    from repro.service.server import BACKENDS as SERVICE_BACKENDS
    from repro.service.server import ServiceConfig

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Modeling Value Speculation' (HPCA 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    # The trace selection `run`, its shorthands, `ablate`, `export`,
    # `submit` and `cache` share; `grid` adds `--jobs` and `--backend`.
    # A value left unset means the command's own default.
    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument(
        "--max-instructions",
        type=int,
        default=None,
        help="truncate each kernel trace (default: command-specific)",
    )
    selection.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        metavar="NAME",
        help=f"restrict to a subset of {kernel_names()} "
        "(ablate also takes micro:<name>)",
    )
    grid = argparse.ArgumentParser(add_help=False, parents=[selection])
    grid.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the simulation grid (0 = all cores)",
    )
    grid.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="grid execution backend (default: REPRO_SWEEP_BACKEND or local)",
    )

    # The service address `status` and `submit` share; a malformed one
    # is a usage error.
    connect = argparse.ArgumentParser(add_help=False)
    connect.add_argument(
        "--connect", type=_address_option, default=None, metavar="HOST:PORT",
        help="service address (default: REPRO_SERVICE_ADDR)",
    )

    run_parser = sub.add_parser(
        "run", parents=[grid], help="run one experiment"
    )
    run_parser.add_argument("id", help="experiment id (see `repro list`)")
    run_parser.set_defaults(func=_cmd_run)

    for shorthand in ("table1", "figure1", "figure3", "figure4"):
        p = sub.add_parser(
            shorthand, parents=[grid], help=f"shorthand for `run {shorthand}`"
        )
        p.set_defaults(func=_cmd_run, id=shorthand)

    describe_parser = sub.add_parser(
        "describe", help="print a model's variable/latency tables"
    )
    describe_parser.add_argument("model", help="super | great | good")
    describe_parser.set_defaults(func=_cmd_describe)

    export_parser = sub.add_parser(
        "export", parents=[selection], help="export an experiment's data as CSV"
    )
    export_parser.add_argument("id", help="dataset id, or `list` to enumerate")
    export_parser.add_argument("--out", default=None, help="write to a file")
    export_parser.set_defaults(func=_cmd_export)

    analyze_parser = sub.add_parser(
        "analyze", help="characterize a kernel's values and dependences"
    )
    analyze_parser.add_argument("name", choices=kernel_names())
    analyze_parser.add_argument("--max-instructions", type=int, default=20000)
    analyze_parser.set_defaults(func=_cmd_analyze)

    cache_parser = sub.add_parser(
        "cache",
        parents=[selection],
        help="manage the persistent on-disk trace cache",
        description="`warm` captures the selected benchmarks (default: "
        "the full suite) at --max-instructions (default: full traces).",
    )
    cache_parser.add_argument(
        "action",
        choices=("info", "clear", "warm"),
        help="info: show location/contents; clear: delete entries; "
        "warm: pre-capture benchmark traces",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    status_parser = sub.add_parser(
        "status",
        parents=[connect],
        help="print a running service's jobs, queue and store",
    )
    status_parser.add_argument(
        "--json", action="store_true",
        help="emit the raw GET /v1/status document as JSON",
    )
    status_parser.set_defaults(func=_cmd_status)

    service_parser = sub.add_parser(
        "serve",
        help="run the simulation service (see docs/SERVICE.md; Ctrl+C "
        "to stop)",
    )
    service_parser.add_argument(
        "--bind", type=_address_option, default="127.0.0.1:7788",
        metavar="HOST:PORT",
        help="listen address (port 0 picks a free port; bracket IPv6 "
        "literals, e.g. [::1]:7788)",
    )
    _add_store_option(service_parser)
    service_parser.add_argument(
        "--store-max-entries", type=int,
        default=ServiceConfig.store_max_entries, metavar="N",
        help="evict oldest store entries beyond this count after each "
        "dispatch cycle (default: unbounded)",
    )
    service_parser.add_argument(
        "--backend", choices=SERVICE_BACKENDS, default=ServiceConfig.backend,
        help="how admitted jobs execute: inline, or on a process pool "
        "--jobs wide (default: %(default)s)",
    )
    service_parser.add_argument(
        "--jobs", type=int, default=ServiceConfig.jobs, metavar="N",
        help="process-pool width for --backend pool; 0 uses every core "
        "(default: %(default)s)",
    )
    service_parser.add_argument(
        "--max-queue", type=int, default=ServiceConfig.max_queue,
        metavar="N",
        help="admission bound: queued jobs beyond this draw 429 "
        "(default: %(default)s)",
    )
    service_parser.set_defaults(func=_cmd_serve)

    svc_submit = sub.add_parser(
        "submit",
        parents=[connect, selection],
        help="run an experiment's grid through a running simulation service",
    )
    svc_submit.add_argument("id", help="experiment id (see `repro list`)")
    svc_submit.set_defaults(func=_cmd_submit)

    obs_parser = sub.add_parser(
        "obs", help="instrumented runs: lifecycle timelines, latency histograms"
    )
    obs_sub = obs_parser.add_subparsers(dest="action", required=True)

    def _obs_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "name",
            help="suite kernel or micro:<name> (e.g. compress, micro:fib)",
        )
        _add_run_options(p, model="good", max_instructions=20000)
        p.set_defaults(func=_cmd_obs)

    obs_trace = obs_sub.add_parser(
        "trace", help="export a Chrome trace-event JSON timeline"
    )
    _obs_common(obs_trace)
    obs_trace.add_argument("--out", default=None, help="output path")

    obs_histo = obs_sub.add_parser(
        "histo", help="print the latency-event summary table"
    )
    _obs_common(obs_histo)
    obs_histo.add_argument(
        "--by-opcode",
        action="store_true",
        help="additionally break each event kind down by opcode",
    )

    obs_export = obs_sub.add_parser(
        "export", help="export latency-event metrics as CSV or JSON"
    )
    _obs_common(obs_export)
    obs_export.add_argument("--format", choices=("csv", "json"), default="json")
    obs_export.add_argument("--out", default=None, help="write to a file")

    ablate_parser = sub.add_parser(
        "ablate",
        parents=[grid],
        help="leave-one-out ablation over the registered model components",
        description="Leave-one-out ablation over the registered model "
        f"components (defaults: --benchmarks {' '.join(ABLATE_BENCHMARKS)} "
        f"--max-instructions {ABLATE_MAX_INSTRUCTIONS}).",
    )
    ablate_parser.add_argument(
        "--config",
        default="8/48",
        choices=CONFIG_LABELS,
        help="processor configuration label (default: 8/48)",
    )
    ablate_parser.add_argument(
        "--model",
        default="great",
        choices=named_models(),
        help="baseline speculation model (default: great)",
    )
    ablate_parser.add_argument(
        "--update-timing",
        choices=("I", "D"),
        default="D",
        help="baseline predictor update timing (default: D, realistic)",
    )
    ablate_parser.add_argument(
        "--pairs",
        action="store_true",
        help="also lesion every component pair (interaction probing)",
    )
    ablate_parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="cap the number of lesioned runs (dropped runs are counted "
        "in the report, never silently truncated)",
    )
    ablate_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the versioned JSON report",
    )
    ablate_parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="also write the ranked table as CSV",
    )
    ablate_parser.set_defaults(func=_cmd_ablate)

    bench_parser = sub.add_parser("bench", help="simulate one kernel")
    bench_parser.add_argument("name", choices=kernel_names())
    _add_run_options(bench_parser, model="great", max_instructions=10000)
    bench_parser.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        return 0
    except (BenchmarkSelectionError, BackendSelectionError, EnvError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
