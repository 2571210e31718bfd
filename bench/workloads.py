"""The benchmark's workloads, and the pass child that runs one of them.

A *pass* is one fresh Python process that sets a workload up from
nothing and then runs its fixed work once:

* set-up: interpreter start, imports, capturing every trace the workload
  needs into an empty trace cache (``repro.trace.cache.warm_cache``), and
  for ``service_mix`` starting the service until ``/v1/healthz`` answers;
* the timed region: the workload's calls into the public harness, with
  every result checked against ``bench/expected.json``.

Trace capture is set-up because users pay it once per machine (the cache
is persistent); engine-class codegen stays in the timed region because
users pay it in every fresh process.  ``run.py`` starts the passes
(``python bench/workloads.py --spec FILE``) with fresh directories and a
scrubbed environment, and aggregates what they write to ``result.json``.

With ``trace`` set, the pass wraps the layer boundaries (:mod:`spans`)
and reports per-layer metrics and a Chrome trace as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans as span_lib

BENCH = Path(__file__).resolve().parent

#: The eight SPECint95 stand-in kernels, in suite order.
KERNELS = ("compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex", "xlisp")

#: Each workload's fixed work, sized so one pass takes 5-9 s on two
#: vCPUs and a run of two to four passes stays near 24 s.
#: bench/README.md gives the reasons for each choice.
WORKLOADS: dict[str, dict] = {
    # Figure 3 at the paper-default budget: the base machine and the
    # great model under all four timing/confidence settings, at 8/48, on
    # every kernel.  One engine class per 8 points, as in the full grid.
    "fig3": {
        "kind": "fig3", "kernels": KERNELS, "max_instructions": 8000,
        "config": "8/48", "models": ("great",),
    },
    # Short traces, many model variants: six of the twelve sweeps
    # run_full_experiments.py runs, each varying another engine mechanism.
    "sweeps": {
        "kind": "sweeps", "kernels": ("compress", "go", "m88ksim", "vortex"),
        "max_instructions": 2000,
        "sweeps": (
            "verification_scheme_sweep", "invalidation_scheme_sweep",
            "predictor_sweep", "confidence_scheme_sweep", "vp_ports_sweep",
            "width_scaling_sweep",
        ),
    },
    # Whole programs on the two-process pool: traces 2-16x the fig3
    # budget and uneven (xlisp alone is 76% of the records).
    "long_pool2": {
        "kind": "long_pool2", "kernels": ("compress", "perl", "xlisp"),
        "max_instructions": None, "config": "8/48", "jobs": 2,
        "points": (("base", None, None), ("great", "I", "R"), ("super", "D", "O")),
    },
    # Two closed-loop clients against the HTTP service over a 40-point
    # Figure 3 slice; the first request for a point executes it, later
    # ones read the result store.
    "service_mix": {
        "kind": "service_mix", "kernels": KERNELS, "max_instructions": 8000,
        "config": "4/24", "models": ("great",), "clients": 2,
        "requests_per_client": 200,
    },
}


def digest(value) -> str:
    """Short content hash of a result's canonical text."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What a workload's timed region produced."""

    attempted: int
    failed: int
    #: Wall seconds of each user-visible call: a request, or one harness
    #: call on the grid workloads.
    calls: list[float]
    #: Instructions the engine simulated.
    instructions: int
    #: Content hash of the results (grid workloads) or one per job key
    #: (``service_mix``), for recording ``expected.json``.
    digests: object = None
    requests: list[dict] = field(default_factory=list)
    service_stats: dict | None = None


class Context:
    """What a workload sees of its pass."""

    def __init__(self, directory: Path, name: str, seed: int, expected, recorder=None):
        self.dir = directory
        self.name = name
        self.seed = seed
        self.expected = expected
        self.recorder = recorder

    def span(self, name: str, **attrs):
        if self.recorder is None:
            return nullcontext(attrs)
        return self.recorder.span(name, **attrs)

    def matches(self, actual: str, *path: str) -> bool:
        """Whether a digest matches this workload's entry of
        ``expected.json``, at ``path`` below it (always true while
        recording, when there is nothing to match yet)."""
        if self.expected is None:
            return True
        expected = self.expected.get(self.name, {})
        for key in path:
            expected = expected.get(key, {})
        return expected == actual


@contextmanager
def tally(module):
    """Count the points and simulated instructions of every grid a
    harness module runs while the block runs, by wrapping its
    ``run_jobs`` binding."""
    counts = {"points": 0, "instructions": 0}
    run_jobs = module.run_jobs

    def counted(job_list, *args, **kwargs):
        results = run_jobs(job_list, *args, **kwargs)
        counts["points"] += len(results)
        counts["instructions"] += sum(r.counters.retired for r in results)
        return results

    module.run_jobs = counted
    try:
        yield counts
    finally:
        module.run_jobs = run_jobs


class Grid:
    """A workload of harness calls over traces captured in set-up."""

    #: Other processes whose spans a traced pass must merge.
    processes = 0

    def __init__(self, kernels, max_instructions, **settings):
        self.kernels = list(kernels)
        self.max_instructions = max_instructions
        self.settings = settings

    def setup(self, ctx: Context) -> None:
        from repro.trace.cache import warm_cache

        warm_cache(self.kernels, self.max_instructions)

    def outcome(self, ctx: Context, counts: dict, calls, result) -> Outcome:
        actual = digest(result)
        return Outcome(
            attempted=counts["points"],
            failed=0 if ctx.matches(actual) else counts["points"],
            calls=calls, instructions=counts["instructions"], digests=actual,
        )

    def close(self, ctx: Context) -> None:
        pass


class Fig3(Grid):
    def run(self, ctx: Context) -> Outcome:
        from repro.core.model import named_models
        from repro.engine.config import paper_config
        from repro.harness import figure3

        with tally(figure3) as counts:
            begin = time.monotonic()
            cells = figure3.run_figure3(
                max_instructions=self.max_instructions,
                benchmarks=self.kernels,
                configs=(paper_config(self.settings["config"]),),
                models=tuple(named_models()[m] for m in self.settings["models"]),
                jobs=1,
            )
            figure3.render_figure3(cells)
            figure3.figure3_table(cells)
            calls = [time.monotonic() - begin]
        result = [
            (c.config_label, c.setting, c.model_name, sorted(c.per_benchmark.items()))
            for c in cells
        ]
        return self.outcome(ctx, counts, calls, result)


class Sweeps(Grid):
    def run(self, ctx: Context) -> Outcome:
        from repro.harness import render, sweeps

        calls = []
        result = []
        with tally(sweeps) as counts:
            for name in self.settings["sweeps"]:
                begin = time.monotonic()
                points = getattr(sweeps, name)(
                    max_instructions=self.max_instructions,
                    benchmarks=self.kernels, jobs=1,
                )
                render.render_table(
                    ("Point", "HM Speedup"), [(p.label, p.speedup) for p in points]
                )
                calls.append(time.monotonic() - begin)
                result.append(
                    (name, [(p.label, p.speedup, sorted(p.detail.items()))
                            for p in points])
                )
        return self.outcome(ctx, counts, calls, result)


class LongPool2(Grid):
    def __init__(self, kernels, max_instructions, **settings):
        super().__init__(kernels, max_instructions, **settings)
        self.processes = settings["jobs"]

    def run(self, ctx: Context) -> Outcome:
        from repro.core.model import named_models
        from repro.engine.config import paper_config
        from repro.harness import parallel, render

        config = paper_config(self.settings["config"])
        points = self.settings["points"]
        job_list = [
            parallel.SimJob(kernel, config, None, self.max_instructions)
            if model == "base" else
            parallel.SimJob(
                kernel, config, named_models()[model], self.max_instructions,
                confidence=confidence, update_timing=timing,
            )
            for model, timing, confidence in points
            for kernel in self.kernels
        ]
        with tally(parallel) as counts:
            begin = time.monotonic()
            results = parallel.run_jobs(job_list, jobs=self.processes)
            width = len(self.kernels)
            render.render_table(
                ["Point"] + self.kernels,
                [
                    [f"{model} {timing}/{confidence}"]
                    + [base.cycles / r.cycles for base, r in
                       zip(results[:width], results[row * width:(row + 1) * width])]
                    for row, (model, timing, confidence) in enumerate(points)
                ],
            )
            calls = [time.monotonic() - begin]
        counters = [asdict(r.counters) for r in results]
        return self.outcome(ctx, counts, calls, counters)


class ServiceMix(Grid):
    """The service runs in its own process (``bench/serve.py``)."""

    processes = 1

    def __init__(self, kernels, max_instructions, **settings):
        super().__init__(kernels, max_instructions, **settings)
        self.server = self.address = self.client = None

    def jobs(self) -> list:
        """The Figure 3 slice the clients draw from."""
        from repro.core.model import named_models
        from repro.engine.config import paper_config
        from repro.harness.figure3 import SETTINGS
        from repro.harness.parallel import SimJob

        config = paper_config(self.settings["config"])
        job_list = [SimJob(k, config, None, self.max_instructions) for k in self.kernels]
        for timing, confidence in SETTINGS:
            for model in self.settings["models"]:
                job_list.extend(
                    SimJob(k, config, named_models()[model], self.max_instructions,
                           confidence=confidence, update_timing=timing)
                    for k in self.kernels
                )
        return job_list

    def setup(self, ctx: Context) -> None:
        from repro.service.client import ServiceClient

        super().setup(ctx)
        ready = ctx.dir / "service-ready.json"
        command = [
            sys.executable, str(BENCH / "serve.py"),
            "--store", str(ctx.dir / "store"),
            "--ready", str(ready),
            "--report", str(ctx.dir / "service-report.json"),
        ]
        if ctx.recorder is not None:
            command += ["--spans", str(ctx.recorder.spill_dir),
                        "--run-id", ctx.recorder.run_id]
        self.server = subprocess.Popen(command)
        deadline = time.monotonic() + 60
        while not ready.exists():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the service did not start")
            time.sleep(0.01)
        self.address = json.loads(ready.read_text())
        self.client = ServiceClient(
            self.address["host"], self.address["port"], timeout=120
        )
        if not self.client.healthy():
            raise RuntimeError("the service does not answer /v1/healthz")

    def run(self, ctx: Context) -> Outcome:
        from repro.cluster.serial import job_key
        from repro.service.client import ServiceClient, ServiceError

        job_list = self.jobs()
        keys = [job_key(job) for job in job_list]
        rng = random.Random(ctx.seed)
        sequences = [
            [rng.randrange(len(job_list))
             for _ in range(self.settings["requests_per_client"])]
            for _ in range(self.settings["clients"])
        ]
        requests: list[dict] = []
        digests: dict[str, str] = {}

        def drive(number: int, sequence: list[int]) -> None:
            client = ServiceClient(
                self.address["host"], self.address["port"],
                client_id=f"client-{number}", timeout=120,
            )
            for index in sequence:
                record = {"cold": False, "ok": False, "instructions": 0}
                begin = time.monotonic()
                with ctx.span("service.request") as attrs:
                    try:
                        doc = client.run_sync([job_list[index]])
                        attrs["status"] = 200
                    except ServiceError as error:
                        attrs["status"] = getattr(error, "status", 0)
                        doc = None
                    except OSError:
                        attrs["status"] = 0
                        doc = None
                record["latency_ms"] = (time.monotonic() - begin) * 1000
                if doc is not None:
                    counters = doc["results"][0]["counters"]
                    actual = digest(counters)
                    digests[keys[index]] = actual
                    disposition = doc["dispositions"][0]
                    record["cold"] = disposition in ("queued", "joined")
                    if disposition == "queued":
                        record["instructions"] = counters["retired"]
                    record["ok"] = ctx.matches(actual, keys[index])
                requests.append(record)

        threads = [
            threading.Thread(target=drive, args=(number, sequence))
            for number, sequence in enumerate(sequences)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return Outcome(
            attempted=len(requests),
            failed=sum(not record["ok"] for record in requests),
            calls=[record["latency_ms"] / 1000 for record in requests],
            instructions=sum(record["instructions"] for record in requests),
            digests=digests,
            requests=requests,
            service_stats=self.client.status()["stats"],
        )

    def record_all(self) -> dict[str, str]:
        """Digests of every point in the slice, for ``expected.json``."""
        from repro.cluster.serial import job_key

        return {
            job_key(job): digest(self.client.run_sync([job])["results"][0]["counters"])
            for job in self.jobs()
        }

    def close(self, ctx: Context) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=30)
        finally:
            if self.server.poll() is None:
                self.server.kill()
                self.server.wait()


KINDS = {"fig3": Fig3, "sweeps": Sweeps, "long_pool2": LongPool2,
         "service_mix": ServiceMix}


def build(params: dict) -> Grid:
    """The workload object for one ``WORKLOADS`` entry."""
    params = dict(params)
    return KINDS[params.pop("kind")](**params)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(spec: dict) -> dict:
    """Set one workload up and run it once; returns the pass record.

    ``spec``: ``workload`` (name), ``params`` (its ``WORKLOADS`` entry),
    ``seed``, ``spawned_at`` (``time.monotonic()`` when the process was
    started), ``dir`` (this pass's scratch directory), ``expected`` (the
    digests to match, ``None`` while recording), ``record`` (also collect
    every digest ``expected.json`` needs), ``trace`` and, when tracing,
    ``trace_out`` (where the Chrome trace goes).
    """
    directory = Path(spec["dir"])
    recorder = restore = None
    if spec["trace"]:
        recorder = span_lib.Recorder(
            directory / "spans", f"{spec['workload']}-{spec['seed']}"
        )
        span_cost = recorder.span_cost()
        restore = span_lib.install(recorder)
    ctx = Context(directory, spec["workload"], spec["seed"], spec["expected"], recorder)
    workload = build(spec["params"])
    try:
        with ctx.span("bench.setup"):
            workload.setup(ctx)
        ready = time.monotonic()
        cpu = time.process_time() + _children_cpu()
        with ctx.span("bench.pass"):
            outcome = workload.run(ctx)
        end = time.monotonic()
        cpu = time.process_time() + _children_cpu() - cpu
        if spec["record"] and isinstance(workload, ServiceMix):
            outcome.digests = workload.record_all()
    finally:
        workload.close(ctx)
        if restore is not None:
            restore()
    server_report = directory / "service-report.json"
    if server_report.exists():
        # The service's CPU from readiness on (its shutdown adds a few ms).
        ready_cpu = json.loads((directory / "service-ready.json").read_text())["cpu_s"]
        cpu += json.loads(server_report.read_text())["cpu_s"] - ready_cpu
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "setup_s": ready - spec["spawned_at"],
        "wall_s": end - ready,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024,
        "instructions": outcome.instructions,
        "latency_p95_ms": span_lib.nearest_rank(
            [seconds * 1000 for seconds in outcome.calls], 95
        ),
        "calls": len(outcome.calls),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digests": outcome.digests,
    }
    if recorder is not None:
        record["layers"] = _trace_report(
            spec, workload, recorder, outcome, ready, end, span_cost
        )
    return record


def _trace_report(spec, workload, recorder, outcome, start, end, span_cost) -> dict:
    """Merge the pass's spans, check every process left some, write the
    Chrome trace and return the per-layer metrics."""
    from repro.obs.export import validate_chrome_trace

    spilled = span_lib.load_spilled(recorder.spill_dir)
    if len(spilled) < workload.processes:
        raise RuntimeError(
            f"{spec['workload']}: spans from {len(spilled)} of "
            f"{workload.processes} other processes"
        )
    other = "service" if isinstance(workload, ServiceMix) else "pool worker"
    names = {recorder.pid: "pass", **{pid: other for pid in spilled}}
    merged = recorder.spans + [span for group in spilled.values() for span in group]
    doc = span_lib.chrome_trace(merged, spec["spawned_at"], names)
    problems = validate_chrome_trace(doc)
    if problems:
        raise RuntimeError(f"invalid Chrome trace: {problems[:3]}")
    out = Path(spec["trace_out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{spec['workload']}.trace.json").write_text(json.dumps(doc))
    return span_lib.layer_metrics(
        merged, pid=recorder.pid, start=start, end=end,
        jobs=max(workload.processes, 1), span_cost=span_cost,
        requests=outcome.requests, service_stats=outcome.service_stats,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="pass spec (JSON file)")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    record = run_pass(spec)
    (Path(spec["dir"]) / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
