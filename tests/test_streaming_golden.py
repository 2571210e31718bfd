"""Runs on a loaded VSRT v5 entry are bit-identical to the in-memory path.

Every golden snapshot (13 main + 32 variants) is replayed
through its trace written to VSRT v5 bytes and loaded back — the
buffer-backed :class:`~repro.trace.columnar.ColumnarTrace` a cache hit
returns; the counters must match the committed snapshots bit for bit.
A second group proves the same through the harness backends — pool
workers, on their own or behind a running service, opening the
staged cache entry, or the pool's temp staging entry when the cache is
off — against the serial in-memory result.

This is the "the entry changes nothing" guarantee: every path is exact.
(The module and test names keep the vocabulary of the chunked format
they were written for, so their ids stay stable.)
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.model import (
    GREAT_MODEL,
    SpeculativeExecutionModel,
    named_models,
)
from repro.core.variables import SelectionPolicy
from repro.engine.config import ProcessorConfig
from repro.engine.sim import run_baseline, run_trace
from repro.func import Machine
from repro.programs.micro import micro_kernel
from repro.programs.suite import benchmark_suite
from repro.trace.binary import dumps_trace, loads_trace
from repro.trace.capture import capture_trace
from repro.vp.confidence import SaturatingConfidenceEstimator
from repro.vp.hybrid import HybridPredictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor
from repro.vp.tagged import TaggedContextPredictor

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SNAPSHOTS = sorted(GOLDEN_DIR.glob("*.json"))
VARIANT_SNAPSHOTS = sorted((GOLDEN_DIR / "variants").glob("*.json"))

MICRO_TRACE_LIMIT = 3000
SPEC_TRACE_LIMIT = 2000

_CONFIDENCE = {
    "R": lambda: "R",
    "SaturatingConfidenceEstimator": SaturatingConfidenceEstimator,
}
_PREDICTOR = {
    "context": lambda: None,
    "LastValuePredictor": LastValuePredictor,
    "StridePredictor": StridePredictor,
    "HybridPredictor": HybridPredictor,
    "TaggedContextPredictor": TaggedContextPredictor,
}

#: Captured records per workload label, shared across all tests in this
#: module (capture is the expensive part; every test reloads cheaply).
_TRACES: dict[str, list] = {}


def counters_dict(counters) -> dict:
    return {
        f.name: getattr(counters, f.name)
        for f in fields(counters)
        if f.name != "extra"
    }


def _snapshot_model(snapshot) -> SpeculativeExecutionModel:
    """The snapshot's model and selection policy; a snapshot without
    those fields was recorded with the great model and paper selection."""
    model = named_models()[snapshot.get("model", "great")]
    selection = SelectionPolicy(snapshot.get("selection", "paper"))
    return replace(model, variables=replace(model.variables, selection=selection))


def _records(label: str):
    cached = _TRACES.get(label)
    if cached is not None:
        return cached
    kind, name = label.split("_", 1)
    if kind == "micro":
        machine = Machine(assemble(micro_kernel(name)))
        records = capture_trace(machine, MICRO_TRACE_LIMIT)
    else:
        for spec in benchmark_suite():
            if spec.name == name:
                records = spec.trace(SPEC_TRACE_LIMIT)
                break
        else:
            raise KeyError(label)
    _TRACES[label] = records
    return records


def _loaded(label: str):
    """The workload's trace as a cache hit serves it: buffer-backed."""
    trace = loads_trace(dumps_trace(_records(label)))
    assert "buffer-backed" in repr(trace)
    return trace


@pytest.mark.parametrize("path", SNAPSHOTS, ids=[p.stem for p in SNAPSHOTS])
def test_streaming_counters_match_golden(path):
    assert SNAPSHOTS, "tests/golden/ is empty"
    snapshot = json.loads(path.read_text())
    trace = _loaded(snapshot["workload"])
    assert len(trace) == snapshot["trace_length"]
    config = ProcessorConfig(
        issue_width=snapshot["config"]["issue_width"],
        window_size=snapshot["config"]["window_size"],
    )
    base = run_baseline(trace, config)
    assert counters_dict(base.counters) == snapshot["base"]
    vp = run_trace(
        trace, config, GREAT_MODEL, confidence="R", update_timing="D"
    )
    assert counters_dict(vp.counters) == snapshot["vp"]


@pytest.mark.parametrize(
    "path", VARIANT_SNAPSHOTS, ids=[p.stem for p in VARIANT_SNAPSHOTS]
)
def test_streaming_variant_counters_match_golden(path):
    assert VARIANT_SNAPSHOTS, "tests/golden/variants/ is empty"
    snapshot = json.loads(path.read_text())
    trace = _loaded(snapshot["workload"])
    assert len(trace) == snapshot["trace_length"]
    config = ProcessorConfig(
        issue_width=snapshot["config"]["issue_width"],
        window_size=snapshot["config"]["window_size"],
    )
    result = run_trace(
        trace,
        config,
        _snapshot_model(snapshot),
        confidence=_CONFIDENCE[snapshot["confidence"]](),
        update_timing=snapshot["update_timing"],
        predictor=_PREDICTOR[snapshot["predictor"]](),
    )
    assert counters_dict(result.counters) == snapshot["vp"]


class TestBackendsStreaming:
    """Every execution backend serves v5 cache entries bit-identically.

    The same grid runs serially from memory and through each backend,
    which reads each trace from its staged entry; counters must agree
    exactly.
    """

    @pytest.fixture()
    def fresh_memo(self, monkeypatch):
        from repro.harness import parallel

        monkeypatch.setattr(parallel, "_TRACE_CACHE", {})

    def _grid(self):
        from repro.harness.parallel import SimJob

        config = ProcessorConfig()
        return [
            SimJob("compress", config, None, 1_500),
            SimJob("compress", config, GREAT_MODEL, 1_500),
            SimJob("m88ksim", config, GREAT_MODEL, 1_500),
        ]

    def _reference(self, monkeypatch, tmp_path):
        """The grid run serially on in-memory record lists, then a
        fresh cache set up for the backend under test."""
        from repro.harness import parallel
        from repro.programs.suite import kernel
        from repro.trace import cache as trace_cache

        reference = []
        for job in self._grid():
            records = kernel(job.benchmark).trace(job.max_instructions)
            if job.model is None:
                reference.append(run_baseline(records, job.config))
            else:
                reference.append(run_trace(
                    records,
                    job.config,
                    job.model,
                    confidence=job.confidence,
                    update_timing=job.update_timing,
                ))
        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path / "staged"))
        monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
        return reference

    @staticmethod
    def _assert_staged(directory):
        """The premise of the test: the backend's traces were staged as
        one entry per distinct trace."""
        from repro.trace.binary import entry_records

        entries = sorted(directory.glob("*.vsrt5"))
        assert len(entries) == 2  # compress and m88ksim
        for entry in entries:
            assert entry_records(entry) == 1_500, entry.name

    @pytest.mark.parametrize("backend,jobs,cache", [
        pytest.param("local", 1, True, id="local-1"),
        pytest.param("local", 2, True, id="local-2"),
        # Cache off: the pool stages into a per-run temp directory.
        pytest.param("local", 2, False, id="local-2-cache-off"),
        # A running service on a two-process pool.
        pytest.param("service", 2, True, id="service-2"),
    ])
    def test_backend_matches_in_memory(
        self, request, monkeypatch, tmp_path, backend, jobs, cache
    ):
        import tempfile

        from repro.harness import parallel
        from repro.harness.parallel import run_jobs
        from repro.service.client import ServiceClient
        from repro.trace import cache as trace_cache

        reference = self._reference(monkeypatch, tmp_path)
        pooled = []
        if not cache:
            monkeypatch.setenv(trace_cache.ENV_VAR, "off")
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
            real_run_pool = parallel._run_pool

            def run_pool(units, workers, directory, *rest):
                # The temp directory only lives as long as the pool.
                self._assert_staged(directory)
                pooled.append(directory)
                return real_run_pool(units, workers, directory, *rest)

            monkeypatch.setattr(parallel, "_run_pool", run_pool)
        if backend == "service":
            service = request.getfixturevalue("pool_service")
            results = ServiceClient(*service.address).run(self._grid())
        else:
            results = run_jobs(self._grid(), jobs=jobs)
        assert [counters_dict(r.counters) for r in results] == [
            counters_dict(r.counters) for r in reference
        ]
        if cache:
            self._assert_staged(tmp_path / "staged")
        else:
            assert pooled and not list(tmp_path.glob("repro-traces-*"))

    def test_service_backend_matches_in_memory(self, monkeypatch, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceConfig, SimulationService

        reference = self._reference(monkeypatch, tmp_path)
        with SimulationService(ServiceConfig(store=None)) as service:
            results = ServiceClient(*service.address).run(self._grid())
        assert [counters_dict(r.counters) for r in results] == [
            counters_dict(r.counters) for r in reference
        ]
        self._assert_staged(tmp_path / "staged")
