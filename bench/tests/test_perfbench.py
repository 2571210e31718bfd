"""Self-tests of the benchmark, outside the tier-1 suite:

    PYTHONPATH=src python -m pytest bench/tests
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

import compare
import run
import spans
import workloads

#: Every workload at a budget that takes a second or two per pass.
TINY = {
    "fig3": {**workloads.WORKLOADS["fig3"], "kernels": ("compress", "perl"),
             "max_instructions": 300},
    "sweeps": {**workloads.WORKLOADS["sweeps"], "kernels": ("go",),
               "max_instructions": 200, "sweeps": ("vp_ports_sweep",)},
    "long_pool2": {**workloads.WORKLOADS["long_pool2"],
                   "kernels": ("compress", "perl"), "max_instructions": 600},
    "service_mix": {**workloads.WORKLOADS["service_mix"], "kernels": ("perl",),
                    "max_instructions": 300, "requests_per_client": 6},
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The benchmark at tiny budgets, with digests recorded afresh."""
    directory = tmp_path_factory.mktemp("bench")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "WORKLOADS", TINY)
        patch.setattr(run, "EXPECTED", directory / "expected.json")
        patch.setattr(run, "BASELINE", directory / "baseline.json")
        out = directory / "out"
        assert run.main(["--record", "--seconds", "0", "--out", str(out)]) == 0
        yield directory, out


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _newest_results(out) -> dict:
    return json.loads(max(out.glob("results-*.json"), key=lambda p: p.stat().st_mtime)
                      .read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, trace):
    _, out = tiny
    capsys.readouterr()
    assert run.main(["--seconds", "0", "--trace", str(trace), "--out", str(out)]) == 0
    listed = run.load_benchmark()["per_layer" if trace else "end_to_end"]
    line = _last_json_line(capsys.readouterr().out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(line["metrics"][metric["name"]]["value"], (int, float))
    results = _newest_results(out)
    assert [r["workload"] for r in results["runs"]] == list(TINY)
    for result in results["runs"]:
        assert {m["name"] for m in listed} <= set(result["metrics"])
    for metric in run.load_benchmark()["per_layer"]:
        assert spans.UNITS[metric["name"]] == metric["unit"]


def test_wrong_digest_fails_every_operation(tiny, capsys, monkeypatch):
    directory, out = tiny
    expected = json.loads((directory / "expected.json").read_text())
    expected["fig3"] = "0" * 16
    expected["service_mix"] = {key: "0" * 16 for key in expected["service_mix"]}
    planted = directory / "planted.json"
    planted.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", planted)
    capsys.readouterr()
    code = run.main(["--workload", "fig3", "--workload", "service_mix",
                     "--seconds", "0", "--out", str(out)])
    assert code != 0
    line = _last_json_line(capsys.readouterr().out)
    assert not line["correct"]
    for result in _newest_results(out)["runs"]:
        assert result["attempted"] > 0
        assert result["failed"] == result["attempted"]


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(20, 0, -1)]
    assert spans.nearest_rank(values, 50) == 10
    assert spans.nearest_rank(values, 95) == 19
    assert spans.nearest_rank(values, 100) == 20
    assert spans.nearest_rank(values, 1) == 1
    # The rank rounds up: 90% of 4 samples is the 4th, 99% of 10 the 10th.
    assert spans.nearest_rank([4.0, 1.0, 3.0, 2.0], 90) == 4
    assert spans.nearest_rank([float(v) for v in range(1, 11)], 99) == 10
    assert spans.nearest_rank([7.5], 95) == 7.5
    assert spans.nearest_rank([], 95) == 0


def _span(span_id, parent, name, start, end, pid=1, **attrs):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "tid": 1, "run": "t", **attrs}


def test_engine_self_time_excludes_nested_specialization():
    engine = _span("1:1", "1:0", "engine.run", 0.0, 10.0, instructions=100, cycles=60)
    codegen = _span("1:2", "1:1", "engine.specialize", 1.0, 3.0, key="k")
    # A pool worker's span names the parent's span that forked it; it
    # runs in another process, so it does not shorten that span.
    worker = _span("2:1", "1:1", "engine.run", 2.0, 6.0, pid=2,
                   instructions=40, cycles=20)
    root = _span("1:0", None, "bench.pass", 0.0, 10.0)
    found = [root, engine, codegen, worker]
    own = spans.self_times(found)
    assert own["1:1"] == pytest.approx(8.0)
    assert own["2:1"] == pytest.approx(4.0)
    metrics = spans.layer_metrics(found, pid=1, start=0.0, end=10.0, jobs=2,
                                  span_cost=0.0)
    assert metrics["engine.run_s"] == pytest.approx(12.0)
    assert metrics["engine.specialize_s"] == pytest.approx(2.0)
    assert metrics["engine.instructions"] == 140
    assert metrics["engine.cycles"] == 80
    assert metrics["engine.specialize_classes"] == 1
    assert metrics["harness.worker_busy_frac"] == pytest.approx(14.0 / 20.0)
    assert metrics["bench.unaccounted_frac"] == pytest.approx(0.0)
    assert set(metrics) == set(spans.UNITS)


def test_recorder_nests_spans_and_spills_from_forked_workers(tmp_path):
    recorder = spans.Recorder(tmp_path, "t")
    inner = recorder.wrap("engine.specialize", lambda: time.sleep(0.02))

    def work():
        inner()
        time.sleep(0.01)

    outer = recorder.wrap("engine.run", work)
    outer()
    first, second = recorder.spans
    assert first["name"] == "engine.specialize" and first["parent"] == second["id"]
    own = spans.self_times(recorder.spans)
    assert own[second["id"]] == pytest.approx(
        (second["end"] - second["start"]) - (first["end"] - first["start"]))

    child = multiprocessing.get_context("fork").Process(target=outer)
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    spilled = spans.load_spilled(tmp_path)
    assert list(spilled) == [child.pid]
    assert [s["name"] for s in spilled[child.pid]] == ["engine.specialize", "engine.run"]
    assert len(recorder.spans) == 2


STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
NOISY = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 100.0, 95.0, 105.0]


def test_compare_verdicts():
    assert compare.verdict(STEADY, [v * 1.2 for v in STEADY], "lower", 0.1) == "REGRESSION"
    assert compare.verdict(STEADY, [v * 0.8 for v in STEADY], "higher", 0.1) == "REGRESSION"
    assert compare.verdict(STEADY, [v * 1.05 for v in STEADY], "lower", 0.1) == "ok"
    assert compare.verdict(NOISY, NOISY, "lower", 0.1) == "unresolved"
    assert compare.verdict(NOISY, [10.0] * 10, "lower", 0.1) == "better (every run)"


def test_claim_needs_nine_tenths_of_ten_pairs():
    faster = [v * 0.8 for v in STEADY]
    assert compare.claim(STEADY, faster, "lower")[0]
    assert not compare.claim(STEADY[:5], faster[:5], "lower")[0]
    mixed = faster[:8] + [v * 1.1 for v in STEADY[8:]]
    assert not compare.claim(STEADY, mixed, "lower")[0]


def _results(path, wall, failed=0):
    metrics = {m["name"]: 1.0 for m in run.load_benchmark()["end_to_end"]}
    runs = [
        {"workload": "fig3", "rep": rep, "failed": failed, "attempted": 40,
         "metrics": {**metrics, "wall_s": value}}
        for rep, value in enumerate(wall)
    ]
    path.write_text(json.dumps({"trace": False, "runs": runs}))
    return str(path)


def test_compare_exit_status(tmp_path, capsys):
    bound = {m["name"]: m["bound"] for m in run.load_benchmark()["end_to_end"]}["wall_s"]
    parent = _results(tmp_path / "a.json", STEADY)
    same = _results(tmp_path / "b.json", STEADY)
    slower = _results(tmp_path / "c.json", [v * (1 + 2 * bound) for v in STEADY])
    failing = _results(tmp_path / "d.json", STEADY, failed=1)
    assert compare.main([parent, same]) == 0
    assert compare.main([parent, slower]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([parent, failing]) == 1
    assert compare.main([parent, same, "--claim", "wall_s@fig3"]) == 1
