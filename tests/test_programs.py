"""Benchmark-kernel tests: functional correctness pinned, characteristics
within the tuned bands."""

import pytest

from repro.programs import PAPER_TABLE1, benchmark_suite, kernel, kernel_names
from repro.trace import compute_stats

#: Architectural checksums, pinned.  A change here means the kernel's
#: functional behaviour changed — deliberate retuning only.
EXPECTED_OUTPUT = {
    "compress": [64592, 226],
    "gcc": [19800],
    "go": [5358],
    "ijpeg": [17184],
    "m88ksim": [32760],
    "perl": [11382872],
    "vortex": [689040],
    "xlisp": [40],  # the 40 solutions of 7-queens
}


def test_suite_has_the_papers_eight_benchmarks():
    assert kernel_names() == [
        "compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex", "xlisp",
    ]
    assert set(PAPER_TABLE1) == set(kernel_names())


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_functional_checksum(name):
    assert kernel(name).run_functional() == EXPECTED_OUTPUT[name]


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_prediction_eligibility_near_paper(name):
    spec = kernel(name)
    stats = compute_stats(spec.trace())
    measured = 100.0 * stats.prediction_eligible_fraction
    assert abs(measured - spec.paper_predicted_pct) < 6.0, (
        f"{name}: {measured:.1f}% vs paper {spec.paper_predicted_pct}%"
    )


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_trace_is_reasonably_sized(name):
    trace = kernel(name).trace()
    assert 5_000 <= len(trace) <= 200_000


def test_trace_truncation():
    trace = kernel("compress").trace(max_instructions=100)
    assert len(trace) == 100


def test_kernel_lookup():
    assert kernel("gcc").name == "gcc"
    with pytest.raises(KeyError):
        kernel("spice")


def test_select_benchmarks_returns_suite_order():
    from repro.programs.suite import select_benchmarks

    assert select_benchmarks() == kernel_names()
    assert select_benchmarks(["perl", "compress", "perl"]) == ["compress", "perl"]


@pytest.mark.parametrize(
    "selection, message",
    [
        (["compress", "cmopress"], r"unknown benchmark\(s\) \['cmopress'\]"),
        (["micro:fib"], r"unknown benchmark\(s\) \['micro:fib'\]"),
        ([], "no benchmarks selected"),
    ],
)
def test_select_benchmarks_rejects_bad_selections(selection, message):
    from repro.programs.suite import select_benchmarks

    with pytest.raises(ValueError, match=message):
        select_benchmarks(selection)


def test_suite_order_matches_table1():
    suite = benchmark_suite()
    assert [s.name for s in suite] == kernel_names()
    assert suite[0].paper_dynamic_mil == 103
    assert suite[-1].paper_predicted_pct == 61.7


def test_every_kernel_has_branches_and_memory():
    for spec in benchmark_suite():
        stats = compute_stats(spec.trace(max_instructions=5000))
        assert stats.branches > 0, spec.name
        assert stats.loads > 0, spec.name
        assert stats.stores > 0, spec.name
