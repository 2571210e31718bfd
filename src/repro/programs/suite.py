"""The benchmark suite: SPECint95 stand-ins, one kernel per benchmark.

:func:`benchmark_suite` returns the eight kernels with the paper's Table 1
reference numbers attached, so the Table 1 harness can print paper-vs-ours
side by side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from repro.asm import Program, assemble
from repro.func import Machine
from repro.programs import (
    compress as _compress,
    gcc as _gcc,
    go as _go,
    ijpeg as _ijpeg,
    m88ksim as _m88ksim,
    perl as _perl,
    vortex as _vortex,
    xlisp as _xlisp,
)
from repro.trace import TraceRecord, capture_trace


@dataclass(frozen=True)
class KernelSpec:
    """One benchmark kernel and its paper reference data."""

    name: str
    source: str
    input_label: str
    #: Paper Table 1: dynamic instructions, in millions.
    paper_dynamic_mil: int
    #: Paper Table 1: % of dynamic instructions value-predicted.
    paper_predicted_pct: float

    def program(self) -> Program:
        return assemble(self.source)

    def trace(self, max_instructions: int | None = None) -> list[TraceRecord]:
        """Execute the kernel and capture its dynamic trace."""
        machine = Machine(self.program())
        return capture_trace(machine, max_instructions)

    def capture(self, writer, max_instructions: int | None = None) -> int:
        """Execute the kernel straight into ``writer`` (a
        :class:`~repro.trace.binary.TraceWriter`); returns the number of
        records written.

        The columnar form of :meth:`trace` and the trace cache's one
        capture path: the machine's execution core hands each
        instruction's fields to ``writer.row``, so no per-instruction
        object is built.
        """
        return Machine(self.program()).execute(writer.row, max_instructions)

    def run_functional(self) -> list[int]:
        """Run to completion and return the PRINT output (checksums)."""
        machine = Machine(self.program())
        machine.run()
        return machine.output


_SUITE: tuple[KernelSpec, ...] = (
    KernelSpec("compress", _compress.SOURCE, "400000 e 2231", 103, 70.5),
    KernelSpec("gcc", _gcc.SOURCE, "gcc.i", 203, 67.3),
    KernelSpec("go", _go.SOURCE, "99", 132, 78.7),
    KernelSpec("ijpeg", _ijpeg.SOURCE, "specmun.ppm", 129, 82.0),
    KernelSpec("m88ksim", _m88ksim.SOURCE, "scrabbl.in", 120, 70.6),
    KernelSpec("perl", _perl.SOURCE, "modified train", 40, 63.9),
    KernelSpec("vortex", _vortex.SOURCE, "modified train", 101, 61.9),
    KernelSpec("xlisp", _xlisp.SOURCE, "7 queens", 202, 61.7),
)

#: Paper Table 1, for reporting alongside measured values.
PAPER_TABLE1: dict[str, tuple[int, float]] = {
    spec.name: (spec.paper_dynamic_mil, spec.paper_predicted_pct) for spec in _SUITE
}


def benchmark_suite() -> tuple[KernelSpec, ...]:
    """All eight kernels, in the paper's Table 1 order."""
    return _SUITE


def kernel_names() -> list[str]:
    return [spec.name for spec in _SUITE]


class BenchmarkSelectionError(ValueError):
    """A benchmark selection names an unknown kernel, or none at all."""


def select_benchmarks(benchmarks: Iterable[str] | None = None) -> list[str]:
    """The names of the selected suite kernels, in suite order (all of
    them for ``None``).

    Raises :class:`BenchmarkSelectionError` naming any entry that is not
    a suite kernel, and when the selection is empty.
    """
    names = kernel_names()
    if benchmarks is None:
        return names
    wanted = list(benchmarks)
    unknown = [name for name in wanted if name not in names]
    if unknown:
        raise BenchmarkSelectionError(
            f"unknown benchmark(s) {unknown}; know {names}"
        )
    if not wanted:
        raise BenchmarkSelectionError("no benchmarks selected")
    return [name for name in names if name in wanted]


#: Benchmark-name prefix selecting a synthetic micro-kernel
#: (``micro:fib`` etc.) instead of a suite member.  Resolving these here
#: lets every consumer of :func:`kernel` — the trace cache, the parallel
#: harness's staging and pool workers, the service — run micro kernels
#: with no special-casing of its own.
MICRO_PREFIX = "micro:"


@functools.lru_cache(maxsize=None)
def kernel(name: str) -> KernelSpec:
    """Look up a kernel by benchmark name (suite member or ``micro:*``)."""
    if name.startswith(MICRO_PREFIX):
        from repro.programs.micro import micro_kernel

        # Paper Table 1 has no row for synthetic kernels; the reference
        # fields are zeroed and reporting layers skip them.
        return KernelSpec(
            name=name,
            source=micro_kernel(name[len(MICRO_PREFIX):]),
            input_label="synthetic",
            paper_dynamic_mil=0,
            paper_predicted_pct=0.0,
        )
    for spec in _SUITE:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown benchmark {name!r}; know {kernel_names()}")
