"""The sweep table: every design-space sweep is declared once in
``SWEEPS`` and every consumer derives its sweep rows from it."""

import json
from pathlib import Path

from repro.harness import sweeps
from repro.harness.experiments import EXPERIMENTS
from repro.harness.export import EXPORTS, sweep_csv
from repro.harness.sweeps import SWEEPS, Sweep

ROOT = Path(__file__).resolve().parent.parent


def test_every_sweep_function_is_a_table_entry():
    exported = {
        name: value for name, value in vars(sweeps).items()
        if name.endswith("_sweep") and not name.startswith("_")
    }
    assert len(SWEEPS) == 14
    assert {s.variants.__name__: s for s in SWEEPS.values()} == exported
    assert all(isinstance(s, Sweep) for s in exported.values())


def test_golden_pins_every_sweep():
    golden = json.loads((ROOT / "tests/golden/sweeps/sweeps.json").read_text())
    assert set(golden["sweeps"]) == {s.variants.__name__ for s in SWEEPS.values()}


def test_experiments_and_exports_derive_sweep_rows():
    ablation_ids = {key for key in EXPERIMENTS if key.startswith("abl-")}
    assert ablation_ids == set(SWEEPS)
    for sweep in SWEEPS.values():
        experiment = EXPERIMENTS[sweep.id]
        assert (experiment.title, experiment.paper_ref) == (
            sweep.title, sweep.paper_ref
        )
        assert EXPORTS[sweep.id] == (sweep, sweep_csv)


def test_rendered_heading_comes_from_the_entry():
    sweep = SWEEPS["abl-verify"]
    text = EXPERIMENTS["abl-verify"].run(max_instructions=300, benchmarks=["go"])
    assert text.splitlines()[0] == sweep.heading
    assert sweep.heading.startswith("ABL-V:")


def test_full_reproduction_sections_follow_the_table():
    committed = json.loads((ROOT / "results/full_results.json").read_text())
    sections = [key for key in committed if key.startswith("ABL-")]
    assert sections == [s.section for s in SWEEPS.values() if s.section]


def test_variants_are_reachable_for_instrumentation():
    from repro.engine.config import ProcessorConfig

    variants = SWEEPS["abl-verify"].variants(ProcessorConfig(8, 48))
    assert [v.label for v in variants][:2] == ["parallel-network", "hierarchical"]
    run = sweeps.instrument_variant(variants[0], "micro:fib", max_instructions=500)
    assert run.result.counters.retired > 0
