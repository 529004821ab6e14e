"""Compiled vs uncompiled experiment identity at smoke scale.

The experiment compiler's core promise: routing an experiment through
``compile_program`` / ``execute_program`` (dedup'd points, one job
each, cached finalization) produces an :class:`ExperimentResult` — tables, checks,
notes, every byte — identical to the historical sequential ``run()``.
Each side executes against its own fresh cache directory so neither
can borrow the other's results.
"""

from __future__ import annotations

import pytest

import repro.sim.cache as cache_module
from repro.experiments import REGISTRY, SPEC_REGISTRY
from repro.experiments.base import DEFAULT_SEED
from repro.experiments.compiler import compile_program, execute_program
from repro.sim.cache import configure_cache


@pytest.fixture
def split_caches(tmp_path):
    """Two isolated cache dirs; restores the session default after."""
    yield tmp_path / "compiled", tmp_path / "sequential"
    configure_cache(
        directory=cache_module.default_cache_dir(), max_memory_entries=256
    )


@pytest.mark.parametrize("key", ["E03", "E09", "E13"])
def test_compiled_result_bit_identical(key, split_caches):
    compiled_dir, sequential_dir = split_caches

    configure_cache(directory=compiled_dir)
    program = compile_program([SPEC_REGISTRY[key]("smoke")], "smoke", DEFAULT_SEED)
    assert program.stats.declared_points > 0
    report = execute_program(program)
    compiled = report.results[key]

    configure_cache(directory=sequential_dir)
    sequential = REGISTRY[key](scale="smoke", seed=DEFAULT_SEED)

    assert compiled == sequential


def test_compiled_report_text_byte_identical(split_caches):
    """The rendered report matches too — shared section assembly."""
    from repro.experiments.__main__ import generate_report

    compiled_dir, sequential_dir = split_caches
    silent = lambda message: None

    configure_cache(directory=compiled_dir)
    compiled_text, compiled_failures = generate_report(
        only="E03,E04", compiled=True, echo=silent
    )
    configure_cache(directory=sequential_dir)
    sequential_text, sequential_failures = generate_report(
        only="E03,E04", compiled=False, echo=silent
    )

    assert compiled_text == sequential_text
    assert compiled_failures == sequential_failures == 0


def test_compiled_report_at_two_workers_byte_identical(split_caches):
    """Pooled points and pooled finalization change no byte.

    E07's and E09's sweeps both go through the worker pool.
    """
    from repro.experiments.__main__ import generate_report

    compiled_dir, sequential_dir = split_caches
    silent = lambda message: None

    configure_cache(directory=compiled_dir)
    compiled_text, compiled_failures = generate_report(
        only="E07,E09", compiled=True, workers=2, echo=silent
    )
    configure_cache(directory=sequential_dir)
    sequential_text, sequential_failures = generate_report(
        only="E07,E09", compiled=False, workers=1, echo=silent
    )

    assert compiled_text == sequential_text
    assert compiled_failures == sequential_failures == 0
