"""Experiment registry: one entry per reproduced theorem/lemma.

The paper is pure theory (no tables or figures), so the reproduction
defines one experiment per result — see DESIGN.md Section 5 for the
index.  Each experiment module exposes two views of the same
experiment:

* ``run(scale, seed) -> ExperimentResult`` — execute it standalone
  (:data:`REGISTRY`), producing a markdown table of paper-predicted vs
  measured values plus named boolean checks;
* ``spec(scale) -> ExperimentSpec`` — the experiment as data
  (:data:`SPEC_REGISTRY`): declared simulation sweeps plus an analysis
  pass, which is what the experiment compiler
  (:mod:`repro.experiments.compiler`) binds, dedups, and executes as
  one program.  ``run`` is defined as the uncompiled execution of
  ``spec``, so the two views can never drift apart.

``python -m repro.experiments`` regenerates EXPERIMENTS.md content
(``--compile`` routes through the compiler); the benchmark harness
under ``benchmarks/`` times each experiment's kernel.

Scales: ``smoke`` finishes in seconds (used by integration tests and
benchmark defaults); ``paper`` is the fuller sweep recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments.base import ExperimentResult
from repro.experiments.compiler import ExperimentSpec

from repro.experiments.e01_iteration_moves import run as run_e01, spec as spec_e01
from repro.experiments.e02_hit_probability import run as run_e02, spec as spec_e02
from repro.experiments.e03_nonuniform_scaling import run as run_e03, spec as spec_e03
from repro.experiments.e04_coin import run as run_e04, spec as spec_e04
from repro.experiments.e05_walk import run as run_e05, spec as spec_e05
from repro.experiments.e06_square_search import run as run_e06, spec as spec_e06
from repro.experiments.e07_chi_accounting import run as run_e07, spec as spec_e07
from repro.experiments.e08_phase_structure import run as run_e08, spec as spec_e08
from repro.experiments.e09_uniform_scaling import run as run_e09, spec as spec_e09
from repro.experiments.e10_lowerbound import run as run_e10, spec as spec_e10
from repro.experiments.e11_drift import run as run_e11, spec as spec_e11
from repro.experiments.e12_baselines import run as run_e12, spec as spec_e12
from repro.experiments.e13_tradeoff_frontier import run as run_e13, spec as spec_e13
from repro.experiments.e14_ablation_ell import run as run_e14, spec as spec_e14
from repro.experiments.e15_robustness import run as run_e15, spec as spec_e15
from repro.experiments.e16_mixing import run as run_e16, spec as spec_e16

REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "E01": run_e01,
    "E02": run_e02,
    "E03": run_e03,
    "E04": run_e04,
    "E05": run_e05,
    "E06": run_e06,
    "E07": run_e07,
    "E08": run_e08,
    "E09": run_e09,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "E14": run_e14,
    "E15": run_e15,
    "E16": run_e16,
}

#: The declarative view: experiment id -> ``spec(scale)`` factory.
SPEC_REGISTRY: Dict[str, Callable[[str], ExperimentSpec]] = {
    "E01": spec_e01,
    "E02": spec_e02,
    "E03": spec_e03,
    "E04": spec_e04,
    "E05": spec_e05,
    "E06": spec_e06,
    "E07": spec_e07,
    "E08": spec_e08,
    "E09": spec_e09,
    "E10": spec_e10,
    "E11": spec_e11,
    "E12": spec_e12,
    "E13": spec_e13,
    "E14": spec_e14,
    "E15": spec_e15,
    "E16": spec_e16,
}

__all__ = ["REGISTRY", "SPEC_REGISTRY", "ExperimentResult", "ExperimentSpec"]
