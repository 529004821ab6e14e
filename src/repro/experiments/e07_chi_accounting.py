"""E07 — Non-Uniform-Search chi accounting and performance (Theorem 3.7).

Theorem 3.7: Non-Uniform-Search finds targets within distance ``D`` in
``O(D^2/n + D)`` expected moves with ``chi = log log D + O(1)``.  The
experiment tabulates the declared chi (``3 + ceil(log2 k)`` bits plus
``log2 l``) and the mechanical chi of the explicit product automaton
against ``log2 log2 D`` across four orders of magnitude of ``D``, and
verifies that replacing Algorithm 1's ``1/D`` coin with the composite
coin leaves performance within the ``2^l``-factor the proof allows.

The performance-parity section is a declared sweep (one point per
algorithm variant, resolved by ``auto`` to the ``batched`` kernels) so
the experiment compiler can cache it with the rest of the program; the
chi accounting is pure arithmetic and stays in the analysis pass.
"""

from __future__ import annotations

from typing import Mapping

from repro.core import theory
from repro.core.nonuniform import NonUniformSearch, build_nonuniform_automaton
from repro.core.selection import chi_threshold
from repro.experiments.base import DEFAULT_SEED, ExperimentResult, check_scale
from repro.experiments.compiler import (
    ExperimentSpec,
    SpecContext,
    SweepSpec,
    execute_spec,
)
from repro.sim.backends import AlgorithmSpec, SimulationRequest
from repro.sim.runner import ExperimentRow, SimulationTrial, rows_to_markdown

_SCALES = {
    "smoke": {
        "distances": (16, 256, 4096),
        "ells": (1, 2),
        "perf_distance": 64,
        "trials": 80,
    },
    "paper": {
        "distances": (16, 64, 256, 1024, 4096, 65536, 2**20),
        "ells": (1, 2, 4),
        "perf_distance": 256,
        "trials": 400,
    },
}

_PERF_AGENTS = 8


def parity_request(params: Mapping[str, object]) -> SimulationRequest:
    """One performance-parity variant: Algorithm 1 or nonuniform(l)."""
    distance = int(params["D"])
    n_agents = int(params["n"])
    ell = int(params["l"])
    spec = (
        AlgorithmSpec.algorithm1(distance)
        if ell == 0
        else AlgorithmSpec.nonuniform(distance, ell)
    )
    budget = 64 * int(theory.expected_moves_upper_bound(distance, n_agents)) + 10_000
    return SimulationRequest(
        algorithm=spec,
        n_agents=n_agents,
        target=(distance, distance),
        move_budget=budget,
    )


def _perf_grid(params) -> tuple:
    distance = params["perf_distance"]
    # l = 0 encodes the Algorithm 1 comparator; grid order is
    # algorithm1 first, then ascending l.  Point i's trials share one
    # batched stream anchored at derive_seed(seed, 7, i, 0).
    return tuple(
        {"D": distance, "n": _PERF_AGENTS, "l": ell}
        for ell in (0, *params["ells"])
    )


def spec(scale: str = "smoke") -> ExperimentSpec:
    """E07 as data: the parity sweep; chi accounting lives in analyze."""
    params = _SCALES[check_scale(scale)]
    return ExperimentSpec(
        experiment_id="E07",
        sweeps=(
            SweepSpec(
                name="parity",
                trial=SimulationTrial(parity_request),
                grid=_perf_grid(params),
                trials=params["trials"],
                seed_keys=(7,),
            ),
        ),
        analyze=_analyze,
    )


def _analyze(context: SpecContext) -> ExperimentResult:
    params = _SCALES[context.scale]
    rows = []
    checks = {}
    notes = []

    from repro.sim.stats import mean_ci

    for distance in params["distances"]:
        threshold = chi_threshold(distance)
        for ell in params["ells"]:
            algorithm = NonUniformSearch(distance, ell)
            declared = algorithm.selection_complexity()
            extras = {
                "log2 log2 D": threshold,
                "declared chi": declared.chi,
                "chi - loglogD": declared.chi - threshold,
            }
            if distance <= 4096:  # automata get large past this
                mechanical = build_nonuniform_automaton(
                    distance, ell
                ).selection_complexity()
                extras["automaton chi"] = mechanical.chi
                checks[f"D={distance} l={ell}: automaton chi within 2 of declared"] = (
                    abs(mechanical.chi - declared.chi) <= 2.0
                )
            rows.append(
                ExperimentRow(
                    params={"D": distance, "l": ell},
                    estimate=mean_ci([declared.chi]),
                    extras=extras,
                )
            )
            checks[f"D={distance} l={ell}: chi <= loglogD + 6"] = (
                declared.chi <= threshold + 6.0
            )

    # chi - log log D must stay bounded as D grows (the O(1) claim).
    ell = 1
    offsets = [
        NonUniformSearch(d, ell).selection_complexity().chi - chi_threshold(d)
        for d in params["distances"]
    ]
    checks["chi - loglogD bounded across D sweep"] = max(offsets) - min(offsets) <= 2.0
    notes.append(
        f"chi - log2 log2 D stays within [{min(offsets):.2f}, {max(offsets):.2f}] "
        f"across the sweep — the Theorem 3.7 additive constant."
    )

    # Performance parity with Algorithm 1 (same D, n).
    distance = params["perf_distance"]
    n_agents = _PERF_AGENTS
    grid = _perf_grid(params)
    sweep = context.rows("parity")
    perf_rows = []
    base = None
    for point, row in zip(grid, sweep):
        ell = int(point["l"])
        label = "algorithm1" if ell == 0 else f"nonuniform l={ell}"
        mean = row.estimate.mean
        if base is None:
            base = mean
        perf_rows.append(
            ExperimentRow(
                params={"algorithm": label},
                estimate=row.estimate,
                extras={"ratio vs algorithm1": mean / base},
            )
        )
        if ell != 0:
            checks[f"l={ell}: slowdown <= 4 * 2^l"] = mean / base <= 4.0 * 2.0**ell

    table = (
        rows_to_markdown(
            rows,
            ["D", "l"],
            "chi",
            ["log2 log2 D", "declared chi", "chi - loglogD", "automaton chi"],
        )
        + f"\n\nPerformance parity at D={distance}, n={n_agents} (corner target):\n\n"
        + rows_to_markdown(
            perf_rows, ["algorithm"], "E[M_moves]", ["ratio vs algorithm1"]
        )
    )
    return ExperimentResult(
        experiment_id="E07",
        title="Non-Uniform-Search: chi = log log D + O(1) at unchanged performance",
        paper_claim=(
            "Theorem 3.7: O(D^2/n + D) moves with chi(A) = "
            "log2(ceil(log2 D / l)) + log2(l) + 3."
        ),
        table=table,
        checks=checks,
        notes=notes,
    )


def run(scale: str = "smoke", seed: int = DEFAULT_SEED) -> ExperimentResult:
    return execute_spec(spec(scale), scale, seed)
