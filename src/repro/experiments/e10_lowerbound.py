"""E10 — The lower bound in action (Theorem 4.1 / Corollary 4.11).

For automata with small, *fixed* chi (constant as ``D`` grows, hence
eventually below ``log log D - omega(1)``), the theorem predicts: within
the horizon ``Delta = D^{2-o(1)}`` the colony covers only ``o(D^2)`` of
the window, misses an adversarially placed target w.h.p., and finds a
uniformly placed target with probability ``o(1)``.

The experiment runs three below-threshold specimens (uniform walk,
biased walk, random bounded machine) against a growing ``D``, measures
coverage and find rates at the explicit horizon ``D^{1.75}``, and
contrasts them with the above-threshold Non-Uniform-Search given the
*same* move budget — the gap the paper's title is about.
"""

from __future__ import annotations

import numpy as np

from repro.core.nonuniform import NonUniformSearch
from repro.experiments.base import DEFAULT_SEED, ExperimentResult, check_scale
from repro.experiments.compiler import ExperimentSpec, execute_spec
from repro.lowerbound.colony import simulate_colony
from repro.lowerbound.coverage import adversarial_target
from repro.lowerbound.theory import horizon_moves
from repro.markov.random_automata import (
    biased_walk_automaton,
    random_bounded_automaton,
    uniform_walk_automaton,
)
from repro.sim.backends import AlgorithmSpec, SimulationRequest
from repro.sim.rng import derive_seed
from repro.sim.runner import ExperimentRow, rows_to_markdown
from repro.sim.service import simulate
from repro.sim.stats import mean_ci

_SCALES = {
    "smoke": {"distances": (24, 48), "n_agents": 8, "trials": 8, "epsilon": 0.25},
    "paper": {
        "distances": (32, 64, 128, 256),
        "n_agents": 16,
        "trials": 20,
        "epsilon": 0.25,
    },
}


def specimens(seed: int):
    """The below-threshold automata the experiment probes."""
    rng = np.random.default_rng(derive_seed(seed, 1000))
    return [
        ("uniform-walk", uniform_walk_automaton()),
        ("biased-walk", biased_walk_automaton([3, 1, 2, 2], ell=3)),
        ("random(b=3,l=2)", random_bounded_automaton(rng, bits=3, ell=2)),
    ]


def _measure(scale: str = "smoke", seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = _SCALES[check_scale(scale)]
    n_agents = params["n_agents"]
    epsilon = params["epsilon"]
    rows = []
    checks = {}
    notes = []

    coverage_by_name: dict[str, list[float]] = {}
    for name, automaton in specimens(seed):
        for distance in params["distances"]:
            horizon = horizon_moves(distance, epsilon)
            target = adversarial_target(automaton, distance)
            found_adversarial = 0
            found_uniform = 0
            coverages = []
            for trial in range(params["trials"]):
                rng = np.random.default_rng(
                    derive_seed(seed, 10, distance, trial)
                )
                result = simulate_colony(
                    automaton,
                    n_agents,
                    horizon,
                    rng,
                    window_radius=distance,
                    target=target,
                )
                coverages.append(result.coverage_fraction)
                found_adversarial += result.found
                uniform_target = (
                    int(rng.integers(-distance, distance + 1)),
                    int(rng.integers(-distance, distance + 1)),
                )
                found_uniform += bool(
                    result.visited[
                        uniform_target[0] + distance, uniform_target[1] + distance
                    ]
                )
            coverage = float(np.mean(coverages))
            coverage_by_name.setdefault(name, []).append(coverage)
            adversarial_rate = found_adversarial / params["trials"]
            uniform_rate = found_uniform / params["trials"]
            rows.append(
                ExperimentRow(
                    params={"automaton": name, "D": distance},
                    estimate=mean_ci(coverages),
                    extras={
                        "horizon D^1.75": float(horizon),
                        "P[find adversarial]": adversarial_rate,
                        "P[cover uniform]": uniform_rate,
                    },
                )
            )
            checks[f"{name} D={distance}: adversarial target survives"] = (
                adversarial_rate <= 0.25
            )
        series = coverage_by_name[name]
        checks[f"{name}: coverage fraction decays with D"] = series[-1] < series[0]

    # Contrast: the above-threshold algorithm with the same per-agent
    # move budget.  At finite D the optimal-regime constant (~64 D^2/n)
    # crosses below the D^{1.75} horizon only once n >= ~64 D^{0.25}, so
    # the contrast colony is sized accordingly; asymptotically any fixed
    # n separates the regimes.
    contrast_rows = []
    for distance in params["distances"]:
        horizon = horizon_moves(distance, epsilon)
        n_contrast = int(np.ceil(256.0 * distance**0.25))
        request = SimulationRequest(
            algorithm=AlgorithmSpec.nonuniform(distance, 1),
            n_agents=n_contrast,
            target=(distance, distance),
            move_budget=horizon,
            n_trials=params["trials"],
            seed=seed,
            seed_keys=(20, distance),
        )
        rate = simulate(request).find_rate
        chi = NonUniformSearch(distance, 1).selection_complexity().chi
        contrast_rows.append(
            ExperimentRow(
                params={"D": distance},
                estimate=mean_ci([rate]),
                extras={"chi": chi, "budget": float(horizon), "n": float(n_contrast)},
            )
        )
        checks[f"nonuniform D={distance}: finds corner within D^1.75 budget"] = (
            rate >= 0.5
        )
    notes.append(
        "Below-threshold machines leave the adversarial cell untouched and "
        "cover a window fraction that shrinks as D grows, while "
        "Non-Uniform-Search (chi ~ log log D) finds the hardest placement "
        "within the same D^{1.75} move budget — the exponential performance "
        "gap of Theorem 4.1."
    )
    notes.append(
        "Fixed automata have constant chi, so they fall below the "
        "log log D - omega(1) threshold for all sufficiently large D; the "
        "D-sweep shows their coverage already obeying the o(D^2) regime at "
        "simulable sizes."
    )

    table = (
        rows_to_markdown(
            rows,
            ["automaton", "D"],
            "coverage fraction",
            ["horizon D^1.75", "P[find adversarial]", "P[cover uniform]"],
        )
        + "\n\nAbove-threshold contrast (Non-Uniform-Search, same budget):\n\n"
        + rows_to_markdown(
            contrast_rows, ["D"], "P[find corner]", ["chi", "budget", "n"]
        )
    )
    return ExperimentResult(
        experiment_id="E10",
        title="Below-threshold automata cannot beat D^{2-o(1)}",
        paper_claim=(
            "Theorem 4.1 / Corollary 4.11: chi <= log log D - omega(1) implies "
            "some in-window placement stays unfound for D^{2-o(1)} moves "
            "w.h.p., and a uniform placement is found w.p. o(1)."
        ),
        table=table,
        checks=checks,
        notes=notes,
    )


def spec(scale: str = "smoke") -> ExperimentSpec:
    """E10 as data: no declared sweeps — the bespoke measurement is the analyze pass."""
    check_scale(scale)
    return ExperimentSpec(
        experiment_id="E10",
        sweeps=(),
        analyze=lambda context: _measure(context.scale, context.seed),
    )


def run(scale: str = "smoke", seed: int = DEFAULT_SEED) -> ExperimentResult:
    return execute_spec(spec(scale), scale, seed)
