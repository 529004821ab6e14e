"""E15 — Perturbation robustness: why chi charges for fine probabilities.

(Extension beyond the paper's formal results, implementing its Section 1
motivation.)  The argument: a probability realized by a noisy physical
process carries *additive* error, so a ``1/2^l`` bias has relative
error ``~ eps 2^l`` — fine coins are fragile, coarse coins are robust,
and composing coarse coins into fine ones (Algorithm 2) buys back the
precision at a memory price the chi metric makes visible.

Measured here:

* the realized stop probability of a direct ``1/D`` coin vs the
  composite ``coin(k, l)`` under per-agent additive noise ``eps`` on
  every *base* coin;
* the end-to-end search cost of Algorithm 1 (direct fine coin) vs
  Non-Uniform-Search (coarse coins composed) under the same noise.

The composite coin's realized tails probability is ``prod(p_i')`` over
``k`` noisy base coins — relative error ``~ k * eps * 2^l`` — versus the
direct coin's ``~ eps * D``.  For ``eps = c/D`` the direct coin's walk
lengths explode (some agents essentially never stop) while the
composite machine drifts by a constant factor.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import theory
from repro.experiments.base import DEFAULT_SEED, ExperimentResult, check_scale
from repro.experiments.compiler import ExperimentSpec, execute_spec
from repro.grid.geometry import Point
from repro.robustness.perturbation import perturb_probability
from repro.sim.kernels import SENTINEL, batch_lshape
from repro.sim.rng import derive_seed
from repro.sim.runner import ExperimentRow, rows_to_markdown
from repro.sim.stats import mean_ci

_SCALES = {
    "smoke": {"distance": 64, "n_agents": 8, "trials": 60, "noise_factors": (0.25, 0.5, 1.0)},
    "paper": {
        "distance": 256,
        "n_agents": 8,
        "trials": 300,
        "noise_factors": (0.125, 0.25, 0.5, 1.0),
    },
}


def realized_direct_stop(
    distance: int, epsilon: float, rng: np.random.Generator
) -> float:
    """A noisy agent's realized ``1/D`` stop probability."""
    return max(perturb_probability(1.0 / distance, epsilon, rng), 1e-12)


def realized_composite_stop(
    distance: int, ell: int, epsilon: float, rng: np.random.Generator
) -> float:
    """A noisy agent's realized composite stop probability.

    ``coin(k, l)`` stops when all ``k`` noisy base coins show tails:
    the realized probability is the product of ``k`` independently
    perturbed ``2^{-l}`` biases.
    """
    k = max(1, math.ceil(math.log2(distance) / ell))
    product = 1.0
    for _ in range(k):
        product *= perturb_probability(2.0**-ell, epsilon, rng)
    return max(product, 1e-12)


def noisy_search_mean(
    distance: int,
    n_agents: int,
    target: Point,
    realized_stop,
    trials: int,
    seed: int,
    tag: int,
) -> float:
    """Mean M_moves when each trial's colony shares one noisy machine.

    Trial ``t`` realizes its stop probability from its own stream,
    ``derive_seed(seed, tag, t)``; the colonies then run as one batch
    with per-trial stop probabilities, drawing from ``derive_seed(seed,
    tag)``, an address no trial stream uses.
    """
    budget = 256 * int(theory.expected_moves_upper_bound(distance, n_agents)) + 10_000
    stops = np.array([
        realized_stop(np.random.default_rng(derive_seed(seed, tag, trial)))
        for trial in range(trials)
    ])
    best, *_ = batch_lshape(
        np.random.default_rng(derive_seed(seed, tag)),
        stops, n_agents, trials, target, budget,
    )
    return float(np.mean(np.where(best == SENTINEL, budget, best)))


def _measure(scale: str = "smoke", seed: int = DEFAULT_SEED) -> ExperimentResult:
    params = _SCALES[check_scale(scale)]
    distance, n_agents = params["distance"], params["n_agents"]
    ell = 1
    target = (distance, distance)
    rows = []
    checks = {}
    notes = []

    clean_mean = noisy_search_mean(
        distance, n_agents, target,
        lambda rng: 1.0 / distance, params["trials"], seed, 0,
    )

    for factor in params["noise_factors"]:
        epsilon = factor / distance
        direct_mean = noisy_search_mean(
            distance, n_agents, target,
            lambda rng: realized_direct_stop(distance, epsilon, rng),
            params["trials"], seed, 1,
        )
        composite_mean = noisy_search_mean(
            distance, n_agents, target,
            lambda rng: realized_composite_stop(distance, ell, epsilon, rng),
            params["trials"], seed, 2,
        )
        direct_ratio = direct_mean / clean_mean
        composite_ratio = composite_mean / clean_mean
        rows.append(
            ExperimentRow(
                params={"eps*D": factor},
                estimate=mean_ci([direct_mean]),
                extras={
                    "clean mean": clean_mean,
                    "direct degradation": direct_ratio,
                    "composite mean": composite_mean,
                    "composite degradation": composite_ratio,
                },
            )
        )
        checks[f"eps*D={factor}: composite tolerates noise (<= 3x)"] = (
            composite_ratio <= 3.0
        )
        if factor >= 0.5:
            checks[f"eps*D={factor}: composite beats direct"] = (
                composite_mean < direct_mean
            )
        if factor == 1.0:
            # The fragility itself: noise the size of the coin's bias
            # must cost the direct coin a large factor, not only lose
            # to the composite.
            checks[f"eps*D={factor}: direct coin degrades (>= 3x)"] = (
                direct_ratio >= 3.0
            )

    # Microscopic view: realized stop probabilities.
    rng = np.random.default_rng(derive_seed(seed, 3))
    epsilon = 1.0 / distance
    direct_stops = [
        realized_direct_stop(distance, epsilon, rng) for _ in range(4000)
    ]
    composite_stops = [
        realized_composite_stop(distance, ell, epsilon, rng) for _ in range(4000)
    ]
    direct_cv = float(np.std(direct_stops) / np.mean(direct_stops))
    composite_cv = float(np.std(composite_stops) / np.mean(composite_stops))
    checks["realized bias spread: composite tighter than direct"] = (
        composite_cv < direct_cv
    )
    notes.append(
        f"At eps = 1/D the direct 1/D coin's realized bias has coefficient "
        f"of variation {direct_cv:.2f} (some agents essentially never stop "
        f"walking) versus {composite_cv:.2f} for the composed coarse coins — "
        f"the Section 1 motivation for charging log2(l) in chi, quantified."
    )

    table = rows_to_markdown(
        rows,
        ["eps*D"],
        "direct-coin mean",
        [
            "clean mean",
            "direct degradation",
            "composite mean",
            "composite degradation",
        ],
    )
    return ExperimentResult(
        experiment_id="E15",
        title=f"Additive-noise robustness at D={distance} (extension)",
        paper_claim=(
            "Section 1 (motivation): small probabilities are sensitive to "
            "additive disturbances; probability boosting via memory "
            "(Algorithm 2) hides that cost, which chi makes explicit."
        ),
        table=table,
        checks=checks,
        notes=notes,
    )


def spec(scale: str = "smoke") -> ExperimentSpec:
    """E15 as data: no declared sweeps — the bespoke measurement is the analyze pass."""
    check_scale(scale)
    return ExperimentSpec(
        experiment_id="E15",
        sweeps=(),
        analyze=lambda context: _measure(context.scale, context.seed),
    )


def run(scale: str = "smoke", seed: int = DEFAULT_SEED) -> ExperimentResult:
    return execute_spec(spec(scale), scale, seed)
