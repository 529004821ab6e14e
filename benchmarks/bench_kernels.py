"""Per-family kernel throughput benchmark and regression gate.

Measures colonies/sec through the ``batched`` backend (the shared
NumPy kernel core) for every family the kernels cover,
plus one **long-tail** lshape workload — a large move budget with a
distant target, so the pair pool drains to a few survivors that grind
thousands of rounds.  That tail is exactly what the blocked-round
optimization targets, and the gate proves it on the same machine, in
the same run: an in-file copy of the pre-extraction per-round kernel
(``_legacy_batch_lshape``, reproducing the PR-4-era backend's per-round
work including its bincount diagnostics) is timed against the same
workload and the new kernel must beat it by >= 1.3x.

The three families the blocked-round rewrite targeted — ``uniform``,
``doubly-uniform``, ``random-walk`` — carry the same kind of gate at a
higher bar: verbatim in-file copies of their pre-optimization kernels
(``_legacy_batch_uniform`` & co., the per-round one-draw-per-round
versions bound to NumPy) run the same family workloads in the same
process, and each new kernel must beat its legacy twin by >= 5x.

Colonies/sec is not comparable across families — a doubly-uniform
colony is far more work than a Feinerman one — so each family also
reports its work rate: ``uniforms_per_second``, the random variates
its kernel draws per colony (float uniforms, step bytes, phase coins
and center coordinates alike, counted by a forwarding RNG on one
untimed run) times its colonies/sec.

Numbers land in the ``kernels`` section of ``BENCH_sim_backends.json``
(and the dated ``BENCH_history.jsonl`` trail).  Running with
``--check`` additionally compares each family against the committed
record with a coarse cross-machine floor — catching
order-of-magnitude regressions (a de-vectorized op, an accidental
object-dtype array) without flaking on hardware differences.

Run as pytest (CI's perf step) or directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py --check

``--families uniform random-walk`` restricts measurement to the named
families for quick local iteration (the shared record is left untouched
on a filtered run so a partial payload never clobbers it).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from bench_sim_backends import RECORD_PATH, update_record
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.kernels import numpy_namespace, run_family

#: New kernel must beat the in-file legacy kernel by this factor on the
#: long-tail workload (same machine, same run — hardware-independent).
SPEEDUP_FLOOR = 1.3

#: Each blocked family kernel must beat its verbatim in-file legacy
#: twin by this factor on the family workload (same machine, same run).
FAMILY_SPEEDUP_FLOOR = 5.0

#: Families with an in-file pre-optimization twin to race against.
LEGACY_FAMILIES = ("uniform", "doubly-uniform", "random-walk")

#: ``--check`` floor against the committed record: coarse on purpose,
#: CI machines are not the machine that wrote the record.
CROSS_MACHINE_FLOOR = 0.35

#: Large budget + distant target: most colonies find early, the tail
#: grinds — the regime where per-round overhead used to dominate.
LONG_TAIL = {
    "algorithm": "algorithm1",
    "distance": 32,
    "n_agents": 8,
    "target": (32, 32),
    "move_budget": 2_000_000,
    "n_trials": 256,
}

#: One representative workload per kernel family (trial counts scaled
#: so each measurement covers a comparable wall-clock slice).
FAMILY_WORKLOADS = {
    "algorithm1": (AlgorithmSpec.algorithm1(32), 400, 100_000, (32, 32)),
    "nonuniform": (AlgorithmSpec.nonuniform(32, 2), 400, 100_000, (32, 32)),
    "uniform": (AlgorithmSpec.uniform(1), 128, 500_000, (16, 16)),
    "doubly-uniform": (AlgorithmSpec.doubly_uniform(1), 128, 500_000, (16, 16)),
    "random-walk": (AlgorithmSpec.random_walk(), 64, 200_000, (12, 9)),
    "feinerman": (AlgorithmSpec.feinerman(), 512, 500_000, (16, 16)),
}

N_AGENTS = 8
SEED = 20140507
REPEATS = 2


def _family_request(family: str) -> SimulationRequest:
    spec, n_trials, move_budget, target = FAMILY_WORKLOADS[family]
    return SimulationRequest(
        algorithm=spec, n_agents=N_AGENTS, target=target,
        move_budget=move_budget, n_trials=n_trials, seed=SEED,
    )


def _rate(request: SimulationRequest) -> float:
    """Best-of-N colonies/sec through the batched backend, cache off."""
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = simulate(request, backend="batched", cache=False)
        elapsed = time.perf_counter() - start
        assert len(result.outcomes) == request.n_trials
        best = max(best, request.n_trials / elapsed)
    return best


class _DrawCounter:
    """Forwards to a kernel RNG and sums the variates its calls return."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.drawn = 0

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.drawn += int(np.size(out))
            return out

        return counted


def _uniforms_per_colony(request: SimulationRequest) -> float:
    """Variates the kernel draws per colony, on the batched backend's
    own stream (one pooled generator at trial 0's seed)."""
    xp = numpy_namespace()
    rng = _DrawCounter(xp.rng(request.trial_seed(0)))
    run_family(xp, rng, request, request.n_trials)
    return rng.drawn / request.n_trials


# ---------------------------------------------------------------------------
# The pre-extraction lshape kernel, kept as the speedup reference: one
# round per RNG draw, two compaction passes per round, per-round
# bincount diagnostics — the same work the PR-4-era backend did (only
# the facade/outcome-construction shell is omitted, which makes the
# measured speedup conservative: the new path is timed *through* the
# facade).
# ---------------------------------------------------------------------------

_SENTINEL = np.iinfo(np.int64).max


def _legacy_sample_sorties(rng, stop_probability, count):
    signs_v = rng.integers(0, 2, size=count) * 2 - 1
    signs_h = rng.integers(0, 2, size=count) * 2 - 1
    lengths_v = rng.geometric(stop_probability, size=count) - 1
    lengths_h = rng.geometric(stop_probability, size=count) - 1
    return signs_v, lengths_v, signs_h, lengths_h


def _legacy_sortie_hits(target, signs_v, lengths_v, signs_h, lengths_h):
    x, y = target
    hit_vertical = (x == 0) & (signs_v * y >= 0) & (lengths_v >= abs(y))
    hit_horizontal = (
        (signs_v * lengths_v == y) & (signs_h * x >= 0) & (lengths_h >= abs(x))
    )
    hit = hit_vertical | hit_horizontal
    moves_at_hit = np.where(hit_vertical, abs(y), lengths_v + abs(x))
    return hit, moves_at_hit


def _legacy_batch_lshape(
    stop_probability, n_agents, n_trials, target, rng, move_budget
):
    pair_trial = np.repeat(np.arange(n_trials), n_agents)
    pair_agent = np.tile(np.arange(n_agents), n_trials)
    best = np.full(n_trials, _SENTINEL, dtype=np.int64)
    best_finder = np.full(n_trials, -1, dtype=np.int64)
    trial_iterations = np.zeros(n_trials, dtype=np.int64)
    trial_rounds = np.zeros(n_trials, dtype=np.int64)
    cumulative = np.zeros(n_trials * n_agents, dtype=np.int64)

    expected_len = max(1.0, 2.0 * (1.0 / stop_probability - 1.0))
    max_rounds = int(200 * (move_budget / expected_len + 1)) + 10_000
    for _ in range(max_rounds):
        if pair_trial.size == 0:
            break
        counts = np.bincount(pair_trial, minlength=n_trials)
        trial_iterations += counts
        trial_rounds += counts > 0
        sv, lv, sh, lh = _legacy_sample_sorties(
            rng, stop_probability, pair_trial.size
        )
        hit, moves_at_hit = _legacy_sortie_hits(target, sv, lv, sh, lh)
        totals = cumulative + moves_at_hit
        eligible = hit & (totals <= move_budget) & (totals < best[pair_trial])
        if np.any(eligible):
            np.minimum.at(best, pair_trial[eligible], totals[eligible])
            improved = eligible & (totals == best[pair_trial])
            best_finder[pair_trial[improved]] = pair_agent[improved]
        survivors = ~hit
        cumulative = (cumulative + lv + lh)[survivors]
        pair_trial = pair_trial[survivors]
        pair_agent = pair_agent[survivors]
        limit = np.minimum(move_budget, best[pair_trial])
        keep = cumulative < limit
        cumulative = cumulative[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


# ---------------------------------------------------------------------------
# The pre-blocked-round uniform / doubly-uniform / random-walk kernels,
# verbatim from the kernel core as it stood before the blocked rewrite,
# bound to NumPy: one fused draw per *round* (uniform families), one
# modest trajectory block with full (pairs x block x 2) int64 scratch
# (walk).  Their diagnostics (bincount per round, scatter-min finder
# fold) are preserved so the measured speedup compares equal work.
# ---------------------------------------------------------------------------

_LEGACY_MAX_PHASE = 50
_LEGACY_MAX_EPOCH = 40
_LEGACY_WALK_ELEMENTS = 1 << 19


def _legacy_fused_sorties(rng, stop_probability, shape):
    fused = (2, *shape) if isinstance(shape, tuple) else (2, shape)
    signs = rng.integers(0, 2, size=fused) * 2 - 1
    lengths = rng.geometric(stop_probability, size=fused) - 1
    return signs[0], lengths[0], signs[1], lengths[1]


def _legacy_score_hits(best, best_finder, pair_trial, pair_agent, totals, eligible):
    if not np.any(eligible):
        return
    np.minimum.at(best, pair_trial[eligible], totals[eligible])
    improved = eligible & (totals == best[pair_trial])
    if not np.any(improved):
        return
    winner = np.full(best.size, _SENTINEL, dtype=np.int64)
    np.minimum.at(
        winner, pair_trial[improved], pair_agent[improved].astype(np.int64)
    )
    decided = winner != _SENTINEL
    best_finder[decided] = winner[decided]


def _legacy_state(n_trials, n_agents):
    pair_trial = np.repeat(np.arange(n_trials), n_agents)
    pair_agent = np.tile(np.arange(n_agents), n_trials)
    best = np.full(n_trials, _SENTINEL, dtype=np.int64)
    best_finder = np.full(n_trials, -1, dtype=np.int64)
    trial_iterations = np.zeros(n_trials, dtype=np.int64)
    trial_rounds = np.zeros(n_trials, dtype=np.int64)
    return pair_trial, pair_agent, best, best_finder, trial_iterations, trial_rounds


def _legacy_batch_uniform(
    n_agents, ell, K, n_trials, target, rng, move_budget,
    max_phase=_LEGACY_MAX_PHASE,
):
    discount = math.floor(math.log2(n_agents) / ell) if n_agents > 1 else 0
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _legacy_state(n_trials, n_agents)
    pairs = n_trials * n_agents
    cumulative = np.zeros(pairs, dtype=np.int64)
    phase = np.zeros(pairs, dtype=np.int64)
    calls_left = np.zeros(pairs, dtype=np.int64)

    phase1_len = max(1.0, 2.0 * (2.0**ell - 1.0))
    max_rounds = int(200 * (move_budget / phase1_len + 1)) + 10_000
    for _ in range(max_rounds):
        if pair_trial.size == 0:
            break
        # Refill exhausted phase coins; pairs that run out of phases
        # retire below via the `alive` mask.
        need = calls_left <= 0
        while np.any(need):
            phase[need] += 1
            need &= phase <= max_phase
            if not np.any(need):
                break
            exponent = K + np.maximum(phase[need] - discount, 0)
            rho = np.exp2(exponent.astype(np.float64) * ell)
            calls_left[need] = rng.geometric(1.0 / rho) - 1
            need &= calls_left <= 0
        alive = phase <= max_phase
        if not np.any(alive):
            break
        if pair_trial.size != int(alive.sum()):
            pair_trial = pair_trial[alive]
            pair_agent = pair_agent[alive]
            cumulative = cumulative[alive]
            phase = phase[alive]
            calls_left = calls_left[alive]
        counts = np.bincount(pair_trial, minlength=n_trials)
        trial_iterations += counts
        trial_rounds += counts > 0
        stop_p = np.exp2(-(phase.astype(np.float64) * ell))
        sv, lv, sh, lh = _legacy_fused_sorties(rng, stop_p, (pair_trial.size,))
        hit, moves_at_hit = _legacy_sortie_hits(target, sv, lv, sh, lh)
        totals = cumulative + moves_at_hit
        eligible = hit & (totals <= move_budget) & (totals < best[pair_trial])
        _legacy_score_hits(
            best, best_finder, pair_trial, pair_agent, totals, eligible
        )
        new_cum = cumulative + lv + lh
        keep = ~hit & (new_cum < np.minimum(move_budget, best[pair_trial]))
        cumulative = new_cum[keep]
        calls_left = calls_left[keep] - 1
        phase = phase[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _legacy_batch_doubly_uniform(
    n_agents, ell, K, n_trials, target, rng, move_budget,
    max_epoch=_LEGACY_MAX_EPOCH,
):
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _legacy_state(n_trials, n_agents)
    pairs = n_trials * n_agents
    cumulative = np.zeros(pairs, dtype=np.int64)
    epoch = np.full(pairs, 1, dtype=np.int64)
    phase = np.zeros(pairs, dtype=np.int64)
    calls_left = np.zeros(pairs, dtype=np.int64)

    phase1_len = max(1.0, 2.0 * (2.0**ell - 1.0))
    max_rounds = int(200 * (move_budget / phase1_len + 1)) + 10_000
    for _ in range(max_rounds):
        if pair_trial.size == 0:
            break
        need = calls_left <= 0
        while np.any(need):
            phase[need] += 1
            rolled = need & (phase > epoch)
            if np.any(rolled):
                epoch[rolled] += 1
                phase[rolled] = 1
            need &= epoch <= max_epoch
            if not np.any(need):
                break
            exponent = K + np.maximum(phase[need] - epoch[need] // ell, 0)
            rho = np.exp2(exponent.astype(np.float64) * ell)
            calls_left[need] = rng.geometric(1.0 / rho) - 1
            need &= calls_left <= 0
        alive = epoch <= max_epoch
        if not np.any(alive):
            break
        if pair_trial.size != int(alive.sum()):
            pair_trial = pair_trial[alive]
            pair_agent = pair_agent[alive]
            cumulative = cumulative[alive]
            epoch = epoch[alive]
            phase = phase[alive]
            calls_left = calls_left[alive]
        counts = np.bincount(pair_trial, minlength=n_trials)
        trial_iterations += counts
        trial_rounds += counts > 0
        stop_p = np.exp2(-(phase.astype(np.float64) * ell))
        sv, lv, sh, lh = _legacy_fused_sorties(rng, stop_p, (pair_trial.size,))
        hit, moves_at_hit = _legacy_sortie_hits(target, sv, lv, sh, lh)
        totals = cumulative + moves_at_hit
        eligible = hit & (totals <= move_budget) & (totals < best[pair_trial])
        _legacy_score_hits(
            best, best_finder, pair_trial, pair_agent, totals, eligible
        )
        new_cum = cumulative + lv + lh
        keep = ~hit & (new_cum < np.minimum(move_budget, best[pair_trial]))
        cumulative = new_cum[keep]
        calls_left = calls_left[keep] - 1
        epoch = epoch[keep]
        phase = phase[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _legacy_batch_random_walk(n_agents, n_trials, target, rng, move_budget):
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _legacy_state(n_trials, n_agents)
    steps_table = np.array([(0, 1), (0, -1), (-1, 0), (1, 0)], dtype=np.int64)
    positions = np.zeros((n_trials * n_agents, 2), dtype=np.int64)
    x, y = target
    moves_done = 0
    while moves_done < move_budget and pair_trial.size:
        pairs = pair_trial.size
        block = min(
            move_budget - moves_done,
            max(1, _LEGACY_WALK_ELEMENTS // pairs),
        )
        counts = np.bincount(pair_trial, minlength=n_trials)
        trial_iterations += counts * block
        trial_rounds += counts > 0
        choices = rng.integers(0, 4, size=(pairs, block))
        trajectory = positions[:, None, :] + np.cumsum(
            steps_table[choices], axis=1
        )
        hits = (trajectory[:, :, 0] == x) & (trajectory[:, :, 1] == y)
        pair_hit = hits.any(axis=1)
        if pair_hit.any():
            step_of_hit = np.where(pair_hit, np.argmax(hits, axis=1), block)
            totals = moves_done + step_of_hit + 1
            _legacy_score_hits(
                best, best_finder, pair_trial, pair_agent, totals, pair_hit
            )
        positions = trajectory[:, -1, :]
        moves_done += block
        # Lockstep: any later find is later in time, so finished
        # colonies retire wholesale.
        keep = best[pair_trial] == _SENTINEL
        positions = positions[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _legacy_family_rate(family: str) -> float:
    """Best-of-N colonies/sec for a family's verbatim legacy kernel."""
    spec, n_trials, move_budget, target = FAMILY_WORKLOADS[family]
    best = 0.0
    for _ in range(REPEATS):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        if family == "uniform":
            _legacy_batch_uniform(
                N_AGENTS, spec.ell or 1, spec.K, n_trials, target, rng,
                move_budget, spec.max_phase or _LEGACY_MAX_PHASE,
            )
        elif family == "doubly-uniform":
            _legacy_batch_doubly_uniform(
                N_AGENTS, spec.ell or 1, spec.K, n_trials, target, rng,
                move_budget,
            )
        elif family == "random-walk":
            _legacy_batch_random_walk(
                N_AGENTS, n_trials, target, rng, move_budget
            )
        else:
            raise ValueError(f"no legacy kernel for family {family!r}")
        elapsed = time.perf_counter() - start
        best = max(best, n_trials / elapsed)
    return best


def _legacy_long_tail_rate() -> float:
    best = 0.0
    for _ in range(REPEATS):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        _legacy_batch_lshape(
            1.0 / LONG_TAIL["distance"], LONG_TAIL["n_agents"],
            LONG_TAIL["n_trials"], LONG_TAIL["target"], rng,
            LONG_TAIL["move_budget"],
        )
        elapsed = time.perf_counter() - start
        best = max(best, LONG_TAIL["n_trials"] / elapsed)
    return best


def _long_tail_rate() -> float:
    request = SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(LONG_TAIL["distance"]),
        n_agents=LONG_TAIL["n_agents"], target=LONG_TAIL["target"],
        move_budget=LONG_TAIL["move_budget"], n_trials=LONG_TAIL["n_trials"],
        seed=SEED,
    )
    return _rate(request)


def measure(families=None) -> dict:
    """Run every measurement and return the ``kernels`` section payload.

    ``families`` restricts the per-family sweep (and the legacy races
    and long-tail run that belong to the selected families) — used by
    the ``--families`` flag for quick local iteration.  A filtered
    payload is partial and must not be written to the shared record.
    """
    if families is None:
        families = sorted(FAMILY_WORKLOADS)
    else:
        unknown = sorted(set(families) - set(FAMILY_WORKLOADS))
        if unknown:
            raise ValueError(
                f"unknown families {unknown}; "
                f"choose from {sorted(FAMILY_WORKLOADS)}"
            )
        families = sorted(set(families))
    per_family = {
        family: round(_rate(_family_request(family)), 2)
        for family in families
    }
    per_colony = {
        family: round(_uniforms_per_colony(_family_request(family)), 1)
        for family in families
    }
    legacy_family = {
        family: round(_legacy_family_rate(family), 2)
        for family in LEGACY_FAMILIES if family in families
    }
    payload = {
        "colonies_per_second": per_family,
        "uniforms_per_colony": per_colony,
        "uniforms_per_second": {
            family: round(per_family[family] * per_colony[family])
            for family in families
        },
        "legacy_colonies_per_second": legacy_family,
        "speedup_vs_legacy": {
            family: round(per_family[family] / rate, 2)
            for family, rate in legacy_family.items()
        },
        "speedup_floor": SPEEDUP_FLOOR,
        "family_speedup_floor": FAMILY_SPEEDUP_FLOOR,
    }
    if "algorithm1" in families:
        long_tail = _long_tail_rate()
        legacy = _legacy_long_tail_rate()
        payload.update({
            "long_tail_workload": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in LONG_TAIL.items()
            },
            "long_tail_colonies_per_second": round(long_tail, 2),
            "legacy_long_tail_colonies_per_second": round(legacy, 2),
            "speedup_vs_legacy_long_tail": round(long_tail / legacy, 2),
        })
    return payload


def assert_gates(payload: dict) -> None:
    if "speedup_vs_legacy_long_tail" in payload:
        speedup = payload["speedup_vs_legacy_long_tail"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"blocked kernels must beat the pre-extraction per-round kernel "
            f"by >= {SPEEDUP_FLOOR}x on the long-tail workload, got {speedup}x"
        )
    for family, speedup in payload.get("speedup_vs_legacy", {}).items():
        assert speedup >= FAMILY_SPEEDUP_FLOOR, (
            f"{family}: blocked kernel must beat its in-file legacy twin "
            f"by >= {FAMILY_SPEEDUP_FLOOR}x, got {speedup}x"
        )


def check_against_record(payload: dict, recorded: dict) -> list:
    """Coarse regression check vs the committed record; returns failures."""
    failures = []
    baseline = recorded.get("colonies_per_second", {})
    for family, rate in payload["colonies_per_second"].items():
        floor = baseline.get(family, 0.0) * CROSS_MACHINE_FLOOR
        if rate < floor:
            failures.append(
                f"{family}: {rate} colonies/sec < {floor:.1f} "
                f"({CROSS_MACHINE_FLOOR}x the recorded "
                f"{baseline[family]})"
            )
    return failures


def test_kernel_throughput_record():
    """Pytest entry: measure, gate, and record the kernels section."""
    recorded = {}
    if RECORD_PATH.exists():
        try:
            recorded = json.loads(RECORD_PATH.read_text()).get("kernels", {})
        except json.JSONDecodeError:
            recorded = {}
    payload = measure()
    record = update_record("kernels", payload)
    print()
    print(json.dumps(record.get("kernels", {}), indent=2, sort_keys=True))
    assert_gates(payload)
    failures = check_against_record(payload, recorded)
    assert not failures, "kernel throughput regressed: " + "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on gate violations or regressions vs the "
        "committed record",
    )
    parser.add_argument(
        "--families", nargs="+", metavar="FAMILY",
        choices=sorted(FAMILY_WORKLOADS),
        help="measure only these families (skips the record update — "
        "a partial payload must not clobber the kernels section)",
    )
    args = parser.parse_args(argv)

    recorded = {}
    if RECORD_PATH.exists():
        try:
            recorded = json.loads(RECORD_PATH.read_text()).get("kernels", {})
        except json.JSONDecodeError:
            recorded = {}
    payload = measure(args.families)
    if args.families is None:
        update_record("kernels", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not args.check:
        return 0
    try:
        assert_gates(payload)
    except AssertionError as error:
        print(f"GATE FAILED: {error}", file=sys.stderr)
        return 1
    failures = check_against_record(payload, recorded)
    if failures:
        print("REGRESSION vs recorded baseline:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    parts = [
        f"{family} {speedup}x"
        for family, speedup in sorted(payload.get("speedup_vs_legacy", {}).items())
    ]
    if "speedup_vs_legacy_long_tail" in payload:
        parts.append(f"long-tail {payload['speedup_vs_legacy_long_tail']}x")
    print(
        "kernel gates OK vs in-file legacy twins: " + ", ".join(parts)
        + f" (floors {FAMILY_SPEEDUP_FLOOR}x family / {SPEEDUP_FLOOR}x long-tail)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
