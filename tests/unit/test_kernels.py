"""Contract suite for the kernel core.

Every family kernel runs through ``run_family``, asserting:

* ``(n_trials,)`` int64 result arrays with coherent per-trial contents;
* request-level determinism (same seed, same arrays);
* edge cases of the blocked draws (pools smaller than a block, budgets
  expiring mid-block, first-round hits, sibling hits within a block).

The legacy twins at the end pin the NumPy path bit for bit: in-file
copies of the prefix-sum sortie kernels (``batch_lshape`` and the phase
families' ``_blocked_phase_rounds``) as they stood before the sparse
first-hit scan, run on the same seeds as the current kernels.  The
exact-output pins at the very end hash every family's outputs and final
generator state against digests recorded before the kernels dropped
their array-namespace wrappers.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.sim import AlgorithmSpec, SimulationRequest
from repro.sim.kernels import core, numpy_namespace, run_family
from repro.sim.kernels.core import SENTINEL
from repro.sim.metrics import FastRunStats

MOVE_BUDGET = 300_000
SEED = 20140507


@pytest.fixture
def xp():
    return numpy_namespace()


def test_public_names_resolve(xp):
    """The package exports resolve, and the namespace handle is the three
    members its callers use, its ``rng`` a plain NumPy Generator."""
    from repro.sim import kernels

    for name in kernels.__all__:
        assert getattr(kernels, name) is not None, name
    assert sorted(vars(xp)) == ["name", "rng", "to_numpy"]
    assert xp.name == "numpy"
    rng = xp.rng(np.random.SeedSequence(SEED))
    assert isinstance(rng, np.random.Generator)


FAMILY_SPECS = {
    "algorithm1": AlgorithmSpec.algorithm1(8),
    "nonuniform": AlgorithmSpec.nonuniform(8, 2),
    "uniform": AlgorithmSpec.uniform(1),
    "doubly-uniform": AlgorithmSpec.doubly_uniform(1),
    "random-walk": AlgorithmSpec.random_walk(),
    "feinerman": AlgorithmSpec.feinerman(),
}


def _request(family: str, n_trials: int) -> SimulationRequest:
    return SimulationRequest(
        algorithm=FAMILY_SPECS[family],
        n_agents=4,
        target=(6, 5),
        move_budget=MOVE_BUDGET,
        n_trials=n_trials,
        seed=SEED,
        distance_bound=8,
    )


def _run(xp, family: str, n_trials: int):
    request = _request(family, n_trials)
    rng = xp.rng(request.trial_seed(0))
    return tuple(
        xp.to_numpy(array)
        for array in run_family(xp, rng, request, n_trials)
    )


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
class TestKernelShapesAndDtypes:
    def test_shapes_dtypes_and_invariants(self, xp, family):
        """(n_trials,) int64 arrays with coherent per-trial contents."""
        best, finder, iters, rounds = _run(xp, family, n_trials=64)
        for array in (best, finder, iters, rounds):
            assert array.shape == (64,)
            assert array.dtype == np.int64
        found = best != SENTINEL
        # This workload finds the target in at least some colonies.
        assert found.any()
        assert ((finder[found] >= 0) & (finder[found] < 4)).all()
        assert (finder[~found] == -1).all()
        assert (best[found] <= MOVE_BUDGET).all()
        assert (iters >= rounds).all()
        assert (rounds[found] >= 1).all()

    def test_deterministic(self, xp, family):
        """Same request => identical arrays."""
        first = _run(xp, family, n_trials=32)
        second = _run(xp, family, n_trials=32)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


BLOCKED_FAMILIES = ["doubly-uniform", "random-walk", "uniform"]


def _edge_run(xp, family: str, *, n_agents: int, target, move_budget: int,
              n_trials: int):
    request = SimulationRequest(
        algorithm=FAMILY_SPECS[family],
        n_agents=n_agents,
        target=target,
        move_budget=move_budget,
        n_trials=n_trials,
        seed=SEED,
        distance_bound=8,
    )
    rng = xp.rng(request.trial_seed(0))
    return tuple(
        xp.to_numpy(array)
        for array in run_family(xp, rng, request, n_trials)
    )


@pytest.mark.parametrize("family", BLOCKED_FAMILIES)
class TestBlockedRoundBoundaries:
    """Boundary hazards of the blocked-round kernels.

    The blocked kernels draw ``(pairs, block)`` rounds at a time; the
    three hazards are a pool far smaller than one block, the move
    budget expiring inside a block, and a sibling's hit pruning the
    pool in the same block as a cheaper hit.  The assertions lean on
    two exact facts: a sortie hit on target ``(x, y)`` costs exactly
    ``|x| + |y|`` moves within its round, and a walk hit needs a step
    count of the same parity as ``|x| + |y|``.
    """

    def test_pool_smaller_than_block(self, xp, family):
        # Two pairs total: the scratch-budget block is orders of
        # magnitude longer than anything this pool can use, so the
        # whole run lives in the degenerate pool < block regime.
        results = _edge_run(
            xp, family, n_agents=2, target=(3, 2), move_budget=50_000,
            n_trials=1,
        )
        best, finder, iters, rounds = results
        for array in results:
            assert array.shape == (1,)
            assert array.dtype == np.int64
        found = best != SENTINEL
        if found[0]:
            assert 5 <= best[0] <= 50_000
            assert 0 <= finder[0] < 2
        else:
            assert finder[0] == -1
        assert iters[0] >= rounds[0]
        again = _edge_run(
            xp, family, n_agents=2, target=(3, 2), move_budget=50_000,
            n_trials=1,
        )
        for a, b in zip(results, again):
            assert np.array_equal(a, b)

    def test_budget_expires_mid_block(self, xp, family):
        # 777 moves is far less than one block's worth of rounds for
        # every family, so the budget boundary lands inside a block:
        # the sparse exceed scan (phase kernels) and the truncated
        # final block with a partial last word (walk) must censor at
        # the budget, never overshoot it.
        best, finder, iters, rounds = _edge_run(
            xp, family, n_agents=4, target=(6, 5), move_budget=777,
            n_trials=128,
        )
        found = best != SENTINEL
        assert found.any()
        assert (best[found] <= 777).all()
        assert (best[found] >= 11).all()
        if family == "random-walk":
            assert (best[found] % 2 == 1).all()
        assert (finder[~found] == -1).all()
        assert (iters >= rounds).all()

    def test_one_move_budget_hits_in_first_round(self, xp, family):
        # A budget of one move shrinks the walk's first block to a
        # single partial word and makes only round-one sortie hits
        # eligible; any reported find must cost exactly one move.
        best, finder, _, _ = _edge_run(
            xp, family, n_agents=8, target=(1, 0), move_budget=1,
            n_trials=256,
        )
        found = best != SENTINEL
        assert found.any()
        assert (best[found] == 1).all()
        assert (finder[~found] == -1).all()

    def test_sibling_hit_prunes_within_block(self, xp, family):
        # A point-blank target with a generous budget makes many
        # agents of one colony hit inside the same block, racing the
        # best-prune.  The winning total can never dip below the
        # |x| + |y| floor — a cheaper value would mean the prune
        # promoted a partial leg.
        best, finder, _, _ = _edge_run(
            xp, family, n_agents=8, target=(1, 1), move_budget=10_000,
            n_trials=64,
        )
        found = best != SENTINEL
        assert found.all()
        assert (best >= 2).all()
        if family == "random-walk":
            assert (best % 2 == 0).all()
        assert ((finder >= 0) & (finder < 8)).all()
        again = _edge_run(
            xp, family, n_agents=8, target=(1, 1), move_budget=10_000,
            n_trials=64,
        )[0]
        assert np.array_equal(best, again)


class TestSortieHelpers:
    def test_sortie_hits_closed_form(self, xp):
        """Hand-checked hit cases: the dense oracle and the kernel's
        candidate scan agree."""
        sv = np.asarray([1, 1, -1, 1], dtype=np.int64)
        lv = np.asarray([5, 3, 2, 0], dtype=np.int64)
        sh = np.asarray([1, 1, 1, -1], dtype=np.int64)
        lh = np.asarray([0, 4, 9, 2], dtype=np.int64)
        hit, moves = _legacy_sortie_hits((2, 3), sv, lv, sh, lh)
        hit = xp.to_numpy(hit)
        moves = xp.to_numpy(moves)
        # Pair 1: vertical leg ends exactly at y=3, horizontal reaches
        # x=2 after 4 >= 2 moves -> hit after lv + |x| = 5 moves.
        assert list(hit) == [False, True, False, False]
        assert moves[1] == 5
        # The same four sorties as one-round rows of a block.
        lengths = np.asarray([5, 3, 2, 0, 0, 4, 9, 2]).astype(np.float32)
        bits = np.asarray([1, 1, 0, 1, 1, 1, 1, 0]).astype(np.float32)
        flat, rows, cols = (
            xp.to_numpy(a)
            for a in core._first_hits((2, 3), lengths, bits, 4, 1, None)
        )
        assert list(rows) == list(flat) == [1] and list(cols) == [0]

    def test_origin_target_short_circuits(self, xp):
        request = SimulationRequest(
            algorithm=AlgorithmSpec.algorithm1(8), n_agents=2,
            target=(0, 0), move_budget=1000, n_trials=5, seed=1,
        )
        rng = xp.rng(request.trial_seed(0))
        best, finder, iters, rounds = (
            xp.to_numpy(a) for a in run_family(xp, rng, request, 5)
        )
        assert (best == 0).all()
        assert (iters == 0).all()


# ---------------------------------------------------------------------------
# Legacy twins: the prefix-sum sortie kernels, kept verbatim (comments
# trimmed) as the bit-identity reference for the sparse first-hit scan.
# Shared helpers (_batch_state, _score_hits, the block schedule) come
# from the current core: the twins pin the per-block body.
# ---------------------------------------------------------------------------


def _take_along(a, idx):
    """Per-row gather: ``a[i, idx[i]]`` for 2-D ``a``, 1-D ``idx``."""
    return np.take_along_axis(a, idx[:, None], axis=1)[:, 0]


def _legacy_sample_sorties_fused(rng, stop_probability, shape):
    fused = (2, *shape) if isinstance(shape, tuple) else (2, shape)
    u = rng.random(size=fused, dtype=np.float32)
    u += u
    signs = np.floor(u)
    u -= signs
    signs += signs
    signs -= 1.0
    denominator = np.minimum(
        np.log1p(-stop_probability).astype(np.float32), -1e-30
    )
    u *= -1.0
    lengths = np.log1p(u)
    lengths /= denominator
    lengths = np.floor(lengths)
    return signs[0], lengths[0], signs[1], lengths[1]


def _legacy_sortie_hits(target, signs_v, lengths_v, signs_h, lengths_h):
    """Dense L-path hit test + moves-at-hit (the kernels' former oracle,
    mirroring :func:`repro.grid.geometry.l_path_hit_moves`); also the
    hit oracle of the per-colony four-call loop below."""
    x, y = target
    if x != 0:
        hit = signs_v * lengths_v == y
        hit &= signs_h == (1 if x > 0 else -1)
        hit &= lengths_h >= abs(x)
        return hit, lengths_v + abs(x)
    hit_vertical = (x == 0) & (signs_v * y >= 0) & (lengths_v >= abs(y))
    hit_horizontal = (
        (signs_v * lengths_v == y) & (signs_h * x >= 0) & (lengths_h >= abs(x))
    )
    hit = hit_vertical | hit_horizontal
    moves_at_hit = np.where(hit_vertical, abs(y), lengths_v + abs(x))
    return hit, moves_at_hit


def _legacy_lshape_first_find(stop_probability, n_agents, target, rng, move_budget):
    """One colony of repeated L-sorties, four Generator calls per round:
    the per-colony simulator E15 ran on before it moved to
    ``batch_lshape``, kept as its distribution reference.  Returns
    ``(m_moves, finder, stats)``."""
    if target == (0, 0):
        return 0, 0, FastRunStats(0, 0)
    cumulative = np.zeros(n_agents, dtype=np.int64)
    agent_ids = np.arange(n_agents)
    best = best_finder = None
    expected_len = max(1.0, 2.0 * (1.0 / stop_probability - 1.0))
    max_rounds = int(200 * (move_budget / expected_len + 1)) + 10_000
    rounds_executed = iterations_executed = 0
    for _ in range(max_rounds):
        if agent_ids.size == 0:
            break
        count = agent_ids.size
        rounds_executed += 1
        iterations_executed += count
        sv = rng.integers(0, 2, size=count) * 2 - 1
        sh = rng.integers(0, 2, size=count) * 2 - 1
        lv = rng.geometric(stop_probability, size=count) - 1
        lh = rng.geometric(stop_probability, size=count) - 1
        hit, moves_at_hit = _legacy_sortie_hits(target, sv, lv, sh, lh)
        totals = cumulative + moves_at_hit
        eligible = hit & (totals <= move_budget)
        if np.any(eligible):
            candidate_index = int(
                np.argmin(np.where(eligible, totals, np.iinfo(np.int64).max))
            )
            candidate_total = int(totals[candidate_index])
            if best is None or candidate_total < best:
                best = candidate_total
                best_finder = int(agent_ids[candidate_index])
        survivors = ~hit
        cumulative = cumulative[survivors] + (lv + lh)[survivors]
        agent_ids = agent_ids[survivors]
        limit = move_budget if best is None else min(move_budget, best)
        keep = cumulative < limit
        cumulative = cumulative[keep]
        agent_ids = agent_ids[keep]
    return best, best_finder, FastRunStats(iterations_executed, rounds_executed)


def _legacy_batch_lshape(rng, stop_probability, n_agents, n_trials,
                         target, move_budget):
    if target == (0, 0):
        return core._origin_batch(n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = core._batch_state(n_trials, n_agents)
    cumulative = np.zeros(n_trials * n_agents, dtype=np.int64)
    acc = core._move_dtype(move_budget)

    expected_len = max(1.0, 2.0 * (1.0 / stop_probability - 1.0))
    rounds_left = int(200 * (move_budget / expected_len + 1)) + 10_000
    block = 4
    while pair_trial.size > 0 and rounds_left > 0:
        pairs = pair_trial.size
        block = core._block_len(pairs, 8, block * 2, rounds_left, core._MAX_BLOCK)
        rounds_left -= block
        sv, lv, sh, lh = _legacy_sample_sorties_fused(
            rng, stop_probability, (pairs, block)
        )
        hit, moves_at_hit = _legacy_sortie_hits(target, sv, lv, sh, lh)
        if acc is np.float32:
            leg = lv
            leg += lh
        else:
            leg = lv.astype(acc)
            leg += lh
        cum_after = np.cumsum(leg, axis=1)
        cum_after += cumulative.astype(acc)[:, None]

        hit_any = np.sum(hit, axis=1).astype(np.bool_)
        first = np.argmax(hit, axis=1)
        moves_before = _take_along(cum_after, first) - _take_along(leg, first)
        pair_total = np.minimum(
            moves_before + _take_along(moves_at_hit, first),
            core._TOTAL_CLAMP,
        ).astype(np.int64)
        limit = np.minimum(move_budget, best[pair_trial]).astype(acc)
        end_cum_f = cum_after[:, -1]
        rounds_in_block = np.where(hit_any, first + 1, block)
        exceeds = end_cum_f >= limit
        if np.any(exceeds):
            fe = np.argmax(
                cum_after[exceeds] >= limit[exceeds][:, None], axis=1
            )
            rounds_in_block[exceeds] = np.minimum(
                rounds_in_block[exceeds], fe + 1
            )
        np.add.at(trial_iterations, pair_trial, rounds_in_block)
        block_rounds = np.zeros(n_trials, dtype=np.int64)
        np.maximum.at(block_rounds, pair_trial, rounds_in_block)
        trial_rounds += block_rounds

        eligible = hit_any & (pair_total <= move_budget) & (
            pair_total < best[pair_trial]
        )
        core._score_hits(
            best, best_finder, pair_trial, pair_agent, pair_total, eligible
        )
        keep = ~hit_any & (
            end_cum_f
            < np.minimum(move_budget, best[pair_trial]).astype(acc)
        )
        cumulative = end_cum_f[keep].astype(np.int64)
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _legacy_blocked_phase_rounds(rng, target, move_budget, best,
                                 best_finder, n_trials, pair_trial,
                                 pair_agent, cumulative, stop_p, use, block,
                                 trial_iterations, trial_rounds):
    pairs = pair_trial.size
    acc = core._move_dtype(move_budget)
    sv, lv, sh, lh = _legacy_sample_sorties_fused(
        rng, stop_p[None, :, None], (pairs, block)
    )
    hit, moves_at_hit = _legacy_sortie_hits(target, sv, lv, sh, lh)
    if int(np.sum(use)) != pairs * block:
        cols = np.arange(block, dtype=np.int64)
        hit &= cols[None, :] < use[:, None]
    if acc is np.float32:
        leg = lv
        leg += lh
    else:
        leg = lv.astype(acc)
        leg += lh
    cum_after = np.cumsum(leg, axis=1)
    cum_after += cumulative.astype(acc)[:, None]

    hit_any = np.sum(hit, axis=1).astype(np.bool_)
    first = np.argmax(hit, axis=1)
    moves_before = _take_along(cum_after, first) - _take_along(leg, first)
    pair_total = np.minimum(
        moves_before + _take_along(moves_at_hit, first), core._TOTAL_CLAMP
    ).astype(np.int64)
    limit = np.minimum(move_budget, best[pair_trial]).astype(acc)
    end_cum_f = _take_along(cum_after, use - 1)
    rounds_in_block = np.where(hit_any, first + 1, use)
    exceeds = end_cum_f >= limit
    if np.any(exceeds):
        fe = np.argmax(cum_after[exceeds] >= limit[exceeds][:, None], axis=1)
        alive_sub = np.minimum(fe, use[exceeds] - 1) + 1
        rounds_in_block[exceeds] = np.minimum(rounds_in_block[exceeds], alive_sub)
    np.add.at(trial_iterations, pair_trial, rounds_in_block)
    block_rounds = np.zeros(n_trials, dtype=np.int64)
    np.maximum.at(block_rounds, pair_trial, rounds_in_block)
    trial_rounds += block_rounds

    eligible = hit_any & (pair_total <= move_budget) & (
        pair_total < best[pair_trial]
    )
    core._score_hits(
        best, best_finder, pair_trial, pair_agent, pair_total, eligible
    )
    keep = ~hit_any & (
        end_cum_f
        < np.minimum(move_budget, best[pair_trial]).astype(acc)
    )
    end_cum = np.minimum(end_cum_f, core._TOTAL_CLAMP).astype(np.int64)
    return keep, end_cum


def _legacy_sortie_block(rng, workspace, target, move_budget, best,
                         best_finder, n_trials, pair_trial, pair_agent,
                         cumulative, stop_probability, block,
                         trial_iterations, trial_rounds, use=None):
    """The phase kernels' per-block call, routed to the legacy body."""
    assert use is not None, "only the phase kernels are routed here"
    keep, end_cum = _legacy_blocked_phase_rounds(
        rng, target, move_budget, best, best_finder, n_trials,
        pair_trial, pair_agent, cumulative, stop_probability[:, 0], use,
        block, trial_iterations, trial_rounds,
    )
    return keep, end_cum.astype(core._move_dtype(move_budget))


#: (id, spec, n_agents, target, move_budget, n_trials).  Together they
#: cover off-axis, x == 0, y == 0 and origin targets; the float64
#: accounting path (budget >= 2^23); p >= 1/3 and one agent; a pool
#: above the scratch cap (block = 1); budgets that expire mid-block;
#: and point-blank targets where sibling pairs hit in the same block
#: and tie on moves in the same round (lowest agent wins).
_LSHAPE_TWIN_CASES = [
    ("off-axis", AlgorithmSpec.algorithm1(32), 8, (24, -17), 100_000, 300),
    ("nonuniform", AlgorithmSpec.nonuniform(16, 2), 8, (-9, 11), 100_000, 300),
    ("x0", AlgorithmSpec.algorithm1(16), 8, (0, -12), 50_000, 200),
    ("y0", AlgorithmSpec.algorithm1(16), 8, (-12, 0), 50_000, 200),
    ("origin", AlgorithmSpec.algorithm1(8), 4, (0, 0), 100, 10),
    ("float64", AlgorithmSpec.algorithm1(64), 4, (40, -30), 1 << 24, 60),
    ("float64-past-2^24", AlgorithmSpec.algorithm1(1024), 1, (1000, -800),
     1 << 26, 40),
    ("p-half-one-agent", AlgorithmSpec.algorithm1(2), 1, (1, -1), 1_000, 400),
    ("p-third", AlgorithmSpec.algorithm1(3), 3, (2, 1), 10_000, 300),
    ("above-scratch-cap", AlgorithmSpec.algorithm1(4), 8, (3, 2), 60, 9_000),
    ("budget-mid-block", AlgorithmSpec.algorithm1(32), 8, (24, 17), 777, 300),
    ("sibling-ties", AlgorithmSpec.algorithm1(4), 16, (1, 0), 10_000, 200),
]

_PHASE_TWIN_CASES = [
    ("off-axis", 8, (6, 5), 300_000, 100),
    ("x0", 8, (0, 7), 300_000, 100),
    ("y0", 8, (-7, 0), 300_000, 100),
    ("origin", 4, (0, 0), 100, 10),
    ("float64", 4, (9, -6), 1 << 24, 20),
    ("one-agent", 1, (3, 2), 50_000, 200),
    ("above-scratch-cap", 8, (2, 1), 40, 9_000),
    ("budget-mid-block", 4, (6, 5), 777, 128),
    ("sibling-ties", 16, (1, 0), 10_000, 100),
]


def _twin_request(spec, n_agents, target, move_budget, n_trials):
    return SimulationRequest(
        algorithm=spec, n_agents=n_agents, target=target,
        move_budget=move_budget, n_trials=n_trials, seed=SEED,
    )


def _with_state(xp, request, kernel):
    """Kernel outputs plus the generator's final state."""
    rng = xp.rng(request.trial_seed(0))
    arrays = tuple(xp.to_numpy(a) for a in kernel(rng))
    return arrays, rng.bit_generator.state


def _assert_twins(current, legacy):
    (arrays, state), (legacy_arrays, legacy_state) = current, legacy
    for name, a, b in zip(("best", "finder", "iterations", "rounds"),
                          arrays, legacy_arrays):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert state == legacy_state


class TestSortieLegacyTwins:
    """The sparse first-hit scan is bit-identical to the prefix-sum
    kernels: same best, finder, diagnostics and final generator state."""

    @pytest.mark.parametrize(
        "spec, n_agents, target, move_budget, n_trials",
        [case[1:] for case in _LSHAPE_TWIN_CASES],
        ids=[case[0] for case in _LSHAPE_TWIN_CASES],
    )
    def test_lshape_matches_prefix_sum_kernel(
        self, spec, n_agents, target, move_budget, n_trials
    ):
        xp = numpy_namespace()
        request = _twin_request(spec, n_agents, target, move_budget, n_trials)
        p = core.stop_probability_for(request)
        args = (p, n_agents, n_trials, target, move_budget)
        _assert_twins(
            _with_state(xp, request, lambda rng: core.batch_lshape(rng, *args)),
            _with_state(xp, request, lambda rng: _legacy_batch_lshape(rng, *args)),
        )

    @pytest.mark.parametrize("family", ["uniform", "doubly-uniform"])
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize(
        "n_agents, target, move_budget, n_trials",
        [case[1:] for case in _PHASE_TWIN_CASES],
        ids=[case[0] for case in _PHASE_TWIN_CASES],
    )
    def test_phase_families_match_prefix_sum_blocks(
        self, monkeypatch, family, ell, n_agents, target, move_budget,
        n_trials,
    ):
        """Ragged ``use`` horizons come with every phase pool: rows sit
        in different phases with different calls left."""
        xp = numpy_namespace()
        spec = (
            AlgorithmSpec.uniform(ell) if family == "uniform"
            else AlgorithmSpec.doubly_uniform(ell)
        )
        request = _twin_request(spec, n_agents, target, move_budget, n_trials)

        def kernel(rng):
            return run_family(xp, rng, request, n_trials)

        current = _with_state(xp, request, kernel)
        monkeypatch.setattr(core, "_sortie_block", _legacy_sortie_block)
        _assert_twins(current, _with_state(xp, request, kernel))


# ---------------------------------------------------------------------------
# Per-trial stop probabilities: ``batch_lshape`` with a length-n_trials
# array.  An array of one value must be the scalar call bit for bit; a
# mixed array must give each colony its own probability's distribution.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "move_budget", [100_000, 1 << 24], ids=["float32", "float64"]
)
@pytest.mark.parametrize(
    "spec",
    [AlgorithmSpec.algorithm1(24), AlgorithmSpec.nonuniform(16, 2)],
    ids=["algorithm1", "nonuniform"],
)
def test_lshape_array_of_one_p_equals_scalar(spec, move_budget):
    xp = numpy_namespace()
    n_agents, target, n_trials = 4, (24, -17), 100
    request = _twin_request(spec, n_agents, target, move_budget, n_trials)
    p = core.stop_probability_for(request)

    def kernel(stop_probability):
        return lambda rng: core.batch_lshape(
            rng, stop_probability, n_agents, n_trials, target, move_budget
        )

    _assert_twins(
        _with_state(xp, request, kernel(np.full(n_trials, p))),
        _with_state(xp, request, kernel(p)),
    )


#: (stop_probability, n_agents, target, move_budget) at which both
#: halves of a mixed call (p and p / 4) are checked against the
#: per-colony loop: E15's far corner, a tight budget that leaves most
#: colonies unfound, on-axis targets (p >= 1/3 takes geometric's search
#: branch in the loop), one agent, and the origin.
_MIXED_P_CASES = [
    (1 / 16, 8, (16, 16), 10**6),
    (0.05, 19, (-7, 3), 400),
    (0.4, 3, (0, 2), 10_000),
    (1 / 3, 5, (0, -1), 1_000),
    (0.5, 1, (2, 0), 100),
    (0.2, 4, (0, 0), 10),
]


@pytest.mark.parametrize(
    "stop_probability, n_agents, target, move_budget", _MIXED_P_CASES,
    ids=["far-corner", "tight-budget", "x0", "x0-p-third", "one-agent",
         "origin"],
)
def test_lshape_mixed_p_halves_match_per_colony_loop(
    stop_probability, n_agents, target, move_budget
):
    """Even trials run at ``p``, odd trials at ``p / 4``, in one call;
    each half passes a KS test against the four-call per-colony loop at
    its own probability."""
    from repro.sim.stats import ks_statistic, ks_two_sample_threshold

    trials = 200
    halves = (stop_probability, stop_probability / 4)
    stops = np.tile(halves, trials)
    best, *_ = core.batch_lshape(
        np.random.default_rng(SEED), stops, n_agents, 2 * trials, target,
        move_budget,
    )
    batched = np.where(best == SENTINEL, move_budget, best)
    for half, p in enumerate(halves):
        loop_rng = np.random.default_rng(SEED + 1 + half)
        per_colony = []
        for _ in range(trials):
            m_moves, _, _ = _legacy_lshape_first_find(
                p, n_agents, target, loop_rng, move_budget
            )
            per_colony.append(move_budget if m_moves is None else m_moves)
        distance = ks_statistic(batched[half::2], per_colony)
        assert distance <= ks_two_sample_threshold(trials, trials, alpha=0.001)


def test_lshape_per_trial_p_follows_its_colony():
    """A colony whose coin almost never stops overshoots an off-axis
    corner on every sortie, so exactly the odd trials go unfound."""
    n_trials = 40
    stops = np.tile([1 / 8, 1e-12], n_trials // 2)
    best, finder, iterations, _ = core.batch_lshape(
        np.random.default_rng(SEED), stops, 4, n_trials, (3, 2), 10**5
    )
    assert (best[0::2] != SENTINEL).all() and (finder[0::2] >= 0).all()
    assert (best[1::2] == SENTINEL).all() and (finder[1::2] == -1).all()
    assert (iterations > 0).all()


def test_lshape_p_array_shape_is_checked():
    with pytest.raises(ValueError, match="shape"):
        core.batch_lshape(
            np.random.default_rng(SEED), np.full(3, 0.5), 2, 4, (1, 1), 100
        )


# ---------------------------------------------------------------------------
# Exact-output pins: every family's outputs and final generator state,
# hashed.  The legacy twins share every helper but the sortie block
# body with the current core, and random-walk and feinerman have no
# twin at all, so these digests are what holds the whole kernel to its
# recorded streams.
# ---------------------------------------------------------------------------

#: (n_agents, target, move_budget, n_trials): an off-axis target on the
#: float32 accounting path, an x == 0 target past the float64 switch, a
#: y == 0 target whose budget expires mid-block, a far target with a
#: long tail, and a pool above the scratch cap.
_PIN_CASES = [
    (4, (6, 5), MOVE_BUDGET, 64),
    (8, (0, -7), 1 << 24, 16),
    (3, (-7, 0), 777, 200),
    (2, (24, -17), 100_000, 50),
    (8, (3, 2), 60, 9_000),
]

#: Recorded on the NumPy kernels as they stood before they dropped the
#: array-namespace wrappers; any stream or output change moves them.
_PINNED_DIGESTS = {
    "algorithm1": "36e5655a485ded5475bbb993621e07c54423fcef82ff2e027e919690ea09be43",
    "doubly-uniform": "019e01e85210e9c942c3cd6da8cb5a0cd4af81bd70ab307b9f80a4dac90aea7e",
    "feinerman": "035a6d1aaaf9c6d2c82da2462497d5b64071da96f2c5de9339a09db2626a4555",
    "nonuniform": "66f196f7edd4b3584b7c3cf068a547f7f6100041cb0e4127ebf9a7b4b33780df",
    "random-walk": "74db6f3d92daff05299f78ca2552deba1a4e0f08d3afb2cb70e87cf731cd8f4d",
    "uniform": "ed8d05ba32a8fbfa20871f5dff9043db0ca21d70ee9be4180aad265abaf1dd76",
}


def _pin_digest(family: str) -> str:
    xp = numpy_namespace()
    digest = hashlib.sha256()
    for n_agents, target, move_budget, n_trials in _PIN_CASES:
        request = SimulationRequest(
            algorithm=FAMILY_SPECS[family], n_agents=n_agents, target=target,
            move_budget=move_budget, n_trials=n_trials, seed=SEED,
            distance_bound=8,
        )
        arrays, state = _with_state(
            xp, request, lambda rng: run_family(xp, rng, request, n_trials)
        )
        for array in arrays:
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
        digest.update(json.dumps(state, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_kernel_outputs_pinned(family):
    """Outputs and final generator state, byte for byte, as recorded."""
    assert _pin_digest(family) == _PINNED_DIGESTS[family]
