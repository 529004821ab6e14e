"""Device-portable batched kernels for the six simulable families.

These are the whole-batch kernels the ``batched`` backend historically
kept inline (one pool of (trial, agent) pairs, one vectorized draw per
round, scatter-min colony folds) — extracted to run against *any*
:class:`~repro.sim.kernels.xp.ArrayNamespace`, and optimized on the way
out:

* **Blocked multi-round draws (lshape, uniform, doubly-uniform)** —
  the sortie families sample *blocks* of rounds per RNG call: a
  ``(pairs, block)`` matrix of sorties, closed-form prefix-sum move
  accounting, and one scatter fold per block.  The block length
  doubles as the pool drains, so the long tail — a few unretired pairs
  grinding thousands of rounds — collapses from thousands of tiny
  draws into a handful of big ones.  Folding extra post-retirement
  hits is sound because every such total ``t`` satisfies
  ``t >= cumulative >= min(budget, best)`` at the pair's original
  retirement point, so the scatter-min is unaffected.  The
  phase-driven families (``uniform``/``doubly-uniform``) additionally
  carry a per-pair *validity* horizon — a pair's row is live only for
  ``min(block, calls_left)`` columns, the rounds it has left in its
  current phase — so one constant-``p``-per-row matrix draw serves a
  pool whose members sit in different phases.
* **Rotated-axis walk blocks (random-walk)** — in the rotated
  coordinates ``u = x + y, v = x - y`` the 4-way unit step is two
  *independent* fair ±1 coins, so a block of steps is two contiguous
  int8→int16 prefix sums instead of a strided 3-D trajectory cumsum;
  step choices are drawn as uint8 (2 bits used), and pairs whose
  rotated Chebyshev distance exceeds the block length skip the hit
  test entirely (their positions advance by two row sums).
* **Fused per-round draws (feinerman)** — both center coordinates for
  one round come from one RNG call instead of two.
* **Single-pass compaction** — the hit-survivor prune and the
  budget/best prune are merged into one boolean gather per state array
  per block (previously two per round).
* **int32 pair/agent indices** — via :func:`~repro.sim.kernels.xp.index_dtype`
  where the pool size permits, halving gather/scatter index bandwidth.

Outcome distributions are unchanged: iterations are still drawn from
exactly the process distribution, and the golden KS gates
(``tests/unit/test_golden_distributions.py``) hold for all six families
on the default namespace.  Draw *order* differs from the pre-extraction
kernels, so per-request streams moved once — recorded by the
``CODE_VERSION`` bump that shipped with the extraction.

Every kernel returns ``(best, best_finder, trial_iterations,
trial_rounds)`` as namespace arrays; callers convert at the boundary
with ``xp.to_numpy``.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.obs.trace import child_span
from repro.sim.kernels.xp import ArrayNamespace, KernelRNG, index_dtype

__all__ = [
    "SENTINEL",
    "batch_doubly_uniform",
    "batch_feinerman",
    "batch_lshape",
    "batch_random_walk",
    "batch_uniform",
    "sortie_hits",
]

#: "No find" marker in the per-trial ``best`` array (int64 max).
SENTINEL = 2**63 - 1

DEFAULT_MAX_PHASE = 50
DEFAULT_MAX_EPOCH = 40
DEFAULT_MAX_STAGE = 40
FEINERMAN_C = 4.0

#: One scratch budget shared by every blocked kernel: the byte size of
#: the largest ``(pairs, block)`` matrix a kernel may materialize per
#: draw.  Expressed in bytes (not elements) so kernels with different
#: scratch dtypes derive their own element counts from the same cap —
#: the sortie kernels' int64 matrices get ``SCRATCH_BYTES // 8``
#: elements, the walk's int16 prefix sums ``SCRATCH_BYTES // 2``.
#: 512 KiB per matrix keeps a kernel's whole working set L2-resident
#: however large the pool or however long the tail — measured 1.5-2.5x
#: faster than 1-4 MB blocks on every family (the pipeline makes ~10
#: elementwise passes over each matrix, so the matrix must outlive one
#: pass in cache), while staying large enough that per-block Python
#: dispatch overhead is noise.
SCRATCH_BYTES = 1 << 19
#: Longest fused round-block (reached only once the pool is tiny).
_MAX_BLOCK = 1 << 12
#: Budgets below 2^23 let the sortie kernels run their whole
#: (pairs x block) move accounting in float32: every total that can
#: still matter (anything <= the budget/best limit) is an integer
#: below the float32-exact ceiling 2^24, with headroom for one more
#: round's comparison.  Beyond-limit sums may round, but they only
#: ever feed ">= limit" comparisons their magnitude already decides.
_FLOAT32_EXACT_BUDGET = 1 << 23
#: Clamp before float -> int64 conversion of per-pair move totals:
#: far above any admissible budget, far below int64 overflow (a
#: float32 inf or 1e30-scale sum would otherwise wrap negative and
#: masquerade as an eligible find).
_TOTAL_CLAMP = 4.0e18


def _move_dtype(xp: ArrayNamespace, move_budget: int):
    """Accounting dtype for blocked move sums: float32 while exact.

    float64 is the fallback for budgets >= 2^23 — same exactness
    argument with a 2^53 ceiling, at int64-equivalent bandwidth.
    """
    return xp.float32 if move_budget < _FLOAT32_EXACT_BUDGET else xp.float64
#: Walk-block cap: int16 prefix sums stay exact only while a block's
#: displacement along one rotated axis (<= block) fits in int16.
_MAX_WALK_BLOCK = 1 << 14


def _block_len(pairs: int, itemsize: int, *caps: int) -> int:
    """Rounds per blocked draw: the shared scratch budget over the pool.

    ``itemsize`` is the widest scratch dtype the kernel materializes at
    ``(pairs, block)`` shape; extra ``caps`` (doubling schedule, rounds
    left, dtype-exactness bounds) clamp further.  Always >= 1 — block
    length degrades gracefully to one round as the pool outgrows the
    budget.
    """
    block = max(1, SCRATCH_BYTES // (itemsize * max(1, pairs)))
    for cap in caps:
        block = min(block, cap)
    return max(1, block)


def _sample_sorties_fused(
    xp: ArrayNamespace, rng: KernelRNG, stop_probability, shape
):
    """Blocked sortie sampling: one sign draw and one length draw.

    ``shape`` is the per-variable shape (e.g. ``(pairs,)`` or
    ``(pairs, block)``); the fused draws stack the vertical/horizontal
    variables on a leading axis of 2: two RNG calls instead of four.
    """
    fused = (2, *shape) if isinstance(shape, tuple) else (2, shape)
    # One float32 uniform draw feeds both variables: for U ~ [0, 1),
    # the integer and fractional parts of 2U are an independent fair
    # bit (the sign) and a fresh uniform (the length's seed) —
    # exactly, not approximately.  float32 halves the fill-and-
    # transform bandwidth; its ~22-bit fraction granularity truncates
    # the geometric tail only past the 1 - 2^-22 quantile, invisible
    # to every distribution gate.
    u = rng.random(size=fused, dtype=xp.float32)
    u += u
    signs = xp.floor(u)
    u -= signs                         # u is now the fresh uniform
    signs += signs
    signs -= 1.0                       # {0, 1} -> {-1, +1}, exact
    # Inverse-CDF geometric minus one: floor(log1p(-U) / log1p(-p)),
    # the same scheme as the torch and cupy bindings' geometric(), so
    # every namespace shares one sampling formula in the blocked
    # kernels.  The clamp guards the p -> 0 corner where log1p(-p)
    # underflows to -0.0 and the division would NaN (no realistic
    # phase reaches it: sorties at such p overshoot any budget in one
    # round).  The augmented-assignment spellings are deliberate —
    # they recycle the block-sized scratch in place, and every binding
    # (ndarray, tensor, cupy array) honors them.
    denominator = xp.minimum(
        xp.astype(xp.log1p(-stop_probability), xp.float32), -1e-30
    )
    u *= -1.0
    lengths = xp.log1p(u)
    lengths /= denominator
    lengths = xp.floor(lengths)
    # Signs and lengths stay float32: every integer a kernel compares
    # or accumulates below the float32-exact ceiling (2^24) is exact,
    # and the callers' whole (pairs x block) accounting pipeline runs
    # at half the bandwidth of an int64 one.  See ``_move_dtype`` for
    # how the callers keep move totals exact.
    return signs[0], lengths[0], signs[1], lengths[1]


def sortie_hits(xp: ArrayNamespace, target, signs_v, lengths_v, signs_h, lengths_h):
    """Vectorized L-path hit test + moves-at-hit.

    Mirrors :func:`repro.grid.geometry.l_path_hit_moves`: a target on
    the vertical leg is reached after ``|y|`` moves; on the horizontal
    leg after ``lengths_v + |x|`` moves.
    """
    x, y = target
    if x != 0:
        # Scalar short-circuit: off-axis targets can never sit on the
        # vertical leg, and ``signs_h * x >= 0`` collapses to a sign
        # test — four fewer elementwise passes on the block matrix.
        # The in-place &= chain reuses one bool buffer instead of
        # allocating an intermediate per conjunction.
        hit = signs_v * lengths_v == y
        hit &= signs_h == (1 if x > 0 else -1)
        hit &= lengths_h >= abs(x)
        return hit, lengths_v + abs(x)
    hit_vertical = (x == 0) & (signs_v * y >= 0) & (lengths_v >= abs(y))
    hit_horizontal = (
        (signs_v * lengths_v == y) & (signs_h * x >= 0) & (lengths_h >= abs(x))
    )
    hit = hit_vertical | hit_horizontal
    moves_at_hit = xp.where(hit_vertical, abs(y), lengths_v + abs(x))
    return hit, moves_at_hit


def _batch_state(xp: ArrayNamespace, n_trials: int, n_agents: int):
    """Fresh pooled-pair bookkeeping shared by every kernel."""
    pairs = n_trials * n_agents
    idx = index_dtype(xp, pairs)
    flat = xp.arange(pairs, dtype=idx)
    pair_trial = flat // n_agents
    pair_agent = flat % n_agents
    best = xp.full(n_trials, SENTINEL, dtype=xp.int64)
    best_finder = xp.full(n_trials, -1, dtype=xp.int64)
    trial_iterations = xp.zeros(n_trials, dtype=xp.int64)
    trial_rounds = xp.zeros(n_trials, dtype=xp.int64)
    return pair_trial, pair_agent, best, best_finder, trial_iterations, trial_rounds


def _origin_batch(xp: ArrayNamespace, n_trials: int):
    """Every colony finds an origin target after zero moves."""
    zeros = xp.zeros(n_trials, dtype=xp.int64)
    return (
        zeros,
        xp.zeros(n_trials, dtype=xp.int64),
        xp.zeros(n_trials, dtype=xp.int64),
        xp.zeros(n_trials, dtype=xp.int64),
    )


def _count_round(
    xp, trial_iterations, trial_rounds, pair_trial, n_trials, weight=1
):
    """Per-colony diagnostics: scatter-add this round's active pairs."""
    counts = xp.bincount(pair_trial, minlength=n_trials)
    trial_iterations += counts * weight
    trial_rounds += xp.astype(counts > 0, xp.int64)


def _score_hits(xp, best, best_finder, pair_trial, pair_agent, totals, eligible):
    """Fold eligible finds into each colony's running minimum.

    The finder is resolved with a scatter-min over agent ids (lowest
    agent wins a same-round tie) rather than a plain scatter write:
    duplicate-index writes are nondeterministic on CUDA, and the
    backends promise per-request determinism per namespace.
    """
    if not xp.any(eligible):
        return
    xp.scatter_min(best, pair_trial[eligible], totals[eligible])
    improved = eligible & (totals == xp.take(best, pair_trial))
    if not xp.any(improved):
        return
    winner = xp.full(xp.size(best), SENTINEL, dtype=xp.int64)
    xp.scatter_min(
        winner, pair_trial[improved], xp.astype(pair_agent[improved], xp.int64)
    )
    decided = winner != SENTINEL
    best_finder[decided] = winner[decided]


def batch_lshape(
    xp: ArrayNamespace,
    rng: KernelRNG,
    stop_probability: float,
    n_agents: int,
    n_trials: int,
    target,
    move_budget: int,
):
    """All trials of a constant-stop-probability sortie algorithm at once.

    The hot kernel, and the one with the blocked-round optimization:
    each RNG call covers a ``(pairs, block)`` matrix of sorties, the
    per-pair first hit inside the block is located with a prefix-sum
    scan, and the whole block folds into the colony minima with one
    scatter.  The block length starts small (most pairs retire within a
    few rounds of a fresh pool) and doubles per iteration up to the
    scratch cap, so a near-drained pool simulates thousands of rounds
    per call.

    Diagnostics count the rounds this blocked execution actually
    spent: a pair counts up to its first hit, or up to the round the
    budget/best limit *as known at block start* would have retired it
    (found by the same prefix scan), never the block tail beyond that.
    When a sibling pair's find lands mid-block, the per-round original
    would have pruned survivors a little earlier, so
    ``FastRunStats`` here is a modest upper bound on the per-round
    kernel's counts — outcomes (``best``/``finder``) are unaffected.
    """
    if target == (0, 0):
        return _origin_batch(xp, n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(xp, n_trials, n_agents)
    cumulative = xp.zeros(n_trials * n_agents, dtype=xp.int64)
    acc = _move_dtype(xp, move_budget)

    expected_len = max(1.0, 2.0 * (1.0 / stop_probability - 1.0))
    rounds_left = int(200 * (move_budget / expected_len + 1)) + 10_000
    block = 4
    while xp.size(pair_trial) > 0 and rounds_left > 0:
        pairs = xp.size(pair_trial)
        block = _block_len(pairs, 8, block * 2, rounds_left, _MAX_BLOCK)
        rounds_left -= block
        sv, lv, sh, lh = _sample_sorties_fused(
            xp, rng, stop_probability, (pairs, block)
        )
        hit, moves_at_hit = sortie_hits(xp, target, sv, lv, sh, lh)
        # Move accounting stays in the float accounting dtype end to
        # end (see ``_move_dtype``): sums that still matter are exact,
        # beyond-limit sums only feed comparisons their magnitude
        # already decides.
        if acc is xp.float32:
            leg = lv
            leg += lh
        else:
            leg = xp.astype(lv, acc)
            leg += lh
        cum_after = xp.cumsum(leg, axis=1)            # moves after round j
        cum_after += xp.astype(cumulative, acc)[:, None]

        hit_any = xp.astype(xp.sum(hit, axis=1), xp.bool_)
        first = xp.first_true(hit, axis=1)            # 0 where no hit
        moves_before = xp.take_along(cum_after, first) - xp.take_along(leg, first)
        pair_total = xp.astype(
            xp.minimum(
                moves_before + xp.take_along(moves_at_hit, first), _TOTAL_CLAMP
            ),
            xp.int64,
        )

        # Rounds each pair actually executed inside the block: until
        # its first hit, or until the budget/best prune would have
        # retired it.  The limit is the one known at block start; a
        # sibling's mid-block find would have pruned slightly earlier
        # in the per-round original, so these counts are a modest
        # upper bound (see the kernel docstring).  Rows of cum_after
        # are nondecreasing, so the count of rounds under the limit is
        # the first-exceed index — one comparison and one scan instead
        # of a masked sum.
        limit = xp.astype(
            xp.minimum(move_budget, xp.take(best, pair_trial)), acc
        )
        end_cum_f = cum_after[:, -1]
        rounds_in_block = xp.where(hit_any, first + 1, block)
        exceeds = end_cum_f >= limit
        if xp.any(exceeds):
            # Only rows whose end-of-block cumulative reaches the
            # limit can be cut short; the (pairs, block) comparison
            # and scan run on that sparse subset alone.
            fe = xp.first_true(
                cum_after[exceeds] >= limit[exceeds][:, None], axis=1
            )
            rounds_in_block[exceeds] = xp.minimum(
                rounds_in_block[exceeds], fe + 1
            )
        xp.scatter_add(trial_iterations, pair_trial, rounds_in_block)
        block_rounds = xp.zeros(n_trials, dtype=xp.int64)
        xp.scatter_max(block_rounds, pair_trial, rounds_in_block)
        trial_rounds += block_rounds

        eligible = hit_any & (pair_total <= move_budget) & (
            pair_total < xp.take(best, pair_trial)
        )
        _score_hits(
            xp, best, best_finder, pair_trial, pair_agent, pair_total, eligible
        )

        # Single-pass compaction: a pair survives the block iff it
        # never hit and its end-of-block cumulative still beats the
        # (freshly updated) budget/best limit.  Kept cumulatives sit
        # below that limit, hence in the dtype's exact-integer range.
        keep = ~hit_any & (
            end_cum_f
            < xp.astype(xp.minimum(move_budget, xp.take(best, pair_trial)), acc)
        )
        cumulative = xp.astype(end_cum_f[keep], xp.int64)
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _blocked_phase_rounds(
    xp: ArrayNamespace,
    rng: KernelRNG,
    target,
    move_budget: int,
    best,
    best_finder,
    n_trials: int,
    pair_trial,
    pair_agent,
    cumulative,
    stop_p,
    use,
    block: int,
    trial_iterations,
    trial_rounds,
):
    """One blocked round-batch for a phase-driven sortie family.

    Each pair executes up to ``use <= block`` rounds of L-sorties at
    its own per-row stop probability ``stop_p`` — constant within the
    block, because ``use`` never crosses the pair's phase boundary.  A
    prefix-sum scan locates each pair's first in-block hit and its
    cumulative moves there; columns past a pair's ``use`` horizon are
    discarded draws (masked out of hits and move accounting), so every
    *used* column is distributed exactly as a per-round draw at that
    pair's phase.

    Folds eligible finds and the block's diagnostics, then returns
    ``(keep, end_cum)``: the single-pass compaction mask (no hit, and
    end-of-horizon cumulative still below the refreshed budget/best
    limit) and the cumulative moves at each pair's horizon.  The
    caller gathers its own phase state with ``keep``.
    """
    pairs = xp.size(pair_trial)
    acc = _move_dtype(xp, move_budget)
    sv, lv, sh, lh = _sample_sorties_fused(
        xp, rng, stop_p[None, :, None], (pairs, block)
    )
    hit, moves_at_hit = sortie_hits(xp, target, sv, lv, sh, lh)
    if int(xp.sum(use)) != pairs * block:
        # Columns past a row's horizon are discarded draws; mask them
        # out of the hit test.  Skipped entirely when every row runs
        # the full block (the common steady-state case).
        cols = xp.arange(block, dtype=xp.int64)
        hit &= cols[None, :] < use[:, None]
    # No masking of legs: columns past a row's horizon pollute the
    # prefix only at positions >= use, and every read below gathers at
    # first-hit (< use) or at use - 1.  Move accounting stays in the
    # float accounting dtype end to end (see ``_move_dtype``): sums
    # that still matter are exact, beyond-limit sums only feed
    # comparisons their magnitude already decides.  The float32 path
    # accumulates into the sampler's own buffers (already consumed).
    if acc is xp.float32:
        leg = lv
        leg += lh
    else:
        leg = xp.astype(lv, acc)
        leg += lh
    cum_after = xp.cumsum(leg, axis=1)                # moves after round j
    cum_after += xp.astype(cumulative, acc)[:, None]

    hit_any = xp.astype(xp.sum(hit, axis=1), xp.bool_)
    first = xp.first_true(hit, axis=1)                # 0 where no hit
    moves_before = xp.take_along(cum_after, first) - xp.take_along(leg, first)
    pair_total = xp.astype(
        xp.minimum(
            moves_before + xp.take_along(moves_at_hit, first), _TOTAL_CLAMP
        ),
        xp.int64,
    )

    # Rounds each pair actually executed inside the block: until its
    # first hit, or until the budget/best prune (as known at block
    # start) would have retired it — same modest upper bound as the
    # lshape kernel (see its docstring).
    limit = xp.astype(xp.minimum(move_budget, xp.take(best, pair_trial)), acc)
    end_cum_f = xp.take_along(cum_after, use - 1)
    # Rows of cum_after are nondecreasing over the valid region, so
    # "how many rounds stayed under the limit" is the first-exceed
    # index.  Only rows whose horizon-end cumulative reaches the limit
    # can be cut short, so the (pairs, block) comparison + scan runs
    # on that sparse subset alone — by block start the surviving pool
    # is dominated by rows nowhere near their limit.
    rounds_in_block = xp.where(hit_any, first + 1, use)
    exceeds = end_cum_f >= limit
    if xp.any(exceeds):
        fe = xp.first_true(cum_after[exceeds] >= limit[exceeds][:, None], axis=1)
        alive_sub = xp.minimum(fe, use[exceeds] - 1) + 1
        rounds_in_block[exceeds] = xp.minimum(rounds_in_block[exceeds], alive_sub)
    xp.scatter_add(trial_iterations, pair_trial, rounds_in_block)
    block_rounds = xp.zeros(n_trials, dtype=xp.int64)
    xp.scatter_max(block_rounds, pair_trial, rounds_in_block)
    trial_rounds += block_rounds

    eligible = hit_any & (pair_total <= move_budget) & (
        pair_total < xp.take(best, pair_trial)
    )
    _score_hits(
        xp, best, best_finder, pair_trial, pair_agent, pair_total, eligible
    )

    # Kept cumulatives sit below the refreshed limit, hence in the
    # accounting dtype's exact-integer range; the clamp only guards
    # the int64 conversion of already-doomed rows.
    keep = ~hit_any & (
        end_cum_f
        < xp.astype(xp.minimum(move_budget, xp.take(best, pair_trial)), acc)
    )
    end_cum = xp.astype(xp.minimum(end_cum_f, _TOTAL_CLAMP), xp.int64)
    return keep, end_cum


def _phase_block_len(
    xp: ArrayNamespace, calls_left, pairs: int, prev_block: int,
    rounds_left: int,
) -> int:
    """Block length for a phase-driven kernel's next fused draw.

    Doubles the previous block up to the shared scratch cap (fresh
    pools sit in short early phases; the long tail earns long blocks),
    then halves while draw utilization — ``sum(min(calls_left, block))``
    useful columns out of ``pairs * block`` drawn — would fall below
    1/2, so the discarded tail of a ``(pairs, block)`` matrix never
    costs more RNG than the rounds it retires.
    """
    block = _block_len(pairs, 8, prev_block * 2, rounds_left, _MAX_BLOCK,
                       int(xp.max(calls_left)))
    while block > 4:
        used = int(xp.sum(xp.minimum(calls_left, block)))
        if 2 * used >= pairs * block:
            break
        block //= 2
    return block


def batch_uniform(
    xp: ArrayNamespace,
    rng: KernelRNG,
    n_agents: int,
    ell: int,
    K: int,
    n_trials: int,
    target,
    move_budget: int,
    max_phase: int,
):
    """All trials of Algorithm 5 at once, in blocked rounds.

    Per-pair state is ``(phase, calls_left, cumulative)``; phase coins
    are redrawn vectorized (``Geometric(1/rho_i) - 1`` sortie calls per
    phase) whenever a pair exhausts its calls.  Each loop iteration
    then simulates up to ``block`` rounds per pair in one fused draw
    via :func:`_blocked_phase_rounds`, with the pair's validity horizon
    ``min(block, calls_left)`` keeping every used draw inside its
    current phase.  The block length starts small (fresh pools sit in
    short early phases) and doubles per iteration up to the scratch
    cap and the pool's largest remaining phase budget.
    """
    if target == (0, 0):
        return _origin_batch(xp, n_trials)
    discount = math.floor(math.log2(n_agents) / ell) if n_agents > 1 else 0
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(xp, n_trials, n_agents)
    pairs = n_trials * n_agents
    cumulative = xp.zeros(pairs, dtype=xp.int64)
    phase = xp.zeros(pairs, dtype=xp.int64)
    calls_left = xp.zeros(pairs, dtype=xp.int64)

    phase1_len = max(1.0, 2.0 * (2.0**ell - 1.0))
    rounds_left = int(200 * (move_budget / phase1_len + 1)) + 10_000
    block = 4
    while xp.size(pair_trial) > 0 and rounds_left > 0:
        # Refill exhausted phase coins; pairs that run out of phases
        # retire below via the `alive` mask.
        need = calls_left <= 0
        while xp.any(need):
            phase[need] += 1
            need &= phase <= max_phase
            if not xp.any(need):
                break
            exponent = K + xp.maximum(phase[need] - discount, 0)
            rho = xp.exp2(xp.astype(exponent, xp.float64) * ell)
            calls_left[need] = rng.geometric(1.0 / rho) - 1
            need &= calls_left <= 0
        alive = phase <= max_phase
        if not xp.any(alive):
            break
        if xp.size(pair_trial) != int(xp.sum(xp.astype(alive, xp.int64))):
            pair_trial = pair_trial[alive]
            pair_agent = pair_agent[alive]
            cumulative = cumulative[alive]
            phase = phase[alive]
            calls_left = calls_left[alive]
        block = _phase_block_len(
            xp, calls_left, xp.size(pair_trial), block, rounds_left
        )
        rounds_left -= block
        use = xp.minimum(calls_left, block)
        stop_p = xp.exp2(-(xp.astype(phase, xp.float64) * ell))
        keep, end_cum = _blocked_phase_rounds(
            xp, rng, target, move_budget, best, best_finder, n_trials,
            pair_trial, pair_agent, cumulative, stop_p, use, block,
            trial_iterations, trial_rounds,
        )
        cumulative = end_cum[keep]
        calls_left = (calls_left - use)[keep]
        phase = phase[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def batch_doubly_uniform(
    xp: ArrayNamespace,
    rng: KernelRNG,
    n_agents: int,
    ell: int,
    K: int,
    n_trials: int,
    target,
    move_budget: int,
    max_epoch: int = DEFAULT_MAX_EPOCH,
):
    """All trials of the doubly uniform search at once, in blocked rounds.

    Mirrors :func:`repro.sim.fast.fast_doubly_uniform`: epoch ``j``
    commits to the guess ``n_j = 2^j`` and runs phases ``1..j`` of
    Algorithm 5 under that guess.  Per-pair state is ``(epoch, phase,
    calls_left, cumulative)``; when a pair's phase coin runs out it
    advances to the next phase, rolling over to ``(epoch + 1, phase 1)``
    past the epoch's phase range.  Between refills the pair executes
    blocked rounds exactly as :func:`batch_uniform` — one fused
    ``(pairs, block)`` draw, per-pair ``min(block, calls_left)``
    validity horizons, prefix-sum first-hit scans, and one single-pass
    compaction per block.
    """
    if target == (0, 0):
        return _origin_batch(xp, n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(xp, n_trials, n_agents)
    pairs = n_trials * n_agents
    cumulative = xp.zeros(pairs, dtype=xp.int64)
    epoch = xp.full(pairs, 1, dtype=xp.int64)
    phase = xp.zeros(pairs, dtype=xp.int64)
    calls_left = xp.zeros(pairs, dtype=xp.int64)

    phase1_len = max(1.0, 2.0 * (2.0**ell - 1.0))
    rounds_left = int(200 * (move_budget / phase1_len + 1)) + 10_000
    block = 4
    while xp.size(pair_trial) > 0 and rounds_left > 0:
        need = calls_left <= 0
        while xp.any(need):
            phase[need] += 1
            rolled = need & (phase > epoch)
            if xp.any(rolled):
                epoch[rolled] += 1
                phase[rolled] = 1
            need &= epoch <= max_epoch
            if not xp.any(need):
                break
            exponent = K + xp.maximum(phase[need] - epoch[need] // ell, 0)
            rho = xp.exp2(xp.astype(exponent, xp.float64) * ell)
            calls_left[need] = rng.geometric(1.0 / rho) - 1
            need &= calls_left <= 0
        alive = epoch <= max_epoch
        if not xp.any(alive):
            break
        if xp.size(pair_trial) != int(xp.sum(xp.astype(alive, xp.int64))):
            pair_trial = pair_trial[alive]
            pair_agent = pair_agent[alive]
            cumulative = cumulative[alive]
            epoch = epoch[alive]
            phase = phase[alive]
            calls_left = calls_left[alive]
        block = _phase_block_len(
            xp, calls_left, xp.size(pair_trial), block, rounds_left
        )
        rounds_left -= block
        use = xp.minimum(calls_left, block)
        stop_p = xp.exp2(-(xp.astype(phase, xp.float64) * ell))
        keep, end_cum = _blocked_phase_rounds(
            xp, rng, target, move_budget, best, best_finder, n_trials,
            pair_trial, pair_agent, cumulative, stop_p, use, block,
            trial_iterations, trial_rounds,
        )
        cumulative = end_cum[keep]
        calls_left = (calls_left - use)[keep]
        epoch = epoch[keep]
        phase = phase[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _build_walk_tables():
    """Byte-level walk tables: each drawn byte packs four 2-bit steps.

    For every byte value, ``pre_u[b][k]`` / ``pre_v[b][k]`` are the
    rotated-coordinate displacements after the first ``k + 1`` packed
    steps (field ``k`` uses bits ``2k`` for u and ``2k + 1`` for v, the
    same layout the bit-sliced formulation used, so RNG streams are
    unchanged).  Column 3 doubles as the whole-byte sum.
    """
    pre_u, pre_v = [], []
    for byte in range(256):
        cu = cv = 0
        row_u, row_v = [], []
        for k in range(4):
            code = (byte >> (2 * k)) & 3
            cu += 2 * (code & 1) - 1
            cv += (code & 2) - 1
            row_u.append(cu)
            row_v.append(cv)
        pre_u.append(row_u)
        pre_v.append(row_v)
    return pre_u, pre_v


_WALK_PRE_U, _WALK_PRE_V = _build_walk_tables()


def batch_random_walk(
    xp: ArrayNamespace,
    rng: KernelRNG,
    n_agents: int,
    n_trials: int,
    target,
    move_budget: int,
):
    """All trials of the uniform random walk at once, in lockstep.

    Every step is a move, so all pairs' move counts advance together
    and the first find in simulated time is the exact colony minimum —
    a trial retires the moment any of its pairs hits.  Steps run in
    rotated coordinates ``u = x + y, v = x - y``, where the 4-way unit
    step decomposes into two *independent* fair ±1 coins packed four
    to a drawn byte.

    The scan is two-level: a 256-entry table folds each byte into its
    per-axis displacement, so the prefix sums run over ``block / 4``
    *words* instead of ``block`` steps.  A step inside word ``w`` can
    land on the target only if the remaining displacement at the start
    of the word is within ±4 on both axes (an in-byte prefix moves at
    most 4), so the exact per-step check runs only on that coarse
    candidate set — a ``(candidates, 4)`` table lookup — and folds
    back densely at word granularity.  Pairs whose rotated Chebyshev
    distance (== Manhattan distance on the original lattice) exceeds
    the block length skip the scan and advance by two row sums.
    """
    if target == (0, 0):
        return _origin_batch(xp, n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(xp, n_trials, n_agents)
    pairs0 = n_trials * n_agents
    pos_u = xp.zeros(pairs0, dtype=xp.int64)
    pos_v = xp.zeros(pairs0, dtype=xp.int64)
    target_u = target[0] + target[1]
    target_v = target[0] - target[1]
    pre_u = xp.asarray(_WALK_PRE_U, dtype=xp.int8)
    pre_v = xp.asarray(_WALK_PRE_V, dtype=xp.int8)
    sum_u = pre_u[:, 3]
    sum_v = pre_v[:, 3]
    moves_done = 0
    while moves_done < move_budget and xp.size(pair_trial):
        pairs = xp.size(pair_trial)
        # Scratch is word-granular (a fraction of a byte per step), but
        # itemsize stays 2 — the bit-sliced formulation's footprint —
        # so block boundaries, and with them the realized outcomes per
        # seed, match the goldens.  Longer blocks measured < 2% faster.
        block = _block_len(pairs, 2, move_budget - moves_done, _MAX_WALK_BLOCK)
        _count_round(
            xp, trial_iterations, trial_rounds, pair_trial, n_trials,
            weight=block,
        )
        # Four 2-bit steps ride in every drawn byte; the byte tables
        # fold each one into its per-axis displacement in one gather.
        # ``rem`` is how many fields of the final word the block uses.
        n_words = (block + 3) // 4
        rem = block - (n_words - 1) * 4
        raw = rng.integers(0, 256, size=(pairs, n_words), dtype=xp.uint8)
        bu = xp.take(sum_u, raw)
        bv = xp.take(sum_v, raw)
        if rem != 4:
            bu[:, -1] = xp.take(pre_u[:, rem - 1], raw[:, -1])
            bv[:, -1] = xp.take(pre_v[:, rem - 1], raw[:, -1])
        rel_u = target_u - pos_u
        rel_v = target_v - pos_v
        near = (xp.abs(rel_u) <= block) & (xp.abs(rel_v) <= block)
        if not xp.any(near):
            pos_u += xp.astype(xp.sum(bu, axis=1), xp.int64)
            pos_v += xp.astype(xp.sum(bv, axis=1), xp.int64)
            moves_done += block
            continue
        split = int(xp.sum(xp.astype(near, xp.int64))) != pairs
        if split:
            far = ~near
            pos_u[far] += xp.astype(xp.sum(bu[far], axis=1), xp.int64)
            pos_v[far] += xp.astype(xp.sum(bv[far], axis=1), xp.int64)
            bu = bu[near]
            bv = bv[near]
            raw = raw[near]
            scan_trial = pair_trial[near]
            scan_agent = pair_agent[near]
            rel_u = rel_u[near]
            rel_v = rel_v[near]
        else:
            scan_trial = pair_trial
            scan_agent = pair_agent
        cum_u = xp.cumsum(bu, axis=1, dtype=xp.int16)  # cum at word ends
        cum_v = xp.cumsum(bv, axis=1, dtype=xp.int16)
        # Remaining displacement at the *start* of each word.  The
        # int16 casts are exact (|rel| <= block <= _MAX_WALK_BLOCK);
        # the one overflowable difference, |rel| + |cum| = 2 * block =
        # 32768, wraps to -32768 and still fails the +-4 window.
        diff_u = xp.astype(rel_u, xp.int16)[:, None] - (cum_u - bu)
        diff_v = xp.astype(rel_v, xp.int16)[:, None] - (cum_v - bv)
        cand = (xp.abs(diff_u) <= 4) & (xp.abs(diff_v) <= 4)
        if xp.any(cand):
            scanned = xp.size(rel_u)
            k_pre_u = xp.take(pre_u, raw[cand])        # (m, 4) in-byte
            k_pre_v = xp.take(pre_v, raw[cand])
            hit_k = k_pre_u == xp.astype(diff_u[cand], xp.int8)[:, None]
            hit_k &= k_pre_v == xp.astype(diff_v[cand], xp.int8)[:, None]
            hit_words = xp.zeros((scanned, n_words), dtype=xp.bool_)
            hit_words[cand] = xp.astype(xp.sum(hit_k, axis=1), xp.bool_)
            first_k = xp.zeros((scanned, n_words), dtype=xp.int64)
            first_k[cand] = xp.first_true(hit_k, axis=1)
            if rem != 4:
                # Fields past the block end in the final word are
                # undrawn steps; a first match there is no match.
                hit_words[:, -1] &= first_k[:, -1] < rem
            pair_hit = xp.astype(xp.sum(hit_words, axis=1), xp.bool_)
            if xp.any(pair_hit):
                first_word = xp.first_true(hit_words, axis=1)
                step_of_hit = xp.where(
                    pair_hit,
                    first_word * 4 + xp.take_along(first_k, first_word),
                    block,
                )
                totals = moves_done + step_of_hit + 1
                _score_hits(
                    xp, best, best_finder, scan_trial, scan_agent, totals,
                    pair_hit,
                )
        if split:
            pos_u[near] += xp.astype(cum_u[:, -1], xp.int64)
            pos_v[near] += xp.astype(cum_v[:, -1], xp.int64)
        else:
            pos_u += xp.astype(cum_u[:, -1], xp.int64)
            pos_v += xp.astype(cum_v[:, -1], xp.int64)
        moves_done += block
        # Lockstep: any later find is later in time, so finished
        # colonies retire wholesale.
        keep = xp.take(best, pair_trial) == SENTINEL
        pos_u = pos_u[keep]
        pos_v = pos_v[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _spiral_indices(xp: ArrayNamespace, dx, dy):
    """Vectorized :func:`repro.baselines.spiral.spiral_index` in float64.

    Float avoids int64 overflow for offsets beyond ring ~2^31 (late
    Feinerman stages jump that far); any index too large for exact
    float representation is far beyond every realistic quota/budget, so
    the comparisons downstream stay exact where they matter.
    """
    fx = xp.astype(dx, xp.float64)
    fy = xp.astype(dy, xp.float64)
    r = xp.maximum(xp.abs(fx), xp.abs(fy))
    base = (2.0 * r - 1.0) ** 2
    index = xp.where(
        (fx == r) & (fy > -r),
        base + fy + r - 1.0,
        xp.where(
            fy == r,
            base + 2.0 * r + (r - 1.0 - fx),
            xp.where(
                fx == -r,
                base + 4.0 * r + (r - 1.0 - fy),
                base + 6.0 * r + (fx + r - 1.0),
            ),
        ),
    )
    return xp.where(r == 0, 0.0, index)


def batch_feinerman(
    xp: ArrayNamespace,
    rng: KernelRNG,
    n_agents: int,
    n_trials: int,
    target,
    move_budget: int,
    c: float = FEINERMAN_C,
    max_stage: int = DEFAULT_MAX_STAGE,
):
    """All trials of the Feinerman et al. baseline at once.

    Mirrors :func:`repro.baselines.feinerman.fast_feinerman`: per
    round, each active pair draws its stage's uniform center, and a
    closed-form spiral-index test decides whether the quota-bounded
    spiral around that center visits the target.  Quotas and spiral
    indices are computed in float64 and clipped to ``move_budget + 1``
    before the integer accounting: any clipped value already exceeds
    every eligibility limit, so outcomes are unaffected while late
    stages (whose raw quotas overflow int64) stay representable.
    """
    if target == (0, 0):
        return _origin_batch(xp, n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(xp, n_trials, n_agents)
    pairs = n_trials * n_agents
    cumulative = xp.zeros(pairs, dtype=xp.int64)
    stages = xp.full(pairs, 1, dtype=xp.int64)

    while xp.size(pair_trial):
        _count_round(xp, trial_iterations, trial_rounds, pair_trial, n_trials)
        radii = 2 ** stages  # max_stage <= 40 keeps this exact in int64
        scale = xp.exp2(xp.astype(stages, xp.float64))
        quota_f = xp.ceil(c * (scale * scale / n_agents + scale))
        quota = xp.astype(xp.minimum(quota_f, move_budget + 1), xp.int64)
        # One fused draw for both center coordinates per pair.
        centers = rng.integers(-radii, radii + 1, size=(2, xp.size(pair_trial)))
        centers_x, centers_y = centers[0], centers[1]
        walk_moves = xp.abs(centers_x) + xp.abs(centers_y)
        indices_f = _spiral_indices(
            xp, target[0] - centers_x, target[1] - centers_y
        )
        hit = indices_f <= quota_f
        indices = xp.astype(xp.minimum(indices_f, move_budget + 1), xp.int64)
        totals = cumulative + walk_moves + indices
        eligible = hit & (totals <= move_budget) & (
            totals < xp.take(best, pair_trial)
        )
        _score_hits(
            xp, best, best_finder, pair_trial, pair_agent, totals, eligible
        )
        # Single-pass compaction across the hit + budget/best + stage
        # retirement conditions.
        new_cum = cumulative + walk_moves + quota
        new_stages = stages + 1
        keep = (
            ~hit
            & (new_cum < xp.minimum(move_budget, xp.take(best, pair_trial)))
            & (new_stages <= max_stage)
        )
        cumulative = new_cum[keep]
        stages = new_stages[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


class _CountingRNG:
    """Forwarding RNG proxy counting draw calls for span attributes.

    Only wrapped around the real RNG when a kernel span is live — the
    untraced hot path never pays the indirection.
    """

    def __init__(self, inner: KernelRNG) -> None:
        self._inner = inner
        self.draw_calls = 0

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.draw_calls += 1
            return attr(*args, **kwargs)

        return counted


def run_family(
    xp: ArrayNamespace,
    rng: KernelRNG,
    request,
    n_trials: int,
) -> Tuple:
    """Dispatch one :class:`~repro.sim.backends.base.SimulationRequest`
    batch to its family kernel.

    Shared by the ``batched`` (NumPy) and ``accelerator`` (device)
    backends — the only difference between them is the namespace bound
    here.  Returns the four namespace arrays.

    When an ambient trace exists the dispatch is wrapped in a
    ``kernel.<family>`` span carrying the kernel's working set —
    family, trials, agents, namespace/device, scratch budget, and the
    number of blocked RNG draw calls the kernel issued.
    """
    spec = request.algorithm
    with child_span(
        f"kernel.{spec.name}",
        family=spec.name,
        n_trials=n_trials,
        n_agents=request.n_agents,
        namespace=xp.name,
        device=(
            None
            if getattr(xp, "device", None) is None
            else str(xp.device)
        ),
        move_budget=request.move_budget,
        scratch_bytes=SCRATCH_BYTES,
    ) as sp:
        if sp is None:
            return _dispatch_family(xp, rng, request, n_trials)
        counting = _CountingRNG(rng)
        result = _dispatch_family(xp, counting, request, n_trials)
        sp.set_attribute("rng_draw_calls", counting.draw_calls)
        return result


def _dispatch_family(
    xp: ArrayNamespace,
    rng: KernelRNG,
    request,
    n_trials: int,
) -> Tuple:
    spec = request.algorithm
    if spec.name in ("algorithm1", "nonuniform"):
        return batch_lshape(
            xp, rng, stop_probability_for(request), request.n_agents,
            n_trials, request.target, request.move_budget,
        )
    if spec.name == "uniform":
        return batch_uniform(
            xp, rng, request.n_agents, spec.ell or 1, spec.K, n_trials,
            request.target, request.move_budget,
            spec.max_phase or DEFAULT_MAX_PHASE,
        )
    if spec.name == "doubly-uniform":
        return batch_doubly_uniform(
            xp, rng, request.n_agents, spec.ell or 1, spec.K, n_trials,
            request.target, request.move_budget,
        )
    if spec.name == "random-walk":
        return batch_random_walk(
            xp, rng, request.n_agents, n_trials, request.target,
            request.move_budget,
        )
    if spec.name == "feinerman":
        return batch_feinerman(
            xp, rng, request.n_agents, n_trials, request.target,
            request.move_budget,
        )
    raise ValueError(f"no batch kernel for algorithm {spec.name!r}")


def stop_probability_for(request) -> float:
    """The constant stop probability of an lshape-family request."""
    if request.algorithm.name == "algorithm1":
        return 1.0 / request.algorithm.distance
    from repro.core.nonuniform import NonUniformSearch

    return NonUniformSearch(
        request.algorithm.distance, request.algorithm.ell or 1
    ).stop_probability
