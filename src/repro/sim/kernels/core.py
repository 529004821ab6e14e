"""Batched kernels for the six simulable families.

These are the whole-batch kernels the ``batched`` backend historically
kept inline (one pool of (trial, agent) pairs, one vectorized draw per
round, scatter-min colony folds), written directly against NumPy and an
``np.random.Generator``, and optimized on the way out:

* **Blocked multi-round draws (lshape, uniform, doubly-uniform)** —
  the sortie families sample *blocks* of rounds per RNG call: a
  ``(pairs, block)`` matrix of sorties and one scatter fold per block
  (:func:`_sortie_block`, shared by all three).  The block length
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
* **Sparse block scans (the same three)** — hits are found from
  candidates (off-axis, a vertical leg exactly ``|y|`` long: one
  compare, then the remaining conditions on the candidates alone), a
  row's first hit is where the row index changes in the row-major hit
  list, move accounting is one row sum per pair, and prefix sums run
  only on the few rows that hit or reach the budget/best limit.  Every
  draw is sampled into one workspace allocated per kernel call.
* **Rotated-axis walk blocks (random-walk)** — in the rotated
  coordinates ``u = x + y, v = x - y`` the 4-way unit step is two
  *independent* fair ±1 coins, drawn four steps to a uint8 byte and
  never unpacked: read as uint64 chunks of 32 steps, one masked
  ``np.bitwise_count`` per axis gives every chunk's displacement, the
  prefix sums run over ``block / 32`` chunks, and only chunks whose
  two edges lie within 32 steps of the target together (on both axes)
  get the byte-level and per-step checks (masked popcounts too).  On
  the ``kernels`` record (8 agents, 64 trials, target (12, 9), budget
  200 000) it runs ~10,400 colonies/sec: 22× the pre-blocking
  per-round copy timed beside it, and 2.9× the byte-table kernel it
  replaced (14.8 → 5.0 ms per call, 21 interleaved pairs; 3.3× at
  perfbench's n = 200 shape).
* **Fused per-round draws (feinerman)** — both center coordinates for
  one round come from one RNG call instead of two.
* **Single-pass compaction** — the hit-survivor prune and the
  budget/best prune are merged into one boolean gather per state array
  per block (previously two per round).
* **int64 pair/agent indices** — NumPy converts narrower fancy indices
  to ``intp`` on every gather and scatter, so int64 indices are the
  fast ones (measured ~3x on a pool-sized gather).

Outcome distributions are unchanged: iterations are still drawn from
exactly the process distribution, and the golden KS gates
(``tests/unit/test_golden_distributions.py``) hold for all six families.
Draw *order* differs from the pre-extraction kernels, so per-request
streams moved once — recorded by the ``CODE_VERSION`` bump that shipped
with the extraction.

Every kernel returns ``(best, best_finder, trial_iterations,
trial_rounds)`` as int64 NumPy arrays.  :func:`run_family` is the one
entry point that also takes the ``xp`` handle of
:func:`numpy_namespace`, whose name it records on its trace span.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Tuple

import numpy as np

from repro.obs.trace import child_span

__all__ = [
    "SENTINEL",
    "batch_doubly_uniform",
    "batch_feinerman",
    "batch_lshape",
    "batch_random_walk",
    "batch_uniform",
    "numpy_namespace",
    "run_family",
]

#: "No find" marker in the per-trial ``best`` array (int64 max).
SENTINEL = 2**63 - 1

DEFAULT_MAX_PHASE = 50
DEFAULT_MAX_EPOCH = 40
DEFAULT_MAX_STAGE = 40
FEINERMAN_C = 4.0

#: One scratch budget shared by every blocked kernel: it sets the
#: block length, ``SCRATCH_BYTES // (itemsize * pairs)`` rounds.
#: Expressed in bytes (not elements) so kernels with different scratch
#: dtypes derive their own element counts from the same cap — the
#: sortie kernels get ``SCRATCH_BYTES // 8`` sorties per block (their
#: fused float32 draw of both legs is that many bytes), the walk
#: ``SCRATCH_BYTES // 2`` steps (an itemsize of 2).  Block boundaries
#: decide how the RNG stream is cut, so this constant is part of the
#: bit-identity contract.  A sortie block's draw is transformed in
#: place in a per-call workspace (:func:`_sortie_workspace`) and read
#: by a handful of elementwise passes; 512 KiB keeps that working set
#: L2-resident however large the pool or however long the tail, while
#: staying large enough that per-block Python dispatch is noise.
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


def _move_dtype(move_budget: int):
    """Accounting dtype for blocked move sums: float32 while exact.

    float64 is the fallback for budgets >= 2^23 — same exactness
    argument with a 2^53 ceiling, at int64-equivalent bandwidth.
    """
    return np.float32 if move_budget < _FLOAT32_EXACT_BUDGET else np.float64
#: Walk-block cap.  Like ``SCRATCH_BYTES`` it cuts the RNG stream, so
#: it is part of the bit-identity contract; the walk's int32 chunk sums
#: and int64 gaps hold any block it allows.
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


def _batch_state(n_trials: int, n_agents: int):
    """Fresh pooled-pair bookkeeping shared by every kernel."""
    pairs = n_trials * n_agents
    flat = np.arange(pairs, dtype=np.int64)
    pair_trial = flat // n_agents
    pair_agent = flat % n_agents
    best = np.full(n_trials, SENTINEL, dtype=np.int64)
    best_finder = np.full(n_trials, -1, dtype=np.int64)
    trial_iterations = np.zeros(n_trials, dtype=np.int64)
    trial_rounds = np.zeros(n_trials, dtype=np.int64)
    return pair_trial, pair_agent, best, best_finder, trial_iterations, trial_rounds


def _origin_batch(n_trials: int):
    """Every colony finds an origin target after zero moves."""
    zeros = np.zeros(n_trials, dtype=np.int64)
    return (
        zeros,
        np.zeros(n_trials, dtype=np.int64),
        np.zeros(n_trials, dtype=np.int64),
        np.zeros(n_trials, dtype=np.int64),
    )


def _count_round(
    trial_iterations, trial_rounds, pair_trial, n_trials, weight=1
):
    """Per-colony diagnostics: scatter-add this round's active pairs."""
    counts = np.bincount(pair_trial, minlength=n_trials)
    trial_iterations += counts * weight
    trial_rounds += (counts > 0).astype(np.int64)


def _score_hits(best, best_finder, pair_trial, pair_agent, totals, eligible):
    """Fold eligible finds into each colony's running minimum.

    The finder is resolved with a scatter-min over agent ids rather
    than a plain scatter write, so the lowest agent wins a same-round
    tie whatever order the duplicate-index writes land in.
    """
    if not np.any(eligible):
        return
    np.minimum.at(best, pair_trial[eligible], totals[eligible])
    improved = eligible & (totals == best[pair_trial])
    if not np.any(improved):
        return
    winner = np.full(best.size, SENTINEL, dtype=np.int64)
    np.minimum.at(
        winner, pair_trial[improved], pair_agent[improved].astype(np.int64)
    )
    decided = winner != SENTINEL
    best_finder[decided] = winner[decided]


def _sortie_workspace(pairs: int, acc):
    """One kernel call's scratch for every fused sortie draw it makes.

    Two float32 buffers of ``2 * max(SCRATCH_BYTES // 8, pairs)``
    elements — the draws (transformed in place into leg lengths) and
    their direction bits — plus, on the float64 accounting path, a
    float64 buffer for the per-round move sums.  Every block fits: the
    block schedule caps ``pairs * block`` at ``SCRATCH_BYTES // 8``, or
    at one round of a pool larger than that, and pools only shrink.
    Reusing the buffers across blocks keeps each draw from faulting in
    fresh half-megabyte temporaries.
    """
    size = max(SCRATCH_BYTES // 8, pairs)
    legs = None if acc is np.float32 else np.zeros(size, dtype=np.float64)
    return (
        np.zeros(2 * size, dtype=np.float32),
        np.zeros(2 * size, dtype=np.float32),
        legs,
    )


def _draw_sorties(rng, workspace, stop_probability, pairs: int, block: int):
    """One block's fused sortie draw, sampled into the workspace.

    One float32 uniform fill covers both legs of every ``(pairs,
    block)`` sortie; the transforms below run in place.  Returns
    ``(lengths, bits)``: flat float32 views of ``2 * pairs * block``
    elements, the vertical legs first and the horizontal legs second,
    each row-major ``(pairs, block)``; ``bits`` is a leg's direction
    (1.0 for +, 0.0 for -).  ``stop_probability`` is a float, or a
    ``(pairs, 1)`` column of per-row stop probabilities.
    """
    draws, bits, _ = workspace
    count = 2 * pairs * block
    u = rng.random(dtype=np.float32, out=draws[:count])
    bits = bits[:count]
    # For U ~ [0, 1), the integer and fractional parts of 2U are an
    # independent fair bit (the direction) and a fresh uniform (the
    # length's seed) — exactly, not approximately.  float32 halves the
    # fill-and-transform bandwidth; its ~22-bit fraction granularity
    # truncates the geometric tail only past the 1 - 2^-22 quantile,
    # invisible to every distribution gate.
    u += u
    np.floor(u, out=bits)
    u -= bits
    # Inverse-CDF geometric minus one: floor(log1p(-U) / log1p(-p)).
    # The clamp guards
    # the p -> 0 corner where log1p(-p) underflows to -0.0 and the
    # division would NaN (no realistic phase reaches it: sorties at
    # such p overshoot any budget in one round).
    denominator = np.minimum(
        np.log1p(-stop_probability).astype(np.float32), -1e-30
    )
    u *= -1.0
    np.log1p(u, out=u)
    per_round = u.reshape((2, pairs, block))
    per_round /= denominator
    np.floor(u, out=u)
    # Lengths stay float32: every integer a kernel compares or
    # accumulates below the float32-exact ceiling (2^24) is exact.  See
    # ``_move_dtype`` for how the callers keep move totals exact.
    return u, bits


def _first_hits(target, lengths, bits, pairs: int, block: int, use):
    """Each hitting row's first hit in one block: ``(flat, rows, cols)``.

    Off-axis (``x != 0``) a sortie can meet the target only at its
    corner, so its vertical leg is exactly ``|y|`` long: one compare,
    true with probability at most ``p``, picks the candidates, and the
    directions and the horizontal reach are tested on them alone.  On
    the y-axis (``x == 0``) a hit is a vertical leg at least ``|y|``
    long in the right direction, likely when ``p`` is small, so both
    tests run on the whole block.  Columns at or past a row's ``use``
    horizon are discarded draws.  Hits come out row-major, so a row's
    first hit is wherever the row index changes — no per-row scan.
    """
    x, y = target
    n = pairs * block
    if x == 0:
        dense = lengths[:n] >= abs(y)
        dense &= bits[:n] == (1.0 if y > 0 else 0.0)
    else:
        dense = lengths[:n] == abs(y)
        if y == 0:
            # A zero-length vertical leg has probability p, up to 1/2
            # in early phases, so on the x-axis the horizontal reach
            # joins the dense test.
            dense &= lengths[n:] >= abs(x)
    cand = np.flatnonzero(dense)
    rows = cand // block
    cols = cand - rows * block
    ok = np.full(cand.size, True, dtype=np.bool_)
    if x != 0:
        ok &= bits[n:][cand] == (1.0 if x > 0 else 0.0)
        if y != 0:
            ok &= lengths[n:][cand] >= abs(x)
            ok &= bits[:n][cand] == (1.0 if y > 0 else 0.0)
    if use is not None:
        ok &= cols < use[rows]
    cand = cand[ok]
    rows = rows[ok]
    cols = cols[ok]
    if rows.size > 1:
        first = _row_starts(rows)
        cand, rows, cols = cand[first], rows[first], cols[first]
    return cand, rows, cols


def _row_starts(rows):
    """Mask of each row's first entry in a row-major list of row indices."""
    first = np.full(rows.size, True, dtype=np.bool_)
    first[1:] = rows[1:] != rows[:-1]
    return first


def _trial_limits(best, move_budget: int, acc):
    """Each colony's budget/best limit, in the accounting dtype."""
    return np.minimum(move_budget, best).astype(acc)


def _sortie_block(
    rng: np.random.Generator,
    workspace,
    target,
    move_budget: int,
    best,
    best_finder,
    n_trials: int,
    pair_trial,
    pair_agent,
    cumulative,
    stop_probability,
    block: int,
    trial_iterations,
    trial_rounds,
    use=None,
):
    """One blocked round-batch of L-sorties for every pair in the pool.

    Each pair executes ``block`` rounds — or, for the phase-driven
    families, ``use <= block`` rounds — at one stop probability or at
    its own per-row one (a ``(pairs, 1)`` column: the per-trial
    lshape probabilities, or a phase's, constant within the block
    because ``use`` never crosses the pair's phase boundary); columns
    past a row's horizon are discarded draws, masked out of hits and
    move sums, so every *used* column is distributed exactly as a
    per-round draw at that pair's phase.

    The scan is sparse.  Hits come from :func:`_first_hits`; move
    accounting takes one row sum per pair, and prefix sums run only on
    the few rows that need a position inside the block: rows that hit
    (moves before the hit) and rows whose horizon-end total reaches the
    budget/best limit known at block start (the round that limit
    retires them).  Totals stay in the float accounting dtype (see
    ``_move_dtype``): any sum below the dtype's exact ceiling is exact
    in any summation order, and any sum above it rounds to a value
    still above it, hence past every limit — so row sums and the
    per-row prefix sums decide every comparison exactly as a full
    ``(pairs, block)`` prefix sum would.

    Diagnostics count the rounds each pair actually spent: up to its
    first hit, or up to the round the limit as known at block start
    would have retired it.  When a sibling pair's find lands mid-block,
    a per-round kernel would have pruned survivors a little earlier, so
    ``FastRunStats`` is a modest upper bound on per-round counts;
    outcomes (``best``/``finder``) are unaffected.  Folding post-
    retirement hits is sound because every such total ``t`` satisfies
    ``t >= cumulative >= min(budget, best)`` at the pair's original
    retirement point, so the scatter-min ignores it.

    Folds eligible finds and the diagnostics, then returns ``(keep,
    end)``: the single-pass compaction mask (horizon-end total still
    below the refreshed limit, which no row that hit is) and each pair's
    horizon-end cumulative moves (exact wherever ``keep`` holds).
    """
    pairs = pair_trial.size
    n = pairs * block
    acc = _move_dtype(move_budget)
    lengths, bits = _draw_sorties(
        rng, workspace, stop_probability, pairs, block
    )
    hit_flat, hit_rows, hit_cols = _first_hits(
        target, lengths, bits, pairs, block, use
    )
    if acc is np.float32:
        legs = lengths[:n]                # the vertical legs are consumed
    else:
        legs = workspace[2][:n]
        legs[...] = lengths[:n]
    legs += lengths[n:]
    leg = legs.reshape((pairs, block))    # moves of each (pair, round)
    # Row sums by einsum: np.sum(axis=1) pays a per-row reduction setup,
    # which dominates on these short rows (2-40 rounds per block);
    # einsum's contiguous sum kernel does not.
    end = np.einsum("ij->i", leg)
    if use is None:
        rounds = np.full(pairs, block, dtype=np.int64)
    else:
        rounds = np.minimum(use, block)   # a copy: hits and cuts lower it
        ragged = np.flatnonzero(use < block)
        if ragged.size:
            # Rows whose horizon ends inside the block sum their used
            # columns only.  Prefix sums below need no mask: they are
            # read at a hit or a cut, both before the horizon.
            used = leg[ragged]
            cols = np.arange(block, dtype=np.int64)
            used *= cols[None, :] < use[ragged][:, None]
            end[ragged] = np.einsum("ij->i", used)
    end += cumulative
    limit = _trial_limits(best, move_budget, acc)[pair_trial]

    hits = hit_rows.size
    if hits:
        # Moves before the hit: the row's prefix through the hit round,
        # less that round's legs — the full-scan formula, so totals
        # round (past the exact ceiling) exactly as they always did.
        prefix = np.cumsum(leg[hit_rows], axis=1).reshape(-1)
        moves_before = prefix[
            np.arange(hits, dtype=np.int64) * block + hit_cols
        ]
        moves_before += cumulative[hit_rows]
        moves_before -= legs[hit_flat]
        # The hit sortie's own moves, in float32 like the lengths: |y|
        # up the vertical leg, then |x| along the horizontal one.
        reach = np.full(hits, abs(target[1]), dtype=np.float32)
        if target[0] != 0:
            reach += abs(target[0])
        totals = np.minimum(moves_before + reach, _TOTAL_CLAMP).astype(np.int64)
        rounds[hit_rows] = hit_cols + 1
    # Rows of the prefix are nondecreasing, so the rounds a pair spent
    # under the limit end at the first prefix at or past it.
    exceeds = np.flatnonzero(end >= limit)
    if exceeds.size:
        prefix = np.cumsum(leg[exceeds], axis=1)
        prefix += cumulative[exceeds][:, None]
        cut = np.argmax(prefix >= limit[exceeds][:, None], axis=1)
        rounds[exceeds] = np.minimum(rounds[exceeds], cut + 1)
    np.add.at(trial_iterations, pair_trial, rounds)
    block_rounds = np.zeros(n_trials, dtype=np.int64)
    np.maximum.at(block_rounds, pair_trial, rounds)
    trial_rounds += block_rounds

    if hits:
        hit_trial = pair_trial[hit_rows]
        eligible = (totals <= move_budget) & (totals < best[hit_trial])
        _score_hits(
            best, best_finder, hit_trial, pair_agent[hit_rows],
            totals, eligible,
        )
    # Kept totals sit below the refreshed limit, hence in the
    # accounting dtype's exact-integer range.  Hit rows need no mask: a
    # row's horizon total is at least its hit total, which is either
    # now the colony best or was already past the limit.
    keep = end < _trial_limits(best, move_budget, acc)[pair_trial]
    return keep, end


def batch_lshape(
    rng: np.random.Generator,
    stop_probability,
    n_agents: int,
    n_trials: int,
    target,
    move_budget: int,
):
    """All trials of a constant-stop-probability sortie algorithm at once.

    ``stop_probability`` is one float for every colony, or a
    length-``n_trials`` array giving each colony its own (constant)
    stop probability; the failsafe round cap then follows the largest.

    Each loop iteration simulates a ``(pairs, block)`` matrix of
    sorties with one RNG call and folds it into the colony minima via
    :func:`_sortie_block`.  The block length starts small (most pairs
    retire within a few rounds of a fresh pool) and doubles per
    iteration up to the scratch cap, so a near-drained pool simulates
    thousands of rounds per call.
    """
    per_trial = np.ndim(stop_probability) > 0
    if per_trial:
        stop_probability = np.asarray(stop_probability, dtype=np.float64)
        if stop_probability.shape != (n_trials,):
            raise ValueError(
                f"stop_probability must be a float or have shape "
                f"({n_trials},), got shape {stop_probability.shape}"
            )
    if target == (0, 0):
        return _origin_batch(n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(n_trials, n_agents)
    acc = _move_dtype(move_budget)
    workspace = _sortie_workspace(n_trials * n_agents, acc)
    cumulative = np.zeros(n_trials * n_agents, dtype=acc)

    largest = float(stop_probability.max()) if per_trial else stop_probability
    expected_len = max(1.0, 2.0 * (1.0 / largest - 1.0))
    rounds_left = int(200 * (move_budget / expected_len + 1)) + 10_000
    block = 4
    while pair_trial.size > 0 and rounds_left > 0:
        block = _block_len(
            pair_trial.size, 8, block * 2, rounds_left, _MAX_BLOCK
        )
        rounds_left -= block
        # Per-trial probabilities reach the draw as a (pairs, 1) column,
        # as the phase-driven families' per-row probabilities do.
        stop_p = (
            stop_probability[pair_trial][:, None] if per_trial
            else stop_probability
        )
        keep, end = _sortie_block(
            rng, workspace, target, move_budget, best, best_finder,
            n_trials, pair_trial, pair_agent, cumulative, stop_p,
            block, trial_iterations, trial_rounds,
        )
        cumulative = end[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _phase_block_len(
    calls_left, pairs: int, prev_block: int, rounds_left: int
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
                       int(np.max(calls_left)))
    while block > 4:
        used = int(np.sum(np.minimum(calls_left, block)))
        if 2 * used >= pairs * block:
            break
        block //= 2
    return block


def batch_uniform(
    rng: np.random.Generator,
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
    via :func:`_sortie_block`, with the pair's validity horizon
    ``min(block, calls_left)`` keeping every used draw inside its
    current phase.  The block length starts small (fresh pools sit in
    short early phases) and doubles per iteration up to the scratch
    cap and the pool's largest remaining phase budget.
    """
    if target == (0, 0):
        return _origin_batch(n_trials)
    discount = math.floor(math.log2(n_agents) / ell) if n_agents > 1 else 0
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(n_trials, n_agents)
    pairs = n_trials * n_agents
    acc = _move_dtype(move_budget)
    workspace = _sortie_workspace(pairs, acc)
    cumulative = np.zeros(pairs, dtype=acc)
    phase = np.zeros(pairs, dtype=np.int64)
    calls_left = np.zeros(pairs, dtype=np.int64)

    phase1_len = max(1.0, 2.0 * (2.0**ell - 1.0))
    rounds_left = int(200 * (move_budget / phase1_len + 1)) + 10_000
    block = 4
    while pair_trial.size > 0 and rounds_left > 0:
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
        if pair_trial.size != int(np.sum(alive.astype(np.int64))):
            pair_trial = pair_trial[alive]
            pair_agent = pair_agent[alive]
            cumulative = cumulative[alive]
            phase = phase[alive]
            calls_left = calls_left[alive]
        block = _phase_block_len(
            calls_left, pair_trial.size, block, rounds_left
        )
        rounds_left -= block
        use = np.minimum(calls_left, block)
        stop_p = np.exp2(-(phase.astype(np.float64) * ell))
        keep, end = _sortie_block(
            rng, workspace, target, move_budget, best, best_finder,
            n_trials, pair_trial, pair_agent, cumulative, stop_p[:, None],
            block, trial_iterations, trial_rounds, use,
        )
        cumulative = end[keep]
        calls_left = (calls_left - use)[keep]
        phase = phase[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def batch_doubly_uniform(
    rng: np.random.Generator,
    n_agents: int,
    ell: int,
    K: int,
    n_trials: int,
    target,
    move_budget: int,
    max_epoch: int = DEFAULT_MAX_EPOCH,
):
    """All trials of the doubly uniform search at once, in blocked rounds.

    Mirrors :meth:`repro.core.doubly_uniform.DoublyUniformSearch.process`:
    epoch ``j``
    commits to the guess ``n_j = 2^j`` and runs phases ``1..j`` of
    Algorithm 5 under that guess.  Per-pair state is ``(epoch, phase,
    calls_left, cumulative)``; when a pair's phase coin runs out it
    advances to the next phase, rolling over to ``(epoch + 1, phase 1)``
    past the epoch's phase range.  Between refills the pair executes
    blocked rounds exactly as :func:`batch_uniform` — one fused
    ``(pairs, block)`` draw, per-pair ``min(block, calls_left)``
    validity horizons, sparse first-hit scans, and one single-pass
    compaction per block.
    """
    if target == (0, 0):
        return _origin_batch(n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(n_trials, n_agents)
    pairs = n_trials * n_agents
    acc = _move_dtype(move_budget)
    workspace = _sortie_workspace(pairs, acc)
    cumulative = np.zeros(pairs, dtype=acc)
    epoch = np.full(pairs, 1, dtype=np.int64)
    phase = np.zeros(pairs, dtype=np.int64)
    calls_left = np.zeros(pairs, dtype=np.int64)

    phase1_len = max(1.0, 2.0 * (2.0**ell - 1.0))
    rounds_left = int(200 * (move_budget / phase1_len + 1)) + 10_000
    block = 4
    while pair_trial.size > 0 and rounds_left > 0:
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
        if pair_trial.size != int(np.sum(alive.astype(np.int64))):
            pair_trial = pair_trial[alive]
            pair_agent = pair_agent[alive]
            cumulative = cumulative[alive]
            epoch = epoch[alive]
            phase = phase[alive]
            calls_left = calls_left[alive]
        block = _phase_block_len(
            calls_left, pair_trial.size, block, rounds_left
        )
        rounds_left -= block
        use = np.minimum(calls_left, block)
        stop_p = np.exp2(-(phase.astype(np.float64) * ell))
        keep, end = _sortie_block(
            rng, workspace, target, move_budget, best, best_finder,
            n_trials, pair_trial, pair_agent, cumulative, stop_p[:, None],
            block, trial_iterations, trial_rounds, use,
        )
        cumulative = end[keep]
        calls_left = (calls_left - use)[keep]
        epoch = epoch[keep]
        phase = phase[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


#: A drawn byte packs four 2-bit steps; field ``k``'s bit ``2k`` is the
#: u coin and bit ``2k + 1`` the v coin (1 = +1, 0 = -1), so a run of
#: fields moves an axis by ``2 * ones - fields``.  Eight bytes make one
#: uint64 *chunk* of 32 steps, whose per-axis ones are one popcount of
#: the chunk under these masks.
_WALK_MASK_U = np.uint64(0x5555_5555_5555_5555)
_WALK_MASK_V = np.uint64(0xAAAA_AAAA_AAAA_AAAA)
_CHUNK_BYTES = 8
_CHUNK_STEPS = 4 * _CHUNK_BYTES
#: In-byte prefix masks: entry ``k`` keeps one axis's bits of fields
#: ``0..k``, so a masked popcount is that axis's ones after ``k + 1``
#: steps of the byte.
_FIELD_MASK_U = np.array(
    [0x55 & ((4 << 2 * k) - 1) for k in range(4)], dtype=np.uint8
)
_FIELD_MASK_V = _FIELD_MASK_U << 1
_FIELD_STEPS = np.arange(1, 5, dtype=np.int16)
#: Chunks are read little-endian whatever the host, so byte ``j`` sits
#: at bits ``8j..8j+7`` and entry ``j`` of the chunk-level prefix masks
#: keeps one axis's bits of bytes ``0..j-1``: ``_BYTE_STEPS[j]`` steps.
_CHUNK_DTYPE = np.dtype("<u8")
_BELOW_U = np.array(
    [0x5555_5555_5555_5555 & ((1 << 8 * j) - 1) for j in range(9)],
    dtype=_CHUNK_DTYPE,
)
_BELOW_V = _BELOW_U << np.uint64(1)
_BYTE_STEPS = np.arange(0, _CHUNK_STEPS + 1, 4, dtype=np.int64)


def batch_random_walk(
    rng: np.random.Generator,
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

    The scan is three-level, and every level is a popcount.  A block's
    bytes, padded to whole 8-byte chunks, are read as uint64 and one
    masked ``np.bitwise_count`` per axis gives each 32-step chunk's
    displacement, so the prefix sums run over ``block / 32`` chunks.
    A step inside a chunk can land on the target only if, on both
    axes, the remaining displacements at the chunk's two edges sum to
    at most 32, which only a few chunks near the target do.  Those
    chunks alone get the same test at byte (*word*) scale, with a
    window of 4 — the ones below each byte edge are one more masked
    popcount — and the candidate words alone the exact per-step check:
    a masked popcount of the first ``k + 1`` fields.  Candidates come
    out row-major in step order, so a row's first hit is where the row
    index changes.
    """
    if target == (0, 0):
        return _origin_batch(n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(n_trials, n_agents)
    pairs0 = n_trials * n_agents
    pos_u = np.zeros(pairs0, dtype=np.int64)
    pos_v = np.zeros(pairs0, dtype=np.int64)
    target_u = target[0] + target[1]
    target_v = target[0] - target[1]
    moves_done = 0
    while moves_done < move_budget and pair_trial.size:
        pairs = pair_trial.size
        # Scratch is bit-packed (a quarter byte per step), but itemsize
        # stays 2 — the bit-sliced formulation's footprint — so block
        # boundaries, and with them the realized outcomes per seed,
        # match the goldens.
        block = _block_len(pairs, 2, move_budget - moves_done, _MAX_WALK_BLOCK)
        _count_round(
            trial_iterations, trial_rounds, pair_trial, n_trials, weight=block
        )
        # ``rem`` is how many fields of the final word the block uses;
        # the rest are masked to zero so popcounts see drawn steps only.
        n_words = (block + 3) // 4
        rem = block - (n_words - 1) * 4
        raw = rng.integers(0, 256, size=(pairs, n_words), dtype=np.uint8)
        n_chunks = -(-n_words // _CHUNK_BYTES)
        if n_words % _CHUNK_BYTES:
            padded = np.zeros((pairs, n_chunks * _CHUNK_BYTES), dtype=np.uint8)
            padded[:, :n_words] = raw
        else:
            padded = raw
        if rem != 4:
            padded[:, n_words - 1] &= (1 << 2 * rem) - 1
        chunks = padded.view(_CHUNK_DTYPE)
        # Remaining displacement at every chunk edge: the target less
        # ``2 * ones - steps`` before it (column 0 is the block start).
        ones_u = np.zeros((pairs, n_chunks + 1), dtype=np.int32)
        ones_v = np.zeros((pairs, n_chunks + 1), dtype=np.int32)
        np.cumsum(np.bitwise_count(chunks & _WALK_MASK_U), axis=1,
                  dtype=np.int32, out=ones_u[:, 1:])
        np.cumsum(np.bitwise_count(chunks & _WALK_MASK_V), axis=1,
                  dtype=np.int32, out=ones_v[:, 1:])
        edge = np.arange(0, (n_chunks + 1) * _CHUNK_STEPS, _CHUNK_STEPS)
        gap_u = (target_u - pos_u)[:, None] + edge
        gap_u -= 2 * ones_u
        gap_v = (target_v - pos_v)[:, None] + edge
        gap_v -= 2 * ones_v
        # A hit ``s`` steps into a chunk of ``L <= 32`` steps lies within
        # ``s`` of its start and ``L - s`` of its end on both axes.  A
        # partial last chunk reads its ``32 - L`` zeroed fields as steps
        # too, which moves its end gap by at most ``32 - L``: the sum
        # still fits the window.  The byte-level test has the same form.
        near = _edge_window(gap_u, _CHUNK_STEPS)
        near &= _edge_window(gap_v, _CHUNK_STEPS)
        cand = np.flatnonzero(near)
        if cand.size:
            _walk_hits(
                cand, chunks, gap_u, gap_v, n_chunks, n_words, rem,
                moves_done, best, best_finder, pair_trial, pair_agent,
            )
        pos_u += 2 * ones_u[:, -1].astype(np.int64) - block
        pos_v += 2 * ones_v[:, -1].astype(np.int64) - block
        moves_done += block
        # Lockstep: any later find is later in time, so finished
        # colonies retire wholesale.
        keep = best[pair_trial] == SENTINEL
        pos_u = pos_u[keep]
        pos_v = pos_v[keep]
        pair_trial = pair_trial[keep]
        pair_agent = pair_agent[keep]
    return best, best_finder, trial_iterations, trial_rounds


def _edge_window(gap, steps: int):
    """Spans whose edge gaps (columns ``j`` and ``j + 1`` of ``gap``)
    leave room to meet the target in ``steps`` steps on this axis."""
    reach = np.abs(gap)
    return reach[:, :-1] + reach[:, 1:] <= steps


def _walk_hits(
    cand, chunks, gap_u, gap_v, n_chunks: int, n_words: int, rem: int,
    moves_done: int, best, best_finder, pair_trial, pair_agent,
):
    """Fold each row's first hit among the candidate chunks ``cand``
    (flat ``(pairs, n_chunks)`` indices, row-major) into the minima."""
    rows = cand // n_chunks
    cols = cand - rows * n_chunks
    picked = chunks.reshape(-1)[cand][:, None]
    # Word-level: remaining displacement at each byte edge — the chunk's
    # ones below edge j are one masked popcount — and the same window
    # at byte scale.  Padding bytes past the block's last word are no
    # words.
    word_u = gap_u[rows, cols][:, None] + _BYTE_STEPS
    word_u -= 2 * np.bitwise_count(picked & _BELOW_U).astype(np.int64)
    word_v = gap_v[rows, cols][:, None] + _BYTE_STEPS
    word_v -= 2 * np.bitwise_count(picked & _BELOW_V).astype(np.int64)
    word = cols[:, None] * _CHUNK_BYTES + np.arange(_CHUNK_BYTES)
    close = _edge_window(word_u, 4)
    close &= _edge_window(word_v, 4)
    close &= word < n_words
    flat = np.flatnonzero(close)
    if not flat.size:
        return
    at = flat // _CHUNK_BYTES          # candidate chunk of each word
    j = flat - at * _CHUNK_BYTES       # byte within it
    byte = picked.view(np.uint8)[at, j][:, None]
    word = word[at, j]
    # Step-level: the first k + 1 fields of the byte, by masked popcount.
    ones_u = np.bitwise_count(byte & _FIELD_MASK_U).astype(np.int16)
    ones_v = np.bitwise_count(byte & _FIELD_MASK_V).astype(np.int16)
    hit_k = 2 * ones_u - _FIELD_STEPS == word_u[at, j][:, None]
    hit_k &= 2 * ones_v - _FIELD_STEPS == word_v[at, j][:, None]
    if rem != 4:
        # Fields past the block end in the final word are undrawn steps.
        hit_k[word == n_words - 1, rem:] = False
    ok = np.flatnonzero(np.sum(hit_k, axis=1))
    if not ok.size:
        return
    hit_rows = rows[at[ok]]
    steps = word[ok] * 4 + np.argmax(hit_k[ok], axis=1)
    if hit_rows.size > 1:
        first = _row_starts(hit_rows)
        hit_rows = hit_rows[first]
        steps = steps[first]
    totals = moves_done + steps + 1
    _score_hits(
        best, best_finder, pair_trial[hit_rows], pair_agent[hit_rows],
        totals, np.full(hit_rows.size, True, dtype=np.bool_),
    )


def _spiral_indices(dx, dy):
    """Vectorized :func:`repro.baselines.spiral.spiral_index` in float64.

    Float avoids int64 overflow for offsets beyond ring ~2^31 (late
    Feinerman stages jump that far); any index too large for exact
    float representation is far beyond every realistic quota/budget, so
    the comparisons downstream stay exact where they matter.
    """
    fx = dx.astype(np.float64)
    fy = dy.astype(np.float64)
    r = np.maximum(np.abs(fx), np.abs(fy))
    base = (2.0 * r - 1.0) ** 2
    index = np.where(
        (fx == r) & (fy > -r),
        base + fy + r - 1.0,
        np.where(
            fy == r,
            base + 2.0 * r + (r - 1.0 - fx),
            np.where(
                fx == -r,
                base + 4.0 * r + (r - 1.0 - fy),
                base + 6.0 * r + (fx + r - 1.0),
            ),
        ),
    )
    return np.where(r == 0, 0.0, index)


def batch_feinerman(
    rng: np.random.Generator,
    n_agents: int,
    n_trials: int,
    target,
    move_budget: int,
    c: float = FEINERMAN_C,
    max_stage: int = DEFAULT_MAX_STAGE,
):
    """All trials of the Feinerman et al. baseline at once.

    Mirrors :meth:`repro.baselines.feinerman.FeinermanSearch.process`:
    per round, each active pair draws its stage's uniform center, and a
    closed-form spiral-index test decides whether the quota-bounded
    spiral around that center visits the target.  (Hits scored while
    merely walking the staircase toward the center are ignored — a
    conservative undercount shared by the faithful accounting in [12].)  Quotas and spiral
    indices are computed in float64 and clipped to ``move_budget + 1``
    before the integer accounting: any clipped value already exceeds
    every eligibility limit, so outcomes are unaffected while late
    stages (whose raw quotas overflow int64) stay representable.
    """
    if target == (0, 0):
        return _origin_batch(n_trials)
    (pair_trial, pair_agent, best, best_finder,
     trial_iterations, trial_rounds) = _batch_state(n_trials, n_agents)
    pairs = n_trials * n_agents
    cumulative = np.zeros(pairs, dtype=np.int64)
    stages = np.full(pairs, 1, dtype=np.int64)

    while pair_trial.size:
        _count_round(trial_iterations, trial_rounds, pair_trial, n_trials)
        radii = 2 ** stages  # max_stage <= 40 keeps this exact in int64
        scale = np.exp2(stages.astype(np.float64))
        quota_f = np.ceil(c * (scale * scale / n_agents + scale))
        quota = np.minimum(quota_f, move_budget + 1).astype(np.int64)
        # One fused draw for both center coordinates per pair.
        centers = rng.integers(-radii, radii + 1, size=(2, pair_trial.size))
        centers_x, centers_y = centers[0], centers[1]
        walk_moves = np.abs(centers_x) + np.abs(centers_y)
        indices_f = _spiral_indices(
            target[0] - centers_x, target[1] - centers_y
        )
        hit = indices_f <= quota_f
        indices = np.minimum(indices_f, move_budget + 1).astype(np.int64)
        totals = cumulative + walk_moves + indices
        eligible = hit & (totals <= move_budget) & (totals < best[pair_trial])
        _score_hits(
            best, best_finder, pair_trial, pair_agent, totals, eligible
        )
        # Single-pass compaction across the hit + budget/best + stage
        # retirement conditions.
        new_cum = cumulative + walk_moves + quota
        new_stages = stages + 1
        keep = (
            ~hit
            & (new_cum < np.minimum(move_budget, best[pair_trial]))
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

    def __init__(self, inner: np.random.Generator) -> None:
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


#: The kernels' namespace handle: its ``name`` (recorded on kernel
#: spans), ``rng(seed_sequence)`` (the ``np.random.Generator`` a batch
#: draws from) and ``to_numpy`` (the identity: kernels return NumPy).
_NUMPY = SimpleNamespace(
    name="numpy", rng=np.random.default_rng, to_numpy=np.asarray
)


def numpy_namespace() -> SimpleNamespace:
    """The (shared, stateless) handle :func:`run_family` takes as ``xp``."""
    return _NUMPY


def run_family(
    xp: SimpleNamespace,
    rng: np.random.Generator,
    request,
    n_trials: int,
) -> Tuple:
    """Dispatch one :class:`~repro.sim.backends.base.SimulationRequest`
    batch to its family kernel.

    Returns the four NumPy arrays.

    When an ambient trace exists the dispatch is wrapped in a
    ``kernel.<family>`` span carrying the kernel's working set —
    family, trials, agents, namespace (``xp.name``), scratch budget,
    and the number of blocked RNG draw calls the kernel issued.
    """
    spec = request.algorithm
    with child_span(
        f"kernel.{spec.name}",
        family=spec.name,
        n_trials=n_trials,
        n_agents=request.n_agents,
        namespace=xp.name,
        move_budget=request.move_budget,
        scratch_bytes=SCRATCH_BYTES,
    ) as sp:
        if sp is None:
            return _dispatch_family(rng, request, n_trials)
        counting = _CountingRNG(rng)
        result = _dispatch_family(counting, request, n_trials)
        sp.set_attribute("rng_draw_calls", counting.draw_calls)
        return result


def _dispatch_family(
    rng: np.random.Generator,
    request,
    n_trials: int,
) -> Tuple:
    spec = request.algorithm
    if spec.name in ("algorithm1", "nonuniform"):
        return batch_lshape(
            rng, stop_probability_for(request), request.n_agents,
            n_trials, request.target, request.move_budget,
        )
    if spec.name == "uniform":
        return batch_uniform(
            rng, request.n_agents, spec.ell or 1, spec.K, n_trials,
            request.target, request.move_budget,
            spec.max_phase or DEFAULT_MAX_PHASE,
        )
    if spec.name == "doubly-uniform":
        return batch_doubly_uniform(
            rng, request.n_agents, spec.ell or 1, spec.K, n_trials,
            request.target, request.move_budget,
        )
    if spec.name == "random-walk":
        return batch_random_walk(
            rng, request.n_agents, n_trials, request.target,
            request.move_budget,
        )
    if spec.name == "feinerman":
        return batch_feinerman(
            rng, request.n_agents, n_trials, request.target,
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
