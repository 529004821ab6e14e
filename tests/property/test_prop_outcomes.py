"""Property-based tests: outcome batches through the wire and the cache frame.

Random batches — found and not-found trials, finds at the origin
(``m_steps`` 0), trials without stats, tracked ``m_steps`` and
reference-style ``per_agent`` records — must round-trip exactly through
the wire v2 codec and the v3 cache frame.  Arbitrary bytes and JSON must
give only typed errors: :class:`~repro.server.wire.WireError` (or the
request's own :class:`~repro.errors.InvalidParameterError`) from the
wire, a miss from the cache.  Example counts are capped so the module
runs in a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.server import wire
from repro.server.wire import WireError
from repro.sim import AlgorithmSpec, SimulationCache, SimulationRequest
from repro.sim import cache as cache_module
from repro.sim.backends.base import SimulationResult
from repro.sim.cache import cache_key
from repro.sim.metrics import AgentOutcome, FastRunStats, OutcomeBatch, SearchOutcome

FAST = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

counts = st.integers(min_value=1, max_value=10**12)
positions = st.integers(min_value=-(10**9), max_value=10**9)


@st.composite
def agent_records(draw, n_agents):
    agents = []
    for agent_id in range(n_agents):
        found = draw(st.booleans())
        agents.append(AgentOutcome(
            agent_id=agent_id,
            found=found,
            moves_at_find=draw(counts) if found else None,
            steps_at_find=draw(st.one_of(st.none(), counts)) if found else None,
            total_moves=draw(st.integers(min_value=0, max_value=10**12)),
            total_steps=draw(st.integers(min_value=0, max_value=10**12)),
            final_position=(draw(positions), draw(positions)),
        ))
    return agents


@st.composite
def records(draw, n_agents, move_budget, tracks_steps, with_agents):
    kind = draw(st.sampled_from(["found", "missed", "origin"]))
    stats = draw(st.one_of(
        st.none(),
        st.builds(FastRunStats, st.integers(0, 10**9), st.integers(0, 10**9)),
    ))
    if kind == "origin":
        moves, steps, finder = 0, 0, 0
    elif kind == "found":
        moves = draw(counts)
        steps = draw(counts) if tracks_steps else None
        finder = draw(st.integers(min_value=0, max_value=n_agents - 1))
    else:
        moves, steps, finder = None, None, None
    return SearchOutcome(
        found=moves is not None,
        m_moves=moves,
        m_steps=steps,
        finder=finder,
        n_agents=n_agents,
        move_budget=move_budget,
        per_agent=draw(agent_records(n_agents)) if with_agents else [],
        stats=stats,
    )


@st.composite
def outcome_lists(draw):
    n_agents = draw(st.integers(min_value=1, max_value=4))
    move_budget = draw(st.one_of(st.none(), counts))
    tracks_steps = draw(st.booleans())
    with_agents = draw(st.booleans())
    return draw(st.lists(
        records(n_agents, move_budget, tracks_steps, with_agents),
        min_size=1, max_size=6,
    ))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)


class TestRoundTrips:
    @given(outcome_lists())
    @FAST
    def test_wire_round_trip_is_exact(self, outcomes):
        batch = OutcomeBatch.from_outcomes(outcomes)
        decoded = wire.outcomes_from_wire(
            json.loads(json.dumps(wire.outcomes_to_wire(batch)))
        )
        assert decoded == batch
        assert decoded == tuple(outcomes)

    @given(outcome_lists(), st.one_of(st.none(), st.tuples(st.integers(0, 99), st.integers(1, 6))))
    @FAST
    def test_cache_frame_round_trip_is_exact(self, outcomes, shard):
        batch = OutcomeBatch.from_outcomes(outcomes)
        meta = {"format": 3, "backend": "batched", "shard": None if shard is None else list(shard)}
        header, decoded = cache_module._decode_entry(
            cache_module._encode_entry(meta, batch)
        )
        assert decoded == batch
        assert list(decoded) == outcomes
        assert header["shard"] == meta["shard"]


class TestTypedErrors:
    @given(json_values)
    @FAST
    def test_arbitrary_json_outcomes_raise_only_wire_errors(self, payload):
        try:
            wire.outcomes_from_wire(payload)
        except WireError:
            pass

    @given(st.sampled_from(["n_trials", "n_agents", "move_budget", "columns"]), json_values)
    @FAST
    def test_mangled_result_fields_raise_only_typed_errors(self, field, value):
        request = SimulationRequest(
            algorithm=AlgorithmSpec.algorithm1(8), n_agents=2, target=(3, 3),
            move_budget=1000, n_trials=2,
        )
        batch = OutcomeBatch.from_outcomes(
            [SearchOutcome(True, 7, None, 1, 2, 1000, stats=FastRunStats(3, 2))] * 2
        )
        payload = json.loads(json.dumps(wire.result_to_wire(
            SimulationResult(request=request, backend="batched", outcomes=batch)
        )))
        payload["outcomes"][field] = value
        try:
            wire.result_from_wire(payload)
        except ReproError:
            pass

    @given(st.binary(max_size=400))
    @FAST
    def test_arbitrary_bytes_are_never_a_valid_frame(self, data):
        assert cache_module._decode_entry(data) is None

    @given(json_values)
    @FAST
    def test_random_frame_headers_never_raise(self, header):
        batch = OutcomeBatch.from_outcomes(
            [SearchOutcome(False, None, None, None, 2, 1000)] * 3
        )
        data = cache_module._encode_entry({}, batch)
        columns = data[data.index(b"\n", data.index(b"\n") + 1) + 1:]
        frame = json.dumps(header).encode("utf-8") + b"\n" + columns
        digest = hashlib.sha256(frame).hexdigest().encode("ascii")
        assert cache_module._decode_entry(
            cache_module._MAGIC + digest + b"\n" + frame
        ) is None

    @given(st.binary(max_size=400))
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_digest_valid_garbage_is_a_quarantined_miss(self, frame):
        request = SimulationRequest(
            algorithm=AlgorithmSpec.algorithm1(8), n_agents=2, target=(3, 3),
            move_budget=1000, n_trials=2,
        )
        digest = hashlib.sha256(frame).hexdigest().encode("ascii")
        with tempfile.TemporaryDirectory() as directory:
            cache = SimulationCache(directory=Path(directory))
            path = cache._path_for(cache_key(request, "batched"))
            path.write_bytes(cache_module._MAGIC + digest + b"\n" + frame)
            assert cache.lookup(request, "batched") is None
            assert cache.info().quarantined == 1
