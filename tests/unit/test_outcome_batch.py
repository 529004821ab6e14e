"""The columnar outcome representation, from the kernels to the wire.

Pins what :class:`~repro.sim.metrics.OutcomeBatch` promises:

* it behaves like the tuple of :class:`SearchOutcome` records it
  replaced — ``len``, indexing, slicing, iteration, ``==`` and
  pickling — and its pickle holds the columns only;
* every backend's ``batch[i]`` equals the record the per-trial code
  builds for that trial (the kernels' through an in-file copy of the
  record assembly the kernel backends used before the batch existed);
* an n=4000 ``simulate()`` builds no per-trial record at all;
* the column decoders (wire v2, cache frame v3) fail only with typed
  errors: :class:`~repro.server.wire.WireError` on the wire, a
  quarantined miss in the cache.
"""

from __future__ import annotations

import base64
import json
import pickle

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.server import wire
from repro.server.wire import WireError
from repro.sim import AlgorithmSpec, SimulationCache, SimulationRequest, simulate
from repro.sim import cache as cache_module
from repro.sim.backends.registry import get_backend
from repro.sim.cache import cache_key
from repro.sim.jobs import ShardResult
from repro.sim.kernels import SENTINEL, numpy_namespace, run_family
from repro.sim.metrics import (
    ABSENT,
    AgentOutcome,
    FastRunStats,
    OutcomeBatch,
    SearchOutcome,
)


def _request(**overrides) -> SimulationRequest:
    fields = dict(
        algorithm=AlgorithmSpec.algorithm1(8),
        n_agents=3,
        target=(5, 3),
        move_budget=100_000,
        n_trials=12,
        seed=4242,
    )
    fields.update(overrides)
    return SimulationRequest(**fields)


def _records():
    return [
        SearchOutcome(True, 17, None, 2, 3, 500, stats=FastRunStats(9, 4)),
        SearchOutcome(False, None, None, None, 3, 500, stats=FastRunStats(30, 12)),
        SearchOutcome(True, 0, 0, 0, 3, 500, stats=FastRunStats(0, 0)),
        SearchOutcome(True, 0, 0, 0, 3, 500),
    ]


class TestTupleProtocol:
    def test_len_index_iteration_and_equality(self):
        records = _records()
        batch = OutcomeBatch.from_outcomes(records)
        assert len(batch) == 4
        assert list(batch) == records
        assert [batch[i] for i in range(4)] == records
        assert batch[-1] == records[-1]
        assert batch == tuple(records) and tuple(records) == batch
        assert batch != tuple(records[:3])
        assert batch != records  # a list is not a tuple, as before
        with pytest.raises(IndexError):
            batch[4]

    def test_slices_are_batches(self):
        batch = OutcomeBatch.from_outcomes(_records())
        assert isinstance(batch[1:3], OutcomeBatch)
        assert batch[1:3] == tuple(_records()[1:3])
        assert OutcomeBatch.concat([batch[:1], batch[1:]]) == batch

    def test_pickle_holds_the_columns_only(self):
        batch = OutcomeBatch.from_outcomes(_records())
        before = pickle.dumps(batch)
        list(batch)  # building views must leave no trace in the state
        assert pickle.dumps(batch) == before
        assert pickle.loads(before) == batch
        assert pickle.dumps(pickle.loads(before)) == before

    def test_columns_are_read_only_and_never_alias_the_input(self):
        moves = np.array([3, -1], dtype=np.int64)
        batch = OutcomeBatch(2, 10, moves, [0, -1], [1, 2], [1, 1])
        moves[0] = 99
        assert batch[0].m_moves == 3
        with pytest.raises(ValueError):
            batch.m_moves[0] = 5

    def test_m_steps_column_only_where_it_says_more(self):
        batch = OutcomeBatch.from_outcomes(_records())
        assert batch.m_steps is None  # origin finds derive m_steps = 0
        tracked = OutcomeBatch.from_outcomes(
            [SearchOutcome(True, 5, 40, 0, 1, None)]
        )
        assert tracked.m_steps is not None and tracked[0].m_steps == 40

    def test_per_agent_records_round_trip(self):
        agents = [
            AgentOutcome(0, False, None, None, 99, 150, (3, -4)),
            AgentOutcome(1, True, 12, 30, 12, 30, (5, 5)),
        ]
        outcome = SearchOutcome(True, 12, 30, 1, 2, 100, per_agent=agents)
        batch = OutcomeBatch.from_outcomes([outcome, outcome])
        assert batch.per_agent.shape == (2, 2, 8)
        assert batch[1].per_agent == agents
        assert batch == (outcome, outcome)

    def test_moves_or_budget_and_found(self):
        batch = OutcomeBatch.from_outcomes(_records())
        assert batch.moves_or_budget().tolist() == [17, 500, 0, 0]
        assert batch.found.tolist() == [True, False, True, True]
        unbudgeted = OutcomeBatch(1, None, [ABSENT], [ABSENT], [1], [1])
        with pytest.raises(InvalidParameterError):
            unbudgeted.moves_or_budget()

    @pytest.mark.parametrize(
        "columns",
        [
            dict(m_moves=[-2], finder=[0], iterations=[1], rounds=[1]),
            dict(m_moves=[1], finder=[5], iterations=[1], rounds=[1]),
            dict(m_moves=[1], finder=[0], iterations=[-1], rounds=[1]),
            dict(m_moves=[1], finder=[0], iterations=[1], rounds=[1, 2]),
            dict(m_moves=[1.5], finder=[0], iterations=[1], rounds=[1]),
        ],
    )
    def test_invalid_columns_are_rejected(self, columns):
        with pytest.raises(InvalidParameterError):
            OutcomeBatch(2, 10, **columns)

    def test_mixed_shapes_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            OutcomeBatch.from_outcomes([])
        with pytest.raises(InvalidParameterError):
            OutcomeBatch.from_outcomes(
                [SearchOutcome(False, None, None, None, 2, 10),
                 SearchOutcome(False, None, None, None, 3, 10)]
            )


def _legacy_kernel_records(request: SimulationRequest):
    """The per-trial records the kernel backends assembled before the
    batch existed: one :class:`SearchOutcome` per trial from the
    kernel's four arrays."""
    xp = numpy_namespace()
    best, finder, iters, rounds = (
        xp.to_numpy(array)
        for array in run_family(xp, xp.rng(request.trial_seed(0)), request, request.n_trials)
    )
    records = []
    for i in range(request.n_trials):
        stats = FastRunStats(int(iters[i]), int(rounds[i]))
        if int(best[i]) == SENTINEL:
            records.append(SearchOutcome(
                found=False, m_moves=None, m_steps=None, finder=None,
                n_agents=request.n_agents, move_budget=request.move_budget, stats=stats,
            ))
        else:
            records.append(SearchOutcome(
                found=True, m_moves=int(best[i]),
                m_steps=0 if int(best[i]) == 0 else None, finder=int(finder[i]),
                n_agents=request.n_agents, move_budget=request.move_budget, stats=stats,
            ))
    return records


class TestBackendsMatchPerTrialRecords:
    @pytest.mark.parametrize(
        "spec,target,budget",
        [
            (AlgorithmSpec.algorithm1(8), (5, 3), 100_000),
            (AlgorithmSpec.nonuniform(8, 2), (0, 0), 100_000),
            (AlgorithmSpec.uniform(1), (6, -2), 3_000),
            (AlgorithmSpec.doubly_uniform(1), (-4, 4), 3_000),
            (AlgorithmSpec.random_walk(), (2, 1), 400),
            (AlgorithmSpec.feinerman(), (5, 5), 100_000),
        ],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_batched_matches_the_legacy_record_assembly(self, spec, target, budget):
        request = _request(algorithm=spec, target=target, move_budget=budget)
        batch = get_backend("batched").run(request)
        legacy = _legacy_kernel_records(request)
        assert [batch[i] for i in range(len(batch))] == legacy
        assert batch == tuple(legacy)

    def test_reference_matches_its_engine_records(self):
        from repro.grid.world import GridWorld
        from repro.sim.engine import EngineConfig, SearchEngine

        request = _request(n_trials=3, move_budget=20_000)
        batch = get_backend("reference").run(request, trial_indices=[0, 2])
        engine = SearchEngine(EngineConfig(move_budget=request.move_budget))
        expected = [
            engine.run(
                request.algorithm.build(request.n_agents), request.n_agents,
                GridWorld(target=request.target,
                          distance_bound=request.effective_distance_bound),
                rng=request.trial_seed(t),
            )
            for t in (0, 2)
        ]
        assert batch == tuple(expected)
        assert all(len(outcome.per_agent) == 3 for outcome in batch)


class TestNoPerTrialRecords:
    def test_large_simulate_builds_no_search_outcome(self, tmp_path, monkeypatch):
        built = []
        original = SearchOutcome.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(SearchOutcome, "__post_init__", counting)
        cache_module.configure_cache(directory=tmp_path)
        try:
            request = SimulationRequest(
                algorithm=AlgorithmSpec.algorithm1(32), n_agents=8,
                target=(24, 17), move_budget=100_000, n_trials=4000, seed=99,
            )
            cold = simulate(request)
            cache_module.configure_cache(directory=tmp_path)  # drop the memory layer
            replay = simulate(request)
            assert replay == cold
            cold.find_rate, cold.moves_or_budget()
            assert built == []
            cold.outcome  # a view is built on demand, and counted
            assert built == [1]
        finally:
            cache_module.configure_cache(directory=cache_module.default_cache_dir())


def _wire_outcomes(batch: OutcomeBatch) -> dict:
    return json.loads(json.dumps(wire.outcomes_to_wire(batch)))


class TestWireDecoderErrors:
    def _payload(self) -> dict:
        return _wire_outcomes(OutcomeBatch.from_outcomes(_records()))

    def test_bad_base64(self):
        payload = self._payload()
        payload["columns"]["finder"]["data"] = "!!not base64!!"
        with pytest.raises(WireError, match="base64"):
            wire.outcomes_from_wire(payload)

    def test_wrong_dtype_tag(self):
        payload = self._payload()
        payload["columns"]["rounds"]["dtype"] = "<i4"
        with pytest.raises(WireError, match="dtype"):
            wire.outcomes_from_wire(payload)

    def test_column_length_not_n_trials(self):
        payload = self._payload()
        payload["n_trials"] = 5
        with pytest.raises(WireError, match="expected 5"):
            wire.outcomes_from_wire(payload)

    def test_missing_column(self):
        payload = self._payload()
        del payload["columns"]["iterations"]
        with pytest.raises(WireError, match="missing"):
            wire.outcomes_from_wire(payload)

    def test_version_one_result_rejected(self):
        result = simulate(_request(n_trials=2), cache=False)
        payload = json.loads(json.dumps(wire.result_to_wire(result)))
        payload["wire"] = 1
        with pytest.raises(WireError, match="wire version"):
            wire.result_from_wire(payload)
        shard = wire.shard_to_wire(ShardResult(0, 0, 2, result.outcomes, False))
        shard["wire"] = 1
        with pytest.raises(WireError, match="wire version"):
            wire.shard_from_wire(shard)

    def test_body_is_columnar(self):
        result = simulate(_request(n_trials=2), cache=False)
        encoded = wire.result_to_wire(result)["outcomes"]["columns"]
        raw = base64.b64decode(encoded["m_moves"]["data"])
        assert np.frombuffer(raw, dtype="<i8").tolist() == result.outcomes.m_moves.tolist()


class TestCacheFrameErrors:
    def _stored(self, tmp_path):
        request = _request()
        outcomes = simulate(request, cache=False).outcomes
        cache = SimulationCache(directory=tmp_path)
        cache.store(request, "batched", outcomes)
        return request, cache._path_for(cache_key(request, "batched"))

    def _rewrite(self, path, frame: bytes) -> None:
        """Write ``frame`` behind a *valid* checksum line."""
        import hashlib

        digest = hashlib.sha256(frame).hexdigest().encode("ascii")
        path.write_bytes(cache_module._MAGIC + digest + b"\n" + frame)

    def _frame(self, path) -> bytes:
        data = path.read_bytes()
        return data[data.index(b"\n") + 1:]

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda frame: b"{not json\n" + frame.split(b"\n", 1)[1],
            lambda frame: frame[:-8],  # a column one value short
            lambda frame: frame + b"\0" * 8,  # trailing bytes
            lambda frame: frame.replace(b'"<i8"', b'"<f8"', 1),
            lambda frame: frame.replace(b'"n_trials":12', b'"n_trials":11', 1),
            lambda frame: frame.replace(b'["m_moves","<i8",12]', b'["m_moves","<i8",11]', 1),
            lambda frame: b"[]\n" + frame.split(b"\n", 1)[1],
        ],
        ids=["bad-json", "short", "trailing", "dtype", "n_trials", "count", "not-object"],
    )
    def test_digest_valid_malformed_frame_is_quarantined(self, tmp_path, mangle):
        request, path = self._stored(tmp_path)
        self._rewrite(path, mangle(self._frame(path)))
        reader = SimulationCache(directory=tmp_path)
        assert reader.lookup(request, "batched") is None
        assert reader.info().quarantined == 1
        assert (tmp_path / "quarantine" / path.name).is_file()

    def test_older_format_entries_are_stale_not_quarantined(self, tmp_path):
        """A v2 entry sits under its own key: never read, and an
        integrity scan vouches for its checksum without reading it."""
        import hashlib

        request, path = self._stored(tmp_path)
        body = b"an older frame format"
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        old = tmp_path / ("0" * 64 + ".pkl")
        old.write_bytes(b"repro-ants-cache v2 sha256=" + digest + b"\n" + body)
        reader = SimulationCache(directory=tmp_path)
        assert reader.lookup(request, "batched") is not None
        report = reader.verify(repair=True)
        assert report.ok == 2 and report.quarantined == 0
        assert old.is_file()
