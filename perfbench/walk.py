"""The traced run: an outside-in walk over each layer's public functions.

Nothing inside the program is instrumented.  For every walked request the
walk first times the operation as the workload issues it (the traced
end-to-end time), then calls each layer's public entry point on the same
request, in pipeline order, and times that call:

=====================  ==================================================
``selector.plan_ms``   ``plan_request`` (static plan: no profile exists)
``kernels.self_ms``    ``run_family`` with a counting proxy RNG
``backends.*``         ``backend.run`` minus the kernel (``assembly_ms``);
                       the whole call for 1-trial closed-form requests
``jobs.self_ms``       ``simulate(cache=False)`` minus ``backend.run``
``cache.*``            ``SimulationCache`` lookup (miss), store, and a
                       lookup through a fresh instance (disk read)
``wire.*``             ``result_to_wire`` + ``json.dumps``, ``json.loads``
                       + ``result_from_wire``, and the request round trip
``cache.memory_ms``    remote replays: the in-process cache's memory hit
``server.residual_ms`` remote latency minus the same request's in-process
                       ``simulate()`` minus the wire codec
``compiler.*``         report: ``compile_program``, then ``execute_program``
                       split by its own report into fused simulation
                       (``warm_ms``) and finalization (``finalize_ms``)
=====================  ==================================================

The layers on an operation's path partition its traced end-to-end time;
what they leave is ``unattributed_ms``, so layers plus unattributed equal
the traced time by construction, per size class.  ``trace.overhead_ratio``
is the traced end-to-end time over the untraced time of the same
operations, measured first in the same process (base: untraced; for the
report, the in-process compiled report).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

import ops as opgen
import workloads
from measure import Tally, clock, dir_bytes, outcome_errors, timed

# Rounds of the workload's operation list that the walk covers.
WALK_ROUNDS = {"local": 3, "remote": 2}
OBS_PAIRS = 40
# The layers on each operation's path, in pipeline order.
_COLD = ("kernels.self_ms", "backends.assembly_ms", "backends.closed_form_ms",
         "jobs.self_ms", "cache.lookup_ms", "cache.store_ms")
_WIRE = ("wire.request_ms", "wire.encode_ms", "wire.decode_ms", "server.residual_ms")
PATH = {
    "local": {"small": _COLD, "large": _COLD, "replay": ("cache.read_ms",)},
    "remote": {"small": _COLD + _WIRE, "large": _COLD + _WIRE,
               "replay": ("cache.memory_ms",) + _WIRE},
    "report": {"report": ("compiler.compile_ms", "compiler.warm_ms", "compiler.finalize_ms")},
}
# Walked per request but on no operation's path: sizes, and the plan that
# simulate() without a plan never makes.
_OFF_PATH = ("cache.entry_kb", "wire.body_kb", "selector.plan_ms")


class CountingRNG:
    """Forwards to a kernel RNG and counts draw calls."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.draws = 0

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.draws += 1
            return attr(*args, **kwargs)

        return counted


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def walk_request(request, directory) -> Tuple[Dict[str, float], List[str]]:
    """Each layer's public call on one request: (times and sizes, failed checks)."""
    from repro.sim import SimulationCache, plan_request, resolve_backend, simulate
    from repro.sim.kernels import numpy_namespace, run_family

    layers: Dict[str, float] = {}
    errors: List[str] = []
    _, layers["selector.plan_ms"] = timed(plan_request, request, workers=1)
    backend = resolve_backend(request)
    outcomes, backend_ms = timed(backend.run, request)
    if backend.name == "batched":
        xp = numpy_namespace()
        rng = CountingRNG(xp.rng(request.trial_seed(0)))
        _, layers["kernels.self_ms"] = timed(
            lambda: [xp.to_numpy(array) for array in run_family(xp, rng, request, request.n_trials)]
        )
        layers["backends.assembly_ms"] = backend_ms - layers["kernels.self_ms"]
        layers["kernels.rng_draws"] = rng.draws
        layers["kernels.moves"] = float(sum(outcome.moves_or_budget for outcome in outcomes))
    else:
        layers["backends.closed_form_ms"] = backend_ms
    result, nocache_ms = timed(simulate, request, cache=False)
    layers["jobs.self_ms"] = nocache_ms - backend_ms
    if result.outcomes != outcomes:
        errors.append("backend.run and simulate() disagree")
    error = outcome_errors(result, request)
    if error:
        errors.append(error)

    cache = SimulationCache(directory=directory)
    name = backend.cache_name()
    missing, layers["cache.lookup_ms"] = timed(cache.lookup, request, name)
    before = dir_bytes(directory)
    _, layers["cache.store_ms"] = timed(cache.store, request, name, outcomes)
    layers["cache.entry_kb"] = (dir_bytes(directory) - before) / 1024
    read, layers["cache.read_ms"] = timed(SimulationCache(directory=directory).lookup, request, name)
    if missing is not None or read != outcomes:
        errors.append("cache lookup/store/read round trip failed")

    errors += wire_times(result, layers)
    return layers, errors


def wire_times(result, layers: Dict[str, float]) -> List[str]:
    """Time the wire codec on ``result`` and its request; failed checks."""
    from repro.server.wire import request_from_wire, request_to_wire, result_from_wire, result_to_wire

    body, layers["wire.encode_ms"] = timed(lambda: json.dumps(result_to_wire(result)))
    decoded, layers["wire.decode_ms"] = timed(lambda: result_from_wire(json.loads(body)))
    layers["wire.body_kb"] = len(body) / 1024
    echoed, layers["wire.request_ms"] = timed(
        lambda: request_from_wire(json.loads(json.dumps(request_to_wire(result.request))))
    )
    if decoded != result or echoed != result.request:
        return ["wire round trip changed the value"]
    return []


def obs_overhead(templates, seed: int) -> Tuple[float, float, float]:
    """(default / tracing-off latency ratio, sink KB per request, off median ms).

    Interleaved pairs of small cold requests, each call with a fresh seed
    so both sides miss the cache; the order inside a pair alternates.
    """
    from repro.obs.trace import configure_tracing, trace_dir, tracing_enabled
    from repro.sim import simulate

    rng = np.random.default_rng([seed, 5])
    shipped = tracing_enabled()
    on, off, sink = [], [], 0
    for index in range(OBS_PAIRS):
        template = templates[index % len(templates)]
        for enabled in ((True, False) if index % 2 == 0 else (False, True)):
            request = replace(template, seed=int(rng.integers(2**31)))
            configure_tracing(enabled=enabled)
            before = dir_bytes(trace_dir())
            _, ms = timed(simulate, request)
            configure_tracing(enabled=shipped)
            (on if enabled else off).append(ms)
            if enabled:
                sink += dir_bytes(trace_dir()) - before
    base = statistics.median(off)
    return statistics.median(on) / base, sink / OBS_PAIRS / 1024, base


def summarize(walked: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer values: medians per request of the layers that ran, plus
    the kernel rate and the total draw count."""
    summary = {}
    names = [name for groups in PATH.values() for path in groups.values() for name in path]
    for name in dict.fromkeys(names + list(_OFF_PATH)):
        values = [layers[name] for layers in walked if name in layers]
        if values:
            summary[name] = statistics.median(values)
    kernel_s = sum(layers.get("kernels.self_ms", 0.0) for layers in walked) / 1e3
    summary["kernels.moves_per_s"] = sum(layers.get("kernels.moves", 0.0) for layers in walked) / kernel_s
    summary["kernels.rng_draws"] = float(sum(layers.get("kernels.rng_draws", 0) for layers in walked))
    return summary


def account(rows: List[Tuple[str, float, Dict[str, float]]], path: Dict[str, Tuple[str, ...]]):
    """Split each group's traced time into the layers on its path.

    ``rows`` holds (group, traced end-to-end ms, layer times) per
    operation; a group is a size class, with 1-trial requests apart
    because they take the closed-form path instead of the kernels.
    Medians, not means, so that one garbage-collector pause does not land
    on whichever layer happened to run it; the unattributed part is the
    median traced time minus the layers' medians, so the parts add up to
    the traced time exactly.  Returns (table lines, median unattributed ms
    per operation).
    """
    by_group = defaultdict(list)
    per_op = []
    for group, e2e, layers in rows:
        on_path = [name for name in path[group.split()[0]] if name in layers]
        by_group[group].append((e2e, layers, on_path))
        per_op.append(e2e - sum(layers[name] for name in on_path))
    lines = []
    for group, items in by_group.items():
        e2e = median([e for e, _, _ in items])
        parts = {name: median([layers[name] for _, layers, _ in items]) for name in items[0][2]}
        rest = e2e - sum(parts.values())
        lines.append(f"{group:<11} traced {e2e:.3f} ms = "
                     + " + ".join(f"{name} {ms:.3f}" for name, ms in parts.items())
                     + f" + unattributed {rest:.3f} (n={len(items)})")
    return lines, median(per_op)


def group_of(op) -> str:
    return f"small n={op.request.n_trials}" if op.kind == "small" else op.kind


# -- local ------------------------------------------------------------------


def traced_local(ctx, tally: Tally):
    from repro.sim import SimulationCache, backend_run_count, configure_cache, get_cache, resolve_backend, simulate

    untraced = workloads.run_local(ctx, tally)
    cold, replays = opgen.local_ops(ctx.seed, workloads.local_rounds(ctx))
    walked_cold = [(i, op) for i, op in enumerate(cold) if op.round < WALK_ROUNDS["local"]]
    walked_replays = [(len(cold) + i, op) for i, op in enumerate(replays)
                      if op.round < WALK_ROUNDS["local"]]
    configure_cache(directory=ctx.work / "traced-cache")
    walk_dir = ctx.work / "walk-cache"
    rows, walked_layers = [], []
    traced_ms = untraced_ms = 0.0
    backend_runs = hits = lookups = 0
    for walked in (walked_cold, walked_replays):
        if walked is walked_replays:
            info = get_cache().info()
            hits, lookups = info.hits_memory + info.hits_disk, info.hits_memory + info.hits_disk + info.misses
            workloads.drop_memory_cache()
        for index, op in walked:
            op_id = tally.op()
            before = backend_run_count()
            result, e2e = timed(simulate, op.request)
            backend_runs += backend_run_count() - before
            if op.kind == "replay":
                name = resolve_backend(op.request).cache_name()
                _, read_ms = timed(SimulationCache(directory=walk_dir).lookup, op.request, name)
                layers = {"cache.read_ms": read_ms}
            else:
                layers, errors = walk_request(op.request, walk_dir)
                for error in errors:
                    tally.fail(op_id, error)
                walked_layers.append(layers)
            rows.append((group_of(op), e2e, layers))
            error = outcome_errors(result, op.request)
            if error:
                tally.fail(op_id, error)
            traced_ms += e2e
            untraced_ms += untraced.op_ms[index]
    info = get_cache().info()
    hits += info.hits_memory + info.hits_disk
    lookups += info.hits_memory + info.hits_disk + info.misses
    lines, unattributed = account(rows, PATH["local"])
    templates = [op.request for _, op in walked_cold if op.kind == "small"]
    metrics = summarize(walked_layers)
    metrics["jobs.backend_runs"] = float(backend_runs)
    metrics["cache.hit_ratio"] = hits / lookups
    table = {"jobs.backend_runs": f"over {len(rows)} traced requests ({len(walked_cold)} cold)",
             "cache.hit_ratio": f"{hits} hits of {lookups} lookups (CacheInfo)"}
    _finish(ctx, metrics, table, templates, lines, unattributed, traced_ms, untraced_ms, len(rows))
    return metrics, table


def _finish(ctx, metrics, table, templates, lines, unattributed, traced_ms, untraced_ms, count,
            base_name="untraced run") -> None:
    """The obs measurement and the accounting diagnostics every workload reports."""
    ratio, sink_kb, base = obs_overhead(templates, ctx.seed)
    metrics.update({
        "obs.overhead_ratio": ratio,
        "obs.sink_kb": sink_kb,
        "unattributed_ms": unattributed,
        "trace.overhead_ratio": traced_ms / untraced_ms,
    })
    table.update({
        "obs.overhead_ratio": f"base: tracing off, median {base:.3f} ms, {OBS_PAIRS} pairs",
        "trace.overhead_ratio": f"base: {base_name}, {untraced_ms:.1f} ms for the same {count} operations",
        "unattributed_ms": "median per operation; by class:\n      " + "\n      ".join(lines),
    })


# -- remote -----------------------------------------------------------------


def traced_remote(ctx, tally: Tally):
    from repro.server import RemoteClient
    from repro.sim import backend_run_count, configure_cache, get_cache, resolve_backend, simulate

    untraced = workloads.run_remote(ctx, tally)
    ops = opgen.remote_ops(ctx.seed, workloads.remote_rounds(ctx))
    walked = [(i, op) for i, op in enumerate(ops) if op.round < WALK_ROUNDS["remote"]]
    configure_cache(directory=ctx.work / "traced-cache")
    walk_dir = ctx.work / "walk-cache"
    server, _ = workloads.start_server(ctx, tally, "traced-server", workloads.SETUP_SPAWNS["remote"])
    rows, walked_layers = [], []
    traced_ms = untraced_ms = 0.0
    backend_runs = 0
    try:
        client = RemoteClient(server.url)
        for index, op in walked:
            op_id = tally.op()
            result, e2e = timed(client.simulate, op.request)
            # The same request in-process, with the same cache state the
            # server had: a cold miss, or a memory hit for a replay.
            before = backend_run_count()
            mirror, local_ms = timed(simulate, op.request)
            backend_runs += backend_run_count() - before
            if mirror != result:
                tally.fail(op_id, "remote result differs from in-process simulate()")
            if op.kind == "replay":
                layers = {}
                name = resolve_backend(op.request).cache_name()
                _, layers["cache.memory_ms"] = timed(get_cache().lookup, op.request, name)
                errors = wire_times(result, layers)
            else:
                layers, errors = walk_request(op.request, walk_dir)
                walked_layers.append(layers)
            for error in errors:
                tally.fail(op_id, error)
            wire_ms = layers["wire.request_ms"] + layers["wire.encode_ms"] + layers["wire.decode_ms"]
            layers["server.residual_ms"] = e2e - local_ms - wire_ms
            rows.append((group_of(op), e2e, layers))
            traced_ms += e2e
            untraced_ms += untraced.op_ms[index]
        stats = client.stats()
        retries = client.retries_429 + client.retries_connect + client.retries_stream
    finally:
        server.close()
    lines, unattributed = account(rows, PATH["remote"])
    metrics = summarize(walked_layers)
    residual = [layers["server.residual_ms"] for _, _, layers in rows]
    cache = stats["cache"]
    hits = cache["hits_memory"] + cache["hits_disk"]
    metrics.update({
        "jobs.backend_runs": float(backend_runs),
        "cache.hit_ratio": hits / (hits + cache["misses"]),
        "server.residual_ms": median(residual),
        "client.retries": float(retries),
        "server.rejected_429": float(stats["rejected_429"]),
    })
    table = {"jobs.backend_runs": f"in-process mirror of {len(rows)} traced requests",
             "cache.hit_ratio": f"{hits} hits of {hits + cache['misses']} lookups (server /v1/stats)",
             "server.residual_ms": "remote latency - in-process simulate() - wire codec, median"}
    templates = [op.request for _, op in walked if op.kind == "small"]
    _finish(ctx, metrics, table, templates, lines, unattributed, traced_ms, untraced_ms, len(rows))
    return metrics, table


# -- report -----------------------------------------------------------------


def traced_report(ctx, tally: Tally):
    """The compiled report in-process, untraced then walked, each on a fresh cache.

    The untraced base is ``generate_report(compiled=True, workers=1)``,
    the function ``repro-ants report`` calls, run once before and once
    after the traced report.  The traced run makes the
    same two calls it makes, ``compile_program`` and then
    ``execute_program``; the latter's fused simulation and finalization
    times come from its own ``ProgramReport``.  Each experiment's public
    ``run()`` is timed afterwards on the warmed cache, as detail outside
    the traced total, and the request pipeline is walked over the
    report's own simulation requests.
    """
    from repro.experiments import REGISTRY, SPEC_REGISTRY
    from repro.experiments.__main__ import generate_report
    from repro.experiments.base import DEFAULT_SEED
    from repro.experiments.compiler import compile_program, execute_program
    from repro.sim import backend_run_count, configure_cache, get_cache

    committed = (ctx.root / "EXPERIMENTS.md").read_text(encoding="utf-8")

    def untraced(name: str) -> float:
        op_id = tally.op()
        configure_cache(directory=ctx.work / name)
        (text, failures), ms = timed(generate_report, "smoke", DEFAULT_SEED,
                                     compiled=True, workers=1, echo=lambda line: None)
        if failures or text != committed:
            tally.fail(op_id, f"report: {failures} failed checks or differs from EXPERIMENTS.md")
        return ms

    untraced_before = untraced("untraced-cache-before")
    configure_cache(directory=ctx.work / "traced-cache")
    runs_before = backend_run_count()
    start = clock()
    specs = [SPEC_REGISTRY[key]("smoke") for key in sorted(SPEC_REGISTRY)]
    program, compile_ms = timed(compile_program, specs, "smoke", DEFAULT_SEED)
    executed = execute_program(program, workers=1)
    traced_ms = (clock() - start) * 1e3
    layers = {"compiler.compile_ms": compile_ms,
              "compiler.warm_ms": executed.warm_seconds * 1e3,
              "compiler.finalize_ms": executed.finalize_seconds * 1e3}
    metrics: Dict[str, float] = dict(layers)
    metrics["compiler.points_to_run"] = float(len(program.points_to_run()))
    metrics["jobs.backend_runs"] = float(backend_run_count() - runs_before)
    info = get_cache().info()
    hits = info.hits_memory + info.hits_disk
    metrics["cache.hit_ratio"] = hits / (hits + info.misses)
    # The base brackets the traced report, so that neither first-run
    # costs nor a steady drift of the host land on one side.
    untraced_ms = (untraced_before + untraced("untraced-cache-after")) / 2
    configure_cache(directory=ctx.work / "traced-cache")
    for key in sorted(REGISTRY):
        op_id = tally.op()
        result = executed.results[key]
        if not result.all_passed or result.to_markdown() not in committed:
            tally.fail(op_id, f"{key}: failed checks or differs from EXPERIMENTS.md")
        _, ms = timed(REGISTRY[key], scale="smoke", seed=DEFAULT_SEED)
        metrics[f"experiments.{key}_s"] = ms / 1e3

    # The request pipeline under the report: its own simulation requests.
    walked_layers = []
    for point in program.points:
        op_id = tally.op()
        walked, errors = walk_request(point.request, ctx.work / "walk-cache")
        walked_layers.append(walked)
        for error in errors:
            tally.fail(op_id, error)
    metrics.update(summarize(walked_layers))
    lines, unattributed = account([("report", traced_ms, layers)], PATH["report"])
    table = {"jobs.backend_runs": "over the traced report",
             "cache.hit_ratio": f"{hits} hits of {hits + info.misses} lookups (CacheInfo)",
             "kernels.self_ms": f"walk over the report's {len(program.points)} simulation requests",
             "experiments.E01_s": "each experiment's run() after the traced report, on its "
                                  "warmed cache (not in the traced total)"}
    templates = [point.request for point in program.points if point.request.n_trials <= 16]
    _finish(ctx, metrics, table, templates, lines, unattributed, traced_ms, untraced_ms, 1,
            "in-process generate_report(compiled=True, workers=1), mean of one run before "
            "and one after")
    return metrics, table


TRACED = {"local": traced_local, "remote": traced_remote, "report": traced_report}
