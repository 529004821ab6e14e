"""Command-line interface: ``python -m repro`` / ``repro-ants``.

Subcommands::

    run        simulate searches through the backend service layer
    backends   list registered simulation backends, coverage, priorities
    cache      inspect, verify, clear, or LRU-prune the result cache
    jobs       list, inspect, or cancel recorded simulation jobs
    trace      render a recorded job trace as a span tree
    metrics    dump the process/server metrics registry
    serve      HTTP/SSE server for remote job submission
    certify    print the lower-bound certificate for an automaton family
    coverage   simulate a below-threshold colony and render its coverage
    experiment run one registered experiment (E01..E16), or all of them
    report     regenerate EXPERIMENTS.md through the experiment compiler

Examples::

    repro-ants run --algorithm uniform --distance 64 --agents 8
    repro-ants serve --host 0.0.0.0 --port 8642 --max-jobs 16
    repro-ants run --algorithm algorithm1 --trials 200 --backend batched
    repro-ants run --algorithm nonuniform --trials 64 --workers 4 --async --watch
    repro-ants run --algorithm feinerman --trials 200 --no-cache
    repro-ants backends
    repro-ants cache info
    repro-ants cache prune --max-bytes 100000000
    repro-ants jobs list
    repro-ants jobs cancel job-0123456789ab
    repro-ants trace job-0123456789ab
    repro-ants trace job-0123456789ab --url http://127.0.0.1:8642
    repro-ants metrics --watch
    repro-ants metrics --url http://127.0.0.1:8642 --json
    repro-ants certify --family random --bits 3 --ell 2 --distance 128
    repro-ants coverage --family uniform-walk --distance 48 --agents 16
    repro-ants experiment E04
    repro-ants experiment E03 --workers 4 --watch
    repro-ants experiment --all
    repro-ants report --output EXPERIMENTS.md --workers 4
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from repro.errors import ReproError
from repro.experiments.base import DEFAULT_SEED
from repro.sim.backends import (
    AlgorithmSpec,
    KNOWN_ALGORITHMS,
    SimulationRequest,
    probe_request,
    registered_backends,
    resolve_backend,
)
from repro.sim.metrics import ABSENT
from repro.sim.service import simulate

BACKEND_CHOICES = ("auto", "reference", "batched")


def _build_spec(name: str, distance: int, ell: int) -> AlgorithmSpec:
    if name == "algorithm1":
        return AlgorithmSpec.algorithm1(distance)
    if name == "nonuniform":
        return AlgorithmSpec.nonuniform(distance, ell)
    if name == "uniform":
        return AlgorithmSpec.uniform(ell)
    if name == "doubly-uniform":
        return AlgorithmSpec.doubly_uniform(ell)
    if name == "random-walk":
        return AlgorithmSpec.random_walk()
    if name == "spiral":
        return AlgorithmSpec.spiral()
    if name == "feinerman":
        return AlgorithmSpec.feinerman()
    if name == "levy":
        return AlgorithmSpec.levy()
    raise ReproError(f"unknown algorithm {name!r}")


def _build_automaton(family: str, bits: int, ell: int, seed: int):
    from repro.markov.random_automata import (
        biased_walk_automaton,
        random_bounded_automaton,
        uniform_walk_automaton,
    )

    if family == "uniform-walk":
        return uniform_walk_automaton()
    if family == "biased-walk":
        return biased_walk_automaton([3, 1, 2, 2], ell=max(2, ell))
    if family == "random":
        rng = np.random.default_rng(seed)
        return random_bounded_automaton(rng, bits=bits, ell=ell)
    raise ReproError(f"unknown automaton family {family!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _build_spec(args.algorithm, args.distance, args.ell)
    target = (
        tuple(args.target)
        if args.target
        else (args.distance, args.distance)
    )
    request = SimulationRequest(
        algorithm=spec,
        n_agents=args.agents,
        target=target,
        move_budget=args.budget,
        n_trials=args.trials,
        seed=args.seed,
        distance_bound=max(args.distance, abs(target[0]), abs(target[1])),
    )
    if args.plan and (args.adaptive or args.async_submit or args.watch):
        raise ReproError(
            "--plan prints and runs a blocking plan; drop "
            "--adaptive/--async/--watch"
        )
    adaptive_run = None
    if args.adaptive:
        if args.async_submit or args.watch:
            raise ReproError(
                "--adaptive runs batches inline; drop --async/--watch"
            )
        from repro.sim.jobs import simulate_adaptive

        adaptive_run = simulate_adaptive(
            request,
            metric=args.ci_metric,
            target_half_width=args.target_half_width,
            batch_size=args.batch_size,
            backend=args.backend,
            cache=args.cache,
        )
        result = adaptive_run.result
    elif args.async_submit or args.watch:
        from repro.sim.jobs import simulate_async

        job = simulate_async(
            request, backend=args.backend, workers=args.workers,
            cache=args.cache,
        )
        snapshot = job.progress()
        print(f"job       : {job.job_id} ({job.backend}) — "
              f"{request.n_trials} trials in {snapshot.total_shards} shard(s)")
        for shard in job.iter_results():
            source = "cache" if shard.from_cache else "simulated"
            print(f"  shard {shard.shard_index}: trials "
                  f"[{shard.trial_start}, "
                  f"{shard.trial_start + shard.trial_count}) — {source}")
            if args.watch:
                snapshot = job.progress()
                print(f"  progress: {snapshot.done_shards}/"
                      f"{snapshot.total_shards} shards, "
                      f"{snapshot.done_trials}/{snapshot.total_trials} "
                      f"trials ({snapshot.fraction:.0%})", flush=True)
        result = job.result()
    elif args.plan:
        from repro.sim.selector import plan_request

        plan = plan_request(
            request, backend=args.backend, workers=args.workers
        )
        print(f"plan      : {plan.backend} — {plan.n_shards} "
              f"shard(s) x {plan.workers} worker(s)")
        result = simulate(
            request, backend=plan.backend, workers=plan.workers,
            cache=args.cache,
        )
    else:
        result = simulate(
            request, backend=args.backend, workers=args.workers,
            cache=args.cache,
        )
    algorithm = spec.build(args.agents)
    print(f"algorithm : {algorithm.name}")
    print(f"backend   : {result.backend}")
    print(f"target    : {target} (D = {args.distance})")
    complexity = algorithm.selection_complexity()
    if complexity is not None:
        print(f"chi       : {complexity}")
    outcomes = result.outcomes
    if outcomes.found[0]:
        m_steps = int(outcomes.m_steps_column()[0])
        steps = "" if m_steps == ABSENT else f", steps {m_steps}"
        print(f"found     : yes — M_moves = {int(outcomes.m_moves[0])} "
              f"(agent {int(outcomes.finder[0])}{steps})")
    else:
        print(f"found     : no within budget {args.budget}")
    trials_done = len(outcomes)
    if trials_done > 1:
        moves = result.moves_or_budget()
        print(
            f"trials    : {trials_done} — find rate {result.find_rate:.2%}, "
            f"mean M_moves (censored) {moves.mean():.1f}"
        )
    if adaptive_run is not None:
        status = "converged" if adaptive_run.converged else "budget exhausted"
        print(
            f"adaptive  : {adaptive_run.trials_used}/"
            f"{adaptive_run.max_trials} trials — {adaptive_run.metric} = "
            f"{adaptive_run.estimate:.4g} ± {adaptive_run.half_width:.4g} "
            f"(target ± {adaptive_run.target_half_width:g}, {status}; "
            f"{adaptive_run.batches_run} batch(es) simulated, "
            f"{adaptive_run.batches_cached} from cache)"
        )
    # Multi-trial runs succeed if any trial found the target; scripts
    # gating on the exit code get the aggregate, not trial 0's luck.
    return 0 if result.find_rate > 0 else 1


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.sim.selector import selector_payload

    if args.json:
        import json

        from repro.server.wire import WIRE_VERSION
        from repro.sim.backends.registry import backends_introspection

        payload = {
            "wire": WIRE_VERSION,
            **backends_introspection(),
            "selector": selector_payload(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    backends = registered_backends()
    header = ["backend", *KNOWN_ALGORITHMS]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for name in sorted(backends):
        backend = backends[name]
        cells = []
        for algo in KNOWN_ALGORITHMS:
            probe = probe_request(algo)
            if probe is None or not backend.supports(probe):
                cells.append("-")
                continue
            cells.append(f"p{backend.auto_priority(probe)}")
        lines.append("| " + " | ".join([name, *cells]) + " |")
    print("registered simulation backends: supports() coverage and "
          "auto_priority (higher wins):")
    print()
    print("\n".join(lines))
    print()
    print('what "auto" resolves to for each algorithm:')
    for algo in KNOWN_ALGORITHMS:
        print(f"  {algo:15s} -> {resolve_backend(probe_request(algo)).name}")
    print()
    print("why backends decline (supports() gating reasons):")
    for name in sorted(backends):
        reasons = backends[name].decline_reasons()
        if not reasons:
            print(f"  {name:12s} (none — supports every family)")
            continue
        # Group families sharing one reason to keep the report short.
        by_reason = {}
        for algo, reason in reasons.items():
            by_reason.setdefault(reason, []).append(algo)
        for reason, algos in sorted(by_reason.items()):
            print(f"  {name:12s} {', '.join(algos)}: {reason}")
    print()
    _print_selector_plans(selector_payload())
    print("(requests with a step budget always resolve to reference, the "
          "only backend honoring M_steps accounting.)")
    return 0


def _print_selector_plans(payload) -> None:
    """The static planner's view: one plan per selector family."""
    print(f"planned execution for a {payload['batch_trials']}-trial batch "
          f"(backend, shards x workers):")
    for family, plan in payload["plans"].items():
        print(f"  {family:15s} -> {plan['backend']:12s} "
              f"{plan['n_shards']} shard(s) x {plan['workers']} worker(s)")
    print()


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sim.cache import get_cache

    cache = get_cache()
    if args.action == "info":
        if args.json:
            import json

            print(json.dumps(cache.info().to_payload(), indent=2,
                             sort_keys=True))
            return 0
        print("content-addressed simulation result cache:")
        for line in cache.info().summary_lines():
            print(line)
        return 0
    if args.action == "verify":
        report = cache.verify(repair=args.repair)
        if args.json:
            import json

            print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
        else:
            print(f"cache verify: {report.scanned} entries scanned, "
                  f"{report.ok} ok, {len(report.corrupt)} corrupt, "
                  f"{report.quarantined} quarantined "
                  f"({cache.directory})")
            for name in report.corrupt:
                state = "quarantined" if args.repair else "corrupt"
                print(f"  {state}: {name}")
            if report.corrupt and not args.repair:
                print("  (re-run with --repair to quarantine)")
        # Corrupt entries found but left in place is a nonzero exit so
        # scripted scans can gate on it; a repaired scan is clean.
        return 1 if report.corrupt and not args.repair else 0
    if args.action == "prune":
        if args.max_bytes is None:
            print("error: cache prune requires --max-bytes N",
                  file=sys.stderr)
            return 2
        pruned = cache.prune(args.max_bytes)
        print(f"cache pruned: {pruned.removed_files} entries "
              f"({pruned.freed_bytes} bytes) evicted, "
              f"{pruned.remaining_files} entries "
              f"({pruned.remaining_bytes} bytes) remain within the "
              f"{args.max_bytes}-byte budget ({cache.directory})")
        return 0
    removed = cache.clear()
    print(f"cache cleared: {removed} disk entries removed "
          f"({cache.directory})")
    return 0


def _format_age(timestamp) -> str:
    if not isinstance(timestamp, (int, float)):
        return "?"
    import time

    seconds = max(0.0, time.time() - timestamp)
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.sim import jobs as jobs_module

    if args.action == "list":
        records = jobs_module.read_job_records()
        if not records:
            print(f"no recorded jobs ({jobs_module.ledger_dir()})")
            return 0
        header = (f"{'job id':<18} {'state':<19} {'algorithm':<15} "
                  f"{'backend':<12} {'trials':>6} {'shards':>7} {'age':>6}")
        print(header)
        print("-" * len(header))
        for record in records:
            shards = (f"{record.get('done_shards', 0)}"
                      f"/{record.get('total_shards', '?')}")
            # A non-terminal record whose owning process died is shown
            # as failed-recoverable: resubmitting the same request
            # resumes from its cached shards.
            print(f"{record.get('job_id', '?'):<18} "
                  f"{jobs_module.effective_state(record):<19} "
                  f"{record.get('algorithm', '?'):<15} "
                  f"{record.get('backend', '?'):<12} "
                  f"{record.get('n_trials', '?'):>6} "
                  f"{shards:>7} "
                  f"{_format_age(record.get('submitted_at')):>6}")
        return 0
    if args.action == "clear":
        removed = jobs_module.prune_job_records(max_records=0)
        print(f"jobs ledger cleared: {removed} terminal records/markers "
              f"removed ({jobs_module.ledger_dir()})")
        return 0
    if args.job_id is None:
        print(f"error: jobs {args.action} requires a job id", file=sys.stderr)
        return 2
    if args.action == "cancel":
        if jobs_module.request_cancel(args.job_id):
            print(f"cancellation requested for {args.job_id} (the owning "
                  f"process honors it at the next shard boundary)")
            return 0
        print(f"error: job {args.job_id!r} is unknown or already finished",
              file=sys.stderr)
        return 2
    # status — live in-process handle first, then the JSON ledger, so
    # finished jobs evicted from the manager's registry still answer.
    record = jobs_module.job_status_record(args.job_id)
    if record is not None:
        record = dict(record, state=jobs_module.effective_state(record))
        for key in ("job_id", "state", "algorithm", "backend", "n_agents",
                    "n_trials", "seed", "total_shards", "done_shards",
                    "done_trials", "cached_shards", "pid", "error",
                    "retries"):
            print(f"{key:13s}: {record.get(key)}")
        return 0
    print(f"error: no record for job {args.job_id!r}", file=sys.stderr)
    return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import (
        Span,
        find_trace_for_job,
        render_trace,
        ring_spans,
        spans_for_trace,
    )

    spans = []
    trace_id = None
    if args.url:
        # The server's recorded spans first; local spans of the same
        # trace (client.submit, client.simulate) merge in below.
        from repro.server.client import RemoteClient, RemoteJob

        job = RemoteJob(RemoteClient(args.url), args.job_id)
        trace_id, payloads = job.trace()
        spans = [Span.from_payload(payload) for payload in payloads]
    else:
        trace_id = find_trace_for_job(args.job_id)
        if trace_id is None:
            print(f"error: no recorded trace mentions job {args.job_id!r} "
                  f"(tracing off, ring evicted, or wrong cache dir?)",
                  file=sys.stderr)
            return 2
        spans = list(spans_for_trace(trace_id))
    seen = {span.span_id for span in spans}
    spans.extend(
        span
        for span in ring_spans()
        if span.trace_id == trace_id and span.span_id not in seen
    )
    print(f"trace {trace_id} — {len(spans)} span(s):")
    print(render_trace(spans))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import time as time_mod

    def snapshot() -> str:
        if args.url:
            from repro.server.client import RemoteClient

            client = RemoteClient(args.url)
            if args.json:
                import json

                return json.dumps(
                    client.stats().get("metrics", {}),
                    indent=2, sort_keys=True,
                )
            return client.metrics()
        from repro.obs.metrics import get_registry, render_prometheus

        if args.json:
            import json

            return json.dumps(
                get_registry().to_payload(), indent=2, sort_keys=True
            )
        return render_prometheus()

    if not args.watch:
        text = snapshot()
        print(text, end="" if text.endswith("\n") else "\n")
        return 0
    try:
        while True:
            text = snapshot()
            print(f"--- {time_mod.strftime('%H:%M:%S')} "
                  f"---------------------------------")
            print(text, end="" if text.endswith("\n") else "\n", flush=True)
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.app import SimulationServer

    server = SimulationServer(
        host=args.host, port=args.port, max_jobs=args.max_jobs
    )
    print(f"repro-ants serving on {server.url} "
          f"(max {args.max_jobs} concurrent jobs)")
    print("routes: POST /v1/jobs · GET /v1/jobs[/{id}[/result|/events|"
          "/trace]] · DELETE /v1/jobs/{id} · POST /v1/sweeps · "
          "GET /v1/backends · GET /v1/stats · GET /v1/metrics", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.lowerbound.certify import certify

    automaton = _build_automaton(args.family, args.bits, args.ell, args.seed)
    certificate = certify(automaton, args.distance, args.agents)
    print(f"automaton : {automaton.name} ({automaton.n_states} states)")
    for line in certificate.summary_lines():
        print(line)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.lowerbound.colony import simulate_colony
    from repro.lowerbound.theory import horizon_moves
    from repro.vis.asciiplot import heatmap

    automaton = _build_automaton(args.family, args.bits, args.ell, args.seed)
    rounds = args.rounds or horizon_moves(args.distance, 0.5)
    rng = np.random.default_rng(args.seed)
    result = simulate_colony(
        automaton, args.agents, rounds, rng, window_radius=args.distance
    )
    print(
        f"{automaton.name}: {args.agents} agents, {rounds} rounds -> "
        f"{result.visited_count()} cells visited "
        f"({result.coverage_fraction:.2%} of the window)"
    )
    print(heatmap(result.visited.astype(float), title="visited cells"))
    return 0


def _watch_progress(progress) -> None:
    """Live point-level progress line for ``experiment --watch``."""
    print(f"  [sweep] {progress.done_points}/{progress.total_points} points "
          f"— {progress.done_trials}/{progress.total_trials} trials "
          f"({progress.fraction:.0%})", flush=True)


def _run_one_experiment(key: str, args: argparse.Namespace):
    from repro.experiments import REGISTRY

    runner = REGISTRY[key]
    parameters = inspect.signature(runner).parameters
    kwargs = {}
    if args.workers != 1:
        if "workers" in parameters:
            kwargs["workers"] = args.workers
        else:
            print(f"note: {key} does not take --workers; running serially",
                  file=sys.stderr)
    if args.watch:
        if "on_progress" in parameters:
            kwargs["on_progress"] = _watch_progress
        else:
            print(f"note: {key} does not report live progress",
                  file=sys.stderr)
    return runner(scale=args.scale, seed=args.seed, **kwargs)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import REGISTRY

    if args.all:
        # Same semantics as `python -m repro.experiments`: run every
        # experiment, name each failing check, exit nonzero when any
        # check fails — so CI can use either entry point.
        failures = 0
        for key in sorted(REGISTRY):
            result = _run_one_experiment(key, args)
            status = "ok" if result.all_passed else "CHECK FAILURES"
            print(f"[{key}] {result.title} — {status}")
            for name, passed in result.checks.items():
                if not passed:
                    print(f"    FAIL: {name}")
                    failures += 1
        return 1 if failures else 0
    if args.id is None:
        print("experiment id required (or pass --all)", file=sys.stderr)
        return 2
    key = args.id.upper()
    if key not in REGISTRY:
        print(f"unknown experiment {key!r}; known: {', '.join(sorted(REGISTRY))}",
              file=sys.stderr)
        return 2
    result = _run_one_experiment(key, args)
    print(result.to_markdown())
    return 0 if result.all_passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import generate_report

    generated = generate_report(
        scale=args.scale,
        seed=args.seed,
        only=args.only,
        workers=args.workers,
        compiled=not args.no_compile,
    )
    if generated is None:
        print(f"no experiments match {args.only!r}", file=sys.stderr)
        return 2
    report, failures = generated
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print()
        print(report)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ants",
        description="ANTS selection-complexity reproduction (PODC 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate searches via the service layer")
    run_parser.add_argument(
        "--algorithm",
        default="uniform",
        choices=KNOWN_ALGORITHMS,
    )
    run_parser.add_argument("--distance", type=int, default=32)
    run_parser.add_argument("--agents", type=int, default=4)
    run_parser.add_argument("--ell", type=int, default=1)
    run_parser.add_argument("--budget", type=int, default=10_000_000)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--target", type=int, nargs=2, metavar=("X", "Y"), default=None
    )
    run_parser.add_argument(
        "--backend", default="auto", choices=BACKEND_CHOICES,
        help="simulation backend (default: auto-resolve)",
    )
    run_parser.add_argument(
        "--trials", type=int, default=1,
        help="independent colony repetitions (default: 1)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard trials across (default: 1)",
    )
    run_parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="force the result cache on/off for this run "
             "(default: process setting, normally on)",
    )
    run_parser.add_argument(
        "--plan", action="store_true",
        help="print the execution plan (backend and shard layout, "
             "--workers caps the shards) and run it",
    )
    run_parser.add_argument(
        "--adaptive", action="store_true",
        help="adaptive sampling: consume --trials in batches until the "
             "CI half-width target is met (see --target-half-width)",
    )
    run_parser.add_argument(
        "--target-half-width", type=float, default=0.05,
        help="adaptive stopping target: CI half-width on the chosen "
             "metric (default: 0.05)",
    )
    run_parser.add_argument(
        "--ci-metric", default="hit_probability",
        choices=("hit_probability", "moves"),
        help="metric the adaptive CI targets (default: hit_probability)",
    )
    run_parser.add_argument(
        "--batch-size", type=int, default=32,
        help="trials per adaptive batch (default: 32)",
    )
    run_parser.add_argument(
        "--async", dest="async_submit", action="store_true",
        help="submit through the job layer and stream trial shards "
             "as they complete",
    )
    run_parser.add_argument(
        "--watch", action="store_true",
        help="print live shard/trial progress (implies --async)",
    )
    run_parser.set_defaults(func=_cmd_run)

    backends_parser = sub.add_parser(
        "backends", help="list registered simulation backends"
    )
    backends_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable payload (same shape as "
             "GET /v1/backends: coverage, declines, auto resolution, "
             "selector plans)",
    )
    backends_parser.set_defaults(func=_cmd_backends)

    cache_parser = sub.add_parser(
        "cache", help="inspect, verify, clear, or LRU-prune the result cache"
    )
    cache_parser.add_argument(
        "action", choices=("info", "clear", "prune", "verify"),
        help="info: configuration + counters; clear: drop all entries; "
             "prune: evict least-recently-used disk entries to fit "
             "--max-bytes; verify: scan disk entries against their "
             "checksums",
    )
    cache_parser.add_argument(
        "--max-bytes", type=int, default=None,
        help="disk budget for prune: evict LRU entries until the "
             "cache directory fits",
    )
    cache_parser.add_argument(
        "--json", action="store_true",
        help="info/verify: emit the machine-readable payload",
    )
    cache_parser.add_argument(
        "--repair", action="store_true",
        help="verify only: quarantine every entry that fails its "
             "checksum (moved under quarantine/, never deleted)",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    jobs_parser = sub.add_parser(
        "jobs", help="list, inspect, or cancel recorded simulation jobs"
    )
    jobs_parser.add_argument(
        "action", choices=("list", "status", "cancel", "clear"),
        help="list: all recorded jobs; status: one job's record; "
             "cancel: request cancellation (honored at the next shard "
             "boundary, completed shards stay cached); clear: drop "
             "terminal records and stale cancel markers",
    )
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None,
        help="job id for status/cancel (see `jobs list`)",
    )
    jobs_parser.set_defaults(func=_cmd_jobs)

    trace_parser = sub.add_parser(
        "trace", help="render a recorded job trace as a span tree"
    )
    trace_parser.add_argument(
        "job_id", help="job id whose trace to render (see `jobs list`)"
    )
    trace_parser.add_argument(
        "--url", default="",
        help="fetch the server's spans from GET /v1/jobs/{id}/trace at "
             "this base URL and merge them with locally recorded spans "
             "(default: local ring + JSONL sink only)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    metrics_parser = sub.add_parser(
        "metrics", help="dump the process/server metrics registry"
    )
    metrics_parser.add_argument(
        "--url", default="",
        help="read a remote server's registry (GET /v1/metrics, or the "
             "stats route for --json) instead of this process's",
    )
    metrics_parser.add_argument(
        "--json", action="store_true",
        help="emit the JSON payload instead of Prometheus text",
    )
    metrics_parser.add_argument(
        "--watch", action="store_true",
        help="redraw every --interval seconds until interrupted",
    )
    metrics_parser.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period for --watch (default: 2s)",
    )
    metrics_parser.set_defaults(func=_cmd_metrics)

    serve_parser = sub.add_parser(
        "serve", help="HTTP/SSE server for remote job submission"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1; 0.0.0.0 for remote "
             "clients)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default: 8642; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--max-jobs", type=int, default=8,
        help="concurrent limit on live jobs + sweeps; submissions "
             "beyond it get 429 + Retry-After (default: 8)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    certify_parser = sub.add_parser(
        "certify", help="lower-bound certificate for an automaton"
    )
    certify_parser.add_argument(
        "--family", default="random",
        choices=("random", "uniform-walk", "biased-walk"),
    )
    certify_parser.add_argument("--bits", type=int, default=3)
    certify_parser.add_argument("--ell", type=int, default=2)
    certify_parser.add_argument("--distance", type=int, default=64)
    certify_parser.add_argument("--agents", type=int, default=8)
    certify_parser.add_argument("--seed", type=int, default=0)
    certify_parser.set_defaults(func=_cmd_certify)

    coverage_parser = sub.add_parser(
        "coverage", help="simulate a colony and render coverage"
    )
    coverage_parser.add_argument(
        "--family", default="uniform-walk",
        choices=("random", "uniform-walk", "biased-walk"),
    )
    coverage_parser.add_argument("--bits", type=int, default=3)
    coverage_parser.add_argument("--ell", type=int, default=2)
    coverage_parser.add_argument("--distance", type=int, default=48)
    coverage_parser.add_argument("--agents", type=int, default=16)
    coverage_parser.add_argument("--rounds", type=int, default=0)
    coverage_parser.add_argument("--seed", type=int, default=0)
    coverage_parser.set_defaults(func=_cmd_coverage)

    experiment_parser = sub.add_parser(
        "experiment", help="run one registered experiment (or --all)"
    )
    experiment_parser.add_argument(
        "id", nargs="?", default=None, help="experiment id, e.g. E04"
    )
    experiment_parser.add_argument(
        "--all", action="store_true",
        help="run every registered experiment; exit nonzero when any "
             "check fails (same semantics as python -m repro.experiments)",
    )
    experiment_parser.add_argument("--scale", default="smoke", choices=("smoke", "paper"))
    experiment_parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    experiment_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the experiment's sweeps (forwarded "
             "to experiments that support it)",
    )
    experiment_parser.add_argument(
        "--watch", action="store_true",
        help="print live point-level sweep progress while the "
             "experiment runs",
    )
    experiment_parser.set_defaults(func=_cmd_experiment)

    report_parser = sub.add_parser(
        "report", help="regenerate the EXPERIMENTS.md report"
    )
    report_parser.add_argument(
        "--scale", default="smoke", choices=("smoke", "paper")
    )
    report_parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    report_parser.add_argument(
        "--only", default="", help="comma-separated experiment ids"
    )
    report_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the compiled report's point "
             "simulation and per-experiment finalization",
    )
    report_parser.add_argument(
        "--output", default="", help="write the markdown report here"
    )
    report_parser.add_argument(
        "--no-compile", action="store_true",
        help="run each experiment in turn instead of through the "
             "experiment compiler (byte-identical report)",
    )
    report_parser.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - direct module execution
    raise SystemExit(main())
