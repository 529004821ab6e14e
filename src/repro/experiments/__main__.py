"""Regenerate the experiment report (EXPERIMENTS.md content).

Usage::

    python -m repro.experiments [--scale smoke|paper] [--only E03,E09]
           [--workers N] [--output EXPERIMENTS.md] [--compile]

Prints every experiment's table and check results; with ``--output``
also writes the full markdown report.  ``--compile`` routes the whole
selection through the experiment compiler
(:mod:`repro.experiments.compiler`): every declared grid point is bound
to its request and exact repeats and cached points are dropped.  At one
worker (the default here) the rest run through the job layer one job
per point in this process, then every experiment is finalized; with
``--workers N`` above 1 one pool of N processes runs each experiment
whole, slowest first.  The report is byte-identical either way.  From
an empty cache on a 2-core host the smoke report took about 2.0 s at
one worker and 1.4 s at two (paper scale: 18.1 s and 9.3 s), at the
price of a second process's memory.  Without ``--compile``,
``--workers N`` forwards to the experiments whose declared sweeps shard
grid points across worker processes.  ``repro-ants report`` is the same
report with ``--compile`` on and ``--workers`` at the usable cores.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.experiments import REGISTRY, SPEC_REGISTRY
from repro.experiments.base import DEFAULT_SEED, ExperimentResult

_HEADER = """# EXPERIMENTS — paper claims vs. measurements

Generated by ``python -m repro.experiments --scale {scale}`` with seed
{seed}.  The paper (PODC 2014) is pure theory: it contains no numbered
tables or figures, so each experiment below reproduces one theorem or
lemma (the mapping is DESIGN.md Section 5).  "Measured" values come
from the simulators in this repository; "predicted" values are the
explicit constants the proofs derive, not fits.

A note on the threshold: ``log2 log2 D`` is 2.6 at D = 64 and only 4 at
D = 65536, so no simulable D separates *arbitrary* automata by the
threshold itself.  The experiments therefore test the theorem the way
it is meant: for a *fixed* machine (constant chi), behaviour over a
growing-D sweep must obey the below-threshold regime (coverage o(D^2),
drift-line concentration, speed-up cap), while the paper's algorithms —
whose chi grows like log log D — achieve the optimal regime at every D.

"""


def _render_section(result: ExperimentResult, scale: str) -> str:
    """One experiment's report section, scale recorded alongside.

    Shared by the compiled and uncompiled paths — the per-experiment
    scale line is part of the section, so the two paths stay
    byte-identical and the committed report records the scale every
    table was measured at.
    """
    return f"_Scale: {scale}._\n\n" + result.to_markdown()


def _select(only: str) -> Optional[List[str]]:
    wanted = [x.strip().upper() for x in only.split(",") if x.strip()]
    selected = [key for key in sorted(REGISTRY) if not wanted or key in wanted]
    return selected or None


def _report_failures(
    results: Dict[str, ExperimentResult], echo: Callable[[str], None]
) -> int:
    failures = 0
    for key in sorted(results):
        result = results[key]
        for name, passed in result.checks.items():
            if not passed:
                echo(f"    [{key}] FAIL: {name}")
                failures += 1
    return failures


def generate_report(
    scale: str = "smoke",
    seed: int = DEFAULT_SEED,
    only: str = "",
    workers: int = 1,
    compiled: bool = False,
    echo: Callable[[str], None] = print,
) -> Optional[Tuple[str, int]]:
    """Run the selected experiments and render the markdown report.

    Returns ``(report, n_failed_checks)``, or ``None`` when ``only``
    matches nothing.  ``compiled=True`` executes through the experiment
    compiler (dedup'd points; at ``workers > 1`` one pool of whole
    experiments); ``compiled=False`` runs each experiment sequentially.
    Both paths assemble the report with :func:`_render_section`, so
    their output is byte-identical for the same ``(scale, seed)``.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    selected = _select(only)
    if selected is None:
        return None

    results: Dict[str, ExperimentResult] = {}
    if compiled:
        from repro.experiments.compiler import compile_program, execute_program

        specs = [SPEC_REGISTRY[key](scale) for key in selected]
        program = compile_program(specs, scale, seed)
        echo(f"[compile] {program.stats.summary()}")
        report = execute_program(program, workers=workers, on_progress=echo)
        echo(
            f"[compile] ran {len(report.results)} experiments "
            f"({report.points_executed} points to simulate) in "
            f"{report.warm_seconds + report.finalize_seconds:.1f}s"
        )
        results = report.results
        for key in sorted(results):
            result = results[key]
            status = "ok" if result.all_passed else "CHECK FAILURES"
            echo(f"[{key}] {result.title} — {status}")
    else:
        for key in selected:
            started = time.perf_counter()
            runner = REGISTRY[key]
            kwargs = {}
            if workers != 1 and "workers" in inspect.signature(runner).parameters:
                kwargs["workers"] = workers
            result = runner(scale=scale, seed=seed, **kwargs)
            elapsed = time.perf_counter() - started
            results[key] = result
            status = "ok" if result.all_passed else "CHECK FAILURES"
            echo(f"[{key}] {result.title} — {status} ({elapsed:.1f}s)")

    failures = _report_failures(results, echo)
    sections = [_render_section(results[key], scale) for key in sorted(results)]
    report_text = _HEADER.format(scale=scale, seed=seed) + "\n".join(sections)
    return report_text, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=("smoke", "paper"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--only", default="", help="comma-separated experiment ids")
    parser.add_argument("--output", default="", help="write the markdown report here")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (sweep sharding; with --compile, one "
        "pool of whole experiments when above 1)",
    )
    parser.add_argument(
        "--compile", action="store_true", dest="compiled",
        help="execute through the experiment compiler (dedup'd points; "
        "with --workers above 1, one pool of whole experiments; "
        "byte-identical report)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    generated = generate_report(
        scale=args.scale,
        seed=args.seed,
        only=args.only,
        workers=args.workers,
        compiled=args.compiled,
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


if __name__ == "__main__":
    raise SystemExit(main())
