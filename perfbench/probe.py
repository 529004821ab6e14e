"""Set-up probes: a fresh process that does a workload's first step, then exits.

    python3 perfbench/probe.py local SEED   # import, answer one small request
    python3 perfbench/probe.py report       # import what `repro-ants report` needs

The parent times the process from spawn until it prints ``ready`` (or
``error: ...`` when the answer fails its check).
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    if sys.argv[1] == "local":
        import numpy as np

        from ops import first_request

        from measure import outcome_errors
        from repro.sim import simulate

        request = first_request(np.random.default_rng(int(sys.argv[2])))
        error = outcome_errors(simulate(request), request)
        print(f"error: {error}" if error else "ready", flush=True)
    else:
        import repro.cli  # noqa: F401
        import repro.experiments.__main__  # noqa: F401

        print("ready", flush=True)
