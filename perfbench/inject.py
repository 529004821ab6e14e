"""Inject a fixed sleep into one repository function, for the sensitivity self-test.

``apply("repro.server.wire.result_to_wire:5")`` makes every call of that
function sleep 5 ms first.  The wrapper replaces the function in its own
module and in every loaded ``repro`` module that imported it by name
(``repro.sim.backends.batched`` binds ``run_family`` at import time), so
every call site sees it.

As a launcher it applies the injection and then runs a module, so that
servers and report processes started by the benchmark regress too::

    python3 perfbench/inject.py repro.server.wire.result_to_wire:5 -m repro serve
"""

from __future__ import annotations

import functools
import importlib
import runpy
import sys
import time

# Imported before the scan, so that modules binding the function by name
# (the backends, the server) are loaded and their bindings replaced too.
_BINDERS = ("repro.sim", "repro.server")


def apply(spec: str) -> None:
    target, _, millis = spec.rpartition(":")
    module_name, _, attr = target.rpartition(".")
    delay = float(millis) / 1e3
    module = importlib.import_module(module_name)
    original = getattr(module, attr)

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    for name in _BINDERS:
        importlib.import_module(name)
    for name, loaded in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, slowed)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "-m":
        sys.exit("usage: inject.py MODULE.FUNCTION:MILLISECONDS -m MODULE [ARGS...]")
    apply(sys.argv[1])
    sys.argv = [sys.argv[3]] + sys.argv[4:]
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
