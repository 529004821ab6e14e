"""Distribution-level regression against committed golden samples.

The ROADMAP's distribution-regression item: instead of re-running the
(slow) reference engine every time a vectorized backend is refactored,
``tests/golden/`` freezes move-count samples produced once by a
seed-exact per-trial backend (named in each file's
``generator_backend``), and this test diffs the
``batched`` backend's output distribution against the recording with a
two-sample KS test.

Everything here is deterministic — fixed seeds on both sides — so the
KS statistic is a constant, not a random variable: the test cannot
flake, and any change in the number signals a semantic change in the
batched sampling scheme (which must come with a
:data:`~repro.sim.cache.CODE_VERSION` bump and regenerated goldens via
``scripts/make_golden_samples.py``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.server.wire import WIRE_VERSION, request_from_wire
from repro.sim import ks_statistic, ks_two_sample_threshold, simulate
from repro.sim.cache import CODE_VERSION

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"

GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*_moves.json"))


def _load(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())


def _golden_request(payload: dict):
    """The recorded request.  Its envelope carries the wire version
    current when it was recorded; the request fields have been the same
    in every version so far (v2 changed only how outcomes travel)."""
    return request_from_wire({**payload["request"], "wire": WIRE_VERSION})


#: Every family the batched kernels cover must have a recording — the
#: ROADMAP "more golden families" item, closed with the kernel
#: extraction so no refactor of the shared kernels can drift a family
#: silently.
ALL_FAMILIES = {
    "algorithm1",
    "nonuniform",
    "uniform",
    "doubly_uniform",
    "random_walk",
    "feinerman",
}


def test_golden_directory_populated():
    """All six batched-covered families are recorded."""
    assert len(GOLDEN_FILES) >= 6
    families = {_load(path)["family"] for path in GOLDEN_FILES}
    assert ALL_FAMILIES <= families


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_golden_metadata(path):
    """Golden files carry the provenance needed to regenerate them."""
    payload = _load(path)
    assert payload["metric"] == "moves_or_budget"
    assert payload["generator_backend"] == "closed_form"
    assert payload["code_version"] == CODE_VERSION, (
        "CODE_VERSION changed — regenerate the golden samples with "
        "scripts/make_golden_samples.py if the sampling semantics moved"
    )
    request = _golden_request(payload)
    assert request.n_trials == len(payload["samples"])


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_batched_backend_matches_golden_distribution(path):
    """``batched`` output stays KS-close to the recorded distribution.

    This replaces re-running the per-trial engine: the recorded sample
    *is* the reference.  Threshold at alpha = 0.01 — deterministic
    seeds mean a failure is a real distribution shift, not noise.
    """
    payload = _load(path)
    request = _golden_request(payload)
    golden = payload["samples"]

    result = simulate(request, backend="batched", cache=False)
    measured = [float(outcome.moves_or_budget) for outcome in result.outcomes]

    statistic = ks_statistic(golden, measured)
    threshold = ks_two_sample_threshold(len(golden), len(measured), alpha=0.01)
    assert statistic <= threshold, (
        f"{payload['family']}: batched vs golden KS {statistic:.4f} > "
        f"{threshold:.4f} — the sampling distribution moved; if "
        f"intentional, bump CODE_VERSION and regenerate tests/golden/"
    )
