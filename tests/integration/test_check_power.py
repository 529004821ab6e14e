"""Mutation controls: the report's checks must be able to fail.

A check that passes on working code shows something only if it fails
on a plausibly broken variant of that code.  Each test here injects one
such *mutant* by monkeypatch, runs the matching experiment at smoke
scale, and asserts that a named check turns FAIL.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.experiments import e11_drift, e15_robustness
from repro.lowerbound import drift
from repro.sim.kernels import batch_lshape


def test_e15_direct_degradation_fails_when_noise_never_reaches_search(
    monkeypatch,
):
    """E15 mutant: every colony searches at the median of the realized
    stop probabilities instead of its own, so the per-agent noise never
    reaches the search.  The realized-spread check never runs a search,
    the composite checks bound the composite coin alone, and under the
    mutant "composite beats direct" compares two means of the same size,
    so it passes or fails by chance; the direct coin's degradation is
    what the mutant reliably loses (about 1x against the >= 3x floor)."""

    def median_stop(rng, stop_probability, *args):
        return batch_lshape(rng, float(np.median(stop_probability)), *args)

    monkeypatch.setattr(e15_robustness, "batch_lshape", median_stop)
    result = e15_robustness.run("smoke")
    assert not result.checks["eps*D=1.0: direct coin degrades (>= 3x)"]


def test_e11_shrinking_deviation_fails_against_a_zero_drift_line(monkeypatch):
    """E11 mutant: deviations are measured from a line of zero drift,
    as if the drift vectors were never computed.  The biased walk then
    strays linearly from that line, so its normalized deviation grows
    with D instead of shrinking."""
    true_profile = drift.drift_profile

    def zero_drift_profile(automaton):
        return [
            dataclasses.replace(line, drift=(0.0, 0.0))
            for line in true_profile(automaton)
        ]

    monkeypatch.setattr(drift, "drift_profile", zero_drift_profile)
    result = e11_drift.run("smoke")
    assert not result.checks["biased-walk: normalized deviation shrinks with D"]
