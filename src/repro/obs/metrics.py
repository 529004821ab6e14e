"""Process-wide metrics registry: counters, gauges, histograms.

The runtime counterpart of the paper's metric discipline — measured,
attributable cost per simulated colony — for the *system* that runs
the colonies: jobs submitted/completed, shards run vs cache-served,
cache hit/miss/store traffic, selector plans per backend, kernel
colonies/sec per family, HTTP per-route request counts and latency.
Zero dependencies, cheap enough to stay on by default (an increment
is one dict lookup and an integer add under a lock), and exported
three ways:

* ``GET /v1/metrics`` — Prometheus text exposition format 0.0.4
  (:meth:`MetricsRegistry.render_prometheus`), scrapeable by any
  standard collector;
* ``GET /v1/stats`` — the same values as JSON
  (:meth:`MetricsRegistry.to_payload`);
* ``repro-ants metrics [--watch]`` — human-readable CLI view.

Metric types follow the Prometheus model:

* :class:`Counter` — monotone accumulator (``_total`` naming);
* :class:`Gauge` — a value that goes both ways (last ``Retry-After``,
  in-flight jobs);
* :class:`Histogram` — fixed-boundary cumulative buckets plus sum and
  count; boundaries are chosen at creation and never resampled, so
  merging across scrapes is sound.

All three support labels: ``counter.inc(1, backend="batched")`` keeps
one child series per label-value combination.  Creation is
get-or-create by name through one process-wide
:class:`MetricsRegistry` (:func:`get_registry`), so instrumented
modules can declare their metrics at import time without coordination;
re-declaring a name with a different type or label set is an error —
silently forking a series would corrupt both.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDARIES",
    "MetricsRegistry",
    "get_registry",
    "render_prometheus",
]

#: Default latency histogram boundaries (seconds): sub-millisecond
#: cache probes through multi-second sweep submissions.  Fixed at
#: creation so bucket counts stay mergeable across scrapes.
LATENCY_BOUNDARIES: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(
    labelnames: Tuple[str, ...], labels: Mapping[str, Any]
) -> Tuple[str, ...]:
    """Normalize one observation's labels to the declared order."""
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared "
            f"labelnames {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _series(name: str, labelnames: Tuple[str, ...], key: Tuple[str, ...],
            extra: Optional[Tuple[str, str]] = None) -> str:
    """One exposition line's series part: ``name{label="value",...}``."""
    pairs = [
        f'{label}="{_escape_label_value(value)}"'
        for label, value in zip(labelnames, key)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    if not pairs:
        return name
    return f"{name}{{{','.join(pairs)}}}"


class _Metric:
    """Shared naming/labeling/locking of the three metric types."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        return _label_key(self.labelnames, labels)

    # Subclasses implement render_lines() and value_payload().


class Counter(_Metric):
    """Monotone accumulator, optionally labeled."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """The current value of one label combination (0 if never set)."""
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def render_lines(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{_series(self.name, self.labelnames, key)} {_format_value(value)}"
            for key, value in items
        ]

    def value_payload(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": value}
            for key, value in items
        ]


class Gauge(_Metric):
    """A value that can go up and down, optionally labeled."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    render_lines = Counter.render_lines
    value_payload = Counter.value_payload


class Histogram(_Metric):
    """Fixed-boundary cumulative histogram with sum and count.

    ``boundaries`` are the upper bounds of the finite buckets (an
    implicit ``+Inf`` bucket closes the set); a boundary list chosen at
    creation is part of the metric's identity.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        boundaries: Sequence[float] = LATENCY_BOUNDARIES,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram {name} boundaries must be strictly increasing "
                f"and non-empty, got {boundaries!r}"
            )
        self.boundaries = bounds
        # Per label key: ([finite bucket counts..., +Inf count], sum).
        self._buckets: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            buckets = self._buckets.get(key)
            if buckets is None:
                buckets = [0] * (len(self.boundaries) + 1)
                self._buckets[key] = buckets
                self._sums[key] = 0.0
            index = len(self.boundaries)
            for i, bound in enumerate(self.boundaries):
                if value <= bound:
                    index = i
                    break
            buckets[index] += 1
            self._sums[key] += float(value)

    def count(self, **labels: Any) -> int:
        """Total observations for one label combination."""
        with self._lock:
            return sum(self._buckets.get(self._key(labels), ()))

    def sum(self, **labels: Any) -> float:
        with self._lock:
            return self._sums.get(self._key(labels), 0.0)

    def render_lines(self) -> List[str]:
        with self._lock:
            items = sorted(
                (key, list(buckets), self._sums[key])
                for key, buckets in self._buckets.items()
            )
        lines: List[str] = []
        for key, buckets, total in items:
            cumulative = 0
            for bound, count in zip(
                (*self.boundaries, math.inf), buckets
            ):
                cumulative += count
                series = _series(
                    f"{self.name}_bucket", self.labelnames, key,
                    extra=("le", _format_value(bound)),
                )
                lines.append(f"{series} {cumulative}")
            lines.append(
                f"{_series(self.name + '_sum', self.labelnames, key)} "
                f"{_format_value(total)}"
            )
            lines.append(
                f"{_series(self.name + '_count', self.labelnames, key)} "
                f"{cumulative}"
            )
        return lines

    def value_payload(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(
                (key, list(buckets), self._sums[key])
                for key, buckets in self._buckets.items()
            )
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "buckets": dict(
                    zip(
                        [_format_value(b) for b in (*self.boundaries, math.inf)],
                        buckets,
                    )
                ),
                "sum": total,
                "count": sum(buckets),
            }
            for key, buckets, total in items
        ]


class MetricsRegistry:
    """Get-or-create home of every metric in the process.

    Instrumented modules declare metrics at import time; declaring the
    same name twice returns the existing instance when the type and
    label set match and raises otherwise (a silently forked series
    would corrupt both claimants).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        boundaries: Sequence[float] = LATENCY_BOUNDARIES,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, boundaries=boundaries
        )

    def metrics(self) -> List[_Metric]:
        """Every registered metric, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text format 0.0.4."""
        lines: List[str] = []
        for metric in self.metrics():
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render_lines())
        return "\n".join(lines) + "\n"

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every metric (the /v1/stats shape)."""
        return {
            metric.name: {
                "type": metric.kind,
                "help": metric.help,
                "values": metric.value_payload(),
            }
            for metric in self.metrics()
        }

    def reset(self) -> None:
        """Drop every metric (tests only — instrumented modules hold
        references to their metric objects, which keep accumulating;
        re-declaring after a reset creates fresh instances for new
        callers only)."""
        with self._lock:
            self._metrics.clear()


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module shares."""
    return _GLOBAL_REGISTRY


def render_prometheus() -> str:
    """Shorthand: the process registry in Prometheus text format."""
    return _GLOBAL_REGISTRY.render_prometheus()
