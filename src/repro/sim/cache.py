"""Content-addressed result cache in front of :func:`repro.sim.simulate`.

``SimulationRequest`` is frozen and fully value-determined, so the
outcomes of ``(request, backend)`` are a pure function of the request's
fields, the backend's sampling scheme, and the simulator code itself.
This module addresses results by exactly that triple:

    key = sha256(request fingerprint · backend name · CODE_VERSION)

Two layers sit behind one :class:`SimulationCache`:

* an in-memory LRU (per process, bounded entry count) serving repeated
  sweep points and re-run experiments within one session, and
* an on-disk store of outcome frames under ``~/.cache/repro-ants/``
  (override with ``REPRO_ANTS_CACHE_DIR``) serving repeated CLI
  invocations and cross-process sweeps.  A frame holds the raw
  little-endian int64 columns of one
  :class:`~repro.sim.metrics.OutcomeBatch` behind a JSON header line;
  nothing on the outcome path is pickled.

Invalidation is by construction: mutate any request field, pick a
different backend, or bump :data:`CODE_VERSION` (done whenever a
simulator's sampling scheme changes) and the key changes.  Stale disk
entries are never read — they are garbage-collected by ``repro-ants
cache clear``.

The cache key deliberately excludes the ``workers`` execution detail:
per-trial backends produce bit-identical outcomes for any worker
count, and the batched backend's per-shard re-anchoring is an
execution artifact of the same distribution, so cached results
normalize it away.

Disk failures (read-only home, concurrent writers, corrupt files) are
never fatal — the disk layer degrades to memory-only and records the
reason in :meth:`SimulationCache.info`.

Every disk entry is **checksummed**: the on-disk container is a
one-line header carrying the SHA-256 of the frame, verified on every
read.  A truncated, bit-flipped, or otherwise unreadable entry — and a
digest-valid frame whose header does not parse or whose columns do not
fit the request — is detected, moved into a ``quarantine/``
subdirectory (never served, preserved for inspection), and the lookup
reports a miss — the caller transparently re-simulates and the next
store replaces the entry.  :meth:`SimulationCache.verify` scans the
whole store against the checksums (``repro-ants cache verify
[--repair]``).  The frame format is part of the key, so entries of an
older format are never read: they are stale misses, not corruption.

Two extensions serve the job layer (:mod:`repro.sim.jobs`):

* **shard entries** — a contiguous trial range of a request can be
  stored and looked up on its own (:func:`shard_cache_key`,
  :meth:`SimulationCache.store_shard` /
  :meth:`~SimulationCache.lookup_shard`); the async executor writes
  every finished shard through as it lands, so a killed job resumes
  from its completed shards;
* **size-bounded disk** — every disk hit refreshes the entry's mtime
  (``last_used``), and :meth:`SimulationCache.prune` evicts
  least-recently-used entries until the directory fits a byte budget
  (``repro-ants cache prune --max-bytes N``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError, ReproError, TransientFaultError
from repro.obs.metrics import get_registry
from repro.obs.trace import child_span
from repro.resilience.faults import maybe_inject
from repro.sim.backends.base import SimulationRequest
from repro.sim.metrics import (
    COLUMN_DTYPE,
    OutcomeBatch,
    column_bytes,
    column_from_bytes,
)

# Process-wide observability: the per-instance ints below survive for
# fresh-instance snapshots (`CacheInfo`), while these registry series
# aggregate across every cache instance the process creates and feed
# /v1/metrics.  ``level`` is "entry" (whole-request) or "shard".
_REGISTRY = get_registry()
_LOOKUPS_TOTAL = _REGISTRY.counter(
    "repro_cache_lookups_total",
    "Cache lookups by outcome (hit_memory/hit_disk/miss) and level.",
    ["outcome", "level"],
)
_STORES_TOTAL = _REGISTRY.counter(
    "repro_cache_stores_total", "Cache stores by level.", ["level"]
)
_QUARANTINED_TOTAL = _REGISTRY.counter(
    "repro_cache_quarantined_total",
    "Disk entries that failed integrity checks and were quarantined.",
)

#: Version tag of the simulator code baked into every cache key.  Bump
#: whenever any backend's sampling scheme changes, so stale entries
#: can never be served for new semantics.
CODE_VERSION = "sim-v4"  # blocked kernels: fused draw order moved again

#: Disk frame layout version (independent of the simulator version),
#: folded into every key.  v3 frames hold raw outcome columns (v2
#: entries, pickled tuples, sit under other keys and are never read).
_FORMAT_VERSION = 3

#: On-disk container: one ASCII line ``repro-ants-cache v3
#: sha256=<64 hex>\n``, then the frame the digest covers.  The frame is
#: one JSON header line (entry identity, ``n_trials``, ``n_agents``,
#: ``move_budget`` and ``columns``: ``[name, dtype, values]`` triples)
#: followed by the columns' bytes, back to back in header order.
#: Anything that does not parse is treated as corrupt and quarantined.
_MAGIC_PREFIX = b"repro-ants-cache v"
_MAGIC = _MAGIC_PREFIX + str(_FORMAT_VERSION).encode("ascii") + b" sha256="
_DIGEST_LEN = 64  # hex chars of sha256

#: Subdirectory (under the cache root) holding quarantined entries.
#: Outside every ``*.pkl`` glob, so quarantined files are invisible to
#: lookups, pruning, and ``cache clear`` — preserved for inspection.
QUARANTINE_DIR = "quarantine"

_DEFAULT_MAX_MEMORY_ENTRIES = 256


def _encode_entry(meta: dict, outcomes: OutcomeBatch) -> bytes:
    """Serialize one entry into the checksummed v3 container."""
    columns = outcomes.columns()
    header = dict(
        meta,
        n_trials=outcomes.n_trials,
        n_agents=outcomes.n_agents,
        move_budget=outcomes.move_budget,
        columns=[
            [name, COLUMN_DTYPE, int(values.shape[0])]
            for name, values in columns.items()
        ],
    )
    frame = b"".join(
        [json.dumps(header, separators=(",", ":")).encode("utf-8"), b"\n"]
        + [column_bytes(values) for values in columns.values()]
    )
    digest = hashlib.sha256(frame).hexdigest().encode("ascii")
    return _MAGIC + digest + b"\n" + frame


def _open_container(data: bytes) -> Optional[Tuple[int, int]]:
    """(format version, frame offset) of a digest-valid container, else
    ``None``.

    Format-independent, so an integrity scan can vouch for entries of
    an older format without reading their frames.
    """
    if not data.startswith(_MAGIC_PREFIX):
        return None
    marker = data.find(b" sha256=", len(_MAGIC_PREFIX), len(_MAGIC_PREFIX) + 24)
    if marker < 0 or not data[len(_MAGIC_PREFIX):marker].isdigit():
        return None
    digest_end = marker + len(b" sha256=") + _DIGEST_LEN
    if data[digest_end:digest_end + 1] != b"\n":
        return None
    digest = hashlib.sha256(memoryview(data)[digest_end + 1:]).hexdigest()
    if digest.encode("ascii") != data[digest_end - _DIGEST_LEN:digest_end]:
        return None
    return int(data[len(_MAGIC_PREFIX):marker]), digest_end + 1


def _decode_entry(data: bytes) -> Optional[Tuple[dict, OutcomeBatch]]:
    """Parse and integrity-check a v3 container: (header, outcomes), or
    ``None`` if damaged.

    ``None`` covers every way an entry can be bad — missing or mangled
    container line, digest mismatch (bit flips, truncation), or a frame
    whose header does not parse or whose columns are missing, mistyped
    or of the wrong length — so callers have exactly one corrupt path.
    """
    opened = _open_container(data)
    if opened is None or opened[0] != _FORMAT_VERSION:
        return None
    start = opened[1]
    view = memoryview(data)  # columns are read in place, not copied
    try:
        newline = data.index(b"\n", start)
        header = json.loads(data[start:newline])
        if not isinstance(header, dict):
            return None
        columns = {}
        offset = newline + 1
        for name, dtype, count in header["columns"]:
            if not isinstance(count, int) or count < 0 or name in columns:
                return None
            size = 8 * count
            if offset + size > len(data):
                return None
            columns[name] = column_from_bytes(view[offset:offset + size], dtype)
            offset += size
        if offset != len(data):
            return None
        outcomes = OutcomeBatch.from_columns(
            header["n_trials"], header["n_agents"], header["move_budget"], columns
        )
    except (ValueError, TypeError, KeyError, RecursionError, ReproError):
        # A matching digest with an unreadable frame means the file was
        # *written* damaged (e.g. an injected pre-checksum corruption);
        # still one corrupt path.
        return None
    return header, outcomes


def default_cache_dir() -> Path:
    """The on-disk cache root: ``$REPRO_ANTS_CACHE_DIR`` or XDG default."""
    override = os.environ.get("REPRO_ANTS_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return root / "repro-ants"


def request_fingerprint(request: SimulationRequest) -> str:
    """A stable content hash of every value-bearing request field."""
    spec = request.algorithm
    payload = {
        "algorithm": {
            "name": spec.name,
            "distance": spec.distance,
            "ell": spec.ell,
            "K": spec.K,
            "max_phase": spec.max_phase,
        },
        "n_agents": request.n_agents,
        "target": [int(request.target[0]), int(request.target[1])],
        "move_budget": request.move_budget,
        "step_budget": request.step_budget,
        "n_trials": request.n_trials,
        "seed": request.seed,
        "seed_keys": [int(key) for key in request.seed_keys],
        "distance_bound": request.distance_bound,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cache_key(request: SimulationRequest, backend_name: str) -> str:
    """The full content address: request x backend x code version (and
    the frame format, so entries of another format are never read)."""
    fingerprint = request_fingerprint(request)
    composite = f"{fingerprint}:{backend_name}:{CODE_VERSION}:frame-v{_FORMAT_VERSION}"
    return hashlib.sha256(composite.encode("utf-8")).hexdigest()


def shard_cache_key(
    request: SimulationRequest, backend_name: str, trial_start: int,
    trial_count: int,
) -> str:
    """The content address of one trial shard of a request.

    Shard entries let the job layer resume a killed or cancelled run:
    each completed contiguous trial range is stored under its own key,
    addressable without the rest of the request having finished.  The
    shard's identity is the same triple as the full key plus the
    ``[start, start+count)`` trial range — per-trial seeds depend only
    on the trial index, never on shard boundaries, so a shard's
    outcomes are a pure function of this address.
    """
    fingerprint = request_fingerprint(request)
    composite = (
        f"{fingerprint}:{backend_name}:{CODE_VERSION}:frame-v{_FORMAT_VERSION}"
        f":shard:{trial_start}:{trial_count}"
    )
    return hashlib.sha256(composite.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one LRU disk-prune pass."""

    removed_files: int
    freed_bytes: int
    remaining_files: int
    remaining_bytes: int


@dataclass(frozen=True)
class CacheVerifyResult:
    """Outcome of one integrity scan (``repro-ants cache verify``)."""

    scanned: int
    ok: int
    corrupt: Tuple[str, ...]  # file names that failed the checksum
    quarantined: int  # of those, how many were moved (``--repair``)

    def to_payload(self) -> dict:
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "corrupt": list(self.corrupt),
            "quarantined": self.quarantined,
        }


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of one cache's configuration and counters."""

    directory: str
    disk_enabled: bool
    disk_error: Optional[str]
    memory_entries: int
    max_memory_entries: int
    disk_files: int
    disk_bytes: int
    hits_memory: int
    hits_disk: int
    misses: int
    stores: int
    code_version: str
    # Shard-level sub-counters (the job layer's resume path).  Shard
    # lookups also count in the aggregate hit/miss numbers above; these
    # break out how much of the traffic the per-shard entries carry —
    # surfaced in `repro-ants cache info` and the server's /v1/stats.
    hits_shard: int = 0
    misses_shard: int = 0
    stores_shard: int = 0
    # Disk entries this instance failed to integrity-check and moved
    # into the quarantine subdirectory (lookup-time detections).
    quarantined: int = 0

    @property
    def hit_ratio(self) -> Optional[float]:
        """hits / (hits + misses) across both layers, ``None`` before
        any lookup has happened (0/0 is not a ratio)."""
        total = self.hits_memory + self.hits_disk + self.misses
        if total == 0:
            return None
        return (self.hits_memory + self.hits_disk) / total

    @property
    def hit_ratio_shard(self) -> Optional[float]:
        """Shard-level hit ratio (the job layer's resume traffic)."""
        total = self.hits_shard + self.misses_shard
        if total == 0:
            return None
        return self.hits_shard / total

    def to_payload(self) -> dict:
        """JSON-ready form with the derived ratios included — the
        shape served by /v1/stats and ``cache info --json``."""
        payload = {
            "directory": self.directory,
            "disk_enabled": self.disk_enabled,
            "disk_error": self.disk_error,
            "memory_entries": self.memory_entries,
            "max_memory_entries": self.max_memory_entries,
            "disk_files": self.disk_files,
            "disk_bytes": self.disk_bytes,
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "stores": self.stores,
            "code_version": self.code_version,
            "hits_shard": self.hits_shard,
            "misses_shard": self.misses_shard,
            "stores_shard": self.stores_shard,
            "quarantined": self.quarantined,
            "hit_ratio": self.hit_ratio,
            "hit_ratio_shard": self.hit_ratio_shard,
        }
        return payload

    def summary_lines(self) -> Tuple[str, ...]:
        """Human-readable report for the CLI."""
        disk = "enabled" if self.disk_enabled else f"disabled ({self.disk_error})"

        def ratio(value: Optional[float]) -> str:
            return "n/a" if value is None else f"{value:.1%}"

        return (
            f"directory    : {self.directory}",
            f"disk layer   : {disk}",
            f"code version : {self.code_version}",
            f"memory       : {self.memory_entries}/{self.max_memory_entries} entries",
            f"disk         : {self.disk_files} files, {self.disk_bytes} bytes",
            f"hits         : {self.hits_memory} memory, {self.hits_disk} disk",
            f"misses       : {self.misses}",
            f"stores       : {self.stores}",
            f"hit ratio    : {ratio(self.hit_ratio)} entry, "
            f"{ratio(self.hit_ratio_shard)} shard",
            f"shard level  : {self.hits_shard} hits, {self.misses_shard} "
            f"misses, {self.stores_shard} stores",
            f"quarantined  : {self.quarantined} entries",
        )


class SimulationCache:
    """Memory-LRU + on-disk store of simulation outcome batches."""

    def __init__(
        self,
        directory: Optional[Path] = None,
        max_memory_entries: int = _DEFAULT_MAX_MEMORY_ENTRIES,
        disk: bool = True,
    ) -> None:
        if max_memory_entries < 1:
            raise InvalidParameterError(
                f"max_memory_entries must be >= 1, got {max_memory_entries}"
            )
        self._directory = Path(directory) if directory else default_cache_dir()
        self._max_memory_entries = max_memory_entries
        # `_disk_configured` is the caller's intent; `_disk_enabled` may
        # later degrade at runtime (unwritable directory) without
        # rewriting that intent — reconfiguration starts from intent.
        self._disk_configured = disk
        self._disk_enabled = disk
        self._disk_error: Optional[str] = None if disk else "disk layer off"
        self._memory: OrderedDict[str, OutcomeBatch] = OrderedDict()
        # The job layer reads and writes from concurrent driver
        # threads; the lock guards the memory OrderedDict and counters
        # (disk publication is already atomic via os.replace).
        self._lock = threading.RLock()
        self._hits_memory = 0
        self._hits_disk = 0
        self._misses = 0
        self._stores = 0
        self._hits_shard = 0
        self._misses_shard = 0
        self._stores_shard = 0
        self._quarantined = 0

    @property
    def directory(self) -> Path:
        """The on-disk root this cache reads and writes."""
        return self._directory

    def lookup(
        self, request: SimulationRequest, backend_name: str
    ) -> Optional[OutcomeBatch]:
        """The cached outcomes for ``(request, backend)``, or ``None``."""
        return self._lookup(
            cache_key(request, backend_name), request, backend_name, None
        )

    def lookup_shard(
        self,
        request: SimulationRequest,
        backend_name: str,
        trial_indices: Sequence[int],
    ) -> Optional[OutcomeBatch]:
        """The cached outcomes of one trial shard, or ``None``.

        ``trial_indices`` must be the contiguous range the shard was
        stored under (the job layer's deterministic chunking).
        """
        start, count = int(trial_indices[0]), len(trial_indices)
        key = shard_cache_key(request, backend_name, start, count)
        return self._lookup(key, request, backend_name, (start, count))

    def _lookup(
        self,
        key: str,
        request: SimulationRequest,
        backend_name: str,
        shard: Optional[Tuple[int, int]],
    ) -> Optional[OutcomeBatch]:
        level = "entry" if shard is None else "shard"
        with child_span("cache.lookup", level=level) as sp:
            outcome, cached = self._lookup_counted(
                key, request, backend_name, shard
            )
            _LOOKUPS_TOTAL.inc(outcome=outcome, level=level)
            if sp is not None:
                sp.set_attribute("outcome", outcome)
            return cached

    def _lookup_counted(
        self,
        key: str,
        request: SimulationRequest,
        backend_name: str,
        shard: Optional[Tuple[int, int]],
    ) -> Tuple[str, Optional[OutcomeBatch]]:
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self._hits_memory += 1
                if shard is not None:
                    self._hits_shard += 1
                return "hit_memory", cached
        outcomes = self._read_disk(key, request, backend_name, shard)
        with self._lock:
            if outcomes is not None:
                self._remember(key, outcomes)
                self._hits_disk += 1
                if shard is not None:
                    self._hits_shard += 1
                return "hit_disk", outcomes
            self._misses += 1
            if shard is not None:
                self._misses_shard += 1
            return "miss", None

    def store(
        self,
        request: SimulationRequest,
        backend_name: str,
        outcomes: OutcomeBatch,
    ) -> None:
        """Record the outcomes of one executed request."""
        key = cache_key(request, backend_name)
        with self._lock:
            self._remember(key, outcomes)
            self._stores += 1
        _STORES_TOTAL.inc(level="entry")
        self._write_disk(key, request, backend_name, outcomes, None)

    def store_shard(
        self,
        request: SimulationRequest,
        backend_name: str,
        trial_indices: Sequence[int],
        outcomes: OutcomeBatch,
    ) -> None:
        """Record the outcomes of one completed trial shard.

        The job layer writes every finished shard through here as it
        lands, which is what makes killed jobs resumable.
        """
        start, count = int(trial_indices[0]), len(trial_indices)
        key = shard_cache_key(request, backend_name, start, count)
        with self._lock:
            self._remember(key, outcomes)
            self._stores += 1
            self._stores_shard += 1
        _STORES_TOTAL.inc(level="shard")
        self._write_disk(key, request, backend_name, outcomes, (start, count))

    def clear(self, memory: bool = True, disk: bool = True) -> int:
        """Drop cached entries; returns the number of disk files removed."""
        if memory:
            with self._lock:
                self._memory.clear()
        removed = 0
        if disk and self._directory.is_dir():
            for path in self._directory.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def prune(self, max_bytes: int) -> PruneResult:
        """Evict least-recently-used disk entries down to ``max_bytes``.

        "Recently used" is the file's modification time: stores write
        it and every disk hit refreshes it (``os.utime``), so eviction
        order follows actual access order across processes.  The
        memory layer is untouched — it is already entry-bounded.
        """
        if max_bytes < 0:
            raise InvalidParameterError(
                f"max_bytes must be >= 0, got {max_bytes}"
            )
        entries: List[Tuple[float, int, Path]] = []
        if self._directory.is_dir():
            for path in self._directory.glob("*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest last_used first
        total = sum(size for _, size, _ in entries)
        remaining_files = len(entries)
        removed = 0
        freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
            remaining_files -= 1
        return PruneResult(
            removed_files=removed,
            freed_bytes=freed,
            remaining_files=remaining_files,
            remaining_bytes=total,
        )

    def verify(self, repair: bool = False) -> CacheVerifyResult:
        """Scan every disk entry against its embedded checksum.

        Reports entries whose container fails to parse or whose digest
        does not match the body — bit flips, truncation, and legacy
        pre-checksum files all count.  With ``repair=True`` each bad
        entry is quarantined immediately (the same move a lookup would
        perform on first touch); without it the scan only reports.
        """
        corrupt: List[str] = []
        scanned = 0
        ok = 0
        quarantined = 0
        if self._directory.is_dir():
            for path in sorted(self._directory.glob("*.pkl")):
                scanned += 1
                try:
                    data = path.read_bytes()
                except OSError:
                    corrupt.append(path.name)
                    continue
                opened = _open_container(data)
                if opened is None or (
                    opened[0] == _FORMAT_VERSION and _decode_entry(data) is None
                ):
                    corrupt.append(path.name)
                    if repair:
                        self._quarantine(path)
                        quarantined += 1
                else:
                    ok += 1
        return CacheVerifyResult(
            scanned=scanned,
            ok=ok,
            corrupt=tuple(corrupt),
            quarantined=quarantined,
        )

    def info(self) -> CacheInfo:
        """Configuration + hit/miss counters + disk usage."""
        disk_files = 0
        disk_bytes = 0
        if self._directory.is_dir():
            for path in self._directory.glob("*.pkl"):
                try:
                    disk_bytes += path.stat().st_size
                    disk_files += 1
                except OSError:
                    pass
        with self._lock:
            return CacheInfo(
                directory=str(self._directory),
                disk_enabled=self._disk_enabled,
                disk_error=self._disk_error,
                memory_entries=len(self._memory),
                max_memory_entries=self._max_memory_entries,
                disk_files=disk_files,
                disk_bytes=disk_bytes,
                hits_memory=self._hits_memory,
                hits_disk=self._hits_disk,
                misses=self._misses,
                stores=self._stores,
                code_version=CODE_VERSION,
                hits_shard=self._hits_shard,
                misses_shard=self._misses_shard,
                stores_shard=self._stores_shard,
                quarantined=self._quarantined,
            )

    def _remember(self, key: str, outcomes: OutcomeBatch) -> None:
        self._memory[key] = outcomes
        self._memory.move_to_end(key)
        while len(self._memory) > self._max_memory_entries:
            self._memory.popitem(last=False)

    def _path_for(self, key: str) -> Path:
        return self._directory / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a failed entry out of the served store, best-effort.

        Quarantined files keep their name under ``quarantine/`` so a
        damaged entry can be diffed against its eventual replacement.
        Deleting is never done — the byte pattern of a corruption is
        exactly the evidence a post-mortem needs.
        """
        try:
            target_dir = path.parent / QUARANTINE_DIR
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            # Fall back to unlinking so the bad entry is at least
            # never served again.
            try:
                path.unlink()
            except OSError:
                return
        with self._lock:
            self._quarantined += 1
        _QUARANTINED_TOTAL.inc()

    def _read_disk(
        self,
        key: str,
        request: SimulationRequest,
        backend_name: str,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Optional[OutcomeBatch]:
        if not self._disk_enabled:
            return None
        path = self._path_for(key)
        try:
            maybe_inject(
                "cache.disk_read",
                level="entry" if shard is None else "shard",
            )
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except TransientFaultError:
            # An injected read blip is not corruption: report a miss
            # (re-simulation covers it) but leave the entry alone.
            return None
        except OSError:
            return None
        decoded = _decode_entry(data)
        expected_trials = request.n_trials if shard is None else shard[1]
        if decoded is None or (
            len(decoded[1]), decoded[1].n_agents, decoded[1].move_budget
        ) != (expected_trials, request.n_agents, request.move_budget):
            # Failed the checksum, or its frame does not parse or does
            # not fit the request: quarantine and report a miss so the
            # caller transparently re-simulates.
            self._quarantine(path)
            return None
        header, outcomes = decoded
        if header.get("format") != _FORMAT_VERSION:
            return None
        if header.get("code_version") != CODE_VERSION:
            return None
        if header.get("backend") != backend_name:
            return None
        if header.get("fingerprint") != request_fingerprint(request):
            return None
        stored_shard = header.get("shard")
        if (None if stored_shard is None else tuple(stored_shard)) != shard:
            return None
        # Record last_used for LRU pruning; best-effort.
        try:
            os.utime(path)
        except OSError:
            pass
        return outcomes

    def _write_disk(
        self,
        key: str,
        request: SimulationRequest,
        backend_name: str,
        outcomes: OutcomeBatch,
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        if not self._disk_enabled:
            return
        meta = {
            "format": _FORMAT_VERSION,
            "code_version": CODE_VERSION,
            "backend": backend_name,
            "fingerprint": request_fingerprint(request),
            "shard": None if shard is None else list(shard),
        }
        data = _encode_entry(meta, outcomes)
        fault = maybe_inject(
            "cache.disk_write",
            level="entry" if shard is None else "shard",
        )
        if fault is not None:
            # Simulate a torn or bit-flipped write landing on disk: the
            # published file fails its own checksum, so the next read
            # detects and quarantines it.
            if fault.kind == "truncate":
                data = data[: max(1, len(data) // 2)]
            elif fault.kind == "corrupt":
                middle = len(data) // 2
                data = data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            # Atomic publish: a concurrent reader sees the old file or
            # the complete new one, never a torn write.
            fd, temp_name = tempfile.mkstemp(
                dir=self._directory, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(temp_name, self._path_for(key))
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except OSError as error:
            # Read-only or missing home: degrade to memory-only.
            self._disk_enabled = False
            self._disk_error = str(error)


_GLOBAL_CACHE: Optional[SimulationCache] = None


def _default_enabled() -> bool:
    return os.environ.get("REPRO_ANTS_CACHE", "1") != "0"


_CACHE_ENABLED = _default_enabled()


def get_cache() -> SimulationCache:
    """The process-wide cache instance (created lazily)."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = SimulationCache()
    return _GLOBAL_CACHE


def cache_enabled() -> bool:
    """Whether ``simulate()`` consults the cache by default."""
    return _CACHE_ENABLED


def configure_cache(
    enabled: Optional[bool] = None,
    directory: Optional[Path] = None,
    max_memory_entries: Optional[int] = None,
    disk: Optional[bool] = None,
) -> SimulationCache:
    """Reconfigure the process-wide cache; returns the new instance.

    Passing ``directory``/``max_memory_entries``/``disk`` replaces the
    instance (dropping in-memory entries); passing only ``enabled``
    flips the default-consultation switch without touching stored data.
    """
    global _GLOBAL_CACHE, _CACHE_ENABLED
    if enabled is not None:
        _CACHE_ENABLED = enabled
    if directory is not None or max_memory_entries is not None or disk is not None:
        current = get_cache()
        _GLOBAL_CACHE = SimulationCache(
            directory=directory if directory is not None else current.directory,
            max_memory_entries=(
                max_memory_entries
                if max_memory_entries is not None
                else current._max_memory_entries
            ),
            # Inherit the configured intent, not any runtime-degraded
            # state: pointing the cache at a new (writable) directory
            # must bring the disk layer back.
            disk=disk if disk is not None else current._disk_configured,
        )
    return get_cache()
