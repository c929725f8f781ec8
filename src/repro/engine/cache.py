"""Persistent content-addressed certificate cache.

Every conic solve performed by the verification pipeline is keyed by the
sha256 of its problem data plus the canonical serialisation of its solver
options (see :func:`repro.sdp.solve_cache_key`).  The cache stores the full
:class:`~repro.sdp.result.SolverResult` on disk, so re-verifying an unchanged
scenario replays every certificate from disk and performs **zero** SDP solves
— the property asserted by the engine's warm-cache tests.

Layout: ``<root>/<key[:2]>/<key>.pkl`` with atomic tmp-file + rename writes,
so concurrent worker processes can share one cache directory.  A corrupted or
truncated entry is treated as a miss, deleted, and counted in
:attr:`CacheStats.corrupted`.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..sdp.result import SolverResult
from ..utils import get_logger

LOGGER = get_logger("engine.cache")

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR``, else XDG cache dir."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-pll-sos"


@dataclass
class CacheStats:
    """Running counters of one :class:`CertificateCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "corrupted": self.corrupted}


def cache_rate_summary(stats: Dict[str, int]) -> Dict[str, object]:
    """Aggregate hit/miss counters into a reportable cache section.

    The single source of the ``hit_rate`` arithmetic — engine JSON reports,
    ``report --metrics`` and sweep frontier reports all quote this, so the
    incremental-recertification claims ("warm re-run ≈ 100% hits") are
    machine-checkable from any of them.
    """
    hits = int(stats.get("hits", 0))
    misses = int(stats.get("misses", 0))
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "writes": int(stats.get("writes", 0)),
        "corrupted": int(stats.get("corrupted", 0)),
        "lookups": lookups,
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }


class CertificateCache:
    """Content-addressed on-disk store of conic :class:`SolverResult` values.

    Satisfies the ``get``/``put`` protocol of
    :class:`repro.sdp.context.SolveContext`, with a small in-memory front so
    one process never deserialises the same entry twice.  The in-memory
    front and the stats counters are lock-guarded: a context shared by a
    thread pool drives concurrent get/put through one cache instance.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 memory_entries: int = 256):
        # expanduser so "~/.cache/..." lands in the home directory rather
        # than creating a literal "./~" directory.
        self.root = Path(root).expanduser() if root is not None \
            else default_cache_dir()
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: Dict[str, SolverResult] = {}
        self._memory_entries = max(0, int(memory_entries))
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be lowercase hex digests, got {key!r}")
        return self.root / key[:2] / f"{key}.pkl"

    def _remember(self, key: str, result: SolverResult) -> None:
        with self._lock:
            if self._memory_entries == 0:
                return
            while len(self._memory) >= self._memory_entries:
                # Drop the oldest entry (dict preserves insertion order).
                self._memory.pop(next(iter(self._memory)))
            self._memory[key] = result

    def _count(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + amount)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SolverResult]:
        with self._lock:
            cached = self._memory.get(key)
        if cached is not None:
            self._count("hits")
            return cached
        path = self.path_for(key)
        if not path.exists():
            self._count("misses")
            return None
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
            if not isinstance(result, SolverResult):
                raise TypeError(f"cache entry holds {type(result).__name__}")
        except Exception as exc:  # corrupted / truncated / wrong type
            self._count("corrupted")
            self._count("misses")
            LOGGER.warning("dropping corrupted cache entry %s: %s", path.name, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count("hits")
        self._remember(key, result)
        return result

    def put(self, key: str, result: SolverResult) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic write: concurrent workers racing on the same key both write
        # valid files and the rename picks one winner.
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=4)
            os.replace(tmp_name, path)
        except Exception:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("writes")
        self._remember(key, result)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        with self._lock:
            self._memory.clear()
        return removed

    def describe(self) -> str:
        return (f"CertificateCache({str(self.root)!r}: {len(self)} entries, "
                f"hits={self.stats.hits}, misses={self.stats.misses}, "
                f"writes={self.stats.writes}, corrupted={self.stats.corrupted})")

