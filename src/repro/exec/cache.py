"""Content-addressed result cache for proof obligations.

Keys are SHA-256 digests over a canonical serialization of everything the
obligation's result depends on: the logic term (via
:func:`repro.logic.canon.fingerprint`, which is stable across processes
and interning order), the enclosing program/theory text, and the prover
configuration.  Two layers:

* an in-memory dict (always on) -- makes re-verification of unchanged
  subprograms within one process (e.g. after each refactoring block, or a
  warm second ``verify_aes`` run) a hit;
* an optional on-disk store (one JSON file per key under a directory,
  conventionally ``.repro-cache/``) -- makes runs incremental *across*
  processes.  Only obligations that declare JSON codecs
  (:attr:`~repro.exec.obligation.Obligation.encode`/``decode``) use it.

Correctness stance: a hit replays the recorded result verbatim -- the same
``ProofResult``/``LemmaOutcome`` contents the original discharge produced
-- so every downstream statistic (VC outcome stages, auto-percentages,
lemma evidence levels) is identical to a cold run.  See DESIGN.md
("Obligation-level execution").
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

__all__ = ["make_key", "ResultCache", "default_cache",
           "package_fingerprint", "theory_fingerprint"]

_MISS = object()


def make_key(*parts: str) -> str:
    """SHA-256 over the concatenated key parts (separator-safe)."""
    payload = "\x1f".join(parts)
    return hashlib.sha256(payload.encode()).hexdigest()


def package_fingerprint(typed) -> str:
    """Stable digest of a typed MiniAda package (its printed source).

    Memoized on the object: packages are immutable after analysis and a
    fingerprint is needed once per obligation batch, not once per VC.
    """
    cached = getattr(typed, "_exec_fingerprint", None)
    if cached is not None:
        return cached
    from ..lang import print_package
    digest = hashlib.sha256(
        print_package(typed.package).encode()).hexdigest()
    try:
        typed._exec_fingerprint = digest
    except AttributeError:   # __slots__-restricted object: recompute next time
        pass
    return digest


def theory_fingerprint(theory) -> str:
    """Stable digest of a MiniPVS theory (its printed source)."""
    cached = getattr(theory, "_exec_fingerprint", None)
    if cached is not None:
        return cached
    from ..spec import print_theory
    digest = hashlib.sha256(print_theory(theory).encode()).hexdigest()
    try:
        theory._exec_fingerprint = digest
    except AttributeError:
        pass
    return digest


class ResultCache:
    """Two-layer (memory + optional disk) content-addressed result store."""

    #: ``.tmp`` files older than this at store open are orphans of a
    #: writer that died between ``mkstemp`` and ``os.replace``; younger
    #: ones may belong to a concurrent live writer and are left alone.
    STALE_TMP_SECONDS = 600.0

    #: An mtime more than this far in the *future* of a fresh wall-clock
    #: sample can only come from a clock step (files are stamped with the
    #: clock of their creation instant); its presence means wall-clock
    #: ages are untrustworthy for this sweep.
    CLOCK_STEP_SLACK_SECONDS = 5.0

    def __init__(self, disk_dir: Optional[os.PathLike] = None,
                 max_memory_entries: Optional[int] = None):
        """``max_memory_entries`` bounds the in-memory layer with
        least-recently-used eviction (``None``: unbounded, the historical
        behaviour).  Disk entries are never evicted: a memory-evicted key
        that was written through to disk is still a (slower) hit."""
        if max_memory_entries is not None and max_memory_entries < 1:
            raise ValueError(f"max_memory_entries must be >= 1, got "
                             f"{max_memory_entries!r}")
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self.max_memory_entries = max_memory_entries
        self._hits = 0
        self._misses = 0
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            self._sweep_tmp(older_than=self.STALE_TMP_SECONDS)

    # -- core ---------------------------------------------------------------

    def get(self, key: str,
            decode: Optional[Callable[[Any], Any]] = None
            ) -> Tuple[bool, Any]:
        """Return ``(hit, value)``.  Consults memory, then disk (when the
        caller supplies a decoder)."""
        with self._lock:
            value = self._memory.get(key, _MISS)
            if value is not _MISS:
                self._memory.move_to_end(key)
                self._hits += 1
                return True, value
        if self.disk_dir is not None and decode is not None:
            path = self._path(key)
            if path.is_file():
                try:
                    payload = json.loads(path.read_text())
                    value = decode(payload["value"])
                except (ValueError, KeyError, TypeError):
                    pass   # corrupt entry: treat as a miss, will be rewritten
                else:
                    with self._lock:
                        self._store(key, value)
                        self._hits += 1
                    return True, value
        with self._lock:
            self._misses += 1
        return False, None

    def _store(self, key: str, value: Any) -> None:
        """Insert as most recently used and evict over the cap.  Caller
        holds the lock."""
        memory = self._memory
        if key in memory:
            memory.move_to_end(key)
        memory[key] = value
        if self.max_memory_entries is not None:
            while len(memory) > self.max_memory_entries:
                memory.popitem(last=False)

    def put(self, key: str, value: Any,
            encode: Optional[Callable[[Any], Any]] = None) -> None:
        with self._lock:
            self._store(key, value)
        if self.disk_dir is not None and encode is not None:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = json.dumps({"key": key, "value": encode(value)})
            # Atomic publish: concurrent writers of the same key race to an
            # identical final state.
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _path(self, key: str) -> Path:
        return self.disk_dir / key[:2] / f"{key}.json"

    # -- maintenance / stats -------------------------------------------------

    def _sweep_tmp(self, older_than: float = 0.0) -> int:
        """Unlink orphaned ``.tmp`` files (a writer died between
        ``mkstemp`` and the atomic ``os.replace``).  With ``older_than``,
        only files whose mtime is at least that many seconds old go --
        the store-open sweep uses this so a concurrent writer's live
        temp file survives.  Returns the number removed.

        The age gate is robust to wall-clock steps: the clock is
        re-sampled per file (a single cutoff computed before a backwards
        step would make files stamped *after* the step look ancient),
        future-dated files are never deleted (they are live writers seen
        across a backwards step, not orphans), and any future-dated file
        is evidence the clock stepped during the window -- every age in
        the sweep is then suspect, so the grace period doubles."""
        if self.disk_dir is None:
            return 0
        removed = 0
        if not older_than:
            # clear(): the caller asserts no live writers -- unconditional.
            for entry in self.disk_dir.glob("*/*.tmp"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass   # already gone, or racing with its writer
            return removed
        ages = []
        suspicious = False
        for entry in self.disk_dir.glob("*/*.tmp"):
            try:
                mtime = entry.stat().st_mtime
            except OSError:
                continue   # already gone
            age = time.time() - mtime   # fresh sample per file
            if age < -self.CLOCK_STEP_SLACK_SECONDS:
                suspicious = True
            ages.append((entry, age))
        grace = older_than * (2.0 if suspicious else 1.0)
        for entry, age in ages:
            if age < grace:
                continue
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass   # already gone, or racing with its writer
        return removed

    def clear(self, memory_only: bool = False) -> None:
        with self._lock:
            self._memory.clear()
            self._hits = self._misses = 0
        if not memory_only and self.disk_dir is not None:
            for entry in self.disk_dir.glob("*/*.json"):
                try:
                    entry.unlink()
                except OSError:
                    pass
            self._sweep_tmp()   # orphaned temp files accumulate forever
                                # otherwise: clear() only globbed *.json

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses


_DEFAULT: Optional[ResultCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ResultCache:
    """The process-wide cache used when no explicit instance is given.

    Memory-only unless the ``REPRO_CACHE_DIR`` environment variable names
    a directory (conventionally ``.repro-cache``), in which case results
    with JSON codecs persist across processes.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            disk = os.environ.get("REPRO_CACHE_DIR") or None
            _DEFAULT = ResultCache(disk_dir=disk)
        return _DEFAULT
