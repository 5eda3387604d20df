"""Content-addressed trial-result store with incremental invalidation.

Layout under the cache root (``--cache DIR`` / ``REPRO_CACHE``)::

    <root>/repro-cache.json                     store marker + version
    <root>/objects/<aa>/<digest>.cache.json     one entry per trial

Each entry is keyed by :func:`~repro.cache.keys.trial_key` — a digest of
``(experiment, trial index, derived seed, params digest, code
fingerprint)``, where the params digest is the SHA-256 of the sweep's
canonical task and extras, computed once per sweep by
:class:`TrialKeyer` — so a hit means "this exact code would recompute
this exact trial."  Two payload kinds cover the two execution layers:

* ``"record"`` — a journal row (:class:`~repro.core.experiments.
  TrialRecord` minus host timing); replaying it reproduces journal bytes
  exactly, which is what keeps cold and warm runs byte-identical.
* ``"pickle"`` — a base64-pickled study result (page loads, streaming
  sessions) for the plain ``Executor.map`` sweeps.

Single-writer discipline mirrors the journal and the runlog: only the
parent process consults or writes the cache (workers return results; the
executor that carries the run's :class:`TrialCache` never ships it to a
worker), and every write is an atomic tmp-then-replace so a killed run
never leaves a torn entry.  simlint rule CSH801 flags
``*.cache.json`` writes outside this package.

:class:`TrialKeyer` is the only reader and writer the runners use: its
:meth:`~TrialKeyer.lookup` validates a hit through the sweep's
:class:`Codec` and demotes anything it cannot vouch for to a miss, and
:meth:`~TrialKeyer.store` encodes and writes a computed result.  This
module is therefore the only code that writes :class:`CacheStats`.
:mod:`repro.core.pipeline` drives both for every runner and sweep.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Tuple, Union

from repro.cache.fingerprint import code_fingerprint
from repro.cache.keys import (
    Uncacheable,
    canonical_digest,
    canonicalize,
    trial_key,
)

#: Entry schema version; a mismatch reads as a miss, never an error.
CACHE_VERSION = 1

#: Store marker written once at the root (identifies a directory as a
#: repro cache so ``gc``/``clear`` refuse to run elsewhere).
CACHE_MARKER = "repro-cache.json"

#: Suffix of every entry file.
ENTRY_SUFFIX = ".cache.json"

KIND_RECORD = "record"
KIND_PICKLE = "pickle"

#: What :meth:`TrialKeyer.lookup` returns when nothing trustworthy is
#: stored (a stored ``None`` is a legitimate result, so not ``None``).
MISS = object()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one run (parent process only)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Trials whose key could not be derived (lambda tasks, exotic
    #: params); they execute normally and never touch the store.
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> Optional[float]:
        """Hits over lookups, or ``None`` when nothing was looked up."""
        if not self.lookups:
            return None
        return self.hits / self.lookups

    def line(self) -> str:
        """One-line summary for the post-run stderr report."""
        text = (f"cache: {self.hits} hits, {self.misses} misses, "
                f"{self.stores} stores")
        ratio = self.hit_ratio
        if ratio is not None:
            text += f" ({ratio:.0%} hit ratio)"
        return text


class TrialCache:
    """Sharded on-disk store of content-addressed trial results."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.stats = CacheStats()

    # -- addressing -------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def _ensure_marker(self) -> None:
        marker = self.root / CACHE_MARKER
        if not marker.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            marker.write_text(json.dumps(
                {"version": CACHE_VERSION,
                 "layout": f"objects/<2-hex>/<digest>{ENTRY_SUFFIX}"},
                sort_keys=True) + "\n", encoding="utf-8")

    # -- lookup / store ---------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The entry stored under ``key``, or ``None`` (counted a miss).

        Any unreadable, torn, or version-mismatched entry is a miss: the
        cache may only ever *skip* recomputation it can vouch for.
        """
        path = self._entry_path(key)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if not isinstance(raw, dict) or raw.get("version") != CACHE_VERSION:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return raw

    def put(self, key: str, *, experiment: str, trial: int, kind: str,
            payload: Any, fingerprint: str) -> None:
        """Atomically write one entry (parent process only)."""
        entry = {
            "version": CACHE_VERSION,
            "key": key,
            "experiment": experiment,
            "trial": trial,
            "kind": kind,
            "payload": payload,
            "fingerprint": fingerprint,
        }
        self._ensure_marker()
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        self.stats.stores += 1

    # -- maintenance ------------------------------------------------------

    def iter_entries(self) -> Iterator[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        yield from sorted(objects.glob(f"*/*{ENTRY_SUFFIX}"))

    def entry_count(self) -> int:
        return sum(1 for _ in self.iter_entries())

    def total_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.iter_entries())

    def _checked_root(self) -> None:
        if not (self.root / CACHE_MARKER).exists():
            raise ValueError(
                f"{self.root} has no {CACHE_MARKER} marker; refusing to "
                f"treat it as a repro cache")

    def gc(self, max_age_days: Optional[float] = None,
           max_bytes: Optional[int] = None) -> int:
        """Delete stale entries; returns how many were removed.

        ``max_age_days`` drops entries older than the cutoff;
        ``max_bytes`` then drops oldest-first until the store fits.
        Age comes from the entry file's mtime — a host-side maintenance
        concern, not part of any result.
        """
        self._checked_root()
        now = time.time()  # simlint: disable=DET001 - host-side gc policy
        entries = [(path.stat().st_mtime, path)
                   for path in self.iter_entries()]
        removed = 0
        kept: List[Tuple[float, Path]] = []
        for mtime, path in entries:
            if (max_age_days is not None
                    and now - mtime > max_age_days * 86400.0):
                path.unlink(missing_ok=True)
                removed += 1
            else:
                kept.append((mtime, path))
        if max_bytes is not None:
            kept.sort()  # oldest first
            total = sum(path.stat().st_size for _, path in kept)
            while kept and total > max_bytes:
                _, path = kept.pop(0)
                total -= path.stat().st_size
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        self._checked_root()
        removed = 0
        for path in self.iter_entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed


def encode_result(value: Any) -> str:
    """Base64-pickled payload for arbitrary study results."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_result(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


@dataclass(frozen=True)
class Codec:
    """How one sweep's results become cache payloads and back.

    ``encode`` returns the payload, or ``None`` for a result that must
    not be stored (a failed trial re-runs deterministically anyway).
    ``decode`` rebuilds the result stored for trial index ``trial`` and
    raises on anything it cannot vouch for.
    """

    kind: str
    encode: Callable[[Any], Any]
    decode: Callable[[Any, int], Any]


#: Plain ``Executor.map`` sweeps: any result, base64-pickled.
PICKLE_CODEC = Codec(KIND_PICKLE, encode_result,
                     lambda payload, trial: decode_result(payload))


@dataclass
class TrialKeyer:
    """Per-sweep binding of (cache, experiment, params digest, code).

    Canonicalizing the task, hashing it into ``params`` and
    fingerprinting its code once per sweep — not once per trial — keeps
    the per-trial cost to one SHA-256 over a document of a few hundred
    bytes, however large the task.
    """

    cache: TrialCache
    experiment: str
    #: SHA-256 hex digest of the canonical ``{"task", "extra"}`` params.
    params: str
    fingerprint: str
    codec: Codec = PICKLE_CODEC

    @classmethod
    def create(cls, cache: Optional[TrialCache], task: Any, *,
               experiment: str, extra: Any = None,
               code_extra: Tuple[Any, ...] = (),
               codec: Codec = PICKLE_CODEC) -> Optional["TrialKeyer"]:
        """A keyer for this sweep, or ``None`` when caching cannot apply.

        ``extra`` carries sweep-level parameters that live outside the
        task object (a robust runner's retry/budget policy);
        ``code_extra`` names additional objects (e.g. the runner class)
        whose modules join the fingerprint without entering the key;
        ``codec`` picks the payload format (it never enters the key).
        Any :class:`Uncacheable` piece disables caching for the whole
        sweep — counted, never raised.
        """
        if cache is None:
            return None
        try:
            fingerprint = code_fingerprint((task, *code_extra)
                                           if code_extra else task)
            params = canonical_digest({"task": canonicalize(task),
                                       "extra": canonicalize(extra)})
        except Uncacheable:
            cache.stats.uncacheable += 1
            return None
        return cls(cache=cache, experiment=experiment, params=params,
                   fingerprint=fingerprint, codec=codec)

    def key(self, trial: int, item: Any) -> Optional[str]:
        try:
            return trial_key(self.experiment, trial, item, self.params,
                             self.fingerprint)
        except Uncacheable:
            self.cache.stats.uncacheable += 1
            return None

    def lookup(self, key: str, trial: int) -> Any:
        """The result stored under ``key`` for ``trial``, or :data:`MISS`.

        An entry of another payload kind, or one the codec cannot decode
        or rejects, is demoted: the hit :meth:`TrialCache.get` booked
        becomes a miss, and the trial is recomputed.
        """
        entry = self.cache.get(key)
        if entry is None:
            return MISS
        try:
            if entry.get("kind") == self.codec.kind:
                return self.codec.decode(entry["payload"], trial)
        except Exception:
            pass
        self.cache.stats.hits -= 1
        self.cache.stats.misses += 1
        return MISS

    def store(self, key: str, trial: int, result: Any) -> bool:
        """Store one computed result; ``False`` when nothing was written.

        A result the codec declines is skipped; one it cannot encode is
        counted uncacheable, never raised.
        """
        try:
            payload = self.codec.encode(result)
        except Exception:
            self.cache.stats.uncacheable += 1
            return False
        if payload is None:
            return False
        self.cache.put(key, experiment=self.experiment, trial=trial,
                       kind=self.codec.kind, payload=payload,
                       fingerprint=self.fingerprint)
        return True


__all__ = [
    "CACHE_MARKER",
    "CACHE_VERSION",
    "CacheStats",
    "Codec",
    "ENTRY_SUFFIX",
    "KIND_PICKLE",
    "KIND_RECORD",
    "MISS",
    "TrialCache",
    "TrialKeyer",
    "decode_result",
    "encode_result",
]
