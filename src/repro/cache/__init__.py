"""Content-addressed trial-result caching (``docs/caching.md``).

Every trial in this reproduction is a pure function of ``(experiment,
trial index, derived seed, trial parameters, code)``.  :class:`TrialCache`
exploits that: results are stored under a digest of exactly those five
facts, so a warm re-run skips every unchanged trial, and editing any
``repro.*`` module a trial transitively imports flips its
:mod:`code fingerprint <repro.cache.fingerprint>` and forces
recomputation of precisely the affected experiments — nothing more.

Entry points:

* :class:`TrialKeyer` — per-sweep keys plus validated lookup and store,
  which :mod:`repro.core.pipeline` drives for every runner and sweep with
  the cache the executor carries (``executor.cache``, beside
  ``executor.runlog``);
* ``python -m repro <figure> --cache DIR`` / ``REPRO_CACHE`` wire it up
  from the CLI; ``python -m repro cache stats|gc|clear`` maintains it.
"""

from repro.cache.fingerprint import (
    clear_caches,
    code_fingerprint,
    fingerprint_modules,
)
from repro.cache.keys import (
    KEY_VERSION,
    Uncacheable,
    canonical_json,
    canonicalize,
    trial_key,
)
from repro.cache.store import (
    CACHE_MARKER,
    CACHE_VERSION,
    CacheStats,
    Codec,
    ENTRY_SUFFIX,
    KIND_PICKLE,
    KIND_RECORD,
    MISS,
    TrialCache,
    TrialKeyer,
    decode_result,
    encode_result,
)

__all__ = [
    "CACHE_MARKER",
    "CACHE_VERSION",
    "CacheStats",
    "Codec",
    "ENTRY_SUFFIX",
    "KEY_VERSION",
    "KIND_PICKLE",
    "KIND_RECORD",
    "MISS",
    "TrialCache",
    "TrialKeyer",
    "Uncacheable",
    "canonical_json",
    "canonicalize",
    "clear_caches",
    "code_fingerprint",
    "decode_result",
    "encode_result",
    "fingerprint_modules",
    "trial_key",
]
