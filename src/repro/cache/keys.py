"""Cache keys: canonical parameter encoding and the trial-key digest.

A cache entry is addressed purely by content: the SHA-256 of a canonical
JSON document describing ``(experiment, trial index, derived seed,
digest of the canonicalized sweep parameters, code fingerprint)``.  The
parameters are canonicalized and hashed once per sweep, so each trial's
document stays a few hundred bytes however large the task.  Nothing
about the host — executor shape, journal paths, wall clocks — may reach
the key, or a warm run on a different ``--jobs`` value would miss
entries it should hit.

:func:`canonicalize` maps the parameter objects the studies actually
pass around (dataclass specs, dicts of device kwargs, tuples of page
specs, module-level task callables) onto a JSON-serializable form with a
total order: dict pairs and set members are sorted by their canonical
serialization, dataclasses carry their qualified class name, and
functions are identified by ``module:qualname``.  Values that *cannot*
participate in a stable key — lambdas, closures, arbitrary objects —
raise :class:`Uncacheable`, and the caller degrades to plain execution
instead of guessing.

Execution infrastructure (executors, runlogs, the cache itself) is
skipped rather than rejected: a study config legitimately holds an
executor, but which executor ran a trial must never change its key.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import types
from pathlib import Path
from typing import Any, List

from repro.obs.runlog import NullRunLog, RunLog
from repro.parallel import Executor

#: Bumped whenever the key derivation itself changes shape, so stores
#: written by an older scheme read as misses instead of wrong hits.
KEY_VERSION = 2


class Uncacheable(Exception):
    """The value cannot participate in a stable cache key."""


#: Sentinel for values that are execution infrastructure: silently
#: omitted from keys rather than rejected (see module docstring).
_OMIT = object()

_FUNCTION_TYPES = (types.FunctionType, types.BuiltinFunctionType,
                   types.MethodType)

_INFRASTRUCTURE_TYPES = (Executor, RunLog, NullRunLog)


def _is_infrastructure(value: Any) -> bool:
    if isinstance(value, _INFRASTRUCTURE_TYPES):
        return True
    # The cache itself (repro.cache.store.TrialCache) is recognized by a
    # marker attribute instead of an isinstance check so this module
    # never imports the store (which imports this module for keys).
    return bool(getattr(value, "cache_infrastructure", False))


def _qualname(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _sort_key(canon: Any) -> str:
    return json.dumps(canon, sort_keys=True, separators=(",", ":"))


def _canon(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, bytes):
        return ["bytes", base64.b64encode(value).decode("ascii")]
    if isinstance(value, Path):
        return ["path", value.as_posix()]
    if _is_infrastructure(value):
        return _OMIT
    if isinstance(value, (list, tuple)):
        items = [_canon(v) for v in value]
        return ["seq", [item for item in items if item is not _OMIT]]
    if isinstance(value, (set, frozenset)):
        items = [item for item in (_canon(v) for v in value)
                 if item is not _OMIT]
        return ["set", sorted(items, key=_sort_key)]
    if isinstance(value, dict):
        pairs: List[List[Any]] = []
        for key, val in value.items():
            canon_key, canon_val = _canon(key), _canon(val)
            if canon_key is _OMIT or canon_val is _OMIT:
                continue
            pairs.append([canon_key, canon_val])
        pairs.sort(key=lambda pair: _sort_key(pair[0]))
        return ["map", pairs]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {}
        for spec in dataclasses.fields(value):
            item = _canon(getattr(value, spec.name))
            if item is _OMIT:
                continue
            fields[spec.name] = item
        return ["dc", _qualname(type(value)), fields]
    if isinstance(value, _FUNCTION_TYPES):
        qualname = getattr(value, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise Uncacheable(
                f"local function {qualname!r} has no stable identity "
                f"across runs; use a module-level function or a "
                f"dataclass task")
        return ["fn", f"{value.__module__}:{qualname}"]
    raise Uncacheable(
        f"cannot canonicalize a {type(value).__qualname__} value for a "
        f"cache key")


def canonicalize(value: Any) -> Any:
    """JSON-serializable canonical form of a trial parameter value.

    Raises :class:`Uncacheable` for values with no stable identity.
    Infrastructure values (executors, runlogs, caches) canonicalize to
    ``None`` at the top level — they never distinguish two trials.
    """
    out = _canon(value)
    return None if out is _OMIT else out


def canonical_json(value: Any) -> str:
    """Canonical JSON text of an already-canonicalized value."""
    return _sort_key(value)


def canonical_digest(value: Any) -> str:
    """SHA-256 hex digest of an already-canonicalized value."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def trial_key(experiment: str, trial: int, item: Any, params: Any,
              fingerprint: str) -> str:
    """Content digest addressing one trial's result.

    ``item`` is the executor-visible work item (the derived seed for
    runner sweeps, the page spec for grid sweeps); ``params`` must
    already be canonical — :class:`~repro.cache.store.TrialKeyer` passes
    the 64-hex :func:`canonical_digest` of the sweep's canonical params,
    computed once per sweep; ``fingerprint`` is the code fingerprint of
    the trial function's transitive ``repro.*`` sources.
    """
    return canonical_digest(["trialkey", KEY_VERSION, experiment,
                             int(trial), canonicalize(item), params,
                             fingerprint])


__all__ = [
    "KEY_VERSION",
    "Uncacheable",
    "canonical_digest",
    "canonical_json",
    "canonicalize",
    "trial_key",
]
