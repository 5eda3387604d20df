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

Execution infrastructure (executors, runlogs, the cache itself) is such
an arbitrary object.  Tasks carry only what their result depends on; the
run's executor, runlog and cache travel beside them, never inside.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import types
from pathlib import Path
from typing import Any, List

#: Bumped whenever the key derivation itself changes shape, so stores
#: written by an older scheme read as misses instead of wrong hits.
KEY_VERSION = 2


class Uncacheable(Exception):
    """The value cannot participate in a stable cache key."""


_FUNCTION_TYPES = (types.FunctionType, types.BuiltinFunctionType,
                   types.MethodType)


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
    if isinstance(value, (list, tuple)):
        return ["seq", [_canon(v) for v in value]]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted((_canon(v) for v in value), key=_sort_key)]
    if isinstance(value, dict):
        pairs: List[List[Any]] = [[_canon(key), _canon(val)]
                                  for key, val in value.items()]
        pairs.sort(key=lambda pair: _sort_key(pair[0]))
        return ["map", pairs]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return ["dc", _qualname(type(value)),
                {spec.name: _canon(getattr(value, spec.name))
                 for spec in dataclasses.fields(value)}]
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
    """
    return _canon(value)


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
