"""Code fingerprints: which sources does a trial function depend on?

A cache hit is only sound if the code that would recompute the result is
the code that produced it.  Pinning the whole repository into every key
would be safe but useless — touching a docstring in ``repro.rtc`` must
not invalidate web-study entries.  Instead each trial function gets a
*code fingerprint*: the SHA-256 of the sources of the ``repro.*``
modules it transitively imports, found through each module's import
targets (:func:`repro.lint.project.parse_module`).  Editing any module a
trial depends on flips the fingerprint (a miss, recompute); editing an
unrelated module leaves it alone (still a hit).

The walk is an over-approximation by design: module-level *and*
function-level imports both count, and ``import pkg.b``, ``from pkg.b
import f`` and ``from pkg.b import *`` all pull in the whole ``pkg.b``
module.  An over-approximation can only cause spurious recomputation,
never a stale hit — the safe direction for a cache.

Trial functions defined outside the package root (tests, notebooks) are
hashed from their own module source via :data:`sys.modules`, then their
imports are followed *into* the root; an unlocatable module raises
:class:`~repro.cache.keys.Uncacheable` and the trial simply runs
uncached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.cache.keys import Uncacheable
from repro.lint.project import ModuleInfo, module_name_for, parse_module

#: Dotted module name -> parsed module, for every module under a root.
ModuleTable = Dict[str, ModuleInfo]

#: Memoized module tables keyed by package root (one parse per session).
_MODELS: Dict[Path, ModuleTable] = {}
#: Memoized fingerprints keyed by (root, start-module set).
_FINGERPRINTS: Dict[Tuple[Path, FrozenSet[str]], str] = {}


def clear_caches() -> None:
    """Forget memoized models and fingerprints (tests edit sources)."""
    _MODELS.clear()
    _FINGERPRINTS.clear()


def package_root() -> Path:
    """Directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def project_model(root: Optional[Path] = None) -> ModuleTable:
    """Parse-once import table of every module under ``root``."""
    root = (root or package_root()).resolve()
    model = _MODELS.get(root)
    if model is None:
        model = {}
        for path in sorted(root.rglob("*.py")):
            name = module_name_for(path)
            try:
                model[name] = parse_module(
                    name, path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                continue  # unreadable/broken files cannot be depended on
        _MODELS[root] = model
    return model


def _module_of_target(model: ModuleTable, target: str) -> Optional[str]:
    """Longest known module prefix of an import target.

    Import tables record *symbol* targets (``repro.device.Device``); the
    dependency is the module that defines the symbol, found by trimming
    dotted components until a known module name remains.
    """
    parts = target.split(".")
    for length in range(len(parts), 0, -1):
        name = ".".join(parts[:length])
        if name in model:
            return name
    return None


def _external_module(name: str) -> Optional[ModuleInfo]:
    """Parse an imported-but-outside-the-root module (tests, scripts)."""
    module = sys.modules.get(name)
    path = getattr(module, "__file__", None)
    if module is None or not path or not Path(path).exists():
        return None
    try:
        return parse_module(name, Path(path).read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None


def fingerprint_modules(start: Iterable[str],
                        root: Optional[Path] = None) -> str:
    """Digest of the sources reachable from ``start`` through imports.

    ``start`` names modules (dotted); each must live under ``root`` or
    be importable enough to appear in :data:`sys.modules` with a real
    file.  Raises :class:`Uncacheable` when a start module cannot be
    located — the caller must not cache what it cannot fingerprint.
    """
    root = (root or package_root()).resolve()
    start_set = frozenset(start)
    memo_key = (root, start_set)
    cached = _FINGERPRINTS.get(memo_key)
    if cached is not None:
        return cached
    model = project_model(root)
    sources: Dict[str, str] = {}
    seen: Set[str] = set()
    stack = sorted(start_set)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        info = model.get(name)
        if info is None:
            info = _external_module(name)
        if info is None:
            if name in start_set:
                raise Uncacheable(
                    f"cannot locate source for module {name!r}; its "
                    f"trials run uncached")
            continue  # a dep outside the root: not part of the contract
        sources[name] = info.source
        for target in sorted(info.imports):
            dep = _module_of_target(model, target)
            if dep is not None:
                stack.append(dep)
    digest = hashlib.sha256()
    for name in sorted(sources):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(sources[name].encode("utf-8"))
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()[:16]
    _FINGERPRINTS[memo_key] = fingerprint
    return fingerprint


def _note_module(value: Any, modules: Set[str]) -> None:
    name = getattr(value, "__module__", None)
    if isinstance(name, str) and name:
        modules.add(name)


def start_modules(obj: Any, _depth: int = 0) -> Set[str]:
    """Modules whose code the trial object directly references.

    The trial function's own module plus the modules of any objects it
    carries (a dataclass task holds a study, specs, a fault plan — each
    contributes its defining module).  Transitive imports are then
    resolved by :func:`fingerprint_modules`; recursion here is shallow
    because imports, not object graphs, carry the rest.
    """
    modules: Set[str] = set()
    if _depth > 4 or obj is None or isinstance(obj, (bool, int, float, str,
                                                     bytes, Path)):
        return modules
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            modules |= start_modules(item, _depth + 1)
        return modules
    if isinstance(obj, dict):
        for item in obj.values():
            modules |= start_modules(item, _depth + 1)
        return modules
    if isinstance(obj, type):
        _note_module(obj, modules)
        return modules
    if callable(obj) and not isinstance(obj, type) and hasattr(obj, "__qualname__"):
        _note_module(obj, modules)
        self_obj = getattr(obj, "__self__", None)
        if self_obj is not None:
            modules |= start_modules(self_obj, _depth + 1)
        return modules
    _note_module(type(obj), modules)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for spec in dataclasses.fields(obj):
            modules |= start_modules(getattr(obj, spec.name), _depth + 1)
    return modules


def code_fingerprint(obj: Any, root: Optional[Path] = None) -> str:
    """Code fingerprint for a trial function or task object."""
    modules = {name for name in start_modules(obj) if name != "builtins"}
    if not modules:
        raise Uncacheable(
            f"no source modules discoverable for {type(obj).__qualname__}")
    return fingerprint_modules(sorted(modules), root=root)


__all__ = [
    "clear_caches",
    "code_fingerprint",
    "fingerprint_modules",
    "package_root",
    "project_model",
    "start_modules",
]
