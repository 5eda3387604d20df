"""Module names and import tables, read from source on disk.

Two consumers share this:

* the linter names each file's dotted module with
  :func:`module_name_for`, so rule scopes (``obs``, ``parallel.supervisor``)
  never depend on the cwd or the checkout directory's name;
* :mod:`repro.cache.fingerprint` follows each module's
  :attr:`ModuleInfo.imports` to find the sources a trial depends on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, List, Set


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file."""

    name: str  #: dotted module name, e.g. ``repro.core.background``
    source: str
    #: Every fully qualified import target in the module: ``import a.b.c``
    #: is ``a.b.c``, and ``from .x import y`` inside ``pkg.mod`` is
    #: ``pkg.x.y``.
    imports: FrozenSet[str]


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, walking up through packages.

    The package chain is whatever parent directories carry an
    ``__init__.py``; a standalone file is a top-level module named by its
    stem.  ``pkg/__init__.py`` maps to ``pkg`` itself.
    """
    resolved = path.resolve()
    parts: List[str] = []
    if resolved.stem != "__init__":
        parts.append(resolved.stem)
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def _import_targets(tree: ast.Module, module: str) -> FrozenSet[str]:
    """Every import target in ``tree``, module-level and nested alike."""
    targets: Set[str] = set()
    package_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against the current package.
                # ``from . import x`` at level 1 inside pkg.mod -> pkg.x
                base = ".".join(
                    package_parts[: len(package_parts) - node.level])
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    targets.add(base)
                else:
                    targets.add(
                        f"{base}.{alias.name}" if base else alias.name)
    return frozenset(targets)


def parse_module(name: str, source: str) -> ModuleInfo:
    """Import table of ``source``, named ``name``; raises SyntaxError."""
    return ModuleInfo(name=name, source=source,
                      imports=_import_targets(ast.parse(source), name))


__all__ = ["ModuleInfo", "module_name_for", "parse_module"]
