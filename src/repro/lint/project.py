"""Whole-project source model for dataflow rules.

File rules (``Rule``) see one AST at a time, which is enough for
syntactic invariants but blind to anything that crosses a module
boundary — an unseeded RNG returned by a helper, a wall-clock value
laundered through two calls into a journal, a lambda smuggled into a
process-pool task.  :class:`ProjectModel` is the shared substrate for
rules that need the whole program:

* every file is parsed exactly once (reusing the parse also used for
  file rules, so ``--project`` does not double the AST work);
* a symbol table maps qualified names (``repro.core.background.make_rng``,
  ``repro.core.experiments.RobustTrialRunner._run_trial``) to their
  definitions;
* a per-module import table resolves local names to qualified targets,
  including ``import numpy as np`` aliases and relative imports, so
  :meth:`ProjectModel.resolve_call` names the project function a call
  may reach (unresolvable calls come back ``None`` — the analyses on top
  treat "unknown" as benefit-of-the-doubt).

Everything is built deterministically: modules and symbols are
stored and iterated in sorted order so repeated runs produce
byte-identical reports (the linter holds itself to the determinism bar
it enforces).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  #: ``module.func`` or ``module.Class.method``
    module: str
    node: ast.AST  #: FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None  #: owning class qualname, if a method

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def params(self) -> List[str]:
        """Positional parameter names in order (``self`` included)."""
        args = self.node.args  # type: ignore[attr-defined]
        return [a.arg for a in args.posonlyargs + args.args]

    @property
    def keyword_only_params(self) -> List[str]:
        args = self.node.args  # type: ignore[attr-defined]
        return [a.arg for a in args.kwonlyargs]


@dataclass
class ClassInfo:
    """One class definition with its methods and field names."""

    qualname: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Names assigned as ``self.X = ...`` anywhere in the class, plus
    #: annotated class-level fields (covers dataclasses).
    fields: Tuple[str, ...] = ()
    base_names: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def init(self) -> Optional[FunctionInfo]:
        return self.methods.get("__init__")

    def init_params(self) -> List[str]:
        """Constructor parameter names (``self`` stripped).

        For ``@dataclass`` classes without an explicit ``__init__``, the
        annotated field order is the constructor signature.
        """
        ctor = self.init
        if ctor is not None:
            params = ctor.params
            return params[1:] if params and params[0] == "self" else params
        return [name for name in self.fields]


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str  #: dotted module name, e.g. ``repro.core.background``
    path: str  #: display path (relative to the lint root when possible)
    tree: ast.Module
    source: str
    #: local name -> qualified target for every import in the module.
    imports: Dict[str, str] = field(default_factory=dict)


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


def _collect_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Map each imported local name to its fully qualified target."""
    table: Dict[str, str] = {}
    package_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against the current package.
                # ``from . import x`` at level 1 inside pkg.mod -> pkg.x
                base_parts = package_parts[: len(package_parts) - node.level]
                base = ".".join(base_parts)
            else:
                base = node.module or ""
            if node.level and node.module:
                base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def _class_fields(node: ast.ClassDef) -> Tuple[str, ...]:
    names: List[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Assign) or isinstance(sub, ast.AnnAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    names.append(target.attr)
    seen: Set[str] = set()
    unique = []
    for name in names:
        if name not in seen:
            seen.add(name)
            unique.append(name)
    return tuple(unique)


class ProjectModel:
    """Parse-once model of every linted file plus resolution helpers."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction -----------------------------------------------------

    def add_module(self, name: str, path: str, tree: ast.Module,
                   source: str) -> ModuleInfo:
        info = ModuleInfo(name=name, path=path, tree=tree, source=source,
                          imports=_collect_imports(tree, name))
        self.modules[name] = info
        self._index_symbols(info)
        return info

    def _index_symbols(self, module: ModuleInfo) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module.name}.{stmt.name}"
                self.functions[qual] = FunctionInfo(
                    qualname=qual, module=module.name, node=stmt)
            elif isinstance(stmt, ast.ClassDef):
                class_qual = f"{module.name}.{stmt.name}"
                info = ClassInfo(
                    qualname=class_qual, module=module.name, node=stmt,
                    fields=_class_fields(stmt),
                    base_names=tuple(
                        name for name in (
                            _dotted(b) for b in stmt.bases) if name
                    ),
                )
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qual = f"{class_qual}.{sub.name}"
                        method = FunctionInfo(
                            qualname=method_qual, module=module.name,
                            node=sub, class_name=class_qual)
                        info.methods[sub.name] = method
                        self.functions[method_qual] = method
                self.classes[class_qual] = info

    # -- resolution -------------------------------------------------------

    def resolve(self, module: ModuleInfo, dotted: str,
                func: Optional[FunctionInfo] = None) -> Optional[str]:
        """Qualified name for a dotted reference inside ``module``.

        Resolution is approximate by design: the first path component is
        looked up in the module's imports, then among the module's own
        top-level definitions; anything else (locals, attributes of
        unknown objects) is ``None``, which analyses treat as unknown.
        """
        head, _, rest = dotted.partition(".")
        target: Optional[str] = None
        if head in module.imports:
            target = module.imports[head]
        elif f"{module.name}.{head}" in self.functions:
            target = f"{module.name}.{head}"
        elif f"{module.name}.{head}" in self.classes:
            target = f"{module.name}.{head}"
        elif func is not None and func.class_name is not None and head == "self":
            # ``self.method`` resolves to the owning class's method.
            if rest and f"{func.class_name}.{rest}" in self.functions:
                return f"{func.class_name}.{rest}"
            return None
        if target is None:
            return None
        resolved = f"{target}.{rest}" if rest else target
        return self._follow_reexport(resolved)

    def _follow_reexport(self, qualname: str, depth: int = 0) -> str:
        """Chase ``from x import y`` chains through package __init__ files."""
        if depth > 4 or qualname in self.functions or qualname in self.classes:
            return qualname
        module_part, _, leaf = qualname.rpartition(".")
        intermediate = self.modules.get(module_part)
        if intermediate is not None and leaf in intermediate.imports:
            return self._follow_reexport(
                intermediate.imports[leaf], depth + 1)
        return qualname

    def resolve_call(self, module: ModuleInfo, node: ast.Call,
                     func: Optional[FunctionInfo] = None) -> Optional[str]:
        """Qualified target of a call, or the raw dotted name if external.

        Project symbols come back as their definition qualname;
        non-project targets (``numpy.random.default_rng``) come back as
        the import-resolved dotted string so analyses can match on it.
        """
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        return self.resolve(module, dotted, func)

    # -- queries ----------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    def class_of(self, qualname: str) -> Optional[ClassInfo]:
        return self.classes.get(qualname)

    def function_module(self, func: FunctionInfo) -> ModuleInfo:
        return self.modules[func.module]


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "module_name_for",
]
