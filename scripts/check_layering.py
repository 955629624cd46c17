#!/usr/bin/env python
"""Fail if the engine-boundary layering rules are violated.

The engine core (:mod:`repro.core.engine`) is the transport-agnostic heart
of the DHT; keeping its dependency arrows pointed the right way is what
lets a future networked runtime reuse it unchanged.  This lint AST-walks
every module under ``src/repro`` and enforces seven rules:

1. **engine isolation** — modules in ``repro.core.engine`` import nothing
   from ``repro.sim``, ``repro.cluster``, ``repro.workloads``,
   ``repro.experiments`` or ``repro.metrics`` (the engine serves those
   layers, never the reverse);
2. **numpy-free interfaces** — ``repro/core/engine/interfaces.py`` must
   not import numpy (or any ``repro`` module) at runtime, so transport
   code can type against the Protocols without pulling in the columnar
   machinery (``TYPE_CHECKING``-guarded imports are allowed);
3. **no cross-layer private reaches** — no module outside ``repro/core``
   may access a ``_``-prefixed attribute on another object (``self._x``
   and module-private helpers defined in the same file are fine): the
   engine's state is reached through its public interfaces only;
4. **no dead public symbols** — every public function, class or method
   defined under ``src/repro`` has its name used (as a name or an
   attribute, imports and ``__all__`` strings not counting) somewhere in
   ``src/``, ``tests/``, ``examples/`` or ``bench/``, or is listed in
   :data:`KEPT_UNREFERENCED` with the reason it is kept.  The list can only
   shrink: an entry whose name has become referenced (or is gone) fails the
   check too;
5. **no unlisted unpickling** — every ``pickle.load`` / ``pickle.loads`` /
   ``pickle.Unpickler`` call under ``src/repro`` sits in a function listed in
   :data:`UNPICKLE_ALLOWED` with its call count and the reason it is kept
   (unpickling bytes from a socket or a file executes whatever they say),
   and nothing imports those names from ``pickle`` directly.  Like rule 4's
   list it can only shrink: a listed count above what the function holds
   fails too;
6. **one model** — no ``isinstance(..., GlobalDHT)`` /
   ``isinstance(..., LocalDHT)`` call and no ``GPDR`` name under
   ``src/repro``.  The global approach is a ``LocalDHT`` with one group
   that never splits, so such a check would silently misroute a global
   DHT; approach-dependent code reads ``config.is_grouped`` or
   ``dht.approach`` instead;
7. **no whole-store folds in checks** — ``_merge_segments`` (the fold of a
   store's pending rows into its hash tier) is referenced only inside
   :data:`FOLD_ALLOWED`: the point writes that must fold and the replay
   that repeats them.  Views and checks read the columns instead
   (``VnodeStore.newest_rows``), so a fold cannot creep back into one.

Run from the repository root (CI does)::

    python scripts/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Layers the engine core must never import from (rule 1).
FORBIDDEN_IN_ENGINE = (
    "repro.sim",
    "repro.cluster",
    "repro.workloads",
    "repro.experiments",
    "repro.metrics",
)

#: Runtime imports forbidden in the interface module (rule 2).
FORBIDDEN_IN_INTERFACES = ("numpy", "repro")

#: Dunder attributes are API, not private reaches (rule 3).
_DUNDER_OK = ("__",)

#: Trees whose code counts as a use of a public symbol (rule 4).
REFERENCE_ROOTS = ("src", "tests", "examples", "bench")

#: Public names deliberately kept although nothing references them (rule 4).
KEPT_UNREFERENCED = {
    "PlacementProtocol": "interface declaration: documents what the engine needs of placement",
    "StorageEngineProtocol": "interface declaration: documents what the engine needs of storage",
    "RecoveryProtocol": "interface declaration: documents what the engine needs of recovery",
}

#: Functions allowed to unpickle (rule 5): ``(module, qualified function) ->
#: (number of calls, why)``.
UNPICKLE_ALLOWED = {
    ("src/repro/cluster/messages.py", "decode"): (
        1, "bodies of the small messages; BulkLoadChunk and RangeAdopt are columnar"),
    ("src/repro/utils/columns.py", "ColumnReader.column"): (
        1, "the tagged fallback for object columns no typed column kind covers"),
    ("src/repro/core/durability.py", "DurableVnodeStore._read_wal"): (
        1, "WAL records, until they use repro.utils.columns"),
}

#: ``pickle`` attributes that unpickle (rule 5).
_UNPICKLERS = ("load", "loads", "Unpickler")

#: Model classes no ``isinstance`` may test (rule 6).
_MODEL_CLASSES = ("GlobalDHT", "LocalDHT")

#: The only functions that may fold a store into its hash tier (rule 7).
FOLD_ALLOWED = ("VnodeStore.put", "VnodeStore.delete", "VnodeStore.replay")


def _iter_modules() -> Iterator[Path]:
    yield from sorted(SRC_ROOT.rglob("*.py"))


def _imported_names(tree: ast.AST, runtime_only: bool = False) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, dotted module)`` for every import in ``tree``.

    With ``runtime_only=True``, imports nested under an
    ``if TYPE_CHECKING:`` block are skipped (they never execute).
    """
    type_checking_spans: List[Tuple[int, int]] = []
    if runtime_only:
        for node in ast.walk(tree):
            if isinstance(node, ast.If):
                test = node.test
                name = (
                    test.id
                    if isinstance(test, ast.Name)
                    else test.attr if isinstance(test, ast.Attribute) else None
                )
                if name == "TYPE_CHECKING":
                    end = max(n.end_lineno or n.lineno for n in node.body)
                    type_checking_spans.append((node.lineno, end))

    def _guarded(lineno: int) -> bool:
        return any(lo <= lineno <= hi for lo, hi in type_checking_spans)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _guarded(node.lineno):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if not _guarded(node.lineno):
                yield node.lineno, node.module


def _module_private_names(tree: ast.AST) -> set:
    """Top-level ``_``-prefixed definitions of a module (legal to use inside it)."""
    names = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return {n for n in names if n.startswith("_")}


def _private_reaches(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, "obj._attr")`` for private attribute access on
    anything other than ``self`` / ``cls``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        if not attr.startswith("_") or attr.startswith(_DUNDER_OK):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            continue
        base_text = ast.unparse(base) if hasattr(ast, "unparse") else "<expr>"
        yield node.lineno, f"{base_text}.{attr}"


def check() -> List[str]:
    errors: List[str] = []
    for path in _iter_modules():
        rel = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text(), filename=str(rel))
        in_engine = "core/engine" in rel.as_posix()
        is_interfaces = rel.as_posix().endswith("core/engine/interfaces.py")
        in_core = "repro/core" in rel.as_posix()

        if in_engine:
            for lineno, module in _imported_names(tree):
                if any(
                    module == layer or module.startswith(layer + ".")
                    for layer in FORBIDDEN_IN_ENGINE
                ):
                    errors.append(
                        f"{rel}:{lineno}: engine module imports {module} "
                        f"(the engine core must not depend on higher layers)"
                    )

        if is_interfaces:
            for lineno, module in _imported_names(tree, runtime_only=True):
                if any(
                    module == banned or module.startswith(banned + ".")
                    for banned in FORBIDDEN_IN_INTERFACES
                ):
                    errors.append(
                        f"{rel}:{lineno}: interfaces module imports {module} at "
                        f"runtime (must stay numpy-free and dependency-free; "
                        f"guard typing-only imports with TYPE_CHECKING)"
                    )

        if not in_core:
            own_privates = _module_private_names(tree)
            for lineno, reach in _private_reaches(tree):
                attr = reach.rsplit(".", 1)[1]
                # Module-private helpers used on the module's own objects
                # (e.g. dataclass fields named by this file) stay legal.
                if attr in own_privates:
                    continue
                errors.append(
                    f"{rel}:{lineno}: private attribute reach {reach} outside "
                    f"repro/core (promote it to an engine interface method)"
                )
    return errors


def _public_definitions(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, qualified name)`` for the public functions, classes
    and methods a module defines at its top level."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("_"):
                    yield member.lineno, f"{node.name}.{member.name}"


def _used_names() -> Set[str]:
    """Every identifier loaded as a name or an attribute under the reference roots."""
    used: Set[str] = set()
    for root in REFERENCE_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def check_dead_symbols() -> List[str]:
    """Rule 4: unreferenced public names outside the allowlist, and stale entries."""
    used = _used_names()
    dead: Set[str] = set()
    errors: List[str] = []
    for path in _iter_modules():
        rel = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text(), filename=str(rel))
        for lineno, qualname in _public_definitions(tree):
            if qualname.rpartition(".")[2] in used:
                continue
            dead.add(qualname)
            if qualname not in KEPT_UNREFERENCED:
                errors.append(
                    f"{rel}:{lineno}: public symbol {qualname} is referenced nowhere "
                    f"in {', '.join(REFERENCE_ROOTS)} (use it, delete it, or add it "
                    f"to KEPT_UNREFERENCED with a reason)"
                )
    errors += [
        f"scripts/check_layering.py: KEPT_UNREFERENCED lists {name!r}, which is "
        f"no longer an unreferenced public symbol (drop the entry)"
        for name in sorted(set(KEPT_UNREFERENCED) - dead)
    ]
    return errors


def _scoped(node: ast.AST, scope: str = "") -> Iterator[Tuple[ast.AST, str]]:
    """Yield ``(node, enclosing qualified name)`` for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        yield child, scope or "<module>"
        yield from _scoped(child, scope)


def _unpickle_calls(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, enclosing qualified name)`` of every unpickling call."""
    for node, scope in _scoped(tree):
        func = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr in _UNPICKLERS
            and isinstance(func.value, ast.Name)
            and func.value.id == "pickle"
        ):
            yield node.lineno, scope


def check_unpickling() -> List[str]:
    """Rule 5: unpickling outside :data:`UNPICKLE_ALLOWED`, and stale counts."""
    errors: List[str] = []
    found: Dict[Tuple[str, str], List[int]] = {}
    for path in _iter_modules():
        rel = path.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(path.read_text(), filename=rel)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "pickle":
                if any(alias.name in _UNPICKLERS for alias in node.names):
                    errors.append(
                        f"{rel}:{node.lineno}: imports an unpickler from pickle "
                        f"(call pickle.load/loads so rule 5 can see the site)"
                    )
        for lineno, scope in _unpickle_calls(tree):
            found.setdefault((rel, scope), []).append(lineno)
    for (rel, scope), lines in sorted(found.items()):
        allowed = UNPICKLE_ALLOWED.get((rel, scope), (0, ""))[0]
        if len(lines) > allowed:
            errors.append(
                f"{rel}:{lines[allowed]}: {scope} unpickles {len(lines)} time(s), "
                f"UNPICKLE_ALLOWED allows {allowed} (decode untrusted bytes with "
                f"repro.utils.columns, or list the site with its reason)"
            )
    errors += [
        f"scripts/check_layering.py: UNPICKLE_ALLOWED allows {count} unpickling "
        f"call(s) in {rel}::{scope}, which has {len(found.get((rel, scope), []))} "
        f"(lower the entry)"
        for (rel, scope), (count, _why) in sorted(UNPICKLE_ALLOWED.items())
        if len(found.get((rel, scope), [])) < count
    ]
    return errors


def _identifier(node: ast.AST) -> str:
    """The name a ``Name`` / ``Attribute`` / import alias / definition binds or reads."""
    for field in ("id", "attr", "name"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value.rpartition(".")[2]
    return ""


def check_one_model() -> List[str]:
    """Rule 6: no model-class ``isinstance`` and no ``GPDR`` name."""
    errors: List[str] = []
    for path in _iter_modules():
        rel = path.relative_to(REPO_ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
            if _identifier(node) == "GPDR":
                errors.append(
                    f"{rel}:{node.lineno}: names GPDR (the global approach's record "
                    f"is the LPDR of its one group)"
                )
            elif (
                isinstance(node, ast.Call)
                and _identifier(node.func) == "isinstance"
                and len(node.args) == 2
                and any(
                    _identifier(n) in _MODEL_CLASSES for n in ast.walk(node.args[1])
                )
            ):
                errors.append(
                    f"{rel}:{node.lineno}: isinstance on a DHT model class (a global "
                    f"DHT is a LocalDHT; read config.is_grouped or dht.approach)"
                )
    return errors


def check_folds() -> List[str]:
    """Rule 7: ``_merge_segments`` referenced outside :data:`FOLD_ALLOWED`."""
    errors: List[str] = []
    for path in _iter_modules():
        rel = path.relative_to(REPO_ROOT).as_posix()
        for node, scope in _scoped(ast.parse(path.read_text(), filename=rel)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "_merge_segments"
                and scope not in FOLD_ALLOWED
            ):
                errors.append(
                    f"{rel}:{node.lineno}: {scope} folds a store (only "
                    f"{', '.join(FOLD_ALLOWED)} may; read VnodeStore.newest_rows)"
                )
    return errors


def main() -> int:
    errors = (
        check() + check_dead_symbols() + check_unpickling() + check_one_model() + check_folds()
    )
    if errors:
        print(f"check_layering: {len(errors)} violation(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    n = sum(1 for _ in _iter_modules())
    print(f"check_layering: OK ({n} modules checked, "
          f"{len(KEPT_UNREFERENCED)} unreferenced public symbols kept by allowlist, "
          f"{sum(count for count, _ in UNPICKLE_ALLOWED.values())} unpickling calls allowed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
