#!/usr/bin/env python
"""Fail if docs or docstrings reference a module, file or CLI command that doesn't exist.

Checks three kinds of references in ``README.md`` and ``docs/*.md``:

1. repository paths — any backtick/link token that looks like a path
   (``src/repro/core/base.py``, ``docs/architecture.md``, ``bench/``)
   must exist relative to the repository root;
2. dotted modules — any ``repro[.sub]*`` token must be importable (checked
   with ``importlib.util.find_spec`` against ``src/``);
3. CLI commands — any ``python -m repro <cmd>`` / ``repro <cmd>`` usage
   must name a registered subcommand of ``repro.cli.build_parser``;

and one in the docstrings of ``src/repro/**/*.py``:

4. cross-references — every Sphinx role naming a ``repro.*`` target
   (``:class:`~repro.sim.local.LocalBalanceSimulator```, ``:func:``,
   ``:meth:``, ``:attr:``, ``:mod:`` ...) must resolve like a dotted
   module above; a dataclass field counts as an attribute of its class.

Run from the repository root (CI does)::

    python scripts/check_docs_links.py
"""

from __future__ import annotations

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tokens inside backticks or markdown links that look like repo paths.
PATH_RE = re.compile(r"[`(]((?:src|docs|tests|bench|examples|scripts)/[\w./\-*]*)[`)]")
#: Dotted repro modules inside backticks (strip trailing attribute access).
MODULE_RE = re.compile(r"`(repro(?:\.\w+)+)`")
#: Sphinx cross-reference roles with a ``repro.*`` target in docstrings.
ROLE_RE = re.compile(r":\w+:`~?(repro(?:\.\w+)+)`")
#: CLI invocations: `python -m repro <cmd>` or a line starting with `repro <cmd>`.
CLI_RE = re.compile(r"python -m repro\s+([\w-]+)|(?:^|\s)repro\s+(list|run|demo|[\w]+-[\w-]+)")


def doc_files() -> list:
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [p for p in docs if p.exists()]


def module_exists(dotted: str) -> bool:
    """True if ``dotted`` is an importable module OR an attribute of one."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        parts = dotted.split(".")
        for depth in range(len(parts), 0, -1):
            candidate = ".".join(parts[:depth])
            try:
                if importlib.util.find_spec(candidate) is not None:
                    if depth == len(parts):
                        return True
                    # Remaining parts must be attributes of the module.
                    module = importlib.import_module(candidate)
                    obj = module
                    for attr in parts[depth:]:
                        obj = _attribute(obj, attr)
                    return True
            except (ImportError, AttributeError):
                continue
        return False
    finally:
        sys.path.remove(str(REPO_ROOT / "src"))


def _attribute(obj, name: str):
    """``getattr``, also accepting a dataclass field that has no default."""
    if dataclasses.is_dataclass(obj) and not hasattr(obj, name):
        if name in {f.name for f in dataclasses.fields(obj)}:
            return None
    return getattr(obj, name)


def cli_commands() -> set:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import build_parser

        parser = build_parser()
        for action in parser._subparsers._group_actions:  # noqa: SLF001
            return set(action.choices)
        return set()
    finally:
        sys.path.remove(str(REPO_ROOT / "src"))


def main() -> int:
    problems = []
    commands = cli_commands()
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(REPO_ROOT)

        for match in PATH_RE.finditer(text):
            token = match.group(1).rstrip("/")
            if "*" in token:  # glob illustration like tests/test_sim_*.py
                if not list(REPO_ROOT.glob(token)):
                    problems.append(f"{rel}: no file matches glob `{token}`")
                continue
            if not (REPO_ROOT / token).exists():
                problems.append(f"{rel}: path `{token}` does not exist")

        for match in MODULE_RE.finditer(text):
            dotted = match.group(1)
            if not module_exists(dotted):
                problems.append(f"{rel}: module reference `{dotted}` does not resolve")

        for match in CLI_RE.finditer(text):
            cmd = match.group(1) or match.group(2)
            if cmd and cmd not in commands:
                problems.append(f"{rel}: CLI command `repro {cmd}` is not registered")

    n_roles = 0
    for source in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        rel = source.relative_to(REPO_ROOT)
        for match in ROLE_RE.finditer(source.read_text(encoding="utf-8")):
            n_roles += 1
            if not module_exists(match.group(1)):
                problems.append(f"{rel}: docstring reference `{match.group(1)}` does not resolve")

    if problems:
        print("documentation link check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"documentation link check OK ({len(doc_files())} files, "
          f"{len(commands)} CLI commands, {n_roles} docstring references verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
