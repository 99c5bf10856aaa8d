#!/usr/bin/env python
"""A dependency-free docstring linter (pydocstyle-equivalent subset).

The container this project builds in has no ``pydocstyle``, so the verify
path uses this AST-based checker instead.  Scope: the public API surface of
``src/repro/simulators/gate``, ``src/repro/backends`` and
``src/repro/services`` (including subpackages).  Enforced rules, numbered
after their pydocstyle analogues:

* ``DOC100`` — every module has a docstring;
* ``DOC101`` — every public class has a docstring;
* ``DOC102`` — every public function and method has a docstring
  (names starting with ``_`` are exempt, as are nested functions);
* ``DOC200`` — the first docstring line is a non-empty summary;
* ``DOC201`` — the summary line ends with terminating punctuation
  (``.``, ``:``, ``?`` or ``!``), so it reads as a sentence.

Run standalone (``python tools/lint_docstrings.py``) for a report and a
nonzero exit code on violations, or through ``tests/test_docstrings.py``
which wires it into the pytest verify path.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SCOPES = (
    REPO_ROOT / "src" / "repro" / "simulators" / "gate",
    REPO_ROOT / "src" / "repro" / "backends",
    REPO_ROOT / "src" / "repro" / "services",
)
SUMMARY_TERMINATORS = (".", ":", "?", "!")

Violation = Tuple[Path, int, str, str]


def _is_public(name: str) -> bool:
    """Whether *name* is part of the public surface (no leading underscore)."""
    return not name.startswith("_")


def _docstring_violations(
    node: ast.AST, code: str, label: str, path: Path
) -> Iterator[Violation]:
    """Yield missing/malformed-docstring violations for one definition."""
    lineno = getattr(node, "lineno", 1)
    docstring = ast.get_docstring(node, clean=True)
    if not docstring:
        yield (path, lineno, code, f"missing docstring on {label}")
        return
    summary = docstring.splitlines()[0].strip()
    if not summary:
        yield (path, lineno, "DOC200", f"empty docstring summary line on {label}")
    elif not summary.endswith(SUMMARY_TERMINATORS):
        yield (
            path,
            lineno,
            "DOC201",
            f"docstring summary of {label} should end with one of "
            f"{'/'.join(SUMMARY_TERMINATORS)}: {summary!r}",
        )


def _walk_definitions(path: Path, tree: ast.Module) -> Iterator[Violation]:
    """Yield violations for the module and its public top-level definitions."""
    yield from _docstring_violations(tree, "DOC100", f"module {path.name}", path)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield from _docstring_violations(
                node, "DOC101", f"class {node.name}", path
            )
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and _is_public(member.name):
                    yield from _docstring_violations(
                        member, "DOC102", f"method {node.name}.{member.name}", path
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(
            node.name
        ):
            yield from _docstring_violations(
                node, "DOC102", f"function {node.name}", path
            )


def lint(scopes=SCOPES) -> List[Violation]:
    """Lint every ``*.py`` file under *scopes* and return all violations."""
    violations: List[Violation] = []
    for scope in scopes:
        for path in sorted(scope.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            violations.extend(_walk_definitions(path, tree))
    return violations


def main() -> int:
    """CLI entry point: print violations, return a shell exit code."""
    violations = lint()
    for path, lineno, code, message in violations:
        print(f"{path.relative_to(REPO_ROOT)}:{lineno}: {code} {message}")
    if violations:
        print(f"{len(violations)} docstring violation(s)")
        return 1
    print("docstring lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
