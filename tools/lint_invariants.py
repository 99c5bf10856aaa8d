#!/usr/bin/env python
"""A dependency-free AST linter for the repo's standing invariants.

The codebase upholds several invariants only by convention — seeded-RNG
discipline, bounded caches, centralised dtype policy, no wall-clock reads in
kernels.  This linter makes them machine-checked (the ``tools/analyze.py``
driver runs it next to the IR verifier).  Rules:

* ``RNG001`` — no global/module-level RNG calls (``np.random.<fn>`` outside
  the seeded-``Generator`` constructors, or stdlib ``random.<fn>``); every
  random draw must flow from a seeded ``np.random.default_rng``/
  ``SeedSequence`` stream.
* ``RNG002`` — ``default_rng()`` must be seeded (no zero-argument calls).
* ``CACHE001`` — in ``simulators/gate``, no unbounded ``functools.lru_cache``
  / ``functools.cache`` (a ``maxsize`` literal is required; ``None`` is
  unbounded).
* ``CACHE002`` — in ``simulators/gate``, no module-level dict-literal caches
  (names containing ``CACHE``): process-global caches must use
  :class:`~repro.simulators.gate.lru.BoundedLRU`.
* ``DTYPE001`` — no hardcoded ``complex128`` / ``dtype=complex`` literals
  outside the dtype plumbing modules (``simulators/gate/dtypes.py`` and the
  numeric core listed in ``DTYPE_PLUMBING``).
* ``TIME001`` — no wall-clock reads (``time.time``/``perf_counter``/
  ``monotonic``, ``datetime.now``/``utcnow``) in library code; timing belongs
  to benchmarks and the runtime submission layer.
* ``KNOB001`` — the README's "Simulator exec-policy knobs" table and the code
  agree in both directions: every exec-policy knob read by
  ``backends/gate_backend.py`` (``exec_policy.options.get("<knob>")``) has a
  backticked row in the table, and every row of the table names a knob that
  some module under ``src/repro`` reads with ``options.get("<knob>", ...)``.

A violating line can carry an explicit ``# lint: allow(RULE)`` pragma (comma
separated for several rules); the violation is then suppressed **and
counted**, so deliberate exceptions stay visible in the report.

Run standalone (``python tools/lint_invariants.py [paths...]``) for a report
and a nonzero exit code on violations, or through ``tools/analyze.py`` /
``tests/test_lint_invariants.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
README = REPO_ROOT / "README.md"
GATE_BACKEND = SRC_ROOT / "backends" / "gate_backend.py"

#: Rule catalog: id -> one-line description (rendered in ``docs/static_analysis.md``).
LINT_RULES = {
    "RNG001": "no global RNG calls; draws flow from seeded default_rng streams",
    "RNG002": "default_rng() must be seeded (no zero-argument calls)",
    "CACHE001": "no unbounded lru_cache/cache in simulators/gate",
    "CACHE002": "no module-level dict caches in simulators/gate (use BoundedLRU)",
    "DTYPE001": "no hardcoded complex128/dtype=complex outside dtype plumbing",
    "TIME001": "no wall-clock reads in library code",
    "KNOB001": "every gate_backend exec-policy knob has a README table row, "
    "and every README knob row is read by src/repro",
}

#: ``np.random`` attributes that are seeded-RNG plumbing, not global draws.
SEEDED_RNG_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "MT19937",
}

#: Modules allowed to spell complex dtypes directly (the numeric core).
DTYPE_PLUMBING = (
    "src/repro/simulators/gate/dtypes.py",
    "src/repro/simulators/gate/gates.py",
    "src/repro/simulators/gate/kernels.py",
    "src/repro/simulators/gate/fusion.py",
    "src/repro/simulators/gate/density.py",
    "src/repro/simulators/gate/statevector.py",
    "src/repro/simulators/gate/batched.py",
    "src/repro/simulators/gate/unitary.py",
    "src/repro/simulators/gate/transpiler/decompose.py",
    "src/repro/simulators/gate/analysis/verifier.py",
)

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

_PRAGMA = re.compile(r"#\s*lint:\s*allow\(\s*([A-Z0-9_,\s]+?)\s*\)")

Violation = Tuple[Path, int, str, str]
Suppressed = Tuple[Path, int, str]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _pragmas(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rules allowed on that line by ``# lint: allow(...)``."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match:
            rules = {rule.strip() for rule in match.group(1).split(",") if rule.strip()}
            allowed[lineno] = rules
    return allowed


def _relative(path: Path) -> str:
    """Repo-relative POSIX path when possible (tmp files stay absolute)."""
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def _in_gate_scope(path: Path) -> bool:
    return "simulators/gate" in _relative(path)


def _imports_stdlib_random(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            return True
    return False


def _lru_cache_violation(call: ast.Call) -> Optional[str]:
    """The CACHE001 message for an ``lru_cache(...)`` call, or ``None``."""
    for keyword in call.keywords:
        if keyword.arg == "maxsize":
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(value.value, int):
                return None
            return "lru_cache maxsize must be a positive int literal (None is unbounded)"
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, int):
            return None
        return "lru_cache maxsize must be a positive int literal (None is unbounded)"
    return "lru_cache without maxsize is unbounded; pass an explicit bound"


def _check_calls(
    tree: ast.Module, path: Path, stdlib_random: bool, gate_scope: bool
) -> Iterator[Violation]:
    """Yield the per-call rules: RNG001/RNG002, CACHE001, TIME001."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if name is None:
            continue
        tail = name.rsplit(".", 1)[-1]
        if name.startswith(("np.random.", "numpy.random.")):
            if tail not in SEEDED_RNG_CONSTRUCTORS:
                yield (
                    path,
                    node.lineno,
                    "RNG001",
                    f"global RNG call {name}(); draw from a seeded "
                    f"np.random.default_rng(...) stream instead",
                )
        elif stdlib_random and (name.startswith("random.") or name == "random.random"):
            yield (
                path,
                node.lineno,
                "RNG001",
                f"stdlib RNG call {name}(); use a seeded NumPy Generator",
            )
        if tail == "default_rng" and not node.args and not node.keywords:
            yield (
                path,
                node.lineno,
                "RNG002",
                "unseeded default_rng(); thread an explicit seed through",
            )
        if gate_scope and tail == "lru_cache" and name in ("lru_cache", "functools.lru_cache"):
            message = _lru_cache_violation(node)
            if message is not None:
                yield (path, node.lineno, "CACHE001", message)
        if name in _WALL_CLOCK_CALLS:
            yield (
                path,
                node.lineno,
                "TIME001",
                f"wall-clock read {name}(); timing belongs to benchmarks "
                f"and the runtime submission layer",
            )


def _check_decorators(
    tree: ast.Module, path: Path, gate_scope: bool
) -> Iterator[Violation]:
    """Yield CACHE001 for bare ``@lru_cache`` / ``@cache`` decorators."""
    if not gate_scope:
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                continue  # handled by _check_calls
            name = _dotted_name(decorator)
            if name in ("lru_cache", "functools.lru_cache"):
                yield (
                    path,
                    decorator.lineno,
                    "CACHE001",
                    "bare @lru_cache is unbounded; pass an explicit maxsize",
                )
            elif name in ("cache", "functools.cache"):
                yield (
                    path,
                    decorator.lineno,
                    "CACHE001",
                    "@functools.cache is unbounded; use lru_cache with a "
                    "maxsize or BoundedLRU",
                )


def _check_module_caches(
    tree: ast.Module, path: Path, gate_scope: bool
) -> Iterator[Violation]:
    """Yield CACHE002 for module-level dict-literal caches."""
    if not gate_scope:
        return
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, ast.Dict):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and "CACHE" in target.id.upper():
                yield (
                    path,
                    node.lineno,
                    "CACHE002",
                    f"module-level dict cache {target.id!r} is unbounded; "
                    f"use BoundedLRU",
                )


def _check_dtypes(tree: ast.Module, path: Path) -> Iterator[Violation]:
    """Yield DTYPE001 for hardcoded complex-dtype literals."""
    if _relative(path) in DTYPE_PLUMBING:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "complex128":
            yield (
                path,
                node.lineno,
                "DTYPE001",
                "hardcoded np.complex128; import the canonical dtype from "
                "simulators.gate.dtypes",
            )
        elif isinstance(node, ast.Name) and node.id == "complex128":
            yield (
                path,
                node.lineno,
                "DTYPE001",
                "hardcoded complex128; import the canonical dtype from "
                "simulators.gate.dtypes",
            )
        elif isinstance(node, ast.keyword) and node.arg == "dtype":
            if isinstance(node.value, ast.Name) and node.value.id == "complex":
                yield (
                    path,
                    node.lineno,
                    "DTYPE001",
                    "dtype=complex hardcodes double precision; use the "
                    "canonical dtype from simulators.gate.dtypes",
                )


#: Heading of the README section whose table lists the exec-policy knobs.
KNOB_TABLE_HEADING = "## Simulator exec-policy knobs"


def _option_reads(path: Path) -> Iterator[Tuple[str, int]]:
    """``(knob, lineno)`` of every ``options.get("<knob>", ...)`` call in *path*.

    The receiver is an attribute named ``options`` (``exec_policy.options``)
    or a local named ``options``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "get":
            continue
        owner = node.func.value
        if not (
            (isinstance(owner, ast.Attribute) and owner.attr == "options")
            or (isinstance(owner, ast.Name) and owner.id == "options")
        ):
            continue
        knob = node.args[0].value if node.args and isinstance(node.args[0], ast.Constant) else None
        if isinstance(knob, str):
            yield knob, node.lineno


def _knob_table_rows(readme: str) -> Iterator[Tuple[str, int]]:
    """``(knob, lineno)`` of every row of the README's knob table."""
    lines = readme.splitlines()
    if KNOB_TABLE_HEADING not in lines:
        return
    start = lines.index(KNOB_TABLE_HEADING) + 1
    in_table = False
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if line.startswith("|"):
            in_table = True
            match = re.match(r"\|\s*`([^`]+)`\s*\|", line)
            if match:
                yield match.group(1), lineno
        elif in_table:
            return


def check_readme_knobs(
    backend_path: Path = GATE_BACKEND, readme_path: Path = README
) -> List[Violation]:
    """KNOB001, both directions, between the code and the README's knob table.

    Every ``options.get("<knob>")`` in the backend has a backticked README
    row, and every row of the knob table names a knob that some module under
    ``src/repro`` reads.
    """
    violations: List[Violation] = []
    if not backend_path.exists() or not readme_path.exists():
        return violations
    readme = readme_path.read_text(encoding="utf-8")
    for knob, lineno in _option_reads(backend_path):
        if f"`{knob}`" not in readme:
            violations.append(
                (
                    backend_path,
                    lineno,
                    "KNOB001",
                    f"exec-policy knob {knob!r} has no backticked row in "
                    f"{readme_path.name}'s knob table",
                )
            )
    read = {knob for path in SRC_ROOT.rglob("*.py") for knob, _ in _option_reads(path)}
    for knob, lineno in _knob_table_rows(readme):
        if knob not in read:
            violations.append(
                (
                    readme_path,
                    lineno,
                    "KNOB001",
                    f"knob table row {knob!r} names a knob no module under "
                    f"{_relative(SRC_ROOT)} reads",
                )
            )
    return violations


def lint_file(path: Path) -> Tuple[List[Violation], List[Suppressed]]:
    """Lint one Python file; returns (violations, suppressed-by-pragma)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    allowed = _pragmas(source)
    gate_scope = _in_gate_scope(path)
    stdlib_random = _imports_stdlib_random(tree)
    candidates: List[Violation] = []
    candidates.extend(_check_calls(tree, path, stdlib_random, gate_scope))
    candidates.extend(_check_decorators(tree, path, gate_scope))
    candidates.extend(_check_module_caches(tree, path, gate_scope))
    candidates.extend(_check_dtypes(tree, path))
    violations: List[Violation] = []
    suppressed: List[Suppressed] = []
    for violation in candidates:
        _, lineno, rule, _ = violation
        if rule in allowed.get(lineno, set()):
            suppressed.append((violation[0], lineno, rule))
        else:
            violations.append(violation)
    return violations, suppressed


def lint(
    paths: Optional[Sequence[Path]] = None, *, readme_check: bool = True
) -> Tuple[List[Violation], List[Suppressed]]:
    """Lint *paths* (files or directories; default ``src/repro``)."""
    roots = [Path(p) for p in paths] if paths else [SRC_ROOT]
    files: List[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    violations: List[Violation] = []
    suppressed: List[Suppressed] = []
    for path in files:
        file_violations, file_suppressed = lint_file(path)
        violations.extend(file_violations)
        suppressed.extend(file_suppressed)
    if readme_check:
        violations.extend(check_readme_knobs())
    return violations, suppressed


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: print violations, return a shell exit code."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--no-readme-check",
        action="store_true",
        help="skip the KNOB001 README cross-check",
    )
    args = parser.parse_args(argv)
    violations, suppressed = lint(
        args.paths or None, readme_check=not args.no_readme_check
    )
    for path, lineno, rule, message in violations:
        print(f"{_relative(path)}:{lineno}: {rule} {message}")
    if suppressed:
        print(f"{len(suppressed)} violation(s) suppressed by pragma:")
        for path, lineno, rule in suppressed:
            print(f"  {_relative(path)}:{lineno}: {rule} (allowed)")
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("invariant lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
