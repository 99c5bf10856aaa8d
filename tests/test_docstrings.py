"""Docstring lint as part of the verify path.

The container has no ``pydocstyle``, so ``tools/lint_docstrings.py``
implements the equivalent subset (missing module/class/function docstrings,
empty or unterminated summary lines) over the public API surface of
``src/repro/simulators/gate``, ``src/repro/backends`` and
``src/repro/services``.  Running it from pytest keeps the tier-1 verify
command the only gate a PR needs.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_docstrings.py"


def load_linter():
    """Import ``tools/lint_docstrings.py`` as a module (tools/ is no package)."""
    spec = importlib.util.spec_from_file_location("lint_docstrings", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_docstring_lint_clean():
    linter = load_linter()
    violations = linter.lint()
    formatted = "\n".join(
        f"{path}:{lineno}: {code} {message}"
        for path, lineno, code, message in violations
    )
    assert not violations, f"docstring lint violations:\n{formatted}"


def test_linter_flags_missing_and_malformed(tmp_path):
    """The linter itself must catch what it claims to catch."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        '"""Module summary without terminator"""\n'
        "def public():\n"
        "    pass\n"
        "class Thing:\n"
        "    def method(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
    )
    linter = load_linter()
    violations = linter.lint(scopes=[tmp_path])
    codes = sorted(code for _, _, code, _ in violations)
    assert codes == ["DOC101", "DOC102", "DOC102", "DOC201"]
