"""Tests for the AST invariant linter (``tools/lint_invariants.py``).

Covers: seeded violations are detected with the exact rule id, the
``# lint: allow(...)`` pragma suppresses (and is counted), the analyze.py
driver exits nonzero on a seeded lint violation, and — the repo invariant
itself — the full ``src/repro`` tree lints clean with at most three pragmas.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_invariants  # noqa: E402  (needs the tools/ path above)

MAX_PRAGMAS = 3


def write_module(tmp_path: Path, body: str, *, gate_scope: bool = False) -> Path:
    """Write a throwaway module, optionally under a simulators/gate subtree."""
    directory = tmp_path / "simulators" / "gate" if gate_scope else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    module = directory / "sample.py"
    module.write_text(textwrap.dedent(body), encoding="utf-8")
    return module


def rule_ids(violations):
    return [rule for _, _, rule, _ in violations]


# -- seeded violations --------------------------------------------------------------


def test_global_rng_call_is_rng001(tmp_path):
    module = write_module(
        tmp_path,
        """
        import numpy as np

        def draw():
            return np.random.rand(4)
        """,
    )
    violations, suppressed = lint_invariants.lint_file(module)
    assert rule_ids(violations) == ["RNG001"]
    assert violations[0][1] == 5  # the np.random.rand line
    assert suppressed == []


def test_stdlib_random_is_rng001(tmp_path):
    module = write_module(
        tmp_path,
        """
        import random

        def draw():
            return random.random()
        """,
    )
    assert rule_ids(lint_invariants.lint_file(module)[0]) == ["RNG001"]


def test_unseeded_default_rng_is_rng002(tmp_path):
    module = write_module(
        tmp_path,
        """
        import numpy as np

        RNG = np.random.default_rng()
        SEEDED = np.random.default_rng(7)
        """,
    )
    assert rule_ids(lint_invariants.lint_file(module)[0]) == ["RNG002"]


def test_unbounded_lru_cache_is_cache001_gate_scope_only(tmp_path):
    body = """
    import functools

    @functools.lru_cache(maxsize=None)
    def fused(key):
        return key
    """
    gate_module = write_module(tmp_path, body, gate_scope=True)
    assert rule_ids(lint_invariants.lint_file(gate_module)[0]) == ["CACHE001"]
    plain_module = write_module(tmp_path, body, gate_scope=False)
    assert lint_invariants.lint_file(plain_module)[0] == []


def test_module_dict_cache_is_cache002(tmp_path):
    module = write_module(
        tmp_path,
        """
        _PROGRAM_CACHE = {}
        """,
        gate_scope=True,
    )
    assert rule_ids(lint_invariants.lint_file(module)[0]) == ["CACHE002"]


def test_hardcoded_complex128_is_dtype001(tmp_path):
    module = write_module(
        tmp_path,
        """
        import numpy as np

        def widen(state):
            return np.asarray(state, dtype=np.complex128)
        """,
        gate_scope=True,
    )
    assert rule_ids(lint_invariants.lint_file(module)[0]) == ["DTYPE001"]


def test_wall_clock_is_time001(tmp_path):
    module = write_module(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    assert rule_ids(lint_invariants.lint_file(module)[0]) == ["TIME001"]


# -- pragma handling ----------------------------------------------------------------


def test_pragma_suppresses_and_is_counted(tmp_path):
    module = write_module(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # lint: allow(TIME001)
        """,
    )
    violations, suppressed = lint_invariants.lint_file(module)
    assert violations == []
    assert [(line, rule) for _, line, rule in suppressed] == [(5, "TIME001")]


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    module = write_module(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # lint: allow(RNG001)
        """,
    )
    violations, _ = lint_invariants.lint_file(module)
    assert rule_ids(violations) == ["TIME001"]


# -- CLI / driver exit codes --------------------------------------------------------


def test_linter_cli_exits_nonzero_on_violation(tmp_path, capsys):
    module = write_module(
        tmp_path,
        """
        import numpy as np

        VALUES = np.random.rand(3)
        """,
    )
    assert lint_invariants.main([str(module), "--no-readme-check"]) == 1
    assert "RNG001" in capsys.readouterr().out


def test_linter_cli_exits_zero_on_clean_file(tmp_path, capsys):
    module = write_module(tmp_path, "X = 1\n")
    assert lint_invariants.main([str(module), "--no-readme-check"]) == 0


def test_analyze_driver_exits_nonzero_on_seeded_lint_violation(tmp_path):
    module = write_module(
        tmp_path,
        """
        import numpy as np

        VALUES = np.random.rand(3)
        """,
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "analyze.py"),
            str(module),
            "--no-readme-check",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode != 0
    assert "RNG001" in proc.stdout


# -- the repo invariant itself ------------------------------------------------------


def test_src_repro_lints_clean_with_bounded_pragmas():
    violations, suppressed = lint_invariants.lint()
    assert violations == [], [
        f"{lint_invariants._relative(p)}:{line}: {rule} {msg}"
        for p, line, rule, msg in violations
    ]
    assert len(suppressed) <= MAX_PRAGMAS, suppressed


def test_readme_documents_every_gate_backend_knob():
    violations, _ = lint_invariants.lint([lint_invariants.GATE_BACKEND])
    assert [rule for _, _, rule, _ in violations if rule == "KNOB001"] == []


def test_stale_readme_knob_row_is_knob001(tmp_path):
    # The reverse direction: a table row no module under src/repro reads.
    readme = lint_invariants.README.read_text(encoding="utf-8")
    header = "| --- | --- | --- | --- |\n"
    stale = "| `stale_knob` | `bool` | `True` | Read by nothing. |\n"
    heading = readme.index(lint_invariants.KNOB_TABLE_HEADING)
    cut = readme.index(header, heading) + len(header)
    (tmp_path / "README.md").write_text(readme[:cut] + stale + readme[cut:], encoding="utf-8")
    violations = lint_invariants.check_readme_knobs(readme_path=tmp_path / "README.md")
    assert [(rule, message) for _, _, rule, message in violations] == [
        ("KNOB001", "knob table row 'stale_knob' names a knob no module under src/repro reads")
    ]
