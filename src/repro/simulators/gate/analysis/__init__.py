"""Static analysis for the gate substrate: IR verifier and verify-each hooks.

Layer 1 of the repo's static-analysis subsystem (layer 2, the AST invariant
linter, lives in ``tools/lint_invariants.py``; ``tools/analyze.py`` drives
both).  This package exposes:

* :func:`verify_program` / :func:`verify_template` /
  :func:`verify_stabilizer_program` / :func:`verify_result_metadata` —
  contract checks over compiled fusion artifacts (rules ``IR001``-``IR011``);
* :func:`verify_stage` — contract checks over transpiler stage outputs
  (rules ``TR001``-``TR006``);
* :func:`set_verify_each` — the one verification switch.  It installs (or
  removes) hooks inside the fusion compiler, the transpiler pass pipeline and
  the simulators, so **every** compiled artifact is verified at the moment it
  is produced and every simulation result before it is returned.  Off by
  default in production; the test suite enables it session-wide via a
  conftest fixture, turning every differential sweep into a verifier soak.
"""

from __future__ import annotations

from .diagnostics import IRDiagnostic, IRVerificationError, VerificationReport
from .transpile_verify import STAGES, TR_RULES, verify_stage
from .verifier import (
    IR_RULES,
    STATEVECTOR_KINDS,
    verification_active,
    verify_program,
    verify_result,
    verify_result_metadata,
    verify_stabilizer_program,
    verify_template,
)

__all__ = [
    "IRDiagnostic",
    "IRVerificationError",
    "VerificationReport",
    "IR_RULES",
    "TR_RULES",
    "STAGES",
    "STATEVECTOR_KINDS",
    "verify_program",
    "verify_stabilizer_program",
    "verify_template",
    "verify_result",
    "verify_result_metadata",
    "verify_stage",
    "set_verify_each",
    "verify_each_enabled",
]

_VERIFY_EACH = False


def _template_hook(template, circuit) -> None:
    """Post-``compile_parametric_template`` hook: verify the fresh template."""
    if verification_active():
        return  # IR008's perturbed recompile must not recurse
    verify_template(template, circuit).raise_if_failed()


def _program_hook(program, circuit) -> None:
    """Post-``ParametricTemplate.bind`` hook: verify the fresh bound program."""
    if verification_active():
        return
    verify_program(program).raise_if_failed()


def _stabilizer_hook(program, circuit) -> None:
    """Post-``compile_stabilizer_program`` hook: verify the fresh program."""
    if verification_active():
        return
    verify_stabilizer_program(program).raise_if_failed()


def _result_hook(result) -> None:
    """Hook on every simulator result: verify its contractual metadata."""
    verify_result(result).raise_if_failed()


def _stage_hook(stage, circuit, *, source=None, coupling_map=None, basis_gates=None) -> None:
    """Post-transpiler-stage hook: verify one stage's output circuit."""
    if verification_active():
        return
    verify_stage(
        stage,
        circuit,
        source=source,
        coupling_map=coupling_map,
        basis_gates=basis_gates,
    ).raise_if_failed()


def set_verify_each(enabled: bool) -> None:
    """Turn the one IR verification switch on or off.

    With ``enabled=True`` every template produced by
    ``compile_parametric_template`` (with the IR008 probe), every program
    produced by ``ParametricTemplate.bind``, every stabilizer program produced
    by ``compile_stabilizer_program`` and every transpiler stage output is
    verified on the spot (cache *misses* only), and every result that
    ``StatevectorSimulator`` and ``DensityMatrixSimulator`` return has its
    metadata checked (IR007); a failure raises
    :class:`~.diagnostics.IRVerificationError` at the point of production.
    Turning the switch on empties the compile caches, so every artifact a
    run uses from then on has passed the verifier.  With ``enabled=False``
    the hooks are removed; the cost of the disabled hooks is one
    ``is not None`` check per compile and per run.
    """
    global _VERIFY_EACH
    from ..fusion import clear_compile_caches, set_compile_verify_hooks
    from ..transpiler.passes import set_stage_hook

    if enabled:
        set_compile_verify_hooks(
            _template_hook, _program_hook, _stabilizer_hook, _result_hook
        )
        set_stage_hook(_stage_hook)
        clear_compile_caches()
    else:
        set_compile_verify_hooks(None, None, None, None)
        set_stage_hook(None)
    _VERIFY_EACH = bool(enabled)


def verify_each_enabled() -> bool:
    """Whether the verify-each hooks are currently installed."""
    return _VERIFY_EACH
