"""Tests for the compiled-IR verifier (rules IR001-IR008 and TR001-TR006).

Each hand-corruption test builds a *valid* compiled artifact, breaks exactly
one invariant, and asserts the verifier reports the exact rule id with a
location that points at the corrupted element.  The property test compiles
random circuits with and without noise and asserts every
artifact verifies clean — with the session-wide verify-each fixture active,
the compilation itself would already have raised on a verifier regression.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from engine_testlib import random_mixed_circuit, random_unitary_circuit
from repro.simulators.gate import (
    Circuit,
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    analysis,
    density,
    statevector,
)
from repro.simulators.gate.analysis import IRVerificationError
from repro.simulators.gate.fusion import (
    GateStep,
    TerminalSample,
    compile_parametric_template,
    compile_parametric_template_cached,
    compile_trajectory_program,
    compile_trajectory_program_cached,
)
from repro.simulators.gate.kernels import build_plan

REPO_ROOT = Path(__file__).resolve().parent.parent


def bell_circuit() -> Circuit:
    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure_all()
    return circuit


def noisy_program():
    circuit = bell_circuit()
    return compile_trajectory_program(circuit, NoiseModel(oneq_error=0.02, twoq_error=0.05))


def first_gate_index(program) -> int:
    return next(i for i, s in enumerate(program.steps) if isinstance(s, GateStep))


# -- clean artifacts ----------------------------------------------------------------


def test_clean_program_verifies():
    report = analysis.verify_program(compile_trajectory_program(bell_circuit()))
    assert report.ok
    assert report.rule_ids == ()


def test_clean_noisy_program_verifies():
    assert analysis.verify_program(noisy_program()).ok


def test_clean_template_verifies_with_rebind_probe():
    circuit = bell_circuit()
    report = analysis.verify_template(compile_parametric_template(circuit), circuit)
    assert report.ok


# -- hand-corrupted programs: exact rule id + provenance ----------------------------


def test_out_of_range_qubit_is_ir001():
    program = compile_trajectory_program(bell_circuit())
    index = first_gate_index(program)
    step = program.steps[index]
    program.steps[index] = dataclasses.replace(
        step, qubits=(step.qubits[0], program.num_qubits + 7)
    )
    report = analysis.verify_program(program)
    assert "IR001" in report.rule_ids
    assert any(f"steps[{index}]" in d.location for d in report.diagnostics)
    with pytest.raises(IRVerificationError) as excinfo:
        report.raise_if_failed()
    assert "IR001" in excinfo.value.report.rule_ids


def test_wrong_matrix_dtype_is_ir002():
    program = compile_trajectory_program(bell_circuit())
    index = first_gate_index(program)
    step = program.steps[index]
    narrow = np.asarray(step.matrix, dtype=np.complex64)
    program.steps[index] = GateStep(narrow, step.qubits, build_plan(narrow), step.noise)
    report = analysis.verify_program(program)
    assert "IR002" in report.rule_ids


def test_non_unitary_matrix_is_ir003():
    program = compile_trajectory_program(bell_circuit())
    index = first_gate_index(program)
    step = program.steps[index]
    bad = np.asarray(step.matrix, dtype=np.complex128).copy()
    bad[0, 0] = 2.5
    program.steps[index] = GateStep(bad, step.qubits, build_plan(bad), step.noise)
    report = analysis.verify_program(program)
    assert "IR003" in report.rule_ids
    assert any(f"steps[{index}]" in d.location for d in report.diagnostics)


def test_truncated_noise_branches_is_ir004():
    program = noisy_program()
    index, event_index = next(
        (i, j)
        for i, s in enumerate(program.steps)
        if isinstance(s, GateStep)
        for j, _ in enumerate(s.noise)
    )
    step = program.steps[index]
    event = step.noise[event_index]
    truncated = dataclasses.replace(event, operators=event.operators[:2])
    noise = list(step.noise)
    noise[event_index] = truncated
    program.steps[index] = dataclasses.replace(step, noise=tuple(noise))
    report = analysis.verify_program(program)
    assert "IR004" in report.rule_ids
    assert any(f"steps[{index}]" in d.location for d in report.diagnostics)


def test_out_of_range_rate_is_ir005():
    program = noisy_program()
    index = next(
        i for i, s in enumerate(program.steps) if isinstance(s, GateStep) and s.noise
    )
    step = program.steps[index]
    event = dataclasses.replace(step.noise[0], rate=1.5)
    program.steps[index] = dataclasses.replace(
        step, noise=(event,) + step.noise[1:]
    )
    report = analysis.verify_program(program)
    assert "IR005" in report.rule_ids


def test_broken_implicit_terminal_is_ir006():
    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    program = compile_trajectory_program(circuit)
    assert program.terminal is not None and program.terminal.implicit
    program.terminal = TerminalSample(pairs=((0, 0),), implicit=True)
    report = analysis.verify_program(program)
    assert "IR006" in report.rule_ids


# -- result metadata (IR007) --------------------------------------------------------


def test_result_metadata_verifies_clean():
    result = StatevectorSimulator().run(bell_circuit(), shots=64, seed=3)
    assert analysis.verify_result(result).ok


def test_missing_statevector_kind_is_ir007():
    result = StatevectorSimulator().run(bell_circuit(), shots=64, seed=3)
    result.metadata.pop("statevector_kind")
    report = analysis.verify_result(result)
    assert "IR007" in report.rule_ids
    assert any("statevector_kind" in d.location for d in report.diagnostics)


def test_missing_compiled_steps_is_ir007():
    simulator = StatevectorSimulator(noise_model=NoiseModel(oneq_error=0.01))
    result = simulator.run(bell_circuit(), shots=64, seed=3)
    result.metadata.pop("compiled_steps")
    report = analysis.verify_result(result)
    assert "IR007" in report.rule_ids


# -- cache-key soundness (IR008) ----------------------------------------------------


def test_parameter_dependent_structure_is_ir008():
    """``crx(0)`` degenerates to a diagonal, so the structural key is unsound.

    The template compiled at angle 0 makes a 2q-absorption decision that a
    perturbed angle would not; the IR008 rebind probe must flag it.  With the
    session-wide verify-each fixture active the hook raises at compile time,
    which is exactly the verify-each contract.
    """
    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.crx(0.0, 0, 1)
    if analysis.verify_each_enabled():
        with pytest.raises(IRVerificationError) as excinfo:
            compile_parametric_template(circuit)
        assert excinfo.value.report.rule_ids == ("IR008",)
    analysis.set_verify_each(False)
    try:
        template = compile_parametric_template(circuit)
        report = analysis.verify_template(template, circuit)
    finally:
        analysis.set_verify_each(True)
    assert report.rule_ids == ("IR008",)


def test_verify_each_fixture_is_active():
    assert analysis.verify_each_enabled()


# -- the one switch also checks run results and stale caches ------------------------

NOISY = NoiseModel(oneq_error=0.02, twoq_error=0.05)

#: path -> (simulator, ``(shots, seed)`` specs); two specs run merged.
RESULT_PATHS = {
    "exact": (StatevectorSimulator, [(64, 3)]),
    "batched": (lambda: StatevectorSimulator(noise_model=NOISY), [(64, 3)]),
    "stabilizer": (lambda: StatevectorSimulator(trajectory_engine="stabilizer"), [(64, 3)]),
    "density": (lambda: StatevectorSimulator(trajectory_engine="density"), [(64, 3)]),
    "density_oracle": (DensityMatrixSimulator, [(64, 3)]),
    "merged": (lambda: StatevectorSimulator(noise_model=NOISY), [(64, 3), (32, 4)]),
}


@pytest.mark.parametrize("path", sorted(RESULT_PATHS))
def test_a_result_that_breaks_ir007_raises_from_run(monkeypatch, path):
    def corrupting(real):
        def build(**fields):
            fields["metadata"] = dict(fields["metadata"], statevector_kind="bogus")
            return real(**fields)

        return build

    for module in (statevector, density):
        monkeypatch.setattr(module, "SimulationResult", corrupting(module.SimulationResult))
    make, specs = RESULT_PATHS[path]
    simulator = make()
    with pytest.raises(IRVerificationError) as excinfo:
        if len(specs) == 1:
            simulator.run(bell_circuit(), shots=specs[0][0], seed=specs[0][1])
        else:
            simulator.run_merged(bell_circuit(), specs)
    assert excinfo.value.report.rule_ids == ("IR007",)


def test_artifacts_compiled_while_off_are_verified_on_first_use(monkeypatch):
    verified = []

    def spying(real):
        def verify(artifact, *args):
            verified.append(artifact)
            return real(artifact, *args)

        return verify

    for name in ("verify_template", "verify_program"):
        monkeypatch.setattr(analysis, name, spying(getattr(analysis, name)))
    circuit = bell_circuit()
    analysis.set_verify_each(False)
    try:
        stale = compile_trajectory_program_cached(circuit, NOISY)
    finally:
        analysis.set_verify_each(True)
    assert not verified
    StatevectorSimulator(noise_model=NOISY).run(circuit, shots=32, seed=1)
    program = compile_trajectory_program_cached(circuit, NOISY)
    template = compile_parametric_template_cached(circuit)
    assert program is not stale
    assert any(artifact is program for artifact in verified)
    assert any(artifact is template for artifact in verified)


@pytest.mark.parametrize("simulator", [StatevectorSimulator, DensityMatrixSimulator])
def test_verify_compiled_is_not_a_simulator_keyword(simulator):
    with pytest.raises(TypeError):
        simulator(verify_compiled=True)


# -- transpiler stage rules (TR) ----------------------------------------------------


def test_stage_basis_violation_is_tr005():
    circuit = Circuit(2, 2)
    circuit.crx(1.1, 0, 1)
    report = analysis.verify_stage(
        "translate", circuit, basis_gates=["sx", "rz", "cx"]
    )
    assert "TR005" in report.rule_ids


def test_stage_coupling_violation_is_tr004():
    circuit = Circuit(3, 3)
    circuit.cx(0, 2)
    report = analysis.verify_stage("route", circuit, coupling_map=[(0, 1), (1, 2)])
    assert "TR004" in report.rule_ids


def test_stage_record_mismatch_is_tr006():
    source = bell_circuit()
    pruned = Circuit(2, 2)
    pruned.h(0)
    pruned.cx(0, 1)
    pruned.measure(0, 0)  # dropped one terminal measurement
    report = analysis.verify_stage("optimize", pruned, source=source)
    assert "TR006" in report.rule_ids


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        analysis.verify_stage("polish", bell_circuit())


# -- property test: random programs always verify clean -----------------------------


@pytest.mark.parametrize("seed", [11, 23, 37, 59])
def test_random_programs_verify_clean(seed):
    rng = np.random.default_rng(seed)
    noise_settings = (None, NoiseModel(oneq_error=0.01, twoq_error=0.04))
    for builder, depth in (
        (random_unitary_circuit, 12),
        (random_mixed_circuit, 16),
    ):
        circuit = builder(rng, 4, depth)
        template = compile_parametric_template(circuit)
        assert analysis.verify_template(template, circuit).ok
        for noise in noise_settings:
            report = analysis.verify_program(template.bind(circuit, noise))
            assert report.ok, [str(d) for d in report.diagnostics]


# -- the analyze.py driver ----------------------------------------------------------


def test_analyze_demo_corrupt_exits_nonzero(tmp_path):
    """The seeded corrupt program must fail the driver (exit nonzero + IR003)."""
    out = tmp_path / "analyze.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "analyze.py"),
            "--demo-corrupt",
            "--json",
            str(out),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode != 0
    assert "IR003" in proc.stdout
    assert out.exists()
