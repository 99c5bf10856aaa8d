"""Tests for backends: lowering, gate/anneal/exact execution, registry, runtime."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core import (
    CapabilityError,
    ContextDescriptor,
    ContextError,
    ExecPolicy,
    LoweringError,
    QuantumOperatorDescriptor,
    integer_register,
    ising_register,
    package,
    phase_register,
)
from repro.backends import (
    AnnealBackend,
    ExactBackend,
    GateBackend,
    bqm_from_operator,
    get_backend,
    list_engines,
    submit,
)
from repro.oplib import (
    adder_operator,
    ising_problem_operator,
    measurement,
    prep_amplitude,
    prep_basis_state,
    prep_uniform,
    qaoa_sequence,
    qft_operator,
    inverse_qft_operator,
)
from repro.simulators.gate import Statevector, circuit_unitary
from repro.workflows import build_anneal_bundle, build_qaoa_bundle


# -- registry / runtime -----------------------------------------------------------

def test_engine_registry():
    assert "gate.aer_simulator" in list_engines()
    assert "anneal.simulated_annealer" in list_engines()
    assert "exact.brute_force" in list_engines()
    assert isinstance(get_backend("gate.aer_simulator"), GateBackend)
    assert isinstance(get_backend("anneal.neal"), AnnealBackend)
    with pytest.raises(Exception):
        get_backend("photonic.nonexistent")


def test_submit_requires_context(cycle4):
    from repro.core import JobBundle

    bundle = build_qaoa_bundle(cycle4)
    no_ctx = JobBundle(qdts=dict(bundle.qdts), operators=bundle.operators, context=None)
    with pytest.raises(ContextError):
        submit(no_ctx)


def test_submit_records_timing(cycle4, gate_context):
    result = submit(build_qaoa_bundle(cycle4, context=gate_context))
    assert result.metadata["wall_time_s"] > 0
    assert result.metadata["engine_requested"] == "gate.aer_simulator"
    assert result.bundle_digest


def test_negative_seed_fails_validation_before_any_backend_runs(cycle4, anneal_context):
    from repro.core import SchemaValidationError
    from repro.workflows import build_anneal_bundle

    register = phase_register("p", 3)
    context = ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator", seed=1))
    ops = [qft_operator(register), measurement(register)]
    bundle = package(register, ops, context, name="qft")
    bundle.context.exec.seed = -5  # the constructor rejects it; an edit must not slip by
    with pytest.raises(SchemaValidationError):
        package(register, ops, bundle.context, name="qft")
    with pytest.raises(SchemaValidationError):
        submit(bundle)
    anneal = build_anneal_bundle(cycle4, context=anneal_context)
    anneal.context.anneal.seed = -5
    with pytest.raises(SchemaValidationError):
        submit(anneal)


def test_capability_mismatch_raises(cycle4, anneal_context):
    # A QAOA (gate) bundle pointed at the annealer must fail validation or
    # capability negotiation, never run.
    from repro.core import CompatibilityError

    bundle = build_qaoa_bundle(cycle4)
    retargeted = bundle.with_context(anneal_context)
    with pytest.raises((CapabilityError, ContextError, CompatibilityError)):
        submit(retargeted)


# -- gate backend lowering correctness ----------------------------------------------

def run_gate(qdt_or_list, ops, samples=2048, seed=5, **ctx_kwargs):
    context = ContextDescriptor(
        exec=ExecPolicy(engine="gate.aer_simulator", samples=samples, seed=seed, **ctx_kwargs)
    )
    bundle = package(qdt_or_list, ops, context, name="test")
    return submit(bundle)


def test_prep_uniform_measurement(ising_vars):
    result = run_gate(ising_vars, [prep_uniform(ising_vars), measurement(ising_vars)],
                      samples=4096)
    counts = result.counts
    assert len(counts) == 16
    assert max(counts.probabilities().values()) < 0.12


def test_prep_basis_state_round_trip():
    reg = integer_register("n", 5)
    result = run_gate(reg, [prep_basis_state(reg, 19), measurement(reg)], samples=256)
    assert result.most_likely() == 19
    assert result.decoded().single().most_likely().probability == 1.0


def test_qft_roundtrip_recovers_phase(reg_phase10):
    ops = [
        prep_basis_state(reg_phase10, Fraction(3, 8)),
        qft_operator(reg_phase10),
        inverse_qft_operator(reg_phase10),
        measurement(reg_phase10),
    ]
    result = run_gate(reg_phase10, ops, samples=512)
    assert result.most_likely() == Fraction(3, 8)


def test_qft_on_basis_state_gives_uniform_magnitudes():
    reg = phase_register("p", 3)
    backend = GateBackend()
    bundle = package(reg, [qft_operator(reg, do_swaps=True), measurement(reg)],
                     ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator", samples=4096, seed=1)),
                     name="qft")
    result = backend.run(bundle)
    # QFT|0> is the uniform superposition: every outcome equally likely.
    probs = result.counts.probabilities()
    assert len(probs) == 8
    assert max(probs.values()) - min(probs.values()) < 0.08


def test_qft_unitary_matches_dft_matrix():
    """The lowered QFT implements the DFT in the register's basis ordering."""
    reg = phase_register("p", 3)
    backend = GateBackend()
    bundle = package(reg, [qft_operator(reg, do_swaps=True)],
                     ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator", samples=1)),
                     name="qft", validate=False)
    circuit, allocation = backend.build_circuit(bundle)
    unitary = circuit_unitary(circuit)
    n = 8
    omega = np.exp(2j * np.pi / n)
    # Map register basis index k to the simulator's flat index via the bitstring.
    def flat(k):
        bits = reg.index_to_bits(k)  # carrier-order bits, carrier i = qubit i
        return int(bits, 2)
    dft = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            dft[flat(l), flat(k)] = omega ** (k * l) / np.sqrt(n)
    assert np.allclose(unitary, dft, atol=1e-9)


def test_draper_adder_constant():
    reg = integer_register("n", 4)
    ops = [prep_basis_state(reg, 6), adder_operator(reg, 5), measurement(reg)]
    result = run_gate(reg, ops, samples=128)
    assert result.most_likely() == 11
    # wrap-around modulo 2^4
    ops = [prep_basis_state(reg, 12), adder_operator(reg, 7), measurement(reg)]
    assert run_gate(reg, ops, samples=128).most_likely() == 3


def test_register_adder():
    from repro.oplib import register_adder_operator

    src = integer_register("src", 3)
    dst = integer_register("dst", 3)
    ops = [
        prep_basis_state(src, 3),
        prep_basis_state(dst, 2),
        register_adder_operator(dst, src),
        measurement(dst),
    ]
    result = run_gate([src, dst], ops, samples=128)
    assert result.most_likely() == 5


def test_prep_amplitude_lowering_small():
    reg = integer_register("n", 2)
    amplitudes = [math.sqrt(0.1), math.sqrt(0.2), math.sqrt(0.3), math.sqrt(0.4)]
    result = run_gate(reg, [prep_amplitude(reg, amplitudes), measurement(reg)], samples=8192)
    probs = {o.value: o.probability for o in result.decoded().single().outcomes}
    assert abs(probs[3] - 0.4) < 0.05
    assert abs(probs[0] - 0.1) < 0.05


def test_prep_amplitude_width_limit():
    reg = integer_register("n", 4)
    op = prep_amplitude(reg, [1.0] + [0.0] * 15)
    with pytest.raises(Exception):
        run_gate(reg, [op, measurement(reg)], samples=16)


def test_swap_test_equal_states():
    a, b = integer_register("a", 2), integer_register("b", 2)
    anc = ising_register("anc", 1)
    from repro.oplib import swap_test_operator

    ops = [prep_basis_state(a, 2), prep_basis_state(b, 2), swap_test_operator(a, b, anc)]
    result = run_gate([anc, a, b], ops, samples=2048)
    # identical states -> ancilla always 0
    assert result.counts.probability("0") > 0.98


def test_swap_test_orthogonal_states():
    a, b = integer_register("a", 2), integer_register("b", 2)
    anc = ising_register("anc", 1)
    from repro.oplib import swap_test_operator

    ops = [prep_basis_state(a, 1), prep_basis_state(b, 2), swap_test_operator(a, b, anc)]
    result = run_gate([anc, a, b], ops, samples=4096)
    assert abs(result.counts.probability("0") - 0.5) < 0.05


def test_qpe_estimates_phase():
    from repro.oplib import controlled_phase_operator, qpe_operator

    phase_reg = phase_register("ph", 4)
    target = integer_register("t", 1)
    # Eigenphase 2*pi*(5/16) -> QPE should read 5/16 of a turn.
    unitary = controlled_phase_operator(phase_reg, target, 2 * math.pi * 5 / 16)
    ops = [qpe_operator(phase_reg, target, unitary)]
    context = ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator", samples=1024, seed=3))
    bundle = package([phase_reg, target], ops, context, name="qpe", validate=False)
    backend = GateBackend()
    # QPE itself does not measure; add an explicit measurement of the phase register.
    bundle = package([phase_reg, target], ops + [measurement(phase_reg)], context, name="qpe",
                     validate=False)
    result = backend.run(bundle)
    assert result.decoded().single().most_likely().value == Fraction(5, 16)


def test_unbound_qaoa_angle_fails_at_lowering(ising_vars, cycle4, gate_context):
    seq = qaoa_sequence(ising_vars, cycle4.edges, reps=1)  # unbound
    bundle = package(ising_vars, seq, gate_context, name="unbound", validate=False)
    with pytest.raises(Exception):
        GateBackend().run(bundle)


def test_unsupported_rep_kind_rejected(gate_context):
    reg = integer_register("n", 3)
    op = QuantumOperatorDescriptor(
        name="modmul", rep_kind="MODULAR_MULT_TEMPLATE", domain_qdt=reg.id,
        params={"multiplier": 3, "modulus": 5},
    )
    bundle = package(reg, [op, measurement(reg)], gate_context, name="x", validate=False)
    with pytest.raises(CapabilityError):
        GateBackend().check_capabilities(bundle)


def test_measurement_in_x_basis(ising_vars):
    from repro.core import ResultSchema

    schema = ResultSchema.for_register(ising_vars, basis="X")
    ops = [prep_uniform(ising_vars), measurement(ising_vars, result_schema=schema)]
    result = run_gate(ising_vars, ops, samples=512)
    # |+>^n measured in X basis is deterministic all-zero.
    assert result.counts.probability("0000") == 1.0


def test_transpile_metadata_reported(cycle4, ring_gate_context):
    result = submit(build_qaoa_bundle(cycle4, context=ring_gate_context))
    assert result.metadata["transpiled_twoq"] >= 4
    assert result.metadata["transpile_metrics"]["swaps_inserted"] >= 0
    assert result.metadata["simulation_method"] == "exact"


# -- anneal / exact backends -------------------------------------------------------------

def test_bqm_from_operator_ising(ising_vars, cycle4):
    op = ising_problem_operator(ising_vars, edges=cycle4.edges, weights=cycle4.weights)
    bqm = bqm_from_operator(op)
    assert bqm.num_variables == 4 and bqm.num_interactions == 4
    assert bqm.energy([1, -1, 1, -1]) == -4.0
    with pytest.raises(CapabilityError):
        bqm_from_operator(prep_uniform(ising_vars))


def test_anneal_backend_end_to_end(cycle4, anneal_context):
    result = submit(build_anneal_bundle(cycle4, context=anneal_context))
    assert result.metadata["best_energy"] == -4.0
    assert result.metadata["ground_state_probability"] > 0.8
    assert result.sampleset is not None
    decoded = result.decoded().single()
    assert decoded.most_likely().value in ((0, 1, 0, 1), (1, 0, 1, 0))


def test_anneal_backend_rejects_multiple_problems(ising_vars, cycle4, anneal_context):
    op = ising_problem_operator(ising_vars, edges=cycle4.edges)
    bundle = package(ising_vars, [op, op.with_params()], anneal_context, name="two", validate=False)
    with pytest.raises(CapabilityError):
        AnnealBackend().run(bundle)


def test_exact_backend_ground_states(cycle4):
    context = ContextDescriptor(exec=ExecPolicy(engine="exact.brute_force", samples=1))
    bundle = build_anneal_bundle(cycle4).with_context(context)
    result = submit(bundle)
    assert result.metadata["ground_energy"] == -4.0
    assert result.metadata["num_ground_states"] == 2
    assert set(result.counts) == {"0101", "1010"}


# -- trajectory-engine selection (stabilizer / auto) --------------------------------

def test_gate_backend_auto_selects_stabilizer_for_clifford_bundle(ising_vars):
    result = run_gate(
        ising_vars,
        [prep_uniform(ising_vars), measurement(ising_vars)],
        samples=512,
        options={"trajectory_engine": "auto", "noise": {"oneq_error": 0.01}},
    )
    assert result.metadata["trajectory_engine"] == "stabilizer"
    assert sum(result.counts.values()) == 512


def test_gate_backend_auto_falls_back_to_batched_for_non_clifford(reg_phase10):
    # The QFT lowering emits controlled phases (non-Clifford), so auto
    # selection must route to the batched engine instead of crashing.
    result = run_gate(
        reg_phase10,
        [prep_uniform(reg_phase10), qft_operator(reg_phase10), measurement(reg_phase10)],
        samples=128,
        options={"trajectory_engine": "auto", "noise": {"oneq_error": 0.01}},
    )
    assert result.metadata["trajectory_engine"] == "batched"
    assert sum(result.counts.values()) == 128


def test_malformed_noise_option_fails_the_run(ising_vars):
    from repro.core.errors import BackendError

    ops = [prep_uniform(ising_vars), measurement(ising_vars)]
    for noise, message in (
        ({"twoq_eror": 0.5}, "unknown noise rate 'twoq_eror'"),
        ({"readout_error": True}, "readout_error must be a real number"),
        ({"oneq_error": "0.1"}, "oneq_error must be a real number"),
    ):
        with pytest.raises(BackendError, match=message):
            run_gate(ising_vars, ops, samples=64, options={"noise": noise})


def test_gate_backend_explicit_stabilizer_on_non_clifford_raises_typed(reg_phase10):
    from repro.core.errors import BackendError, UnsupportedGateError

    with pytest.raises(UnsupportedGateError) as excinfo:
        run_gate(
            reg_phase10,
            [prep_uniform(reg_phase10), qft_operator(reg_phase10), measurement(reg_phase10)],
            samples=64,
            options={"trajectory_engine": "stabilizer"},
        )
    # The typed selection signal surfaces unwrapped, never as BackendError.
    assert not isinstance(excinfo.value, BackendError)
    assert excinfo.value.gate
    assert excinfo.value.index >= 0
