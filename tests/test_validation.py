"""Tests for cross-descriptor validation and the validation report."""

import pytest

from repro.core import (
    CompatibilityError,
    ContextDescriptor,
    ContextError,
    ExecPolicy,
    QECPolicy,
    QuantumOperatorDescriptor,
    ResultSchema,
    TargetSpec,
    ising_register,
    verify,
)
from repro.core.validation import check_context, check_operator, check_sequence
from repro.oplib import ising_problem_operator, measurement, prep_uniform, qaoa_sequence


def test_verify_clean_qaoa_bundle(ising_vars, cycle4):
    seq = qaoa_sequence(ising_vars, cycle4.edges, gammas=[0.1], betas=[0.2])
    report = verify({ising_vars.id: ising_vars}, seq)
    assert report.ok
    assert not report.errors


def test_edge_out_of_range_rejected(ising_vars):
    op = QuantumOperatorDescriptor(
        name="bad", rep_kind="ISING_COST_PHASE", domain_qdt=ising_vars.id,
        params={"gamma": 0.1, "edges": [[0, 7]]},
    )
    with pytest.raises(CompatibilityError):
        check_operator(op, {ising_vars.id: ising_vars})


def test_h_length_mismatch_rejected(ising_vars):
    op = ising_problem_operator(ising_vars, edges=[(0, 1)])
    broken = op.with_params(h=[0.0, 0.0])
    with pytest.raises(CompatibilityError):
        check_operator(broken, {ising_vars.id: ising_vars})


def test_unbound_angle_detected(ising_vars):
    op = QuantumOperatorDescriptor(
        name="mixer", rep_kind="MIXER_RX", domain_qdt=ising_vars.id, params={}
    )
    report = verify({ising_vars.id: ising_vars}, [op, measurement(ising_vars)])
    assert not report.ok
    assert any("beta" in str(issue) for issue in report.errors)


def test_operation_after_measurement_rejected(ising_vars):
    ops = [measurement(ising_vars), prep_uniform(ising_vars)]
    with pytest.raises(CompatibilityError):
        check_sequence(ops, {ising_vars.id: ising_vars})


def test_annealing_engine_rejects_gate_templates(ising_vars, cycle4):
    seq = qaoa_sequence(ising_vars, cycle4.edges, gammas=[0.1], betas=[0.2])
    ctx = ContextDescriptor(exec=ExecPolicy(engine="anneal.simulated_annealer"))
    with pytest.raises(ContextError):
        check_context(ctx, seq, {ising_vars.id: ising_vars})


def test_qec_with_annealer_rejected(ising_vars):
    op = ising_problem_operator(ising_vars, edges=[(0, 1)])
    ctx = ContextDescriptor(
        exec=ExecPolicy(engine="anneal.simulated_annealer"), qec=QECPolicy(distance=3)
    )
    with pytest.raises(ContextError):
        check_context(ctx, [op], {ising_vars.id: ising_vars})


def test_coupling_map_too_small_rejected(ising_vars, cycle4):
    seq = qaoa_sequence(ising_vars, cycle4.edges, gammas=[0.1], betas=[0.2])
    ctx = ContextDescriptor(
        exec=ExecPolicy(
            engine="gate.aer_simulator",
            target=TargetSpec(coupling_map=[(0, 1)]),
        )
    )
    with pytest.raises(ContextError):
        check_context(ctx, seq, {ising_vars.id: ising_vars})


def test_warning_for_missing_measurement(ising_vars):
    report = verify({ising_vars.id: ising_vars}, [prep_uniform(ising_vars)])
    assert report.ok  # warnings only
    assert any("no measurement" in issue.message for issue in report.warnings)


def test_report_raise_if_failed(ising_vars):
    bad = QuantumOperatorDescriptor(
        name="bad", rep_kind="ISING_COST_PHASE", domain_qdt="ghost",
        params={"gamma": 0.1, "edges": []},
    )
    report = verify({ising_vars.id: ising_vars}, [bad])
    assert not report.ok
    with pytest.raises(CompatibilityError):
        report.raise_if_failed()


def test_register_table_key_mismatch(ising_vars):
    report = verify({"wrong_key": ising_vars}, [prep_uniform(ising_vars)])
    assert not report.ok


def test_verify_reports_each_error_once_and_always_checks_non_interference(ising_vars):
    # An operator's own fault is reported once, under its index; the
    # non-interference rule is still checked after it and reported under
    # ``sequence``.
    mixer = QuantumOperatorDescriptor(
        name="mixer", rep_kind="MIXER_RX", domain_qdt=ising_vars.id, params={}
    )
    ops = [mixer, measurement(ising_vars), prep_uniform(ising_vars)]
    report = verify({ising_vars.id: ising_vars}, ops)
    beta = [issue for issue in report.errors if "beta" in issue.message]
    after = [issue for issue in report.errors if "after it has been measured" in issue.message]
    assert [issue.location for issue in beta] == ["operators[0] (mixer)"]
    assert [issue.location for issue in after] == ["sequence"]
    assert "operator #2" in after[0].message
    assert len(report.errors) == 2


def test_sequence_validate_checks_members_then_the_rule(ising_vars):
    from repro.core import DescriptorError, OperatorSequence

    qdts = {ising_vars.id: ising_vars}
    mixer = QuantumOperatorDescriptor(
        name="mixer", rep_kind="MIXER_RX", domain_qdt=ising_vars.id, params={}
    )
    # Every member is checked before the rule: the member's fault wins.
    with pytest.raises(DescriptorError, match="beta"):
        OperatorSequence([measurement(ising_vars), prep_uniform(ising_vars), mixer]).validate(qdts)
    with pytest.raises(CompatibilityError, match="after it has been measured"):
        OperatorSequence([measurement(ising_vars), prep_uniform(ising_vars)]).validate(qdts)
    # The rule alone needs no register table.
    OperatorSequence([prep_uniform(ising_vars), measurement(ising_vars)]).check_non_interference()
