"""Tests for execution context descriptors."""

import pytest

from repro.core import (
    AnnealPolicy,
    CommPolicy,
    ContextDescriptor,
    ContextError,
    ExecPolicy,
    PulsePolicy,
    QECPolicy,
    TargetSpec,
)


def test_listing4_round_trip():
    ctx = ContextDescriptor(
        exec=ExecPolicy(
            engine="gate.aer_simulator",
            samples=4096,
            seed=42,
            target=TargetSpec(
                basis_gates=["sx", "rz", "cx"],
                coupling_map=[(i, i + 1) for i in range(9)],
            ),
            options={"optimization_level": 2},
        )
    )
    doc = ctx.to_dict()
    assert doc["$schema"] == "ctx.schema.json"
    assert doc["exec"]["engine"] == "gate.aer_simulator"
    assert doc["exec"]["samples"] == 4096
    assert doc["exec"]["target"]["basis_gates"] == ["sx", "rz", "cx"]
    assert doc["exec"]["options"]["optimization_level"] == 2
    rebuilt = ContextDescriptor.from_dict(doc)
    assert rebuilt.to_dict() == doc


def test_listing5_qec_block_round_trip():
    ctx = ContextDescriptor(
        exec=ExecPolicy(engine="gate.aer_simulator"),
        qec=QECPolicy(code_family="surface", distance=7, allocator="auto"),
    )
    doc = ctx.to_dict()
    assert doc["qec"]["code_family"] == "surface"
    assert doc["qec"]["distance"] == 7
    rebuilt = ContextDescriptor.from_dict(doc)
    assert rebuilt.uses_qec and rebuilt.qec.distance == 7


def test_fig3_nested_contexts_form_accepted():
    doc = {
        "$schema": "ctx.schema.json",
        "contexts": {"anneal": {"num_reads": 1000}},
    }
    ctx = ContextDescriptor.from_dict(doc)
    assert ctx.anneal is not None and ctx.anneal.num_reads == 1000
    assert ctx.exec.engine_family == "anneal"


def test_exec_policy_validation():
    with pytest.raises(ContextError):
        ExecPolicy(engine="")
    with pytest.raises(ContextError):
        ExecPolicy(engine="gate.x", samples=0)
    with pytest.raises(ContextError):
        ExecPolicy(engine="gate.x", seed=-5)
    for samples in ("7", 7.0, True, None):
        with pytest.raises(ContextError, match="samples"):
            ExecPolicy(engine="gate.x", samples=samples)
    assert ExecPolicy(engine="gate.x", seed=0).seed == 0
    assert ExecPolicy(engine="gate.aer_simulator").engine_family == "gate"


def test_target_spec_validation():
    with pytest.raises(ContextError):
        TargetSpec(coupling_map=[(0, 0)])
    spec = TargetSpec(coupling_map=[(0, 1), (1, 2)])
    assert not spec.is_all_to_all
    assert spec.max_qubit() == 2
    assert TargetSpec().is_all_to_all


def test_qec_policy_validation():
    with pytest.raises(ContextError):
        QECPolicy(distance=4)  # even distances rejected
    with pytest.raises(ContextError):
        QECPolicy(physical_error_rate=0.0)
    for distance in ("3", 3.0, True):
        with pytest.raises(ContextError, match="distance"):
            QECPolicy(distance=distance)
    for rate in ("0.1", None, True):
        with pytest.raises(ContextError, match="physical_error_rate"):
            QECPolicy(physical_error_rate=rate)
    assert QECPolicy(distance=7).logical_gate_set


def test_anneal_policy_validation():
    with pytest.raises(ContextError):
        AnnealPolicy(num_reads=0)
    with pytest.raises(ContextError):
        AnnealPolicy(schedule="exponential")
    with pytest.raises(ContextError):
        AnnealPolicy(beta_range=(2.0, 1.0))
    with pytest.raises(ContextError):
        AnnealPolicy(seed=-5)
    for field in ("num_reads", "num_sweeps"):
        for count in ("5", None, 2.5, True):
            with pytest.raises(ContextError, match=field):
                AnnealPolicy(**{field: count})
    policy = AnnealPolicy(beta_range=(0.1, 5.0))
    assert policy.to_dict()["beta_range"] == [0.1, 5.0]


def test_comm_and_pulse_policy_validation():
    with pytest.raises(ContextError):
        CommPolicy(max_qpus=0)
    with pytest.raises(ContextError):
        CommPolicy(epr_fidelity=1.5)
    with pytest.raises(ContextError):
        PulsePolicy(dt_ns=0)
    with pytest.raises(ContextError, match="max_qpus"):
        CommPolicy(max_qpus="2")
    with pytest.raises(ContextError, match="qpu_capacity"):
        CommPolicy(qpu_capacity=None)
    with pytest.raises(ContextError, match="epr_fidelity"):
        CommPolicy(epr_fidelity="1")
    with pytest.raises(ContextError, match="dt_ns"):
        PulsePolicy(dt_ns="0.2")


def test_with_engine_preserves_everything_else():
    ctx = ContextDescriptor(
        exec=ExecPolicy(engine="gate.aer_simulator", samples=123, seed=9),
        qec=QECPolicy(distance=5),
    )
    retargeted = ctx.with_engine("anneal.simulated_annealer")
    assert retargeted.engine == "anneal.simulated_annealer"
    assert retargeted.samples == 123
    assert retargeted.qec.distance == 5
    # original untouched
    assert ctx.engine == "gate.aer_simulator"


def test_context_save_load(tmp_path):
    ctx = ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator", samples=64))
    path = tmp_path / "CTX.json"
    ctx.save(path)
    assert ContextDescriptor.load(path).to_dict() == ctx.to_dict()
