"""The gate-model reference backend (Aer-simulator stand-in).

Execution pipeline for one bundle:

1. allocate circuit qubits to register carriers (contiguous blocks in
   declaration order) and classical bits to each measuring operator,
2. lower every operator descriptor through the gate realization rules, once
   per distinct intent: the lowering memo keys the lowered circuit and its
   allocation on the registers and operators, so a repeated intent costs a
   key and a copy,
3. transpile against the context's ``target`` block (basis gates, coupling
   map, optimisation level) through the structure-keyed transpile cache, so
   re-running the same circuit shape with fresh parameters (a sampled
   variational loop) skips layout selection and SWAP routing,
4. run the state-vector simulator with the requested samples/seed/noise,
5. return counts, transpilation metrics and the result schemas needed to
   decode.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..core.bundle import JobBundle
from ..core.context import ContextDescriptor, ExecPolicy
from ..core.errors import BackendError, UnsupportedGateError
from ..results.counts import Counts
from ..simulators.gate.circuit import Circuit
from ..simulators.gate.noise import NoiseModel
from ..simulators.gate.statevector import DEFAULT_MAX_BATCH_MEMORY, StatevectorSimulator
from ..simulators.gate.transpiler import transpile_cached
from .base import Backend, ExecutionResult
from .lowering import (
    GATE_LOWERING_RULES,
    QubitAllocation,
    _intent_key,
    _lower_cached,
    lower_operator,
)

__all__ = ["GateBackend"]


def _freeze(value: Any) -> Any:
    """Recursively convert *value* into a hashable merge-key component.

    Mappings become sorted ``(key, frozen value)`` tuples, sequences become
    tuples, primitives pass through; anything else falls back to its
    ``repr`` (identity-ish semantics — unknown objects only compare equal
    when they print equal, which is the conservative direction for merge
    eligibility).
    """
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return tuple(_freeze(v) for v in items)
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    return ("repr", repr(value))


class GateBackend(Backend):
    """Backend realising operator descriptors as circuits on the state-vector simulator."""

    name = "gate.reference"
    engines = (
        "gate.statevector_simulator",
        "gate.aer_simulator",
        "gate.reference",
    )

    def __init__(self) -> None:
        self.supported_rep_kinds = tuple(sorted(GATE_LOWERING_RULES))

    # -- bundle -> circuit ---------------------------------------------------------
    def allocate(self, bundle: JobBundle) -> QubitAllocation:
        """Contiguous qubit blocks per register, clbit blocks per measuring op."""
        qubit_map: Dict[str, List[int]] = {}
        next_qubit = 0
        for register_id, qdt in bundle.qdts.items():
            qubit_map[register_id] = list(range(next_qubit, next_qubit + qdt.width))
            next_qubit += qdt.width
        clbit_offsets: Dict[str, int] = {}
        next_clbit = 0
        for op in bundle.operators:
            if op.result_schema is not None and (op.is_measurement or op.info.measures):
                clbit_offsets[op.name] = next_clbit
                next_clbit += op.result_schema.num_clbits
        return QubitAllocation(
            qubit_map=qubit_map,
            clbit_offsets=clbit_offsets,
            num_qubits=next_qubit,
            num_clbits=max(next_clbit, 1),
        )

    def build_circuit(self, bundle: JobBundle) -> Tuple[Circuit, QubitAllocation]:
        """Lower the full operator sequence into one circuit, once per distinct intent.

        A repeated intent is a lowering-memo hit: a private copy of the
        stored pair, named after *bundle*
        (:func:`~repro.backends.lowering.lowering_cache_info`).
        """
        return _lower_cached(bundle, self._lower)

    def _lower(self, bundle: JobBundle) -> Tuple[Circuit, QubitAllocation]:
        """The allocate-and-lower loop behind a lowering-memo miss."""
        allocation = self.allocate(bundle)
        circuit = Circuit(allocation.num_qubits, allocation.num_clbits, name=bundle.name)
        for op in bundle.operators:
            offset = allocation.clbit_offsets.get(op.name, 0)
            lower_operator(op, bundle.qdts, allocation, circuit, offset)
        return circuit, allocation

    # -- execution ----------------------------------------------------------------------
    def run(self, bundle: JobBundle) -> ExecutionResult:
        """Execute *bundle* end to end and return decoded-ready counts.

        Simulator knobs are read from ``context.exec.options`` (all
        optional; unknown keys are ignored).  The serving layer additionally
        reads ``deadline_s`` from the same mapping; it never changes executed
        counts, so it is left out of :meth:`merge_key`
        (:attr:`MERGE_NEUTRAL_OPTIONS`), which the serving layer groups jobs
        by.  Every other option, known here or not, is part of that key.
        Knobs consumed here:

        ``optimization_level`` (int 0-3, default ``1``)
            Transpiler effort passed to
            :func:`~repro.simulators.gate.transpiler.transpile`.  A bool,
            a non-int or a value outside 0-3 raises the typed
            :class:`~repro.core.errors.TranspilerError`.
        ``noise`` (mapping, default ``None``)
            :class:`~repro.simulators.gate.noise.NoiseModel` rates
            (``oneq_error`` / ``twoq_error`` / ``readout_error``); any
            nonzero rate forces the trajectory path.  Another key, or a rate
            that is not a real number, raises
            :class:`~repro.core.errors.BackendError`.
        ``max_batch_memory`` (int bytes or ``None``, default 16 MiB)
            Byte budget for the batched engine's per-chunk working set;
            ``None`` disables chunking.
        ``trajectory_engine`` (``"batched"`` | ``"density"`` |
            ``"stabilizer"`` | ``"auto"``, default ``"batched"``)
            Which engine executes noisy / mid-circuit-measuring circuits.
            ``"density"`` routes the whole run through the exact
            density-matrix oracle (closed-form probabilities, noise as CPTP
            maps; capped at
            :data:`~repro.simulators.gate.density.MAX_DENSITY_QUBITS`
            qubits).  ``"stabilizer"`` runs the whole circuit on the
            Clifford tableau engine: one tableau pass per compile, folded
            into an affine map over GF(2) that each chunk samples per
            fired error.  No width cap (hundreds
            of qubits for QEC cycles), but a non-Clifford gate raises the
            typed :class:`~repro.core.errors.UnsupportedGateError`
            (re-raised as-is, never wrapped in a
            :class:`~repro.core.errors.BackendError`).  ``"auto"`` is
            passed to the simulator, which resolves it against the
            *transpiled* circuit: stabilizer when every gate is Clifford,
            batched otherwise.
        ``trajectory_dtype`` (``"complex64"`` | ``"complex128"``, default
            ``"complex64"``)
            State dtype of the batched engine.
        ``trajectory_workers`` (int >= 1, default ``1``)
            Worker count of the chunk executor shared by the batched and
            stabilizer engines.  Seeded results are bit-identical for every
            value; the effective parallelism is capped by the number of
            chunks ``max_batch_memory`` produces.
        ``trajectory_executor`` (``"thread"`` | ``"process"``, default
            ``"thread"``)
            How the batched and stabilizer engines' chunks are dispatched
            across ``trajectory_workers``: the in-process thread pool, or the
            persistent forkserver worker pool of
            :mod:`~repro.simulators.gate.procpool` (per-worker warm compile
            caches; real parallelism past the GIL).  Seeded counts are
            bit-identical across both executors at every worker count.
        ``fault_plan`` (mapping or ``None``, default ``None``)
            Deterministic fault-injection schedule for the chunk executors
            (:class:`~repro.simulators.gate.faults.FaultPlan` dict spec:
            an ``events`` list or a seeded chaos spec).  Injected
            ``"kill"`` faults exercise the process pool's worker-crash
            recovery — recovered seeded counts stay bit-identical to an
            uncrashed run; ``"raise"`` faults surface as the transient
            :class:`~repro.core.errors.TransientExecutionError` for the
            serving layer's retry policy.  Test/chaos tooling only: leave
            unset in production (the disabled path costs one attribute
            check per chunk).
        ``variational_evaluation`` (``"sampled"`` | ``"expectation"``,
            default ``"sampled"``)
            Consumed by :mod:`repro.workflows.qaoa_optimizer`, not by this
            backend: ``"expectation"`` replaces per-evaluation histogram
            sampling with exact observable expectations (and batched
            parameter-grid sweeps) in the variational outer loop.  Listed
            here because it rides in the same exec-policy options mapping.

        IR verification is not an exec option.  Its one switch is
        :func:`~repro.simulators.gate.analysis.set_verify_each`: while it is
        on, every template, bound program, stabilizer program and transpile
        stage a run compiles is verified, and so is the simulation result's
        metadata; a contract violation raises instead of returning a result.
        """
        context, circuit, allocation, transpiled = self._prepare(bundle)
        try:
            simulator = self._make_simulator(context.exec)
            simulation = simulator.run(
                transpiled.circuit,
                shots=context.exec.samples,
                seed=context.exec.seed,
            )
        except UnsupportedGateError:
            # Typed engine-selection signal (non-Clifford gate under the
            # stabilizer engine): callers branch on this type, so it must
            # surface unwrapped.
            raise
        except Exception as exc:  # noqa: BLE001 - surface as backend failure
            raise BackendError(f"gate backend simulation failed: {exc}") from exc
        return self._make_result(bundle, context, circuit, allocation, transpiled, simulation)

    #: Exec-policy options that never change executed counts — the serving
    #: layer's deadline — excluded from :meth:`merge_key` so jobs differing
    #: only in deadline still share one merged run.
    MERGE_NEUTRAL_OPTIONS = frozenset({"deadline_s"})

    def merge_key(self, bundle: JobBundle) -> tuple:
        """Hashable merge-eligibility key; computing it lowers nothing.

        Two bundles may execute as one merged run iff their keys are equal:
        the same engine, the same intent (the lowering memo's digest of the
        registers and operators, barriers included, so equal keys lower to
        one circuit), the same target constraints and the same frozen exec
        options minus :attr:`MERGE_NEUTRAL_OPTIONS`.  ``samples`` and
        ``seed`` are per-job :class:`~repro.core.context.ExecPolicy` fields
        — not options — and are deliberately free to differ: they become
        the merged run's per-job ``(shots, seed)`` specs, each with its own
        RNG streams.  The serving layer keys every job's group on this.
        """
        exec_policy = self._context(bundle).exec
        options = {
            k: v
            for k, v in exec_policy.options.items()
            if k not in self.MERGE_NEUTRAL_OPTIONS
        }
        target = exec_policy.target
        target_key = (
            None
            if target is None
            else (
                tuple(target.basis_gates) if target.basis_gates else None,
                tuple(target.coupling_map) if target.coupling_map else None,
                target.num_qubits,
            )
        )
        return (exec_policy.engine, _intent_key(bundle), target_key, _freeze(options))

    def run_merged(self, bundles: Sequence[JobBundle]) -> List[ExecutionResult]:
        """Execute bundles that share one :meth:`merge_key` as one merged simulator run.

        Members whose keys differ raise :class:`~repro.core.errors.BackendError`
        before any work.  Equal keys mean one intent, target and option set,
        so the front half (capability check, lowering, transpile) runs for
        the first member only, and every member shares its circuit,
        allocation and transpile result.  This method hands the per-bundle
        ``(samples, seed)`` specs to
        :meth:`~repro.simulators.gate.statevector.StatevectorSimulator.run_merged`,
        which guarantees each job's seeded counts are bit-identical to a
        solo run.  Each returned :class:`ExecutionResult` carries its own
        bundle's schemas, digest and context facts, the usual metadata, and
        ``metadata["merged"]`` describing the group.  That value is ``None``
        for a group of one, and for jobs the density engine ran: it has no
        batch axis and runs the jobs one by one.
        """
        if not bundles:
            return []
        key = self.merge_key(bundles[0])
        if any(self.merge_key(bundle) != key for bundle in bundles[1:]):
            raise BackendError(
                "run_merged needs bundles that share one merge key (engine, intent, "
                "target and options); group them by GateBackend.merge_key"
            )
        _, circuit, allocation, transpiled = self._prepare(bundles[0])
        contexts = [self._context(bundle) for bundle in bundles]
        specs = [(context.exec.samples, context.exec.seed) for context in contexts]
        try:
            simulator = self._make_simulator(contexts[0].exec)
            simulations = simulator.run_merged(transpiled.circuit, specs)
        except UnsupportedGateError:
            raise
        except Exception as exc:  # noqa: BLE001 - surface as backend failure
            raise BackendError(f"gate backend merged simulation failed: {exc}") from exc
        return [
            self._make_result(bundle, context, circuit, allocation, transpiled, simulation)
            for bundle, context, simulation in zip(bundles, contexts, simulations)
        ]

    def _context(self, bundle: JobBundle) -> ContextDescriptor:
        """*bundle*'s context, or the default one on this backend's first engine."""
        return bundle.context or ContextDescriptor(exec=ExecPolicy(engine=self.engines[0]))

    def _prepare(self, bundle: JobBundle):
        """Shared front half of :meth:`run` / :meth:`run_merged`.

        Capability check, context default, lowering (through the lowering
        memo) and cached transpilation.
        """
        self.check_capabilities(bundle)
        context = self._context(bundle)
        circuit, allocation = self.build_circuit(bundle)
        target = context.exec.target
        transpiled = transpile_cached(
            circuit,
            basis_gates=list(target.basis_gates) if target and target.basis_gates else None,
            coupling_map=list(target.coupling_map) if target and target.coupling_map else None,
            # Passed through unconverted: the transpiler enforces the
            # int-in-0..3 contract and coercing here would mask it.
            optimization_level=context.exec.options.get("optimization_level", 1),
        )
        return context, circuit, allocation, transpiled

    def _make_simulator(self, exec_policy: ExecPolicy) -> StatevectorSimulator:
        """Build the configured simulator for one run (knobs documented on :meth:`run`)."""
        noise_model = NoiseModel.from_dict(exec_policy.options.get("noise"))
        return StatevectorSimulator(
            noise_model=noise_model,
            # Passed through unconverted: the simulator enforces the
            # positive-int-or-None contract.
            max_batch_memory=exec_policy.options.get(
                "max_batch_memory", DEFAULT_MAX_BATCH_MEMORY
            ),
            trajectory_engine=str(exec_policy.options.get("trajectory_engine", "batched")),
            trajectory_executor=str(
                exec_policy.options.get("trajectory_executor", "thread")
            ),
            trajectory_dtype=str(exec_policy.options.get("trajectory_dtype", "complex64")),
            # Passed through unconverted: the simulator enforces the
            # positive-int contract and coercing here would mask it.
            trajectory_workers=exec_policy.options.get("trajectory_workers", 1),
            # Passed through unconverted: the simulator coerces dict
            # specs through FaultPlan.coerce and enforces the contract.
            fault_plan=exec_policy.options.get("fault_plan"),
        )

    def _make_result(
        self,
        bundle: JobBundle,
        context: ContextDescriptor,
        circuit: Circuit,
        allocation: QubitAllocation,
        transpiled,
        simulation,
    ) -> ExecutionResult:
        """Assemble one bundle's :class:`ExecutionResult` from its simulation."""
        schemas = [
            (op.result_schema, allocation.clbit_offsets.get(op.name, 0))
            for op in bundle.operators
            if op.result_schema is not None and op.name in allocation.clbit_offsets
        ]
        counts: Counts = simulation.counts
        exec_policy = context.exec
        metrics = transpiled.metrics  # the transpiler measured both circuits
        return ExecutionResult(
            backend_name=self.name,
            engine=exec_policy.engine,
            counts=counts,
            result_schemas=schemas,
            bundle_digest=bundle.digest(),
            metadata={
                "shots": exec_policy.samples,
                "seed": exec_policy.seed,
                "num_qubits": circuit.num_qubits,
                "lowered_depth": int(metrics["original_depth"]),
                "lowered_twoq": int(metrics["original_twoq"]),
                "transpiled_depth": int(metrics["depth"]),
                "transpiled_twoq": int(metrics["twoq"]),
                "transpile_metrics": dict(metrics),
                "simulation_method": simulation.metadata.get("method"),
                "trajectory_engine": simulation.metadata.get("trajectory_engine"),
                "trajectory_executor": simulation.metadata.get("trajectory_executor"),
                "trajectory_workers": simulation.metadata.get("trajectory_workers"),
                "executor_recovery": simulation.metadata.get("executor_recovery"),
                "num_batches": simulation.metadata.get("num_batches"),
                "merged": simulation.metadata.get("merged"),
                "uses_qec": context.uses_qec,
            },
            _bundle=bundle,
        )
