"""The gate-model reference backend (Aer-simulator stand-in).

Execution pipeline for one bundle:

1. allocate circuit qubits to register carriers (contiguous blocks in
   declaration order) and classical bits to each measuring operator,
2. lower every operator descriptor through the gate realization rules,
3. transpile against the context's ``target`` block (basis gates, coupling
   map, optimisation level) through the structure-keyed transpile cache, so
   re-running the same circuit shape with fresh parameters (a sampled
   variational loop) skips layout selection and SWAP routing,
4. run the state-vector simulator with the requested samples/seed/noise,
5. return counts, transpilation metrics and the result schemas needed to
   decode.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.bundle import JobBundle
from ..core.context import ContextDescriptor, ExecPolicy
from ..core.errors import BackendError, UnsupportedGateError
from ..results.counts import Counts
from ..simulators.gate.circuit import Circuit
from ..simulators.gate.noise import NoiseModel
from ..simulators.gate.statevector import DEFAULT_MAX_BATCH_MEMORY, StatevectorSimulator
from ..simulators.gate.transpiler import transpile_cached
from .base import Backend, ExecutionResult
from .lowering import GATE_LOWERING_RULES, QubitAllocation, lower_operator

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
        """Lower the full operator sequence into one circuit."""
        allocation = self.allocate(bundle)
        circuit = Circuit(allocation.num_qubits, allocation.num_clbits, name=bundle.name)
        for op in bundle.operators:
            offset = allocation.clbit_offsets.get(op.name, 0)
            lower_operator(op, bundle.qdts, allocation, circuit, offset)
        return circuit, allocation

    # -- execution ----------------------------------------------------------------------
    def run(self, bundle: JobBundle, lowered: Optional[tuple] = None) -> ExecutionResult:
        """Execute *bundle* end to end and return decoded-ready counts.

        *lowered* optionally supplies an already-built ``(circuit,
        allocation)`` pair for this bundle (the serving layer lowers once to
        compute its coalescing key and passes the artifact through, instead
        of lowering the same bundle twice).

        Simulator knobs are read from ``context.exec.options`` (all
        optional; unknown keys are ignored).  The serving layer additionally
        reads ``deadline_s`` and ``coalesce_merge`` from the same mapping;
        both are scheduling-only knobs that never change executed counts, so
        they are excluded from the merge eligibility key
        (:attr:`MERGE_NEUTRAL_OPTIONS`).  Knobs consumed here:

        ``optimization_level`` (int, default ``1``)
            Transpiler effort passed to
            :func:`~repro.simulators.gate.transpiler.transpile`.
        ``noise`` (mapping, default ``None``)
            :class:`~repro.simulators.gate.noise.NoiseModel` rates
            (``oneq_error`` / ``twoq_error`` / ``readout_error``); any
            nonzero rate forces the trajectory path.
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
            Clifford tableau engine: one tableau pass per compile, then a
            phase-only kernel on per-shot signs.  No width cap (hundreds
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
        ``density_sampling`` (``"multinomial"`` | ``"deterministic"``,
            default ``"multinomial"``)
            How the density engine converts exact probabilities to counts:
            seeded multinomial draws, or RNG-free largest-remainder
            apportionment.  Ignored by the other engines.
        ``trajectory_workers`` (int >= 1 or ``"auto"``, default ``1``)
            Worker count of the chunk executor shared by the batched and
            stabilizer engines.  Seeded results are bit-identical for every
            value; the effective parallelism is capped by the number of
            chunks ``max_batch_memory`` produces.
        ``trajectory_executor`` (``"thread"`` | ``"process"`` | ``"auto"``,
            default ``"thread"``)
            How the batched and stabilizer engines' chunks are dispatched
            across ``trajectory_workers``: the in-process thread pool, or the
            persistent forkserver worker pool of
            :mod:`~repro.simulators.gate.procpool` (per-worker warm compile
            caches; real parallelism past the GIL).  Seeded counts are
            bit-identical across both executors at every worker count.
            ``"auto"`` resolves via
            :func:`~repro.backends.registry.resolve_trajectory_executor`:
            ``"process"`` on multi-core hosts, ``"thread"`` on one core.
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
        ``verify_compiled`` (bool, default ``False``)
            Run every compiled artifact of the run — the bound trajectory
            program, its structural template and the result metadata —
            through the static IR verifier
            (:mod:`~repro.simulators.gate.analysis`); a contract violation
            raises instead of returning a result.  Off by default: the
            disabled path adds no hot-path work.
        ``variational_evaluation`` (``"sampled"`` | ``"expectation"``,
            default ``"sampled"``)
            Consumed by :mod:`repro.workflows.qaoa_optimizer`, not by this
            backend: ``"expectation"`` replaces per-evaluation histogram
            sampling with exact observable expectations (and batched
            parameter-grid sweeps) in the variational outer loop.  Listed
            here because it rides in the same exec-policy options mapping.
        """
        context, exec_policy, circuit, allocation, transpiled = self._prepare(
            bundle, lowered
        )
        try:
            simulator = self._make_simulator(exec_policy)
            simulation = simulator.run(
                transpiled.circuit,
                shots=exec_policy.samples,
                seed=exec_policy.seed,
            )
        except UnsupportedGateError:
            # Typed engine-selection signal (non-Clifford gate under the
            # stabilizer engine): callers branch on this type, so it must
            # surface unwrapped.
            raise
        except Exception as exc:  # noqa: BLE001 - surface as backend failure
            raise BackendError(f"gate backend simulation failed: {exc}") from exc
        return self._make_result(
            bundle, context, exec_policy, circuit, allocation, transpiled, simulation
        )

    #: Exec-policy options that never change executed counts — serving-layer
    #: scheduling knobs — excluded from :meth:`merge_key` so jobs differing
    #: only in deadline or merge opt-out still share one merged run.
    MERGE_NEUTRAL_OPTIONS = frozenset({"deadline_s", "coalesce_merge"})

    def merge_key(self, bundle: JobBundle, lowered: Optional[tuple] = None) -> tuple:
        """Hashable merge-eligibility key for batch-axis merged execution.

        Two bundles may execute as one merged run iff their keys are equal:
        identical transpile input (the bound circuit's structure **and**
        parameter values, barriers included: they block the peephole
        passes, so the group can share one transpiled circuit), identical
        frozen exec options (minus the serving-only
        :attr:`MERGE_NEUTRAL_OPTIONS`), identical target constraints, and
        the same engine.  ``samples`` and ``seed`` are per-job
        :class:`~repro.core.context.ExecPolicy` fields — not options — and
        are deliberately free to differ: they become the merged run's
        per-job ``(shots, seed)`` specs, each with its own RNG streams.
        """
        circuit, _ = lowered if lowered is not None else self.build_circuit(bundle)
        context = bundle.context or ContextDescriptor(exec=ExecPolicy(engine=self.engines[0]))
        exec_policy = context.exec
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
        return (
            exec_policy.engine,
            circuit.num_qubits,
            circuit.num_clbits,
            tuple((i.name, i.qubits, i.clbits, i.params) for i in circuit.instructions),
            target_key,
            _freeze(options),
        )

    def run_merged(
        self,
        bundles: Sequence[JobBundle],
        lowered: Optional[Sequence[Optional[tuple]]] = None,
    ) -> List[ExecutionResult]:
        """Execute several merge-eligible bundles as one merged simulator run.

        Callers group by :meth:`merge_key`, which keys on the transpile
        input, so only the first member is transpiled.  Every other member
        keeps its own capability check, context and lowering, and reuses
        that first transpile result: the circuit the merged run executes
        and the transpile metrics in its metadata.  This method hands
        the per-bundle ``(samples, seed)`` specs to
        :meth:`~repro.simulators.gate.statevector.StatevectorSimulator.run_merged`,
        which guarantees each job's seeded counts are bit-identical to a
        solo run.  Each returned :class:`ExecutionResult` carries its own
        bundle's schemas and digest, the usual metadata, and
        ``metadata["merged"]`` describing the group.  That value is ``None``
        for a group of one, and for jobs the density engine ran: it has no
        batch axis and runs the jobs one by one.
        """
        if not bundles:
            return []
        lowered_list = list(lowered) if lowered is not None else [None] * len(bundles)
        first = self._prepare(bundles[0], lowered_list[0])
        _, exec_first, _, _, transpiled_first = first
        prepared = [first] + [
            self._prepare(bundle, low, transpiled_first)
            for bundle, low in zip(bundles[1:], lowered_list[1:])
        ]
        specs = [
            (exec_policy.samples, exec_policy.seed)
            for _, exec_policy, _, _, _ in prepared
        ]
        try:
            simulator = self._make_simulator(exec_first)
            simulations = simulator.run_merged(transpiled_first.circuit, specs)
        except UnsupportedGateError:
            raise
        except Exception as exc:  # noqa: BLE001 - surface as backend failure
            raise BackendError(f"gate backend merged simulation failed: {exc}") from exc
        return [
            self._make_result(
                bundle, context, exec_policy, circuit, allocation, transpiled, simulation
            )
            for bundle, (context, exec_policy, circuit, allocation, transpiled), simulation
            in zip(bundles, prepared, simulations)
        ]

    def _prepare(self, bundle: JobBundle, lowered: Optional[tuple], transpiled=None):
        """Shared front half of :meth:`run` / :meth:`run_merged`.

        Capability check, context default, lowering (reusing a caller-built
        ``(circuit, allocation)`` pair when supplied) and cached
        transpilation, unless a merged group's *transpiled* result is given.
        """
        self.check_capabilities(bundle)
        context = bundle.context or ContextDescriptor(exec=ExecPolicy(engine=self.engines[0]))
        exec_policy = context.exec

        circuit, allocation = (
            lowered if lowered is not None else self.build_circuit(bundle)
        )

        if transpiled is None:
            target = exec_policy.target
            transpiled = transpile_cached(
                circuit,
                basis_gates=list(target.basis_gates) if target and target.basis_gates else None,
                coupling_map=list(target.coupling_map) if target and target.coupling_map else None,
                optimization_level=int(exec_policy.options.get("optimization_level", 1)),
            )
        return context, exec_policy, circuit, allocation, transpiled

    def _make_simulator(self, exec_policy: ExecPolicy) -> StatevectorSimulator:
        """Build the configured simulator for one run (knobs documented on :meth:`run`)."""
        noise_model = NoiseModel.from_dict(exec_policy.options.get("noise"))
        trajectory_executor = str(
            exec_policy.options.get("trajectory_executor", "thread")
        )
        if trajectory_executor == "auto":
            from .registry import resolve_trajectory_executor  # local: import cycle

            trajectory_executor = resolve_trajectory_executor()
        return StatevectorSimulator(
            noise_model=noise_model,
            # Passed through unconverted: the simulator enforces the
            # positive-int-or-None contract.
            max_batch_memory=exec_policy.options.get(
                "max_batch_memory", DEFAULT_MAX_BATCH_MEMORY
            ),
            trajectory_engine=str(exec_policy.options.get("trajectory_engine", "batched")),
            trajectory_executor=trajectory_executor,
            trajectory_dtype=str(exec_policy.options.get("trajectory_dtype", "complex64")),
            # Passed through unconverted: the simulator enforces the
            # int-or-"auto" contract and coercing here would mask it.
            trajectory_workers=exec_policy.options.get("trajectory_workers", 1),
            density_sampling=str(
                exec_policy.options.get("density_sampling", "multinomial")
            ),
            # Passed through unconverted: the simulator coerces dict
            # specs through FaultPlan.coerce and enforces the contract.
            fault_plan=exec_policy.options.get("fault_plan"),
            # Passed through unconverted: the simulator enforces the
            # bool contract.
            verify_compiled=exec_policy.options.get("verify_compiled", False),
        )

    def _make_result(
        self,
        bundle: JobBundle,
        context: ContextDescriptor,
        exec_policy: ExecPolicy,
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
