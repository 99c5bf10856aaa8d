"""Gate-model substrate: gates, circuits, state-vector simulation, transpiler."""

from .batched import BatchedStatevector
from .circuit import Circuit, Instruction
from .density import (
    MAX_DENSITY_QUBITS,
    DensityMatrix,
    DensityMatrixSimulator,
    pauli_terms,
)
from .fusion import (
    CLIFFORD_GATES,
    StabilizerProgram,
    TrajectoryProgram,
    clear_compile_caches,
    compile_cache_info,
    compile_stabilizer_program,
    compile_stabilizer_program_cached,
    compile_trajectory_program,
    compile_trajectory_program_cached,
    is_clifford_circuit,
)
from .faults import FAULT_KINDS, FaultEvent, FaultPlan
from .gates import GateDef, cached_gate_matrix, gate_matrix, get_gate, has_gate, list_gates
from .noise import NoiseModel
from .stabilizer import PRIMITIVE_GATES, StabilizerTableau
from .threads import limit_blas_threads
from .statevector import (
    DEFAULT_MAX_BATCH_MEMORY,
    SimulationResult,
    Statevector,
    StatevectorSimulator,
    bits_to_index,
    index_to_bits,
)
from .transpiler import Layout, TranspileResult, transpile, transpile_cached
from .unitary import circuit_unitary, equal_up_to_global_phase
from . import analysis
from .analysis import (
    IRDiagnostic,
    IRVerificationError,
    VerificationReport,
    set_verify_each,
    verify_each_enabled,
    verify_program,
    verify_stabilizer_program,
    verify_stage,
    verify_template,
)

__all__ = [
    "BatchedStatevector",
    "Circuit",
    "Instruction",
    "DensityMatrix",
    "DensityMatrixSimulator",
    "MAX_DENSITY_QUBITS",
    "pauli_terms",
    "GateDef",
    "gate_matrix",
    "cached_gate_matrix",
    "get_gate",
    "has_gate",
    "list_gates",
    "NoiseModel",
    "FaultEvent",
    "FaultPlan",
    "FAULT_KINDS",
    "PRIMITIVE_GATES",
    "StabilizerTableau",
    "StabilizerProgram",
    "CLIFFORD_GATES",
    "is_clifford_circuit",
    "compile_stabilizer_program",
    "compile_stabilizer_program_cached",
    "TrajectoryProgram",
    "compile_trajectory_program",
    "compile_trajectory_program_cached",
    "compile_cache_info",
    "clear_compile_caches",
    "limit_blas_threads",
    "Statevector",
    "StatevectorSimulator",
    "SimulationResult",
    "DEFAULT_MAX_BATCH_MEMORY",
    "index_to_bits",
    "bits_to_index",
    "transpile",
    "transpile_cached",
    "TranspileResult",
    "Layout",
    "circuit_unitary",
    "equal_up_to_global_phase",
    "analysis",
    "IRDiagnostic",
    "IRVerificationError",
    "VerificationReport",
    "set_verify_each",
    "verify_each_enabled",
    "verify_program",
    "verify_stabilizer_program",
    "verify_template",
    "verify_stage",
]
