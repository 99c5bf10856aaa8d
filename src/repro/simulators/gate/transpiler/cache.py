"""Structure-keyed transpile cache: skip layout/routing on re-transpiles.

A sampled variational loop transpiles the *same circuit shape* once per
evaluation — only the rotation angles change — yet layout selection and SWAP
routing depend exclusively on the circuit's **structure** (gate names,
qubits, clbits) and the pass configuration, never on parameter values.  This
module memoises that structural work:

* the cache key is ``(circuit structure, basis gates, coupling map,
  optimization level)``;
* the cached value is a **routing template**: the chosen initial/final
  layouts plus a replay plan recording, for every instruction of the routed
  circuit, either "inserted SWAP on these physical qubits" or "input
  instruction *i* remapped onto these physical qubits";
* a cache hit *re-binds* the template with fresh parameters — the input is
  decomposed to the pre-routing basis (cheap, rule-driven), the plan is
  replayed against it verbatim, and only the parameter-dependent passes
  (basis translation, peephole optimisation) re-run.

Replay reconstructs exactly what :func:`~.passes.transpile` would produce —
routing is deterministic and parameters ride through it untouched — so the
cached and uncached paths return **identical transpiled circuits**.  The
one structural input that could in principle depend on parameter values is
the pre-routing decomposition itself; the template therefore records the
decomposed structure and, whenever a re-bind's decomposition no longer
matches, rebuilds the template from the current circuit and replaces the
cache entry (counted as a *fallback*), so a degenerate first compile can
never pin a stale plan.

Provenance is extracted by routing a relabelled copy of the decomposed
circuit (labels survive routing; inserted SWAPs stay unlabelled), so the
router itself needs no cache-specific mode.

Each entry also keeps its last bound result: a hit whose parameters (and
labels) equal the stored ones returns a fresh copy of it and skips every
pass (about 1 ms, not 10-16 ms, for the 2501-instruction QEC circuit on a
2-core x86 host).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ....core.errors import TranspilerError
from ..circuit import Circuit, Instruction
from ..lru import DEFAULT_CACHE_SIZE, BoundedLRU
from .layout import Layout
from .passes import (
    TranspileResult,
    _check_optimization_level,
    _choose_layout,
    _finish_result,
    _notify_stage,
    _pre_route,
    _stamp,
    _translate_and_optimize,
)
from .routing import route_circuit

__all__ = [
    "transpile_cached",
    "transpile_cache_info",
    "clear_transpile_cache",
]

_LABEL_PREFIX = "__transpile_cache:"

_TRANSPILE_CACHE = BoundedLRU(DEFAULT_CACHE_SIZE)
_FALLBACK_LOCK = threading.Lock()
_transpile_cache_fallbacks = 0


@dataclass(frozen=True)
class _RoutingTemplate:
    """The cached, parameter-independent outcome of layout + routing."""

    working_signature: tuple
    plan: Tuple[Tuple[int, Tuple[int, ...]], ...]
    initial_layout: Tuple[Tuple[int, int], ...]
    final_layout: Tuple[Tuple[int, int], ...]
    num_swaps_inserted: int
    routed_num_qubits: int


def _signature(circuit: Circuit) -> tuple:
    """Hashable key of a circuit's parameter-independent structure.

    Barriers are *kept* (unlike the fusion compiler's key): the peephole
    passes treat them as optimisation blockers, so they are structure here.
    """
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        tuple(
            (inst.name, inst.qubits, inst.clbits) for inst in circuit.instructions
        ),
    )


def _build_template(
    working: Circuit,
    coupling_map: Optional[Sequence[Tuple[int, int]]],
    optimization_level: int,
) -> _RoutingTemplate:
    """Run layout + routing once and record the replay plan.

    The decomposed circuit is relabelled with its instruction indices before
    routing; reading the labels off the routed output yields, in order,
    which output instructions are inserted SWAPs (source index ``-1``) and
    which are remapped input instructions.
    """
    layout = _choose_layout(working, coupling_map, optimization_level)
    labeled = working.copy()
    labeled.instructions = [
        Instruction(inst.name, inst.qubits, inst.params, inst.clbits, f"{_LABEL_PREFIX}{k}")
        for k, inst in enumerate(working.instructions)
    ]
    routing = route_circuit(labeled, coupling_map, initial_layout=layout)
    plan = []
    for inst in routing.circuit.instructions:
        if inst.label is not None and inst.label.startswith(_LABEL_PREFIX):
            plan.append((int(inst.label[len(_LABEL_PREFIX):]), inst.qubits))
        elif inst.name == "swap" and inst.label is None:
            plan.append((-1, inst.qubits))
        else:  # pragma: no cover - router invariant
            raise TranspilerError(
                f"routing produced an instruction without provenance: {inst!r}"
            )
    return _RoutingTemplate(
        working_signature=_signature(working),
        plan=tuple(plan),
        initial_layout=tuple(sorted(routing.initial_layout.to_dict().items())),
        final_layout=tuple(sorted(routing.final_layout.to_dict().items())),
        num_swaps_inserted=routing.num_swaps_inserted,
        routed_num_qubits=routing.circuit.num_qubits,
    )


def _replay(working: Circuit, template: _RoutingTemplate) -> Circuit:
    """Re-bind the routed circuit: recorded structure, fresh parameters."""
    routed = Circuit(template.routed_num_qubits, working.num_clbits, name=working.name)
    routed.metadata = dict(working.metadata)
    instructions = working.instructions
    out = routed.instructions
    for source, qubits in template.plan:
        if source < 0:
            out.append(Instruction("swap", qubits))
        else:
            src = instructions[source]
            out.append(Instruction(src.name, qubits, src.params, src.clbits, src.label))
    return routed


def _fresh(result: TranspileResult, circuit: Circuit, stamp: dict) -> TranspileResult:
    """A copy of *result* that shares nothing mutable, named after *circuit*."""
    out = result.circuit.copy()
    out.name, out.metadata = circuit.name, {**circuit.metadata, **stamp}
    return replace(result, circuit=out, initial_layout=result.initial_layout.copy(),
                   final_layout=result.final_layout.copy(), metrics=dict(result.metrics))


def transpile_cached(
    circuit: Circuit,
    *,
    basis_gates: Optional[Sequence[str]] = None,
    coupling_map: Optional[Sequence[Tuple[int, int]]] = None,
    optimization_level: int = 1,
) -> TranspileResult:
    """Transpile through the structure-keyed routing-template cache.

    Drop-in replacement for :func:`~repro.simulators.gate.transpiler.transpile`
    that skips layout selection and SWAP routing whenever the circuit's
    structure (not its parameter values) was transpiled before under the
    same basis/coupling/optimisation configuration — the per-iteration cost
    of a sampled variational loop drops to decompose + translate + peephole,
    and a repeat with equal parameters to a copy of the stored result.
    Cached and uncached calls return identical results.  A caller with an
    explicit initial layout calls :func:`~.passes.transpile`.
    """
    global _transpile_cache_fallbacks
    _check_optimization_level(optimization_level)
    basis_key = tuple(basis_gates) if basis_gates else None
    coupling_key = (
        tuple(tuple(edge) for edge in coupling_map) if coupling_map else None
    )
    key = (_signature(circuit), basis_key, coupling_key, optimization_level)
    entry = _TRANSPILE_CACHE.lookup(key)
    params = tuple((inst.params, inst.label) for inst in circuit.instructions)
    if entry is not None and entry[1] == params:
        return _fresh(entry[2], circuit, _stamp(basis_gates, coupling_map, optimization_level))
    template = entry[0] if entry is not None else None
    working = _pre_route(circuit)
    _notify_stage("decompose", working, source=circuit)
    if template is not None and template.working_signature != _signature(working):
        # A parameter value changed the pre-routing decomposition's shape
        # relative to the cached template (or the template was built from a
        # degenerate angle): rebuild from this circuit and *replace* the
        # entry, so one unlucky first compile cannot pin a stale plan.
        with _FALLBACK_LOCK:
            _transpile_cache_fallbacks += 1
        template = None
    if template is None:
        template = _build_template(working, coupling_map, optimization_level)
    routed = _replay(working, template)
    # The replay path is exactly where a stale/corrupt template would emit a
    # malformed circuit, so verify-each re-checks the replayed output too.
    _notify_stage("route", routed, source=working, coupling_map=coupling_map)
    translated = _translate_and_optimize(
        routed, basis_gates, optimization_level, coupling_map=coupling_map
    )
    result = _finish_result(
        circuit,
        translated,
        initial_layout=Layout(dict(template.initial_layout)),
        final_layout=Layout(dict(template.final_layout)),
        num_swaps_inserted=template.num_swaps_inserted,
        basis_gates=basis_gates,
        coupling_map=coupling_map,
        optimization_level=optimization_level,
    )
    # Replace the (template, parameters, bound result) entry; never mutate it.
    _TRANSPILE_CACHE.store(key, (template, params, _fresh(result, circuit, {})))
    return result


def transpile_cache_info() -> Dict[str, int]:
    """Hit/miss/fallback/entry counters of the transpile template cache.

    ``hits`` counts lookups served by a valid routing replay or by the
    entry's stored bound result; ``fallbacks``
    counts lookups whose cached template proved stale for the circuit's
    parameter values (the template is rebuilt and replaced, costing a full
    layout+routing pass) — fallbacks are *excluded* from ``hits``.
    """
    info = _TRANSPILE_CACHE.info()
    with _FALLBACK_LOCK:
        fallbacks = _transpile_cache_fallbacks
    return {
        "hits": info["hits"] - fallbacks,
        "misses": info["misses"],
        "fallbacks": fallbacks,
        "entries": info["entries"],
        "maxsize": info["maxsize"],
    }


def clear_transpile_cache() -> None:
    """Empty the transpile template cache and reset its counters.

    Runs automatically when
    :func:`~repro.simulators.gate.gates.register_gate` replaces a gate
    definition (via the fusion layer's invalidation hook) — templates record
    decompositions built from the definitions active at compile time.
    """
    global _transpile_cache_fallbacks
    _TRANSPILE_CACHE.clear()
    with _FALLBACK_LOCK:
        _transpile_cache_fallbacks = 0
