"""Outside-in layer tracer: spans around calls into each layer's public functions.

The program under test has no tracing of its own, so this module wraps the
entry points listed in :data:`PATCH_POINTS` from the outside.  A wrapper
replaces the attribute on its class or defining module, and on every
``repro.*`` module that holds the same object (``serving.runtime_submit`` is
``runtime.submit``), so a call reaches the wrapper whichever name it uses.

Spans are kept in memory per thread: layer, entry point, start, end, parent
span and the bundle names of the job.  A layer's self time is the sum over
its spans of the span's duration minus the union of its children.  Recording
is on only inside :meth:`Tracer.window`, so set-up and output checks never
reach the table.  Entry points marked ``optional`` may be renamed by a
refactor; a missing one is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    """Argument *index* (positional) or *name* (keyword) of an intercepted call."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_statevector_run(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("simulators.gate.statevector", "chunks", result.metadata.get("num_batches") or 0)


def _count_statevector_merged(tracer: "Tracer", args, kwargs, results) -> None:
    merged = results[0].metadata.get("merged") if results else None
    if merged:
        tracer.count("simulators.gate.statevector", "merged_chunks", merged["merged_chunks"])


def _count_chunk_bytes(tracer: "Tracer", program, shots: int, dtype) -> None:
    import numpy as np

    tracer.count("simulators.gate.batched", "shots", shots)
    # Computed, not measured: every compiled step reads and writes the whole
    # chunk state once.
    state_bytes = shots * (1 << program.num_qubits) * np.dtype(dtype).itemsize
    tracer.count("simulators.gate.batched", "bytes_computed", 2 * state_bytes * len(program.steps))


def _count_program_chunk(tracer: "Tracer", args, kwargs, result) -> None:
    _count_chunk_bytes(
        tracer, _arg(args, kwargs, 0, "program"), _arg(args, kwargs, 1, "batch_size"),
        kwargs.get("dtype", "complex64"),
    )


def _count_program_segments(tracer: "Tracer", args, kwargs, result) -> None:
    shots = sum(size for size, _ in _arg(args, kwargs, 1, "segments"))
    _count_chunk_bytes(tracer, _arg(args, kwargs, 0, "program"), shots, kwargs.get("dtype", "complex64"))


def _count_stabilizer_chunk(tracer: "Tracer", args, kwargs, result) -> None:
    program = _arg(args, kwargs, 0, "program")
    tracer.count("simulators.gate.stabilizer", "qubit_shots", len(result) * program.num_qubits)


def _count_anneal_sample(tracer: "Tracer", args, kwargs, result) -> None:
    sampler, bqm = args[0], _arg(args, kwargs, 1, "bqm")
    reads = kwargs.get("num_reads") or sampler.default_num_reads
    sweeps = kwargs.get("num_sweeps") or sampler.default_num_sweeps
    tracer.count("simulators.anneal", "proposals", reads * sweeps * bqm.num_variables)


@dataclass(frozen=True)
class PatchPoint:
    """One wrapped entry point: ``attr`` is ``"func"`` or ``"Class.method"``."""

    layer: str
    module: str
    attr: str
    optional: bool = False
    on_return: Optional[Callable] = None

    @property
    def name(self) -> str:
        return self.attr.rsplit(".", 1)[-1]


_SV = "repro.simulators.gate.statevector"
_FUSION = "repro.simulators.gate.fusion"
_STAB = "repro.simulators.gate.stabilizer"

#: Every layer the trace reports, in the order of the layer table.
PATCH_POINTS: Tuple[PatchPoint, ...] = (
    PatchPoint("core.bundle", "repro.core.bundle", "JobBundle.validate"),
    PatchPoint("core.bundle", "repro.core.bundle", "JobBundle.digest"),
    PatchPoint("backends.lowering", "repro.backends.gate_backend", "GateBackend.build_circuit"),
    PatchPoint("backends.runtime", "repro.backends.runtime", "submit"),
    PatchPoint("backends.runtime", "repro.backends.runtime", "submit_merged"),
    PatchPoint("backends.runtime", "repro.backends.gate_backend", "GateBackend.run"),
    PatchPoint("backends.runtime", "repro.backends.gate_backend", "GateBackend.run_merged"),
    PatchPoint("backends.runtime", "repro.backends.gate_backend", "GateBackend.merge_key"),
    PatchPoint("simulators.gate.transpiler", "repro.simulators.gate.transpiler.cache", "transpile_cached"),
    PatchPoint("simulators.gate.fusion", _FUSION, "compile_parametric_template_cached"),
    PatchPoint("simulators.gate.fusion", _FUSION, "compile_trajectory_program_cached"),
    PatchPoint("simulators.gate.fusion", _FUSION, "compile_stabilizer_program_cached"),
    PatchPoint("simulators.gate.statevector", _SV, "StatevectorSimulator.run",
               on_return=_count_statevector_run),
    PatchPoint("simulators.gate.statevector", _SV, "StatevectorSimulator.run_merged",
               on_return=_count_statevector_merged),
    PatchPoint("simulators.gate.statevector", _SV, "Statevector.evolve"),
    PatchPoint("simulators.gate.statevector", _SV, "Statevector.expectation"),
    PatchPoint("simulators.gate.batched", _SV, "execute_program_chunk", optional=True,
               on_return=_count_program_chunk),
    PatchPoint("simulators.gate.batched", _SV, "execute_program_segments", optional=True,
               on_return=_count_program_segments),
    PatchPoint("simulators.gate.stabilizer", _STAB, "execute_stabilizer_program", optional=True,
               on_return=_count_stabilizer_chunk),
    PatchPoint("simulators.gate.stabilizer", _STAB, "execute_stabilizer_program_segments",
               optional=True, on_return=_count_stabilizer_chunk),
    PatchPoint("simulators.anneal", "repro.simulators.anneal.sampler",
               "SimulatedAnnealingSampler.sample", on_return=_count_anneal_sample),
    PatchPoint("backends.anneal_backend", "repro.backends.anneal_backend", "AnnealBackend.run"),
    PatchPoint("results", "repro.backends.base", "ExecutionResult.decoded"),
    PatchPoint("services.serving", "repro.services.serving", "JobService.submit"),
    PatchPoint("services.serving", "repro.services.serving", "JobService.submit_many"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(point.layer for point in PATCH_POINTS))


@dataclass
class Span:
    """One intercepted call."""

    id: int
    layer: str
    name: str
    thread: int
    parent: Optional[int]
    jobs: Tuple[str, ...]
    start: float
    end: float = 0.0


def _bundle_names(args: tuple) -> Tuple[str, ...]:
    """Names of the job bundles among *args* (one level into lists)."""
    names: List[str] = []
    for arg in args:
        items = arg if isinstance(arg, (list, tuple)) else (arg,)
        for item in items:
            if hasattr(item, "qdts") and hasattr(item, "operators"):
                names.append(item.name)
    return tuple(names)


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by *intervals* (overlaps counted once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


class Tracer:
    """Records spans of the wrapped entry points while a window is open."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans: List[Span] = []
        self.windows: List[Tuple[float, float]] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.absent: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------
    def count(self, layer: str, key: str, amount: float) -> None:
        with self._lock:
            self.counters[(layer, key)] += amount

    def wrap(self, point: PatchPoint, original: Callable) -> Callable:
        """The traced stand-in for *original*."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            jobs = _bundle_names(args) or (parent.jobs if parent is not None else ())
            span = Span(
                next(tracer._ids), point.layer, point.name, threading.get_ident(),
                parent.id if parent is not None else None, jobs, tracer.clock(),
            )
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if point.on_return is not None:
                point.on_return(tracer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def window(self):
        """Record spans for the duration of the block (one timed region)."""
        start = self.clock()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.windows.append((start, self.clock()))

    # -- patching --------------------------------------------------------------
    def install(self, points: Sequence[PatchPoint] = PATCH_POINTS) -> None:
        """Wrap every entry point; raise if a non-optional one is missing."""
        for point in points:
            try:
                module = importlib.import_module(point.module)
            except ModuleNotFoundError:
                module = None
            owner_name, _, attr = point.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if point.optional:
                    self.absent.append(f"{point.module}.{point.attr}")
                    continue
                self.uninstall()
                raise LookupError(f"patch point {point.module}.{point.attr} does not resolve")
            traced = self.wrap(point, original)
            if owner_name:
                holder = next(c for c in owner.__mro__ if attr in vars(c))
                self._replace(holder, attr, traced)
                continue
            for name, candidate in list(sys.modules.items()):
                if name.split(".")[0] != "repro" or candidate is None:
                    continue
                for key, value in list(vars(candidate).items()):
                    if value is original:
                        self._replace(candidate, key, traced)

    def _replace(self, holder: Any, attr: str, value: Any) -> None:
        self._patched.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # -- analysis --------------------------------------------------------------
    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.windows)

    def self_times(self) -> Dict[Tuple[str, str], Tuple[int, float]]:
        """``(layer, entry point) -> (calls, self seconds)``."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        table: Dict[Tuple[str, str], Tuple[int, float]] = {}
        for span in self.spans:
            calls, self_s = table.get((span.layer, span.name), (0, 0.0))
            own = (span.end - span.start) - union_length(children.get(span.id, ()))
            table[(span.layer, span.name)] = (calls + 1, self_s + own)
        return table

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` and ``share`` of the window wall time."""
        wall = self.wall_s
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, _), (calls, self_s) in self.self_times().items():
            row = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_s
        for row in layers.values():
            row["share"] = row["self_s"] / wall if wall > 0 else 0.0
        return layers

    def unattributed_share(self) -> float:
        """Share of the window wall time that no span on any thread covers."""
        wall = self.wall_s
        if wall <= 0:
            return 0.0
        covered = 0.0
        spans = [(span.start, span.end) for span in self.spans]
        for start, end in self.windows:
            clipped = [(max(s, start), min(e, end)) for s, e in spans if e > start and s < end]
            covered += union_length(clipped)
        return max(0.0, 1.0 - covered / wall)

    def queue_times(self) -> List[Tuple[float, float]]:
        """``(queue wait, time in service)`` per served job name.

        The wait runs from the return of admission (``JobService.submit`` or
        ``submit_many``) to the start of the job's first runtime submit; the
        time in service runs to the end of its last one.
        """
        admitted: Dict[str, float] = {}
        started: Dict[str, float] = {}
        ended: Dict[str, float] = {}
        for span in self.spans:
            if span.layer == "services.serving":
                for job in span.jobs:
                    admitted[job] = span.end
            elif span.name in ("submit", "submit_merged") and span.layer == "backends.runtime":
                for job in span.jobs:
                    started[job] = min(started.get(job, span.start), span.start)
                    ended[job] = max(ended.get(job, span.end), span.end)
        return [(started[job] - admitted[job], ended[job] - admitted[job])
                for job in admitted if job in started]

    def span_rows(self) -> List[list]:
        """Spans as compact rows for a result file."""
        return [
            [s.id, s.layer, s.name, s.thread, s.parent, list(s.jobs), s.start, s.end]
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
