"""Cost-hint-aware scheduler: the HPC-style consumer of operator cost metadata.

Section 2 of the paper argues that without cost hints "a scheduler cannot
choose an appropriate backend and topology, or estimate queue and runtime".
This service closes that loop: given a set of packaged bundles and the
registered engines, it estimates the runtime of each bundle on each capable
engine from the bundles' cost hints, then assigns bundles to engines with a
greedy longest-processing-time list schedule and reports the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.bundle import JobBundle
from ..core.errors import ServiceError
from ..backends.registry import get_backend, list_engines

__all__ = ["EnginePerformanceModel", "ScheduledJob", "Schedule", "CostAwareScheduler"]


@dataclass(frozen=True)
class EnginePerformanceModel:
    """Per-engine timing coefficients used to turn cost hints into seconds."""

    engine: str
    seconds_per_layer_shot: float = 2e-7  # gate engines: depth x shots
    seconds_per_sweep_read_variable: float = 5e-8  # annealers: sweeps x reads x variables
    seconds_per_state: float = 2e-8  # exact solvers: 2^n states
    fixed_overhead_s: float = 0.05  # queueing / compilation overhead

    @property
    def family(self) -> str:
        """Engine family: the name's prefix before the first dot."""
        return self.engine.split(".", 1)[0]


DEFAULT_MODELS: Dict[str, EnginePerformanceModel] = {
    "gate.aer_simulator": EnginePerformanceModel("gate.aer_simulator"),
    "gate.statevector_simulator": EnginePerformanceModel("gate.statevector_simulator"),
    "anneal.simulated_annealer": EnginePerformanceModel("anneal.simulated_annealer"),
    "anneal.neal": EnginePerformanceModel("anneal.neal"),
    "exact.brute_force": EnginePerformanceModel("exact.brute_force"),
}


@dataclass
class ScheduledJob:
    """One bundle's placement in the schedule."""

    bundle_name: str
    engine: str
    estimated_runtime_s: float
    start_s: float

    @property
    def end_s(self) -> float:
        """Predicted finish time: start plus estimated runtime."""
        return self.start_s + self.estimated_runtime_s


@dataclass
class Schedule:
    """Assignment of every bundle to an engine plus the predicted makespan."""

    jobs: List[ScheduledJob] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        """Predicted finish time of the last job (``0.0`` when empty)."""
        return max((job.end_s for job in self.jobs), default=0.0)

    def on_engine(self, engine: str) -> List[ScheduledJob]:
        """The jobs placed on *engine*, in schedule order."""
        return [job for job in self.jobs if job.engine == engine]

    def engine_of(self, bundle_name: str) -> str:
        """The engine *bundle_name* is placed on; raises if it is absent."""
        for job in self.jobs:
            if job.bundle_name == bundle_name:
                return job.engine
        raise ServiceError(f"bundle {bundle_name!r} is not in the schedule")


class CostAwareScheduler:
    """Estimate runtimes from cost hints and assign bundles to engines."""

    def __init__(
        self,
        engines: Optional[Sequence[str]] = None,
        models: Optional[Mapping[str, EnginePerformanceModel]] = None,
    ):
        self.engines = list(engines) if engines is not None else list_engines()
        self.models = dict(DEFAULT_MODELS)
        if models:
            self.models.update(models)

    # -- per-bundle estimation -----------------------------------------------------
    def capable_engines(self, bundle: JobBundle) -> List[str]:
        """Engines whose backend supports every rep_kind in the bundle."""
        capable = []
        for engine in self.engines:
            backend = get_backend(engine)
            if all(backend.supports(op.rep_kind) for op in bundle.operators):
                capable.append(engine)
        return capable

    def estimate_runtime(self, bundle: JobBundle, engine: str) -> float:
        """Estimated execution time of *bundle* on *engine*, in seconds."""
        model = self.models.get(engine, EnginePerformanceModel(engine))
        total = bundle.operators.total_cost()
        samples = bundle.context.exec.samples if bundle.context is not None else 1024
        family = model.family
        if family == "gate":
            depth = max(1.0, total.get("depth", 1.0))
            # Statevector cost also grows with register width.
            width_factor = 2 ** min(bundle.total_width, 24) / 1024.0
            return model.fixed_overhead_s + model.seconds_per_layer_shot * depth * samples * max(
                1.0, width_factor
            )
        if family == "anneal":
            variables = max(1.0, total.get("variables", bundle.total_width))
            anneal = bundle.context.anneal if bundle.context is not None else None
            reads = anneal.num_reads if anneal is not None else samples
            sweeps = anneal.num_sweeps if anneal is not None else 1000
            return model.fixed_overhead_s + model.seconds_per_sweep_read_variable * reads * sweeps * variables
        if family == "exact":
            return model.fixed_overhead_s + model.seconds_per_state * (2 ** bundle.total_width)
        return model.fixed_overhead_s

    def choose_engine(self, bundle: JobBundle) -> Tuple[str, float]:
        """The capable engine with the smallest estimated runtime."""
        capable = self.capable_engines(bundle)
        if not capable:
            raise ServiceError(
                f"no registered engine can execute bundle {bundle.name!r} "
                f"(rep_kinds {[op.rep_kind for op in bundle.operators]})"
            )
        estimates = [(self.estimate_runtime(bundle, engine), engine) for engine in capable]
        runtime, engine = min(estimates)
        return engine, runtime

    # -- fleet scheduling ----------------------------------------------------------------
    def schedule(self, bundles: Iterable[JobBundle]) -> Schedule:
        """Greedy longest-processing-time list schedule over the engine fleet.

        Bundle names must be unique: :meth:`Schedule.engine_of` and every
        name-keyed consumer (the serving queue's result lookup) would
        silently resolve only the first placement of a duplicated name, so
        duplicates raise :class:`~repro.core.errors.ServiceError` up front.
        """
        placements: List[Tuple[JobBundle, str, float]] = []
        seen: Dict[str, int] = {}
        for bundle in bundles:
            if bundle.name in seen:
                raise ServiceError(
                    f"duplicate bundle name {bundle.name!r} in schedule request; "
                    "name-keyed placement lookup requires unique names"
                )
            seen[bundle.name] = 1
            engine, runtime = self.choose_engine(bundle)
            placements.append((bundle, engine, runtime))
        # Longest jobs first onto their chosen engine's queue.
        placements.sort(key=lambda item: -item[2])
        engine_free_at: Dict[str, float] = {}
        schedule = Schedule()
        for bundle, engine, runtime in placements:
            start = engine_free_at.get(engine, 0.0)
            schedule.jobs.append(
                ScheduledJob(
                    bundle_name=bundle.name,
                    engine=engine,
                    estimated_runtime_s=runtime,
                    start_s=start,
                )
            )
            engine_free_at[engine] = start + runtime
        return schedule
