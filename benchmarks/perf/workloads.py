"""The four benchmark workloads.

Every workload draws its inputs from a ``random.Random`` seeded by the
benchmark's ``--seed``, outside every timed region, so the program only ever
sees generated inputs.  ``setup`` imports the program, builds what the
workload needs and runs one warm-up job on cold caches; ``measure`` then times
calls into the program for a given number of seconds; outputs are checked
after each job, outside the timed region, and each failed check is counted.

Calls go through module attributes (``self.runtime.submit``), never through
names bound here, so the tracer's patched entry points are the ones called.
Sizes and the reasons for them are in README.md.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: The 12-node ring-with-chords Max-Cut graph: on the 12-qubit ring coupling
#: map only the three chords need routing.
RING12 = tuple((i, (i + 1) % 12) for i in range(12)) + ((0, 3), (4, 7), (8, 11))
#: Its smoke-size counterpart.
RING6 = tuple((i, (i + 1) % 6) for i in range(6)) + ((0, 3),)

#: Gate noise of the noisy QAOA workload: below the GEMM noise crossover.
NOISY_QAOA_NOISE = {"oneq_error": 1e-3, "twoq_error": 1e-2, "readout_error": 2e-2}
#: Circuit-level noise of the QEC workloads.
QEC_NOISE = {"oneq_error": 1e-3, "twoq_error": 5e-3}
SERVING_QEC_NOISE = {"oneq_error": 1e-3, "twoq_error": 2e-3}
#: Shots (or anneal reads) of a warm-up job: enough to compile and fill every
#: cache the timed jobs hit, without timing a full job's execution as set-up.
WARM_SHOTS = 64


@dataclass
class Phase:
    """What one timed phase of a workload produced."""

    latencies: List[float] = field(default_factory=list)  # seconds, per timed call
    refs: List[float] = field(default_factory=list)  # reference seconds, per timed call
    quality: List[float] = field(default_factory=list)
    jobs: int = 0  # jobs completed by the timed calls
    busy_s: float = 0.0  # seconds inside timed calls
    inputgen_s: float = 0.0
    attempted: int = 0
    failed: int = 0


# -- Max-Cut helpers (independent of the program under test) -----------------------
def _cuts(bits: Sequence[str], edges, weights):
    import numpy as np

    labels = np.frombuffer("".join(bits).encode(), dtype=np.uint8).reshape(len(bits), -1) == ord("1")
    u = np.array([e[0] for e in edges])
    v = np.array([e[1] for e in edges])
    return (labels[:, u] != labels[:, v]).astype(float) @ np.asarray(weights, dtype=float)


def maxcut_optimum(num_nodes: int, edges, weights) -> float:
    """Exhaustive Max-Cut optimum, vectorised over all assignments."""
    import numpy as np

    masks = np.arange(1 << num_nodes)[:, None]
    labels = (masks >> np.arange(num_nodes)) & 1
    u = np.array([e[0] for e in edges])
    v = np.array([e[1] for e in edges])
    return float(((labels[:, u] != labels[:, v]).astype(float) @ np.asarray(weights, dtype=float)).max())


def cut_moments(decoded, edges, weights) -> Tuple[float, float, float]:
    """Mean, variance and best cut of a decoded Max-Cut register."""
    import numpy as np

    cuts = _cuts([o.bits for o in decoded.outcomes], edges, weights)
    probs = np.array([o.probability for o in decoded.outcomes])
    mean = float(probs @ cuts)
    return mean, float(probs @ (cuts - mean) ** 2), float(cuts.max())


def _total(counts) -> int:
    return int(sum(counts.values()))


#: Inputs of :func:`reference_s`, made on its first call.
_REFERENCE_INPUTS: List[Any] = []


def reference_s() -> float:
    """Seconds taken by a fixed computation that is no part of the program.

    ``job_cost_ref`` divides job time by this.  The benchmark times it right
    before and right after every timed call, in the same interpreter, so a
    slow spell of the shared host lengthens both while a change to the
    program lengthens only the job.  Its four parts take about equal time
    and mirror where the workloads spend theirs: interpreter-bound dict
    updates, many small NumPy calls, complex arithmetic on a cache-sized
    state, and row XORs on a ``uint8`` matrix like a stabilizer tableau.
    """
    import numpy as np

    if not _REFERENCE_INPUTS:
        _REFERENCE_INPUTS.extend([
            np.linspace(0.0, 1.0, 64),
            (np.linspace(0.0, 1.0, 1 << 14) * (1 + 1j)).astype(np.complex64),
            np.zeros((64, 1024), dtype=np.uint8),
        ])
    small, state, bits = _REFERENCE_INPUTS
    started = clock()
    for _ in range(2):
        table: Dict[int, int] = {}
        for i in range(5000):
            table[i % 97] = table.get(i % 97, 0) + i
    for _ in range(200):
        float((small * 1.5 + 1.0).sum())
    out = state
    for _ in range(100):
        out = out * np.complex64(0.6 + 0.8j) + state
    for k in range(160):
        bits ^= bits[(7 * k) % 64]
    return clock() - started


class Workload:
    """One named workload: seeded inputs, set-up, timed jobs, output checks.

    *seed* is any value ``random.Random`` accepts; equal seeds give equal
    inputs.
    """

    name = ""

    def __init__(self, seed: Any, *, smoke: bool = False):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.failures: List[str] = []
        self.final_attempted = 0
        self._jobs = 0

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(f"{self.name}: {message}")
        return ok

    def seed(self) -> int:
        return self.rng.randrange(1 << 31)

    def job_name(self, kind: str) -> str:
        self._jobs += 1
        return f"{kind}-{self._jobs}"

    def setup(self) -> None:
        """Import the program, build long-lived objects, run the warm-up."""
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> Phase:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks that run once, after every timed phase."""

    def counters(self) -> Dict[str, float]:
        """Cumulative program counters the per-layer table takes deltas of."""
        from repro.simulators.gate.fusion import compile_cache_info

        return {
            f"{cache}.{key}": value
            for cache, info in compile_cache_info().items()
            for key, value in info.items()
        }

    def close(self) -> None:
        """Release what set-up started."""


class ClosedLoop(Workload):
    """One client: the next job is sent when the previous one returns."""

    def make_job(self) -> Any:
        raise NotImplementedError

    def run_job(self, job: Any) -> Any:
        raise NotImplementedError

    def verify(self, job: Any, out: Any, phase: Phase) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        window = tracer.window if tracer is not None else nullcontext
        while phase.busy_s < seconds or not phase.attempted:
            started = clock()
            job = self.make_job()
            phase.inputgen_s += clock() - started
            phase.attempted += 1
            before = reference_s()
            with window():
                started = clock()
                try:
                    out = self.run_job(job)
                except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
                    out = exc
                elapsed = clock() - started
            phase.refs.append((before + reference_s()) / 2)
            phase.busy_s += elapsed
            if isinstance(out, Exception):
                phase.failed += 1
                self.check(False, f"job raised {out!r}")
                continue
            phase.latencies.append(elapsed)
            phase.jobs += 1
            before = len(self.failures)
            self.verify(job, out, phase)
            phase.failed += len(self.failures) > before
        return phase


class MaxcutPortability(ClosedLoop):
    """One Max-Cut intent, submitted to the gate and the anneal backend."""

    name = "maxcut_portability"

    def setup(self) -> None:
        from repro.backends import runtime
        from repro.problems import MaxCutProblem
        from repro.workflows import maxcut, qaoa_optimizer

        self.runtime, self.maxcut, self.qaoa_optimizer = runtime, maxcut, qaoa_optimizer
        self.MaxCutProblem = MaxCutProblem
        self.edges = RING6 if self.smoke else RING12
        self.shots = 512 if self.smoke else 4096
        self.reads, self.sweeps = (50, 100) if self.smoke else (1000, 1000)
        self.run_job(self.make_job(warm=True))

    def make_job(self, warm: bool = False):
        weights = [self.rng.uniform(0.5, 1.5) for _ in self.edges]
        problem = self.MaxCutProblem.from_edges(self.edges, weights)
        gate = self.maxcut.build_qaoa_bundle(
            problem,
            context=self.maxcut.default_gate_context(
                problem, samples=WARM_SHOTS if warm else self.shots, seed=self.seed()
            ),
            name=self.job_name("maxcut-qaoa"),
        )
        anneal = self.maxcut.build_anneal_bundle(
            problem,
            context=self.maxcut.default_anneal_context(
                num_reads=WARM_SHOTS if warm else self.reads, num_sweeps=self.sweeps, seed=self.seed()
            ),
            name=self.job_name("maxcut-ising"),
        )
        return problem, gate, anneal

    def run_job(self, job):
        _, gate, anneal = job
        gate_result = self.runtime.submit(gate)
        anneal_result = self.runtime.submit(anneal)
        return gate_result, gate_result.decoded().single(), anneal_result, anneal_result.decoded().single()

    def verify(self, job, out, phase: Phase) -> None:
        problem, _, _ = job
        gate_result, gate_decoded, anneal_result, anneal_decoded = out
        edges, weights = problem.edges, problem.weights
        optimum = maxcut_optimum(problem.num_nodes, edges, weights)
        self.check(_total(gate_result.counts) == self.shots, "gate counts do not total the shots")
        self.check(_total(anneal_result.counts) == self.reads, "anneal counts do not total the reads")
        mean, var, _ = cut_moments(gate_decoded, edges, weights)
        evaluator = self.qaoa_optimizer.VariationalEvaluator(
            problem,
            context=self.maxcut.default_gate_context(problem, variational_evaluation="expectation"),
        )
        exact = evaluator.evaluate(self.maxcut.DEFAULT_GAMMAS, self.maxcut.DEFAULT_BETAS)
        sigma = math.sqrt(var / self.shots)
        self.check(
            abs(mean - exact) <= 5 * sigma + 1e-9,
            f"gate expected cut {mean:.4f} is not within 5 sigma ({sigma:.4f}) of exact {exact:.4f}",
        )
        anneal_mean, _, anneal_best = cut_moments(anneal_decoded, edges, weights)
        self.check(anneal_best >= optimum - 1e-9, f"annealer best {anneal_best} below optimum {optimum}")
        phase.quality.append((mean + anneal_mean) / (2 * optimum))


class NoisyQaoa(ClosedLoop):
    """A sampled variational loop: one routed p=2 structure, fresh angles per job."""

    name = "noisy_qaoa_12q"

    def setup(self) -> None:
        from repro.backends import runtime
        from repro.problems import MaxCutProblem
        from repro.workflows import maxcut

        self.runtime, self.maxcut, self.MaxCutProblem = runtime, maxcut, MaxCutProblem
        self.edges = RING6 if self.smoke else RING12
        self.shots = 256 if self.smoke else 1024
        self.first: Optional[tuple] = None
        self.run_job(self.make_job(warm=True))

    def make_job(self, warm: bool = False):
        weights = [self.rng.uniform(0.5, 1.5) for _ in self.edges]
        problem = self.MaxCutProblem.from_edges(self.edges, weights)
        # Angles near the p=2 optimum of these instances, so the cut ratio
        # is a stable quality signal rather than noise from random angles.
        gammas = [g + self.rng.uniform(-0.05, 0.05) for g in (0.27, 0.47)]
        betas = [b + self.rng.uniform(-0.05, 0.05) for b in (2.57, 2.80)]
        context = self.maxcut.default_gate_context(
            problem, samples=WARM_SHOTS if warm else self.shots, seed=self.seed()
        )
        context.exec.options["noise"] = dict(NOISY_QAOA_NOISE)
        bundle = self.maxcut.build_qaoa_bundle(
            problem, gammas=gammas, betas=betas, context=context, name=self.job_name("noisy-qaoa")
        )
        return problem, bundle

    def run_job(self, job):
        return self.runtime.submit(job[1])

    def verify(self, job, result, phase: Phase) -> None:
        problem, bundle = job
        self.check(_total(result.counts) == self.shots, "counts do not total the shots")
        if self.first is None:
            self.first = (bundle, dict(result.counts))
        mean, _, _ = cut_moments(result.decoded().single(), problem.edges, problem.weights)
        phase.quality.append(mean / maxcut_optimum(problem.num_nodes, problem.edges, problem.weights))

    def final_checks(self) -> None:
        self.final_attempted += 1
        bundle, counts = self.first
        rerun = dict(self.runtime.submit(bundle).counts)
        self.check(rerun == counts, "re-running the first job did not reproduce its seeded counts")


class Qec1001(ClosedLoop):
    """Repetition-code memory on a 1001-qubit register, on the stabilizer engine."""

    name = "qec_1001q"

    def setup(self) -> None:
        from repro.backends import runtime
        from repro.core import ContextDescriptor, ExecPolicy, package
        from repro.oplib import repetition_memory_operator, repetition_register

        self.runtime, self.package = runtime, package
        self.ContextDescriptor, self.ExecPolicy = ContextDescriptor, ExecPolicy
        self.distance = 11 if self.smoke else 501
        self.shots = 128 if self.smoke else 512
        self.register = repetition_register("patch", self.distance)
        self.operator = repetition_memory_operator(self.register, self.distance, rounds=1)
        self.run_job(self.make_job(warm=True))

    def make_job(self, warm: bool = False):
        context = self.ContextDescriptor(
            exec=self.ExecPolicy(
                engine="gate.aer_simulator",
                samples=WARM_SHOTS if warm else self.shots,
                seed=self.seed(),
                options={"trajectory_engine": "auto", "noise": dict(QEC_NOISE)},
            )
        )
        return self.package(self.register, [self.operator], context, name=self.job_name("qec"))

    def run_job(self, bundle):
        return self.runtime.submit(bundle)

    def verify(self, bundle, result, phase: Phase) -> None:
        d = self.distance
        self.check(_total(result.counts) == self.shots, "counts do not total the shots")
        self.check(result.metadata["trajectory_engine"] == "stabilizer", "auto did not pick the stabilizer")
        # Clbits: d-1 syndrome bits of the one round, then the d data bits;
        # the memory starts in |0...0>, so a majority of ones is a logical error.
        errors = sum(n for bits, n in result.counts.items() if bits[d - 1 :].count("1") > d // 2)
        rate = errors / self.shots
        self.check(rate <= 0.01, f"logical error rate {rate} above 1%")
        phase.quality.append(1.0 - rate)


# -- serving -------------------------------------------------------------------------
class ServingBurst(Workload):
    """Closed batches through JobService.submit_many: coalescing and merged execution.

    The client submits a batch and drains it, so a timed call is one batch:
    from the ``submit_many`` call until every ticket has settled.
    """

    name = "serving_burst"

    def setup(self) -> None:
        from repro.backends import runtime
        from repro.core import ContextDescriptor, ExecPolicy, package, phase_register
        from repro.oplib import measurement, qft_operator, repetition_memory_operator, repetition_register
        from repro.problems import MaxCutProblem
        from repro.services import serving
        from repro.workflows import maxcut

        self.runtime, self.maxcut, self.package = runtime, maxcut, package
        self.ContextDescriptor, self.ExecPolicy, self.MaxCutProblem = ContextDescriptor, ExecPolicy, MaxCutProblem
        self.phase_register, self.measurement, self.qft_operator = phase_register, measurement, qft_operator
        self.repetition_register = repetition_register
        self.repetition_memory_operator = repetition_memory_operator
        self.per_kind = 2 if self.smoke else 8
        self.edges = RING6 if self.smoke else RING12
        self.stored: Optional[List[tuple]] = None
        self.service = serving.JobService(lanes=2)
        self.run_batch(self.make_batch(warm=True)[0])

    def close(self) -> None:
        self.service.close()

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        counters.update({f"service.{k}": float(v) for k, v in self.service.stats().items()})
        return counters

    def _context(self, samples: int, options: Optional[dict] = None):
        return self.ContextDescriptor(
            exec=self.ExecPolicy(
                engine="gate.aer_simulator", samples=samples, seed=self.seed(), options=dict(options or {})
            )
        )

    def make_batch(self, warm: bool = False):
        """Eight each of QAOA, QFT and QEC; the QAOA jobs of a batch share
        fresh weights and fixed p=1 angles (one bound circuit, so they
        merge), every job has its own seed.  The first QAOA job's cut ratio
        stands for the batch: decoding all eight would add seconds of
        checking per run and no information."""
        weights = [self.rng.uniform(0.5, 1.5) for _ in self.edges]
        problem = self.MaxCutProblem.from_edges(self.edges, weights)
        shots = WARM_SHOTS if warm else 512 if self.smoke else 4096
        bundles = []
        for _ in range(self.per_kind):
            context = self.maxcut.default_gate_context(problem, samples=shots, seed=self.seed())
            bundles.append(self.maxcut.build_qaoa_bundle(
                problem, gammas=[0.35], betas=[2.65], context=context, name=self.job_name("qaoa")
            ))
        problems = {bundles[0].name: problem}
        qft_width = 4 if self.smoke else 10
        for _ in range(self.per_kind):
            register = self.phase_register("p", qft_width)
            bundles.append(self.package(
                register,
                [self.qft_operator(register, do_swaps=True), self.measurement(register)],
                self._context(shots),
                name=self.job_name("qft"),
            ))
        distance, rounds, patches = (3, 2, 2) if self.smoke else (7, 7, 4)
        qec_shots = min(shots, 256 if self.smoke else 1024)
        for _ in range(self.per_kind):
            registers = [self.repetition_register(f"patch{k}", distance) for k in range(patches)]
            operators = [self.repetition_memory_operator(r, distance, rounds=rounds) for r in registers]
            options = {"trajectory_engine": "auto", "noise": dict(SERVING_QEC_NOISE)}
            bundles.append(self.package(registers, operators, self._context(qec_shots, options),
                                        name=self.job_name("qec")))
        return bundles, problems

    def run_batch(self, bundles):
        started = clock()
        tickets = self.service.submit_many(bundles)
        self.service.drain()
        return tickets, clock() - started

    def verify_ticket(self, bundle, ticket, phase: Phase, problems: Dict[str, Any]) -> bool:
        """Check one finished ticket; a QAOA ticket in *problems* adds its cut ratio to quality."""
        error = ticket.exception()
        if not self.check(error is None, f"job {bundle.name} failed: {error!r}"):
            return False
        result = ticket.result()
        ok = self.check(
            _total(result.counts) == bundle.context.exec.samples,
            f"job {bundle.name} counts do not total the shots",
        )
        problem = problems.get(bundle.name)
        if problem is not None:
            mean, _, _ = cut_moments(result.decoded().single(), problem.edges, problem.weights)
            phase.quality.append(mean / maxcut_optimum(problem.num_nodes, problem.edges, problem.weights))
        return ok

    def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        window = tracer.window if tracer is not None else nullcontext
        while phase.busy_s < seconds or not phase.attempted:
            started = clock()
            bundles, problems = self.make_batch()
            phase.inputgen_s += clock() - started
            phase.attempted += len(bundles)
            before = reference_s()
            with window():
                tickets, elapsed = self.run_batch(bundles)
            phase.refs.append((before + reference_s()) / 2)
            phase.busy_s += elapsed
            phase.latencies.append(elapsed)
            phase.jobs += sum(ticket.exception() is None for ticket in tickets)
            for bundle, ticket in zip(bundles, tickets):
                phase.failed += not self.verify_ticket(bundle, ticket, phase, problems)
            if self.stored is None:
                # One job per structure, re-run standalone after the timed phases.
                self.stored = [(bundles[k * self.per_kind], tickets[k * self.per_kind]) for k in range(3)]
        return phase

    def final_checks(self) -> None:
        for bundle, ticket in self.stored:
            self.final_attempted += 1
            standalone = self.runtime.submit(bundle)
            self.check(
                dict(standalone.counts) == dict(ticket.result().counts),
                f"served job {bundle.name} differs from a standalone submit",
            )


WORKLOADS = {cls.name: cls for cls in (MaxcutPortability, NoisyQaoa, Qec1001, ServingBurst)}
