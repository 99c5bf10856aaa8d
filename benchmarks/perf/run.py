#!/usr/bin/env python3
"""The repository benchmark: four middle-layer workloads, end to end and per layer.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--smoke] [--out FILE]

Each workload runs in ``WORKERS`` fresh interpreters, one after another,
started from the repository root.  Every interpreter sets up from cold
(``import repro``, object construction, warm-up jobs: one ``setup_s``
sample), then times its share of ``--seconds`` of jobs, then checks outputs.
Spreading the timed work over several interpreters gives several set-up
samples and samples the host over the whole run rather than one stretch of
it.  Inputs come from ``--seed`` and the interpreter's index.

Without ``--trace`` the last line of standard output is one JSON object with
the end-to-end metrics named in ``BENCHMARK.json``.  With ``--trace 1`` the
last interpreter runs under the outside-in tracer (``tracer.py``) and the
line carries the per-layer metrics instead.  ``failed`` counts failed jobs
plus failed output checks.  README.md explains the workloads, the metrics
and how to read a traced run; ``compare.py`` compares ``--out`` records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("maxcut_portability", "noisy_qaoa_12q", "qec_1001q", "serving_burst")
#: Interpreters per workload; each gives one set-up sample and times an
#: equal share of ``--seconds``.
WORKERS = 4
#: A worker that takes longer than this is killed and the run fails, so a
#: run of one workload ends within ``WORKERS`` times this.
WORKER_TIMEOUT_S = 40.0
DEFAULT_SECONDS = 18.0
#: Set in every worker: one BLAS thread per interpreter.  The serving lanes
#: already fill both cores, and multi-threaded OpenBLAS start-up made set-up
#: times erratic.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

clock = time.perf_counter


# -- statistics -----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated *fraction* quantile of *values*."""
    data = sorted(values)
    position = fraction * (len(data) - 1)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def summary(values: Sequence[float], unit: str, scale: float = 1.0) -> Dict[str, Any]:
    """Median, quartiles and sample count of *values*, multiplied by *scale*."""
    data = [v * scale for v in values]
    return {
        "value": statistics.median(data), "unit": unit, "samples": len(data),
        "q1": percentile(data, 0.25), "q3": percentile(data, 0.75),
    }


def tail(values: Sequence[float], unit: str, scale: float = 1.0) -> Dict[str, Any]:
    """The highest whole percentile of *values* with at least ten samples
    beyond it (the median when there are fewer than twenty), times *scale*."""
    fraction = max(0.5, math.floor(100 * (1 - 10 / len(values))) / 100)
    return {"value": percentile(values, fraction) * scale, "unit": unit, "samples": len(values),
            "percentile": fraction}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- one worker: one interpreter's share of a workload ------------------------------------
def run_workload(
    name: str, *, seed: int, part: int = 0, seconds: float, trace: bool = False, smoke: bool = False
) -> Dict[str, Any]:
    """Set up *name* from cold, time it for *seconds*, check its outputs.

    Returns the raw record one worker prints: the set-up time, every timed
    job's latency, the output-check tallies and, when *trace* is set, the
    per-layer record of ``trace_record``.
    """
    from workloads import WORKLOADS

    started = clock()
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"repro imported from {repro.__file__}, not from {SRC}")
    workload = WORKLOADS[name](f"{seed}.{part}", smoke=smoke)
    try:
        workload.setup()
        setup_s = clock() - started
        record: Dict[str, Any] = {}
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                before = workload.counters()
                phase = workload.measure(seconds, tracer=tracer)
                after = workload.counters()
            finally:
                tracer.uninstall()
            record["trace"] = trace_record(tracer, phase, before, after)
        else:
            phase = workload.measure(seconds)
        checked = len(workload.failures)
        workload.final_checks()
        final_failed = len(workload.failures) - checked
    finally:
        workload.close()
    record.update(
        setup_s=setup_s,
        attempted=phase.attempted + workload.final_attempted,
        failed=phase.failed + final_failed,
        failures=workload.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        jobs=phase.jobs,
        busy_s=phase.busy_s,
        latencies_s=phase.latencies,
        refs_s=phase.refs,
        quality=phase.quality,
    )
    return record


def trace_record(tracer, phase, before: Dict[str, float], after: Dict[str, float]) -> Dict[str, Any]:
    """Per-layer metrics of one traced phase, plus the tables behind them."""
    from tracer import LAYERS

    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    wall = tracer.wall_s
    layers = tracer.layer_table()
    entries = tracer.self_times()
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def counter(layer: str, key: str) -> float:
        return tracer.counters.get((layer, key), 0.0)

    def hit_ratio(cache: str) -> float:
        hits = delta.get(f"{cache}.hits", 0.0)
        return ratio(hits, hits + delta.get(f"{cache}.misses", 0.0))

    for layer in LAYERS:
        put(f"{layer}.calls", layers[layer]["calls"], "count")
        put(f"{layer}.share", layers[layer]["share"], "1")
    put("backends.runtime.merge_key_share",
        ratio(entries.get(("backends.runtime", "merge_key"), (0, 0.0))[1], wall), "1")
    put("simulators.gate.transpiler.hit_ratio", hit_ratio("transpile"), "1")
    for cache in ("template", "program", "stabilizer"):
        put(f"simulators.gate.fusion.{cache}_hit_ratio", hit_ratio(cache), "1")
    for layer, key, unit in (
        ("simulators.gate.statevector", "chunks", "count"),
        ("simulators.gate.statevector", "merged_chunks", "count"),
        ("simulators.gate.batched", "shots", "count"),
        ("simulators.gate.stabilizer", "qubit_shots", "count"),
        ("simulators.anneal", "proposals", "count"),
    ):
        put(f"{layer}.{key}", counter(layer, key), unit)
    put("simulators.gate.batched.bytes_computed_per_shot",
        ratio(counter("simulators.gate.batched", "bytes_computed"), counter("simulators.gate.batched", "shots")),
        "B")
    put("simulators.anneal.proposals_per_s",
        ratio(counter("simulators.anneal", "proposals"), layers["simulators.anneal"]["self_s"]), "1/s")
    queue_times = tracer.queue_times()
    waits = [wait for wait, _ in queue_times]
    put("services.serving.queue_wait_share", ratio(sum(waits), sum(total for _, total in queue_times)), "1")
    put("services.serving.merged_ratio",
        ratio(delta.get("service.merged_jobs", 0.0), delta.get("service.completed", 0.0)), "1")
    put("services.serving.groups", delta.get("service.groups", 0.0), "count")
    put("services.serving.retries", delta.get("service.retries", 0.0), "count")
    put("bench.unattributed_share", tracer.unattributed_share(), "1")
    put("bench.inputgen_share", ratio(phase.inputgen_s, phase.inputgen_s + phase.busy_s), "1")
    return {
        "metrics": metrics,
        "layers": layers,
        "entry_points": {f"{layer}.{entry}": {"calls": calls, "self_s": self_s}
                         for (layer, entry), (calls, self_s) in sorted(entries.items())},
        "absent": tracer.absent,
        "wall_s": wall,
        "queue_wait_ms": summary(waits, "ms", 1e3) if waits else None,
        "counter_deltas": delta,
        "spans": tracer.span_rows(),
    }


# -- one workload: several workers combined ------------------------------------------------
def combine(name: str, parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One workload's record from its workers' records.

    End-to-end metrics pool the untraced workers' jobs; a traced worker
    contributes only its set-up time, its tallies and the per-layer table.

    ``job_cost_ref`` is the mean seconds per completed job over the mean
    seconds of the reference computation timed around each call
    (``workloads.reference_s``); its quartiles are over the interpreters.
    """
    timed = [part for part in parts if "trace" not in part] or parts
    latencies = [v for part in timed for v in part["latencies_s"]]
    jobs = sum(part["jobs"] for part in timed)

    def cost(group: List[Dict[str, Any]]) -> float:
        refs = [v for part in group for v in part["refs_s"]]
        per_job = ratio(sum(part["busy_s"] for part in group), sum(part["jobs"] for part in group))
        return ratio(per_job, statistics.fmean(refs)) if refs else 0.0

    costs = [cost([part]) for part in timed]
    rates = [ratio(part["jobs"], part["busy_s"]) for part in timed]
    record: Dict[str, Any] = {
        "workload": name,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "failures": [message for part in parts for message in part["failures"]],
        "end_to_end": {
            "setup_s": summary([part["setup_s"] for part in parts], "s"),
            "job_cost_ref": {"value": cost(timed), "unit": "ref", "samples": jobs,
                             "q1": percentile(costs, 0.25), "q3": percentile(costs, 0.75)},
            "jobs_per_s": {"value": ratio(jobs, sum(part["busy_s"] for part in timed)), "unit": "1/s",
                           "samples": jobs, "q1": percentile(rates, 0.25), "q3": percentile(rates, 0.75)},
            "reference_ms": summary([v for part in timed for v in part["refs_s"]], "ms", 1e3),
            "latency_p50_ms": summary(latencies, "ms", 1e3),
            "latency_tail_ms": tail(latencies, "ms", 1e3),
            "quality_ratio": summary([v for part in timed for v in part["quality"]], "1"),
            "peak_rss_mb": summary([part["peak_rss_mb"] for part in timed], "MiB"),
        },
        "parts": parts,
    }
    traced = [part for part in parts if "trace" in part]
    if traced:
        record["trace"] = traced[0].pop("trace")
        record["trace"]["metrics"]["bench.trace_overhead"] = {
            "value": ratio(statistics.median(traced[0]["latencies_s"]), statistics.median(latencies)),
            "unit": "1",
        }
    return record


def spawn(name: str, part: int, args: argparse.Namespace, trace: bool) -> Dict[str, Any]:
    """Run one worker interpreter and return the record it printed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--worker", name, "--part", str(part),
        "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS), "--trace", str(int(trace)),
    ] + ["--smoke"] * args.smoke
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {part} of {name} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    parts = [spawn(name, part, args, trace=bool(args.trace) and part == WORKERS - 1)
             for part in range(WORKERS)]
    return combine(name, parts)


# -- reporting ------------------------------------------------------------------------
def host_fingerprint() -> Dict[str, Any]:
    import numpy

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "worker_env": WORKER_ENV,
        "platform": platform.platform(),
    }


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without leaving the repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spec_metrics(spec: Dict[str, Any], trace: bool) -> List[str]:
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def result_line(records: Dict[str, Dict[str, Any]], wanted: Sequence[str], trace: bool) -> Dict[str, Any]:
    """The final JSON object: the *wanted* metrics of every record.

    With one workload the metric names are bare; with several they are
    prefixed by the workload name.  Raises ``KeyError`` for a metric a
    record did not emit.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, record in records.items():
        source = record["trace"]["metrics"] if trace else record["end_to_end"]
        prefix = "" if len(records) == 1 else f"{name}."
        for metric in wanted:
            metrics[prefix + metric] = {"value": source[metric]["value"], "unit": source[metric]["unit"]}
    return {
        "correct": not any(record["failures"] for record in records.values()),
        "attempted": sum(record["attempted"] for record in records.values()),
        "failed": sum(record["failed"] for record in records.values()),
        "metrics": metrics,
    }


def print_table(record: Dict[str, Any], trace: bool) -> None:
    print(f"== {record['workload']}: attempted {record['attempted']}, failed {record['failed']}")
    for message in record["failures"]:
        print(f"   FAILED {message}")
    for metric, row in record["end_to_end"].items():
        if "q1" in row:
            spread = f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
        else:
            spread = f"  p{100 * row['percentile']:g}" if "percentile" in row else ""
        print(f"   {metric:<16} {row['value']:>12.6g} {row['unit']:<5} n={row['samples']}{spread}")
    if not trace:
        return
    data = record["trace"]
    print(f"   traced wall {data['wall_s']:.3f} s; absent entry points: {data['absent'] or 'none'}")
    print(f"   {'layer':<30} {'calls':>8} {'self_s':>10} {'share':>7}")
    for layer, row in data["layers"].items():
        print(f"   {layer:<30} {row['calls']:>8} {row['self_s']:>10.4f} {row['share']:>7.1%}")
    for metric, row in data["metrics"].items():
        if not metric.endswith((".calls", ".share")) or metric.startswith("bench."):
            print(f"   {metric:<48} {row['value']:.6g} {row['unit']}")
    if data["queue_wait_ms"]:
        wait = data["queue_wait_ms"]
        print(f"   queue_wait_ms: p50 {wait['value']:.3f}  q3 {wait['q3']:.3f}  n={wait['samples']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed seconds per workload (default {DEFAULT_SECONDS:g}; 0.4 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", type=Path, help="write the full record, spans included, to this file")
    parser.add_argument("--worker", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else DEFAULT_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.worker:
        record = run_workload(args.worker, seed=args.seed, part=args.part, seconds=args.seconds,
                              trace=bool(args.trace), smoke=args.smoke)
        print(json.dumps(record))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: {SRC / 'repro'} or {SPEC_FILE} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    wanted = spec_metrics(json.loads(SPEC_FILE.read_text()), bool(args.trace))
    records = {}
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        try:
            records[name] = measure_workload(name, args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_table(records[name], bool(args.trace))
    try:
        line = result_line(records, wanted, bool(args.trace))
    except KeyError as exc:
        print(f"error: metric {exc} was not emitted", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "revision": git_revision(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "host": host_fingerprint(),
            "workloads": records,
        }, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
