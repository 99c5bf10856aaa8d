"""Smoke test of the repository benchmark: every workload at ``--smoke`` size.

Runs each workload once in this interpreter with tracing on, then checks that
every metric ``BENCHMARK.json`` names is emitted with its unit, that every
non-optional patch point resolves and is put back, that self-time arithmetic
holds under a fake clock, that no thread outlives the run, and that
``compare.py`` gives each verdict where it should.
"""

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import compare as perf_compare
import run as perf_run
import tracer as perf_tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke_records():
    before = set(threading.enumerate())
    records = {}
    for name in perf_run.WORKLOAD_NAMES:
        part = perf_run.run_workload(name, seed=3, seconds=0.05, trace=True, smoke=True)
        records[name] = perf_run.combine(name, [part])
    leftover = [t for t in set(threading.enumerate()) - before if t.is_alive()]
    return records, leftover


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(perf_run.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


def test_every_metric_is_emitted(smoke_records):
    records, _ = smoke_records
    for name, record in records.items():
        assert record["failures"] == [], name
        assert record["failed"] == 0 and record["attempted"] >= 1, name
        for key, source in (("end_to_end", record["end_to_end"]), ("per_layer", record["trace"]["metrics"])):
            for metric in SPEC[key]:
                assert metric["name"] in source, (name, metric["name"])
                assert source[metric["name"]]["unit"] == metric["unit"], (name, metric["name"])
        for metric in SPEC["end_to_end"]:
            assert record["end_to_end"][metric["name"]]["value"] > 0, (name, metric["name"])
    line = perf_run.result_line({"qec_1001q": records["qec_1001q"]},
                                perf_run.spec_metrics(SPEC, trace=False), trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_no_threads_left_behind(smoke_records):
    _, leftover = smoke_records
    assert leftover == []


def test_patch_points_resolve_and_are_restored():
    import importlib

    originals = {}
    for point in perf_tracer.PATCH_POINTS:
        owner_name, _, attr = point.attr.rpartition(".")
        module = importlib.import_module(point.module)
        owner = getattr(module, owner_name) if owner_name else module
        originals[point] = getattr(owner, attr, None)
    tracer = perf_tracer.Tracer()
    tracer.install()
    try:
        optional = {f"{p.module}.{p.attr}" for p in perf_tracer.PATCH_POINTS if p.optional}
        assert set(tracer.absent) <= optional
        assert tracer._patched
    finally:
        tracer.uninstall()
    for point, original in originals.items():
        owner_name, _, attr = point.attr.rpartition(".")
        module = importlib.import_module(point.module)
        owner = getattr(module, owner_name) if owner_name else module
        assert getattr(owner, attr, None) is original, point


def test_missing_required_patch_point_raises():
    tracer = perf_tracer.Tracer()
    missing = perf_tracer.PatchPoint("x", "repro.core.bundle", "JobBundle.no_such_method")
    with pytest.raises(LookupError):
        tracer.install([missing])
    tracer.install([perf_tracer.PatchPoint("x", "repro.core.bundle", "no_such_function", optional=True)])
    assert tracer.absent == ["repro.core.bundle.no_such_function"]


def test_self_time_under_a_fake_clock():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 10.0, 11.0])
    tracer = perf_tracer.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(perf_tracer.PatchPoint("inner", "m", "f"), lambda: None)
    outer = tracer.wrap(perf_tracer.PatchPoint("outer", "m", "g"), lambda: (inner(), inner()))
    outer()  # outside a window: not recorded, no clock read
    with tracer.window():  # window 0..11; outer 1..10 holds inner 2..4 and 5..6
        outer()
    table = tracer.self_times()
    assert table[("outer", "g")] == (1, 6.0)
    assert table[("inner", "f")] == (2, 3.0)
    layers = tracer.layer_table()
    assert layers["outer"]["share"] == pytest.approx(6.0 / 11.0)
    assert tracer.unattributed_share() == pytest.approx(2.0 / 11.0)
    assert perf_tracer.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_job_cost_is_job_time_over_reference_time():
    def part(busy_s, jobs, refs):
        return {"setup_s": 1.0, "attempted": jobs, "failed": 0, "failures": [], "peak_rss_mb": 100.0,
                "jobs": jobs, "busy_s": busy_s, "latencies_s": [busy_s / jobs] * jobs, "refs_s": refs,
                "quality": [0.5]}

    # 3 s over 3 jobs against a 20 ms reference; 24 jobs in 2 s against 10 ms.
    record = perf_run.combine("w", [part(3.0, 3, [0.01, 0.02, 0.03]), part(2.0, 24, [0.01, 0.01])])
    row = record["end_to_end"]["job_cost_ref"]
    assert row["value"] == pytest.approx((5.0 / 27) / (0.08 / 5))
    low, high = (2.0 / 24) / 0.01, (3.0 / 3) / 0.02  # each interpreter's own cost
    assert (row["q1"], row["q3"]) == pytest.approx((low + 0.25 * (high - low), low + 0.75 * (high - low)))
    assert record["end_to_end"]["jobs_per_s"]["value"] == pytest.approx(27 / 5.0)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/perf/run.py", "--workload", "qec_1001q"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    verdict = perf_compare.verdict
    assert verdict(steady, [v * 1.05 for v in steady], 0.1, True)["verdict"] == "unchanged"
    assert verdict(steady, [v * 1.2 for v in steady], 0.1, True)["verdict"] == "regressed"
    assert verdict(steady, [v * 1.2 for v in steady], 0.1, False)["verdict"] == "improved"
    assert verdict(steady, [60.0, 140.0, 100.0, 70.0, 130.0], 0.1, True)["verdict"] == "unresolved"
    assert verdict(steady, [100.0], 0.1, True)["verdict"] == "unresolved"
