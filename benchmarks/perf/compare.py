#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/perf/compare.py A.json B.json
    python3 benchmarks/perf/compare.py --collect SET.json RUN.json [RUN.json ...]

``A.json`` and ``B.json`` are each a run record written by ``run.py --out``
or a set of runs made with ``--collect`` (``baseline.json`` is one).  For
every workload and end-to-end metric the table gives both sides' medians over
their runs, their quartiles, the change of B against A and a verdict:

- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: B's median is better than A's by more than the bound;
- ``unchanged``: the medians differ by no more than the bound;
- ``unresolved``: the spread of either side's runs (interquartile range over
  the median) exceeds the bound, or a side has fewer than two runs, and not
  every run of B reads better than every run of A.

The exit code is 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

SPEC_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def summarize_run(record: Dict[str, Any]) -> Dict[str, Any]:
    """The compact form of one ``run.py --out`` record that a set keeps."""
    return {
        "revision": record["revision"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "host": record["host"],
        "failed": {name: data["failed"] for name, data in record["workloads"].items()},
        "metrics": {
            name: {metric: row["value"] for metric, row in data["end_to_end"].items()}
            for name, data in record["workloads"].items()
        },
    }


def load_runs(path: Path) -> List[Dict[str, Any]]:
    data = json.loads(path.read_text())
    return data["runs"] if "runs" in data else [summarize_run(data)]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median; infinite below two values."""
    if len(values) < 2:
        return float("inf")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: Sequence[float], b: Sequence[float], bound: float, lower_is_better: bool) -> Dict[str, Any]:
    """Compare the runs of one metric on one workload."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    noisy = max(spread(a), spread(b)) > bound
    if noisy:
        label = "improved" if all_better else "unresolved"
    elif worse > bound:
        label = "regressed"
    elif -worse > bound:
        label = "improved"
    else:
        label = "unchanged"
    return {"a": med_a, "b": med_b, "worse_by": worse, "spread_a": spread(a), "spread_b": spread(b),
            "verdict": label}


def compare(runs_a: List[Dict[str, Any]], runs_b: List[Dict[str, Any]], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][workload][name] for run in runs_a if workload in run["metrics"]]
            b = [run["metrics"][workload][name] for run in runs_b if workload in run["metrics"]]
            if not a or not b:
                continue
            row = verdict(a, b, metric["bound"], metric["better"] == "lower")
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "bound": metric["bound"], "runs": (len(a), len(b)), **row})
    return rows


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--collect", type=Path, help="write the runs in FILES as one set to this file")
    args = parser.parse_args(argv)
    if args.collect is not None:
        runs = [run for path in args.files for run in load_runs(path)]
        args.collect.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
        print(f"wrote {len(runs)} runs to {args.collect}")
        return 0
    if len(args.files) != 2:
        parser.error("give two files, A and B")
    spec = json.loads(SPEC_FILE.read_text())
    rows = compare(load_runs(args.files[0]), load_runs(args.files[1]), spec)
    print(f"{'workload':<20} {'metric':<16} {'A median':>12} {'B median':>12} {'change':>8} "
          f"{'bound':>6} {'spread A/B':>13}  verdict")
    for row in rows:
        change = row["worse_by"]
        print(f"{row['workload']:<20} {row['metric']:<16} {row['a']:>12.6g} {row['b']:>12.6g} "
              f"{change:>+8.1%} {row['bound']:>6.1%} {row['spread_a']:>6.1%}/{row['spread_b']:<6.1%}  "
              f"{row['verdict']}")
    print("(change: positive means B is worse; runs per side "
          f"{rows[0]['runs'][0]}/{rows[0]['runs'][1]})" if rows else "no common workloads")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
