#!/usr/bin/env python
"""Single static-analysis entry point: invariant lint + IR verifier corpus.

Runs both layers of the static-analysis subsystem and exits nonzero if either
finds a problem:

1. **Invariant lint** (``tools/lint_invariants.py``) over ``src/repro`` (or
   the paths given on the command line) — seeded-RNG discipline, bounded
   caches, dtype plumbing, wall-clock bans, README knob coverage.
2. **IR verifier corpus** (``repro.simulators.gate.analysis``) — a
   representative set of circuits (GHZ, QAOA ring, mid-circuit
   measure/reset, controlled-rotation variety, a Clifford circuit with
   mid-circuit measure/reset) is compiled with and without noise; every
   template, bound program, stabilizer program and transpiler stage output
   is verified against the ``IR``/``TR`` rule catalog, and one simulator run
   per engine under ``analysis.set_verify_each(True)`` (the one verification
   switch) checks its compiled artifacts and the result metadata contract
   end to end.

Usage::

    python tools/analyze.py                  # full repo analysis (CI fast lane)
    python tools/analyze.py --json out.json  # also write the diagnostics report
    python tools/analyze.py --demo-corrupt   # verify a deliberately corrupted
                                             # program (exits nonzero; used by
                                             # tests to prove failures propagate)
    python tools/analyze.py path/to/file.py  # lint specific paths only
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import lint_invariants  # noqa: E402  (needs the tools/ path bootstrap above)


def _corpus_circuits():
    """The representative circuit set the verifier corpus compiles."""
    from repro.simulators.gate import Circuit

    ghz = Circuit(4, 4, name="ghz")
    ghz.h(0)
    for qubit in range(3):
        ghz.cx(qubit, qubit + 1)
    ghz.measure_all()

    qaoa = Circuit(5, 5, name="qaoa_ring")
    for qubit in range(5):
        qaoa.h(qubit)
    for layer, (gamma, beta) in enumerate([(0.73, 1.19), (2.31, 0.41)]):
        for a in range(5):
            qaoa.rzz(gamma + 0.1 * layer, a, (a + 1) % 5)
        for a in range(5):
            qaoa.rx(beta, a)
    qaoa.measure_all()

    dynamic = Circuit(3, 3, name="dynamic")
    dynamic.h(0)
    dynamic.cx(0, 1)
    dynamic.measure(0, 0)
    dynamic.reset(0)
    dynamic.ry(0.8, 0)
    dynamic.crx(1.3, 1, 2)
    dynamic.measure_all()

    controlled = Circuit(3, 3, name="controlled")
    controlled.h(0)
    controlled.cp(0.7, 0, 1)
    controlled.crx(2.2, 1, 2)
    controlled.swap(0, 2)
    controlled.rzz(1.1, 0, 1)

    # Clifford with a random-outcome mid-circuit measurement and a reset, so
    # the stabilizer section sees every phase-program op kind.
    clifford_dynamic = Circuit(3, 3, name="clifford_dynamic")
    clifford_dynamic.h(0)
    clifford_dynamic.cx(0, 1)
    clifford_dynamic.measure(0, 0)
    clifford_dynamic.reset(0)
    clifford_dynamic.s(1)
    clifford_dynamic.cz(1, 2)
    clifford_dynamic.measure_all()

    return [ghz, qaoa, dynamic, controlled, clifford_dynamic]


def run_verifier_corpus() -> List[Tuple[str, "object"]]:
    """Compile the corpus and verify every artifact; returns (name, report) pairs."""
    from repro.simulators.gate import StatevectorSimulator, analysis
    from repro.simulators.gate.fusion import compile_parametric_template
    from repro.simulators.gate.noise import NoiseModel
    from repro.simulators.gate.transpiler import passes
    from repro.simulators.gate.transpiler.cache import transpile_cached

    reports: List[Tuple[str, object]] = []
    noise_settings = (
        ("noiseless", None),
        ("noisy", NoiseModel(oneq_error=0.01, twoq_error=0.05, readout_error=0.02)),
    )
    for circuit in _corpus_circuits():
        template = compile_parametric_template(circuit)
        reports.append(
            (f"{circuit.name}:template", analysis.verify_template(template, circuit))
        )
        for noise_name, noise in noise_settings:
            reports.append(
                (
                    f"{circuit.name}:program:{noise_name}",
                    analysis.verify_program(template.bind(circuit, noise)),
                )
            )

    # Transpiler stages: a collecting hook records every stage report while
    # the real pipeline (cached replay path included) runs.
    staged: List[Tuple[str, object]] = []

    def stage_collector(stage, circuit, **context):
        staged.append(
            (f"transpile:{stage}", analysis.verify_stage(stage, circuit, **context))
        )

    ring = [(q, (q + 1) % 5) for q in range(5)]
    passes.set_stage_hook(stage_collector)
    try:
        for circuit in _corpus_circuits():
            if circuit.num_qubits > 5:
                continue
            coupling = [edge for edge in ring if max(edge) < circuit.num_qubits] or None
            for _ in range(2):  # second pass exercises the cached replay
                transpile_cached(
                    circuit,
                    basis_gates=["sx", "rz", "cx"],
                    coupling_map=coupling,
                    optimization_level=2,
                )
    finally:
        passes.set_stage_hook(None)
    reports.extend(staged)

    # Stabilizer compile path: the Clifford members of the corpus lowered
    # onto the tableau engine and checked against IR009-IR011.
    from repro.simulators.gate.fusion import compile_stabilizer_program, is_clifford_circuit

    for circuit in filter(is_clifford_circuit, _corpus_circuits()):
        for noise_name, noise in noise_settings:
            stabilizer_program = compile_stabilizer_program(circuit, noise)
            reports.append(
                (
                    f"{circuit.name}:stabilizer:{noise_name}",
                    analysis.verify_stabilizer_program(stabilizer_program),
                )
            )

    # End to end under the one switch: each run verifies its template,
    # program (or stabilizer program) and result metadata inside the
    # simulator itself, and raises on a violation.
    previous = analysis.verify_each_enabled()
    analysis.set_verify_each(True)
    try:
        for engine in ("batched", "density", "stabilizer"):
            simulator = StatevectorSimulator(
                noise_model=NoiseModel(oneq_error=0.01, twoq_error=0.02, readout_error=0.01),
                trajectory_engine=engine,
            )
            result = simulator.run(_corpus_circuits()[0], shots=128, seed=11)
            reports.append(
                (f"run:{engine}:metadata", analysis.verify_result(result))
            )
    finally:
        analysis.set_verify_each(previous)
    return reports


def demo_corrupt_program() -> List[Tuple[str, object]]:
    """Verify a deliberately corrupted program (the seeded-failure demo)."""
    import numpy as np

    from repro.simulators.gate import Circuit, analysis
    from repro.simulators.gate.fusion import GateStep, compile_trajectory_program
    from repro.simulators.gate.kernels import build_plan

    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure_all()
    program = compile_trajectory_program(circuit)
    step = next(s for s in program.steps if isinstance(s, GateStep))
    bad = np.asarray(step.matrix, dtype=np.complex128).copy()
    bad[0, 0] = 3.7  # deliberately non-unitary
    index = program.steps.index(step)
    program.steps[index] = GateStep(bad, step.qubits, build_plan(bad), step.noise)
    return [("demo-corrupt:program", analysis.verify_program(program))]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run both layers, print a summary, return an exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories for the invariant lint (default: src/repro)",
    )
    parser.add_argument("--json", type=Path, help="write the diagnostics report here")
    parser.add_argument(
        "--demo-corrupt",
        action="store_true",
        help="verify a deliberately corrupted program instead of the corpus "
        "(always exits nonzero; proves failures propagate)",
    )
    parser.add_argument(
        "--no-readme-check",
        action="store_true",
        help="skip the KNOB001 README cross-check",
    )
    args = parser.parse_args(argv)

    violations, suppressed = lint_invariants.lint(
        args.paths or None, readme_check=not args.no_readme_check
    )
    for path, lineno, rule, message in violations:
        print(f"{lint_invariants._relative(path)}:{lineno}: {rule} {message}")

    reports = demo_corrupt_program() if args.demo_corrupt else run_verifier_corpus()
    failed = [(name, report) for name, report in reports if not report.ok]
    for name, report in failed:
        for diagnostic in report.diagnostics:
            print(f"{name}: {diagnostic}")

    ok = not violations and not failed
    if args.json:
        payload = {
            "ok": ok,
            "lint": {
                "violations": [
                    {
                        "path": lint_invariants._relative(path),
                        "line": lineno,
                        "rule": rule,
                        "message": message,
                    }
                    for path, lineno, rule, message in violations
                ],
                "suppressed": [
                    {
                        "path": lint_invariants._relative(path),
                        "line": lineno,
                        "rule": rule,
                    }
                    for path, lineno, rule in suppressed
                ],
            },
            "verifier": {
                "subjects": len(reports),
                "failed": len(failed),
                "reports": [
                    dict(report.to_dict(), subject=name) for name, report in reports
                ],
            },
        }
        args.json.write_text(json.dumps(payload, indent=2), encoding="utf-8")

    print(
        f"analyze: lint {len(violations)} violation(s) "
        f"({len(suppressed)} suppressed by pragma), verifier "
        f"{len(reports)} subject(s), {len(failed)} failed"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
