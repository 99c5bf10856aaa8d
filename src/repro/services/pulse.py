"""Orthogonal pulse service: lowering circuits to device-level pulse schedules.

The pulse path is one of the "realization hooks" the blueprint anticipates:
calibrated, device-specific realizations reached through an explicit pulse
context, never implicitly.  Without hardware, the service produces a timed
schedule — which channel plays which envelope when — using the context's
``dt`` and per-gate durations, with ASAP (as-soon-as-possible) scheduling per
qubit.  Its output feeds duration estimates back into cost hints and the
scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.context import PulsePolicy
from ..core.errors import ServiceError
from ..simulators.gate.circuit import Circuit

__all__ = ["PulseInstruction", "PulseSchedule", "PulseService", "DEFAULT_GATE_DURATIONS_NS"]

# Typical transmon-era gate durations (nanoseconds).  ``rz`` is virtual.
DEFAULT_GATE_DURATIONS_NS: Dict[str, float] = {
    "rz": 0.0,
    "p": 0.0,
    "z": 0.0,
    "s": 0.0,
    "sdg": 0.0,
    "t": 0.0,
    "tdg": 0.0,
    "id": 0.0,
    "x": 35.5,
    "y": 35.5,
    "sx": 35.5,
    "sxdg": 35.5,
    "h": 71.0,
    "rx": 71.0,
    "ry": 71.0,
    "u": 71.0,
    "cx": 300.0,
    "cz": 300.0,
    "cy": 300.0,
    "ch": 340.0,
    "cp": 340.0,
    "crx": 340.0,
    "cry": 340.0,
    "crz": 340.0,
    "swap": 900.0,
    "iswap": 600.0,
    "rzz": 340.0,
    "rxx": 340.0,
    "ryy": 340.0,
    "ccx": 1200.0,
    "ccz": 1200.0,
    "cswap": 1500.0,
    "measure": 1000.0,
    "reset": 1000.0,
}


@dataclass(frozen=True)
class PulseInstruction:
    """One scheduled envelope on one drive/control channel."""

    channel: str
    gate: str
    qubits: Tuple[int, ...]
    start_ns: float
    duration_ns: float
    shape: str
    params: Tuple[float, ...] = ()

    @property
    def stop_ns(self) -> float:
        """End time of the envelope in nanoseconds."""
        return self.start_ns + self.duration_ns


@dataclass
class PulseSchedule:
    """A timed list of pulse instructions."""

    instructions: List[PulseInstruction] = field(default_factory=list)
    dt_ns: float = 0.222

    @property
    def duration_ns(self) -> float:
        """Total schedule duration (end of the latest instruction)."""
        return max((inst.stop_ns for inst in self.instructions), default=0.0)

    @property
    def num_samples(self) -> int:
        """Duration expressed in sampler ticks of size ``dt_ns``."""
        return int(round(self.duration_ns / self.dt_ns)) if self.dt_ns > 0 else 0

    def on_channel(self, channel: str) -> List[PulseInstruction]:
        """The instructions scheduled on *channel*, in schedule order."""
        return [inst for inst in self.instructions if inst.channel == channel]

    def channels(self) -> List[str]:
        """Every channel the schedule drives, sorted."""
        return sorted({inst.channel for inst in self.instructions})


class PulseService:
    """Lower gate circuits into ASAP-scheduled pulse schedules."""

    def __init__(self, policy: Optional[PulsePolicy] = None):
        self.policy = policy or PulsePolicy()

    def _duration(self, name: str) -> float:
        overrides = self.policy.gate_durations_ns
        if name in overrides:
            return float(overrides[name])
        if name in DEFAULT_GATE_DURATIONS_NS:
            return DEFAULT_GATE_DURATIONS_NS[name]
        raise ServiceError(f"no pulse duration known for gate {name!r}")

    def schedule(self, circuit: Circuit) -> PulseSchedule:
        """ASAP-schedule every instruction of *circuit* onto drive channels.

        Single-qubit gates play on ``d<q>``; multi-qubit gates occupy the
        control channel ``u<q0>_<q1>`` *and* block every involved qubit;
        measurements play on ``m<q>``.
        """
        qubit_free_at: Dict[int, float] = {q: 0.0 for q in range(circuit.num_qubits)}
        schedule = PulseSchedule(dt_ns=self.policy.dt_ns)
        for inst in circuit.instructions:
            if inst.name == "barrier":
                barrier_time = max((qubit_free_at[q] for q in inst.qubits), default=0.0)
                for q in inst.qubits:
                    qubit_free_at[q] = barrier_time
                continue
            duration = self._duration(inst.name)
            start = max(qubit_free_at[q] for q in inst.qubits)
            if inst.name == "measure":
                channel = f"m{inst.qubits[0]}"
            elif len(inst.qubits) == 1:
                channel = f"d{inst.qubits[0]}"
            else:
                channel = "u" + "_".join(str(q) for q in inst.qubits)
            if duration > 0.0:
                schedule.instructions.append(
                    PulseInstruction(
                        channel=channel,
                        gate=inst.name,
                        qubits=inst.qubits,
                        start_ns=start,
                        duration_ns=duration,
                        shape=self.policy.shape,
                        params=inst.params,
                    )
                )
            for q in inst.qubits:
                qubit_free_at[q] = start + duration
        return schedule

    def estimated_duration_ns(self, circuit: Circuit) -> float:
        """Total wall-clock duration of the pulse realization of *circuit*."""
        return self.schedule(circuit).duration_ns
