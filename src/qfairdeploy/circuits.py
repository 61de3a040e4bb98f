"""Gate-list circuit representation, structural metrics, and text serialization.

Conventions used throughout the package:
- qubit 0 is the most significant bit of a computational-basis index, so
  basis state |10> on two qubits has index 2;
- the leftmost gate in a circuit acts first in time (the circuit unitary is
  the right-to-left product of gate matrices).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path


class GateKind(Enum):
    """The gates the package emits: U3/RZZ/CNOT from the ansatz, RY from the
    encoder, U3/CNOT from synthesis, X/Y/Z from twirling."""

    X = "x"
    Y = "y"
    Z = "z"
    RY = "ry"
    U3 = "u3"
    CNOT = "cnot"
    RZZ = "rzz"


# kind -> (number of qubits, number of angle parameters)
GATE_ARITY: dict[GateKind, tuple[int, int]] = {
    GateKind.X: (1, 0),
    GateKind.Y: (1, 0),
    GateKind.Z: (1, 0),
    GateKind.RY: (1, 1),
    GateKind.U3: (1, 3),
    GateKind.CNOT: (2, 0),
    GateKind.RZZ: (2, 1),
}

TWO_QUBIT_KINDS = frozenset(k for k, (nq, _) in GATE_ARITY.items() if nq == 2)


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, target qubits in order, angle parameters."""

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        nq, npar = GATE_ARITY[self.kind]
        if len(self.qubits) != nq:
            raise ValueError(f"{self.kind.value} takes {nq} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if len(self.params) != npar:
            raise ValueError(f"{self.kind.value} takes {npar} params, got {self.params}")
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError(f"non-finite gate parameter in {self.params}")

    def remap(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy with qubit indices translated through `mapping`."""
        return Gate(self.kind, tuple(mapping[q] for q in self.qubits), self.params)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed qubit register."""

    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate {g} out of range for {self.num_qubits} qubits")

    def __len__(self) -> int:
        return len(self.gates)


def concat(*circuits: Circuit) -> Circuit:
    """Concatenate circuits in time order; all must share the qubit count."""
    if not circuits:
        raise ValueError("nothing to concatenate")
    n = circuits[0].num_qubits
    if any(c.num_qubits != n for c in circuits):
        raise ValueError("qubit count mismatch in concat")
    gates: tuple[Gate, ...] = ()
    for c in circuits:
        gates += c.gates
    return Circuit(n, gates)


def inverse(circuit: Circuit) -> Circuit:
    """Exact inverse: reversed gate order with each gate inverted."""
    return Circuit(circuit.num_qubits, tuple(gate_inverse(g) for g in reversed(circuit.gates)))


def gate_inverse(g: Gate) -> Gate:
    k = g.kind
    if k in (GateKind.X, GateKind.Y, GateKind.Z, GateKind.CNOT):
        return g
    if k in (GateKind.RY, GateKind.RZZ):
        return Gate(k, g.qubits, (-g.params[0],))
    if k is GateKind.U3:
        theta, phi, lam = g.params
        return Gate(k, g.qubits, (-theta, -lam, -phi))
    raise ValueError(f"no inverse rule for {k}")


def cnot_count(circuit: Circuit) -> int:
    """Number of 2-qubit gates."""
    return sum(1 for g in circuit.gates if g.kind in TWO_QUBIT_KINDS)


def asap(steps, num_qubits: int) -> list[int]:
    """Greedy as-soon-as-possible layering of gates given by their qubit
    tuples: each gate's layer, the earliest in which none of its qubits is
    already busy. The package's layering; `depth` counts it and the noise
    model reads it. Exact-mode `device.estimate_p` layers its twirled
    mirrors with a one-pass specialisation (`device._mirror_p_total`),
    held to this one by `TestMirrorLayering`."""
    frontier = [0] * num_qubits  # first free layer per qubit
    out = []
    for qubits in steps:  # every gate kind acts on one qubit or two (GATE_ARITY)
        if len(qubits) == 1:
            (a,) = qubits
            layer = frontier[a]
            frontier[a] = layer + 1
        else:
            a, b = qubits
            layer = frontier[a] if frontier[a] > frontier[b] else frontier[b]
            frontier[a] = frontier[b] = layer + 1
        out.append(layer)
    return out


def depth(circuit: Circuit) -> int:
    """Number of layers in the greedy ASAP layering (all gates counted)."""
    found = asap([g.qubits for g in circuit.gates], circuit.num_qubits)
    return max(found) + 1 if found else 0


# --- text serialization: `qubits N` header, then one gate per line ---------

_FLOAT_FMT = "%.17g"  # 17 significant digits round-trip binary64 exactly


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.num_qubits}"]
    for g in circuit.gates:
        parts = [g.kind.value, ",".join(str(q) for q in g.qubits)]
        if g.params:
            parts.append(",".join(_FLOAT_FMT % p for p in g.params))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError("circuit text must start with a 'qubits N' header")
    n = int(lines[0].split()[1])
    gates = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) not in (2, 3):
            raise ValueError(f"malformed gate line: {ln!r}")
        kind = GateKind(fields[0].lower())
        qubits = tuple(int(q) for q in fields[1].split(","))
        params = tuple(float(p) for p in fields[2].split(",")) if len(fields) == 3 else ()
        gates.append(Gate(kind, qubits, params))
    return Circuit(n, tuple(gates))


def save_circuit(circuit: Circuit, path: str | Path) -> None:
    Path(path).write_text(circuit_to_text(circuit))


def load_circuit(path: str | Path) -> Circuit:
    return circuit_from_text(Path(path).read_text())
