"""Simulated NISQ device descriptions and noisy execution.

Noise model: every layer of concurrent 2-qubit gates applies one global
depolarizing channel whose rate is the sum of the per-edge error rates plus a
crosstalk term for each pair of adjacent concurrent edges. Readout error is a
per-qubit confusion matrix applied to the measured distribution; it is kept
out of the gate-error model and undone by `mitigate_readout`.

A device may also declare `uniform_depolarizing`: a single depolarizing
channel applied once per execution regardless of circuit content. It exists
to inject a known ground-truth rate in calibration and validation runs.

Global depolarizing channels commute with every unitary, so noisy execution
needs no density matrix: the measured marginal on k qubits is exactly
(1 - P) |U psi|^2 + P / 2^k, computed from one statevector under the same
12-qubit cap as the noiseless path.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    GateKind,
    TWO_QUBIT_KINDS,
    concat,
    inverse,
    layers,
)
from . import quantum  # simulate_state is looked up on the module, so wrappers installed there see it
from .quantum import _CNOT, measure
from .seeding import spawn


class UnroutedGateError(ValueError):
    """A 2-qubit gate sits on a qubit pair that is not a coupling edge."""


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class DeviceModel:
    name: str
    num_qubits: int
    cnot_error: dict[tuple[int, int], float]  # keyed by sorted edge
    crosstalk: dict[frozenset, float] = field(default_factory=dict)
    crosstalk_default: float = 0.0
    readout_confusion: dict[int, np.ndarray] = field(default_factory=dict)
    uniform_depolarizing: float = 0.0

    def __post_init__(self):
        for e, r in self.cnot_error.items():
            if e != _edge(*e) or max(e) >= self.num_qubits:
                raise ValueError(f"bad edge {e}")
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"edge error {r} outside [0, 1]")
        if not 0.0 <= self.uniform_depolarizing <= 1.0:
            raise ValueError("uniform_depolarizing outside [0, 1]")
        for q, m in self.readout_confusion.items():
            if m.shape != (2, 2) or np.any(m < -1e-12):
                raise ValueError(f"bad confusion matrix for qubit {q}")
            if np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError(f"confusion rows for qubit {q} do not sum to 1")
            # mitigation inverts the Kronecker product of these factors
            if abs(np.linalg.det(m)) < 1e-12:
                raise ValueError(f"singular readout confusion matrix for qubit {q}")

    @property
    def edges(self) -> frozenset:
        return frozenset(self.cnot_error)

    def confusion(self, qubit: int) -> np.ndarray:
        """Row-stochastic P[read r | true t]; identity when unlisted."""
        return self.readout_confusion.get(qubit, np.eye(2))

    def crosstalk_rate(self, e1: tuple[int, int], e2: tuple[int, int]) -> float:
        key = frozenset((_edge(*e1), _edge(*e2)))
        if key in self.crosstalk:
            return self.crosstalk[key]
        shares_qubit = bool(set(e1) & set(e2))
        return self.crosstalk_default if shares_qubit else 0.0


@dataclass(frozen=True)
class NoiseTrace:
    """Depolarizing rate applied per 2-qubit layer and their composition."""

    layer_rates: tuple[float, ...]
    p_total: float


# --- error estimation circuits and randomized compiling ----------------------


def estimation_circuit(circuit: Circuit) -> Circuit:
    """Keep only the 2-qubit gates, in original order."""
    return Circuit(circuit.num_qubits, tuple(g for g in circuit.gates if g.kind in TWO_QUBIT_KINDS))


_PAULI_KINDS = (None, GateKind.X, GateKind.Y, GateKind.Z)  # None = identity
_PAULI_MATS = {
    None: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def _compensation_table() -> dict:
    """For each Pauli pair P inserted before a CNOT, the pair R with
    R . CNOT . P = CNOT up to global phase (R = CNOT P CNOT)."""
    table = {}
    pairs = list(itertools.product(_PAULI_KINDS, repeat=2))
    for bc, bt in pairs:
        m = _CNOT @ np.kron(_PAULI_MATS[bc], _PAULI_MATS[bt]) @ _CNOT
        for rc, rt in pairs:
            ref = np.kron(_PAULI_MATS[rc], _PAULI_MATS[rt])
            if abs(np.vdot(ref, m)) > 4.0 - 1e-9:
                table[(bc, bt)] = (rc, rt)
                break
        else:
            raise AssertionError("CNOT conjugation left the Pauli group")
    return table


_COMPENSATION = _compensation_table()


# (before control, before target, after control, after target) per drawn index pair
_TWIRLS = [[(bc, bt, *_COMPENSATION[(bc, bt)]) for bt in _PAULI_KINDS] for bc in _PAULI_KINDS]


def _twirl_draws(gates, rng: np.random.Generator) -> list[tuple]:
    """For each CNOT among `gates`, in order, the uniformly random Paulis on
    its control and target and the compensating pair (None = identity).
    One draw of two indices per CNOT: randomized compiling and exact-mode
    `estimate_p` both twirl through here."""
    num_cnots = sum(g.kind is GateKind.CNOT for g in gates)
    return [_TWIRLS[i][j] for i, j in rng.integers(0, 4, size=(num_cnots, 2)).tolist()]


def randomized_compile(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """Twirl each CNOT with uniformly random Paulis before it and the
    compensating Paulis after it; the total unitary is unchanged up to a
    global phase. Non-CNOT gates pass through untouched."""
    draws = iter(_twirl_draws(circuit.gates, rng))
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind is not GateKind.CNOT:
            gates.append(g)
            continue
        bc, bt, rc, rt = next(draws)
        c, t = g.qubits
        gates += [Gate(kind, (q,)) for kind, q in ((bc, c), (bt, t)) if kind is not None]
        gates.append(g)
        gates += [Gate(kind, (q,)) for kind, q in ((rc, c), (rt, t)) if kind is not None]
    return Circuit(circuit.num_qubits, tuple(gates))


# --- error accumulation --------------------------------------------------------


def _unrouted(g: Gate, device: DeviceModel) -> UnroutedGateError:
    return UnroutedGateError(f"{g.kind.value} on {g.qubits} is not a coupling edge of {device.name}")


def _edges_rate(edges, device: DeviceModel) -> float:
    """Rate of one layer of concurrent routed edges, in gate order: the
    per-edge errors, then the crosstalk of each pair, clamped to [0, 1]."""
    rate = sum(device.cnot_error[e] for e in edges)
    for e1, e2 in itertools.combinations(edges, 2):
        rate += device.crosstalk_rate(e1, e2)
    return min(max(rate, 0.0), 1.0)


def layer_error_rate(layer_gates: list[Gate], device: DeviceModel) -> float:
    """Depolarizing rate of one concurrent 2-qubit layer: per-edge errors plus
    pairwise crosstalk between adjacent concurrent edges, clamped to [0, 1]."""
    edges = []
    for g in layer_gates:
        if g.kind not in TWO_QUBIT_KINDS:
            continue
        e = _edge(*g.qubits)
        if e not in device.cnot_error:
            raise _unrouted(g, device)
        edges.append(e)
    return _edges_rate(edges, device)


def _two_qubit_layers(circuit: Circuit) -> list[list[Gate]]:
    out = []
    for layer in layers(circuit):
        gates = [circuit.gates[i] for i in layer if len(circuit.gates[i].qubits) == 2]
        out.append(gates)
    return out


def accumulate_p(circuit: Circuit, device: DeviceModel) -> NoiseTrace:
    """Per-layer rates composed as (1 - p_total) = prod(1 - p_layer)."""
    rates = []
    for gates in _two_qubit_layers(circuit):
        if gates:
            rates.append(layer_error_rate(gates, device))
    survive = 1.0
    for r in rates:
        survive *= 1.0 - r
    return NoiseTrace(tuple(rates), 1.0 - survive)


# --- noisy simulation ------------------------------------------------------------


def simulate_noisy(
    circuit: Circuit,
    device: DeviceModel,
    qubits=None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Outcome distribution over `qubits` (default: all), starting from
    |0...0>: (1 - P) |U psi|^2 + P / 2^k with
    1 - P = prod(1 - p_layer) * (1 - uniform_depolarizing), then readout
    confusion over the measured qubits.

    Exact mode (shots=None) is deterministic; shot mode samples with the
    supplied rng. This is the package's one shot sampler.
    """
    qubits = tuple(range(circuit.num_qubits)) if qubits is None else tuple(qubits)
    survive = (1.0 - accumulate_p(circuit, device).p_total) * (1.0 - device.uniform_depolarizing)
    probs = survive * measure(quantum.simulate_state(circuit), qubits) + (1.0 - survive) / 2 ** len(qubits)
    probs = _apply_confusion(probs, device, qubits)
    if shots is None:
        return probs
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if rng is None:
        raise ValueError("shot sampling needs an explicit rng")
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    return np.bincount(outcomes, minlength=probs.size) / float(shots)


def _confusion_kernel(device: DeviceModel, qubits: tuple[int, ...]) -> np.ndarray:
    """Matrix K with p_read = K p_true over the listed qubits."""
    k = np.ones((1, 1))
    for q in qubits:
        k = np.kron(k, device.confusion(q).T)
    return k


def _apply_confusion(probs: np.ndarray, device: DeviceModel, qubits: tuple[int, ...]) -> np.ndarray:
    if not device.readout_confusion:
        return probs
    return _confusion_kernel(device, qubits) @ probs


def mitigate_readout(dist: np.ndarray, device: DeviceModel, qubits) -> np.ndarray:
    """Invert the tensor-product confusion matrix, clip negatives, renormalize."""
    qubits = tuple(qubits)
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (2 ** len(qubits),):
        raise ValueError("distribution length does not match the qubit list")
    corrected = np.linalg.solve(_confusion_kernel(device, qubits), dist)
    corrected = np.clip(corrected, 0.0, None)
    total = corrected.sum()
    if total <= 0.0:
        raise ValueError("readout mitigation produced an empty distribution")
    return corrected / total


# --- effective depolarizing-rate measurement --------------------------------------


def estimate_p(
    circuit: Circuit,
    device: DeviceModel,
    r_twirls: int = 16,
    shots: int | None = 8192,
    seed: int = 0,
) -> float:
    """Measured effective depolarizing rate of a circuit on a device.

    Strips 1-qubit gates, twirls the remainder `r_twirls` times and appends
    each twirl's exact inverse, so the ideal output is |0...0>. A mirror run
    with survival 1 - P keeps |0...0> with probability P0 = (1 - P) + P / 2^n,
    and p = (1 - P0) / (1 - 2^-n) gives back P. shots=None returns the mean
    P over the twirls in closed form, 1 - P = (1 - p_total)(1 - u), since
    readout mitigation is exact there; it layers each mirror from per-qubit
    frontiers and builds no circuit. Shot mode samples each mirror,
    mitigates readout and converts the mean sampled P0. Both modes draw the
    twirl Paulis from the same `spawn(seed, "twirl", t)` streams, and in both
    the Paulis shift the ASAP layering, and so the crosstalk.
    """
    if r_twirls < 1:
        raise ValueError("r_twirls must be >= 1")
    est = estimation_circuit(circuit)
    if shots is None:
        for g in est.gates:
            if _edge(*g.qubits) not in device.cnot_error:
                raise _unrouted(g, device)
        keep = 1.0 - device.uniform_depolarizing
        rates: dict[tuple, float] = {}
        p_hat = sum(1.0 - (1.0 - _mirror_p_total(est, spawn(seed, "twirl", t), device, rates)) * keep
                    for t in range(r_twirls)) / r_twirls
        return min(max(p_hat, 0.0), 1.0)
    n = est.num_qubits
    all_qubits = tuple(range(n))
    survival = 0.0
    for t in range(r_twirls):
        twirled = randomized_compile(est, spawn(seed, "twirl", t))
        dist = simulate_noisy(concat(twirled, inverse(twirled)), device, qubits=all_qubits,
                              shots=shots, rng=spawn(seed, "shots", t))
        if device.readout_confusion:
            dist = mitigate_readout(dist, device, all_qubits)
        survival += float(dist[0])
    p_hat = (1.0 - survival / r_twirls) / (1.0 - 2.0 ** (-n))
    return min(max(p_hat, 0.0), 1.0)


def _mirror_p_total(est: Circuit, rng: np.random.Generator, device: DeviceModel,
                    rates: dict[tuple, float]) -> float:
    """`accumulate_p(concat(twirled, inverse(twirled)), device).p_total` of
    one twirl of a routed 2-qubit-only circuit, built from qubit tuples
    instead of gates. The inverse runs the same qubits backwards, and ASAP
    layering only needs each qubit's first free layer, so the Paulis shift
    the 2-qubit gates as they do in the circuit. `rates` memoizes
    `_edges_rate` per layer's edge tuple across the twirls of one call."""
    draws = iter(_twirl_draws(est.gates, rng))
    steps: list[tuple] = []  # the qubits of each gate of the twirled circuit
    for g in est.gates:
        if g.kind is not GateKind.CNOT:
            steps.append(g.qubits)
            continue
        bc, bt, rc, rt = next(draws)
        c, t = g.qubits
        steps += [(q,) for kind, q in ((bc, c), (bt, t)) if kind is not None]
        steps.append(g.qubits)
        steps += [(q,) for kind, q in ((rc, c), (rt, t)) if kind is not None]
    frontier = [0] * est.num_qubits
    by_layer: dict[int, list[tuple[int, int]]] = {}
    for qubits in steps + steps[::-1]:
        if len(qubits) == 1:
            frontier[qubits[0]] += 1
            continue
        a, b = qubits
        layer = max(frontier[a], frontier[b])
        frontier[a] = frontier[b] = layer + 1
        by_layer.setdefault(layer, []).append(_edge(a, b))
    survive = 1.0
    for layer in sorted(by_layer):
        edges = tuple(by_layer[layer])
        if edges not in rates:
            rates[edges] = _edges_rate(edges, device)
        survive *= 1.0 - rates[edges]
    return 1.0 - survive


# --- device files ------------------------------------------------------------------


def parse_device(text: str) -> DeviceModel:
    name, num_qubits = "", 0
    uniform_dep, crosstalk_default = 0.0, 0.0
    cnot_error: dict[tuple[int, int], float] = {}
    crosstalk: dict[frozenset, float] = {}
    confusion: dict[int, np.ndarray] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key = fields[0]
        if key == "name":
            name = fields[1]
        elif key == "qubits":
            num_qubits = int(fields[1])
        elif key == "uniform_depolarizing":
            uniform_dep = float(fields[1])
        elif key == "crosstalk_default":
            crosstalk_default = float(fields[1])
        elif key == "edge":
            cnot_error[_edge(int(fields[1]), int(fields[2]))] = float(fields[3])
        elif key == "crosstalk":
            e1 = _edge(int(fields[1]), int(fields[2]))
            e2 = _edge(int(fields[3]), int(fields[4]))
            crosstalk[frozenset((e1, e2))] = float(fields[5])
        elif key == "readout":
            q, p01, p10 = int(fields[1]), float(fields[2]), float(fields[3])
            confusion[q] = np.array([[1.0 - p01, p01], [p10, 1.0 - p10]])
        else:
            raise ValueError(f"unknown device file key: {key}")
    if not name or num_qubits < 1:
        raise ValueError("device file needs 'name' and 'qubits'")
    return DeviceModel(
        name=name,
        num_qubits=num_qubits,
        cnot_error=cnot_error,
        crosstalk=crosstalk,
        crosstalk_default=crosstalk_default,
        readout_confusion=confusion,
        uniform_depolarizing=uniform_dep,
    )


def load_device(path: str | Path) -> DeviceModel:
    return parse_device(Path(path).read_text())


BUNDLED_DEVICES = ("ring14", "ladder16", "grid20a", "grid20b", "hex27a", "hex27b")


def bundled_device(name: str) -> DeviceModel:
    """Load one of the bundled synthetic device descriptions by name."""
    if name not in BUNDLED_DEVICES:
        raise ValueError(f"unknown bundled device {name!r}; have {BUNDLED_DEVICES}")
    text = resources.files("qfairdeploy.devices").joinpath(f"{name}.device").read_text()
    return parse_device(text)
