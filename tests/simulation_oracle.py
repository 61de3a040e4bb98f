"""Row-by-row simulation references for the closed forms, used only by the tests.

`qnn.output_distribution` (and so `qnn.accuracy` and the fairness scan)
evolves all rows as one batch and applies the noise as the map
d -> (1 - P) d + P / 2, with P from the ansatz alone;
`device.estimate_p(shots=None)` turns each twirled mirror's layer rates into
its survival directly, layering the mirror from per-qubit frontiers. This
module keeps the paths they replace: one noisy simulation of the encoded
circuit per input row, readout confusion applied and mitigated; one noisy
simulation per mirror circuit with the all-zeros survival converted into a
rate; the mirror built as `Circuit`s, twirled one CNOT at a time, and
layered by `accumulate_p`; and gate application through `np.tensordot`.
"""
from __future__ import annotations

import numpy as np

from qfairdeploy.circuits import Circuit, Gate, GateKind, concat, inverse
from qfairdeploy.device import (
    _COMPENSATION,
    _PAULI_KINDS,
    DeviceModel,
    accumulate_p,
    estimation_circuit,
    mitigate_readout,
    simulate_noisy,
)
from qfairdeploy.qnn import Dataset, QnnModel, encode
from qfairdeploy.quantum import gate_matrix, measure, simulate_state
from qfairdeploy.seeding import spawn


def evolve_by_tensordot(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    """`quantum.evolve` with each gate contracted by `np.tensordot` over the
    state's [2]*n tensor and its axes moved back with `np.moveaxis`."""
    n = circuit.num_qubits
    states = np.asarray(states)
    tensor = states.reshape([2] * n + list(states.shape[1:]))
    for g in circuit.gates:
        k = len(g.qubits)
        m = gate_matrix(g).reshape([2] * (2 * k))
        out = np.tensordot(m, tensor, axes=(tuple(range(k, 2 * k)), g.qubits))
        tensor = np.moveaxis(out, tuple(range(k)), g.qubits)
    return tensor.reshape(states.shape)


def full_circuit(model: QnnModel, x) -> Circuit:
    """The encoder for one feature row followed by the ansatz."""
    return concat(encode(x), model.circuit)


def randomized_compile_by_gate(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """Randomized compiling with one draw of two Pauli indices per CNOT, each
    Pauli built as a `Gate`."""
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind is not GateKind.CNOT:
            gates.append(g)
            continue
        bc, bt = (_PAULI_KINDS[i] for i in rng.integers(0, 4, size=2))
        rc, rt = _COMPENSATION[(bc, bt)]
        for kind, q in ((bc, g.qubits[0]), (bt, g.qubits[1])):
            if kind is not None:
                gates.append(Gate(kind, (q,)))
        gates.append(g)
        for kind, q in ((rc, g.qubits[0]), (rt, g.qubits[1])):
            if kind is not None:
                gates.append(Gate(kind, (q,)))
    return Circuit(circuit.num_qubits, tuple(gates))


def estimate_p_by_mirror_circuits(circuit: Circuit, device: DeviceModel, r_twirls: int, seed: int) -> float:
    """Exact-mode p from mirror `Circuit`s: each twirl concatenated with its
    inverse, its layer rates composed by `accumulate_p`, and the mean of
    1 - (1 - p_total)(1 - u) over the twirls."""
    est = estimation_circuit(circuit)
    mirrors = []
    for t in range(r_twirls):
        twirled = randomized_compile_by_gate(est, spawn(seed, "twirl", t))
        mirrors.append(concat(twirled, inverse(twirled)))
    keep = 1.0 - device.uniform_depolarizing
    p_hat = sum(1.0 - (1.0 - accumulate_p(m, device).p_total) * keep for m in mirrors) / r_twirls
    return min(max(p_hat, 0.0), 1.0)


def output_distribution_by_rows(model: QnnModel, x, device: DeviceModel | None) -> np.ndarray:
    """Distribution over the measured qubit for one feature row: the encoded
    circuit simulated on its own; on a device, noisy and readout-mitigated."""
    circuit = full_circuit(model, x)
    if device is None:
        return measure(simulate_state(circuit), (model.measure_qubit,))
    dist = simulate_noisy(circuit, device, qubits=(model.measure_qubit,))
    if device.readout_confusion:
        dist = mitigate_readout(dist, device, (model.measure_qubit,))
    return dist


def predict(model: QnnModel, x, device: DeviceModel | None) -> tuple[int, float]:
    """(label, score) with score = P(measure_qubit = 1); ties go to label 1."""
    score = float(output_distribution_by_rows(model, x, device)[1])
    return (1 if score >= 0.5 else 0), score


def accuracy_by_rows(model: QnnModel, data: Dataset, split: str, device: DeviceModel | None) -> float:
    rows = data.split(split)
    if not rows:
        raise ValueError(f"empty {split} split")
    hits = 0
    for i in rows:
        label, _ = predict(model, data.features[i], device)
        hits += int(label == int(data.labels[i]))
    return hits / len(rows)


def estimate_p_by_simulation(circuit: Circuit, device: DeviceModel, r_twirls: int, seed: int) -> float:
    """Exact-mode p: simulate each twirled mirror, mitigate readout, and
    convert the mean all-zeros survival P0 into p = (1 - P0) / (1 - 2^-n)."""
    est = estimation_circuit(circuit)
    n = est.num_qubits
    all_qubits = tuple(range(n))
    survival = 0.0
    for t in range(r_twirls):
        twirled = randomized_compile_by_gate(est, spawn(seed, "twirl", t))
        dist = simulate_noisy(concat(twirled, inverse(twirled)), device, qubits=all_qubits)
        if device.readout_confusion:
            dist = mitigate_readout(dist, device, all_qubits)
        survival += float(dist[0])
    p_hat = (1.0 - survival / r_twirls) / (1.0 - 2.0 ** (-n))
    return min(max(p_hat, 0.0), 1.0)
