"""Row-by-row simulation references for the closed forms, used only by the tests.

`qnn.accuracy` evolves a whole split as one batch and applies the noise as
the score map s -> (1 - P) s + P / 2; `device.estimate_p(shots=None)` turns
each twirled mirror's layer rates into its survival directly. This module
keeps the paths they replace: one noisy simulation per input row, readout
confusion applied and mitigated, and one noisy simulation per mirror circuit
with the all-zeros survival converted into a rate.
"""
from __future__ import annotations

from qfairdeploy.circuits import Circuit, concat, inverse
from qfairdeploy.device import (
    DeviceModel,
    estimation_circuit,
    mitigate_readout,
    randomized_compile,
    simulate_noisy,
)
from qfairdeploy.qnn import Dataset, QnnModel, output_distribution
from qfairdeploy.seeding import spawn


def predict(model: QnnModel, x, device: DeviceModel | None) -> tuple[int, float]:
    """(label, score) with score = P(measure_qubit = 1); ties go to label 1."""
    score = float(output_distribution(model, x, device)[1])
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
        twirled = randomized_compile(est, spawn(seed, "twirl", t))
        dist = simulate_noisy(concat(twirled, inverse(twirled)), device, qubits=all_qubits)
        if device.readout_confusion:
            dist = mitigate_readout(dist, device, all_qubits)
        survival += float(dist[0])
    p_hat = (1.0 - survival / r_twirls) / (1.0 - 2.0 ** (-n))
    return min(max(p_hat, 0.0), 1.0)
