"""Density-matrix reference for the noise model, used only by the tests.

The program evaluates noisy circuits in closed form, (1 - P) |U psi|^2 + P/2^k
(device.simulate_noisy). This module keeps the direct construction it
replaces: evolve rho gate by gate, depolarize after every 2-qubit layer and
once more for the device's uniform channel, read the diagonal, then apply the
Kronecker readout-confusion kernel. Gates act through their full embedded
unitary, so nothing here shares the statevector's tensor contraction.
"""
from __future__ import annotations

import numpy as np

from qfairdeploy.circuits import Circuit, Gate, layers
from qfairdeploy.device import DeviceModel, layer_error_rate
from qfairdeploy.quantum import circuit_unitary, zero_state


def pure_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())


def evolve_density(rho: np.ndarray, g: Gate, num_qubits: int) -> np.ndarray:
    """rho -> G rho G^dagger with G embedded on the gate's qubits."""
    u = circuit_unitary(Circuit(num_qubits, (g,)))
    return u @ rho @ u.conj().T


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Mix toward the maximally mixed state: (1-p) rho + p I/2^n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing rate {p} outside [0, 1]")
    dim = rho.shape[0]
    return (1.0 - p) * rho + (p / dim) * np.eye(dim, dtype=complex)


def validate_density(rho: np.ndarray, tol: float = 1e-9) -> None:
    """Raise unless rho is Hermitian, unit-trace, and positive within tol."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError("density matrix trace != 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("density matrix has a negative eigenvalue")


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * sum of absolute eigenvalues of (a - b) for density matrices."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch in trace_distance")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def measure_density(rho: np.ndarray, qubits) -> np.ndarray:
    """Diagonal marginal over `qubits`, outcome bits ordered as listed (first = MSB)."""
    n = int(round(np.log2(rho.shape[0])))
    t = np.real(np.diag(rho)).reshape([2] * n)
    qubits = list(qubits)
    t = t.sum(axis=tuple(q for q in range(n) if q not in qubits))
    return t.transpose([sorted(qubits).index(q) for q in qubits]).reshape(-1)


def simulate_noisy_density(circuit: Circuit, device: DeviceModel, qubits) -> np.ndarray:
    """Exact noisy outcome distribution over `qubits`, built the long way."""
    n = circuit.num_qubits
    rho = pure_density(zero_state(n))
    for layer in layers(circuit):
        gates = [circuit.gates[i] for i in layer]
        for g in gates:
            rho = evolve_density(rho, g, n)
        two_q = [g for g in gates if len(g.qubits) == 2]
        if two_q:
            rho = depolarize(rho, layer_error_rate(two_q, device))
    rho = depolarize(rho, device.uniform_depolarizing)
    validate_density(rho)
    kernel = np.ones((1, 1))
    for q in qubits:
        kernel = np.kron(kernel, device.confusion(q).T)
    return kernel @ measure_density(rho, qubits)
