"""Complex linear algebra for circuits: gate semantics, noiseless statevector
evolution and full unitaries (both capped at 12 qubits). Noise needs no
density matrix: device.simulate_noisy mixes the statevector's Born-rule
distribution over the whole register with the uniform distribution in
closed form.

All functions are pure; arrays returned are freshly allocated. Basis-index
convention follows circuits.py (qubit 0 = most significant bit).
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, Gate, GateKind

STATEVECTOR_QUBIT_CAP = 12

_FIXED_1Q = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

_CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


def gate_matrix(g: Gate) -> np.ndarray:
    """Unitary of a single gate on its own qubits (2x2 or 4x4)."""
    k = g.kind
    if k in _FIXED_1Q:
        return _FIXED_1Q[k]
    if k is GateKind.RY:
        t = g.params[0] / 2.0
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex)
    if k is GateKind.U3:
        return u3_matrix(*g.params)
    if k is GateKind.CNOT:
        return _CNOT
    if k is GateKind.RZZ:
        t = g.params[0] / 2.0
        e_m, e_p = np.exp(-1j * t), np.exp(1j * t)
        return np.diag([e_m, e_p, e_p, e_m])
    raise ValueError(f"no matrix for {k}")


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes: tuple[int, ...], n_axes: int) -> np.ndarray:
    """Apply `mat` (2^k x 2^k) to the given axes of a [2]*n_axes tensor.

    The target axes go first and the rest flatten into columns, so one
    matrix product contracts them (the product `np.tensordot` would make,
    without its bookkeeping); the result's axes are then put back."""
    perm = (*axes, *(i for i in range(tensor.ndim) if i not in axes))
    moved = tensor.transpose(perm)
    out = np.dot(np.ascontiguousarray(mat), moved.reshape(mat.shape[0], -1)).reshape(moved.shape)
    return out.transpose(sorted(range(len(perm)), key=perm.__getitem__))


def _check_cap(circuit: Circuit) -> None:
    if circuit.num_qubits > STATEVECTOR_QUBIT_CAP:
        raise ValueError(f"{circuit.num_qubits} qubits exceeds the {STATEVECTOR_QUBIT_CAP}-qubit cap")


def evolve(circuit: Circuit, states: np.ndarray) -> np.ndarray:
    """The circuit applied to a statevector (2^n,) or to each column of a
    batch (2^n, m)."""
    _check_cap(circuit)
    n = circuit.num_qubits
    states = np.asarray(states)
    # the row index splits into qubit axes; a batch axis rides along last
    tensor = states.reshape([2] * n + list(states.shape[1:]))
    for g in circuit.gates:
        tensor = _apply_matrix(tensor, gate_matrix(g), g.qubits, n)
    return tensor.reshape(states.shape)


def simulate_state(circuit: Circuit) -> np.ndarray:
    """Noiseless statevector after the circuit, starting from |0...0>."""
    _check_cap(circuit)
    return evolve(circuit, zero_state(circuit.num_qubits))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary of the circuit (right-to-left product of gate matrices)."""
    _check_cap(circuit)
    return evolve(circuit, np.eye(2**circuit.num_qubits, dtype=complex))
