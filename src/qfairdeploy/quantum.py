"""Complex linear algebra for circuits: gate semantics, noiseless statevector
evolution and full unitaries (both capped at 12 qubits), measurement, and the
distance metrics used by the fairness analysis. Noise needs no density
matrix: device.simulate_noisy mixes the statevector's Born-rule marginal with
the uniform distribution in closed form.

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


# --- measurement -------------------------------------------------------------


def _marginal(probs_full: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Marginal over `qubits`, outcome bits ordered as listed (first = MSB)."""
    t = probs_full.reshape([2] * num_qubits)
    keep = list(qubits)
    drop = tuple(i for i in range(num_qubits) if i not in keep)
    if drop:
        t = t.sum(axis=drop)
    # after summing, remaining axes are the kept qubits in ascending order
    order = [sorted(keep).index(q) for q in keep]
    return t.transpose(order).reshape(-1)


def _check_qubit_subset(qubits, num_qubits) -> tuple[int, ...]:
    qs = tuple(qubits)
    if not qs:
        raise ValueError("empty qubit list")
    if len(set(qs)) != len(qs) or any(q < 0 or q >= num_qubits for q in qs):
        raise ValueError(f"invalid qubit subset {qs} for {num_qubits} qubits")
    return qs


def measure(state: np.ndarray, qubits) -> np.ndarray:
    """Exact Born-rule distribution of a statevector over the listed qubits.
    Shot sampling happens in one place, device.simulate_noisy."""
    state = np.asarray(state)
    if state.ndim != 1:
        raise ValueError("state must be a statevector")
    n = int(round(math.log2(state.shape[0])))
    probs_full = np.abs(state) ** 2
    qs = _check_qubit_subset(qubits, n)
    probs = _marginal(probs_full, qs, n)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return probs


# --- distances ----------------------------------------------------------------


def trace_distance_pure(psi: np.ndarray, phi: np.ndarray) -> float | np.ndarray:
    """Trace distance between pure states: sqrt(1 - |<psi|phi>|^2).

    Either may be a stack of states along the last axis, and the stacks
    broadcast: `phi` of shape (m, d) gives the m distances from `psi` to each
    of them, and `psi` of shape (b, 1, d) against it the (b, m) table.
    """
    psi, phi = np.asarray(psi), np.asarray(phi)
    if psi.ndim == 0 or phi.shape[-1:] != psi.shape[-1:]:
        raise ValueError("dimension mismatch in trace_distance_pure")
    # product and sum rather than a matmul, and a product rather than ** 2
    # (a scalar power goes through pow): a single state and a stack then
    # round alike, so a pair's distance does not depend on how it was batched
    overlap = np.abs((phi * psi.conj()).sum(axis=-1))
    return np.sqrt(np.maximum(0.0, 1.0 - overlap * overlap))


def total_variation(d1: np.ndarray, d2: np.ndarray) -> float | np.ndarray:
    """(1/2) * sum |d1_k - d2_k| over a shared outcome space.

    Either may be a stack of distributions with the outcomes along the first
    axis, and the other axes broadcast: `d1` of shape (k, b, 1) against `d2`
    of shape (k, 1, m) gives the (b, m) table. Outcome-first, numpy adds one
    whole outcome slab at a time, left to right. For fewer than 8 outcomes
    that rounds exactly as a sum of each distribution's own outcomes does,
    and over many short distributions it is several times faster.
    """
    d1, d2 = np.asarray(d1, dtype=float), np.asarray(d2, dtype=float)
    if min(d1.ndim, d2.ndim) == 0 or d2.shape[0] != d1.shape[0]:
        raise ValueError("outcome spaces differ in total_variation")
    return 0.5 * np.abs(d1 - d2).sum(axis=0)
