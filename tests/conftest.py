import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qfairdeploy.circuits import GATE_ARITY, Circuit, Gate, GateKind


def gate(kind: GateKind | str, *qubits: int, params: tuple[float, ...] = ()) -> Gate:
    """Gate constructor taking the kind by name, e.g. gate("cnot", 0, 1)."""
    if isinstance(kind, str):
        kind = GateKind(kind.lower())
    return Gate(kind, tuple(qubits), tuple(float(p) for p in params))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR with phase fixing."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int) -> Circuit:
    """Random mix of 1-qubit rotations and CNOTs."""
    gates = []
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.uniform() < 0.4:
            q1, q2 = rng.choice(num_qubits, size=2, replace=False)
            gates.append(Gate(GateKind.CNOT, (int(q1), int(q2))))
        else:
            kind = rng.choice([GateKind.RY, GateKind.U3, GateKind.X])
            q = int(rng.integers(0, num_qubits))
            nparams = GATE_ARITY[kind][1]
            params = tuple(rng.uniform(0, 2 * np.pi, size=nparams))
            gates.append(Gate(kind, (q,), params))
    return Circuit(num_qubits, tuple(gates))


@st.composite
def circuits(draw, min_qubits: int = 1, max_qubits: int = 5, max_gates: int = 16,
             angles=st.floats(-2 * math.pi, 2 * math.pi)) -> Circuit:
    """Hypothesis strategy: a circuit of every gate kind on
    min_qubits..max_qubits qubits, qubits in either order."""
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = sorted((k for k, (nq, _) in GATE_ARITY.items() if nq <= n), key=lambda k: k.value)
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        nq, npar = GATE_ARITY[kind]
        qubits = tuple(draw(st.permutations(range(n)))[:nq])
        gates.append(Gate(kind, qubits, tuple(draw(angles) for _ in range(npar))))
    return Circuit(n, tuple(gates))


def random_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
