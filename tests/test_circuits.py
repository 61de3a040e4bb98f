import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfairdeploy.circuits import (
    Circuit,
    Gate,
    GateKind,
    asap,
    circuit_from_text,
    circuit_to_text,
    cnot_count,
    concat,
    depth,
    inverse,
)
from qfairdeploy.quantum import circuit_unitary

from conftest import circuits, gate, random_circuit


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (0, 0))
    with pytest.raises(ValueError):
        Gate(GateKind.U3, (0,), (1.0,))  # wrong arity
    with pytest.raises(ValueError):
        Gate(GateKind.X, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.RY, (0,), (float("nan"),))


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(ValueError):
        Circuit(2, (Gate(GateKind.X, (2,)),))


class TestCnotCount:
    def test_empty(self):
        assert cnot_count(Circuit(2)) == 0

    def test_mixed(self):
        c = Circuit(3, (gate("ry", 0, params=(math.pi / 2,)), gate("cnot", 0, 1),
                        gate("cnot", 1, 2)))
        assert cnot_count(c) == 2

    def test_only_single_qubit(self):
        c = Circuit(2, (gate("ry", 0, params=(math.pi / 2,)), gate("x", 1),
                        gate("u3", 0, params=(1, 2, 3))))
        assert cnot_count(c) == 0

    def test_counts_two_qubit_rotations(self):
        c = Circuit(2, (gate("rzz", 0, 1, params=(0.3,)),))
        assert cnot_count(c) == 1


class TestDepth:
    def test_empty(self):
        assert depth(Circuit(2)) == 0

    def test_serial_chain(self):
        c = Circuit(1, (gate("x", 0), gate("x", 0), gate("x", 0)))
        assert depth(c) == 3

    def test_parallel_layer(self):
        c = Circuit(2, (gate("x", 0), gate("x", 1)))
        assert depth(c) == 1

    def test_removing_a_gate_never_increases_depth(self, rng):
        for trial in range(20):
            c = random_circuit(rng, 4, 15)
            d = depth(c)
            drop = int(rng.integers(0, len(c.gates)))
            smaller = Circuit(4, c.gates[:drop] + c.gates[drop + 1:])
            assert depth(smaller) <= d


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuits(max_gates=30))
def test_asap_places_each_gate_just_past_its_qubits(c):
    steps = [g.qubits for g in c.gates]
    found = asap(steps, c.num_qubits)
    for i, qubits in enumerate(steps):
        earlier = [found[j] for j in range(i) if set(steps[j]) & set(qubits)]
        assert found[i] == (max(earlier) + 1 if earlier else 0)
        # no two gates in one layer share a qubit
        assert not any(found[j] == found[i] for j in range(i) if set(steps[j]) & set(qubits))
    assert depth(c) == (max(found) + 1 if found else 0)


def test_concat_and_append():
    a = Circuit(2, (gate("x", 0),))
    b = Circuit(2, (gate("x", 1),))
    assert concat(a, b).gates == a.gates + b.gates
    with pytest.raises(ValueError):
        concat(a, Circuit(3))


def test_inverse_cancels_circuit(rng):
    for trial in range(10):
        c = random_circuit(rng, 3, 12)
        u = circuit_unitary(concat(c, inverse(c)))
        np.testing.assert_allclose(u, np.eye(8), atol=1e-9)


class TestSerialization:
    def test_round_trip_bit_exact(self, rng):
        c = random_circuit(rng, 4, 25)
        back = circuit_from_text(circuit_to_text(c))
        assert back.num_qubits == c.num_qubits
        assert back.gates == c.gates  # includes exact float equality

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(circuits(max_qubits=12, max_gates=24,
                    angles=st.floats(allow_nan=False, allow_infinity=False)))
    def test_round_trip_random_circuits(self, c):
        assert circuit_from_text(circuit_to_text(c)) == c  # any finite angle, bit for bit

    def test_seventeen_digit_angles_survive(self):
        angle = math.pi / 7.0
        c = Circuit(1, (gate("ry", 0, params=(angle,)),))
        back = circuit_from_text(circuit_to_text(c))
        assert back.gates[0].params[0] == angle

    def test_header_required(self):
        with pytest.raises(ValueError):
            circuit_from_text("cnot 0,1\n")

    def test_format_shape(self):
        text = circuit_to_text(Circuit(2, (gate("cnot", 0, 1), gate("u3", 0, params=(1, 2, 3)))))
        lines = text.strip().splitlines()
        assert lines[0] == "qubits 2"
        assert lines[1] == "cnot 0,1"
        assert lines[2].startswith("u3 0 1,")
