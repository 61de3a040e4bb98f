import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfairdeploy.circuits import Circuit
from qfairdeploy.partition import PartitionError, partition, recombine, space_size
from qfairdeploy.quantum import _apply_matrix, circuit_unitary
from qfairdeploy.synthesis import hs_distance

from conftest import circuits, gate, random_circuit


class TestPartition:
    def test_two_qubit_circuit_one_block(self, rng):
        c = random_circuit(rng, 2, 10)
        parts = partition(c, 2)
        assert len(parts) == 1
        assert parts[0].qubits == (0, 1)

    def test_greedy_scan_hand_trace(self):
        c = Circuit(4, (gate("cnot", 0, 1), gate("cnot", 2, 3), gate("cnot", 0, 1)))
        parts = partition(c, 2)
        assert [p.qubits for p in parts] == [(0, 1), (2, 3), (0, 1)]
        assert [len(p.sub_circuit.gates) for p in parts] == [1, 1, 1]

    def test_widening_block_hand_trace(self):
        c = Circuit(3, (gate("cnot", 0, 1), gate("cnot", 1, 2)))
        parts = partition(c, 3)
        assert len(parts) == 1
        assert parts[0].qubits == (0, 1, 2)

    def test_s_blk_too_small(self):
        with pytest.raises(PartitionError):
            partition(Circuit(2), 1)

    def test_target_unitary_matches_sub_circuit(self, rng):
        c = random_circuit(rng, 4, 20)
        for p in partition(c, 2):
            np.testing.assert_allclose(p.target_unitary, circuit_unitary(p.sub_circuit), atol=1e-12)

    def test_completeness_gate_for_gate(self, rng):
        for _ in range(10):
            c = random_circuit(rng, 5, 25)
            parts = partition(c, 3)
            restored = recombine(parts, [p.sub_circuit for p in parts], c.num_qubits)
            assert restored.gates == c.gates

    def test_unitary_consistency(self, rng):
        c = random_circuit(rng, 3, 15)
        parts = partition(c, 2)
        restored = recombine(parts, [p.sub_circuit for p in parts], 3)
        assert hs_distance(circuit_unitary(restored), circuit_unitary(c)) < 1e-9

    def test_local_indices_ascend_with_globals(self):
        c = Circuit(4, (gate("cnot", 3, 1),))
        (p,) = partition(c, 2)
        assert p.qubits == (1, 3)
        # global 3 -> local 1, global 1 -> local 0
        assert p.sub_circuit.gates[0].qubits == (1, 0)


class TestRecombine:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(circuits(max_qubits=6, max_gates=20), st.sampled_from((2, 3)))
    def test_own_partitions_restore_gates_and_unitary(self, c, s_blk):
        parts = partition(c, s_blk)
        assert recombine(parts, [p.sub_circuit for p in parts], c.num_qubits).gates == c.gates
        # the partitions' target unitaries, each acting on its own qubits in
        # order, multiply out to the circuit's unitary
        n, dim = c.num_qubits, 2**c.num_qubits
        u = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
        for p in parts:
            u = _apply_matrix(u, p.target_unitary, p.qubits, n)
        np.testing.assert_allclose(u.reshape(dim, dim), circuit_unitary(c), rtol=0, atol=1e-10)

    def test_empty_selections(self, rng):
        c = random_circuit(rng, 3, 12)
        parts = partition(c, 2)
        empty = [Circuit(len(p.qubits)) for p in parts]
        assert len(recombine(parts, empty, 3).gates) == 0

    def test_concatenation_order(self):
        c = Circuit(4, (gate("cnot", 0, 1), gate("cnot", 2, 3)))
        parts = partition(c, 2)
        sels = [Circuit(2, (gate("ry", 0, params=(math.pi / 2,)),)), Circuit(2, (gate("x", 1),))]
        out = recombine(parts, sels, 4)
        assert [(g.kind.value, g.qubits) for g in out.gates] == [("ry", (0,)), ("x", (3,))]

    def test_count_mismatch(self, rng):
        parts = partition(random_circuit(rng, 3, 9), 2)
        with pytest.raises(ValueError):
            recombine(parts, [Circuit(2)], 3)

    def test_width_mismatch(self):
        c = Circuit(2, (gate("cnot", 0, 1),))
        parts = partition(c, 2)
        with pytest.raises(ValueError):
            recombine(parts, [Circuit(3)], 2)

    def test_cnot_count_additivity(self, rng):
        from qfairdeploy.circuits import cnot_count
        c = random_circuit(rng, 4, 20)
        parts = partition(c, 2)
        sels = [p.sub_circuit for p in parts]
        assert cnot_count(recombine(parts, sels, 4)) == sum(cnot_count(s) for s in sels)


class TestSpaceSize:
    def test_table_row(self):
        assert space_size([list(range(9))] * 8) == 43_046_721

    def test_single(self):
        assert space_size([[0]]) == 1

    def test_product(self):
        assert space_size([[0] * 2, [0] * 3, [0] * 4]) == 24

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            space_size([[1, 2], []])
