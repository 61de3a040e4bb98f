import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfairdeploy.circuits import Circuit, concat
from qfairdeploy.device import simulate_noisy
from qfairdeploy.quantum import (
    circuit_unitary,
    evolve,
    measure,
    simulate_state,
    total_variation,
    trace_distance_pure,
    zero_state,
)
from qfairdeploy.seeding import spawn
from qfairdeploy.toys import toy_device

from conftest import circuits, gate, random_circuit, random_state
from density_oracle import depolarize, measure_density, pure_density, trace_distance, validate_density
from simulation_oracle import evolve_by_tensordot


def apply_gate(state, g):
    """One gate acting on a statevector, through the full circuit unitary."""
    return circuit_unitary(Circuit(int(math.log2(state.shape[0])), (g,))) @ state


class TestApplyGate:
    def test_x_flips_zero(self):
        out = apply_gate(zero_state(1), gate("x", 0))
        np.testing.assert_allclose(out, [0, 1], atol=1e-12)

    def test_cnot_on_10(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0  # |10>: qubit 0 is the most significant bit
        out = apply_gate(state, gate("cnot", 0, 1))
        expected = np.zeros(4)
        expected[3] = 1.0  # |11>
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_u3_zero_angles_is_identity(self, rng):
        state = random_state(rng, 2)
        out = apply_gate(state, gate("u3", 1, params=(0.0, 0.0, 0.0)))
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_norm_preserved(self, rng):
        state = random_state(rng, 3)
        out = apply_gate(state, gate("u3", 2, params=tuple(rng.uniform(0, 6, 3))))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(1, (gate("x", 1),))


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        np.testing.assert_allclose(circuit_unitary(Circuit(2)), np.eye(4), atol=1e-12)

    def test_double_x_is_identity(self):
        c = Circuit(1, (gate("x", 0), gate("x", 0)))
        np.testing.assert_allclose(circuit_unitary(c), np.eye(2), atol=1e-12)

    def test_cnot_matrix(self):
        u = circuit_unitary(Circuit(2, (gate("cnot", 0, 1),)))
        expected = np.eye(4)[:, [0, 1, 3, 2]]  # swaps |10> and |11>
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_unitarity_on_random_circuits(self, rng):
        for _ in range(10):
            u = circuit_unitary(random_circuit(rng, 3, 20))
            assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-9

    def test_composition_order(self, rng):
        c1, c2 = random_circuit(rng, 2, 8), random_circuit(rng, 2, 8)
        lhs = circuit_unitary(concat(c1, c2))
        rhs = circuit_unitary(c2) @ circuit_unitary(c1)  # leftmost acts first
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            circuit_unitary(Circuit(13))

    def test_matches_statevector_path(self, rng):
        prep, c = random_circuit(rng, 3, 10), random_circuit(rng, 3, 15)
        psi = simulate_state(prep)
        np.testing.assert_allclose(circuit_unitary(c) @ psi, simulate_state(concat(prep, c)), atol=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuits(max_qubits=6, max_gates=24), st.sampled_from(("state", "real-batch", "unitary")),
       st.integers(0, 2**31))
def test_evolve_equals_tensordot_bit_for_bit(circuit, kind, seed):
    # one matrix product per gate on the same operands tensordot builds
    rng = np.random.default_rng(seed)
    dim = 2**circuit.num_qubits
    states = {"state": lambda: random_state(rng, circuit.num_qubits),
              "real-batch": lambda: rng.uniform(-1.0, 1.0, size=(dim, 5)),
              "unitary": lambda: np.eye(dim, dtype=complex)}[kind]()
    out, ref = evolve(circuit, states), evolve_by_tensordot(circuit, states)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


class TestDepolarize:
    def test_p_zero_is_identity(self, rng):
        rho = pure_density(random_state(rng, 2))
        np.testing.assert_allclose(depolarize(rho, 0.0), rho, atol=1e-12)

    def test_p_one_is_maximally_mixed(self, rng):
        rho = pure_density(random_state(rng, 2))
        np.testing.assert_allclose(depolarize(rho, 1.0), np.eye(4) / 4, atol=1e-12)

    def test_direct_formula_single_qubit(self):
        rho = pure_density(zero_state(1))
        np.testing.assert_allclose(depolarize(rho, 0.1), np.diag([0.95, 0.05]), atol=1e-12)

    def test_rejects_bad_rate(self):
        rho = pure_density(zero_state(1))
        with pytest.raises(ValueError):
            depolarize(rho, 1.5)

    def test_channel_sanity(self, rng):
        for _ in range(10):
            rho = pure_density(random_state(rng, 2))
            out = depolarize(rho, float(rng.uniform(0, 1)))
            np.testing.assert_allclose(out, out.conj().T, atol=1e-14)  # exactly Hermitian
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out).min() >= -1e-9
            validate_density(out)


def _eig2x2_symmetric(a, b, d):
    """Closed-form eigenvalues of [[a, b], [b, d]]; the independent oracle."""
    mid, half = (a + d) / 2.0, (a - d) / 2.0
    r = math.sqrt(half * half + b * b)
    return mid - r, mid + r


class TestTraceDistance:
    def test_self_distance_zero(self, rng):
        rho = pure_density(random_state(rng, 2))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        zero, one = pure_density(np.array([1, 0])), pure_density(np.array([0, 1]))
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus_frozen_oracle(self):
        # difference of |0><0| and |+><+| is [[0.5, -0.5], [-0.5, -0.5]]; the
        # closed-form 2x2 eigenvalues give half the absolute sum = 1/sqrt(2)
        lo, hi = _eig2x2_symmetric(0.5, -0.5, -0.5)
        oracle = 0.5 * (abs(lo) + abs(hi))
        assert oracle == pytest.approx(0.7071067811865476, abs=1e-12)
        plus = pure_density(np.array([1, 1]) / math.sqrt(2))
        zero = pure_density(np.array([1.0, 0.0]))
        assert trace_distance(zero, plus) == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2), np.eye(4))

    def test_pure_state_oracle_on_random_pairs(self, rng):
        for _ in range(20):
            a, b = random_state(rng, 2), random_state(rng, 2)
            dm = trace_distance(pure_density(a), pure_density(b))
            assert dm == pytest.approx(trace_distance_pure(a, b), abs=1e-9)

    def test_symmetry(self, rng):
        a, b = pure_density(random_state(rng, 2)), pure_density(random_state(rng, 2))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)


class TestMeasure:
    def test_zero_state_exact(self):
        np.testing.assert_allclose(measure(zero_state(1), (0,)), [1.0, 0.0], atol=1e-12)

    def test_plus_state_exact(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        np.testing.assert_allclose(measure(plus, (0,)), [0.5, 0.5], atol=1e-12)

    def test_diagonal_density_matrix(self):
        np.testing.assert_allclose(measure_density(np.diag([0.95, 0.05]), (0,)), [0.95, 0.05], atol=1e-12)
        with pytest.raises(ValueError):
            measure(np.diag([0.95, 0.05]), (0,))  # statevectors only

    def test_marginal_subset_and_order(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0  # |10>
        np.testing.assert_allclose(measure(state, (0,)), [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(measure(state, (1,)), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(measure(state, (1, 0)), [0, 1, 0, 0], atol=1e-12)  # q1 is MSB here

    def test_invalid_qubits(self):
        with pytest.raises(ValueError):
            measure(zero_state(2), (0, 0))
        with pytest.raises(ValueError):
            measure(zero_state(2), (5,))

    # shots are sampled in one place, simulate_noisy; on a zero-error device
    # its exact law is the Born-rule marginal that measure returns

    def test_sampling_consistency(self, rng):
        # 1e5 seeded shots stay within 0.02 total variation of the exact law
        circuit = random_circuit(rng, 3, 12)
        exact = measure(simulate_state(circuit), (0, 1, 2))
        empirical = simulate_noisy(circuit, toy_device(3, edge_error=0.0),
                                   shots=100_000, rng=spawn(9, "shots"))
        assert total_variation(empirical, exact) < 0.02

    def test_shots_need_rng(self):
        with pytest.raises(ValueError):
            simulate_noisy(Circuit(1), toy_device(1, edge_error=0.0), shots=10)


class TestTotalVariation:
    def test_identical(self):
        assert total_variation(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0

    def test_disjoint(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_direct_formula(self):
        d1, d2 = np.array([0.5, 0.5]), np.array([0.95, 0.05])
        assert total_variation(d1, d2) == pytest.approx(0.45, abs=1e-12)

    def test_mismatched_spaces(self):
        with pytest.raises(ValueError):
            total_variation(np.array([1.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_outcome_first_stacks_equal_each_pair_bitwise(self, rng, k):
        a, b = rng.dirichlet(np.ones(k), size=3), rng.dirichlet(np.ones(k), size=5)
        table = total_variation(a.T[:, :, None], b.T[:, None, :])
        assert table.shape == (3, 5)
        assert np.array_equal(table, [[total_variation(x, y) for y in b] for x in a])
        assert np.array_equal(table, 0.5 * np.abs(a[:, None] - b[None]).sum(axis=-1))
