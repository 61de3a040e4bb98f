import itertools
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfairdeploy.circuits import Circuit, Gate, GateKind, cnot_count
from qfairdeploy.device import (
    BUNDLED_DEVICES,
    DeviceModel,
    UnroutedGateError,
    accumulate_p,
    bundled_device,
    depolarized,
    estimate_p,
    estimation_circuit,
    load_device,
    mitigate_readout,
    parse_device,
    randomized_compile,
    simulate_noisy,
)
from qfairdeploy.quantum import circuit_unitary, simulate_state
from qfairdeploy.seeding import spawn
from qfairdeploy.synthesis import hs_distance
from qfairdeploy.toys import toy_device, toy_model

from conftest import gate, random_circuit
from density_oracle import layer_rates, simulate_noisy_density
from simulation_oracle import (
    estimate_p_by_mirror_circuits,
    estimate_p_by_simulation,
    randomized_compile_by_gate,
)


class TestEstimationCircuit:
    def test_only_single_qubit_gates(self):
        c = Circuit(2, (gate("u3", 0, params=(1, 2, 3)), gate("ry", 1, params=(math.pi / 2,))))
        assert len(estimation_circuit(c).gates) == 0

    def test_only_cnots_unchanged(self):
        c = Circuit(3, (gate("cnot", 0, 1), gate("cnot", 1, 2)))
        assert estimation_circuit(c).gates == c.gates

    def test_filters_in_order(self):
        c = Circuit(3, (gate("u3", 0, params=(1, 2, 3)), gate("cnot", 0, 1),
                        gate("u3", 1, params=(4, 5, 6)), gate("cnot", 1, 2)))
        est = estimation_circuit(c)
        assert [(g.kind.value, g.qubits) for g in est.gates] == [("cnot", (0, 1)), ("cnot", (1, 2))]


class TestRandomizedCompile:
    def test_preserves_unitary_up_to_phase(self, rng):
        c = random_circuit(rng, 3, 12)
        u = circuit_unitary(c)
        for s in range(25):
            twirled = randomized_compile(c, spawn(s, "twirl-test"))
            assert hs_distance(u, circuit_unitary(twirled)) < 1e-9

    def test_no_cnots_unchanged(self):
        c = Circuit(2, (gate("ry", 0, params=(math.pi / 2,)), gate("ry", 1, params=(0.4,))))
        assert randomized_compile(c, spawn(0, "t")).gates == c.gates

    def test_single_cnot_counts(self):
        c = Circuit(2, (gate("cnot", 0, 1),))
        for s in range(20):
            out = randomized_compile(c, spawn(s, "t"))
            assert cnot_count(out) == 1
            added = len(out.gates) - 1
            assert 0 <= added <= 4


class TestLayerErrorRate:
    """One layer's rate, read from `accumulate_p`. Edges that share a qubit
    never sit in one ASAP layer, so their crosstalk is checked on
    `DeviceModel.crosstalk_rate` itself."""

    def setup_method(self):
        self.dev = DeviceModel(
            name="t", num_qubits=4,
            cnot_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01},
            crosstalk_default=0.005,
        )

    def test_single_cnot(self):
        rates = accumulate_p(Circuit(4, (gate("cnot", 0, 1),)), self.dev).layer_rates
        assert rates == (pytest.approx(0.01),)

    def test_adjacent_pair_adds_crosstalk(self):
        assert self.dev.crosstalk_rate((0, 1), (2, 1)) == 0.005
        # the pair cannot share a layer, so the default never reaches a rate
        c = Circuit(4, (gate("cnot", 0, 1), gate("cnot", 1, 2)))
        assert accumulate_p(c, self.dev).layer_rates == (0.01, 0.01)

    def test_non_adjacent_pair_no_crosstalk(self):
        c = Circuit(4, (gate("cnot", 0, 1), gate("cnot", 2, 3)))
        assert accumulate_p(c, self.dev).layer_rates == (pytest.approx(0.02),)

    def test_explicit_gamma_overrides_default(self):
        dev = DeviceModel(
            name="t", num_qubits=4,
            cnot_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01},
            crosstalk={frozenset(((0, 1), (1, 2))): 0.1, frozenset(((0, 1), (2, 3))): 0.1},
            crosstalk_default=0.005,
        )
        assert dev.crosstalk_rate((1, 2), (0, 1)) == 0.1
        assert dev.crosstalk_rate((1, 2), (2, 3)) == 0.005
        c = Circuit(4, (gate("cnot", 0, 1), gate("cnot", 3, 2)))
        assert accumulate_p(c, dev).layer_rates == (pytest.approx(0.12),)

    def test_unrouted_gate(self):
        with pytest.raises(UnroutedGateError):
            accumulate_p(Circuit(4, (gate("cnot", 0, 3),)), self.dev)


class TestAccumulateP:
    def test_empty_circuit(self):
        assert accumulate_p(Circuit(2), toy_device(2)).p_total == 0.0

    def test_single_layer(self):
        dev = toy_device(2, edge_error=0.1)
        trace = accumulate_p(Circuit(2, (gate("cnot", 0, 1),)), dev)
        assert trace.layer_rates == (pytest.approx(0.1),)
        assert trace.p_total == pytest.approx(0.1)

    def test_two_layer_composition(self):
        dev = DeviceModel(name="t", num_qubits=2, cnot_error={(0, 1): 0.1})
        c = Circuit(2, (gate("cnot", 0, 1), gate("cnot", 0, 1)))
        trace = accumulate_p(c, dev)
        assert trace.p_total == pytest.approx(1.0 - 0.9 * 0.9)

    def test_composition_rule_mixed_rates(self):
        dev = DeviceModel(name="t", num_qubits=3, cnot_error={(0, 1): 0.1, (1, 2): 0.2})
        c = Circuit(3, (gate("cnot", 0, 1), gate("cnot", 1, 2)))
        assert accumulate_p(c, dev).p_total == pytest.approx(0.28)

    def test_monotone_when_appending_layers(self, rng):
        dev = toy_device(3, edge_error=0.02)
        c = Circuit(3)
        prev = 0.0
        for _ in range(6):
            q1, q2 = rng.choice(3, size=2, replace=False)
            c = Circuit(3, c.gates + (gate("cnot", int(q1), int(q2)),))
            p = accumulate_p(c, dev).p_total
            assert p >= prev - 1e-12
            prev = p


class TestSimulateNoisy:
    def test_zero_error_matches_noiseless(self, rng):
        dev = toy_device(3, edge_error=0.0)
        c = random_circuit(rng, 3, 10)
        noisy = simulate_noisy(c, dev)
        exact = np.abs(simulate_state(c)) ** 2
        np.testing.assert_allclose(noisy, exact, atol=1e-9)

    def test_readout_confusion_only(self):
        dev = DeviceModel(
            name="t", num_qubits=1, cnot_error={},
            readout_confusion={0: np.array([[0.98, 0.02], [0.03, 0.97]])},
        )
        dist = simulate_noisy(Circuit(1), dev)
        np.testing.assert_allclose(dist, [0.98, 0.02], atol=1e-12)

    def test_single_cnot_depolarized_by_hand(self):
        # 0.9 * |00><00| + 0.1 * I/4 read on the diagonal
        dev = DeviceModel(name="t", num_qubits=2, cnot_error={(0, 1): 0.1})
        dist = simulate_noisy(Circuit(2, (gate("cnot", 0, 1),)), dev)
        np.testing.assert_allclose(dist, [0.925, 0.025, 0.025, 0.025], atol=1e-12)

    def test_uniform_depolarizing_knob(self):
        dev = toy_device(2, edge_error=0.0, uniform_depolarizing=1.0)
        dist = simulate_noisy(Circuit(2), dev)
        np.testing.assert_allclose(dist, [0.25] * 4, atol=1e-12)

    def test_shot_mode_close_to_exact(self):
        dev = toy_device(2, edge_error=0.05)
        c = Circuit(2, (gate("ry", 0, params=(math.pi / 2,)), gate("cnot", 0, 1)))
        exact = simulate_noisy(c, dev)
        freq = simulate_noisy(c, dev, shots=50_000, rng=spawn(3, "s"))
        assert np.abs(freq - exact).max() < 0.02

    def test_zero_shots_rejected(self):
        # sampling zero shots used to divide by zero and return NaN
        c = Circuit(2, (gate("ry", 0, params=(math.pi / 2,)), gate("cnot", 0, 1)))
        with pytest.raises(ValueError, match="shots"):
            simulate_noisy(c, toy_device(2), shots=0, rng=spawn(3, "s"))

    def test_unrouted_circuit_raises(self):
        dev = DeviceModel(name="t", num_qubits=3, cnot_error={(0, 1): 0.01})
        with pytest.raises(UnroutedGateError):
            simulate_noisy(Circuit(3, (gate("cnot", 0, 2),)), dev)


_ONE_QUBIT_KINDS = {GateKind.X: 0, GateKind.RY: 1, GateKind.U3: 3}
_rate = st.floats(0.0, 0.1)
_angle = st.floats(0.0, 2 * np.pi)


@st.composite
def _noisy_case(draw, max_qubits=5):
    """A random circuit on 1..max_qubits qubits and a fully coupled device
    with random edge, crosstalk, uniform and readout rates."""
    n = draw(st.integers(1, max_qubits))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        if n >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            if draw(st.booleans()):
                gates.append(Gate(GateKind.RZZ, (a, b), (draw(_angle),)))
            else:
                gates.append(Gate(GateKind.CNOT, (a, b)))
        else:
            kind = draw(st.sampled_from(sorted(_ONE_QUBIT_KINDS, key=lambda k: k.value)))
            params = tuple(draw(_angle) for _ in range(_ONE_QUBIT_KINDS[kind]))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), params))
    edges = list(itertools.combinations(range(n), 2))
    confusion = {}
    for q in range(n):
        if draw(st.booleans()):
            p01, p10 = draw(_rate), draw(_rate)
            confusion[q] = np.array([[1 - p01, p01], [p10, 1 - p10]])
    device = DeviceModel(
        name="h", num_qubits=n,
        cnot_error={e: draw(_rate) for e in edges},
        crosstalk={frozenset(pair): draw(_rate) for pair in itertools.combinations(edges, 2)
                   if draw(st.booleans())},
        crosstalk_default=draw(st.floats(0.0, 0.05)),
        readout_confusion=confusion,
        uniform_depolarizing=draw(st.floats(0.0, 1.0)),
    )
    return Circuit(n, tuple(gates)), device


class TestClosedFormOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_noisy_case())
    def test_matches_density_oracle(self, case):
        circuit, device = case
        np.testing.assert_allclose(simulate_noisy(circuit, device),
                                   simulate_noisy_density(circuit, device), rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_noisy_case(max_qubits=8))
    def test_readout_one_qubit_at_a_time_matches_the_kronecker_kernel(self, case):
        # the oracle reads out through the dense 2^n x 2^n Kronecker product
        circuit, device = case
        np.testing.assert_allclose(simulate_noisy(circuit, device),
                                   simulate_noisy_density(circuit, device), rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_noisy_case())
    def test_is_the_depolarized_born_rule(self, case):
        # without readout confusion, simulate_noisy is the one rule applied to |psi|^2
        circuit, device = case
        device = replace(device, readout_confusion={})
        probs = np.abs(simulate_state(circuit)) ** 2
        assert np.array_equal(simulate_noisy(circuit, device), depolarized(probs / probs.sum(), circuit, device))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_noisy_case(), st.integers(0, 2**31))
def test_randomized_compile_keeps_random_unitaries(case, seed):
    circuit = case[0]
    twirled = randomized_compile(circuit, spawn(seed, "twirl-property"))
    assert hs_distance(circuit_unitary(circuit), circuit_unitary(twirled)) < 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_noisy_case(), st.integers(0, 2**31))
def test_randomized_compile_draws_like_one_cnot_at_a_time(case, seed):
    circuit = case[0]
    assert (randomized_compile(circuit, spawn(seed, "twirl"))
            == randomized_compile_by_gate(circuit, spawn(seed, "twirl")))


@st.composite
def _mirror_case(draw):
    """A random CNOT/RZZ circuit with 1-qubit gates between on 2..6 qubits,
    a fully coupled device with random edge and crosstalk rates, and a
    uniform rate that is zero half the time."""
    n = draw(st.integers(2, 6))
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        a, b = draw(st.permutations(range(n)))[:2]
        kind = draw(st.sampled_from(("cnot", "rzz", "ry")))
        if kind == "cnot":
            gates.append(Gate(GateKind.CNOT, (a, b)))
        elif kind == "rzz":
            gates.append(Gate(GateKind.RZZ, (a, b), (draw(_angle),)))
        else:
            gates.append(Gate(GateKind.RY, (a,), (draw(_angle),)))
    edges = list(itertools.combinations(range(n), 2))
    device = DeviceModel(
        name="m", num_qubits=n,
        cnot_error={e: draw(_rate) for e in edges},
        crosstalk={frozenset(pair): draw(_rate) for pair in itertools.combinations(edges, 2)
                   if draw(st.booleans())},
        crosstalk_default=draw(st.floats(0.0, 0.05)),
        uniform_depolarizing=draw(st.sampled_from((0.0, 0.25))) if draw(st.booleans())
        else draw(st.floats(0.0, 1.0)),
    )
    return Circuit(n, tuple(gates)), device


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mirror_case())
def test_layer_rates_equal_density_oracle_rule(case):
    circuit, device = case
    assert accumulate_p(circuit, device).layer_rates == layer_rates(circuit, device)


class TestMirrorLayering:
    """Exact-mode estimate_p layers each twirled mirror from qubit tuples;
    the oracle builds the mirror as Circuits and layers it with accumulate_p."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mirror_case(), st.integers(1, 16), st.integers(0, 2**31))
    def test_equals_mirror_circuit_oracle(self, case, r_twirls, seed):
        circuit, device = case
        assert (estimate_p(circuit, device, r_twirls=r_twirls, shots=None, seed=seed)
                == estimate_p_by_mirror_circuits(circuit, device, r_twirls, seed))

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("r_twirls", [1, 4, 16])
    def test_equals_oracle_on_ring14(self, seed, r_twirls):
        device = bundled_device("ring14")
        for arch in ("c14", "date22"):
            circuit = toy_model(8, layers=2, seed=seed, arch=arch).circuit
            assert (estimate_p(circuit, device, r_twirls=r_twirls, shots=None, seed=seed)
                    == estimate_p_by_mirror_circuits(circuit, device, r_twirls, seed))

    @pytest.mark.parametrize("kind", ["cnot", "rzz"])
    def test_unrouted_gate_raises_in_both(self, kind):
        dev = DeviceModel(name="line", num_qubits=3, cnot_error={(0, 1): 0.01, (1, 2): 0.01})
        params = (0.3,) if kind == "rzz" else ()
        c = Circuit(3, (gate("cnot", 0, 1), gate(kind, 2, 0, params=params)))
        with pytest.raises(UnroutedGateError):
            estimate_p(c, dev, r_twirls=2, shots=None)
        with pytest.raises(UnroutedGateError):
            estimate_p_by_mirror_circuits(c, dev, 2, 0)


class TestMitigateReadout:
    def test_identity_confusion_unchanged(self):
        dev = toy_device(1)
        dist = np.array([0.7, 0.3])
        np.testing.assert_allclose(mitigate_readout(dist, dev), dist, atol=1e-12)

    def test_hand_inverse(self):
        dev = DeviceModel(
            name="t", num_qubits=1, cnot_error={},
            readout_confusion={0: np.array([[0.98, 0.02], [0.03, 0.97]])},
        )
        out = mitigate_readout(np.array([0.98, 0.02]), dev)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-9)

    def test_symmetric_confusion_fixes_uniform(self):
        dev = DeviceModel(
            name="t", num_qubits=1, cnot_error={},
            readout_confusion={0: np.array([[0.9, 0.1], [0.1, 0.9]])},
        )
        out = mitigate_readout(np.array([0.5, 0.5]), dev)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_round_trip_with_simulation(self):
        dev = DeviceModel(
            name="t", num_qubits=2, cnot_error={(0, 1): 0.0},
            readout_confusion={0: np.array([[0.95, 0.05], [0.06, 0.94]]),
                               1: np.array([[0.97, 0.03], [0.02, 0.98]])},
        )
        c = Circuit(2, (gate("ry", 0, params=(math.pi / 2,)), gate("cnot", 0, 1)))
        raw = simulate_noisy(c, dev)
        fixed = mitigate_readout(raw, dev)
        ideal = np.abs(simulate_state(c)) ** 2
        np.testing.assert_allclose(fixed, ideal, atol=1e-9)

    @pytest.mark.parametrize("length", [0, 3, 6])
    def test_length_not_a_power_of_two(self, length):
        with pytest.raises(ValueError, match="power of 2"):
            mitigate_readout(np.full(length, 1.0), toy_device(2))

    def test_singular_confusion(self):
        # mitigation could not invert it, so the device is refused when built
        with pytest.raises(ValueError, match="singular readout confusion"):
            DeviceModel(
                name="t", num_qubits=1, cnot_error={},
                readout_confusion={0: np.array([[0.5, 0.5], [0.5, 0.5]])},
            )

    def test_eight_qubits_on_ring14(self):
        # the 256 x 256 kernel's determinant is ~1e-21, yet each 2 x 2 factor is well conditioned
        dev = bundled_device("ring14")
        c = toy_model(8).circuit
        survive = (1.0 - accumulate_p(c, dev).p_total) * (1.0 - dev.uniform_depolarizing)
        closed = survive * np.abs(simulate_state(c)) ** 2 + (1.0 - survive) / 256
        fixed = mitigate_readout(simulate_noisy(c, dev), dev)
        np.testing.assert_allclose(fixed, closed, rtol=0, atol=1e-12)
        assert 0.0 <= estimate_p(c, dev, r_twirls=4, shots=None) <= 1.0

    def test_twelve_qubits_on_ring14(self):
        # a dense kernel would be 4096 x 4096; the factors are undone one axis at a time
        dev = bundled_device("ring14")
        gates = [gate("ry", q, params=(0.3 + 0.4 * q,)) for q in range(12)]
        c = Circuit(12, tuple(gates + [gate("cnot", q, q + 1) for q in range(11)]))
        fixed = mitigate_readout(simulate_noisy(c, dev), dev)
        np.testing.assert_allclose(fixed, simulate_noisy(c, replace(dev, readout_confusion={})),
                                   rtol=0, atol=1e-12)

    def test_factors_beyond_the_register_are_ignored(self):
        near = np.array([[0.95, 0.05], [0.06, 0.94]])
        dev = DeviceModel(name="t", num_qubits=3, cnot_error={(0, 1): 0.02},
                          readout_confusion={1: near, 2: np.array([[0.8, 0.2], [0.3, 0.7]])})
        inside = replace(dev, readout_confusion={1: near})
        c = Circuit(2, (gate("ry", 0, params=(1.1,)), gate("cnot", 0, 1)))
        assert np.array_equal(simulate_noisy(c, dev), simulate_noisy(c, inside))
        dist = np.array([0.4, 0.1, 0.2, 0.3])
        assert np.array_equal(mitigate_readout(dist, dev), mitigate_readout(dist, inside))


class TestEstimateP:
    def test_noiseless_device_zero(self):
        dev = toy_device(2, edge_error=0.0)
        c = Circuit(2, (gate("cnot", 0, 1),))
        assert estimate_p(c, dev, r_twirls=4, shots=None) == pytest.approx(0.0, abs=1e-12)

    def test_empty_circuit_zero(self):
        dev = toy_device(2, edge_error=0.05)
        assert estimate_p(Circuit(2), dev, r_twirls=2, shots=None) == pytest.approx(0.0, abs=1e-12)

    def test_zero_shots_rejected(self):
        c = Circuit(2, (gate("cnot", 0, 1),))
        with pytest.raises(ValueError, match="shots"):
            estimate_p(c, toy_device(2), r_twirls=2, shots=0)

    def test_uniform_p_recovered_exactly_in_exact_mode(self):
        # closed form: P0 = (1-p) + p/4 = 0.925 for p = 0.1 on 2 qubits
        dev = toy_device(2, edge_error=0.0, uniform_depolarizing=0.1)
        c = Circuit(2, (gate("cnot", 0, 1),))
        assert estimate_p(c, dev, r_twirls=4, shots=None) == pytest.approx(0.1, abs=1e-9)

    def test_uniform_p_recovered_with_shots(self):
        dev = toy_device(2, edge_error=0.0, uniform_depolarizing=0.1)
        c = Circuit(2, (gate("cnot", 0, 1),))
        p_hat = estimate_p(c, dev, r_twirls=4, shots=25_000, seed=17)
        assert p_hat == pytest.approx(0.1, abs=0.01)

    def test_readout_error_is_excluded(self):
        # readout confusion must not leak into the measured gate-error rate
        dev = DeviceModel(
            name="t", num_qubits=2, cnot_error={(0, 1): 0.0},
            readout_confusion={0: np.array([[0.9, 0.1], [0.1, 0.9]]),
                               1: np.array([[0.92, 0.08], [0.05, 0.95]])},
            uniform_depolarizing=0.2,
        )
        c = Circuit(2, (gate("cnot", 0, 1),))
        assert estimate_p(c, dev, r_twirls=4, shots=None) == pytest.approx(0.2, abs=1e-9)

    def test_layer_errors_recovered(self):
        dev = DeviceModel(name="t", num_qubits=2, cnot_error={(0, 1): 0.05})
        c = Circuit(2, (gate("cnot", 0, 1), gate("cnot", 0, 1)))
        # estimation circuit + its inverse = 4 serial CNOT layers
        expected = 1.0 - (1.0 - 0.05) ** 4
        assert estimate_p(c, dev, r_twirls=3, shots=None) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_noisy_case(), st.integers(1, 4), st.integers(0, 2**31))
    def test_closed_form_matches_simulated_mirrors(self, case, r_twirls, seed):
        circuit, device = case
        assert estimate_p(circuit, device, r_twirls=r_twirls, shots=None, seed=seed) == pytest.approx(
            estimate_p_by_simulation(circuit, device, r_twirls, seed), abs=1e-12)


def save_device(device: DeviceModel, path: Path) -> None:
    lines = [
        f"name {device.name}",
        f"qubits {device.num_qubits}",
        f"uniform_depolarizing {'%.17g' % device.uniform_depolarizing}",
        f"crosstalk_default {'%.17g' % device.crosstalk_default}",
    ]
    for (a, b), r in sorted(device.cnot_error.items()):
        lines.append(f"edge {a} {b} {'%.17g' % r}")
    for key, r in sorted(device.crosstalk.items(), key=lambda kv: sorted(kv[0])):
        (a, b), (c, d) = sorted(key)
        lines.append(f"crosstalk {a} {b} {c} {d} {'%.17g' % r}")
    for q in sorted(device.readout_confusion):
        m = device.readout_confusion[q]
        lines.append(f"readout {q} {'%.17g' % m[0, 1]} {'%.17g' % m[1, 0]}")
    path.write_text("\n".join(lines) + "\n")


class TestDeviceFiles:
    def test_round_trip(self, tmp_path):
        dev = DeviceModel(
            name="rt", num_qubits=3,
            cnot_error={(0, 1): 0.01, (1, 2): 0.0213},
            crosstalk={frozenset(((0, 1), (1, 2))): 0.004},
            crosstalk_default=0.002,
            readout_confusion={0: np.array([[0.98, 0.02], [0.03, 0.97]])},
            uniform_depolarizing=0.05,
        )
        save_device(dev, tmp_path / "rt.device")
        back = load_device(tmp_path / "rt.device")
        assert back.name == dev.name
        assert back.num_qubits == dev.num_qubits
        assert back.cnot_error == dev.cnot_error
        assert back.crosstalk == dev.crosstalk
        assert back.crosstalk_default == dev.crosstalk_default
        assert back.uniform_depolarizing == dev.uniform_depolarizing
        np.testing.assert_allclose(back.readout_confusion[0], dev.readout_confusion[0], atol=1e-15)

    def test_bundled_catalog_loads(self):
        sizes = []
        for name in BUNDLED_DEVICES:
            dev = bundled_device(name)
            assert dev.name == name
            sizes.append(dev.num_qubits)
            for rate in dev.cnot_error.values():
                assert 0.0 <= rate <= 1.0
            for q, m in dev.readout_confusion.items():
                assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-9
        assert sorted(sizes) == [14, 16, 20, 20, 27, 27]

    def test_bundled_devices_route_small_rings(self):
        from qfairdeploy.qnn import ring_edges
        dev = bundled_device("ring14")
        for d in (2, 3, 4, 8):
            for a, b in ring_edges(d):
                e = (min(a, b), max(a, b))
                assert e in dev.cnot_error, f"ring edge {e} missing for d={d}"

    def test_unknown_bundled_name(self):
        with pytest.raises(ValueError):
            bundled_device("nope")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_noisy_case())
    def test_round_trip_random_devices(self, case):
        dev = case[1]
        with tempfile.TemporaryDirectory() as tmp:
            save_device(dev, Path(tmp) / "h.device")
            back = parse_device((Path(tmp) / "h.device").read_text())
        assert (back.name, back.num_qubits) == (dev.name, dev.num_qubits)
        assert back.cnot_error == dev.cnot_error
        assert back.crosstalk == dev.crosstalk
        assert back.crosstalk_default == dev.crosstalk_default
        assert back.uniform_depolarizing == dev.uniform_depolarizing
        assert back.readout_confusion.keys() == dev.readout_confusion.keys()
        for q, m in dev.readout_confusion.items():
            np.testing.assert_array_equal(back.readout_confusion[q], m)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_device("name x\nqubits 2\nwhatever 1 2\n")
