import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfairdeploy.circuits import Circuit, cnot_count
from qfairdeploy.device import DeviceModel, accumulate_p, bundled_device, depolarized
from qfairdeploy.partition import partition, recombine
from qfairdeploy.qnn import (
    ARCHS,
    Dataset,
    DatasetSchema,
    accuracy,
    build_qnn,
    encode,
    load_dataset,
    load_params,
    load_schema,
    encoded_states,
    output_distribution,
    params_length,
    ring_edges,
    synthetic_dataset,
)
from qfairdeploy.quantum import simulate_state, zero_state
from qfairdeploy.seeding import spawn
from qfairdeploy.toys import toy_device, toy_model

from conftest import gate
from simulation_oracle import (
    accuracy_by_rows,
    full_circuit,
    output_distribution_by_rows,
    predict,
    trace_distance_pure,
)


class TestEncode:
    def test_all_zeros(self):
        state = simulate_state(encode([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(state, zero_state(3), atol=1e-12)

    def test_feature_one_gives_excited_qubit(self):
        state = simulate_state(encode([1.0]))
        np.testing.assert_allclose(np.abs(state) ** 2, [0.0, 1.0], atol=1e-12)

    def test_half_gives_plus(self):
        state = simulate_state(encode([0.5]))
        np.testing.assert_allclose(state, [1, 1] / np.sqrt(2), atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode([1.2])
        with pytest.raises(ValueError):
            encoded_states([[0.5, -0.1]])

    def test_encoded_states_are_the_encoder_circuits_states(self, rng):
        x = rng.uniform(0, 1, size=(7, 3))
        x[0] = [0.0, 0.5, 1.0]
        expected = np.stack([simulate_state(encode(row)) for row in x])
        np.testing.assert_allclose(encoded_states(x), expected, rtol=0, atol=1e-15)

    def test_injectivity(self, rng):
        for _ in range(20):
            x = rng.uniform(0, 1, size=3)
            y = x.copy()
            y[rng.integers(0, 3)] = rng.uniform(0, 1)
            if np.allclose(x, y):
                continue
            d = trace_distance_pure(simulate_state(encode(x)), simulate_state(encode(y)))
            assert d > 0.0


class TestBuildQnn:
    def test_zero_layers_is_encoder_only(self):
        model = build_qnn("c14", 3, 0, [])
        assert len(model.circuit.gates) == 0
        x = [0.2, 0.4, 0.8]
        assert full_circuit(model, x).gates == encode(x).gates

    def test_date22_ring_cnot_count(self):
        model = build_qnn("date22", 4, 1, np.zeros(12))
        assert cnot_count(model.circuit) == 4

    def test_c14_params_length(self):
        assert params_length("c14", 4, 1) == 16  # 3 per qubit + 1 per ring edge

    def test_two_qubit_ring_is_one_edge(self):
        assert ring_edges(2) == [(0, 1)]
        assert params_length("qmlp", 2, 1) == 7

    def test_param_length_mismatch(self):
        with pytest.raises(ValueError):
            build_qnn("c14", 4, 1, np.zeros(15))

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            build_qnn("resnet", 4, 1, np.zeros(16))

    def test_entangler_kinds(self):
        c14 = build_qnn("c14", 3, 1, np.arange(12, dtype=float))
        date = build_qnn("date22", 3, 1, np.arange(9, dtype=float))
        assert {g.kind.value for g in c14.circuit.gates} == {"u3", "rzz"}
        assert {g.kind.value for g in date.circuit.gates} == {"u3", "cnot"}


class TestPredict:
    def test_deterministic_flip_scores_one(self):
        # ansatz X on the measured qubit, x = 0: P(1) = 1
        model = build_qnn("c14", 1, 0, [])
        model = model.with_circuit(Circuit(1, (gate("x", 0),)))
        label, score = predict(model, [0.0], None)
        assert (label, score) == (1, pytest.approx(1.0, abs=1e-12))

    def test_fully_depolarized_scores_half(self, rng):
        dev = toy_device(2, edge_error=0.0, uniform_depolarizing=1.0)
        model = toy_model(2)
        for _ in range(3):
            label, score = predict(model, rng.uniform(0, 1, 2), dev)
            assert score == pytest.approx(0.5, abs=1e-12)
            assert label == 1  # ties go to label 1

    def test_zero_gate_model_on_zero_input(self):
        model = build_qnn("c14", 2, 0, [])
        label, score = predict(model, [0.0, 0.0], None)
        assert (label, score) == (0, 0.0)


@st.composite
def _noisy_accuracy_case(draw, full_depolarizing=st.just(False)):
    """A random model, measured on any qubit, and dataset on a fully
    connected device with random edge, crosstalk and uniform rates and
    readout confusion, all below the rates at which the survival 1 - P could
    reach 0 unless `full_depolarizing` draws True (uniform rate 1)."""
    n = draw(st.integers(1, 4))
    model = toy_model(n, layers=draw(st.integers(1, 2)), seed=draw(st.integers(0, 10**6)),
                      arch=draw(st.sampled_from(ARCHS)))
    model = build_qnn(model.arch, n, model.layers, model.params, measure_qubit=draw(st.integers(0, n - 1)))
    data = synthetic_dataset(rows=draw(st.integers(4, 20)), num_features=n,
                             seed=draw(st.integers(0, 10**6)), flip=draw(st.floats(0.0, 0.5)))
    rate = st.floats(0.0, 0.3)
    device = DeviceModel(
        name="random", num_qubits=n,
        cnot_error={e: draw(rate) for e in itertools.combinations(range(n), 2)},
        crosstalk_default=draw(st.floats(0.0, 0.05)),
        readout_confusion={q: np.array([[1.0 - a, a], [b, 1.0 - b]])
                           for q, a, b in ((q, draw(rate), draw(rate)) for q in range(n))},
        uniform_depolarizing=1.0 if draw(full_depolarizing) else draw(st.floats(0.0, 0.9)),
    )
    return model, data, device


class TestAccuracy:
    def _constant_dataset(self, label: int) -> Dataset:
        feats = np.full((6, 1), 0.0)
        labels = np.full(6, label, dtype=int)
        return Dataset(feats, labels, ("f0",), (0, 1, 2), (3, 4, 5))

    def test_constant_correct(self):
        model = build_qnn("c14", 1, 0, [])
        model = model.with_circuit(Circuit(1, (gate("x", 0),)))  # always predicts 1
        assert accuracy(model, self._constant_dataset(1), "test", None) == 1.0

    def test_constant_wrong(self):
        model = build_qnn("c14", 1, 0, [])
        model = model.with_circuit(Circuit(1, (gate("x", 0),)))
        assert accuracy(model, self._constant_dataset(0), "test", None) == 0.0

    def test_fully_depolarized_equals_majority_rate(self):
        # score 0.5 -> label 1 everywhere, so accuracy = fraction of 1-labels
        data = synthetic_dataset(rows=40, num_features=2, seed=3)
        dev = toy_device(2, edge_error=0.0, uniform_depolarizing=1.0)
        model = toy_model(2)
        expected = float(np.mean([data.labels[i] for i in data.test_idx]))
        assert accuracy(model, data, "test", dev) == pytest.approx(expected, abs=1e-12)

    def test_exact_mode_deterministic(self):
        data = synthetic_dataset(rows=20, num_features=2, seed=4)
        dev = toy_device(2, edge_error=0.02)
        model = toy_model(2)
        assert accuracy(model, data, "test", dev) == accuracy(model, data, "test", dev)

    def test_recombined_originals_match_exactly(self):
        data = synthetic_dataset(rows=20, num_features=2, seed=5)
        dev = toy_device(2, edge_error=0.03)
        model = toy_model(2, layers=1)
        parts = partition(model.circuit, 2)
        rebuilt = recombine(parts, [p.sub_circuit for p in parts], 2)
        assert rebuilt.gates == model.circuit.gates
        same = model.with_circuit(rebuilt)
        assert accuracy(same, data, "test", dev) == accuracy(model, data, "test", dev)

    def test_empty_split_rejected(self):
        data = synthetic_dataset(rows=10, num_features=2, seed=6, train_fraction=1.0)
        with pytest.raises(ValueError):
            accuracy(toy_model(2), data, "test", None)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_noisy_accuracy_case())
    def test_noise_never_changes_exact_accuracy(self, case):
        # (1 - P) * score + P / 2 moves a score toward 1/2 without crossing it
        # while 1 - P > 0, and mitigation undoes readout confusion exactly
        model, data, device = case
        for split in ("train", "test"):
            assert accuracy(model, data, split, device) == accuracy(model, data, split, None)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_noisy_accuracy_case(full_depolarizing=st.booleans()))
    def test_batched_matches_row_by_row_oracle(self, case):
        model, data, device = case
        if device.uniform_depolarizing == 1.0:
            # every score is exactly 1/2, a tie, so every label is 1; the
            # oracle's readout round trip K^-1 K (1/2, 1/2) can come back an
            # ulp below 1/2 and label a tie 0, so it runs without confusion
            clean = replace(device, readout_confusion={})
            for split in ("train", "test"):
                assert accuracy(model, data, split, device) == accuracy(model, data, split, clean)
            device = clean
        for split in ("train", "test"):
            for dev in (device, None):
                assert accuracy(model, data, split, dev) == accuracy_by_rows(model, data, split, dev)


@st.composite
def _distribution_case(draw):
    """A random model of any arch on 1-5 qubits, measured on any qubit, 1-6
    feature rows, and one of three devices: none, a toy device with random
    rates and readout confusion, or the same with survival 0 (uniform rate 1)."""
    n = draw(st.integers(1, 5))
    arch = draw(st.sampled_from(ARCHS))
    model = toy_model(n, layers=draw(st.integers(0, 2)), seed=draw(st.integers(0, 10**6)), arch=arch)
    model = build_qnn(arch, n, model.layers, model.params, measure_qubit=draw(st.integers(0, n - 1)))
    row = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    features = np.array(draw(st.lists(row, min_size=1, max_size=6)))
    setting = draw(st.sampled_from(("noiseless", "confusion", "survival-0")))
    if setting == "noiseless":
        return model, features, None
    rate = st.floats(0.0, 0.3)
    device = replace(
        toy_device(n, edge_error=draw(rate),
                   uniform_depolarizing=1.0 if setting == "survival-0" else draw(st.floats(0.0, 0.9))),
        readout_confusion={q: np.array([[1.0 - a, a], [b, 1.0 - b]])
                           for q, a, b in ((q, draw(rate), draw(rate)) for q in range(n))},
    )
    return model, features, device


class TestOutputDistribution:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_distribution_case())
    def test_batched_matches_row_by_row_oracle(self, case):
        model, features, device = case
        expected = np.stack([output_distribution_by_rows(model, x, device) for x in features])
        np.testing.assert_allclose(output_distribution(model, features, device), expected, rtol=0, atol=1e-14)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_distribution_case())
    def test_device_noise_is_the_depolarized_noiseless_distribution(self, case):
        model, features, device = case
        device = device or toy_device(model.num_qubits)
        noiseless = output_distribution(model, features, None)
        assert np.array_equal(output_distribution(model, features, device),
                              depolarized(noiseless.T, model.circuit, device).T)

    @pytest.mark.parametrize("seed, measure_qubit", [(0, 0), (1, 3), (2, 7)])
    def test_eight_qubits_on_ring14_match_oracle(self, seed, measure_qubit):
        base = toy_model(8, seed=seed)
        model = build_qnn("c14", 8, base.layers, base.params, measure_qubit=measure_qubit)
        features = spawn(seed, "ring14-rows").uniform(0.0, 1.0, size=(5, 8))
        device = bundled_device("ring14")
        assert device.readout_confusion
        expected = np.stack([output_distribution_by_rows(model, x, device) for x in features])
        np.testing.assert_allclose(output_distribution(model, features, device), expected, rtol=0, atol=1e-14)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_distribution_case())
    def test_encoder_leaves_the_noise_rate_unchanged(self, case):
        # the encoder's RYs fill layer 0 on every qubit, so the ansatz's
        # 2-qubit layers only move up by one: same layers, same rates
        model, features, device = case
        device = device or toy_device(model.num_qubits)
        own = accumulate_p(model.circuit, device)
        for x in features:
            assert accumulate_p(full_circuit(model, x), device) == own

    @pytest.mark.parametrize("arch", ARCHS)
    def test_encoder_leaves_the_noise_rate_unchanged_on_ring14(self, arch):
        base = toy_model(8, layers=2, seed=3, arch=arch)
        device = bundled_device("ring14")
        x = spawn(3, "ring14-row").uniform(0.0, 1.0, size=8)
        assert accumulate_p(full_circuit(base, x), device) == accumulate_p(base.circuit, device)

    def test_empty_feature_matrix_rejected(self):
        for device in (None, toy_device(2)):
            with pytest.raises(ValueError, match="non-empty"):
                output_distribution(toy_model(2), np.empty((0, 2)), device)


class TestSyntheticDataset:
    def test_shapes_and_ranges(self):
        data = synthetic_dataset(rows=50, num_features=3, seed=7)
        assert data.features.shape == (50, 3)
        assert set(np.unique(data.labels)) <= {0, 1}
        assert len(data.train_idx) + len(data.test_idx) == 50

    def test_deterministic(self):
        a = synthetic_dataset(rows=30, num_features=2, seed=8)
        b = synthetic_dataset(rows=30, num_features=2, seed=8)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


def _write_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestLoadDataset:
    def _schema(self, **kw):
        defaults = dict(
            feature_columns=("a", "b", "c", "d", "e", "f", "g", "h"),
            label_column="y",
            label_positive="yes",
            train_size=800,
            test_size=300,
        )
        defaults.update(kw)
        return DatasetSchema(**defaults)

    def test_eight_attributes_and_split_sizes(self, tmp_path, rng):
        rows = []
        for i in range(1200):
            feats = rng.uniform(0, 10, size=8)
            rows.append([*feats, "yes" if rng.uniform() < 0.5 else "no"])
        path = tmp_path / "data.csv"
        _write_csv(path, rows, ["a", "b", "c", "d", "e", "f", "g", "h", "y"])
        data = load_dataset(path, self._schema(), seed=1)
        assert data.num_features == 8
        assert len(data.train_idx) == 800
        assert len(data.test_idx) == 300
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_constant_column_normalizes_to_zero(self, tmp_path, rng):
        rows = [[5.0, rng.uniform(), "yes" if i % 2 else "no"] for i in range(20)]
        path = tmp_path / "data.csv"
        _write_csv(path, rows, ["a", "b", "y"])
        schema = self._schema(feature_columns=("a", "b"), train_size=10, test_size=5)
        data = load_dataset(path, schema, seed=2)
        np.testing.assert_allclose(data.features[:, 0], 0.0, atol=1e-15)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        _write_csv(path, [[1, "yes"]], ["a", "y"])
        with pytest.raises(ValueError, match="missing columns"):
            load_dataset(path, self._schema(feature_columns=("a", "b"), train_size=1, test_size=0))

    def test_unparseable_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "data.csv"
        _write_csv(path, [[1.0, "yes"], ["oops", "no"], [2.0, "yes"]], ["a", "y"])
        with pytest.raises(ValueError, match=r"lines \[3\]"):
            load_dataset(path, self._schema(feature_columns=("a",), train_size=2, test_size=1))

    def test_unmapped_label_value(self, tmp_path):
        path = tmp_path / "data.csv"
        _write_csv(path, [[1.0, "maybe"]], ["a", "y"])
        schema = self._schema(feature_columns=("a",), label_negative="no",
                              train_size=1, test_size=0)
        with pytest.raises(ValueError, match="unmapped label"):
            load_dataset(path, schema)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        _write_csv(path, [[1.0, "yes"]] * 5, ["a", "y"])
        with pytest.raises(ValueError, match="usable rows"):
            load_dataset(path, self._schema(feature_columns=("a",), train_size=5, test_size=5))


class TestSchemaFile:
    def test_parse(self, tmp_path):
        text = (
            "features a,b,c\n"
            "label y\n"
            "label_positive >50K\n"
            "label_negative <=50K\n"
            "train_size 10\n"
            "test_size 5\n"
        )
        p = tmp_path / "schema.txt"
        p.write_text(text)
        schema = load_schema(p)
        assert schema.feature_columns == ("a", "b", "c")
        assert schema.label_positive == ">50K"
        assert (schema.train_size, schema.test_size) == (10, 5)
        p.write_text(text + "group demo a,b\n")
        with pytest.raises(ValueError, match="unknown schema key 'group'"):
            load_schema(p)

    def test_missing_required_keys(self, tmp_path):
        p = tmp_path / "schema.txt"
        p.write_text("label y\n")
        with pytest.raises(ValueError):
            load_schema(p)


# --- parameter fixtures -------------------------------------------------------------


def save_params(params, path) -> None:
    lines = ["%.17g" % p for p in np.asarray(params, dtype=float)]
    path.write_text("\n".join(lines) + "\n")


def fit_params(
    arch: str,
    data: Dataset,
    layers: int = 1,
    seed: int = 0,
    sweeps: int = 2,
    measure_qubit: int = 0,
) -> np.ndarray:
    """Coordinate descent on noiseless training accuracy. Produces desk-scale
    parameter fixtures only; deployment treats trained parameters as input."""
    d = data.num_features
    rng = spawn(seed, "fit-params", arch, layers)
    params = rng.uniform(0.0, 2.0 * math.pi, size=params_length(arch, d, layers))

    def score(p) -> float:
        model = build_qnn(arch, d, layers, p, measure_qubit)
        return accuracy(model, data, "train", None)

    best = score(params)
    offsets = (-0.8, -0.4, 0.4, 0.8)
    for _ in range(sweeps):
        for j in range(params.size):
            for off in offsets:
                trial = params.copy()
                trial[j] += off
                s = score(trial)
                if s > best:
                    best, params = s, trial
    return params


class TestParamsIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        params = rng.uniform(0, 2 * math.pi, size=12)
        save_params(params, tmp_path / "p.txt")
        np.testing.assert_array_equal(load_params(tmp_path / "p.txt"), params)

    def test_fit_params_beats_chance(self):
        data = synthetic_dataset(rows=30, num_features=2, seed=10)
        params = fit_params("c14", data, layers=1, seed=10, sweeps=1)
        model = build_qnn("c14", 2, 1, params)
        assert accuracy(model, data, "train", None) >= 0.6
