"""QNN classifier construction and evaluation: angle encoder, the
variational ansatz (an RZZ ring for c14, qmlp and dac22, a CNOT ring for
date22), tabular dataset ingestion, and noisy accuracy.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circuits import Circuit, Gate, GateKind
# simulate_noisy, simulate_state: unused, but perfbench/tracer.py TRACED wraps them here (ROADMAP item 1)
from .device import DeviceModel, depolarized, simulate_noisy
from .quantum import evolve, simulate_state
from .seeding import spawn

ARCHS = ("c14", "qmlp", "date22", "dac22")


# --- datasets -----------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Feature rows in [0,1], binary labels, and a train/test row split."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    train_idx: tuple[int, ...]
    test_idx: tuple[int, ...]

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be rows x d")
        if self.features.min() < -1e-12 or self.features.max() > 1.0 + 1e-12:
            raise ValueError("features must lie in [0, 1]")
        if not set(np.unique(self.labels)) <= {0, 1}:
            raise ValueError("labels must be binary")

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def split(self, which: str) -> tuple[int, ...]:
        if which == "train":
            return self.train_idx
        if which == "test":
            return self.test_idx
        raise ValueError(f"unknown split {which!r}")


@dataclass(frozen=True)
class DatasetSchema:
    """Column selection and label mapping for a CSV file."""

    feature_columns: tuple[str, ...]
    label_column: str
    label_positive: str
    label_negative: str | None = None
    train_size: int = 800
    test_size: int = 300

    def __post_init__(self):
        # a negative size would slice the split from the end of the drawn rows
        for key, size in (("train_size", self.train_size), ("test_size", self.test_size)):
            if size < 0:
                raise ValueError(f"schema {key} must be >= 0, got {size}")


def load_schema(path: str | Path) -> DatasetSchema:
    features: tuple[str, ...] = ()
    label, positive, negative = "", "", None
    train_size, test_size = 800, 300
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "features":
            features = tuple(c.strip() for c in rest.split(","))
        elif key == "label":
            label = rest
        elif key == "label_positive":
            positive = rest
        elif key == "label_negative":
            negative = rest
        elif key == "train_size":
            train_size = int(rest)
        elif key == "test_size":
            test_size = int(rest)
        else:
            raise ValueError(f"unknown schema key {key!r}")
    if not features or not label or not positive:
        raise ValueError("schema needs 'features', 'label', and 'label_positive'")
    return DatasetSchema(features, label, positive, negative, train_size, test_size)


def load_dataset(path: str | Path, schema: DatasetSchema, seed: int = 0) -> Dataset:
    """Read a CSV, min-max normalize the selected features over the retained
    rows, binarize the label, and draw a seeded train/test split."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        missing = [c for c in (*schema.feature_columns, schema.label_column) if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        rows, labels, bad_rows = [], [], []
        for lineno, rec in enumerate(reader, start=2):
            try:
                rows.append([float(rec[c]) for c in schema.feature_columns])
            except (TypeError, ValueError):
                bad_rows.append(lineno)
                continue
            raw = (rec[schema.label_column] or "").strip()
            if raw == schema.label_positive:
                labels.append(1)
            elif schema.label_negative is None or raw == schema.label_negative:
                labels.append(0)
            else:
                raise ValueError(f"{path}: line {lineno}: unmapped label value {raw!r}")
    if bad_rows:
        raise ValueError(f"{path}: unparseable rows at lines {bad_rows}")

    need = schema.train_size + schema.test_size
    if len(rows) < need:
        raise ValueError(f"{path}: {len(rows)} usable rows < train+test = {need}")
    rng = spawn(seed, "dataset-split", str(path))
    chosen = rng.choice(len(rows), size=need, replace=False)
    feats = np.array([rows[i] for i in chosen], dtype=float)
    labs = np.array([labels[i] for i in chosen], dtype=int)

    lo, hi = feats.min(axis=0), feats.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    feats = np.where(hi > lo, (feats - lo) / span, 0.0)  # constant column -> 0

    return Dataset(
        features=feats,
        labels=labs,
        feature_names=schema.feature_columns,
        train_idx=tuple(range(schema.train_size)),
        test_idx=tuple(range(schema.train_size, need)),
    )


def synthetic_dataset(
    rows: int,
    num_features: int,
    seed: int = 0,
    flip: float = 0.0,
    train_fraction: float = 0.6,
) -> Dataset:
    """Seeded linearly separable data with optional label noise. Bundled so
    tests need no external download."""
    rng = spawn(seed, "synthetic-dataset", rows, num_features)
    feats = rng.uniform(0.0, 1.0, size=(rows, num_features))
    w = rng.normal(size=num_features)
    labels = ((feats - 0.5) @ w > 0.0).astype(int)
    if flip > 0.0:
        flips = rng.uniform(size=rows) < flip
        labels = np.where(flips, 1 - labels, labels)
    n_train = int(round(rows * train_fraction))
    return Dataset(
        features=feats,
        labels=labels,
        feature_names=tuple(f"f{i}" for i in range(num_features)),
        train_idx=tuple(range(n_train)),
        test_idx=tuple(range(n_train, rows)),
    )


# --- model construction ----------------------------------------------------------


@dataclass(frozen=True)
class QnnModel:
    arch: str
    num_qubits: int
    layers: int
    params: np.ndarray
    measure_qubit: int
    circuit: Circuit  # the variational ansatz; the encoder is per-input

    def with_circuit(self, circuit: Circuit) -> "QnnModel":
        return replace(self, circuit=circuit)


def ring_edges(num_qubits: int) -> list[tuple[int, int]]:
    """Entangler edges: nearest-neighbour ring, single edge when d == 2."""
    if num_qubits < 2:
        return []
    if num_qubits == 2:
        return [(0, 1)]
    return [(q, (q + 1) % num_qubits) for q in range(num_qubits)]


def params_length(arch: str, num_qubits: int, layers: int) -> int:
    n_edges = len(ring_edges(num_qubits))
    per_layer = 3 * num_qubits + (0 if arch == "date22" else n_edges)
    return layers * per_layer


def _check_features(x: np.ndarray) -> None:
    if x.min() < -1e-12 or x.max() > 1.0 + 1e-12:
        raise ValueError("features must lie in [0, 1]")


def encode(x) -> Circuit:
    """Angle encoder: RY(pi * x_k) on qubit k for each feature."""
    x = np.asarray(x, dtype=float)
    _check_features(x)
    gates = tuple(Gate(GateKind.RY, (k,), (math.pi * float(v),)) for k, v in enumerate(x))
    return Circuit(len(x), gates)


def encoded_states(features) -> np.ndarray:
    """The states `encode` prepares from |0...0>, one row per feature row:
    the product over qubits k of (cos(pi x_k / 2), sin(pi x_k / 2)), qubit 0
    the most significant. Real, shape (rows, 2^features)."""
    # rows x features x (cos, sin), each pair adjacent in memory
    qubits = np.ascontiguousarray(encoded_halves(features).transpose(2, 1, 0))
    rows = len(qubits)
    states = np.ones((rows, 1))
    for k in range(qubits.shape[1]):
        states = (states[:, :, None] * qubits[:, k, None, :]).reshape(rows, -1)
    return states


def encoded_halves(features) -> np.ndarray:
    """The per-qubit factors of `encoded_states`: cos and sin of pi x_k / 2
    for qubit k of each row, shape (2, features, rows)."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or not len(x):
        raise ValueError("features must be a non-empty rows x d matrix")
    _check_features(x)
    half = 0.5 * math.pi * x.T
    return np.stack([np.cos(half), np.sin(half)])


def build_qnn(
    arch: str,
    num_qubits: int,
    layers: int,
    params,
    measure_qubit: int = 0,
) -> QnnModel:
    """Assemble the ansatz: per layer a U3 on every qubit, then ring
    entanglers (parameterized rotations, or plain CNOTs for date22-style)."""
    if arch not in ARCHS:
        raise ValueError(f"unknown arch {arch!r}; choose from {ARCHS}")
    params = np.asarray(params, dtype=float)
    expected = params_length(arch, num_qubits, layers)
    if params.shape != (expected,):
        raise ValueError(f"{arch} with {num_qubits} qubits x {layers} layers takes "
                         f"{expected} params, got {params.shape}")
    if not 0 <= measure_qubit < num_qubits:
        raise ValueError("measure_qubit out of range")
    gates: list[Gate] = []
    i = 0
    for _ in range(layers):
        for q in range(num_qubits):
            gates.append(Gate(GateKind.U3, (q,), tuple(params[i:i + 3])))
            i += 3
        for a, b in ring_edges(num_qubits):
            if arch == "date22":
                gates.append(Gate(GateKind.CNOT, (a, b)))
            else:
                gates.append(Gate(GateKind.RZZ, (a, b), (float(params[i]),)))
                i += 1
    return QnnModel(arch, num_qubits, layers, params, measure_qubit, Circuit(num_qubits, tuple(gates)))


# --- evaluation -------------------------------------------------------------------


def output_distribution(model: QnnModel, features, device: DeviceModel | None) -> np.ndarray:
    """The measured qubit's distribution for each row of a rows x d feature
    matrix, shape (rows, 2), from one batched evolution of its
    `encoded_columns` through the ansatz (`measured_distribution`)."""
    return measured_distribution(model, evolve(model.circuit, encoded_columns(model, features)), device).T


def encoded_columns(model: QnnModel, features) -> np.ndarray:
    """The `encoded_states` of a rows x d feature matrix as the columns of a
    (2^n, rows) matrix, n the model's qubit count."""
    psi = encoded_states(features)
    if psi.shape[1] != 2**model.num_qubits:
        raise ValueError(f"rows of {np.shape(features)[1]} features do not fit {model.num_qubits} qubits")
    return psi.T


def measured_distribution(model: QnnModel, states: np.ndarray, device: DeviceModel | None) -> np.ndarray:
    """The measured qubit's distribution (2, rows) after the ansatz, from the
    evolved states: the columns of a (2^n, rows) matrix, or a [2]*n + [rows]
    tensor. On a device each row is `depolarized` by the ansatz: one P
    serves every row, as the encoded circuits differ only in their angles,
    and exact readout mitigation cancels the confusion, so it is left out.
    p_total is the ansatz's own: the encoder's RYs fill layer 0 on every
    qubit, so they shift each 2-qubit layer by one and change no rate."""
    n, q = model.num_qubits, model.measure_qubit
    probs = np.abs(states) ** 2
    marginal = probs.reshape(2**q, 2, 2 ** (n - q - 1), -1).sum(axis=(0, 2))
    dist = marginal / marginal.sum(axis=0)
    if device is not None:
        dist = depolarized(dist, model.circuit, device)
    return dist


def fraction_right(p_one: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows labelled right, each row labelled 1 where its
    P(measure_qubit = 1) >= 1/2, ties included."""
    return int(((p_one >= 0.5).astype(int) == labels).sum()) / len(labels)


def accuracy(model: QnnModel, data: Dataset, split: str, device: DeviceModel | None) -> float:
    """`fraction_right` of the split's rows under `output_distribution`."""
    rows = list(data.split(split))
    if not rows:
        raise ValueError(f"empty {split} split")
    return fraction_right(output_distribution(model, data.features[rows], device)[:, 1], data.labels[rows])


# --- parameter files ------------------------------------------------------------------


def load_params(path: str | Path) -> np.ndarray:
    values = [float(ln) for ln in Path(path).read_text().split()]
    return np.array(values, dtype=float)
