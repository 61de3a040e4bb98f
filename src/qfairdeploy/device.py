"""Simulated NISQ device descriptions and noisy execution.

Noise model: every ASAP layer (`circuits.asap`) that holds 2-qubit gates
applies one global depolarizing channel whose rate is the sum of its edges'
error rates plus a crosstalk term for each pair of its edges. Concurrent
gates never share a qubit, so only an explicit `crosstalk` pair can add to
a layer; the `crosstalk_default` of edges sharing a qubit never does. Every
rate goes through `_composed`: `accumulate_p` layers a circuit with `asap`,
and exact-mode `estimate_p` layers each twirled mirror in one pass over its
2-qubit gates (`_mirror_p_total`). Every run keeps `survival` of the
noiseless distribution. The reward's fairness is a circuit's own rate,
1 - `survival`; `estimate_p` measures its mirror's, as hardware would.
Readout error is a per-qubit 2 x 2 confusion matrix, applied on its qubit's
axis of the measured distribution and undone there by `mitigate_readout`;
it is kept out of the gate-error model.

A device may also declare `uniform_depolarizing`: a single depolarizing
channel applied once per execution regardless of circuit content. It exists
to inject a known ground-truth rate in calibration and validation runs.

Global depolarizing channels commute with every unitary, so noisy execution
needs no density matrix: the measured distribution is exactly
(1 - P) d + P / k over its k outcomes, d the noiseless one.
`depolarized_by` is that rule, and `depolarized` applies it at a circuit's
survival; `simulate_noisy` applies it to the whole register's |U psi|^2,
from one statevector under the same 12-qubit cap as the noiseless path, and
`qnn.output_distribution` to the measured qubit.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    GateKind,
    TWO_QUBIT_KINDS,
    asap,
    concat,
    inverse,
)
from . import quantum  # simulate_state is looked up on the module, so wrappers installed there see it
from .quantum import _apply_matrix
from .seeding import spawn


class UnroutedGateError(ValueError):
    """A 2-qubit gate sits on a qubit pair that is not a coupling edge."""


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class DeviceModel:
    name: str
    num_qubits: int
    cnot_error: dict[tuple[int, int], float]  # keyed by sorted edge
    crosstalk: dict[frozenset, float] = field(default_factory=dict)
    crosstalk_default: float = 0.0
    readout_confusion: dict[int, np.ndarray] = field(default_factory=dict)
    uniform_depolarizing: float = 0.0

    def __post_init__(self):
        for e, r in self.cnot_error.items():
            if e != _edge(*e) or max(e) >= self.num_qubits:
                raise ValueError(f"bad edge {e}")
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"edge error {r} outside [0, 1]")
        if not 0.0 <= self.uniform_depolarizing <= 1.0:
            raise ValueError("uniform_depolarizing outside [0, 1]")
        for r in (*self.crosstalk.values(), self.crosstalk_default):
            if not 0.0 <= r <= 1.0:  # NaN fails too
                raise ValueError(f"crosstalk rate {r} outside [0, 1]")
        for q, m in self.readout_confusion.items():
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"readout qubit {q} outside the {self.num_qubits}-qubit register")
            if m.shape != (2, 2) or np.any(m < -1e-12):
                raise ValueError(f"bad confusion matrix for qubit {q}")
            if np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError(f"confusion rows for qubit {q} do not sum to 1")
            # mitigation applies the per-factor inverse
            if abs(np.linalg.det(m)) < 1e-12:
                raise ValueError(f"singular readout confusion matrix for qubit {q}")

    def crosstalk_rate(self, e1: tuple[int, int], e2: tuple[int, int]) -> float:
        key = frozenset((_edge(*e1), _edge(*e2)))
        if key in self.crosstalk:
            return self.crosstalk[key]
        shares_qubit = bool(set(e1) & set(e2))
        return self.crosstalk_default if shares_qubit else 0.0


@dataclass(frozen=True)
class NoiseTrace:
    """Depolarizing rate applied per 2-qubit layer and their composition."""

    layer_rates: tuple[float, ...]
    p_total: float


# --- error estimation circuits and randomized compiling ----------------------


def estimation_circuit(circuit: Circuit) -> Circuit:
    """Keep only the 2-qubit gates, in original order."""
    return Circuit(circuit.num_qubits, tuple(g for g in circuit.gates if g.kind in TWO_QUBIT_KINDS))


_PAULI_KINDS = (None, GateKind.X, GateKind.Y, GateKind.Z)  # None = identity
# each Pauli as its (x, z) bits, X^x Z^z up to phase
_PAULI_BITS = {None: (0, 0), GateKind.X: (1, 0), GateKind.Y: (1, 1), GateKind.Z: (0, 1)}


def _compensation_table() -> dict:
    """For each Pauli pair P inserted before a CNOT, the pair R with
    R . CNOT . P = CNOT up to global phase (R = CNOT P CNOT). Conjugating by
    a CNOT adds the control's x bit to the target's and the target's z bit
    to the control's."""
    kind_of = {bits: kind for kind, bits in _PAULI_BITS.items()}
    table = {}
    for bc, bt in itertools.product(_PAULI_KINDS, repeat=2):
        (xc, zc), (xt, zt) = _PAULI_BITS[bc], _PAULI_BITS[bt]
        table[(bc, bt)] = (kind_of[(xc, zc ^ zt)], kind_of[(xt ^ xc, zt)])
    return table


_COMPENSATION = _compensation_table()


# (before control, before target, after control, after target) per drawn index pair
_TWIRLS = [[(bc, bt, *_COMPENSATION[(bc, bt)]) for bt in _PAULI_KINDS] for bc in _PAULI_KINDS]


def _twirled(gates, rng: np.random.Generator):
    """Yield (before, gate, after) for each of `gates`: a CNOT gets uniformly
    random Paulis before it and the compensating ones after it, as (kind,
    qubit) pairs with identities left out; any other gate gets none. One
    draw of two indices per CNOT, the draw exact-mode `estimate_p` makes
    too (`_mirror_p_total`)."""
    num_cnots = sum(g.kind is GateKind.CNOT for g in gates)
    draws = iter(rng.integers(0, 4, size=(num_cnots, 2)).tolist())
    for g in gates:
        if g.kind is not GateKind.CNOT:
            yield (), g, ()
            continue
        i, j = next(draws)
        bc, bt, rc, rt = _TWIRLS[i][j]
        c, t = g.qubits
        yield ([(k, q) for k, q in ((bc, c), (bt, t)) if k is not None], g,
               [(k, q) for k, q in ((rc, c), (rt, t)) if k is not None])


def randomized_compile(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """Twirl each CNOT with uniformly random Paulis before it and the
    compensating Paulis after it; the total unitary is unchanged up to a
    global phase. Non-CNOT gates pass through untouched."""
    gates: list[Gate] = []
    for before, g, after in _twirled(circuit.gates, rng):
        gates += [Gate(kind, (q,)) for kind, q in before]
        gates.append(g)
        gates += [Gate(kind, (q,)) for kind, q in after]
    return Circuit(circuit.num_qubits, tuple(gates))


# --- error accumulation --------------------------------------------------------


def _check_routed(gates, device: DeviceModel) -> None:
    """UnroutedGateError at the first 2-qubit gate off the coupling map."""
    for g in gates:
        if len(g.qubits) == 2 and _edge(*g.qubits) not in device.cnot_error:
            raise UnroutedGateError(f"{g.kind.value} on {g.qubits} is not a coupling edge of {device.name}")


def _composed(by_layer: dict, device: DeviceModel, memo: dict) -> NoiseTrace:
    """The one rate rule: each layer (layer index -> its 2-qubit tuples in
    gate order) applies the errors of its edges, in that order, plus the
    crosstalk of each pair of them, clamped to [0, 1]; the layer rates
    compose in layer order as (1 - p_total) = prod(1 - p_layer). `memo`
    keeps each rate by the layer's 2-qubit tuples."""
    rates = []
    for layer in sorted(by_layer):
        key = tuple(by_layer[layer])
        rate = memo.get(key)
        if rate is None:
            edges = [_edge(*qubits) for qubits in key]
            rate = sum(device.cnot_error[e] for e in edges)
            for e1, e2 in itertools.combinations(edges, 2):
                rate += device.crosstalk_rate(e1, e2)
            rate = memo[key] = min(max(rate, 0.0), 1.0)
        rates.append(rate)
    return NoiseTrace(tuple(rates), 1.0 - math.prod(1.0 - r for r in rates))


def accumulate_p(circuit: Circuit, device: DeviceModel) -> NoiseTrace:
    """The circuit's 2-qubit layer rates and their composition: the 2-qubit
    gates of each `asap` layer, in gate order, go to `_composed`."""
    _check_routed(circuit.gates, device)
    steps = [g.qubits for g in circuit.gates]
    by_layer: dict[int, list[tuple[int, int]]] = {}
    for qubits, layer in zip(steps, asap(steps, circuit.num_qubits)):
        if len(qubits) == 2:
            by_layer.setdefault(layer, []).append(qubits)
    return _composed(by_layer, device, {})


def survival(p_total: float, device: DeviceModel) -> float:
    """1 - P = (1 - p_total)(1 - uniform_depolarizing): the weight a run
    keeps on the noiseless distribution; P spreads evenly over the outcomes."""
    return (1.0 - p_total) * (1.0 - device.uniform_depolarizing)


def depolarized_by(dist: np.ndarray, survive: float) -> np.ndarray:
    """The noisy-measurement rule: `dist`, noiseless and with its outcomes
    on axis 0, becomes (1 - P) dist + P / k over its k outcomes, with
    1 - P = `survive`."""
    return survive * dist + (1.0 - survive) / len(dist)


def depolarized(dist: np.ndarray, circuit: Circuit, device: DeviceModel) -> np.ndarray:
    """`depolarized_by` the circuit's `survival` on the device."""
    return depolarized_by(dist, survival(accumulate_p(circuit, device).p_total, device))


# --- noisy simulation ------------------------------------------------------------


def simulate_noisy(
    circuit: Circuit,
    device: DeviceModel,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Outcome distribution over the whole register, starting from
    |0...0>: `depolarized` of the Born-rule |U psi|^2, then each listed
    qubit's readout confusion on its own axis (`_readout`).

    Exact mode (shots=None) is deterministic; shot mode samples with the
    supplied rng. This is the package's one shot sampler.
    """
    probs = np.abs(quantum.simulate_state(circuit)) ** 2
    probs = _readout(depolarized(probs / probs.sum(), circuit, device), device, undo=False)
    if shots is None:
        return probs
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if rng is None:
        raise ValueError("shot sampling needs an explicit rng")
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    return np.bincount(outcomes, minlength=probs.size) / float(shots)


def _readout(probs: np.ndarray, device: DeviceModel, undo: bool) -> np.ndarray:
    """`probs` over the whole register as read out, p_read = C_q^T p_true on
    each listed qubit q inside the register, or that undone with inv(C_q^T):
    one 2 x 2 factor per axis, qubits ascending, no 2^n x 2^n matrix."""
    n = probs.size.bit_length() - 1
    tensor = probs.reshape([2] * n)
    for q in sorted(q for q in device.readout_confusion if q < n):
        factor = device.readout_confusion[q].T
        tensor = _apply_matrix(tensor, np.linalg.inv(factor) if undo else factor, (q,), n)
    return tensor.reshape(-1)


def mitigate_readout(dist: np.ndarray, device: DeviceModel) -> np.ndarray:
    """Undo the readout confusion of a whole-register distribution one
    qubit at a time (`_readout`), clip negatives, renormalize."""
    dist = np.asarray(dist, dtype=float)
    num_qubits = dist.size.bit_length() - 1
    if dist.shape != (2**num_qubits,):
        raise ValueError("distribution length is not a power of 2")
    corrected = np.clip(_readout(dist, device, undo=True), 0.0, None)
    total = corrected.sum()
    if total <= 0.0:
        raise ValueError("readout mitigation produced an empty distribution")
    return corrected / total


# --- effective depolarizing-rate measurement --------------------------------------


def estimate_p(
    circuit: Circuit,
    device: DeviceModel,
    r_twirls: int = 16,
    shots: int | None = 8192,
    seed: int = 0,
) -> float:
    """Measured effective depolarizing rate of a circuit on a device.

    Strips 1-qubit gates, twirls the remainder `r_twirls` times and appends
    each twirl's exact inverse, so the ideal output is |0...0>. A mirror run
    with survival 1 - P keeps |0...0> with probability P0 = (1 - P) + P / 2^n,
    and p = (1 - P0) / (1 - 2^-n) gives back P. shots=None returns the mean
    P over the twirls in closed form, 1 - P = `survival`, since readout
    mitigation is exact there. Shot mode samples each mirror, mitigates
    readout and converts the mean sampled P0. Both modes draw the twirl
    Paulis from the same `spawn(seed, "twirl", t)` streams, and in both the
    Paulis shift the ASAP layering, and so the crosstalk. Exact mode builds
    no circuit at all: it takes the 2-qubit gates as they stand and layers
    each mirror in one pass (`_mirror_p_total`). A mirror's rate is about
    twice the circuit's own, which the reward reads instead.
    """
    if r_twirls < 1:
        raise ValueError("r_twirls must be >= 1")
    if shots is None:
        gates = [g for g in circuit.gates if len(g.qubits) == 2]
        _check_routed(gates, device)
        pairs = [(g.qubits, g.kind is GateKind.CNOT) for g in gates]
        size = (sum(cnot for _, cnot in pairs), 2)  # `_twirled`'s draw: an index pair per CNOT
        memo: dict = {}
        mirrors = (_mirror_p_total(pairs, spawn(seed, "twirl", t).integers(0, 4, size=size),
                                   circuit.num_qubits, device, memo) for t in range(r_twirls))
        p_hat = sum(1.0 - survival(p_total, device) for p_total in mirrors) / r_twirls
        return min(max(p_hat, 0.0), 1.0)
    est = estimation_circuit(circuit)
    p0 = 0.0
    for t in range(r_twirls):
        twirled = randomized_compile(est, spawn(seed, "twirl", t))
        dist = simulate_noisy(concat(twirled, inverse(twirled)), device,
                              shots=shots, rng=spawn(seed, "shots", t))
        if device.readout_confusion:
            dist = mitigate_readout(dist, device)
        p0 += float(dist[0])
    p_hat = (1.0 - p0 / r_twirls) / (1.0 - 2.0 ** (-est.num_qubits))
    return min(max(p_hat, 0.0), 1.0)


# per drawn index pair, whether a Pauli sits (before control, before target,
# after control, after target) of the CNOT: each one holds its qubit a layer.
# The second copy is the inverse's: there each Pauli sits on the other side.
_TWIRL_BUSY = [[(busy, busy[2:] + busy[:2])
                for busy in (tuple(int(k is not None) for k in twirl) for twirl in row)]
               for row in _TWIRLS]
_UNTWIRLED = ((0, 0, 0, 0), (0, 0, 0, 0))


def _mirror_p_total(pairs, draws: np.ndarray, num_qubits: int, device: DeviceModel, memo: dict) -> float:
    """`accumulate_p(concat(twirled, inverse(twirled)), device).p_total` of
    one twirl of routed 2-qubit gates, in one pass and without Circuits. The
    gates come as (qubits, is a CNOT) pairs, and `draws` holds the twirl's
    Pauli index pair for each CNOT, drawn as `_twirled` draws them.

    A Pauli is a 1-qubit gate, so in the `asap` layering it only moves its
    qubit's frontier on by one layer; each 2-qubit gate then takes the later
    of its qubits' frontiers. The inverse runs the same gates backwards,
    each gate's Paulis on the other side of it. The 2-qubit tuples of each
    layer go to `_composed`, whose `memo` the twirls of one call share."""
    draws = iter(draws.tolist())
    forward, backward = [], []
    for qubits, cnot in pairs:
        if cnot:
            i, j = next(draws)
            there, back = _TWIRL_BUSY[i][j]
        else:
            there, back = _UNTWIRLED
        forward.append((qubits, there))
        backward.append((qubits, back))
    backward.reverse()
    frontier = [0] * num_qubits  # first free layer per qubit, as in `asap`
    by_layer: dict[int, list[tuple[int, int]]] = {}
    for qubits, (pa, pb, qa, qb) in forward + backward:
        a, b = qubits
        la, lb = frontier[a] + pa, frontier[b] + pb
        layer = la if la > lb else lb
        if layer in by_layer:
            by_layer[layer].append(qubits)
        else:
            by_layer[layer] = [qubits]
        frontier[a] = layer + 1 + qa
        frontier[b] = layer + 1 + qb
    return _composed(by_layer, device, memo).p_total


# --- device files ------------------------------------------------------------------

# key -> number of values that follow it on its line
_DEVICE_KEY_VALUES = {"name": 1, "qubits": 1, "uniform_depolarizing": 1, "crosstalk_default": 1,
                      "edge": 3, "crosstalk": 5, "readout": 3}


def parse_device(text: str) -> DeviceModel:
    name, num_qubits = "", 0
    uniform_dep, crosstalk_default = 0.0, 0.0
    cnot_error: dict[tuple[int, int], float] = {}
    crosstalk: dict[frozenset, float] = {}
    confusion: dict[int, np.ndarray] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key = fields[0]
        if key not in _DEVICE_KEY_VALUES:
            raise ValueError(f"unknown device file key: {key}")
        if len(fields) != 1 + _DEVICE_KEY_VALUES[key]:
            raise ValueError(f"device file line {line!r}: {key} takes {_DEVICE_KEY_VALUES[key]} values")
        if key == "name":
            name = fields[1]
        elif key == "qubits":
            num_qubits = int(fields[1])
        elif key == "uniform_depolarizing":
            uniform_dep = float(fields[1])
        elif key == "crosstalk_default":
            crosstalk_default = float(fields[1])
        elif key == "edge":
            cnot_error[_edge(int(fields[1]), int(fields[2]))] = float(fields[3])
        elif key == "crosstalk":
            e1 = _edge(int(fields[1]), int(fields[2]))
            e2 = _edge(int(fields[3]), int(fields[4]))
            crosstalk[frozenset((e1, e2))] = float(fields[5])
        elif key == "readout":
            q, p01, p10 = int(fields[1]), float(fields[2]), float(fields[3])
            confusion[q] = np.array([[1.0 - p01, p01], [p10, 1.0 - p10]])
    if not name or num_qubits < 1:
        raise ValueError("device file needs 'name' and 'qubits'")
    return DeviceModel(
        name=name,
        num_qubits=num_qubits,
        cnot_error=cnot_error,
        crosstalk=crosstalk,
        crosstalk_default=crosstalk_default,
        readout_confusion=confusion,
        uniform_depolarizing=uniform_dep,
    )


def load_device(path: str | Path) -> DeviceModel:
    return parse_device(Path(path).read_text())


BUNDLED_DEVICES = ("ring14", "ladder16", "grid20a", "grid20b", "hex27a", "hex27b")


def bundled_device(name: str) -> DeviceModel:
    """Load one of the bundled synthetic device descriptions by name."""
    if name not in BUNDLED_DEVICES:
        raise ValueError(f"unknown bundled device {name!r}; have {BUNDLED_DEVICES}")
    text = resources.files("qfairdeploy.devices").joinpath(f"{name}.device").read_text()
    return parse_device(text)
