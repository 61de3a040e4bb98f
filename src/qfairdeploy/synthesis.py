"""Approximate synthesis: fit fixed gate skeletons (U3 layers interleaved with
CNOTs) to a partition's target unitary, keeping every candidate within the
unitary-distance budget.

The optimizer is a multi-start first-order descent with central-difference
gradients on the squared objective 1 - |Tr(U^dag T)|^2 / d^2. All starts run
in lockstep as one numpy batch, so objective and gradient evaluations are a
handful of vectorized matmuls per iteration.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuits import Circuit, Gate, GateKind, load_circuit, save_circuit
from .circuits import cnot_count as _cnot_count
from .circuits import depth as _depth
from .partition import Partition
from .quantum import circuit_unitary
from .seeding import spawn


class SynthesisError(RuntimeError):
    """No candidate within the budget for a partition."""


def hs_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant unitary distance sqrt(1 - |Tr(u^dag v)|^2 / d^2)."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("hs_distance needs two equal square matrices")
    d = u.shape[0]
    t = np.vdot(u, v) / d  # vdot conjugates u: Tr(u^dag v)/d elementwise
    at = abs(t)
    if at < 0.5:
        return math.sqrt(max(0.0, 1.0 - at * at))
    # near-zero distances: 1 - |t| collapses to rounding noise, so recover it
    # from the phase-aligned difference, which subtracts nearby floats exactly
    diff = u * (t / at) - v
    one_minus = float(np.vdot(diff, diff).real) / (2.0 * d)
    return math.sqrt(max(0.0, one_minus * (1.0 + at)))


# adaptive step of the descent, per start
STEP_SIZE = 0.1
STEP_DECAY = 0.5
STEP_GROW = 1.5  # re-growth on improvement; pure halving stalls far from optimum
MAX_STEP = 1.0
MIN_STEP = 1e-14
FD_STEP = 1e-6  # central-difference offset


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 8
    iterations: int = 500


@dataclass(frozen=True)
class SynthesisTemplate:
    """Skeleton: a U3 layer on every qubit, then per entangling slot one CNOT
    on a chosen pair followed by another full U3 layer."""

    num_qubits: int
    placements: tuple[tuple[int, int], ...]  # (control, target) per CNOT slot

    def __post_init__(self):
        if self.num_qubits not in (1, 2, 3):
            raise ValueError("templates cover 1-3 qubit blocks")
        for c, t in self.placements:
            if c == t or not (0 <= c < self.num_qubits) or not (0 <= t < self.num_qubits):
                raise ValueError(f"bad CNOT placement {(c, t)}")

    @property
    def k_cnots(self) -> int:
        return len(self.placements)

    @property
    def num_params(self) -> int:
        return 3 * self.num_qubits * (self.k_cnots + 1)

    def realize(self, params: np.ndarray) -> Circuit:
        """Instantiate the skeleton with concrete angles."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} angles, got {params.shape}")
        gates: list[Gate] = []
        idx = 0

        def u3_layer():
            nonlocal idx
            for q in range(self.num_qubits):
                gates.append(Gate(GateKind.U3, (q,), tuple(params[idx:idx + 3])))
                idx += 3

        u3_layer()
        for c, t in self.placements:
            gates.append(Gate(GateKind.CNOT, (c, t)))
            u3_layer()
        return Circuit(self.num_qubits, tuple(gates))


@dataclass(frozen=True)
class Candidate:
    circuit: Circuit
    distance: float
    cnots: int
    depth: int


@dataclass(frozen=True)
class CandidateList:
    partition_index: int
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        if not self.candidates:
            raise SynthesisError(f"empty candidate list for partition {self.partition_index}")
        keys = [(c.cnots, c.distance) for c in self.candidates]
        if keys != sorted(keys):
            raise ValueError("candidates must be sorted by (cnots, distance)")

    def __len__(self) -> int:
        return len(self.candidates)


# --- batched objective --------------------------------------------------------


def _u3_batch(theta: np.ndarray, phi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(B,) angle arrays -> (B, 2, 2) U3 matrices."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -np.exp(1j * lam) * s
    out[..., 1, 0] = np.exp(1j * phi) * s
    out[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return out


def _kron_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    da, db = a.shape[-1], b.shape[-1]
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(a.shape[:-2] + (da * db, da * db))


def _cnot_rows(num_qubits: int, control: int, target: int) -> np.ndarray:
    """Row order that applies a CNOT by indexing: row i of the product is row
    i of the operand with the target bit flipped when the control bit is set
    (qubit 0 is the most significant bit)."""
    idx = np.arange(2**num_qubits)
    flip = (idx & (1 << (num_qubits - 1 - control))) != 0
    return np.where(flip, idx ^ (1 << (num_qubits - 1 - target)), idx)


def _template_unitaries(template: SynthesisTemplate, params: np.ndarray) -> np.ndarray:
    """(B, P) angle batch -> (B, d, d) circuit unitaries."""
    nq = template.num_qubits
    per_layer = 3 * nq
    cnot_rows = [_cnot_rows(nq, c, t) for c, t in template.placements]

    def layer(offset: int) -> np.ndarray:
        mats = [
            _u3_batch(
                params[:, offset + 3 * q],
                params[:, offset + 3 * q + 1],
                params[:, offset + 3 * q + 2],
            )
            for q in range(nq)
        ]
        out = mats[0]
        for m in mats[1:]:
            out = _kron_batch(out, m)
        return out

    u = layer(0)
    for j, rows in enumerate(cnot_rows):
        u = layer(per_layer * (j + 1)) @ u[:, rows]
    return u


def _objective(template: SynthesisTemplate, params: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared distance 1 - |Tr(U^dag T)|^2 / d^2 for a (B, P) batch."""
    u = _template_unitaries(template, params)
    d = target.shape[0]
    overlap = np.abs(np.einsum("bij,ij->b", u.conj(), target)) / d
    return np.maximum(0.0, 1.0 - overlap * overlap)


def fit_template(
    template: SynthesisTemplate,
    target: np.ndarray,
    eps_syn: float,
    opt: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> Candidate | None:
    """Minimize the unitary distance over the template's angles.

    Returns the best candidate if its independently recomputed distance is
    within eps_syn, else None. Deterministic given the rng state.
    """
    if eps_syn <= 0.0:
        raise ValueError("eps_syn must be positive")
    target = np.asarray(target, dtype=complex)
    if target.shape != (2**template.num_qubits,) * 2:
        raise ValueError("template/target dimension mismatch")
    opt = opt or OptimizerConfig()
    rng = rng if rng is not None else np.random.default_rng(0)

    n_starts, n_params = opt.starts, template.num_params
    x = rng.uniform(0.0, 2.0 * math.pi, size=(n_starts, n_params))
    f = _objective(template, x, target)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError("non-finite synthesis objective")
    lr = np.full(n_starts, STEP_SIZE)
    target_sq = (eps_syn / 10.0) ** 2
    # central differences for every start at once: stack the 2P shifted
    # copies of each start into one batch evaluation
    shifts = np.concatenate([FD_STEP * np.eye(n_params), -FD_STEP * np.eye(n_params)])

    for _ in range(opt.iterations):
        active = (f > target_sq) & (lr > MIN_STEP)
        if not active.any():
            break
        pts = (x[:, None, :] + shifts[None, :, :]).reshape(-1, n_params)
        vals = _objective(template, pts, target).reshape(n_starts, 2 * n_params)
        grad = (vals[:, :n_params] - vals[:, n_params:]) / (2.0 * FD_STEP)

        prop = x - lr[:, None] * grad
        f_prop = _objective(template, prop, target)
        if not np.all(np.isfinite(f_prop)):
            raise FloatingPointError("non-finite synthesis objective")
        improved = f_prop < f
        accept = improved & active
        x[accept] = prop[accept]
        f[accept] = f_prop[accept]
        lr[accept] = np.minimum(lr[accept] * STEP_GROW, MAX_STEP)
        lr[active & ~improved] *= STEP_DECAY

    best = int(np.argmin(f))
    circuit = template.realize(x[best])
    distance = hs_distance(circuit_unitary(circuit), target)  # re-verified
    if distance > eps_syn:
        return None
    return Candidate(circuit=circuit, distance=distance, cnots=_cnot_count(circuit), depth=_depth(circuit))


# --- candidate generation ------------------------------------------------------

DEFAULT_MAX_CANDIDATES = 9
MAX_PATTERNS_PER_K = 20


def default_k_max(num_qubits: int) -> int:
    return {1: 0, 2: 4, 3: 8}[num_qubits]


def _placement_patterns(
    num_qubits: int, k: int, rng: np.random.Generator
) -> list[tuple[tuple[int, int], ...]]:
    """Ordered CNOT placement sequences for one k, capped by seeded sampling."""
    if k == 0:
        return [()]
    if num_qubits == 2:
        return [((0, 1),) * k]
    pairs = [(0, 1), (0, 2), (1, 2)]
    all_patterns = list(itertools.product(pairs, repeat=k))
    if len(all_patterns) <= MAX_PATTERNS_PER_K:
        return all_patterns
    chosen = rng.choice(len(all_patterns), size=MAX_PATTERNS_PER_K, replace=False)
    return [all_patterns[i] for i in sorted(chosen)]


def generate_candidates(
    part: Partition,
    eps_syn: float,
    k_max: int | None = None,
    opt: OptimizerConfig | None = None,
    seed: int = 0,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> CandidateList:
    """Search templates for k = 0..k_max and all (capped) CNOT placements;
    collect every fit within eps_syn, sort by (cnots, distance)."""
    nq = len(part.qubits)
    if k_max is None:
        k_max = default_k_max(nq)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if nq == 1:
        k_max = 0  # no pairs to entangle
    found: list[Candidate] = []
    pattern_rng = spawn(seed, "placement-patterns", part.index)
    for k in range(k_max + 1):
        for pat_idx, placements in enumerate(_placement_patterns(nq, k, pattern_rng)):
            template = SynthesisTemplate(nq, placements)
            fit_rng = spawn(seed, "template-fit", part.index, k, pat_idx)
            cand = fit_template(template, part.target_unitary, eps_syn, opt, fit_rng)
            if cand is not None:
                found.append(cand)
    # every (k, placement pattern) is fitted once, and its CNOT layout alone
    # sets its circuit apart, so no two candidates share a gate list
    ordered = sorted(found, key=lambda c: (c.cnots, c.distance))
    if not ordered:
        raise SynthesisError(
            f"no candidate within eps_syn={eps_syn} for partition {part.index}; "
            "raise eps_syn or k_max"
        )
    return CandidateList(part.index, tuple(ordered[:max_candidates]))


# --- on-disk form: one circuit file per candidate plus an index CSV -------------


def save_candidate_lists(lists: list[CandidateList], directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "index.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partition", "ordinal", "distance", "cnots", "depth", "file"])
        for cl in lists:
            for i, cand in enumerate(cl.candidates):
                fname = f"p{cl.partition_index:03d}_c{i:02d}.qc"
                save_circuit(cand.circuit, directory / fname)
                writer.writerow(
                    [cl.partition_index, i, "%.17g" % cand.distance, cand.cnots, cand.depth, fname]
                )


def load_candidate_lists(directory: str | Path) -> list[CandidateList]:
    directory = Path(directory)
    rows_by_partition: dict[int, list[Candidate]] = {}
    with open(directory / "index.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            cand = Candidate(
                circuit=load_circuit(directory / row["file"]),
                distance=float(row["distance"]),
                cnots=int(row["cnots"]),
                depth=int(row["depth"]),
            )
            rows_by_partition.setdefault(int(row["partition"]), []).append(cand)
    return [
        CandidateList(idx, tuple(cands))
        for idx, cands in sorted(rows_by_partition.items())
    ]
