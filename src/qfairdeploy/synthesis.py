"""Approximate synthesis: fit fixed gate skeletons (U3 layers interleaved with
CNOTs) to a partition's target unitary, keeping every candidate within the
unitary-distance budget.

The optimizer is a multi-start first-order descent on the squared objective
1 - |Tr(U^dag T)|^2 / d^2 with exact gradients from the adjoint method: one
forward sweep of prefix products and one backward sweep per step, whatever
the angle count. Every block that shares a template is fitted in one lockstep
batch: the starts of all its targets descend together as one numpy batch,
each start against its own target, so one template costs one descent however
many partitions use it. A target is solved once any of its starts reaches the
squared distance (eps_syn/10)^2, and all of its starts then leave the batch;
that rule reads only the target's own starts, so each target still descends
exactly as it would alone.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .circuits import Circuit, Gate, GateKind, load_circuit, save_circuit
from .circuits import cnot_count as _cnot_count
from .partition import Partition
from .quantum import circuit_unitary
from .seeding import spawn


class SynthesisError(RuntimeError):
    """No candidate within the budget for a partition."""


class CacheError(ValueError):
    """An on-disk candidate cache that cannot be read or fails re-verification."""


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


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 8
    iterations: int = 500

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"opt.starts must be >= 1, got {self.starts}")
        if self.iterations < 0:
            raise ValueError(f"opt.iterations must be >= 0, got {self.iterations}")


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

    @property
    def cnots(self) -> int:
        return _cnot_count(self.circuit)

    @cached_property
    def unitary(self) -> np.ndarray:
        """The circuit's 2^k matrix, built on first use."""
        return circuit_unitary(self.circuit)


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


# --- batched objective and its adjoint gradient ---------------------------------

# U3 entries, row-major: [cos, -e^{i lam} sin, e^{i phi} sin, e^{i(phi+lam)} cos]
# of theta/2. d/dtheta swaps cos and -sin and halves; d/dphi multiplies the
# lower row by i, d/dlam the right column.
_U3_SIGN = np.array([1.0, -1.0, 1.0, 1.0])
_D_PHI = np.array([0.0, 0.0, 1j, 1j])
_D_LAM = np.array([0.0, 1j, 0.0, 1j])


def _u3_with_derivatives(
    theta: np.ndarray, phi: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Angle arrays of one shape S -> U3 matrices (S, 2, 2) and their
    theta/phi/lam derivatives (S, 3, 2, 2), each entry built in its slot."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    angles = np.empty(theta.shape + (4,))  # of the phases, row-major
    angles[..., 0] = 0.0
    angles[..., 1] = lam
    angles[..., 2] = phi
    np.add(phi, lam, out=angles[..., 3])
    phase = np.exp(1j * angles) * _U3_SIGN
    trig = np.empty(theta.shape + (2, 4))  # the U3's cos/sin pattern, then d/dtheta's
    trig[..., 0, 0] = trig[..., 0, 3] = trig[..., 1, 1] = trig[..., 1, 2] = c
    trig[..., 0, 1] = trig[..., 0, 2] = s
    np.negative(s, out=trig[..., 1, 0])
    trig[..., 1, 3] = trig[..., 1, 0]
    du = np.empty(theta.shape + (3, 4), dtype=complex)
    u = trig[..., 0, :] * phase
    np.multiply(trig[..., 1, :], 0.5 * phase, out=du[..., 0, :])
    np.multiply(u, _D_PHI, out=du[..., 1, :])
    np.multiply(u, _D_LAM, out=du[..., 2, :])
    return u.reshape(theta.shape + (2, 2)), du.reshape(theta.shape + (3, 2, 2))


def _kron_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    da, db = a.shape[-1], b.shape[-1]
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(a.shape[:-2] + (da * db, da * db))


def _cnot_rows(num_qubits: int, control: int, target: int) -> np.ndarray:
    """Row order that applies a CNOT by indexing: row i of the product is row
    i of the operand with the target bit flipped when the control bit is set
    (qubit 0 is the most significant bit). The order is its own inverse."""
    idx = np.arange(2**num_qubits)
    flip = (idx & (1 << (num_qubits - 1 - control))) != 0
    return np.where(flip, idx ^ (1 << (num_qubits - 1 - target)), idx)


def _u3_layers(num_qubits: int, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, P) angle batch -> per-qubit U3 matrices (B, K+1, n, 2, 2), their
    theta/phi/lam derivatives (B, K+1, n, 3, 2, 2) and the layer products
    (B, K+1, d, d), qubit 0 the most significant factor."""
    ang = params.reshape(params.shape[0], -1, num_qubits, 3)
    u, du = _u3_with_derivatives(ang[..., 0], ang[..., 1], ang[..., 2])
    layers = u[:, :, 0]
    for q in range(1, num_qubits):
        layers = _kron_batch(layers, u[:, :, q])
    return u, du, layers


_IDENTITY = {2**n: np.eye(2**n) for n in (1, 2, 3)}


def _forward(layers: np.ndarray, cnot_rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Forward sweep over a (B, K+1, d, d) layer stack: the product of
    everything ahead of each U3 layer (CNOT slot j included, the identity
    ahead of layer 0), and the whole circuit unitary (B, d, d)."""
    before = np.empty_like(layers)
    before[:, 0] = _IDENTITY[layers.shape[-1]]
    unitary = layers[:, 0]
    for j, rows in enumerate(cnot_rows, 1):
        np.take(unitary, rows, axis=1, out=before[:, j])
        unitary = layers[:, j] @ before[:, j]
    return before, unitary


def _partial_trace_subscripts(num_qubits: int) -> list[str]:
    """einsum subscripts tracing a (2,)*2n operator down to qubit q, per q."""
    rows, cols = "abc"[:num_qubits], "def"[:num_qubits]
    return [
        "..." + rows + "".join(cols[p] if p == q else rows[p] for p in range(num_qubits))
        + "->..." + rows[q] + cols[q]
        for q in range(num_qubits)
    ]


_PARTIAL_TRACES = {n: _partial_trace_subscripts(n) for n in (1, 3)}


def _partial_traces(n_op: np.ndarray, num_qubits: int) -> np.ndarray:
    """A (B, J, d, d) operator stack traced down to each qubit q in turn,
    (B, J, n, 2, 2). At two qubits each trace is one add of two 2 x 2
    slices, as the einsum sums them."""
    n_op = n_op.reshape(n_op.shape[:2] + (2,) * (2 * num_qubits))
    if num_qubits != 2:
        return np.stack([np.einsum(sub, n_op) for sub in _PARTIAL_TRACES[num_qubits]], axis=2)
    reduced = np.empty(n_op.shape[:2] + (2, 2, 2), dtype=n_op.dtype)
    np.add(n_op[..., :, 0, :, 0], n_op[..., :, 1, :, 1], out=reduced[:, :, 0])
    np.add(n_op[..., 0, :, 0, :], n_op[..., 1, :, 1, :], out=reduced[:, :, 1])
    return reduced


def _value_and_grad(
    num_qubits: int, cnot_rows: list[np.ndarray], params: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance f = 1 - |Tr(U^dag T)|^2 / d^2 of a (B, P) batch, each
    start against its own target of the (B, d, d) stack, and its exact
    gradient (B, P), by one forward and one backward sweep (the adjoint
    method).

    With U = A_j L_j B_j around U3 layer j, dt = Tr(dL_j^dag A_j^dag T B_j^dag)
    / d. The backward sweep carries W_j = A_j^dag T down the layers;
    N_j = L_j^dag W_j B_j^dag traced down to qubit q gives R_q, and
    Tr(du^dag u R_q) is the derivative for each angle of that qubit's U3.
    Then df = -2 Re(conj(t) dt).
    """
    d = targets.shape[-1]
    u, du, layers = _u3_layers(num_qubits, params)
    before, unitary = _forward(layers, cnot_rows)
    t = np.einsum("bij,bij->b", unitary.conj(), targets) / d
    overlap = np.abs(t)
    f = np.maximum(0.0, 1.0 - overlap * overlap)

    layers_dag = layers.conj().swapaxes(-1, -2)
    adjoint = np.empty_like(layers)  # L_j^dag W_j
    w = targets
    for j in range(layers.shape[1] - 1, -1, -1):
        np.matmul(layers_dag[:, j], w, out=adjoint[:, j])
        if j:
            w = adjoint[:, j][:, cnot_rows[j - 1]]
    reduced = _partial_traces(adjoint @ before.conj().swapaxes(-1, -2), num_qubits)
    dt = np.einsum("bjqkxy,bjqxy->bjqk", du.conj(), u @ reduced) / d
    grad = -2.0 * (t.conj()[:, None, None, None] * dt).real
    return f, grad.reshape(params.shape)


def fit_template(
    template: SynthesisTemplate,
    targets: np.ndarray,
    eps_syn: float,
    opt: OptimizerConfig,
    rngs: list[np.random.Generator],
) -> list[Candidate | None]:
    """Minimize the unitary distance to each of a (m, d, d) stack of targets
    over the template's angles, all targets in one lockstep descent.

    Target i's opt.starts starts come from rngs[i], and each start descends
    against its own target exactly as it would alone. A start stops when its
    step shrinks below MIN_STEP, and all of a target's starts stop once one
    of them reaches f <= (eps_syn/10)^2: that target is solved. Per target,
    returns its lowest-f start's candidate (for a solved target, the lowest
    among the starts that crossed the threshold first) if its independently
    recomputed distance is within eps_syn, else None. Deterministic given
    the rng states.
    """
    if eps_syn <= 0.0:
        raise ValueError("eps_syn must be positive")
    targets = np.asarray(targets, dtype=complex)
    d = 2**template.num_qubits
    if targets.ndim != 3 or targets.shape[1:] != (d, d) or not len(targets):
        raise ValueError(f"targets must be a non-empty (m, {d}, {d}) stack, got {targets.shape}")
    if len(rngs) != len(targets):
        raise ValueError(f"{len(targets)} targets need as many rngs, got {len(rngs)}")

    nq = template.num_qubits
    cnot_rows = [_cnot_rows(nq, c, t) for c, t in template.placements]
    x = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, size=(opt.starts, template.num_params))
                        for rng in rngs])
    start_targets = np.repeat(targets, opt.starts, axis=0)
    f, grad = _value_and_grad(nq, cnot_rows, x, start_targets)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError("non-finite synthesis objective")
    target_sq = (eps_syn / 10.0) ** 2
    # the starts still descending, kept compacted in batch order: their batch
    # positions, targets and state; a start's x and f go back when it stops
    live = np.arange(len(x))
    owner = live // opt.starts
    lr = np.full(len(x), STEP_SIZE)
    lx, lf, lgrad, ltargets = x, f, grad, start_targets
    for _ in range(opt.iterations):
        done = lr <= MIN_STEP
        if lf.min() <= target_sq:  # a solved target: all its starts stop
            solved = np.zeros(len(targets), dtype=bool)
            solved[owner[lf <= target_sq]] = True
            done |= solved[owner]
        if done.any():
            x[live[done]], f[live[done]] = lx[done], lf[done]
            keep = ~done
            live, owner, lr = live[keep], owner[keep], lr[keep]
            lx, lf, lgrad, ltargets = lx[keep], lf[keep], lgrad[keep], ltargets[keep]
            if not live.size:
                break
        prop = lx - lr[:, None] * lgrad
        f_prop, grad_prop = _value_and_grad(nq, cnot_rows, prop, ltargets)
        if not np.isfinite(f_prop).all():
            raise FloatingPointError("non-finite synthesis objective")
        improved = f_prop < lf
        np.copyto(lx, prop, where=improved[:, None])
        np.copyto(lf, f_prop, where=improved)
        np.copyto(lgrad, grad_prop, where=improved[:, None])  # the gradient at the new point
        # steps start at STEP_SIZE <= MAX_STEP, so the cap changes only grown ones
        lr = np.minimum(lr * np.where(improved, STEP_GROW, STEP_DECAY), MAX_STEP)
    x[live], f[live] = lx, lf

    # each target's best start, as an index into the whole batch
    best = np.argmin(f.reshape(len(targets), opt.starts), axis=1) + np.arange(0, len(x), opt.starts)
    found: list[Candidate | None] = []
    for target, b in zip(targets, best):
        circuit = template.realize(x[b])
        distance = hs_distance(circuit_unitary(circuit), target)  # re-verified
        found.append(None if distance > eps_syn else Candidate(circuit, distance))
    return found


# --- candidate generation ------------------------------------------------------

DEFAULT_MAX_CANDIDATES = 9
MAX_PATTERNS_PER_K = 20
# gap below the overlap a fit must reach; it absorbs the rounding of the SVD
_PRUNE_GAP = 1e-9


def _cut_singular_values(target: np.ndarray) -> list[np.ndarray]:
    """Per qubit a, the singular values of the target realigned across the
    cut {a} | rest: the 4 x d^2/4 matrix R[(i, j), (k, l)] = T[(i, k), (j, l)],
    i and j qubit a's row and column bits. They are the target's
    operator-Schmidt coefficients across that cut. Empty for one qubit."""
    nq = int(round(math.log2(target.shape[0])))
    tensor = target.reshape((2,) * (2 * nq))
    return [np.linalg.svd(np.moveaxis(tensor, (a, nq + a), (0, 1)).reshape(4, -1), compute_uv=False)
            for a in range(nq)] if nq > 1 else []


def _cannot_fit(template: SynthesisTemplate, cut_svals: list[np.ndarray], eps_syn: float) -> bool:
    """Whether no circuit of the template lies within eps_syn of the target
    whose `_cut_singular_values` are given, so its fit would return None.

    On a cut {a} | rest that m <= 1 of the template's CNOTs cross, every
    circuit of the template has 2^m operator-Schmidt coefficients, each
    sqrt(d / 2^m). By von Neumann's trace inequality |Tr(U^dag T)| / d is
    then at most sqrt(d / 2^m) * (sum of the target's 2^m largest) / d, and
    a distance within eps_syn needs that overlap to reach sqrt(1 - eps_syn^2).
    The comparison is of overlaps: sqrt(1 - b^2) would turn a 1e-16 rounding
    of a bound b near 1 into 1.5e-8 of distance. The bound is never below
    1/2, so the test fires only for eps_syn < sqrt(3)/2, where the gap is
    at least 1e-9 in squared distance, far above the fit's rounding.
    """
    d = 2**template.num_qubits
    floor = math.sqrt(1.0 - eps_syn**2) - _PRUNE_GAP
    for a, svals in enumerate(cut_svals):
        m = sum(a in pair for pair in template.placements)
        if m <= 1 and math.sqrt(d / 2**m) * svals[:2**m].sum() / d < floor:
            return True
    return False


def _placement_patterns(
    num_qubits: int, k: int, rng: np.random.Generator
) -> list[tuple[tuple[int, int], ...]]:
    """Ordered CNOT placement sequences for one k, capped by seeded sampling.

    Pattern i is the i-th of itertools.product(pairs, repeat=k): its base-3
    digits, first slot most significant, pick each slot's pair. Only the
    drawn indices are decoded, so memory does not grow with 3^k."""
    if num_qubits == 2:
        return [((0, 1),) * k]
    pairs = [(0, 1), (0, 2), (1, 2)]
    total = 3**k
    if total <= MAX_PATTERNS_PER_K:
        chosen = range(total)
    else:
        chosen = sorted(int(i) for i in rng.choice(total, size=MAX_PATTERNS_PER_K, replace=False))
    return [tuple(pairs[i // 3**slot % 3] for slot in reversed(range(k))) for i in chosen]


def generate_candidate_lists(
    parts: list[Partition],
    eps_syn: float,
    k_max: int,
    opt: OptimizerConfig,
    seed: int,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> list[CandidateList]:
    """One candidate list per partition: search templates for k = 0..k_max
    and all (capped) CNOT placements, collect every fit within eps_syn, sort
    by (cnots, distance) and keep the first max_candidates.

    Every partition that uses a template is fitted in the same lockstep
    fit_template call, so each distinct template descends once. Each fit
    draws from its own (partition, k, placement) rng stream, so a list is
    the same whichever other partitions are synthesized with it. A fit that
    `_cannot_fit` proves out of reach is skipped: it would return None.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    # template -> (partition position, fit ordinal within it, rng) per fit
    jobs: dict[SynthesisTemplate, list[tuple[int, int, np.random.Generator]]] = {}
    fits: list[list[Candidate | None]] = []
    for pos, part in enumerate(parts):
        nq = len(part.qubits)
        pattern_rng = spawn(seed, "placement-patterns", part.index)
        cut_svals = _cut_singular_values(part.target_unitary)
        ordinal = 0
        for k in range(k_max + 1 if nq > 1 else 1):  # a 1-qubit block has no pairs
            for pat_idx, placements in enumerate(_placement_patterns(nq, k, pattern_rng)):
                template = SynthesisTemplate(nq, placements)
                if not _cannot_fit(template, cut_svals, eps_syn):
                    fit_rng = spawn(seed, "template-fit", part.index, k, pat_idx)
                    jobs.setdefault(template, []).append((pos, ordinal, fit_rng))
                ordinal += 1
        fits.append([None] * ordinal)
    for template, group in jobs.items():
        targets = np.stack([parts[pos].target_unitary for pos, _, _ in group])
        found = fit_template(template, targets, eps_syn, opt, [rng for _, _, rng in group])
        for (pos, ordinal, _), cand in zip(group, found):
            fits[pos][ordinal] = cand

    lists = []
    for part, part_fits in zip(parts, fits):
        # fits stay in (k, placement) order, so ties sort as if fitted one by
        # one; every (k, placement pattern) is fitted once, and its CNOT
        # layout alone sets its circuit apart, so no two candidates share a
        # gate list
        ordered = sorted((c for c in part_fits if c is not None),
                         key=lambda c: (c.cnots, c.distance))
        if not ordered:
            raise SynthesisError(
                f"no candidate within eps_syn={eps_syn} for partition {part.index}; "
                "raise eps_syn or k_max"
            )
        lists.append(CandidateList(part.index, tuple(ordered[:max_candidates])))
    return lists


def generate_candidates(
    part: Partition,
    eps_syn: float,
    k_max: int,
    opt: OptimizerConfig | None = None,
    seed: int = 0,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> CandidateList:
    """One partition's candidate list, as generate_candidate_lists([part])
    builds it; opt defaults to OptimizerConfig()."""
    return generate_candidate_lists(
        [part], eps_syn, k_max, opt or OptimizerConfig(), seed, max_candidates)[0]


# --- on-disk form: one circuit file per candidate plus an index CSV -------------


def save_candidate_lists(lists: list[CandidateList], directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "index.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partition", "ordinal", "distance", "file"])
        for cl in lists:
            for i, cand in enumerate(cl.candidates):
                fname = f"p{cl.partition_index:03d}_c{i:02d}.qc"
                save_circuit(cand.circuit, directory / fname)
                writer.writerow([cl.partition_index, i, "%.17g" % cand.distance, fname])


def load_candidate_lists(directory: str | Path) -> list[CandidateList]:
    """Read lists written by save_candidate_lists; CacheError when the index
    or a circuit file is missing or does not parse. Index columns other than
    partition, distance and file are ignored."""
    directory = Path(directory)
    rows_by_partition: dict[int, list[Candidate]] = {}
    try:
        with open(directory / "index.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                cand = Candidate(load_circuit(directory / row["file"]), float(row["distance"]))
                rows_by_partition.setdefault(int(row["partition"]), []).append(cand)
        return [
            CandidateList(idx, tuple(cands))
            for idx, cands in sorted(rows_by_partition.items())
        ]
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"unreadable candidate cache {directory}: {exc}") from exc


def verify_candidate_lists(
    lists: list[CandidateList], parts: list[Partition], eps_syn: float
) -> None:
    """Re-verify loaded lists against the partitions they were built for.

    Raises CacheError unless there is one list per partition, in order, and
    every candidate's recomputed distance to its partition's target is within
    eps_syn and equals its recorded distance (to 1e-9 relative, which absorbs
    only float rounding).
    """
    if [cl.partition_index for cl in lists] != [p.index for p in parts]:
        raise CacheError(f"cache lists partitions {[cl.partition_index for cl in lists]}, "
                         f"expected {[p.index for p in parts]}")
    for cl, part in zip(lists, parts):
        for i, cand in enumerate(cl.candidates):
            where = f"candidate {i} of partition {part.index}"
            if cand.circuit.num_qubits != len(part.qubits):
                raise CacheError(f"{where} acts on {cand.circuit.num_qubits} qubits, "
                                 f"the partition on {len(part.qubits)}")
            distance = hs_distance(cand.unitary, part.target_unitary)
            recorded = math.isclose(distance, cand.distance, rel_tol=1e-9, abs_tol=1e-15)
            if distance > eps_syn or not recorded:
                raise CacheError(f"{where} is at distance {distance!r}, "
                                 f"recorded {cand.distance!r}, budget {eps_syn!r}")
