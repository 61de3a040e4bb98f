"""One-target synthesis references for the lockstep fit, used only by the tests.

`synthesis.fit_template` fits one template to a stack of targets, with every
target's starts in one descent batch, and `generate_candidate_lists` makes one
such call per distinct template across all partitions. This module keeps the
paths they replace: a descent per (target, template) against one shared
target, and a per-partition loop over the (k, placement) templates.

It also keeps a frozen copy of the descent's kernel as it stood before its
per-call overhead was cut (`_u3_layers`, `_forward`, the partial-trace
einsums and `value_and_grad_frozen`), so a test can hold the package's
`_value_and_grad` to it bit for bit instead of following its changes.
"""
from __future__ import annotations

import math

import numpy as np

from qfairdeploy.partition import Partition
from qfairdeploy.quantum import circuit_unitary
from qfairdeploy.seeding import spawn
from qfairdeploy.synthesis import (
    MAX_STEP,
    MIN_STEP,
    STEP_DECAY,
    STEP_GROW,
    STEP_SIZE,
    Candidate,
    CandidateList,
    OptimizerConfig,
    SynthesisError,
    SynthesisTemplate,
    _cnot_rows,
    _placement_patterns,
    hs_distance,
)


# --- the frozen kernel ------------------------------------------------------------

_U3_SIGN = np.array([1.0, -1.0, 1.0, 1.0])
_D_PHI = np.array([0.0, 0.0, 1j, 1j])
_D_LAM = np.array([0.0, 1j, 0.0, 1j])


def _u3_with_derivatives(
    theta: np.ndarray, phi: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    phase = np.exp(1j * np.stack([np.zeros_like(phi), lam, phi, phi + lam], axis=-1)) * _U3_SIGN
    u = np.stack([c, s, s, c], axis=-1) * phase
    d_theta = np.stack([-s, c, c, -s], axis=-1) * (0.5 * phase)
    du = np.stack([d_theta, u * _D_PHI, u * _D_LAM], axis=-2)
    return u.reshape(theta.shape + (2, 2)), du.reshape(theta.shape + (3, 2, 2))


def _kron_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    da, db = a.shape[-1], b.shape[-1]
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(a.shape[:-2] + (da * db, da * db))


def _u3_layers(num_qubits: int, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ang = params.reshape(params.shape[0], -1, num_qubits, 3)
    u, du = _u3_with_derivatives(ang[..., 0], ang[..., 1], ang[..., 2])
    layers = u[:, :, 0]
    for q in range(1, num_qubits):
        layers = _kron_batch(layers, u[:, :, q])
    return u, du, layers


_IDENTITY = {2**n: np.eye(2**n) for n in (1, 2, 3)}


def _forward(layers: np.ndarray, cnot_rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    before = np.empty_like(layers)
    before[:, 0] = _IDENTITY[layers.shape[-1]]
    unitary = layers[:, 0]
    for j, rows in enumerate(cnot_rows, 1):
        before[:, j] = unitary[:, rows]
        unitary = layers[:, j] @ before[:, j]
    return before, unitary


def _partial_trace_subscripts(num_qubits: int) -> list[str]:
    rows, cols = "abc"[:num_qubits], "def"[:num_qubits]
    return [
        "..." + rows + "".join(cols[p] if p == q else rows[p] for p in range(num_qubits))
        + "->..." + rows[q] + cols[q]
        for q in range(num_qubits)
    ]


_PARTIAL_TRACES = {n: _partial_trace_subscripts(n) for n in (1, 2, 3)}


def _gradient(num_qubits, cnot_rows, u, du, layers, before, w, t, d, shape):
    """The backward sweep from W = T, shared by both frozen objectives."""
    layers_dag = layers.conj().swapaxes(-1, -2)
    adjoint = np.empty_like(layers)  # L_j^dag W_j
    for j in range(layers.shape[1] - 1, -1, -1):
        np.matmul(layers_dag[:, j], w, out=adjoint[:, j])
        if j:
            w = adjoint[:, j][:, cnot_rows[j - 1]]
    n_op = adjoint @ before.conj().swapaxes(-1, -2)
    n_op = n_op.reshape(n_op.shape[:2] + (2,) * (2 * num_qubits))
    reduced = np.stack([np.einsum(sub, n_op) for sub in _PARTIAL_TRACES[num_qubits]], axis=2)
    dt = np.einsum("bjqkxy,bjqxy->bjqk", du.conj(), u @ reduced) / d
    grad = -2.0 * (t.conj()[:, None, None, None] * dt).real
    return grad.reshape(shape)


def value_and_grad_frozen(
    num_qubits: int, cnot_rows: list[np.ndarray], params: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`synthesis._value_and_grad` as it stood before its overhead was cut:
    f and its gradient for a (B, P) batch, each start against its own target
    of the (B, d, d) stack."""
    d = targets.shape[-1]
    u, du, layers = _u3_layers(num_qubits, params)
    before, unitary = _forward(layers, cnot_rows)
    t = np.einsum("bij,bij->b", unitary.conj(), targets) / d
    overlap = np.abs(t)
    f = np.maximum(0.0, 1.0 - overlap * overlap)
    return f, _gradient(num_qubits, cnot_rows, u, du, layers, before, targets, t, d, params.shape)


# --- one target at a time ----------------------------------------------------------


def _value_and_grad_alone(
    num_qubits: int, cnot_rows: list[np.ndarray], params: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance f = 1 - |Tr(U^dag T)|^2 / d^2 of a (B, P) batch and
    its exact gradient (B, P), by one forward and one backward sweep (the
    adjoint method), against one shared (d, d) target."""
    d = target.shape[0]
    u, du, layers = _u3_layers(num_qubits, params)
    before, unitary = _forward(layers, cnot_rows)
    t = np.einsum("bij,ij->b", unitary.conj(), target) / d
    overlap = np.abs(t)
    f = np.maximum(0.0, 1.0 - overlap * overlap)
    return f, _gradient(num_qubits, cnot_rows, u, du, layers, before, target, t, d, params.shape)


def fit_template_alone(
    template: SynthesisTemplate,
    target: np.ndarray,
    eps_syn: float,
    opt: OptimizerConfig,
    rng: np.random.Generator,
) -> Candidate | None:
    """Minimize the unitary distance to one target over the template's
    angles, stopping every start once one reaches (eps_syn/10)^2; the best
    start's candidate if its recomputed distance is within eps_syn, else
    None."""
    if eps_syn <= 0.0:
        raise ValueError("eps_syn must be positive")
    target = np.asarray(target, dtype=complex)
    if target.shape != (2**template.num_qubits,) * 2:
        raise ValueError("template/target dimension mismatch")

    nq = template.num_qubits
    cnot_rows = [_cnot_rows(nq, c, t) for c, t in template.placements]
    x = rng.uniform(0.0, 2.0 * math.pi, size=(opt.starts, template.num_params))
    f, grad = _value_and_grad_alone(nq, cnot_rows, x, target)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError("non-finite synthesis objective")
    lr = np.full(opt.starts, STEP_SIZE)
    target_sq = (eps_syn / 10.0) ** 2

    for _ in range(opt.iterations):
        if np.any(f <= target_sq):  # solved: every start stops
            break
        active = np.flatnonzero(lr > MIN_STEP)
        if not active.size:
            break
        prop = x[active] - lr[active, None] * grad[active]
        f_prop, grad_prop = _value_and_grad_alone(nq, cnot_rows, prop, target)
        if not np.all(np.isfinite(f_prop)):
            raise FloatingPointError("non-finite synthesis objective")
        improved = f_prop < f[active]
        accept = active[improved]
        x[accept] = prop[improved]
        f[accept] = f_prop[improved]
        grad[accept] = grad_prop[improved]  # the gradient at the new point
        lr[accept] = np.minimum(lr[accept] * STEP_GROW, MAX_STEP)
        lr[active[~improved]] *= STEP_DECAY

    best = int(np.argmin(f))
    circuit = template.realize(x[best])
    distance = hs_distance(circuit_unitary(circuit), target)  # re-verified
    if distance > eps_syn:
        return None
    return Candidate(circuit, distance)


def candidate_list_alone(
    part: Partition,
    eps_syn: float,
    k_max: int,
    opt: OptimizerConfig,
    seed: int,
    max_candidates: int,
) -> CandidateList:
    """One partition's list, its templates fitted one after another: k =
    0..k_max, the (capped) placements of each, every fit within eps_syn
    kept, sorted by (cnots, distance)."""
    nq = len(part.qubits)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if nq == 1:
        k_max = 0
    found: list[Candidate] = []
    pattern_rng = spawn(seed, "placement-patterns", part.index)
    for k in range(k_max + 1):
        for pat_idx, placements in enumerate(_placement_patterns(nq, k, pattern_rng)):
            template = SynthesisTemplate(nq, placements)
            fit_rng = spawn(seed, "template-fit", part.index, k, pat_idx)
            cand = fit_template_alone(template, part.target_unitary, eps_syn, opt, fit_rng)
            if cand is not None:
                found.append(cand)
    ordered = sorted(found, key=lambda c: (c.cnots, c.distance))
    if not ordered:
        raise SynthesisError(f"no candidate within eps_syn={eps_syn} for partition {part.index}")
    return CandidateList(part.index, tuple(ordered[:max_candidates]))
