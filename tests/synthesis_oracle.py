"""One-target synthesis references for the lockstep fit, used only by the tests.

`synthesis.fit_template` fits one template to a stack of targets, with every
target's starts in one descent batch, and `generate_candidate_lists` makes one
such call per distinct template across all partitions. This module keeps the
paths they replace: a descent per (target, template) against one shared
target, and a per-partition loop over the (k, placement) templates.
"""
from __future__ import annotations

import math

import numpy as np

from qfairdeploy.circuits import cnot_count as _cnot_count
from qfairdeploy.circuits import depth as _depth
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
    _forward,
    _PARTIAL_TRACES,
    _placement_patterns,
    _u3_layers,
    hs_distance,
)


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

    layers_dag = layers.conj().swapaxes(-1, -2)
    adjoint = np.empty_like(layers)  # L_j^dag W_j
    w = target
    for j in range(layers.shape[1] - 1, -1, -1):
        np.matmul(layers_dag[:, j], w, out=adjoint[:, j])
        if j:
            w = adjoint[:, j][:, cnot_rows[j - 1]]
    n_op = adjoint @ before.conj().swapaxes(-1, -2)
    n_op = n_op.reshape(n_op.shape[:2] + (2,) * (2 * num_qubits))
    reduced = np.stack([np.einsum(sub, n_op) for sub in _PARTIAL_TRACES[num_qubits]], axis=2)
    dt = np.einsum("bjqkxy,bjqxy->bjqk", du.conj(), u @ reduced) / d
    grad = -2.0 * (t.conj()[:, None, None, None] * dt).real
    return f, grad.reshape(params.shape)


def fit_template_alone(
    template: SynthesisTemplate,
    target: np.ndarray,
    eps_syn: float,
    opt: OptimizerConfig,
    rng: np.random.Generator,
) -> Candidate | None:
    """Minimize the unitary distance to one target over the template's
    angles; the best start's candidate if its recomputed distance is within
    eps_syn, else None."""
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
        active = np.flatnonzero((f > target_sq) & (lr > MIN_STEP))
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
    return Candidate(circuit=circuit, distance=distance, cnots=_cnot_count(circuit), depth=_depth(circuit))


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
