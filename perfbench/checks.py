"""Output checks for one timed run, independent of the package's own math.

Unitaries and distances are recomputed here with a few lines of numpy so a
bug in `circuit_unitary` or `hs_distance` cannot vouch for itself. Each check
returns a list of problems; an empty list means the run's outputs are correct.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# (alpha, beta) per scheme, as README documents them
WEIGHTS = {
    "quest": (0.5, 0.5), "random": (0.5, 0.5), "rl1": (0.1, 0.9), "rl2": (0.4, 0.5),
    "rl3": (0.5, 0.5), "rl4": (0.6, 0.4), "rl5": (0.9, 0.1),
}
REWARD_TOL = 1e-12
DISTANCE_TOL = 1e-9


def _u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


def _rzz(theta):
    a, b = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    return np.diag([a, b, b, a])


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_GATES = {"U3": _u3, "RZZ": _rzz, "CNOT": lambda: _CNOT}


def unitary(circuit) -> np.ndarray:
    """Product of the gates' matrices; qubit 0 is the most significant bit."""
    n, dim = circuit.num_qubits, 2 ** circuit.num_qubits
    u = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    for g in circuit.gates:
        k = len(g.qubits)
        m = _GATES[g.kind.name](*g.params).reshape([2] * (2 * k))
        u = np.moveaxis(np.tensordot(m, u, axes=(range(k, 2 * k), g.qubits)), range(k), g.qubits)
    return u.reshape(dim, dim)


def distance(u: np.ndarray, v: np.ndarray) -> float:
    """sqrt(1 - |Tr(u^dag v)|^2 / d^2), invariant to global phase."""
    t = abs(np.trace(u.conj().T @ v)) / u.shape[0]
    return math.sqrt(max(0.0, 1.0 - t * t))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_candidates(cache_root: Path, parts, eps_syn: float) -> list[str]:
    """(a) every cached candidate is within eps_syn of its partition's target."""
    from qfairdeploy.synthesis import load_candidate_lists

    dirs = [p.parent for p in cache_root.glob("synth-*/index.csv")]
    if len(dirs) != 1:
        return [f"expected one synthesis cache under {cache_root}, found {len(dirs)}"]
    lists = load_candidate_lists(dirs[0])
    if [cl.partition_index for cl in lists] != [p.index for p in parts]:
        return [f"cache lists partitions {[cl.partition_index for cl in lists]}"]
    problems = []
    for part, cl in zip(parts, lists):
        target = unitary(part.sub_circuit)
        for i, cand in enumerate(cl.candidates):
            d = distance(unitary(cand.circuit), target)
            if d > eps_syn + DISTANCE_TOL:
                problems.append(f"partition {part.index} candidate {i}: distance {d:.3g} > {eps_syn}")
    return problems


def check_reports(out_dir: Path) -> tuple[list[str], list[dict]]:
    """(b) bounds and reward arithmetic per row, (c) quest has the fewest CNOTs."""
    rows = json.loads((out_dir / "reports.json").read_text())
    problems = []
    for r in rows:
        alpha, beta = WEIGHTS[r["scheme"]]
        if not (0.0 <= r["accuracy"] <= 1.0 and 0.0 <= r["fairness"] <= 1.0):
            problems.append(f"{r['scheme']}: accuracy/fairness outside [0, 1]")
        if abs(r["reward"] - (alpha * r["fairness"] + beta * r["accuracy"])) > REWARD_TOL:
            problems.append(f"{r['scheme']}: reward {r['reward']} != alpha*fairness + beta*accuracy")
    quest = [r["cnot_count"] for r in rows if r["scheme"] == "quest"]
    if quest and any(r["cnot_count"] < quest[0] for r in rows):
        problems.append("a scheme deploys fewer CNOTs than quest")
    return problems, rows


def output_digests(out_dir: Path, names) -> dict[str, str]:
    """(d) digests of the files that must be byte-identical across runs."""
    return {p.name: digest(p) for n in names for p in sorted(out_dir.glob(n))}


def check_scan(out_dir: Path, features: np.ndarray, rows, eps: float, delta: float) -> tuple[list[str], float]:
    """(e) pair count, bias-pair thresholds against independently recomputed
    input distances, and 0 < k_hat <= 1. Returns the problems and k_hat."""
    with open(out_dir / "lipschitz.csv", newline="") as fh:
        lip = next(csv.DictReader(fh))
    k_hat, n = float(lip["k_hat"]), len(rows)
    problems = []
    if int(lip["pairs_examined"]) != n * (n - 1) // 2:
        problems.append(f"pairs_examined {lip['pairs_examined']} != n(n-1)/2 for n={n}")
    if not 0.0 < k_hat <= 1.0:
        problems.append(f"k_hat {k_hat} outside (0, 1]")
    with open(out_dir / "bias_pairs.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            i, j = int(rec["i"]), int(rec["j"])
            # RY(pi x) product states: <psi_x|psi_y> = prod_k cos(pi (x_k - y_k) / 2)
            overlap = np.prod(np.cos(np.pi * (features[i] - features[j]) / 2))
            d_in = math.sqrt(max(0.0, 1.0 - overlap * overlap))
            if abs(d_in - float(rec["input_distance"])) > DISTANCE_TOL or d_in > eps + DISTANCE_TOL:
                problems.append(f"pair {i},{j}: input distance {d_in:.6g} (file {rec['input_distance']})")
            if float(rec["output_distance"]) < delta - DISTANCE_TOL:
                problems.append(f"pair {i},{j}: output distance below delta")
    return problems, k_hat
