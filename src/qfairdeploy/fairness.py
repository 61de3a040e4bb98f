"""Individual-fairness analysis of a classifier under device noise.

Input similarity is the trace distance between encoded states; output
difference is the total-variation distance between measured outcome
distributions. The empirical Lipschitz constant is the maximum output/input
ratio over dataset pairs, a documented lower bound on the true constant.

Bias pairs and the Lipschitz estimate share one pass over the pairs: each
row is simulated once, then compared against all later rows at once, so a
scan over n rows needs O(n) extra memory, not the n(n-1)/2 pair list.

The device error rate p doubles as the fairness proxy score: under pure
depolarizing noise the noisy constant contracts to (1 - p) times the
noiseless one, so p controls how much the device flattens output gaps.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .device import DeviceModel
from .qnn import Dataset, QnnModel, encode, output_distribution
from .quantum import simulate_state, total_variation, trace_distance_pure

# Input distances at or below this count as identical encodings. It sits well
# above the rounding floor of trace_distance_pure, which gives two identical
# states a distance of up to 3.0e-8 at 4 qubits (4.2e-8 at 8, 3.3e-8 at 12):
# sqrt(1 - overlap^2) turns an overlap one ulp below 1 into ~1.5e-8.
DEGENERATE_TOL = 1e-6


@dataclass(frozen=True)
class BiasPair:
    i: int
    j: int
    input_distance: float
    output_distance: float


@dataclass(frozen=True)
class LipschitzEstimate:
    k_hat: float
    argmax_pair: tuple[int, int] | None
    pairs_examined: int
    degenerate_pairs: int


def _pair_pass(model: QnnModel, device: DeviceModel | None, data: Dataset, rows):
    """Walk every unordered pair of `rows` once, in sorted-row order.

    Each row's encoded state and output distribution are computed once and
    stacked. Row a then meets rows a+1..n-1 in one broadcast call of each
    metric, so the pass holds O(n) distances at a time, never the pair list.
    Yields (i, later, d_in, d_out): a row, the array of later rows, and the
    input and output distances to each of them. All rows by default.
    """
    rows = np.array(sorted(range(len(data.labels)) if rows is None else rows), dtype=int)
    if len(rows) < 2:
        raise ValueError("need at least 2 rows")
    states = np.stack([simulate_state(encode(data.features[i])) for i in rows])
    dists = np.stack([output_distribution(model, data.features[i], device) for i in rows])
    for a in range(len(rows) - 1):
        yield (int(rows[a]), rows[a + 1:],
               trace_distance_pure(states[a], states[a + 1:]),
               total_variation(dists[a], dists[a + 1:]))


def find_bias_pairs(
    model: QnnModel,
    device: DeviceModel | None,
    data: Dataset,
    eps: float,
    delta: float,
    rows=None,
) -> list[BiasPair]:
    """All unordered row pairs whose encoded states are within eps while their
    output distributions differ by at least delta. Exact-measurement mode, so
    the result is deterministic."""
    if not (0.0 < eps <= 1.0 and 0.0 < delta <= 1.0):
        raise ValueError("eps and delta must lie in (0, 1]")
    out = []
    for i, later, d_in, d_out in _pair_pass(model, device, data, rows):
        hit = (d_in <= eps) & (d_out >= delta)
        out += [BiasPair(i, int(j), float(x), float(y))
                for j, x, y in zip(later[hit], d_in[hit], d_out[hit])]
    return out


def estimate_lipschitz(
    model: QnnModel,
    device: DeviceModel | None,
    data: Dataset,
    rows=None,
) -> LipschitzEstimate:
    """Empirical constant: max over all row pairs of output/input distance,
    clamped to 1; the first pair in sorted-row order to reach the maximum is
    reported. Degenerate pairs (identical encodings) are skipped and counted."""
    k_hat, argmax, examined, degenerate = 0.0, None, 0, 0
    for i, later, d_in, d_out in _pair_pass(model, device, data, rows):
        examined += len(later)
        usable = d_in > DEGENERATE_TOL
        degenerate += int(usable.size - usable.sum())
        if not usable.any():
            continue
        ratios = d_out[usable] / d_in[usable]
        best = int(np.argmax(ratios))
        if ratios[best] > k_hat:
            k_hat, argmax = float(ratios[best]), (i, int(later[usable][best]))
    return LipschitzEstimate(min(k_hat, 1.0), argmax, examined, degenerate)


def noisy_lipschitz(k_star: float, p: float) -> float:
    """Constant of the depolarized model: (1 - p) * k_star."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    if not 0.0 < k_star <= 1.0:
        raise ValueError("k_star outside (0, 1]")
    return (1.0 - p) * k_star


def is_fair(k_star: float, eps: float, delta: float) -> bool:
    """Whether outputs can differ by delta only when inputs differ beyond eps."""
    if not (0.0 < eps <= 1.0 and 0.0 < delta <= 1.0):
        raise ValueError("thresholds must lie in (0, 1]")
    return delta >= k_star * eps


def fairness_score(p: float) -> float:
    """The deployment fairness proxy: the measured error rate itself."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    return p


# --- CSV reports -----------------------------------------------------------------


def write_bias_pairs_csv(pairs: list[BiasPair], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "input_distance", "output_distance"])
        for p in pairs:
            writer.writerow([p.i, p.j, "%.12g" % p.input_distance, "%.12g" % p.output_distance])


def write_lipschitz_csv(est: LipschitzEstimate, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_hat", "argmax_i", "argmax_j", "pairs_examined", "degenerate_pairs"])
        i, j = est.argmax_pair if est.argmax_pair else ("", "")
        writer.writerow(["%.12g" % est.k_hat, i, j, est.pairs_examined, est.degenerate_pairs])
