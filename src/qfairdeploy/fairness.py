"""Individual-fairness analysis of a classifier under device noise.

Input similarity is the trace distance between encoded states; output
difference is the total-variation distance between measured outcome
distributions. The empirical Lipschitz constant is the maximum output/input
ratio over dataset pairs, a documented lower bound on the true constant.

`fairness_scan` finds the bias pairs and the Lipschitz estimate in one
walk over the pairs: the outputs of all rows evolve as one batch, then each
block of rows is compared against all later rows in one broadcast. The
encoded inputs are product states, so a pair's input overlap is a product
of q per-qubit terms (`qnn.encoded_overlap`), not a sum over 2^q
amplitudes. The broadcast holds a few (block, n) slabs for n rows, whatever
q is, and the block is sized so they stay near 1 MB; the n(n-1)/2 pair list
is never built.
`find_bias_pairs` and `estimate_lipschitz` fold the same walk for one
output each.

The device error rate p doubles as the fairness proxy score: under pure
depolarizing noise the noisy constant contracts to (1 - p) times the
noiseless one, so p controls how much the device flattens output gaps.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np

from .device import DeviceModel
from .qnn import Dataset, QnnModel, encoded_halves, encoded_overlap, output_distribution
# simulate_state: unused, but perfbench/tracer.py TRACED wraps it here (ROADMAP item 1)
from .quantum import simulate_state, total_variation

# Input distances at or below this count as identical encodings. It sits well
# above the rounding floor of `_input_distance`: over 400,000 random rows, a
# row against itself gave up to 2.1e-8 at 1 qubit, 3.7e-8 at 4, 4.5e-8 at 8
# and 4.9e-8 at 12, as sqrt(1 - overlap^2) turns an overlap one ulp off 1
# into ~1.5e-8.
DEGENERATE_TOL = 1e-6

# Floats in the (block rows x n rows) slabs alive at once in one block's step,
# about 8 of them (the overlap's running product and its two terms, the
# outcome-first difference, the fold's masks and ratios): 1 MiB, so a scan of
# 1,200 rows compares 13 rows per block at any qubit count.
_BLOCK_FLOATS = 1 << 17


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


def _input_distance(a, b) -> np.ndarray:
    """Trace distance sqrt(1 - o^2) between encoded inputs, o their
    `encoded_overlap` from `encoded_halves` columns; elementwise, so a
    block's distances are bitwise the ones a call per pair gives."""
    overlap = encoded_overlap(a, b)
    return np.sqrt(np.maximum(0.0, 1.0 - overlap * overlap))


def _block_walk(model: QnnModel, device: DeviceModel | None, data: Dataset, rows):
    """Walk every unordered pair of `rows` once, block by block of rows.

    Per-qubit halves and output distributions come as one batch each. A
    block of rows then meets every row after its first in one broadcast call
    of each metric, so each distance is bitwise the one a call per pair
    gives: the overlaps take the same per-qubit product, and the
    distributions, outcome-first, the same 2-term sum.
    Yields (i, j, later, d_in, d_out): the block's rows, the rows they meet,
    the mask of pairs with j after i, and the (block, len(j)) input and
    output distances. Rows are walked in sorted order; all rows by default,
    else distinct indices into the dataset.
    """
    size = len(data.labels)
    rows = np.array(sorted(range(size) if rows is None else rows))
    if len(rows) < 2:
        raise ValueError("need at least 2 rows")
    if (rows.dtype.kind not in "iu" or rows[0] < 0 or rows[-1] >= size
            or (rows[1:] == rows[:-1]).any()):
        raise ValueError(f"rows must be distinct indices in [0, {size})")
    halves = encoded_halves(data.features[rows])
    outcomes = output_distribution(model, data.features[rows], device).T.copy()
    n = len(rows)
    block = max(1, _BLOCK_FLOATS // (8 * n))
    for a in range(0, n - 1, block):
        mine, theirs = slice(a, a + block), slice(a + 1, n)
        later = np.arange(a + 1, n) > np.arange(a, min(a + block, n))[:, None]
        yield (rows[mine], rows[theirs], later,
               _input_distance(halves[:, :, mine, None], halves[:, :, None, theirs]),
               total_variation(outcomes[:, mine, None], outcomes[:, None, theirs]))


def _bias_pairs_in(block, eps: float, delta: float) -> list[BiasPair]:
    """A block's pairs within eps in input and at least delta apart in
    output; np.nonzero keeps them in sorted-row order."""
    i, j, later, d_in, d_out = block
    hit = np.nonzero(later & (d_in <= eps) & (d_out >= delta))
    return [BiasPair(int(i[a]), int(j[b]), float(x), float(y))
            for a, b, x, y in zip(*hit, d_in[hit], d_out[hit])]


_NO_PAIRS = LipschitzEstimate(0.0, None, 0, 0)


def _lipschitz_step(est: LipschitzEstimate, block) -> LipschitzEstimate:
    """Fold one block into a running, unclamped estimate. The block's flat
    argmax is its first maximal pair in sorted-row order, and it replaces
    the running one only when strictly greater."""
    i, j, later, d_in, d_out = block
    usable = later & (d_in > DEGENERATE_TOL)
    examined = int(later.sum())
    est = replace(est, pairs_examined=est.pairs_examined + examined,
                  degenerate_pairs=est.degenerate_pairs + examined - int(usable.sum()))
    if not usable.any():
        return est
    ratios = np.where(usable, d_out / np.where(usable, d_in, 1.0), -1.0)
    a, b = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    if ratios[a, b] > est.k_hat:
        est = replace(est, k_hat=float(ratios[a, b]), argmax_pair=(int(i[a]), int(j[b])))
    return est


def _clamped(est: LipschitzEstimate) -> LipschitzEstimate:
    return replace(est, k_hat=min(est.k_hat, 1.0))


def _check_thresholds(eps: float, delta: float) -> None:
    if not (0.0 < eps <= 1.0 and 0.0 < delta <= 1.0):
        raise ValueError("eps and delta must lie in (0, 1]")


def fairness_scan(
    model: QnnModel,
    device: DeviceModel | None,
    data: Dataset,
    eps: float,
    delta: float,
    rows=None,
) -> tuple[list[BiasPair], LipschitzEstimate]:
    """`find_bias_pairs` and `estimate_lipschitz` of the same arguments,
    from one walk over the pairs."""
    _check_thresholds(eps, delta)
    pairs, est = [], _NO_PAIRS
    for block in _block_walk(model, device, data, rows):
        pairs += _bias_pairs_in(block, eps, delta)
        est = _lipschitz_step(est, block)
    return pairs, _clamped(est)


def find_bias_pairs(
    model: QnnModel,
    device: DeviceModel | None,
    data: Dataset,
    eps: float,
    delta: float,
    rows=None,
) -> list[BiasPair]:
    """All unordered row pairs whose encoded states are within eps while their
    output distributions differ by at least delta, in sorted-row order.
    Exact-measurement mode, so the result is deterministic."""
    _check_thresholds(eps, delta)
    return [pair for block in _block_walk(model, device, data, rows)
            for pair in _bias_pairs_in(block, eps, delta)]


def estimate_lipschitz(
    model: QnnModel,
    device: DeviceModel | None,
    data: Dataset,
    rows=None,
) -> LipschitzEstimate:
    """Empirical constant: max over all row pairs of output/input distance,
    clamped to 1; the first pair in sorted-row order to reach the maximum is
    reported. Degenerate pairs (identical encodings) are skipped and counted."""
    return _clamped(reduce(_lipschitz_step, _block_walk(model, device, data, rows), _NO_PAIRS))


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
