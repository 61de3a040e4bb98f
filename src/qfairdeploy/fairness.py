"""Individual-fairness analysis of a classifier under device noise.

Input similarity is the trace distance between encoded states; output
difference is the total-variation distance between measured outcome
distributions. The empirical Lipschitz constant is the maximum output/input
ratio over dataset pairs, a documented lower bound on the true constant.

`fairness_scan` finds the bias pairs and the Lipschitz estimate in one
walk over the pairs: the outputs of all rows evolve as one batch, then each
block of rows is compared against all later rows. The encoded inputs are
product states, so a pair's input overlap is a product of q per-qubit terms
c_a c_b + s_a s_b, not a sum over 2^q amplitudes. A block's distances go
into three (block, n - 1) slabs for n rows, allocated once per scan and
filled in place, whatever q is; the n(n-1)/2 pair list is never built.
Both outputs come from one step per block: the bias pairs are the cells
within eps whose output gap reaches delta, and the ratios for the maximum
overwrite the output distances once those pairs are taken.
`find_bias_pairs` and `estimate_lipschitz` each return their half of it.

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
from .qnn import Dataset, QnnModel, encoded_halves, output_distribution
# simulate_state: unused, but perfbench/tracer.py TRACED wraps it here (ROADMAP item 1)
from .quantum import simulate_state

# Input distances at or below this count as identical encodings. It sits well
# above the rounding floor of the input distance: over 400,000 random rows, a
# row against itself gave up to 2.1e-8 at 1 qubit, 3.7e-8 at 4, 4.5e-8 at 8
# and 4.9e-8 at 12, as sqrt(1 - overlap^2) turns an overlap one ulp off 1
# into ~1.5e-8.
DEGENERATE_TOL = 1e-6

# A block covers _BLOCK_FLOATS / 8 (row, row) cells: 27 rows of a 1,200-row
# scan, at any qubit count. Its three float slabs and four boolean masks hold
# 3.5 floats a cell, some 0.9 MB there. On toy4's 1,200-row scan,
# blocks of 13 rows were 8% slower and blocks of 54 at most 1% faster.
_BLOCK_FLOATS = 1 << 18


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


def _block_walk(model: QnnModel, device: DeviceModel | None, data: Dataset, rows):
    """Walk every unordered pair of `rows` once, block by block of rows.

    Per-qubit halves and output distributions come as one batch each. A
    block of rows then meets every row after its first, each distance built
    with one ufunc per step into slabs that every block reuses:
    - input: sqrt(max(0, 1 - o^2)), o the running product over qubits
      0..q-1 of (c_a c_b) + (s_a s_b);
    - output: 0.5 (|a_0 - b_0| + |a_1 - b_1|) over the two outcomes.
    Each is bitwise the distance a scalar call for that pair gives. Cells
    that are not pairs (j not after i) get an input distance of +inf.
    Yields (i, j, later, d_in, d_out): the block's rows, the rows they meet,
    the mask of pairs with j after i, and the (block, len(j)) input and
    output distances, valid until the next block. Rows are walked in sorted
    order; all rows by default, else distinct indices into the dataset.
    """
    size = len(data.labels)
    rows = np.array(sorted(range(size) if rows is None else rows))
    if len(rows) < 2:
        raise ValueError("need at least 2 rows")
    if (rows.dtype.kind not in "iu" or rows[0] < 0 or rows[-1] >= size
            or (rows[1:] == rows[:-1]).any()):
        raise ValueError(f"rows must be distinct indices in [0, {size})")
    c, s = encoded_halves(data.features[rows])
    outcomes = output_distribution(model, data.features[rows], device).T.copy()
    n = len(rows)
    block = max(1, _BLOCK_FLOATS // (8 * n))
    slabs = np.empty((3, block * (n - 1)))
    earlier = np.tri(block, n - 1, -1, dtype=bool)  # column before row: not a pair
    later = ~earlier
    for a in range(0, n - 1, block):
        b, m = min(block, n - a), n - 1 - a
        d_in, d_out, term = (slab[:b * m].reshape(b, m) for slab in slabs)
        mine, theirs = slice(a, a + b), slice(a + 1, n)
        for k in range(len(c)):  # the product starts as qubit 0's term: 1.0 * t is t
            into = d_in if k == 0 else term
            np.multiply(c[k, mine, None], c[k, None, theirs], out=into)
            np.multiply(s[k, mine, None], s[k, None, theirs], out=d_out)
            np.add(into, d_out, out=into)
            if k:
                np.multiply(d_in, term, out=d_in)
        np.multiply(d_in, d_in, out=d_in)
        np.subtract(1.0, d_in, out=d_in)
        np.maximum(0.0, d_in, out=d_in)
        np.sqrt(d_in, out=d_in)
        np.copyto(d_in[:, :b], np.inf, where=earlier[:b, :min(b, m)])
        np.subtract(outcomes[0, mine, None], outcomes[0, None, theirs], out=d_out)
        np.abs(d_out, out=d_out)
        np.subtract(outcomes[1, mine, None], outcomes[1, None, theirs], out=term)
        np.abs(term, out=term)
        np.add(d_out, term, out=d_out)
        np.multiply(0.5, d_out, out=d_out)
        yield rows[mine], rows[theirs], later[:b, :m], d_in, d_out


def _scan(model, device, data, eps: float, delta: float, rows):
    """Bias pairs and the Lipschitz estimate from one step per walked block.

    Bias pairs are the cells within eps, kept where the output gap reaches
    delta; row-major cells are sorted-row order. Then the output distances
    are divided by the input ones in place: the +inf cells give 0 and the
    degenerate ones -1, so the flat argmax is the block's first maximal
    pair, and it replaces the running one only when strictly greater.
    """
    pairs, examined, degenerate, k_hat, argmax = [], 0, 0, 0.0, None
    for i, j, later, d_in, d_out in _block_walk(model, device, data, rows):
        b, m = d_in.shape
        examined += b * m - b * (b - 1) // 2  # block row r meets m - r later rows
        hit = np.flatnonzero(d_in <= eps)
        hit = hit[d_out.ravel()[hit] >= delta]
        pairs += [BiasPair(int(i[h // m]), int(j[h % m]), x, y) for h, x, y in
                  zip(hit.tolist(), d_in.ravel()[hit].tolist(), d_out.ravel()[hit].tolist())]
        tiny = d_in <= DEGENERATE_TOL
        ties = int(np.count_nonzero(tiny))
        degenerate += ties
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.divide(d_out, d_in, out=d_out)
        if ties:
            ratios[tiny] = -1.0
        top = int(np.argmax(ratios))
        if ratios.ravel()[top] > k_hat:
            k_hat, argmax = float(ratios.ravel()[top]), (int(i[top // m]), int(j[top % m]))
    return pairs, LipschitzEstimate(min(k_hat, 1.0), argmax, examined, degenerate)


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
    return _scan(model, device, data, eps, delta, rows)


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
    return fairness_scan(model, device, data, eps, delta, rows)[0]


def estimate_lipschitz(
    model: QnnModel,
    device: DeviceModel | None,
    data: Dataset,
    rows=None,
) -> LipschitzEstimate:
    """Empirical constant: max over all row pairs of output/input distance,
    clamped to 1; the first pair in sorted-row order to reach the maximum is
    reported. Degenerate pairs (identical encodings) are skipped and counted."""
    # no distance is at most -inf, so the walk lists no bias pair
    return _scan(model, device, data, -np.inf, np.inf, rows)[1]


def noisy_lipschitz(k_star: float, p: float) -> float:
    """Constant of the depolarized model: (1 - p) * k_star."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    if not 0.0 < k_star <= 1.0:
        raise ValueError("k_star outside (0, 1]")
    return (1.0 - p) * k_star


def is_fair(k_star: float, eps: float, delta: float) -> bool:
    """Whether outputs can differ by delta only when inputs differ beyond eps."""
    if not 0.0 <= k_star <= 1.0:
        raise ValueError("k_star outside [0, 1]")
    _check_thresholds(eps, delta)
    return delta >= k_star * eps


def fairness_score(p: float) -> float:
    """The deployment fairness proxy: the measured error rate itself."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    return p


# --- CSV reports -----------------------------------------------------------------


def write_bias_pairs_csv(pairs: list[BiasPair], path: str | Path) -> None:
    """The pairs as CSV with CRLF line ends; no field needs quoting."""
    lines = ["i,j,input_distance,output_distance\r\n"]
    lines += ["%d,%d,%.12g,%.12g\r\n" % (p.i, p.j, p.input_distance, p.output_distance)
              for p in pairs]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def write_lipschitz_csv(est: LipschitzEstimate, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_hat", "argmax_i", "argmax_j", "pairs_examined", "degenerate_pairs"])
        i, j = est.argmax_pair if est.argmax_pair else ("", "")
        writer.writerow(["%.12g" % est.k_hat, i, j, est.pairs_examined, est.degenerate_pairs])
