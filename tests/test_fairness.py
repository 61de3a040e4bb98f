import csv
import io
import itertools
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfairdeploy import fairness
from qfairdeploy.cli import main
from qfairdeploy.fairness import (
    DEGENERATE_TOL,
    BiasPair,
    _block_walk,
    estimate_lipschitz,
    fairness_scan,
    fairness_score,
    find_bias_pairs,
    is_fair,
    noisy_lipschitz,
    write_bias_pairs_csv,
    write_lipschitz_csv,
)
from qfairdeploy.qnn import (
    Dataset,
    build_qnn,
    encoded_halves,
    encoded_states,
    output_distribution,
    synthetic_dataset,
)
from qfairdeploy.device import accumulate_p, survival
from qfairdeploy.pipeline import OUTPUT_DIR_ENV, load_config, load_data, load_device_ref, load_model
from qfairdeploy.toys import toy_device, toy_model

from simulation_oracle import encoded_overlap, input_distance, total_variation, trace_distance_pure

REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy4.config"
GOLDEN = Path(__file__).resolve().parent / "golden"


def make_dataset(features: np.ndarray) -> Dataset:
    rows, d = features.shape
    return Dataset(
        features=features,
        labels=np.zeros(rows, dtype=int),
        feature_names=tuple(f"f{i}" for i in range(d)),
        train_idx=tuple(range(rows)),
        test_idx=(),
    )


class TestFindBiasPairs:
    def test_duplicate_rows_never_flagged(self):
        data = make_dataset(np.array([[0.3, 0.6], [0.3, 0.6], [0.9, 0.1]]))
        model = toy_model(2)
        pairs = find_bias_pairs(model, None, data, eps=1.0, delta=1e-6)
        assert all({p.i, p.j} != {0, 1} for p in pairs)

    def test_empty_when_delta_above_khat(self):
        data = make_dataset(np.array([[0.1, 0.2], [0.5, 0.9], [0.8, 0.3], [0.2, 0.7]]))
        model = toy_model(2)
        est = estimate_lipschitz(model, None, data)
        # by the Lipschitz bound, no output can exceed k_hat * input distance
        delta = min(est.k_hat * 1.0 + 0.05, 1.0)
        assert find_bias_pairs(model, None, data, eps=1.0, delta=delta) == []

    def test_nonempty_when_delta_tiny(self):
        data = make_dataset(np.linspace(0.05, 0.95, 10).reshape(10, 1))
        model = build_qnn("c14", 1, 0, [])  # identity circuit, direct readout
        pairs = find_bias_pairs(model, None, data, eps=1.0, delta=1e-6)
        assert pairs

    def test_invariant_on_reported_distances(self):
        data = make_dataset(np.array([[0.2, 0.4], [0.25, 0.45], [0.7, 0.8]]))
        model = toy_model(2)
        for p in find_bias_pairs(model, None, data, eps=0.5, delta=0.01):
            assert p.input_distance <= 0.5
            assert p.output_distance >= 0.01

    def test_monotone_in_thresholds(self):
        data = make_dataset(np.array([[0.1, 0.9], [0.3, 0.6], [0.5, 0.2], [0.9, 0.4]]))
        model = toy_model(2)
        base = find_bias_pairs(model, None, data, eps=0.6, delta=0.05)
        fewer_delta = find_bias_pairs(model, None, data, eps=0.6, delta=0.2)
        fewer_eps = find_bias_pairs(model, None, data, eps=0.3, delta=0.05)
        as_set = lambda pairs: {(p.i, p.j) for p in pairs}
        assert as_set(fewer_delta) <= as_set(base)
        assert as_set(fewer_eps) <= as_set(base)

    def test_needs_two_rows(self):
        data = make_dataset(np.array([[0.5]]))
        with pytest.raises(ValueError):
            find_bias_pairs(toy_model(1), None, data, eps=0.5, delta=0.5)

    def test_threshold_validation(self):
        data = make_dataset(np.array([[0.5], [0.6]]))
        with pytest.raises(ValueError):
            find_bias_pairs(toy_model(1), None, data, eps=0.0, delta=0.5)


class TestEstimateLipschitz:
    def test_identity_readout_hits_one(self):
        # d(outputs)/D(inputs) = |sin(pi (x+y)/2)| for the direct-readout model;
        # rows 0.4 and 0.6 make it exactly 1
        data = make_dataset(np.array([[0.4], [0.6]]))
        model = build_qnn("c14", 1, 0, [])
        est = estimate_lipschitz(model, None, data)
        assert est.k_hat == pytest.approx(1.0, abs=1e-9)
        assert est.argmax_pair == (0, 1)

    def test_constant_output_gives_zero(self):
        # feature 1 is constant and it alone feeds the measured qubit
        feats = np.array([[0.1, 0.3], [0.5, 0.3], [0.9, 0.3]])
        data = make_dataset(feats)
        model = build_qnn("c14", 2, 0, [], measure_qubit=1)
        est = estimate_lipschitz(model, None, data)
        assert est.k_hat == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_one_on_random_models(self, rng):
        data = make_dataset(rng.uniform(0.05, 0.95, size=(6, 2)))
        for seed in range(3):
            model = toy_model(2, seed=seed)
            states = encoded_states(data.features)
            dists = output_distribution(model, data.features, None)
            for i, j in itertools.combinations(range(6), 2):
                d_in = trace_distance_pure(states[i], states[j])
                d_out = total_variation(dists[i], dists[j])
                assert d_out <= d_in + 1e-9  # the Lipschitz bound with K <= 1

    @pytest.mark.parametrize("features, first", [
        ([[0.2], [0.2], [0.6]], (0, 2)),  # tie across rows: (0, 2) comes before (1, 2)
        ([[0.6], [0.2], [0.2]], (0, 1)),  # tie within a row: (0, 1) comes before (0, 2)
    ])
    def test_first_maximal_pair_wins(self, features, first):
        data = make_dataset(np.array(features))
        est = estimate_lipschitz(build_qnn("c14", 1, 0, []), None, data)
        assert est.argmax_pair == first

    def test_degenerate_pairs_skipped_and_counted(self):
        data = make_dataset(np.array([[0.5], [0.5], [0.9]]))
        model = build_qnn("c14", 1, 0, [])
        est = estimate_lipschitz(model, None, data)
        assert est.degenerate_pairs == 1
        assert est.pairs_examined == 3

    def test_repeated_rows_always_degenerate(self, rng):
        # an identical pair's trace distance rounds to anything from 0 to
        # ~3e-8, so every copy must fall under the tolerance, not some of them
        copies = np.array([1, 2, 3] * 4)
        features = np.repeat(rng.uniform(0.0, 1.0, size=(len(copies), 4)), copies, axis=0)
        est = estimate_lipschitz(toy_model(4), None, make_dataset(features))
        assert est.degenerate_pairs == int(np.sum(copies * (copies - 1) // 2))

    def test_bound_consistency_after_estimation(self):
        data = make_dataset(np.array([[0.1, 0.8], [0.4, 0.2], [0.6, 0.55], [0.95, 0.35]]))
        model = toy_model(2, seed=3)
        est = estimate_lipschitz(model, None, data)
        states = encoded_states(data.features)
        dists = output_distribution(model, data.features, None)
        for i, j in itertools.combinations(range(4), 2):
            d_in = trace_distance_pure(states[i], states[j])
            d_out = total_variation(dists[i], dists[j])
            assert d_out <= est.k_hat * d_in + 1e-9


class TestNoiseContraction:
    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_uniform_depolarizing_scales_khat(self, p):
        data = synthetic_dataset(rows=10, num_features=2, seed=6)
        model = toy_model(2, seed=2)
        noiseless = toy_device(2, edge_error=0.0)
        noisy = toy_device(2, edge_error=0.0, uniform_depolarizing=p)
        k0 = estimate_lipschitz(model, noiseless, data).k_hat
        k1 = estimate_lipschitz(model, noisy, data).k_hat
        assert abs(k1 - (1.0 - p) * k0) < 0.02

    def test_coherence_with_is_fair(self):
        data = make_dataset(np.array([[0.15, 0.7], [0.35, 0.45], [0.6, 0.9], [0.85, 0.1]]))
        model = toy_model(2, seed=4)
        est = estimate_lipschitz(model, None, data)
        eps, delta = 0.8, min(1.0, est.k_hat * 0.8 + 0.02)
        if is_fair(est.k_hat, eps, delta):
            assert find_bias_pairs(model, None, data, eps, delta) == []


class TestScalarOps:
    def test_noisy_lipschitz_identity_at_p0(self):
        assert noisy_lipschitz(0.7, 0.0) == 0.7

    def test_noisy_lipschitz_formula(self):
        assert noisy_lipschitz(0.8, 0.2) == pytest.approx(0.64)

    def test_noisy_lipschitz_vanishes_at_p1(self):
        assert noisy_lipschitz(0.5, 1.0) == 0.0

    def test_noisy_lipschitz_validation(self):
        with pytest.raises(ValueError):
            noisy_lipschitz(0.5, 1.5)
        with pytest.raises(ValueError):
            noisy_lipschitz(0.0, 0.5)

    def test_is_fair_boundary(self):
        assert is_fair(0.5, 0.2, 0.1) is True  # 0.1 >= 0.1

    def test_is_fair_violated(self):
        assert is_fair(1.0, 0.5, 0.4) is False

    def test_is_fair_zero_constant(self):
        assert is_fair(0.0, 1.0, 1e-6) is True

    @pytest.mark.parametrize("k_star", [-0.5, -1e-12, 1.0 + 1e-12, 2.0, float("nan")])
    def test_is_fair_rejects_a_constant_outside_the_unit_interval(self, k_star):
        with pytest.raises(ValueError, match="k_star"):
            is_fair(k_star, 0.3, 0.1)

    @pytest.mark.parametrize("eps, delta", [(0.0, 0.1), (0.3, 0.0), (1.5, 0.1), (0.3, float("nan"))])
    def test_is_fair_checks_thresholds_as_the_scan_does(self, eps, delta):
        for check in (lambda: is_fair(0.5, eps, delta), lambda: fairness._check_thresholds(eps, delta)):
            with pytest.raises(ValueError, match="eps and delta must lie in"):
                check()

    def test_fairness_score_is_identity(self):
        assert fairness_score(0.0) == 0.0
        assert fairness_score(0.5546) == 0.5546
        assert fairness_score(1.0) == 1.0
        with pytest.raises(ValueError):
            fairness_score(1.2)


# --- the empirical constant against the exact one ---------------------------------


def _exact_constant(model, device) -> float:
    """K*, the model's Lipschitz constant over all input states: the survival
    of its ansatz on the device (ROADMAP item 15), 1 with no device."""
    return 1.0 if device is None else survival(accumulate_p(model.circuit, device).p_total, device)


@st.composite
def _spread_case(draw):
    """2-8 rows of 1-4 features whose pairs all sit more than 1e-3 apart
    in input distance, a random model of 1-2 layers, and no device or a toy
    device with random edge errors and uniform depolarizing."""
    n_rows, d = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    features = np.array([[draw(st.floats(0.0, 1.0)) for _ in range(d)] for _ in range(n_rows)])
    halves = np.moveaxis(encoded_halves(features), -1, 0)
    assume(all(input_distance(halves[i], halves[j]) > 1e-3
               for i, j in itertools.combinations(range(n_rows), 2)))
    model = toy_model(d, layers=draw(st.integers(1, 2)), seed=draw(st.integers(0, 1000)))
    device = None
    if draw(st.booleans()):
        device = toy_device(d, edge_error=draw(st.floats(0.0, 0.2)),
                            uniform_depolarizing=draw(st.floats(0.0, 0.9)))
    return model, device, make_dataset(features)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_spread_case())
def test_khat_is_at_most_the_exact_constant(case):
    model, device, data = case
    _, est = fairness_scan(model, device, data, 0.5, 0.1)
    assert est.degenerate_pairs == 0
    assert est.k_hat <= _exact_constant(model, device) + 1e-9


def test_toy4_scan_khat_is_at_most_the_exact_constant():
    # the benchmark's scan: 1,200 train rows of 2,000 at seed 7
    cfg = replace(load_config(REPO_CONFIG, {}), synthetic_rows=2000)
    model, device, data = load_model(cfg), load_device_ref(cfg.device_ref), load_data(cfg)
    _, est = fairness_scan(model, device, data, 0.3, 0.1, rows=data.split("train"))
    assert est.pairs_examined == 1200 * 1199 // 2
    assert est.k_hat == pytest.approx(0.91872, abs=5e-6)
    assert _exact_constant(model, device) == pytest.approx(0.94387, abs=5e-6)
    assert est.k_hat <= _exact_constant(model, device)


# --- the shared block walk against a pair-by-pair reference --------------------


@st.composite
def _scan_case(draw):
    """2-8 rows of 1-3 features (repeats allowed, so some pairs are
    degenerate), a random model, noiseless or on a uniformly depolarizing
    toy device, and bias-pair thresholds."""
    n_rows, d = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    features = np.array([[draw(st.sampled_from((0.0, 0.5, 1.0))) if draw(st.booleans())
                          else draw(st.floats(0.0, 1.0)) for _ in range(d)] for _ in range(n_rows)])
    data = make_dataset(features)
    model = toy_model(d, seed=draw(st.integers(0, 1000)))
    device = None
    if draw(st.booleans()):
        device = toy_device(d, uniform_depolarizing=draw(st.floats(0.0, 0.9)))
    rows = None  # all rows, or a subset in any order
    if draw(st.booleans()):
        rows = draw(st.permutations(range(n_rows)))[:draw(st.integers(2, n_rows))]
    return model, device, data, rows, draw(st.floats(0.05, 1.0)), draw(st.floats(0.01, 1.0))


def _reference_pairs(model, device, data, rows) -> dict:
    """(i, j) -> (input, output distance) for every pair, one scalar call each.

    The per-row vectors come from the same stacked batches `_block_walk` uses:
    d_out / d_in magnifies a last-ulp difference between a batched and a
    row-by-row simulation by up to 1 / DEGENERATE_TOL, far past this test's
    1e-12. `TestOutputDistribution` in test_qnn.py checks the batches against
    the row-by-row simulation. Each scalar call rounds as the walk's
    broadcast does, which `TestBlockBoundaries` checks bit for bit."""
    rows = sorted(range(len(data.labels)) if rows is None else rows)
    halves = dict(zip(rows, np.moveaxis(encoded_halves(data.features[rows]), -1, 0)))
    dists = dict(zip(rows, output_distribution(model, data.features[rows], device)))
    return {(i, j): (input_distance(halves[i], halves[j]), total_variation(dists[i], dists[j]))
            for i, j in itertools.combinations(rows, 2)}


class TestPairPassMatchesReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_scan_case())
    def test_three_functions(self, case):
        model, device, data, rows, eps, delta = case
        ref = _reference_pairs(model, device, data, rows)

        walked = _walked_pairs(model, device, data, rows)
        assert list(walked) == list(ref)  # sorted-row order
        for ij, (x, y) in walked.items():
            assert (x, y) == pytest.approx(ref[ij], abs=1e-12)

        pairs = find_bias_pairs(model, device, data, eps, delta, rows=rows)
        assert [(p.i, p.j) for p in pairs] == [ij for ij, (a, b) in ref.items() if a <= eps and b >= delta]
        for p in pairs:
            assert p.input_distance == pytest.approx(ref[(p.i, p.j)][0], abs=1e-12)
            assert p.output_distance == pytest.approx(ref[(p.i, p.j)][1], abs=1e-12)

        est = estimate_lipschitz(model, device, data, rows=rows)
        ratios = {ij: b / a for ij, (a, b) in ref.items() if a > DEGENERATE_TOL}
        assert est.pairs_examined == len(ref)
        assert est.degenerate_pairs == len(ref) - len(ratios)
        assert est.k_hat == pytest.approx(min(max(ratios.values(), default=0.0), 1.0), abs=1e-12)
        top = sorted(ratios.values(), reverse=True)
        if not top or top[0] == 0.0:
            assert est.argmax_pair is None
        elif len(top) == 1 or top[0] - top[1] > 1e-12:
            assert est.argmax_pair == max(ratios, key=ratios.get)  # first maximal pair

        assert fairness_scan(model, device, data, eps, delta, rows=rows) == (pairs, est)


def _walked_pairs(model, device, data, rows) -> dict:
    """(i, j) -> (input, output distance) in the order `_block_walk` yields
    the pairs with j after i."""
    walked = {}
    for i, j, later, d_in, d_out in _block_walk(model, device, data, rows):
        for a, b in zip(*np.nonzero(later)):
            walked[(int(i[a]), int(j[b]))] = (d_in[a, b], d_out[a, b])
    return walked


@st.composite
def _block_case(draw):
    """A `_scan_case` whose walked rows fill one block of `block` rows, pass
    it by one or two rows, or fill two blocks and one row more, where `block`
    is the walk's block size. The rows are a permuted subset of the dataset."""
    block = draw(st.integers(1, 6))
    n = max(2, draw(st.sampled_from((block, block + 1, block + 2, 2 * block + 1))))
    spare, d = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    features = np.array([[draw(st.sampled_from((0.0, 0.5, 1.0))) if draw(st.booleans())
                          else draw(st.floats(0.0, 1.0)) for _ in range(d)] for _ in range(n + spare)])
    model = toy_model(d, seed=draw(st.integers(0, 1000)))
    device = None
    if draw(st.booleans()):
        device = toy_device(d, uniform_depolarizing=draw(st.floats(0.0, 0.9)))
    rows = draw(st.permutations(range(n + spare)))[:n]
    return (block, model, device, make_dataset(features), rows,
            draw(st.floats(0.05, 1.0)), draw(st.floats(0.01, 1.0)))


class TestBlockBoundaries:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_block_case())
    def test_blocks_equal_reference_and_one_block(self, case):
        block, model, device, data, rows, eps, delta = case
        ref = _reference_pairs(model, device, data, rows)
        one_block = fairness_scan(model, device, data, eps, delta, rows=rows)
        floats = block * 8 * len(rows)
        with mock.patch.object(fairness, "_BLOCK_FLOATS", floats):
            assert max(len(i) for i, *_ in _block_walk(model, device, data, rows)) == block
            walked = _walked_pairs(model, device, data, rows)
            blocked = fairness_scan(model, device, data, eps, delta, rows=rows)
        assert walked == ref and list(walked) == list(ref)  # bitwise, in sorted-row order
        assert blocked == one_block


def test_block_rows_do_not_depend_on_qubits(rng):
    blocks = []
    for d in (4, 12):
        data = make_dataset(rng.uniform(0.0, 1.0, size=(200, d)))
        i, *_ = next(_block_walk(build_qnn("c14", d, 0, []), None, data, None))
        blocks.append(len(i))
    assert blocks[0] == blocks[1] < 200


@pytest.mark.parametrize("rows", [[0, 1, 1], [-1, 0], [0, 5], [0.2, 1.9], [True, False]])
def test_rows_must_be_distinct_indices(rows):
    data = make_dataset(np.array([[0.1], [0.5], [0.9]]))
    model = build_qnn("c14", 1, 0, [])
    for scan in (lambda: fairness_scan(model, None, data, 0.5, 0.1, rows=rows),
                 lambda: find_bias_pairs(model, None, data, 0.5, 0.1, rows=rows),
                 lambda: estimate_lipschitz(model, None, data, rows=rows)):
        with pytest.raises(ValueError, match="distinct indices"):
            scan()


# --- input distances from per-qubit overlaps against the amplitudes ------------


@st.composite
def _encoded_rows(draw):
    """2-6 rows of 1-12 features; a row may repeat an earlier one, or repeat
    it with one feature moved by at most 1e-4."""
    d, features = draw(st.integers(1, 12)), []
    for _ in range(draw(st.integers(2, 6))):
        if features and draw(st.booleans()):
            row = list(features[draw(st.integers(0, len(features) - 1))])
            if draw(st.booleans()):
                k = draw(st.integers(0, d - 1))
                row[k] = min(1.0, row[k] + draw(st.floats(1e-9, 1e-4)))
            features.append(row)
        else:
            features.append([draw(st.sampled_from((0.0, 0.5, 1.0))) if draw(st.booleans())
                             else draw(st.floats(0.0, 1.0)) for _ in range(d)])
    return np.array(features)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_encoded_rows())
def test_product_overlaps_match_the_amplitudes(features):
    halves = np.moveaxis(encoded_halves(features), -1, 0)
    states = encoded_states(features)
    for i, j in itertools.product(range(len(features)), repeat=2):
        overlap = encoded_overlap(halves[i], halves[j])
        assert overlap == pytest.approx(abs(states[i] @ states[j]), abs=1e-14)
        d, ref = input_distance(halves[i], halves[j]), trace_distance_pure(states[i], states[j])
        if (features[i] == features[j]).all():
            assert d < DEGENERATE_TOL
        elif max(d, ref) > DEGENERATE_TOL:
            # sqrt(1 - o^2) magnifies an overlap's last-ulp difference by
            # about 1 / d: 1e-12 holds from d ~ 0.01, 4e-10 was seen at 1e-6
            assert d == pytest.approx(ref, abs=1e-12 + 4e-15 / max(d, ref))


def test_cli_scan_simulates_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return output_distribution(*args, **kwargs)

    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(fairness, "output_distribution", counted)
    assert main(["fairness-scan", str(REPO_CONFIG), "--split", "train"]) == 0
    assert len(calls) == 1


def test_toy4_scan_matches_golden_copy(tmp_path, monkeypatch):
    # thresholds chosen so the bias-pair file is not empty (15 pairs)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    argv = ["fairness-scan", str(REPO_CONFIG), "--split", "train", "--eps", "0.7", "--delta", "0.1"]
    assert main(argv) == 0
    for name in ("lipschitz", "bias_pairs"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN / f"toy4_scan_{name}.csv").read_bytes()


def test_bias_pairs_csv_bytes_are_the_csv_writers(tmp_path):
    values = (0.0, 1.0, 1 / 3, 1e-300)
    pairs = [BiasPair(k, 1000 + k, x, y) for k, (x, y) in enumerate(itertools.product(values, repeat=2))]
    for listed in ([], pairs):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["i", "j", "input_distance", "output_distance"])
        for p in listed:
            writer.writerow([p.i, p.j, "%.12g" % p.input_distance, "%.12g" % p.output_distance])
        write_bias_pairs_csv(listed, tmp_path / "bp.csv")
        written = (tmp_path / "bp.csv").read_bytes()
        assert written == expected.getvalue().encode()
        assert written.count(b"\r\n") == len(listed) + 1


def test_csv_reports(tmp_path):
    pairs = [BiasPair(0, 1, 0.25, 0.125)]
    write_bias_pairs_csv(pairs, tmp_path / "bp.csv")
    text = (tmp_path / "bp.csv").read_text()
    assert "input_distance" in text and "0.25" in text

    data = make_dataset(np.array([[0.4], [0.6]]))
    est = estimate_lipschitz(build_qnn("c14", 1, 0, []), None, data)
    write_lipschitz_csv(est, tmp_path / "k.csv")
    assert "k_hat" in (tmp_path / "k.csv").read_text()
