"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from qfairdeploy.agent import ValueNetwork, compute_reward, RewardWeights, run_search
from qfairdeploy.circuits import Circuit
from qfairdeploy.device import (
    accumulate_p,
    bundled_device,
    estimate_p,
    randomized_compile,
)
from qfairdeploy.fairness import estimate_lipschitz
from qfairdeploy.partition import Partition, space_size
from qfairdeploy.pipeline import load_config, run_experiment
from qfairdeploy.qnn import synthetic_dataset
from qfairdeploy.quantum import circuit_unitary
from qfairdeploy.seeding import spawn
from qfairdeploy.synthesis import generate_candidates, hs_distance
from qfairdeploy.toys import (
    BUNDLED_TOYS,
    brute_force_best,
    toy_device,
    toy_model,
    toy_train_config,
    two_partition_instance,
)

from conftest import gate, random_unitary

REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy4.config"


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s runtime budget"


def test_c01_reward_arithmetic():
    with criterion(1, "reward arithmetic reproduces the published scores", 1.0):
        w = RewardWeights(0.5, 0.5)
        assert compute_reward(0.5546, 0.732, w) == pytest.approx(0.6433, abs=1e-4)
        baseline = compute_reward(0.5101, 0.656, w)
        # the weighted sum of the published inputs is exactly 0.58305, which
        # rounds to the published 0.583
        assert baseline == pytest.approx(0.58305, abs=1e-4)
        assert round(baseline, 3) == 0.583


@pytest.mark.xfail(
    strict=True,
    reason="stated expected value 0.58335 contradicts the weighted-sum formula: "
    "0.5*0.5101 + 0.5*0.656 = 0.58305 (rounds to the published 0.583)",
)
def test_c01_reward_arithmetic_stated_literal():
    baseline = compute_reward(0.5101, 0.656, RewardWeights(0.5, 0.5))
    assert baseline == pytest.approx(0.58335, abs=1e-4)


def test_c02_design_space_combinatorics():
    with criterion(2, "design space of 8 partitions x 9 candidates", 1.0):
        assert space_size([list(range(9))] * 8) == 43_046_721


def test_c03_noisy_lipschitz_relation():
    with criterion(3, "injected depolarizing contracts k_hat by (1 - p)", 60.0):
        data = synthetic_dataset(rows=16, num_features=2, seed=31, train_fraction=1.0)
        model = toy_model(2, layers=1, seed=31)
        rows = data.train_idx
        clean = toy_device(2, edge_error=0.0)
        k0 = estimate_lipschitz(model, clean, data, rows=rows).k_hat
        assert k0 > 0.0
        for p in (0.1, 0.3):
            noisy = toy_device(2, edge_error=0.0, uniform_depolarizing=p)
            k1 = estimate_lipschitz(model, noisy, data, rows=rows).k_hat
            assert abs(k1 / k0 - (1.0 - p)) <= 0.02, f"ratio off at p={p}"


def test_c04_p_recovery_within_three_standard_errors():
    with criterion(4, "estimate_p recovers injected uniform rates", 120.0):
        circuits = {
            2: Circuit(2, (gate("cnot", 0, 1),)),
            3: Circuit(3, (gate("cnot", 0, 1), gate("cnot", 1, 2))),
            4: Circuit(4, (gate("cnot", 0, 1), gate("cnot", 2, 3), gate("cnot", 1, 2))),
        }
        r_twirls, shots = 16, 8192
        for n, circ in circuits.items():
            for p_star in (0.01, 0.05, 0.1, 0.2):
                dev = toy_device(n, edge_error=0.0, uniform_depolarizing=p_star)
                p_hat = estimate_p(circ, dev, r_twirls=r_twirls, shots=shots, seed=40 + n)
                scale = 1.0 - 2.0 ** (-n)
                p0_true = 1.0 - p_star * scale
                se = math.sqrt(p0_true * (1.0 - p0_true) / (r_twirls * shots)) / scale
                assert abs(p_hat - p_star) <= 3.0 * se, (
                    f"n={n} p*={p_star}: got {p_hat}, tolerance {3 * se}"
                )


def test_c05_twirling_identity_thousand_seeds():
    with criterion(5, "1000 randomized compilations preserve the unitary", 60.0):
        gates = []
        pairs = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]
        for i in range(10):
            gates.append(gate("cnot", *pairs[i % len(pairs)]))
        circ = Circuit(4, tuple(gates))
        reference = circuit_unitary(circ)
        worst = 0.0
        for s in range(1000):
            twirled = randomized_compile(circ, spawn(s, "acceptance-twirl"))
            worst = max(worst, hs_distance(reference, circuit_unitary(twirled)))
        assert worst < 1e-9, f"worst twirl distance {worst}"


def test_c06_synthesis_budget_sweep():
    with criterion(6, "candidate budgets hold over 50 random targets", 600.0):
        cnot_u = circuit_unitary(Circuit(2, (gate("cnot", 0, 1),)))

        def part_for(u):
            return Partition(0, (0, 1), Circuit(2), u)

        rng = spawn(606, "targets")
        targets = [random_unitary(rng, 4) for _ in range(50)]
        for eps in (1e-2, 1e-5):
            for i, target in enumerate(targets):
                cl = generate_candidates(part_for(target), eps, k_max=3, seed=i)
                for cand in cl.candidates:
                    recomputed = hs_distance(circuit_unitary(cand.circuit), target)
                    assert recomputed <= eps, f"target {i} at eps={eps}: {recomputed}"
        cl = generate_candidates(part_for(cnot_u), 1e-5, k_max=3, seed=999)
        assert min(c.cnots for c in cl.candidates) == 1
        cl = generate_candidates(part_for(np.eye(4, dtype=complex)), 1e-5, k_max=2, seed=998)
        assert any(c.cnots == 0 for c in cl.candidates)


def test_c07_dql_matches_brute_force_oracle():
    with criterion(7, "search recovers the brute-force optimum on >= 8/10 seeds", 900.0):
        inst = two_partition_instance()
        assert [len(cl) for cl in inst.lists] == [3, 3]
        best_sel, best_val = brute_force_best(inst.env)
        hits = 0
        for seed in range(10):
            res = run_search(inst.env, toy_train_config(iterations=200, seed=seed))
            if res.best_selections == best_sel and abs(res.best_reward - best_val) < 1e-9:
                hits += 1
        assert hits >= 8, f"only {hits}/10 seeds found the optimum"


def test_c08_training_signal_shape():
    with criterion(8, "loss halves and max-q grows on every bundled toy", 900.0):
        for name, make in BUNDLED_TOYS.items():
            inst = make()
            res = run_search(inst.env, toy_train_config(iterations=200, seed=1))
            first_loss = float(np.mean(res.episode_losses[:10]))
            last_loss = float(np.mean(res.episode_losses[-10:]))
            first_q = float(np.mean(res.episode_max_q[:10]))
            last_q = float(np.mean(res.episode_max_q[-10:]))
            assert last_loss <= 0.5 * first_loss, f"{name}: loss {first_loss} -> {last_loss}"
            assert last_q >= first_q, f"{name}: max q {first_q} -> {last_q}"


def test_c09_fairness_trend_monotone_in_cnots():
    with criterion(9, "accumulated p rises monotonically with CNOT count", 60.0):
        device = bundled_device("ring14")
        target = circuit_unitary(Circuit(2, (
            gate("rzz", 0, 1, params=(1.1,)),
            gate("u3", 0, params=(0.4, 0.2, 0.9)),
            gate("cnot", 0, 1),
        )))
        part = Partition(0, (0, 1), Circuit(2), target)
        cl = generate_candidates(part, eps_syn=0.8, k_max=4, seed=909)
        by_count: dict[int, list[float]] = {}
        for cand in cl.candidates:
            p_total = accumulate_p(cand.circuit, device).p_total
            by_count.setdefault(cand.cnots, []).append(p_total)
        counts = sorted(by_count)
        assert len(counts) >= 3, f"sweep too narrow: {counts}"
        means = [float(np.mean(by_count[c])) for c in counts]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        rho, _ = spearmanr(counts, means)
        assert rho == pytest.approx(1.0, abs=1e-12)


def test_c10_gradient_check_hundred_draws():
    with criterion(10, "network gradients match central differences", 60.0):
        rng = spawn(1010, "gradient-check")
        h = 1e-6
        for draw in range(100):
            sizes = (int(rng.integers(3, 7)), int(rng.integers(3, 9)), int(rng.integers(2, 5)))
            net = ValueNetwork(sizes[0], (sizes[1],), sizes[2], rng)
            batch = int(rng.integers(1, 4))
            x = rng.normal(size=(batch, sizes[0]))
            actions = rng.integers(0, sizes[2], size=batch)
            targets = rng.normal(size=batch)
            _, grads_w, grads_b = net.loss_and_gradients(x, actions, targets)

            def loss_at():
                _, out = net._forward_cached(x)
                picked = out[np.arange(batch), actions]
                return float(np.mean((picked - targets) ** 2))

            for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
                for layer, (w, g) in enumerate(zip(params, grads)):
                    flat_w, flat_g = w.reshape(-1), g.reshape(-1)
                    for idx in range(flat_w.size):
                        orig = flat_w[idx]
                        flat_w[idx] = orig + h
                        f_plus = loss_at()
                        flat_w[idx] = orig - h
                        f_minus = loss_at()
                        flat_w[idx] = orig
                        fd = (f_plus - f_minus) / (2.0 * h)
                        assert abs(flat_g[idx] - fd) <= 1e-4 * max(1e-6, abs(flat_g[idx]), abs(fd))


def test_c11_pipeline_reproducibility(tmp_path):
    with criterion(11, "rerunning the experiment is byte-identical", 600.0):
        out = tmp_path / "run"
        cfg = load_config(REPO_CONFIG, {"output_dir": str(out)})
        run_experiment(cfg)
        first_csv = (out / "reports.csv").read_bytes()
        first_curves = (out / "curves_rl3.csv").read_bytes()
        run_experiment(cfg)
        assert (out / "reports.csv").read_bytes() == first_csv
        assert (out / "curves_rl3.csv").read_bytes() == first_curves
