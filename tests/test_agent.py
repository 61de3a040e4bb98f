import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfairdeploy import agent
from qfairdeploy.agent import (
    DeploymentEnv,
    RewardWeights,
    Transition,
    ValueNetwork,
    action_slice,
    compute_reward,
    run_search,
    save_curves,
    save_selections,
    select_action,
    spawn_seed,
    state_tensor,
    td_target,
    train_step,
)
from qfairdeploy.device import estimate_p
from qfairdeploy.partition import partition
from qfairdeploy.pipeline import load_config, load_data, load_device_ref, load_model
from qfairdeploy.qnn import ARCHS, accuracy, output_distribution, synthetic_dataset
from qfairdeploy.seeding import spawn
from qfairdeploy.synthesis import Candidate, CandidateList, generate_candidate_lists
from qfairdeploy.toys import (
    brute_force_best,
    date22_instance,
    toy_device,
    toy_model,
    toy_train_config,
    two_partition_instance,
)

from conftest import random_circuit

TOY4_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy4.config"


def load_selections(path: Path) -> tuple[int, ...]:
    pairs = [tuple(int(v) for v in ln.split()) for ln in path.read_text().split("\n") if ln.strip()]
    if [p for p, _ in pairs] != list(range(len(pairs))):
        raise ValueError("selection file must list partitions 0..N-1 in order")
    return tuple(c for _, c in pairs)


class FakeList:
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


def _prefixes(lists):
    """Every state of the search over `lists`, blank and complete included."""
    return [sel for k in range(len(lists) + 1)
            for sel in itertools.product(*(range(len(cl)) for cl in lists[:k]))]


class TestStateTensor:
    LISTS = [FakeList(3), FakeList(4), FakeList(2)]

    def test_width_is_total_candidates_plus_one(self, toy):
        assert state_tensor((), self.LISTS).shape == (10,)
        assert state_tensor((0,) * 12, [FakeList(4)] * 12).shape == (49,)
        # the 2-qubit toy: 3 + 3 candidates, not the 2 * 4**2 entries of a unitary
        assert state_tensor((), toy.lists).shape == (7,)

    def test_ones_at_chosen_global_indices(self):
        for sel in _prefixes(self.LISTS):
            chosen = [action_slice(sel[:p], self.LISTS)[c] for p, c in enumerate(sel)]
            t = state_tensor(sel, self.LISTS)
            assert np.flatnonzero(t).tolist() == chosen + [9]
            assert set(t[t != 0.0]) == {1.0}

    def test_blank_state_sets_only_the_constant(self):
        expected = np.zeros(10)
        expected[-1] = 1.0
        np.testing.assert_array_equal(state_tensor((), self.LISTS), expected)

    def test_distinct_states_give_distinct_inputs(self):
        states = _prefixes(self.LISTS)
        assert len(states) == 1 + 3 + 12 + 24
        assert len({state_tensor(sel, self.LISTS).tobytes() for sel in states}) == len(states)


class TestActionSlice:
    LISTS = [FakeList(3), FakeList(4), FakeList(2)]

    def _state(self, k):
        return tuple(0 for _ in range(k))

    def test_first_partition(self):
        assert action_slice(self._state(0), self.LISTS) == range(0, 3)

    def test_second_partition(self):
        assert action_slice(self._state(1), self.LISTS) == range(3, 7)

    def test_third_partition(self):
        assert action_slice(self._state(2), self.LISTS) == range(7, 9)

    def test_terminal_state_rejected(self):
        with pytest.raises(ValueError):
            action_slice(self._state(3), self.LISTS)

    def test_slices_tile_the_output_exactly_once(self):
        seen = []
        for k in range(3):
            seen.extend(action_slice(self._state(k), self.LISTS))
        assert seen == list(range(9))


class TestValueNetwork:
    def test_zero_weights_give_zero_output(self):
        net = ValueNetwork(4, (3,), 2, spawn(0, "n"))
        net.weights = [np.zeros_like(w) for w in net.weights]
        np.testing.assert_array_equal(net.forward(np.ones(4)), np.zeros(2))

    def test_identity_embedding_single_layer(self):
        net = ValueNetwork(4, (), 4, spawn(0, "n"))
        net.weights = [np.eye(4)]
        net.biases = [np.zeros(4)]
        x = np.array([0.5, -1.0, 2.0, 0.0])
        np.testing.assert_array_equal(net.forward(x), x)

    def test_seeded_init_bit_identical(self):
        a = ValueNetwork(6, (5, 4), 3, spawn(7, "init"))
        b = ValueNetwork(6, (5, 4), 3, spawn(7, "init"))
        x = np.linspace(-1, 1, 6)
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_input_width_checked(self):
        net = ValueNetwork(4, (3,), 2, spawn(0, "n"))
        with pytest.raises(ValueError):
            net.forward(np.ones(5))

    def test_gradient_check_against_finite_differences(self, rng):
        # central-difference oracle on a small batch
        net = ValueNetwork(6, (8, 5), 4, spawn(3, "gc"))
        x = rng.normal(size=(3, 6))
        actions = np.array([0, 2, 3])
        targets = rng.normal(size=3)
        loss, grads_w, grads_b = net.loss_and_gradients(x, actions, targets)

        def loss_at():
            _, out = net._forward_cached(x)
            picked = out[np.arange(3), actions]
            return float(np.mean((picked - targets) ** 2))

        h = 1e-6
        for layer in range(len(net.weights)):
            w = net.weights[layer]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                orig = w[idx]
                w[idx] = orig + h
                f_plus = loss_at()
                w[idx] = orig - h
                f_minus = loss_at()
                w[idx] = orig
                fd = (f_plus - f_minus) / (2 * h)
                analytic = grads_w[layer][idx]
                assert abs(analytic - fd) <= 1e-4 * max(1e-8, abs(analytic), abs(fd))


class TestSelectAction:
    def test_greedy_argmax(self):
        q = np.array([9.0, 0.1, 0.9, 0.3, 9.0])
        assert select_action(q, range(1, 4), 0.0, spawn(0, "a")) == 2

    def test_tie_takes_lower_index(self):
        q = np.array([0.5, 0.5])
        assert select_action(q, range(0, 2), 0.0, spawn(0, "a")) == 0

    def test_epsilon_one_is_uniform(self):
        rng = spawn(5, "uniform")
        q = np.array([0.0, 10.0, 0.0])
        counts = np.zeros(3)
        n = 10_000
        for _ in range(n):
            counts[select_action(q, range(0, 3), 1.0, rng)] += 1
        # chi-square against uniform: 2 dof, 99.9% quantile ~ 13.8
        chi2 = float(((counts - n / 3) ** 2 / (n / 3)).sum())
        assert chi2 < 13.8

    def test_never_leaves_slice(self, rng):
        for _ in range(200):
            q = rng.normal(size=7)
            eps = float(rng.uniform())
            a = select_action(q, range(2, 5), eps, rng)
            assert 2 <= a < 5

    def test_empty_slice(self):
        with pytest.raises(ValueError):
            select_action(np.array([1.0]), range(1, 1), 0.5, spawn(0, "a"))


class TestRewardArithmetic:
    def test_headline_blend(self):
        w = RewardWeights(0.5, 0.5)
        assert compute_reward(0.5546, 0.732, w) == pytest.approx(0.6433, abs=1e-12)

    def test_zero_inputs(self):
        assert compute_reward(0.0, 0.0, RewardWeights(0.5, 0.5)) == 0.0

    def test_pure_fairness_weighting(self):
        assert compute_reward(0.37, 0.9, RewardWeights(1.0, 0.0)) == 0.37

    def test_input_validation(self):
        with pytest.raises(ValueError):
            compute_reward(1.2, 0.5, RewardWeights(0.5, 0.5))
        with pytest.raises(ValueError):
            RewardWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            RewardWeights(-0.1, 0.5)


class TestTdOps:
    def test_terminal_target(self):
        assert td_target(0.6433, None, 0.99) == 0.6433

    def test_bootstrap_target(self):
        assert td_target(1.0, 2.0, 0.99) == pytest.approx(2.98)

    def test_gamma_zero(self):
        assert td_target(0.5, 123.0, 0.0) == 0.5


def _toy_transitions(rng, net_in=8, n_actions=3, count=6):
    out = []
    for i in range(count):
        t = rng.normal(size=net_in)
        terminal = i % 2 == 0
        out.append(Transition(
            state_tensor=t,
            action=int(rng.integers(0, n_actions)),
            reward=float(rng.uniform()),
            next_state_tensor=None if terminal else rng.normal(size=net_in),
            next_slice=None if terminal else (0, n_actions),
        ))
    return out


class TestTrainStep:
    def test_lr_zero_leaves_parameters(self, rng):
        policy = ValueNetwork(8, (6,), 3, spawn(1, "p"))
        target = ValueNetwork(8, (6,), 3, spawn(2, "t"))
        batch = _toy_transitions(rng)
        before = [w.copy() for w in policy.weights]
        train_step(policy, target, batch, lr=0.0, gamma=0.9)
        for b, w in zip(before, policy.weights):
            np.testing.assert_array_equal(b, w)

    def test_repeating_on_one_transition_drives_loss_down(self, rng):
        policy = ValueNetwork(8, (6,), 3, spawn(3, "p"))
        target = ValueNetwork(8, (6,), 3, spawn(3, "p"))
        batch = _toy_transitions(rng, count=1)
        losses = [train_step(policy, target, batch, lr=0.05, gamma=0.9) for _ in range(60)]
        assert all(b <= a + 1e-12 for a, b in zip(losses[5:], losses[6:]))
        assert losses[-1] < losses[5]

    def test_empty_batch_rejected(self):
        policy = ValueNetwork(8, (6,), 3, spawn(1, "p"))
        with pytest.raises(ValueError):
            train_step(policy, policy, [], lr=0.1, gamma=0.9)


@pytest.fixture(scope="module")
def toy():
    return two_partition_instance()


class TestDeploymentEnv:
    def test_original_fill_matches_baseline_accuracy(self, toy):
        from qfairdeploy.qnn import accuracy
        baseline = accuracy(toy.model, toy.data, "test", toy.device)
        sels = [p.sub_circuit for p in toy.partitions]
        from qfairdeploy.partition import recombine
        full = recombine(toy.partitions, sels, 2)
        deployed = toy.model.with_circuit(full)
        assert accuracy(deployed, toy.data, "test", toy.device) == baseline

    def test_noiseless_device_reward_is_beta_accuracy(self, toy):
        from qfairdeploy.qnn import accuracy
        clean = toy_device(2, edge_error=0.0)
        env = DeploymentEnv(toy.partitions, toy.lists, toy.model, clean, toy.data,
                            RewardWeights(0.5, 0.5), seed=1)
        r = env.reward((0,))
        deployed = toy.model.with_circuit(env.deployed_circuit((0,)))
        acc = accuracy(deployed, toy.data, "test", clean)
        assert r == pytest.approx(0.5 * acc, abs=1e-12)

    def test_single_partition_prefix_equals_direct_eval(self, toy):
        fresh = DeploymentEnv(toy.partitions, toy.lists, toy.model, toy.device, toy.data,
                              RewardWeights(0.5, 0.5), seed=5)
        assert fresh.reward((1,)) == pytest.approx(toy.env.reward((1,)), abs=1e-12)

    def test_reward_memoized(self, toy):
        env = toy.env
        a = env.reward((0, 1))
        assert (0, 1) in env.evaluations
        assert env.reward((0, 1)) == a

    def test_step_validates_action_window(self, toy):
        with pytest.raises(ValueError):
            toy.env.step((), 5)  # belongs to partition 1's slice
        assert toy.env.step((), 2) == (2,)
        assert toy.env.step((2,), 3) == (2, 0)


@st.composite
def _block_case(draw):
    """A seeded model on 2..8 qubits, cut into blocks of at most s_blk 2 or
    3 qubits, each with 1..3 random circuits of its width as candidates; a
    device that routes every pair, 8..40 synthetic rows, and a prefix of
    selections (possibly blank or complete). The seed draws every choice,
    so the sizes spread evenly."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    model = toy_model(n, layers=int(rng.integers(1, 3)), seed=seed % 2**16, arch=str(rng.choice(ARCHS)))
    parts = partition(model.circuit, int(rng.choice((2, 3))))
    lists = []
    for part in parts:
        circuits = [random_circuit(rng, len(part.qubits), int(rng.integers(0, 9)))
                    for _ in range(int(rng.integers(1, 4)))]
        candidates = sorted((Candidate(c, 0.0) for c in circuits), key=lambda c: c.cnots)
        lists.append(CandidateList(part.index, tuple(candidates)))
    data = synthetic_dataset(rows=int(rng.integers(8, 41)), num_features=n, seed=seed % 2**16)
    env = DeploymentEnv(parts, lists, model, toy_device(n), data, RewardWeights(0.5, 0.5))
    depth = int(rng.integers(0, len(parts) + 1))
    return env, tuple(int(rng.integers(0, len(cl))) for cl in lists[:depth])


class TestBlockByBlockAccuracy:
    """The env's accuracy evolves the split one partition block at a time;
    `qnn.accuracy` evolves it through the deployed circuit gate by gate."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_block_case())
    def test_distribution_matches_the_gate_by_gate_path(self, case):
        env, selections = case
        deployed = env.deployed_circuit(selections)
        rows = list(env.data.split(env.split))
        gate = output_distribution(env.model.with_circuit(deployed), env.data.features[rows], env.device).T
        block = env._distribution(selections, deployed)
        np.testing.assert_allclose(block, gate, rtol=0.0, atol=1e-12)
        clear = np.abs(gate[1] - 0.5) > 1e-9  # labels may differ only at a near-tie
        assert np.array_equal((block[1] >= 0.5)[clear], (gate[1] >= 0.5)[clear])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_block_case(), st.randoms(use_true_random=False))
    def test_path_stack_matches_a_fresh_env(self, case, random):
        """One env scores a shuffled mix of prefixes: the drawn one, its
        parents and siblings, unrelated shallow and deep ones, repeats and
        the blank prefix. Each starts from what the one before it left on
        the path, yet its distribution is a fresh env's, byte for byte."""
        env, selections = case
        ordinals = [range(len(cl)) for cl in env.lists]
        prefixes = [selections[:k] for k in range(len(selections) + 1)]
        if selections:
            prefixes += [selections[:-1] + (o,) for o in ordinals[len(selections) - 1]]
        for _ in range(4):
            depth = random.randint(0, len(ordinals))
            prefixes.append(tuple(random.choice(ordinals[p]) for p in range(depth)))
        prefixes += random.sample(prefixes, 3)
        random.shuffle(prefixes)
        for sel in prefixes:
            fresh = DeploymentEnv(env.partitions, env.lists, env.model, env.device, env.data,
                                  env.weights, split=env.split)
            deployed = env.deployed_circuit(sel)
            assert (env._distribution(sel, deployed).tobytes()
                    == fresh._distribution(sel, deployed).tobytes())
            assert len(env._path) == len(sel)

    def test_toy4_every_prefix_scores_as_accuracy_and_estimate_p(self):
        cfg = load_config(TOY4_CONFIG)
        model, device, data = load_model(cfg), load_device_ref(cfg.device_ref), load_data(cfg)
        parts = partition(model.circuit, cfg.s_blk)
        lists = generate_candidate_lists(parts, cfg.eps_syn, cfg.k_max, cfg.opt, seed=cfg.seed,
                                         max_candidates=cfg.max_candidates)
        env = DeploymentEnv(parts, lists, model, device, data, RewardWeights(0.5, 0.5),
                            split=cfg.eval_split, r_twirls=cfg.r_twirls, seed=cfg.seed)
        prefixes = [sel for sel in _prefixes(lists) if sel]
        assert sum(len(sel) == len(lists) for sel in prefixes) == 144
        rows = list(data.split(cfg.eval_split))
        for sel in prefixes:
            deployed = env.deployed_circuit(sel)
            gate = output_distribution(model.with_circuit(deployed), data.features[rows], device).T
            np.testing.assert_allclose(env._distribution(sel, deployed), gate, rtol=0.0, atol=1e-12)
            expected = (accuracy(model.with_circuit(deployed), data, cfg.eval_split, device),
                        estimate_p(deployed, device, r_twirls=cfg.r_twirls, shots=None,
                                   seed=spawn_seed(cfg.seed, sel)))
            assert env.evaluate(sel) == expected

    def test_empty_split_raises(self, toy):
        empty = synthetic_dataset(rows=1, num_features=2, seed=5)  # one train row, no test rows
        env = DeploymentEnv(toy.partitions, toy.lists, toy.model, toy.device, empty,
                            RewardWeights(0.5, 0.5))
        with pytest.raises(ValueError, match="empty test split"):
            env.evaluate((0,))
        assert not env.evaluations


class TestRunSearch:
    def test_one_state_tensor_per_step(self, monkeypatch):
        # each episode builds the blank state's tensor and then one per
        # non-terminal next state: P per episode for P partitions, not 2P - 1
        inst = date22_instance()
        calls = []

        def counting(selections, lists):
            calls.append(selections)
            return state_tensor(selections, lists)

        monkeypatch.setattr(agent, "state_tensor", counting)
        episodes = 6
        run_search(inst.env, toy_train_config(iterations=episodes, seed=2))
        assert len(inst.partitions) == 5
        assert len(calls) == episodes * len(inst.partitions)
        assert all(len(sel) < len(inst.partitions) for sel in calls)

    def test_single_partition_precomputed_rewards(self, toy):
        env = DeploymentEnv(toy.partitions[:1], toy.lists[:1], toy.model, toy.device,
                            toy.data, RewardWeights(0.5, 0.5), seed=3)
        env.evaluations = {(0,): (0.4, 0.0), (1,): (0.9, 0.9), (2,): (0.5, 0.5)}  # rewards 0.2, 0.9, 0.5
        res = run_search(env, toy_train_config(iterations=50, seed=1))
        assert res.best_selections == (1,)
        assert res.best_reward == pytest.approx(0.9)

    def test_bellman_identity_single_partition(self, toy):
        # learned Q at the blank state approaches the best terminal reward
        env = DeploymentEnv(toy.partitions[:1], toy.lists[:1], toy.model, toy.device,
                            toy.data, RewardWeights(0.5, 0.5), seed=3)
        env.evaluations = {(0,): (0.4, 0.0), (1,): (0.9, 0.9), (2,): (0.5, 0.5)}  # rewards 0.2, 0.9, 0.5
        res = run_search(env, toy_train_config(iterations=200, seed=2))
        assert res.best_selections == (1,)
        assert abs(res.episode_max_q[-1] - 0.9) < 0.05

    def test_deterministic_curves(self, toy):
        cfg = toy_train_config(iterations=30, seed=9)
        a = run_search(toy.env, cfg)
        b = run_search(toy.env, cfg)
        assert a.best_selections == b.best_selections
        assert a.episode_losses == b.episode_losses
        assert a.episode_max_q == b.episode_max_q
        assert a.episode_rewards == b.episode_rewards

    def test_finds_brute_force_optimum_on_most_seeds(self, toy):
        best_sel, _ = brute_force_best(toy.env)
        hits = sum(
            run_search(toy.env, toy_train_config(iterations=120, seed=s)).best_selections == best_sel
            for s in range(5)
        )
        assert hits >= 4

    def test_curves_and_selection_files(self, toy, tmp_path):
        res = run_search(toy.env, toy_train_config(iterations=15, seed=4))
        save_curves(res, tmp_path / "curves.csv")
        header = (tmp_path / "curves.csv").read_text().splitlines()[0]
        assert header == "episode,loss,max_q,episode_reward"
        save_selections(res.best_selections, tmp_path / "sel.txt")
        assert load_selections(tmp_path / "sel.txt") == res.best_selections
