from pathlib import Path

import numpy as np
import pytest

from qfairdeploy import agent
from qfairdeploy.agent import (
    AgentState,
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
    state_tensor,
    td_target,
    train_step,
)
from qfairdeploy.seeding import spawn
from qfairdeploy.toys import (
    brute_force_best,
    date22_instance,
    toy_device,
    toy_train_config,
    two_partition_instance,
)


def load_selections(path: Path) -> tuple[int, ...]:
    pairs = [tuple(int(v) for v in ln.split()) for ln in path.read_text().split("\n") if ln.strip()]
    if [p for p, _ in pairs] != list(range(len(pairs))):
        raise ValueError("selection file must list partitions 0..N-1 in order")
    return tuple(c for _, c in pairs)


class TestStateTensor:
    def test_identity(self):
        s = AgentState((), np.eye(2, dtype=complex))
        t = state_tensor(s)
        np.testing.assert_array_equal(t[..., 0], np.eye(2))
        np.testing.assert_array_equal(t[..., 1], np.zeros((2, 2)))

    def test_phase_gate(self):
        s = AgentState((), np.diag([1.0, 1j]))
        t = state_tensor(s)
        np.testing.assert_array_equal(t[..., 0], np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(t[..., 1], np.diag([0.0, 1.0]))

    def test_shape_contract(self, rng):
        from conftest import random_unitary
        u = random_unitary(rng, 8)
        t = state_tensor(AgentState((), u))
        assert t.shape == (8, 8, 2)

    def test_reconstruction_is_exact(self, rng):
        from conftest import random_unitary
        u = random_unitary(rng, 4)
        t = state_tensor(AgentState((), u))
        np.testing.assert_array_equal(t[..., 0] + 1j * t[..., 1], u)


class FakeList:
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


class TestActionSlice:
    LISTS = [FakeList(3), FakeList(4), FakeList(2)]

    def _state(self, k):
        return AgentState(tuple(0 for _ in range(k)), np.eye(2))

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
        t = rng.normal(size=(2, 2, 2))
        terminal = i % 2 == 0
        out.append(Transition(
            state_tensor=t,
            action=int(rng.integers(0, n_actions)),
            reward=float(rng.uniform()),
            next_state_tensor=None if terminal else rng.normal(size=(2, 2, 2)),
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
        assert (0, 1) in env._cache
        assert env.reward((0, 1)) == a

    def test_step_validates_action_window(self, toy):
        blank = toy.env.blank_state()
        with pytest.raises(ValueError):
            toy.env.step(blank, 5)  # belongs to partition 1's slice


class TestRunSearch:
    def test_one_state_tensor_per_step(self, monkeypatch):
        # each episode builds the blank state's tensor and then one per
        # non-terminal next state: P per episode for P partitions, not 2P - 1
        inst = date22_instance()
        calls = []

        def counting(state):
            calls.append(state.selections)
            return state_tensor(state)

        monkeypatch.setattr(agent, "state_tensor", counting)
        episodes = 6
        run_search(inst.env, toy_train_config(iterations=episodes, seed=2))
        assert len(inst.partitions) == 5
        assert len(calls) == episodes * len(inst.partitions)
        assert all(len(sel) < len(inst.partitions) for sel in calls)

    def test_single_partition_precomputed_rewards(self, toy):
        env = DeploymentEnv(toy.partitions[:1], toy.lists[:1], toy.model, toy.device,
                            toy.data, RewardWeights(0.5, 0.5), seed=3)
        env._cache = {(0,): 0.2, (1,): 0.9, (2,): 0.5}
        res = run_search(env, toy_train_config(iterations=50, seed=1))
        assert res.best_selections == (1,)
        assert res.best_reward == pytest.approx(0.9)

    def test_bellman_identity_single_partition(self, toy):
        # learned Q at the blank state approaches the best terminal reward
        env = DeploymentEnv(toy.partitions[:1], toy.lists[:1], toy.model, toy.device,
                            toy.data, RewardWeights(0.5, 0.5), seed=3)
        env._cache = {(0,): 0.2, (1,): 0.9, (2,): 0.5}
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
