"""Deep-Q-learning search over per-partition candidate selections.

A search state is the decision made so far: the tuple of chosen candidate
ordinals, one per completed partition. The value network reads it as a
vector over all candidates (1.0 at each chosen one) plus a constant 1.0, so
its input width is the total candidate count + 1 at any qubit count. It is a
fully connected ReLU stack whose output width is the total candidate count
across all partitions; each state only ever reads its own partition's slice
of that output. Rewards blend the deployed circuit's own depolarizing rate
`p` (the fairness score) with classification accuracy, weighted per scheme.
The `(accuracy, p)` pair does not depend on the weights, so one env per run
holds it for every scheme. Accuracy evolves the split's encoded states one
partition block at a time, each block one 2^k unitary, starting from the
states the env kept for the longest prefix of it already evolved; one
`accumulate_p` layering gives the `survival` that is `1 - p` and that
depolarizes the measured distribution.
"""
from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .circuits import Circuit
# estimate_p: unused, but perfbench/tracer.py TRACED wraps it here (ROADMAP item 1)
from .device import DeviceModel, accumulate_p, depolarized_by, estimate_p, survival
from .partition import Partition, recombine
# accuracy, circuit_unitary: unused, but perfbench/tracer.py TRACED wraps them here (ROADMAP item 1)
from .qnn import Dataset, QnnModel, accuracy, encoded_columns, fraction_right, measured_distribution
from .quantum import _apply_matrix, circuit_unitary
from .seeding import spawn
from .synthesis import CandidateList


@dataclass(frozen=True)
class RewardWeights:
    alpha: float  # fairness weight
    beta: float   # accuracy weight

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"weights must be finite, got {self.alpha}, {self.beta}")
        if self.alpha < 0.0 or self.beta < 0.0 or (self.alpha == 0.0 and self.beta == 0.0):
            raise ValueError("weights must be non-negative and not both zero")


def compute_reward(fairness: float, acc: float, w: RewardWeights) -> float:
    """Weighted blend alpha * fairness + beta * accuracy."""
    if not (0.0 <= fairness <= 1.0 and 0.0 <= acc <= 1.0):
        raise ValueError("reward inputs must lie in [0, 1]")
    return w.alpha * fairness + w.beta * acc


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 1000          # episodes; one complete deployment each
    learning_rate: float = 1e-3
    gamma: float = 0.99
    epsilon_start: float = 0.05
    epsilon_final: float = 0.01
    target_sync_period: int = 10
    replay_capacity: int = 1000
    batch_size: int = 32
    hidden_sizes: tuple[int, ...] = (256, 128)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not (0.0 <= self.epsilon_start <= 1.0 and 0.0 <= self.epsilon_final <= 1.0):
            raise ValueError("epsilons must lie in [0, 1]")
        if not 0.0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        counts = (self.iterations, self.target_sync_period, self.replay_capacity,
                  self.batch_size, *self.hidden_sizes)
        if min(counts) < 1:
            raise ValueError("iterations, target_sync_period, replay_capacity, batch_size "
                             f"and hidden sizes must be >= 1, got {counts}")

    def epsilon_at(self, episode: int) -> float:
        """Linear anneal from epsilon_start to epsilon_final over iterations."""
        if self.iterations <= 1:
            return self.epsilon_final
        frac = min(episode / (self.iterations - 1), 1.0)
        return self.epsilon_start + frac * (self.epsilon_final - self.epsilon_start)


# --- states and the action space ------------------------------------------------


def state_tensor(selections: tuple[int, ...], lists: list[CandidateList]) -> np.ndarray:
    """The value network's input for a state: width total candidates + 1,
    1.0 at each chosen candidate's global index (the one `action_slice` gives
    it) and a trailing constant 1.0. The constant is what lets the blank
    state's Q values train: without it that state is all zeros and reaches
    the first layer only through biases that start at 0."""
    vec = np.zeros(sum(len(cl) for cl in lists) + 1)
    start = 0
    for cl, ordinal in zip(lists, selections):
        vec[start + ordinal] = 1.0
        start += len(cl)
    vec[-1] = 1.0
    return vec


def action_slice(selections: tuple[int, ...], lists: list[CandidateList]) -> range:
    """Global candidate indices available from this state: the contiguous
    block belonging to the next unselected partition."""
    p = len(selections)
    if p >= len(lists):
        raise ValueError("terminal state has no actions")
    start = sum(len(cl) for cl in lists[:p])
    return range(start, start + len(lists[p]))


def select_action(qvalues: np.ndarray, slice_: range, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy within the slice; greedy ties break to the lowest index."""
    if len(slice_) == 0:
        raise ValueError("empty action slice")
    if rng.uniform() < epsilon:
        return int(slice_[rng.integers(0, len(slice_))])
    window = qvalues[slice_.start:slice_.stop]
    return int(slice_.start + np.argmax(window))


# --- value network (manual backprop, float64) -------------------------------------


class ValueNetwork:
    """Fully connected ReLU stack; identity output layer."""

    def __init__(self, input_size: int, hidden_sizes: tuple[int, ...], output_size: int,
                 rng: np.random.Generator):
        sizes = (input_size, *hidden_sizes, output_size)
        self.weights = [
            rng.normal(0.0, np.sqrt(2.0 / sizes[i]), size=(sizes[i], sizes[i + 1]))
            for i in range(len(sizes) - 1)
        ]
        # near-zero output layer: initial action values start below the
        # nonnegative rewards instead of guessing high
        self.weights[-1] *= 0.01
        self.biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[0]

    def copy_from(self, other: "ValueNetwork") -> None:
        self.weights = [w.copy() for w in other.weights]
        self.biases = [b.copy() for b in other.biases]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Action values for a single flattened state or a batch."""
        a = np.atleast_2d(np.asarray(inputs, dtype=float))
        if a.shape[1] != self.input_size:
            raise ValueError(f"expected input width {self.input_size}, got {a.shape[1]}")
        _, out = self._forward_cached(a)
        return out[0] if np.asarray(inputs).ndim == 1 else out

    def _forward_cached(self, x: np.ndarray):
        activations = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            activations.append(np.maximum(activations[-1] @ w + b, 0.0))
        out = activations[-1] @ self.weights[-1] + self.biases[-1]
        return activations, out

    def loss_and_gradients(self, inputs: np.ndarray, actions: np.ndarray, targets: np.ndarray):
        """Mean squared TD error over the batch and its parameter gradients."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        batch = x.shape[0]
        activations, out = self._forward_cached(x)
        picked = out[np.arange(batch), actions]
        errors = picked - targets
        loss = float(np.mean(errors**2))

        d_out = np.zeros_like(out)
        d_out[np.arange(batch), actions] = 2.0 * errors / batch
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = d_out
        for layer in reversed(range(len(self.weights))):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (activations[layer] > 0.0)
        return loss, grads_w, grads_b

    def apply_gradients(self, grads_w, grads_b, lr: float) -> None:
        for w, gw in zip(self.weights, grads_w):
            w -= lr * gw
        for b, gb in zip(self.biases, grads_b):
            b -= lr * gb


def td_target(reward, next_q_max, gamma: float):
    """reward + gamma * max Q' for non-terminal transitions, reward otherwise;
    elementwise over arrays of non-terminal rewards and maxima."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if next_q_max is None:
        return reward
    return reward + gamma * next_q_max


@dataclass(frozen=True)
class Transition:
    state_tensor: np.ndarray
    action: int
    reward: float
    next_state_tensor: np.ndarray | None  # None marks a terminal transition
    next_slice: tuple[int, int] | None    # action window of the next state


def train_step(
    policy: ValueNetwork,
    target_net: ValueNetwork,
    batch: list[Transition],
    lr: float,
    gamma: float,
) -> float:
    """One gradient-descent update of the policy on the mean TD loss of the
    batch; targets come from one target-network pass over the batch's
    non-terminal next states. Returns the pre-update loss."""
    if not batch:
        raise ValueError("empty batch")
    inputs = np.array([t.state_tensor for t in batch])
    actions = np.array([t.action for t in batch], dtype=int)
    targets = np.array([t.reward for t in batch], dtype=float)  # terminal ones stay so
    live = [i for i, t in enumerate(batch) if t.next_state_tensor is not None]
    next_q_max = np.empty(0)
    if live:
        q_next = target_net.forward(np.array([batch[i].next_state_tensor for i in live]))
        windows = np.array([batch[i].next_slice for i in live])
        columns = np.arange(q_next.shape[1])
        inside = (columns >= windows[:, :1]) & (columns < windows[:, 1:])
        next_q_max = np.where(inside, q_next, -np.inf).max(axis=1)  # each window's max
    targets[live] = td_target(targets[live], next_q_max, gamma)
    loss, grads_w, grads_b = policy.loss_and_gradients(inputs, actions, targets)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss {loss}")
    policy.apply_gradients(grads_w, grads_b, lr)
    return loss


# --- deployment environment ----------------------------------------------------------


@dataclass
class DeploymentEnv:
    """Binds partitions, candidate lists, and the evaluation context.

    A search state is the selections tuple; `step` appends one ordinal. A
    prefix's `(accuracy, p)` does not depend on the reward weights, so it
    lives in the env's private `evaluations` table and `reward` weighs it
    with the current `weights`. One env serves a whole run: each scheme sets
    `env.weights` and reads the pairs the schemes before it computed, so
    each pair is computed once per run.

    Unselected partitions are completed with their original exact
    sub-circuits, so an intermediate reward isolates the effect of the
    approximations chosen so far. Accuracy evolves the split's encoded
    states, built once per env, block by block: each partition applies one
    2^k matrix on its own qubits, the chosen candidate's `unitary` or,
    unselected, the partition's `target_unitary`. The states after each
    chosen block of the prefix scored last stay on `_path`, one tensor per
    partition at most, and a prefix starts from the longest stored prefix of
    itself, so a search that extends its last prefix applies only the new
    block and the unselected ones past it. The deployed circuit
    (`deployed_circuit`, each block's gates mapped onto the full register)
    gives the reports and the noise: its `survival` s depolarizes the
    measured distribution, and `p = 1 - s`, as noise contracts the
    classifier's Lipschitz constant to s times the noiseless one. Blocks
    are built once per env.
    """

    partitions: list[Partition]
    lists: list[CandidateList]
    model: QnnModel
    device: DeviceModel
    data: Dataset
    weights: RewardWeights
    split: str = "test"
    evaluations: dict = field(init=False, default_factory=dict)  # prefix -> (accuracy, p)
    # (partition, ordinal or None for the original block) -> block on the full register
    _blocks: dict = field(init=False, default_factory=dict)
    # the split's encoded states as a [2]*n + [rows] tensor, and its labels
    _states: np.ndarray | None = field(init=False, default=None)
    _labels: np.ndarray | None = field(init=False, default=None)
    # the current path: (ordinal, states evolved through blocks 0..p) per chosen partition p
    _path: list = field(init=False, default_factory=list)

    def __post_init__(self):
        if len(self.partitions) != len(self.lists):
            raise ValueError("one candidate list per partition required")
        # a state's action window depends only on how many partitions it has chosen
        self._windows = [action_slice((0,) * p, self.lists) for p in range(len(self.lists))]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def _ordinal(self, selections: tuple[int, ...], p: int) -> int | None:
        """Partition p's chosen ordinal, or None while it is unselected."""
        return selections[p] if p < len(selections) else None

    def _block(self, p: int, ordinal: int | None) -> Circuit:
        """Candidate `ordinal` of partition p, or its original sub-circuit
        when None, mapped onto the full register; built once per env."""
        key = (p, ordinal)
        if key not in self._blocks:
            part = self.partitions[p]
            chosen = part.sub_circuit if ordinal is None else self.lists[p].candidates[ordinal].circuit
            self._blocks[key] = recombine([part], [chosen], self.model.num_qubits)
        return self._blocks[key]

    def deployed_circuit(self, selections: tuple[int, ...]) -> Circuit:
        """The selected blocks, then the original ones, concatenated in
        partition order."""
        gates: list = []
        for p in range(self.num_partitions):
            gates += self._block(p, self._ordinal(selections, p)).gates
        return Circuit(self.model.num_qubits, tuple(gates))

    def window(self, selections: tuple[int, ...]) -> range:
        """`action_slice(selections, self.lists)`, computed once per env."""
        if len(selections) >= self.num_partitions:
            raise ValueError("terminal state has no actions")
        return self._windows[len(selections)]

    def step(self, selections: tuple[int, ...], action: int) -> tuple[int, ...]:
        """The state after taking global candidate index `action`, which must
        lie in the next partition's window."""
        slice_ = self.window(selections)
        if action not in slice_:
            raise ValueError(f"action {action} outside slice {slice_}")
        return selections + (action - slice_.start,)

    def _distribution(self, selections: tuple[int, ...], circuit: Circuit,
                      survive: float | None = None) -> np.ndarray:
        """The measured qubit's distribution (2, rows) on the split for the
        model deployed as `circuit`, the prefix's deployed circuit, kept by
        noise with weight `survive`, the circuit's `survival` on the device
        (layered here when not given): the split's states evolved one
        partition block at a time, then `depolarized_by` it. The states
        after each chosen block of the last prefix stay on `_path`, so a
        prefix starts from the longest stored prefix of itself; the blocks
        past it are applied as a fresh evolution would apply them."""
        n = self.model.num_qubits
        if self._states is None:
            rows = list(self.data.split(self.split))
            if not rows:
                raise ValueError(f"empty {self.split} split")
            self._states = encoded_columns(self.model, self.data.features[rows]).reshape([2] * n + [len(rows)])
            self._labels = self.data.labels[rows]
        path = self._path
        start = 0
        while start < min(len(path), len(selections)) and path[start][0] == selections[start]:
            start += 1
        del path[start:]
        tensor = path[-1][1] if path else self._states
        for p in range(start, self.num_partitions):
            part, ordinal = self.partitions[p], self._ordinal(selections, p)
            matrix = part.target_unitary if ordinal is None else self.lists[p].candidates[ordinal].unitary
            tensor = _apply_matrix(tensor, matrix, part.qubits, n)
            if ordinal is not None:
                path.append((ordinal, tensor))
        if survive is None:
            survive = survival(accumulate_p(circuit, self.device).p_total, self.device)
        return depolarized_by(measured_distribution(self.model, tensor, None), survive)

    def evaluate(self, selections: tuple[int, ...]) -> tuple[float, float]:
        """`(accuracy, p)` of a prefix, computed on the first request into
        the `evaluations` table and read from it afterwards. The deployed
        circuit is layered once: its `survival` s depolarizes the measured
        distribution, and `p = 1 - s`."""
        if selections not in self.evaluations:
            circuit = self.deployed_circuit(selections)
            survive = survival(accumulate_p(circuit, self.device).p_total, self.device)
            acc = fraction_right(self._distribution(selections, circuit, survive)[1], self._labels)
            self.evaluations[selections] = (acc, 1.0 - survive)
        return self.evaluations[selections]

    def reward(self, selections: tuple[int, ...]) -> float:
        """Reward of a (possibly partial) deployment prefix."""
        if not selections:
            raise ValueError("reward needs at least one selection")
        acc, p_hat = self.evaluate(selections)
        return compute_reward(p_hat, acc, self.weights)


# --- the episode loop ------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    best_selections: tuple[int, ...]
    best_reward: float
    episode_losses: tuple[float, ...]
    episode_max_q: tuple[float, ...]
    episode_rewards: tuple[float, ...]


def run_search(env: DeploymentEnv, cfg: TrainConfig) -> SearchResult:
    """Episodic deep-Q-learning over the deployment space.

    Every episode starts from the blank design, picks the first partition's
    candidate uniformly at random, then follows the epsilon-greedy policy to a
    complete deployment; transitions train the policy network against a
    periodically synced target network. Returns the best complete deployment
    ever evaluated plus per-episode curves.
    """
    total_actions = sum(len(cl) for cl in env.lists)
    input_size = total_actions + 1  # state_tensor's width
    init_rng = spawn(cfg.seed, "net-init")
    policy = ValueNetwork(input_size, cfg.hidden_sizes, total_actions, init_rng)
    target_net = ValueNetwork(input_size, cfg.hidden_sizes, total_actions, init_rng)
    target_net.copy_from(policy)
    explore_rng = spawn(cfg.seed, "exploration")
    replay: deque[Transition] = deque(maxlen=cfg.replay_capacity)

    best_selections: tuple[int, ...] | None = None
    best_reward = -np.inf
    losses, max_qs, final_rewards = [], [], []

    for episode in range(cfg.iterations):
        epsilon = cfg.epsilon_at(episode)
        state: tuple[int, ...] = ()
        tensor = state_tensor(state, env.lists)
        episode_max_q = -np.inf
        while len(state) < env.num_partitions:
            slice_ = env.window(state)
            qvalues = policy.forward(tensor)
            episode_max_q = max(episode_max_q, float(qvalues[slice_.start:slice_.stop].max()))
            if not state:
                action = int(slice_[explore_rng.integers(0, len(slice_))])
            else:
                action = select_action(qvalues, slice_, epsilon, explore_rng)
            nxt = env.step(state, action)
            reward = env.reward(nxt)
            if len(nxt) == env.num_partitions:  # terminal
                nxt_tensor, nxt_window = None, None
            else:
                # the next step's input, and the one copy the replay buffer holds
                nxt_tensor = state_tensor(nxt, env.lists)
                nxt_slice = env.window(nxt)
                nxt_window = (nxt_slice.start, nxt_slice.stop)
            replay.append(Transition(tensor, action, reward, nxt_tensor, nxt_window))
            state, tensor = nxt, nxt_tensor

        final = env.reward(state)
        if final > best_reward:
            best_reward, best_selections = final, state

        batch_size = min(cfg.batch_size, len(replay))
        picks = explore_rng.choice(len(replay), size=batch_size, replace=False)
        batch = [replay[i] for i in picks]
        loss = train_step(policy, target_net, batch, cfg.learning_rate, cfg.gamma)
        if (episode + 1) % cfg.target_sync_period == 0:
            target_net.copy_from(policy)

        losses.append(loss)
        max_qs.append(episode_max_q)
        final_rewards.append(final)

    assert best_selections is not None
    return SearchResult(
        best_selections, best_reward,
        tuple(losses), tuple(max_qs), tuple(final_rewards),
    )


def save_curves(result: SearchResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "loss", "max_q", "episode_reward"])
        rows = zip(result.episode_losses, result.episode_max_q, result.episode_rewards)
        for ep, (loss, mq, rw) in enumerate(rows):
            writer.writerow([ep, "%.12g" % loss, "%.12g" % mq, "%.12g" % rw])


def save_selections(selections: tuple[int, ...], path: str | Path) -> None:
    lines = [f"{p} {c}" for p, c in enumerate(selections)]
    Path(path).write_text("\n".join(lines) + "\n")

