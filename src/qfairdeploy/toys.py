"""Desk-scale toy instances for exercising the deployment search end to end.

Everything here is deterministic in the given seed and small enough that the
full design space can be brute-forced, which is how the search results are
validated.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .agent import DeploymentEnv, RewardWeights, TrainConfig
from .device import DeviceModel
from .partition import Partition, partition
from .qnn import Dataset, QnnModel, build_qnn, params_length, synthetic_dataset
from .seeding import spawn
# generate_candidates: unused, but perfbench/tracer.py TRACED wraps it here (ROADMAP item 1)
from .synthesis import CandidateList, OptimizerConfig, generate_candidate_lists, generate_candidates

FAST_OPT = OptimizerConfig(starts=4, iterations=200)


def toy_train_config(iterations: int = 200, seed: int = 0) -> TrainConfig:
    """Search settings sized for the toy instances: a hotter learning rate and
    exploration schedule than the production defaults, since the value
    networks here are tiny and the episode budgets short."""
    return TrainConfig(
        iterations=iterations,
        learning_rate=1e-2,
        epsilon_start=0.25,
        epsilon_final=0.05,
        hidden_sizes=(64, 32),
        seed=seed,
    )


def toy_device(num_qubits: int = 2, edge_error: float = 0.01,
               uniform_depolarizing: float = 0.0) -> DeviceModel:
    """Fully connected device with one shared edge error and ideal readout."""
    edges = {(a, b): edge_error for a, b in itertools.combinations(range(num_qubits), 2)}
    return DeviceModel(
        name=f"toy{num_qubits}",
        num_qubits=num_qubits,
        cnot_error=edges,
        crosstalk_default=0.002,
        uniform_depolarizing=uniform_depolarizing,
    )


def toy_model(num_qubits: int = 2, layers: int = 1, seed: int = 11,
              arch: str = "c14") -> QnnModel:
    rng = spawn(seed, "toy-model", arch, num_qubits, layers)
    params = rng.uniform(0.0, 2.0 * np.pi, size=params_length(arch, num_qubits, layers))
    return build_qnn(arch, num_qubits, layers, params)


@dataclass(frozen=True)
class ToyInstance:
    env: DeploymentEnv
    partitions: list[Partition]
    lists: list[CandidateList]
    model: QnnModel
    device: DeviceModel
    data: Dataset


def two_partition_instance(
    seed: int = 5,
    candidates_per_partition: int = 3,
    weights: RewardWeights = RewardWeights(0.5, 0.5),
    eps_syn: float = 1e-2,
) -> ToyInstance:
    """2-qubit model split into 2 partitions with a small candidate list each;
    its complete deployment space is enumerable."""
    model = toy_model(num_qubits=2, layers=1, seed=seed)
    device = toy_device(2, edge_error=0.03)
    data = synthetic_dataset(rows=24, num_features=2, seed=seed)
    # a 1-layer 2-qubit ansatz is one block; split it down the gate list so the
    # instance genuinely has two partitions
    parts_full = partition(model.circuit, 2)
    assert len(parts_full) == 1
    gates = model.circuit.gates
    half = len(gates) // 2
    from .circuits import Circuit
    from .quantum import circuit_unitary

    def make_part(index: int, sub_gates) -> Partition:
        sub = Circuit(2, tuple(sub_gates))
        return Partition(index, (0, 1), sub, circuit_unitary(sub))

    parts = [make_part(0, gates[:half]), make_part(1, gates[half:])]
    lists = generate_candidate_lists(parts, eps_syn, k_max=4, opt=FAST_OPT, seed=seed,
                                     max_candidates=candidates_per_partition)
    env = DeploymentEnv(parts, lists, model, device, data, weights)
    return ToyInstance(env, parts, lists, model, device, data)


def date22_instance(seed: int = 13, weights: RewardWeights = RewardWeights(0.5, 0.5)) -> ToyInstance:
    """3-qubit plain-CNOT-entangler model split by the standard greedy scan;
    exercises multi-partition search including a width-1 block."""
    model = toy_model(num_qubits=3, layers=1, seed=seed, arch="date22")
    device = toy_device(3, edge_error=0.05)
    data = synthetic_dataset(rows=20, num_features=3, seed=seed)
    parts = partition(model.circuit, 2)
    lists = generate_candidate_lists(parts, 1e-2, k_max=3, opt=FAST_OPT, seed=seed,
                                     max_candidates=3)
    env = DeploymentEnv(parts, lists, model, device, data, weights)
    return ToyInstance(env, parts, lists, model, device, data)


BUNDLED_TOYS = {
    "two-partition-c14": two_partition_instance,
    "ring-date22": date22_instance,
}


def brute_force_best(env: DeploymentEnv) -> tuple[tuple[int, ...], float]:
    """Exhaustively evaluate every complete deployment; ties break to the
    lexicographically first selection."""
    best_sel, best_val = None, -np.inf
    ranges = [range(len(cl)) for cl in env.lists]
    for sel in itertools.product(*ranges):
        val = env.reward(tuple(sel))
        if val > best_val + 1e-15:
            best_sel, best_val = tuple(sel), val
    return best_sel, best_val
