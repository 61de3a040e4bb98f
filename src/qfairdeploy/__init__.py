"""Fairness-aware deployment of quantum neural network classifiers onto
simulated noisy devices: approximate synthesis per partition plus a
deep-Q-learning search over the candidate selections."""

from .circuits import Circuit, Gate, GateKind, cnot_count, depth
from .device import DeviceModel, bundled_device, estimate_p, load_device
from .fairness import estimate_lipschitz, fairness_scan, find_bias_pairs, is_fair, noisy_lipschitz
from .partition import Partition, partition, recombine, space_size
from .pipeline import ExperimentConfig, load_config, run_experiment
from .qnn import Dataset, QnnModel, build_qnn, encode, load_dataset, synthetic_dataset
from .synthesis import Candidate, CandidateList, generate_candidates, hs_distance

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "GateKind", "cnot_count", "depth",
    "DeviceModel", "bundled_device", "estimate_p", "load_device",
    "estimate_lipschitz", "fairness_scan", "find_bias_pairs", "is_fair", "noisy_lipschitz",
    "Partition", "partition", "recombine", "space_size",
    "ExperimentConfig", "load_config", "run_experiment",
    "Dataset", "QnnModel", "build_qnn", "encode", "load_dataset", "synthetic_dataset",
    "Candidate", "CandidateList", "generate_candidates", "hs_distance",
]
