"""Temporal partitioning of a circuit into bounded-width blocks and the
recombination of per-block replacements into a full circuit."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .quantum import circuit_unitary


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """A contiguous gate block touching at most s_blk qubits.

    `qubits` are the global indices in ascending order; that order defines the
    local index map of `sub_circuit` and the basis of `target_unitary`.
    """

    index: int
    qubits: tuple[int, ...]
    sub_circuit: Circuit
    target_unitary: np.ndarray


def partition(circuit: Circuit, s_blk: int) -> list[Partition]:
    """Greedy temporal scan: extend the current block while the union of
    touched qubits stays within s_blk, otherwise close it and open a new one.
    """
    if s_blk < 2:
        raise PartitionError(f"s_blk must be >= 2, got {s_blk}")
    blocks: list[tuple[set[int], list[Gate]]] = []
    current_qubits: set[int] = set()
    current_gates: list[Gate] = []
    for g in circuit.gates:
        if len(g.qubits) > s_blk:
            raise PartitionError(f"gate {g} is wider than s_blk={s_blk}")
        union = current_qubits | set(g.qubits)
        if len(union) <= s_blk:
            current_qubits = union
            current_gates.append(g)
        else:
            blocks.append((current_qubits, current_gates))
            current_qubits = set(g.qubits)
            current_gates = [g]
    if current_gates:
        blocks.append((current_qubits, current_gates))

    out = []
    for i, (qubits, gates) in enumerate(blocks):
        globals_sorted = tuple(sorted(qubits))
        to_local = {q: j for j, q in enumerate(globals_sorted)}
        sub = Circuit(len(globals_sorted), tuple(g.remap(to_local) for g in gates))
        out.append(Partition(i, globals_sorted, sub, circuit_unitary(sub)))
    return out


def recombine(partitions: list[Partition], selections: list[Circuit], num_qubits: int) -> Circuit:
    """Map each selection back to global qubit indices and concatenate in
    partition order."""
    if len(selections) != len(partitions):
        raise ValueError(f"{len(selections)} selections for {len(partitions)} partitions")
    gates: list[Gate] = []
    for part, chosen in zip(partitions, selections):
        if chosen.num_qubits != len(part.qubits):
            raise ValueError(
                f"partition {part.index} spans {len(part.qubits)} qubits, "
                f"selection has {chosen.num_qubits}"
            )
        to_global = {j: q for j, q in enumerate(part.qubits)}
        gates.extend(g.remap(to_global) for g in chosen.gates)
    return Circuit(num_qubits, tuple(gates))


def space_size(candidate_lists) -> int:
    """Size of the deployment design space: product of the candidate list lengths."""
    total = 1
    for i, c in enumerate(candidate_lists):
        if len(c) < 1:
            raise ValueError(f"partition {i} has an empty candidate list")
        total *= len(c)
    return total
