"""Commutation-aware reordering: semantics, clustering, stability."""

from repro.circuits import Circuit, random_circuit
from repro.gates import Gate
from repro.statevector.partition import Partition
from repro.transpile import (
    CommutationAnalysis,
    CommutationReorderPass,
    PropertySet,
    TranspilePassManager,
    equivalent,
    identity_permutation,
)


def _reorder(circuit):
    manager = TranspilePassManager(
        [CommutationAnalysis(), CommutationReorderPass()]
    )
    return manager.run(circuit, Partition(circuit.num_qubits, 2))


def test_reorder_preserves_action_on_random_circuits():
    for seed in range(6):
        circuit = random_circuit(5, 25, seed=seed)
        result = _reorder(circuit)
        assert result.output_permutation == identity_permutation(5)
        assert equivalent(circuit, result.circuit, trials=2, seed=seed)


def test_dependent_gates_keep_their_order():
    c = Circuit(2)
    c.append(Gate.named("h", (0,)))
    c.append(Gate.named("x", (0,)))
    result = _reorder(c)
    names = [g.name for g in result.circuit]
    assert names == ["h", "x"]
    assert result.stats["commutation_reorder.gates_moved"] == 0


def test_commuting_same_qubit_pairing_gates_cluster():
    # H(0), H(1), X(0): X(0) commutes past H(1), and the scheduler
    # prefers it right after H(0) (same pairing cluster).
    c = Circuit(2)
    c.append(Gate.named("h", (0,)))
    c.append(Gate.named("h", (1,)))
    c.append(Gate.named("x", (0,)))
    result = _reorder(c)
    names_targets = [(g.name, g.targets) for g in result.circuit]
    assert names_targets == [("h", (0,)), ("x", (0,)), ("h", (1,))]
    assert result.stats["commutation_reorder.gates_moved"] == 2
    assert equivalent(c, result.circuit, trials=2)


def test_gainless_circuit_passes_through_unchanged():
    c = Circuit(3)
    c.append(Gate.named("h", (0,)))
    c.append(Gate.named("x", (1,), controls=(0,)))
    c.append(Gate.named("h", (2,)))
    result = _reorder(c)
    # Nothing clusters better than the original order here; the
    # tie-break keeps original positions for the dependent prefix.
    assert equivalent(c, result.circuit, trials=2)


def test_pairing_clusters_pull_together_across_commuting_noise():
    # Two SWAP(0,1) separated by diagonals on other qubits cluster.
    c = Circuit(4)
    c.swap(0, 1)
    c.append(Gate.named("p", (2,), params=(0.3,)))
    c.append(Gate.named("rz", (3,), params=(0.4,)))
    c.swap(0, 1)
    result = _reorder(c)
    swap_positions = [
        i for i, g in enumerate(result.circuit) if g.is_swap()
    ]
    assert swap_positions == [0, 1]
    assert equivalent(c, result.circuit, trials=2)
