"""Gate grouping: remap insertion, knob validation, stats."""

import pytest

from repro.circuits import builtin_qft_circuit, random_circuit
from repro.core.transpiler import equivalent
from repro.errors import TranspilerError
from repro.statevector.partition import Partition
from repro.transpile import GateGroupFormationPass, transpile


def test_knob_validation():
    with pytest.raises(TranspilerError, match="max_remap_pairs"):
        GateGroupFormationPass(max_remap_pairs=0)
    with pytest.raises(TranspilerError, match="lookahead"):
        GateGroupFormationPass(lookahead=-1)


def test_missing_partition_is_a_one_line_error():
    with pytest.raises(TranspilerError, match="needs a partition"):
        GateGroupFormationPass().run(builtin_qft_circuit(6))


def test_single_rank_inserts_no_remaps():
    circuit = builtin_qft_circuit(6)
    result = transpile(circuit, Partition(6, 1), strategy="grouped")
    assert result.stats.get("gate_grouping.groups_formed", 0) == 0
    assert not any(g.name == "remap" for g in result.circuit)
    assert equivalent(circuit, result.circuit, trials=2)


def test_grouped_emits_only_local_global_remap_pairs():
    circuit = builtin_qft_circuit(10)
    partition = Partition(10, 8)
    m = partition.local_qubits
    result = transpile(circuit, partition, strategy="grouped")
    remaps = [g for g in result.circuit if g.name == "remap"]
    assert remaps, "grouped QFT at 8 ranks must insert remaps"
    for gate in remaps:
        for a, b in gate.swap_pairs():
            lo, hi = sorted((a, b))
            assert lo < m <= hi, (a, b, m)


def test_grouped_preserves_action_up_to_recorded_permutation():
    for seed in (0, 1, 2):
        circuit = random_circuit(6, 30, seed=seed)
        result = transpile(circuit, Partition(6, 4), strategy="grouped")
        assert equivalent(
            circuit,
            result.circuit,
            output_permutation=result.output_permutation,
            trials=2,
            seed=seed,
        )


def test_stats_ledger_is_consistent():
    circuit = builtin_qft_circuit(10)
    result = transpile(circuit, Partition(10, 8), strategy="grouped")
    stats = result.stats
    groups = stats["gate_grouping.groups_formed"]
    pairs = stats["gate_grouping.remap_pairs"]
    assert groups >= 1
    assert pairs >= groups  # every group carries at least one pair
    remaps = [g for g in result.circuit if g.name == "remap"]
    assert len(remaps) == groups
    assert sum(len(g.swap_pairs()) for g in remaps) == pairs
    assert (
        stats["exchange_rounds_after"] < stats["exchange_rounds_before"]
    )


def test_max_remap_pairs_trades_bytes_for_rounds():
    circuit = builtin_qft_circuit(12)
    partition = Partition(12, 16)
    one = transpile(
        circuit, partition, strategy="grouped", max_remap_pairs=1
    )
    two = transpile(
        circuit, partition, strategy="grouped", max_remap_pairs=2
    )
    from repro.transpile import schedule_metrics

    m1 = schedule_metrics(one.circuit, partition)
    m2 = schedule_metrics(two.circuit, partition)
    # Wider batches move less data per collective but need more
    # sub-exchange rounds per remap.
    assert m2.bytes_per_rank <= m1.bytes_per_rank
    assert equivalent(
        circuit,
        two.circuit,
        output_permutation=two.output_permutation,
        trials=2,
    )
