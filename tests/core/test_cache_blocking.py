"""Tests for the generic cache-blocking pass."""

import pytest

from repro.circuits import (
    Circuit,
    census,
    distributed_gate_count,
    qft_circuit,
    random_circuit,
)
from repro.core.transpiler import CacheBlockingPass, assert_equivalent
from repro.errors import TranspilerError
from repro.gates import GateLocality, classify_gate


class TestInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_with_permutation(self, seed):
        c = random_circuit(7, 60, seed=seed)
        result = CacheBlockingPass(4).run(c)
        assert_equivalent(
            c, result.circuit, output_permutation=result.output_permutation
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_restore_layout_identity(self, seed):
        c = random_circuit(6, 40, seed=seed)
        result = CacheBlockingPass(4, restore_layout=True).run(c)
        assert result.is_identity_layout()
        assert_equivalent(c, result.circuit)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_all_pairing_gates_local(self, m):
        c = random_circuit(7, 80, seed=9)
        result = CacheBlockingPass(m).run(c)
        for gate in result.circuit:
            if classify_gate(gate, m) is GateLocality.DISTRIBUTED:
                assert gate.is_swap()

    def test_everything_local_noop(self):
        c = random_circuit(5, 30, seed=1)
        result = CacheBlockingPass(5).run(c)
        assert result.circuit.gates == c.gates
        assert result.stats["swaps_inserted"] == 0


class TestOnQft:
    def test_matches_handcrafted_distributed_count(self):
        """The generic pass matches fig. 1b's communication: d swaps."""
        n, m = 10, 6
        result = CacheBlockingPass(m).run(qft_circuit(n))
        assert distributed_gate_count(result.circuit, m) == n - m

    def test_swaps_absorbed(self):
        n, m = 10, 6
        result = CacheBlockingPass(m).run(qft_circuit(n))
        assert result.stats["swaps_absorbed"] == n // 2

    def test_qft_equivalent(self):
        n, m = 8, 5
        c = qft_circuit(n)
        result = CacheBlockingPass(m).run(c)
        assert_equivalent(
            c, result.circuit, output_permutation=result.output_permutation
        )

    def test_no_hadamard_distributed(self):
        n, m = 10, 6
        result = CacheBlockingPass(m).run(qft_circuit(n))
        for gate in result.circuit:
            if gate.name == "h":
                assert gate.targets[0] < m


class TestOptions:
    def test_no_absorb_keeps_swaps_physical(self):
        c = Circuit(4).swap(0, 3)
        result = CacheBlockingPass(2, absorb_swaps=False).run(c)
        assert result.stats["swaps_absorbed"] == 0
        # The distributed SWAP forces one layout swap to pull qubit 3
        # into the local window; the original swap is then emitted.
        assert result.stats["swaps_inserted"] == 1
        assert len(result.circuit) == 2
        assert_equivalent(
            c, result.circuit, output_permutation=result.output_permutation
        )

    def test_absorbed_swap_is_free(self):
        c = Circuit(4).swap(0, 3)
        result = CacheBlockingPass(2).run(c)
        assert len(result.circuit) == 0
        assert result.output_permutation == {0: 3, 3: 0, 1: 1, 2: 2}

    def test_bad_local_qubits(self):
        with pytest.raises(TranspilerError):
            CacheBlockingPass(0)

    def test_window_from_partition(self):
        from repro.statevector import Partition

        c = random_circuit(7, 60, seed=5)
        explicit = CacheBlockingPass(4).run(c)
        derived = CacheBlockingPass().run(c, Partition(7, 8))
        assert derived.circuit.gates == explicit.circuit.gates
        assert derived.output_permutation == explicit.output_permutation

    def test_no_window_is_a_one_line_error(self):
        with pytest.raises(TranspilerError, match="local_qubits or a partition"):
            CacheBlockingPass().run(qft_circuit(4))

    def test_gate_wider_than_window(self):
        # A SWAP needs both pairing targets in the local window; with a
        # 1-slot window there is no victim slot left to evict.
        with pytest.raises(TranspilerError):
            CacheBlockingPass(1, absorb_swaps=False).run(
                Circuit(4).swap(0, 1)
            )


class TestVictimPolicy:
    def test_prefers_finished_qubits(self):
        # H on every high qubit in sequence: each swap should evict a
        # low qubit with no future pairing use where possible.
        c = Circuit(6).h(4).h(5)
        result = CacheBlockingPass(4).run(c)
        # Two distributed H -> two inserted swaps, both distributed.
        assert result.stats["swaps_inserted"] == 2
        assert distributed_gate_count(result.circuit, 4) == 2

    def test_repeated_gate_single_swap(self):
        # 50 H on the same high qubit: one swap suffices.
        from repro.circuits import hadamard_benchmark

        c = hadamard_benchmark(6, 5, gates=50)
        result = CacheBlockingPass(4).run(c)
        assert result.stats["swaps_inserted"] == 1
        assert distributed_gate_count(result.circuit, 4) == 1
