"""Tests for the transpiler pass framework."""

import pytest

from repro.circuits import Circuit
from repro.core.transpiler import PassManager, PassResult, TranspilerPass
from repro.errors import TranspilerError
from repro.transpile import compose_permutations, identity_permutation


class AddHadamard(TranspilerPass):
    """Toy pass: append H(0) and count."""

    def transform(self, circuit, partition, properties):
        out = Circuit(circuit.num_qubits, circuit.gates)
        out.h(0)
        return PassResult(
            circuit=out,
            output_permutation=identity_permutation(circuit.num_qubits),
            stats={"added": 1},
        )


class SwapZeroOne(TranspilerPass):
    """Toy pass: virtually swap wires 0 and 1."""

    def transform(self, circuit, partition, properties):
        mapping = {0: 1, 1: 0}
        perm = identity_permutation(circuit.num_qubits)
        perm.update(mapping)
        return PassResult(
            circuit=circuit.remapped(mapping),
            output_permutation=perm,
            stats={},
        )


class TestPassResult:
    def test_identity_layout_detection(self):
        r = PassResult(Circuit(2), identity_permutation(2))
        assert r.is_identity_layout()
        r2 = PassResult(Circuit(2), {0: 1, 1: 0})
        assert not r2.is_identity_layout()

    def test_pass_name_defaults_to_class(self):
        assert AddHadamard().name == "AddHadamard"


class TestPermutations:
    def test_identity(self):
        assert identity_permutation(3) == {0: 0, 1: 1, 2: 2}

    def test_compose(self):
        first = {0: 1, 1: 0, 2: 2}
        second = {0: 0, 1: 2, 2: 1}
        composed = compose_permutations(first, second)
        assert composed == {0: 2, 1: 0, 2: 1}


class TestPassManager:
    def test_empty_raises(self):
        with pytest.raises(TranspilerError):
            PassManager([])

    def test_chains_passes(self):
        pm = PassManager([AddHadamard(), AddHadamard()])
        result = pm.run(Circuit(2))
        assert len(result.circuit) == 2

    def test_stats_namespaced(self):
        pm = PassManager([AddHadamard()])
        result = pm.run(Circuit(2))
        assert result.stats == {"AddHadamard.added": 1}

    def test_permutations_compose(self):
        pm = PassManager([SwapZeroOne(), SwapZeroOne()])
        result = pm.run(Circuit(3).h(0))
        assert result.is_identity_layout()

    def test_single_swap_layout(self):
        pm = PassManager([SwapZeroOne()])
        result = pm.run(Circuit(3).h(0))
        assert result.output_permutation == {0: 1, 1: 0, 2: 2}
        assert result.circuit[0].targets == (1,)
