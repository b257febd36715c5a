"""Controlled-SWAP decomposition pass.

The distributed executor supports plain SWAPs natively (QuEST's
pairwise-exchange special case) but not *controlled* SWAPs whose
targets reach the rank bits -- exactly like real codes, which transpile
Fredkin-style gates first.  This pass rewrites every controlled SWAP
into its three-CNOT form (controls carried onto each CNOT), after which
every gate is executor-supported on any partition.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.gates import Gate
from repro.statevector.partition import Partition
from repro.transpile.basepass import PassResult, TransformationPass
from repro.transpile.property_set import PropertySet

__all__ = ["DecomposeControlledSwapsPass"]


class DecomposeControlledSwapsPass(TransformationPass):
    """Rewrite controlled SWAPs as controlled-CNOT triples."""

    name = "decompose_controlled_swaps"

    def __init__(self, *, all_swaps: bool = False):
        #: With ``all_swaps=True`` plain SWAPs decompose too (useful to
        #: study what QuEST without a native SWAP would pay).
        self.all_swaps = all_swaps

    def transform(
        self,
        circuit: Circuit,
        partition: Partition | None,
        properties: PropertySet,
    ) -> PassResult:
        out = Circuit(
            circuit.num_qubits,
            name=(circuit.name + "_noswap") if circuit.name else "",
        )
        decomposed = 0
        for gate in circuit:
            if gate.is_swap() and (gate.controls or self.all_swaps):
                a, b = gate.targets
                extra = gate.controls
                out.append(Gate.named("x", (b,), controls=(a, *extra)))
                out.append(Gate.named("x", (a,), controls=(b, *extra)))
                out.append(Gate.named("x", (b,), controls=(a, *extra)))
                decomposed += 1
            else:
                out.append(gate)
        return PassResult(
            circuit=out,
            output_permutation={q: q for q in range(circuit.num_qubits)},
            stats={"swaps_decomposed": decomposed},
        )
