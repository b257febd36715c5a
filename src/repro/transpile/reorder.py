"""Commutation-aware gate reordering.

List-schedules the dependency DAG built by
:class:`~repro.transpile.analysis.CommutationAnalysis` so that gates
pairing on the *same* qubits end up adjacent whenever commutation
allows.  That adjacency is what lets the grouping pass amortise one
remap collective over a whole cluster of gates instead of shuttling the
same qubit in and out of the local window.

The schedule is deterministic: among ready gates (all DAG predecessors
emitted) it prefers the gate whose pairing targets overlap the most
with the pairing targets of the last emitted pairing gate, breaking
ties by original position -- so a circuit with nothing to gain passes
through unchanged.
"""

from __future__ import annotations

import heapq

from repro.circuits.circuit import Circuit
from repro.statevector.partition import Partition
from repro.transpile.basepass import (
    PassResult,
    TransformationPass,
    identity_permutation,
)
from repro.transpile.property_set import PropertySet

__all__ = ["CommutationReorderPass"]


class CommutationReorderPass(TransformationPass):
    """Cluster same-pairing gates adjacently, preserving semantics."""

    name = "commutation_reorder"
    requires = ("commutation_dag",)

    def transform(
        self, circuit: Circuit, partition: Partition, properties: PropertySet
    ) -> PassResult:
        gates = list(circuit)
        dag: list[set[int]] = properties.require("commutation_dag")
        succs: list[list[int]] = [[] for _ in gates]
        indegree = [0] * len(gates)
        for i, preds in enumerate(dag):
            indegree[i] = len(preds)
            for j in preds:
                succs[j].append(i)

        ready = [i for i, d in enumerate(indegree) if d == 0]
        heapq.heapify(ready)
        out = Circuit(
            circuit.num_qubits,
            name=(circuit.name + "_reordered") if circuit.name else "",
        )
        order: list[int] = []
        cluster: frozenset[int] = frozenset()
        while ready:
            # Among ready gates, take the best cluster match; ties
            # resolve to original position, so a circuit with nothing
            # to gain passes through unchanged.
            staged: list[int] = []
            while ready:
                staged.append(heapq.heappop(ready))
            chosen = max(
                staged,
                key=lambda i: (
                    len(cluster & set(gates[i].pairing_targets())),
                    -i,
                ),
            )
            for i in staged:
                if i != chosen:
                    heapq.heappush(ready, i)
            order.append(chosen)
            pairing = gates[chosen].pairing_targets()
            if pairing:
                cluster = frozenset(pairing)
            out.append(gates[chosen])
            for k in succs[chosen]:
                indegree[k] -= 1
                if indegree[k] == 0:
                    heapq.heappush(ready, k)

        moved = sum(1 for pos, i in enumerate(order) if pos != i)
        return PassResult(
            circuit=out,
            output_permutation=identity_permutation(circuit.num_qubits),
            stats={"gates_moved": moved},
        )
