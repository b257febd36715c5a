"""Diagonal-fusion pass: merge runs of diagonal gates into one sweep.

QuEST applies each controlled phase as its own pass over the local
amplitudes; fusing a run of ``k`` diagonal gates replaces ``k`` sweeps
with one.  The paper's built-in QFT does *not* fuse (its measured local
time matches per-gate sweeps), which makes this pass the natural
"what if it did?" ablation (``bench_ext_fusion``).

The runs come from the diagonal stage of the executors' own fusion
(:func:`repro.statevector.apply_plan.compile_plan`), so the pass and the
``diag`` fusion mode group diagonal runs by one rule; the pass only adds
the ``min_run`` threshold.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.errors import TranspilerError
from repro.statevector.apply_plan import _diag_fusion_units
from repro.statevector.partition import Partition
from repro.transpile.basepass import PassResult, TransformationPass
from repro.transpile.property_set import PropertySet

__all__ = ["DiagonalFusionPass"]


class DiagonalFusionPass(TransformationPass):
    """Fuse maximal runs of consecutive diagonal gates."""

    name = "diagonal_fusion"

    def __init__(self, *, min_run: int = 2, max_fused_qubits: int = 16):
        if min_run < 2:
            raise TranspilerError(f"min_run must be >= 2, got {min_run}")
        self.min_run = min_run
        self.max_fused_qubits = max_fused_qubits

    def transform(
        self,
        circuit: Circuit,
        partition: Partition | None,
        properties: PropertySet,
    ) -> PassResult:
        out = Circuit(
            circuit.num_qubits,
            name=(circuit.name + "_fused") if circuit.name else "fused",
        )
        fused_count = 0
        gates_fused = 0
        for gate, run in _diag_fusion_units(
            circuit, True, self.max_fused_qubits
        ):
            if len(run) >= self.min_run:
                out.append(gate)
                fused_count += 1
                gates_fused += len(run)
            else:
                out.extend(run)
        return PassResult(
            circuit=out,
            output_permutation={q: q for q in range(circuit.num_qubits)},
            stats={"runs_fused": fused_count, "gates_fused": gates_fused},
        )
