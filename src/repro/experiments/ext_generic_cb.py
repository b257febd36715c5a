"""Extension: the generic cache-blocking transpiler on non-QFT circuits.

The paper proposes a cache-blocking transpiler pass as future work;
``CacheBlockingPass`` is that pass.  This experiment applies it to the
QFT (recovering fig. 1b's communication count), to Quantum Phase
Estimation, and to random circuits, reporting distributed-operation
counts before and after, with numeric equivalence verified at small
scale.
"""

from __future__ import annotations

from repro.circuits.analysis import distributed_gate_count
from repro.circuits.circuit import Circuit
from repro.circuits.qft import qft_circuit
from repro.circuits.random_circuits import qpe_circuit, random_circuit
from repro.experiments.reporting import ExperimentResult
from repro.transpile import CacheBlockingPass, assert_equivalent

__all__ = ["run"]


def run(
    *,
    num_qubits: int = 10,
    local_qubits: int = 7,
    verify: bool = True,
) -> ExperimentResult:
    """Transpile a circuit zoo and count the communication removed."""
    workloads: list[tuple[str, Circuit]] = [
        ("qft", qft_circuit(num_qubits)),
        ("qpe", qpe_circuit(num_qubits - 1, phase=0.1337)),
        ("random", random_circuit(num_qubits, 120, seed=7)),
        (
            "random_no_swaps",
            random_circuit(num_qubits, 120, seed=8, allow_swaps=False),
        ),
    ]
    result = ExperimentResult(
        experiment_id="ext-generic-cb",
        title=f"Generic cache-blocking pass ({num_qubits} qubits, "
        f"{local_qubits} local)",
        headers=[
            "circuit",
            "dist ops before",
            "dist ops after",
            "swaps inserted",
            "swaps absorbed",
            "verified",
        ],
    )
    for name, circuit in workloads:
        before = distributed_gate_count(circuit, local_qubits)
        pass_result = CacheBlockingPass(local_qubits).run(circuit)
        after = distributed_gate_count(pass_result.circuit, local_qubits)
        verified = "-"
        if verify:
            assert_equivalent(
                circuit,
                pass_result.circuit,
                output_permutation=pass_result.output_permutation,
            )
            verified = "yes"
        result.rows.append(
            [
                name,
                before,
                after,
                pass_result.stats["swaps_inserted"],
                pass_result.stats["swaps_absorbed"],
                verified,
            ]
        )
        result.metrics[f"{name}_before"] = float(before)
        result.metrics[f"{name}_after"] = float(after)
    result.notes = (
        "After the pass, the only distributed operations are the SWAPs it "
        "inserted; diagonal gates and controls never communicate."
    )
    return result
