"""Extension: how different algorithm families stress the machine.

The paper studies the QFT; this study prices a workload zoo -- QFT,
Grover search, Trotterised Ising dynamics and a random circuit -- at
one register size, with and without cache blocking, exposing how the
diagonal/pairing mix of each family determines its communication
profile and how much the paper's optimisation buys it.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.circuits.grover import grover_circuit
from repro.circuits.qft import builtin_qft_circuit, cache_blocked_qft_circuit
from repro.circuits.random_circuits import random_circuit
from repro.circuits.trotter import tfim_trotter_circuit
from repro.experiments.reporting import ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector.partition import Partition
from repro.transpile import CacheBlockingPass

__all__ = ["run", "DEFAULT_NUM_QUBITS", "DEFAULT_NUM_NODES", "DEFAULT_SEED"]

#: Register size of the paper-scale zoo run (overridable per call via
#: ``run_experiment("ext-workloads", num_qubits=...)``).
DEFAULT_NUM_QUBITS = 38
#: Node count of the paper-scale zoo run.
DEFAULT_NUM_NODES = 64
#: Seed for the seeded families (the random circuit).
DEFAULT_SEED = 23


def _workloads(
    n: int, m: int, seed: int = DEFAULT_SEED
) -> list[tuple[str, Circuit, Circuit]]:
    """(name, baseline circuit, fast/blocked circuit) triples."""
    qft = builtin_qft_circuit(n)
    grover = grover_circuit(n, marked=3, iterations=3)
    tfim = tfim_trotter_circuit(n, time=1.0, steps=5)
    rand = random_circuit(n, 40 * n, seed=seed, allow_unitaries=False)
    blocked = {
        "qft": cache_blocked_qft_circuit(n, m),
        "grover": CacheBlockingPass(m).run(grover).circuit,
        "tfim": CacheBlockingPass(m).run(tfim).circuit,
        "random": CacheBlockingPass(m).run(rand).circuit,
    }
    return [
        ("qft", qft, blocked["qft"]),
        ("grover", grover, blocked["grover"]),
        ("tfim", tfim, blocked["tfim"]),
        ("random", rand, blocked["random"]),
    ]


def run(
    *,
    num_qubits: int = DEFAULT_NUM_QUBITS,
    num_nodes: int = DEFAULT_NUM_NODES,
    seed: int = DEFAULT_SEED,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Price the workload zoo, baseline vs cache-blocked + non-blocking."""
    partition = Partition(num_qubits, num_nodes)
    m = partition.local_qubits
    result = ExperimentResult(
        experiment_id="ext-workloads",
        title=f"Workload zoo ({num_qubits} qubits, {num_nodes} nodes)",
        headers=[
            "workload",
            "gates",
            "base time [s]",
            "base MPI %",
            "fast time [s]",
            "fast MPI %",
            "saved",
        ],
    )
    for name, baseline, blocked in _workloads(num_qubits, m, seed):
        base = predict(
            baseline,
            RunConfiguration(
                partition, STANDARD_NODE, CpuFrequency.MEDIUM,
                comm_mode=CommMode.BLOCKING, calibration=calibration,
            ),
        )
        fast = predict(
            blocked,
            RunConfiguration(
                partition, STANDARD_NODE, CpuFrequency.MEDIUM,
                comm_mode=CommMode.NONBLOCKING, calibration=calibration,
            ),
        )
        saved = 1.0 - fast.runtime_s / base.runtime_s
        result.rows.append(
            [
                name,
                len(baseline),
                f"{base.runtime_s:.1f}",
                f"{100 * base.profile.mpi_fraction:.0f}",
                f"{fast.runtime_s:.1f}",
                f"{100 * fast.profile.mpi_fraction:.0f}",
                f"{saved:.0%}",
            ]
        )
        result.metrics[f"{name}_base_runtime"] = base.runtime_s
        result.metrics[f"{name}_fast_runtime"] = fast.runtime_s
        result.metrics[f"{name}_base_mpi"] = base.profile.mpi_fraction
        result.metrics[f"{name}_fast_mpi"] = fast.profile.mpi_fraction
        result.metrics[f"{name}_saved"] = saved
    result.notes = (
        "Cache blocking pays where pairing work clusters per qubit (the "
        "QFT's blocks, random circuits' revisited hotspots); full-width "
        "layered families (Grover's H/X layers, TFIM's field layer) gain "
        "little -- each inserted SWAP buys a single localised gate."
    )
    return result
