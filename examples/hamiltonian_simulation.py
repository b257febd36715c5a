#!/usr/bin/env python3
"""Hamiltonian simulation: a structurally different workload.

Trotterised transverse-field Ising dynamics stress the energy model in
the opposite way to the QFT: the ZZ bonds are diagonal (fully local --
free!), while the X-field rotations pair on *every* qubit each step.
The script validates the Trotter circuit against exact evolution,
prices it on the ARCHER2 model, and shows what cache blocking can and
cannot do for it (spoiler: it cannot cut the distributed-gate count --
but it converts all communication into halvable SWAPs).

Run:  python examples/hamiltonian_simulation.py
"""

import numpy as np
from scipy.linalg import expm

from repro.circuits import (
    communication_volume,
    distributed_gate_count,
    random_state,
    tfim_hamiltonian,
    tfim_trotter_circuit,
)
from repro.core import RunOptions, SimulationRunner
from repro.statevector import DenseStatevector
from repro.statevector.fidelity import fidelity
from repro.transpile import CacheBlockingPass
from repro.utils.tables import render_table


def validate_trotterisation() -> None:
    n, time = 6, 1.0
    psi = random_state(n, seed=1)
    exact = expm(-1j * time * tfim_hamiltonian(n)) @ psi
    rows = []
    for order in (1, 2):
        for steps in (10, 40, 160):
            circuit = tfim_trotter_circuit(n, time=time, steps=steps, order=order)
            out = (
                DenseStatevector.from_amplitudes(psi)
                .apply_circuit(circuit)
                .amplitudes
            )
            rows.append(
                [f"order {order}", steps, len(circuit), f"{1 - fidelity(out, exact):.2e}"]
            )
    print(
        render_table(
            ["splitting", "steps", "gates", "infidelity vs expm"],
            rows,
            title="TFIM Trotter error (6 qubits, t = 1.0)",
        )
    )


def price_at_scale() -> None:
    runner = SimulationRunner()
    n, steps = 38, 20
    circuit = tfim_trotter_circuit(n, time=1.0, steps=steps)
    report = runner.run(circuit, RunOptions())
    print()
    print(
        f"{n}-qubit TFIM, {steps} Trotter steps on {report.num_nodes} nodes: "
        f"{report.runtime_s:.0f} s, {report.energy_j / 1e6:.1f} MJ, "
        f"MPI {report.mpi_fraction:.0%}"
    )

    m = report.prediction.config.partition.local_qubits
    blocked = CacheBlockingPass(m).run(circuit)
    print(
        f"cache blocking: distributed ops "
        f"{distributed_gate_count(circuit, m)} -> "
        f"{distributed_gate_count(blocked.circuit, m)} (no count win: every "
        f"qubit is pair-targeted each step)"
    )
    full = communication_volume(blocked.circuit, m)
    halved = communication_volume(blocked.circuit, m, halved_swaps=True)
    print(
        f"...but all communication becomes SWAPs: "
        f"{full / 2**30:.0f} GiB/rank -> {halved / 2**30:.0f} GiB/rank "
        f"with halved exchanges"
    )


if __name__ == "__main__":
    validate_trotterisation()
    price_at_scale()
