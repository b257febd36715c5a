"""Peephole circuit optimisation.

Local rewrites that never change the circuit's action:

* adjacent self-inverse pairs cancel (``H H``, ``X X``, ``CX CX``,
  ``SWAP SWAP`` -- same targets *and* controls, nothing touching their
  wires in between);
* adjacent phase-family gates on identical wires merge
  (``P(a) P(b) -> P(a+b)``, same for ``RZ``);
* identities are dropped (``id``, ``P(0)``, ``RZ(0)``, merged phases
  that cancel).

Applied to a fixpoint.  Useful before cache blocking: every gate
removed is a sweep (or an exchange) never paid for.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.circuit import Circuit
from repro.gates import Gate
from repro.statevector.partition import Partition
from repro.transpile.basepass import PassResult, TransformationPass
from repro.transpile.property_set import PropertySet

__all__ = ["PeepholePass"]

_SELF_INVERSE_NAMES = {"h", "x", "y", "z", "swap", "id"}
_PHASE_FAMILIES = {"p", "rz"}
_TWO_PI = 2.0 * math.pi


def _wires(gate: Gate) -> frozenset[int]:
    return frozenset(gate.targets + gate.controls)


def _is_self_inverse(gate: Gate) -> bool:
    if gate.name in _SELF_INVERSE_NAMES:
        return True
    if gate.name == "unitary":
        m = gate.matrix()
        return bool(np.allclose(m @ m, np.eye(m.shape[0]), atol=1e-12))
    return False


def _same_wiring(a: Gate, b: Gate) -> bool:
    return a.targets == b.targets and a.controls == b.controls


def _is_identity(gate: Gate) -> bool:
    if gate.name == "id":
        return True
    if gate.name in _PHASE_FAMILIES:
        return math.isclose(
            math.remainder(gate.params[0], _TWO_PI), 0.0, abs_tol=1e-12
        )
    return False


def _merge_phases(a: Gate, b: Gate) -> Gate:
    angle = a.params[0] + b.params[0]
    return Gate.named(a.name, a.targets, controls=a.controls, params=(angle,))


class PeepholePass(TransformationPass):
    """Cancel, merge and drop gates until nothing changes."""

    name = "peephole"

    def __init__(self, *, max_rounds: int = 32):
        self.max_rounds = max_rounds

    def transform(
        self,
        circuit: Circuit,
        partition: Partition | None,
        properties: PropertySet,
    ) -> PassResult:
        gates = list(circuit.gates)
        removed = 0
        merged = 0
        for _ in range(self.max_rounds):
            new_gates, r, m = self._one_round(gates)
            removed += r
            merged += m
            if not (r or m):
                break
            gates = new_gates
        out = Circuit(
            circuit.num_qubits,
            gates,
            name=(circuit.name + "_opt") if circuit.name else "",
        )
        return PassResult(
            circuit=out,
            output_permutation={q: q for q in range(circuit.num_qubits)},
            stats={"gates_removed": removed, "phases_merged": merged},
        )

    @staticmethod
    def _one_round(gates: list[Gate]) -> tuple[list[Gate], int, int]:
        out: list[Gate] = []
        removed = 0
        merged = 0
        for gate in gates:
            if _is_identity(gate):
                removed += 1
                continue
            prev = PeepholePass._last_overlapping(out, gate)
            if prev is not None:
                previous = out[prev]
                if (
                    _same_wiring(previous, gate)
                    and previous == gate
                    and _is_self_inverse(gate)
                ):
                    out.pop(prev)
                    removed += 2
                    continue
                if (
                    gate.name in _PHASE_FAMILIES
                    and previous.name == gate.name
                    and _same_wiring(previous, gate)
                ):
                    combined = _merge_phases(previous, gate)
                    merged += 1
                    if _is_identity(combined):
                        out.pop(prev)
                        removed += 1
                    else:
                        out[prev] = combined
                    continue
            out.append(gate)
        return out, removed, merged

    @staticmethod
    def _last_overlapping(gates: list[Gate], gate: Gate) -> int | None:
        """Index of the most recent gate sharing a wire, or None."""
        wires = _wires(gate)
        for i in range(len(gates) - 1, -1, -1):
            if _wires(gates[i]) & wires:
                return i
        return None
