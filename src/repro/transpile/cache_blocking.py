"""The generic cache-blocking transpiler pass (paper section 2.2 + §4).

The paper hand-blocks the QFT (fig. 1b) and proposes "a cache-blocking
transpiler" as future work; this pass is that transpiler, and the
``blocked`` strategy of :func:`repro.transpile.transpile`.  It tracks a
logical-to-physical qubit placement and rewrites an arbitrary circuit so
that every *pairing* operation (non-diagonal gate) acts on a local
physical wire:

* input SWAP gates are absorbed into the placement for free (pure
  relabelling -- no data motion at all);
* when a gate would pair on a distributed wire, a physical SWAP is
  inserted to pull the logical qubit into the local window, evicting the
  local qubit whose next pairing use lies furthest in the future (a
  Belady-style policy);
* diagonal gates and controls are never moved -- they are free wherever
  they live, which is the entire reason cache-blocking wins.

Applied to the paper's QFT, the pass reproduces fig. 1b's cost exactly:
``d`` distributed SWAPs and nothing else distributed (tests assert
this).  With ``restore_layout=True`` the output ends in the input
layout; otherwise the residual permutation is reported in the result,
the common HPC practice of tracking bit order classically.  It is the
middle rung of the strategy ladder: ``naive`` < ``blocked`` <
``grouped``, each strictly reducing communication on pairing-heavy
circuits.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.errors import TranspilerError
from repro.gates import Gate
from repro.statevector.partition import Partition
from repro.transpile.basepass import PassResult, TransformationPass
from repro.transpile.property_set import PropertySet

__all__ = ["CacheBlockingPass", "next_pairing_use"]


def next_pairing_use(circuit: Circuit) -> list[dict[int, int]]:
    """For each gate index, the next index each qubit pairs at.

    ``table[i][q]`` is the smallest ``j >= i`` with ``q`` a pairing
    target of gate ``j`` (absent when never used again).  Shared by the
    Belady eviction policies of :class:`CacheBlockingPass` and
    :class:`~repro.transpile.grouping.GateGroupFormationPass`.
    """
    table: list[dict[int, int]] = [dict() for _ in range(len(circuit) + 1)]
    nxt: dict[int, int] = {}
    for i in range(len(circuit) - 1, -1, -1):
        gate = circuit[i]
        for q in gate.pairing_targets():
            nxt = dict(nxt)
            nxt[q] = i
        table[i] = nxt
    table[len(circuit)] = {}
    return table


class CacheBlockingPass(TransformationPass):
    """Make every pairing gate local for a given local-qubit count.

    The local window is ``local_qubits`` when given, else the
    partition's ``local_qubits``.
    """

    name = "cache_blocking"

    def __init__(
        self,
        local_qubits: int | None = None,
        *,
        absorb_swaps: bool = True,
        restore_layout: bool = False,
    ):
        if local_qubits is not None and local_qubits < 1:
            raise TranspilerError(
                f"local_qubits must be >= 1, got {local_qubits}"
            )
        self.local_qubits = local_qubits
        self.absorb_swaps = absorb_swaps
        self.restore_layout = restore_layout

    def transform(
        self,
        circuit: Circuit,
        partition: Partition | None,
        properties: PropertySet,
    ) -> PassResult:
        if self.local_qubits is not None:
            m = self.local_qubits
        elif partition is not None:
            m = partition.local_qubits
        else:
            raise TranspilerError(
                "CacheBlockingPass needs local_qubits or a partition"
            )
        n = circuit.num_qubits
        if m >= n:
            # Everything already local: nothing to do.
            return PassResult(
                circuit=Circuit(n, circuit.gates, name=circuit.name),
                output_permutation={q: q for q in range(n)},
                stats={"swaps_inserted": 0, "swaps_absorbed": 0},
            )

        next_use = next_pairing_use(circuit)
        logical_to_phys = {q: q for q in range(n)}
        phys_to_logical = {q: q for q in range(n)}
        out = Circuit(n, name=(circuit.name + "_cb") if circuit.name else "cb")
        swaps_inserted = 0
        swaps_absorbed = 0

        def apply_physical_swap(pa: int, pb: int) -> None:
            """Emit SWAP(pa, pb) and update both placement maps."""
            la, lb = phys_to_logical[pa], phys_to_logical[pb]
            out.append(Gate.named("swap", (pa, pb)))
            logical_to_phys[la], logical_to_phys[lb] = pb, pa
            phys_to_logical[pa], phys_to_logical[pb] = lb, la

        def virtual_swap(la: int, lb: int) -> None:
            """Relabel two logical qubits without emitting a gate."""
            pa, pb = logical_to_phys[la], logical_to_phys[lb]
            logical_to_phys[la], logical_to_phys[lb] = pb, pa
            phys_to_logical[pa], phys_to_logical[pb] = lb, la

        for index, gate in enumerate(circuit):
            if gate.is_swap() and not gate.controls and self.absorb_swaps:
                virtual_swap(gate.targets[0], gate.targets[1])
                swaps_absorbed += 1
                continue
            # Pull every distributed pairing target into the local window.
            for logical_target in gate.pairing_targets():
                phys = logical_to_phys[logical_target]
                if phys < m:
                    continue
                victim_phys = self._choose_victim(
                    gate, index, next_use, logical_to_phys, phys_to_logical, m
                )
                apply_physical_swap(victim_phys, phys)
                swaps_inserted += 1
            out.append(gate.remapped(logical_to_phys))

        if self.restore_layout:
            # Greedy cycle restoration with physical swaps.
            for q in range(n):
                while logical_to_phys[q] != q:
                    apply_physical_swap(q, logical_to_phys[q])
                    swaps_inserted += 1

        return PassResult(
            circuit=out,
            output_permutation=dict(logical_to_phys),
            stats={
                "swaps_inserted": swaps_inserted,
                "swaps_absorbed": swaps_absorbed,
            },
        )

    def _choose_victim(
        self,
        gate: Gate,
        index: int,
        next_use: list[dict[int, int]],
        logical_to_phys: dict[int, int],
        phys_to_logical: dict[int, int],
        m: int,
    ) -> int:
        """Pick the local slot to evict: furthest next pairing use wins.

        Slots holding qubits this very gate touches are excluded.  A
        logical qubit that never pairs again is the ideal victim.
        """
        in_use = {
            logical_to_phys[q] for q in gate.targets + gate.controls
        }
        best_phys = None
        best_key = None
        uses = next_use[index]
        horizon = len(next_use) + 1
        for phys in range(m):
            if phys in in_use:
                continue
            logical = phys_to_logical[phys]
            key = (uses.get(logical, horizon), -phys)
            if best_key is None or key > best_key:
                best_key = key
                best_phys = phys
        if best_phys is None:
            raise TranspilerError(
                f"gate {gate} touches more qubits than the local window "
                f"holds ({m})"
            )
        return best_phys
