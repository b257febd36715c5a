"""Gate-group formation and remap insertion: the pipeline's payload.

Walks the (reordered) circuit tracking a logical-to-physical placement,
exactly like the paper's cache-blocking transpiler -- but where
cache-blocking inserts one full-exchange SWAP per distributed pairing,
this pass batches the qubits a *group* of upcoming gates needs into a
single ``remap`` collective:

* bare uncontrolled SWAPs are absorbed into the placement (free);
* when a gate pairs on distributed wires, the pass looks ahead for
  other soon-needed distributed qubits and folds up to
  ``max_remap_pairs`` local/global transpositions into one
  :meth:`Gate.remap <repro.gates.gate.Gate.remap>`;
* eviction is Belady (furthest next pairing use), tie-broken by the
  ``global_affinity`` ranking when present.

A ``g``-pair remap moves ``local * (2**g - 1) / 2**g`` bytes per rank
in ``2**g - 1`` sub-exchanges -- always cheaper than even *one* of the
full-buffer exchanges it replaces, so every absorbed pairing is a
strict win in both rounds and bytes.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.errors import TranspilerError
from repro.gates import Gate
from repro.statevector.partition import Partition
from repro.transpile.basepass import PassResult, TransformationPass
from repro.transpile.cache_blocking import next_pairing_use
from repro.transpile.property_set import PropertySet

__all__ = ["GateGroupFormationPass"]


class GateGroupFormationPass(TransformationPass):
    """Make every pairing gate local via batched remap collectives."""

    name = "gate_grouping"

    def __init__(
        self,
        *,
        max_remap_pairs: int = 1,
        lookahead: int = 64,
    ):
        if max_remap_pairs < 1:
            raise TranspilerError(
                f"max_remap_pairs must be >= 1, got {max_remap_pairs}"
            )
        if lookahead < 0:
            raise TranspilerError(f"lookahead must be >= 0, got {lookahead}")
        self.max_remap_pairs = max_remap_pairs
        self.lookahead = lookahead

    def transform(
        self, circuit: Circuit, partition: Partition, properties: PropertySet
    ) -> PassResult:
        if partition is None:
            raise TranspilerError("GateGroupFormationPass needs a partition")
        n = circuit.num_qubits
        m = partition.local_qubits
        stats = {
            "groups_formed": 0,
            "remap_pairs": 0,
            "swaps_absorbed": 0,
            "gates_grouped": 0,
            "gates_left_distributed": 0,
        }
        if m >= n:
            return PassResult(
                circuit=Circuit(n, circuit.gates, name=circuit.name),
                output_permutation={q: q for q in range(n)},
                stats=stats,
            )

        gates = list(circuit)
        next_use = self._next_use_skipping_absorbed(circuit)
        affinity: dict[int, int] = properties.get("global_affinity", {})
        horizon = len(gates) + 1
        l2p = {q: q for q in range(n)}
        p2l = {q: q for q in range(n)}
        out = Circuit(
            n, name=(circuit.name + "_grouped") if circuit.name else ""
        )

        def virtual_swap(la: int, lb: int) -> None:
            pa, pb = l2p[la], l2p[lb]
            l2p[la], l2p[lb] = pb, pa
            p2l[pa], p2l[pb] = lb, la

        for index, gate in enumerate(gates):
            if gate.is_swap() and not gate.controls:
                virtual_swap(gate.targets[0], gate.targets[1])
                stats["swaps_absorbed"] += 1
                continue
            pairing = list(dict.fromkeys(gate.pairing_targets()))
            needed = [q for q in pairing if l2p[q] >= m]
            # Slots pinned by pairing targets already local; controls
            # and diagonal targets are free on distributed qubits and
            # need no slot.
            pinned = {l2p[q] for q in pairing if l2p[q] < m}
            if needed and len(needed) <= m - len(pinned):
                batch = self._build_batch(
                    needed, gates, index, l2p, m, m - len(pinned)
                )
                pairs = self._place_batch(
                    batch, pinned, index, next_use, affinity,
                    l2p, p2l, m, horizon,
                )
                out.append(Gate.remap(tuple(pairs)))
                stats["groups_formed"] += 1
                stats["remap_pairs"] += len(pairs)
            elif needed:
                # The window cannot hold every pairing target at once
                # (e.g. a distributed SWAP with one local slot): leave
                # the gate on the planner's pairwise-exchange path.
                stats["gates_left_distributed"] += 1
            elif pairing:
                stats["gates_grouped"] += 1
            out.append(gate.remapped(l2p))

        return PassResult(
            circuit=out,
            output_permutation=dict(l2p),
            stats=stats,
        )

    # -- helpers ------------------------------------------------------------

    def _next_use_skipping_absorbed(
        self, circuit: Circuit
    ) -> list[dict[int, int]]:
        """Next-pairing-use table, ignoring SWAPs this pass will absorb.

        An absorbed SWAP is pure relabelling: its targets never demand
        locality, so counting them would make the Belady policy retain
        qubits nobody pairs on.
        """
        kept = Circuit(circuit.num_qubits)
        index_map: list[int] = []
        for i, gate in enumerate(circuit):
            if gate.is_swap() and not gate.controls:
                continue
            kept.append(gate)
            index_map.append(i)
        table = next_pairing_use(kept)
        # Re-spread the compacted table over original indices: entry i
        # is the table row of the first kept gate at or after i.
        out: list[dict[int, int]] = []
        k = 0
        for i in range(len(circuit) + 1):
            while k < len(index_map) and index_map[k] < i:
                k += 1
            out.append(table[k])
        return out

    def _build_batch(
        self,
        needed: list[int],
        gates: list[Gate],
        index: int,
        l2p: dict[int, int],
        m: int,
        slots: int,
    ) -> list[int]:
        """The logical qubits one remap should pull local.

        Starts from the current gate's distributed pairing targets
        (always all included -- correctness first), then looks ahead for
        further distributed pairing qubits, in first-use order, until
        ``max_remap_pairs`` or the unpinned-slot budget is reached.
        """
        batch = list(dict.fromkeys(needed))
        limit = max(self.max_remap_pairs, len(batch))
        limit = min(limit, slots)  # one distinct local victim per pair
        end = min(len(gates), index + 1 + self.lookahead)
        for j in range(index + 1, end):
            if len(batch) >= limit:
                break
            nxt = gates[j]
            if nxt.is_swap() and not nxt.controls:
                continue
            for q in nxt.pairing_targets():
                if len(batch) >= limit:
                    break
                if l2p[q] >= m and q not in batch:
                    batch.append(q)
        return batch

    def _place_batch(
        self,
        batch: list[int],
        pinned: set[int],
        index: int,
        next_use: list[dict[int, int]],
        affinity: dict[int, int],
        l2p: dict[int, int],
        p2l: dict[int, int],
        m: int,
        horizon: int,
    ) -> list[tuple[int, int]]:
        """Choose a victim slot per incoming qubit; update the placement."""
        protected = set(pinned)
        incoming = set(batch)
        uses = next_use[index]
        pairs: list[tuple[int, int]] = []
        for q in batch:
            best_phys = None
            best_key = None
            for phys in range(m):
                if phys in protected:
                    continue
                logical = p2l[phys]
                if logical in incoming:
                    continue
                # Furthest next pairing use wins; ties go to the qubit
                # most comfortable in the rank bits, then the highest
                # slot (deterministic).
                key = (
                    uses.get(logical, horizon),
                    affinity.get(logical, 0),
                    phys,
                )
                if best_key is None or key > best_key:
                    best_key = key
                    best_phys = phys
            if best_phys is None:
                raise TranspilerError(
                    f"remap batch {batch} needs more local slots than "
                    f"the window holds ({m})"
                )
            global_phys = l2p[q]
            victim = p2l[best_phys]
            pairs.append((best_phys, global_phys))
            l2p[q], l2p[victim] = best_phys, global_phys
            p2l[best_phys], p2l[global_phys] = q, victim
            protected.add(best_phys)
        return pairs
