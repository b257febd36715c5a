"""Hooks that bend a DES replay around a :class:`FaultPlan`.

Three injection points, each deterministic:

* :class:`FaultySchedule` wraps a compiled
  :class:`~repro.des.schedule.ScheduleSet`, stretching straggler ranks'
  compute spans (and the local updates attached to their exchanges) by
  the per-rank slowdown factor.  Non-stragglers see the identical ops,
  so a zero plan replays bit-identically.
* :func:`degrade_fabric` rescales the NIC bandwidth (both directions)
  of degraded nodes in an already-built
  :class:`~repro.des.resources.Fabric` -- the cut-through reservation
  model then naturally bottlenecks every flow that touches them.
* :class:`ChunkFaultModel` decides, purely from the plan seed and the
  chunk's coordinates, how many transmission attempts each exchange
  chunk needs and how long each backoff is.  The exchange drivers in
  :mod:`repro.des.rank` consult it per chunk.

:class:`FaultReport` is the summary attached to a
:class:`~repro.des.replay.DesResult` (and to analytic predictions):
base vs stretched wall time plus the full failure/checkpoint/retry
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.des.schedule import ComputeOp, ExchangeOp, ScheduleSet
from repro.faults.checkpoint import CheckpointOverlay, FaultEvent
from repro.faults.plan import FaultPlan
from repro.faults.rng import uniform

__all__ = [
    "FaultySchedule",
    "degrade_fabric",
    "ChunkFaultModel",
    "FaultReport",
    "build_report",
]


class FaultySchedule:
    """A straggler-aware view over a compiled schedule set."""

    def __init__(self, base: ScheduleSet, plan: FaultPlan):
        self._base = base
        self._plan = plan
        self.config = base.config
        self.num_ranks = base.num_ranks

    @property
    def num_exchanges(self) -> int:
        return self._base.num_exchanges

    def ops_for(self, rank: int):
        slowdown = self._plan.slowdown_of(rank)
        if slowdown == 1.0:
            yield from self._base.ops_for(rank)
            return
        for op in self._base.ops_for(rank):
            if isinstance(op, ComputeOp):
                yield ComputeOp(op.gate_lo, op.gate_hi, op.seconds * slowdown)
            elif op.local_s > 0:
                yield ExchangeOp(
                    gate_index=op.gate_index,
                    gate_name=op.gate_name,
                    partner=op.partner,
                    send_bytes=op.send_bytes,
                    chunk_sizes=op.chunk_sizes,
                    intranode=op.intranode,
                    local_s=op.local_s * slowdown,
                    overlap=op.overlap,
                    seq=op.seq,
                )
            else:
                yield op


def degrade_fabric(fabric, plan: FaultPlan) -> None:
    """Scale the NIC bandwidth of every degraded node, in place."""
    for degradation in plan.link_degradations:
        fabric.nic_tx[degradation.node].bandwidth *= degradation.factor
        fabric.nic_rx[degradation.node].bandwidth *= degradation.factor


class ChunkFaultModel:
    """Seeded per-chunk failure/retry decisions for the exchange drivers.

    ``attempts`` is a pure function of ``(seed, gate, seq, pair, chunk)``:
    attempt ``i`` fails iff its keyed uniform draw lands below the
    failure rate, capped at ``max_retries`` retransmissions (a reliable
    transport eventually forces the chunk through).  Event-loop order
    never feeds back into the draws, so replays are bit-identical.
    """

    __slots__ = ("_seed", "_rate", "_backoff", "_max_retries", "retries")

    _STREAM = 0xC6A9

    def __init__(self, plan: FaultPlan):
        self._seed = plan.seed
        self._rate = plan.chunk_failure_rate
        self._backoff = plan.retry_backoff_s
        self._max_retries = plan.max_retries
        #: Total retransmissions issued during the replay (accounting).
        self.retries = 0

    def attempts(
        self, gate_index: int, pair_low_rank: int, chunk: int, *, seq: int = 0
    ) -> int:
        """Transmission attempts chunk ``chunk`` of this exchange needs.

        ``seq`` is the exchange's round within its gate: the rounds of a
        remap pair the same low rank with different partners and must
        draw independently.  Round 0 keys on the gate alone, so ordinary
        gates keep their draws.
        """
        rounds = (seq,) if seq else ()
        attempt = 0
        while (
            attempt < self._max_retries
            and uniform(
                self._seed,
                self._STREAM,
                gate_index,
                pair_low_rank,
                chunk,
                attempt,
                *rounds,
            )
            < self._rate
        ):
            attempt += 1
        return attempt + 1

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff before retransmission ``attempt + 1``."""
        return self._backoff * (2.0**attempt)


@dataclass(frozen=True)
class FaultReport:
    """Everything a fault-injected run suffered, in one record."""

    plan: FaultPlan
    #: Makespan of the (possibly straggler/retry-stretched) replay
    #: before the checkpoint/failure overlay.
    base_makespan_s: float
    #: Final wall time including failures, rework, writes and restarts.
    wall_s: float
    lost_work_s: float
    checkpoint_write_s: float
    restart_s: float
    num_failures: int
    num_checkpoints: int
    #: Chunk retransmissions issued inside the replay.
    chunk_retries: int
    events: tuple[FaultEvent, ...]

    @property
    def overhead_s(self) -> float:
        """Wall time added on top of the base replay."""
        return self.wall_s - self.base_makespan_s

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"faults: {self.num_failures} failure(s), "
            f"{self.num_checkpoints} checkpoint(s), "
            f"{self.chunk_retries} chunk retries; wall "
            f"{self.base_makespan_s:.3g}s -> {self.wall_s:.3g}s "
            f"(+{self.overhead_s:.3g}s)"
        )


def build_report(
    plan: FaultPlan,
    base_makespan_s: float,
    overlay: CheckpointOverlay,
    *,
    chunk_retries: int = 0,
    extra_events: tuple[FaultEvent, ...] = (),
) -> FaultReport:
    """Assemble the report from a replay makespan and its overlay."""
    events = tuple(sorted(extra_events + overlay.events, key=lambda e: e.time_s))
    return FaultReport(
        plan=plan,
        base_makespan_s=base_makespan_s,
        wall_s=overlay.wall_s,
        lost_work_s=overlay.lost_work_s,
        checkpoint_write_s=overlay.checkpoint_write_s,
        restart_s=overlay.restart_s,
        num_failures=overlay.num_failures,
        num_checkpoints=overlay.num_checkpoints,
        chunk_retries=chunk_retries,
        events=events,
    )
