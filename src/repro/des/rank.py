"""Rank actors: replay one rank's schedule against shared resources.

Each rank is a process on the event engine.  It walks its op list in
order: compute spans hold a node compute token for their duration;
exchanges rendezvous with the partner rank (first arrival waits -- that
wait is the skew the closed-form model can only average), then a driver
process moves the chunked payload over the fabric honouring the run's
communication mode:

* ``BLOCKING`` -- one ``Sendrecv`` chunk pair in flight at a time; the
  next chunk starts only when both directions of the previous one have
  completed, paying the per-message latency every chunk (QuEST's stock
  exchange loop, :func:`repro.mpi.exchange.exchange_arrays`).
* ``NONBLOCKING`` -- every chunk posted up front and completed by one
  wait; chunks queue back-to-back on the NIC so only the first latency
  stays on the critical path (the paper's ``Isend``/``Irecv`` rewrite).

Both drivers reserve real link capacity, so co-located ranks and
oversubscribed up-links contend instead of being averaged away.

Where no other flow can book the pair's links between two of its chunks
(:func:`_books_trains`), the whole exchange is booked as one chunk train
per direction -- one :meth:`~repro.des.resources.Fabric.transfer` call
and one commit per link -- with the same per-chunk float arithmetic, so
the timeline is bit-identical to booking chunk by chunk.  Chunk faults,
shared NICs under blocking exchanges and oversubscribed up-links keep
the per-chunk drivers, where contention between chunks is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.des.engine import Engine, Signal, Timeout, Until
from repro.des.resources import Fabric, TokenPool
from repro.des.schedule import ComputeOp, ExchangeOp, ScheduleSet
from repro.des.timeline import Span, Timeline, TimelineEvent
from repro.mpi.datatypes import CommMode

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from repro.faults.inject import ChunkFaultModel

__all__ = ["ReplayContext", "ExchangeCoordinator", "rank_process"]


@dataclass
class ReplayContext:
    """Everything the rank actors share during one replay."""

    engine: Engine
    fabric: Fabric
    schedule: ScheduleSet
    timeline: Timeline
    tokens: list[TokenPool]
    mode: CommMode
    setup_s: float
    latency_s: float
    intranode_bandwidth: float
    ranks_per_node: int
    #: Seeded per-chunk failure/retry decisions (None = healthy fabric).
    chunk_faults: "ChunkFaultModel | None" = None
    coordinator: "ExchangeCoordinator" = field(init=False)
    #: Book each exchange's chunks as one train (see :func:`_books_trains`).
    trains: bool = field(init=False)

    def __post_init__(self) -> None:
        self.coordinator = ExchangeCoordinator()
        self.trains = _books_trains(self)

    def node_of(self, rank: int) -> int:
        """Node hosting a rank (consecutive packing, as in the cost model)."""
        return rank // self.ranks_per_node


class ExchangeCoordinator:
    """Pairwise rendezvous: both ranks arrive, then one driver runs.

    The first arriver parks on the exchange's completion signal; the
    second spawns the driver process.  The signal fires with the
    ``(start, end)`` of the transfer so both ranks can attribute their
    wait and communication spans precisely.  The context is passed in
    rather than held, so a finished replay holds no reference cycle and
    its fabric and engine are freed as soon as the replay returns.
    """

    def __init__(self) -> None:
        self._pending: dict[tuple[int, int, int], Signal] = {}

    def arrive(self, ctx: ReplayContext, op: ExchangeOp, rank: int) -> Signal:
        # seq disambiguates a remap's serialised sub-exchanges: rank 0
        # meets partners 1, 2, 3... under the same gate index, and pair
        # (0, 1) of round 0 must not rendezvous with (0, 2) of round 1.
        key = (op.gate_index, op.seq, min(rank, op.partner))
        done = self._pending.pop(key, None)
        if done is None:
            done = ctx.engine.signal()
            self._pending[key] = done
            return done
        # Both sides present: drive the exchange from this instant.
        ctx.engine.process(_drive_exchange(ctx, op, rank, done))
        return done

    @property
    def outstanding(self) -> int:
        """Rendezvous still waiting for a partner (0 after a clean run)."""
        return len(self._pending)


def _books_trains(ctx: ReplayContext) -> bool:
    """Whether each exchange's chunks can be booked as one train.

    A train books every chunk of an exchange in one
    :meth:`Fabric.transfer` call, and so assumes nothing else books the
    pair's links between its chunks.  Non-blocking exchanges post every
    chunk without yielding, so that always holds.  A blocking exchange
    yields after each chunk pair; it is only alone on its links when
    every NIC serves one rank (``ranks_per_node == 1``) and no up-link
    is oversubscribed -- each node then keeps a channel of its own.
    Chunk faults interleave retransmissions with the first pass, so
    they always take the per-chunk path.
    """
    if ctx.chunk_faults is not None:
        return False
    if ctx.mode is CommMode.NONBLOCKING:
        return True
    return ctx.ranks_per_node == 1 and not ctx.fabric.uplinks_oversubscribed


def _drive_exchange(
    ctx: ReplayContext, op: ExchangeOp, rank: int, done: Signal
):
    """Move one exchange's chunks; fires ``done`` with (start, end)."""
    engine = ctx.engine
    start = engine.now
    node_a = ctx.node_of(rank)
    node_b = ctx.node_of(op.partner)

    if op.intranode or node_a == node_b:
        # Shared-memory copy through node RAM: no network involvement.
        yield Timeout(ctx.setup_s + op.send_bytes / ctx.intranode_bandwidth)
        done.fire((start, engine.now))
        return

    yield Timeout(ctx.setup_s)
    blocking = ctx.mode is CommMode.BLOCKING
    if ctx.trains:
        booked = ctx.fabric.transfer(
            node_a,
            node_b,
            op.chunk_sizes,
            earliest=engine.now,
            latency=ctx.latency_s,
            duplex=True,
            blocking=blocking,
        )
        if booked.end > engine.now:
            # A blocking train's end is the clock its per-chunk timeouts
            # would have reached; a pipelined train waits once, as below.
            yield Until(booked.end) if blocking else Timeout(
                booked.end - engine.now
            )
        done.fire((start, engine.now))
        return

    faults = ctx.chunk_faults
    pair_low = min(rank, op.partner)

    def retries_of(chunk: int) -> int:
        if faults is None:
            return 0
        return faults.attempts(op.gate_index, pair_low, chunk, seq=op.seq) - 1

    def note_retry(at: float, attempt: int) -> None:
        faults.retries += 1
        ctx.timeline.annotate(
            TimelineEvent(
                time=at,
                kind="retry",
                rank=rank,
                label=f"gate {op.gate_index} chunk retry #{attempt + 1}",
            )
        )

    def book(size: int, at: float, latency: float) -> float:
        return ctx.fabric.transfer(
            node_a, node_b, size, earliest=at, latency=latency, duplex=True
        ).end

    if blocking:
        for chunk, size in enumerate(op.chunk_sizes):
            # Sendrecv semantics: the chunk pair must complete in both
            # directions before the next pair is posted -- and a failed
            # pair is retransmitted (after backoff) before moving on.
            retries = retries_of(chunk)
            for attempt in range(retries + 1):
                target = book(size, engine.now, ctx.latency_s)
                if attempt < retries:
                    # Corrupt/dropped chunk: detected at completion,
                    # retransmitted after exponential backoff.
                    note_retry(target, attempt)
                    target += faults.backoff_s(attempt)
                if target > engine.now:
                    yield Timeout(target - engine.now)
    else:
        end = engine.now
        failed: list[tuple[int, int, int, float]] = []
        for chunk, size in enumerate(op.chunk_sizes):
            chunk_end = book(size, engine.now, 0.0 if chunk else ctx.latency_s)
            retries = retries_of(chunk)
            if retries:
                failed.append((chunk, size, retries, chunk_end))
            end = max(end, chunk_end)
        # Failed chunks surface at the Waitall: each is retransmitted
        # (with backoff) until it lands, pipelined like the first pass.
        for chunk, size, retries, chunk_end in failed:
            at = chunk_end
            for attempt in range(retries):
                note_retry(at, attempt)
                at += faults.backoff_s(attempt)
                at = book(size, at, 0.0)
            end = max(end, at)
        # All chunks posted at once; one Waitall completes them.
        if end > engine.now:
            yield Timeout(end - engine.now)
    done.fire((start, engine.now))


def rank_process(ctx: ReplayContext, rank: int):
    """The SPMD actor: replay one rank's ops in order (a generator)."""
    engine = ctx.engine
    timeline = ctx.timeline
    pool = ctx.tokens[ctx.node_of(rank)]

    for op in ctx.schedule.ops_for(rank):
        if isinstance(op, ComputeOp):
            arrived = engine.now
            grant = pool.request()
            if grant is not None:
                yield grant
                timeline.add(
                    Span(rank, "wait", arrived, engine.now, op.gate_lo, op.gate_hi)
                )
            begun = engine.now
            yield Timeout(op.seconds)
            timeline.add(
                Span(rank, "compute", begun, engine.now, op.gate_lo, op.gate_hi)
            )
            pool.release()
            continue

        arrived = engine.now
        done = ctx.coordinator.arrive(ctx, op, rank)
        yield done
        comm_start, comm_end = done.value
        timeline.add(
            Span(
                rank,
                "wait",
                arrived,
                comm_start,
                op.gate_index,
                op.gate_index,
                blocked_on=op.partner,
            )
        )
        timeline.add(
            Span(rank, "comm", comm_start, comm_end, op.gate_index, op.gate_index)
        )
        if op.local_s <= 0:
            continue
        if op.overlap:
            # Chunk-pipelined update: local work hides behind the
            # transfer; only the excess extends the gate.
            resume_at = max(comm_end, comm_start + op.local_s)
            timeline.add(
                Span(
                    rank,
                    "compute",
                    comm_start,
                    comm_start + op.local_s,
                    op.gate_index,
                    op.gate_index,
                )
            )
            if resume_at > engine.now:
                yield Timeout(resume_at - engine.now)
            continue
        arrived = engine.now
        grant = pool.request()
        if grant is not None:
            yield grant
            timeline.add(
                Span(
                    rank,
                    "wait",
                    arrived,
                    engine.now,
                    op.gate_index,
                    op.gate_index,
                )
            )
        begun = engine.now
        yield Timeout(op.local_s)
        timeline.add(
            Span(rank, "compute", begun, engine.now, op.gate_index, op.gate_index)
        )
        pool.release()
