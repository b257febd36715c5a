"""An in-process simulated MPI communicator.

:class:`SimComm` gives mpi4py-shaped primitives (``Sendrecv``,
``Isend``/``Irecv``/``Waitall``) over per-rank mailboxes, with traffic
accounting.  All ranks live in one process; a send deposits a copy into
the destination mailbox and a receive matches on ``(source, tag)``, so
one caller can drive both sides of an exchange or a collective
sequentially while the message log still reflects the real schedule
(message counts, sizes and ordering) that the performance model prices.
The distributed statevector runs its scalar collectives through it and
records its amplitude exchanges with :meth:`SimComm.record_only`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import CommError
from repro.mpi.datatypes import CommStats, Message, Request

__all__ = ["SimComm"]


class SimComm:
    """Simulated communicator over ``num_ranks`` in-process ranks."""

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise CommError(f"num_ranks must be >= 1, got {num_ranks}")
        self._num_ranks = num_ranks
        # Mailboxes keyed by (dest, source, tag); FIFO per key (MPI's
        # non-overtaking guarantee for a fixed envelope).
        self._mailboxes: dict[tuple[int, int, int], deque[np.ndarray]] = {}
        self.stats = CommStats()
        self.message_log: list[Message] = []

    @property
    def size(self) -> int:
        """Number of ranks."""
        return self._num_ranks

    def _check_rank(self, name: str, rank: int) -> None:
        if not 0 <= rank < self._num_ranks:
            raise CommError(f"{name} {rank} out of range for {self._num_ranks} ranks")

    # -- core deposit / match ------------------------------------------------

    def _deposit(self, source: int, dest: int, tag: int, payload: np.ndarray) -> None:
        message = Message(source=source, dest=dest, tag=tag, nbytes=payload.nbytes)
        self.stats.record(message)
        self.message_log.append(message)
        self._mailboxes.setdefault((dest, source, tag), deque()).append(
            np.ascontiguousarray(payload).copy()
        )

    def _match(self, dest: int, source: int, tag: int) -> np.ndarray:
        queue = self._mailboxes.get((dest, source, tag))
        if not queue:
            raise CommError(
                f"rank {dest} has no message from rank {source} with tag {tag}"
            )
        return queue.popleft()

    # -- blocking API -------------------------------------------------------

    def Send(self, payload: np.ndarray, *, source: int, dest: int, tag: int = 0) -> None:
        """Blocking send (completes immediately in-process)."""
        self._check_rank("source", source)
        self._check_rank("dest", dest)
        self._deposit(source, dest, tag, payload)

    def Recv(self, *, dest: int, source: int, tag: int = 0) -> np.ndarray:
        """Blocking receive; raises if no matching message is queued."""
        self._check_rank("source", source)
        self._check_rank("dest", dest)
        return self._match(dest, source, tag)

    def Sendrecv(
        self,
        payload: np.ndarray,
        *,
        rank: int,
        peer: int,
        send_tag: int = 0,
        recv_tag: int = 0,
    ) -> np.ndarray:
        """Combined send+receive with ``peer`` (QuEST's exchange primitive).

        In-process, the peer's matching payload must already be queued or
        be queued by the caller driving the peer side before matching;
        the executor posts both sides' sends first, then matches.
        """
        self.Send(payload, source=rank, dest=peer, tag=send_tag)
        return self.Recv(dest=rank, source=peer, tag=recv_tag)

    # -- non-blocking API ------------------------------------------------------

    def Isend(
        self, payload: np.ndarray, *, source: int, dest: int, tag: int = 0
    ) -> Request:
        """Post a non-blocking send."""
        self._check_rank("source", source)
        self._check_rank("dest", dest)
        self._deposit(source, dest, tag, payload)
        return Request(
            kind="send",
            message=Message(source, dest, tag, payload.nbytes),
            completed=True,
        )

    def Irecv(self, *, dest: int, source: int, tag: int = 0) -> Request:
        """Post a non-blocking receive (matched at wait time)."""
        self._check_rank("source", source)
        self._check_rank("dest", dest)
        return Request(kind="recv", message=Message(source, dest, tag, 0))

    def Wait(self, request: Request) -> np.ndarray | None:
        """Complete one request; returns the payload for receives."""
        if request.completed:
            return request.payload
        message = request.message
        request.payload = self._match(message.dest, message.source, message.tag)
        request.completed = True
        return request.payload

    def Waitall(self, requests: list[Request]) -> list[np.ndarray | None]:
        """Complete every request, preserving order."""
        return [self.Wait(r) for r in requests]

    # -- schedule accounting (no payload) ---------------------------------------

    def record_only(self, source: int, dest: int, tag: int, nbytes: int) -> None:
        """Account one message without depositing a payload.

        The numeric executors move amplitude data through their own
        transports, so nothing is queued for a receive -- but the
        traffic counters and the message log must still reflect the
        schedule QuEST would issue.
        """
        self._check_rank("source", source)
        self._check_rank("dest", dest)
        if nbytes < 0:
            raise CommError(f"nbytes must be >= 0, got {nbytes}")
        message = Message(source=source, dest=dest, tag=tag, nbytes=nbytes)
        self.stats.record(message)
        self.message_log.append(message)

    # -- diagnostics -------------------------------------------------------------

    def pending_messages(self) -> int:
        """Messages deposited but not yet received (should be 0 when idle)."""
        return sum(len(q) for q in self._mailboxes.values())

    def reset_stats(self) -> None:
        """Zero the traffic counters and the message log."""
        self.stats = CommStats()
        self.message_log.clear()
