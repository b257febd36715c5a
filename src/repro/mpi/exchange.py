"""QuEST's pairwise-exchange patterns over the simulated communicator.

A distributed gate makes every rank exchange (part of) its local
statevector with exactly one partner.  QuEST implements this as a
sequence of blocking ``MPI_Sendrecv`` calls over 2 GiB chunks; the
paper's modified version posts all ``Isend``/``Irecv`` pairs and waits
once.  :func:`exchange_arrays` drives both protocols over
:class:`SimComm`, payloads included, and is the reference for the
schedule; :func:`log_exchange_schedule` records the same schedule with
no payload, which is how the numeric executors log their exchanges.
Either way the log matches what the performance model prices.

The DES replay re-times this exact chunk protocol on a contended
fabric (:mod:`repro.des.rank`), including the failure story the
numeric layer does not model: per-chunk loss with retry/backoff
semantics, injected deterministically by :mod:`repro.faults`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommError, ValidationError
from repro.mpi.chunking import MAX_MESSAGE_BYTES, chunk_array, element_chunk_bytes
from repro.mpi.comm import SimComm
from repro.mpi.datatypes import CommMode

__all__ = ["exchange_arrays", "log_exchange_schedule"]


def _assemble(
    received: list[np.ndarray], out: np.ndarray | None
) -> np.ndarray:
    """Concatenate received chunks, into ``out`` when one is provided.

    With a preallocated ``out`` (the executor's reusable pair buffer)
    the chunks are copied in place and a length-trimmed view of ``out``
    is returned -- no fresh full-size array per exchange.
    """
    if out is None:
        return np.concatenate(received) if len(received) > 1 else received[0]
    flat = out.reshape(-1)
    total = sum(chunk.shape[0] for chunk in received)
    if total > flat.shape[0]:
        raise CommError(
            f"receive buffer too small: {flat.shape[0]} < {total} elements"
        )
    pos = 0
    for chunk in received:
        flat[pos : pos + chunk.shape[0]] = chunk
        pos += chunk.shape[0]
    return flat[:total]


def exchange_arrays(
    comm: SimComm,
    rank_a: int,
    buf_a: np.ndarray,
    rank_b: int,
    buf_b: np.ndarray,
    *,
    mode: CommMode = CommMode.BLOCKING,
    max_message: int = MAX_MESSAGE_BYTES,
    tag_base: int = 0,
    out_a: np.ndarray | None = None,
    out_b: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Drive a full exchange between two ranks; returns what each received.

    ``buf_a``/``buf_b`` are the payloads each side sends.  The function
    plays both SPMD sides of QuEST's exchange loop: chunked
    ``Sendrecv`` in ``BLOCKING`` mode, or post-everything-then-``Waitall``
    in ``NONBLOCKING`` mode.  The payloads may differ in length (the
    halved-SWAP optimisation sends half-sized buffers).

    ``out_a``/``out_b`` are optional preallocated receive buffers (QuEST's
    static ``pairStateVec``); when given, the received chunks are written
    into them and the returned arrays are views of them.
    """
    if rank_a == rank_b:
        raise CommError("exchange requires two distinct ranks")
    flat_a = np.asarray(buf_a).reshape(-1)
    flat_b = np.asarray(buf_b).reshape(-1)
    if flat_a.nbytes != flat_b.nbytes:
        raise ValidationError(
            f"exchange buffer lengths differ: rank {rank_a} sends "
            f"{flat_a.nbytes} B but rank {rank_b} sends {flat_b.nbytes} B"
        )
    if max_message < flat_a.dtype.itemsize:
        raise ValidationError(
            f"max_message {max_message} is smaller than one amplitude "
            f"({flat_a.dtype.itemsize} B); the exchange cannot make progress"
        )
    chunks_a = chunk_array(flat_a, max_message)
    chunks_b = chunk_array(flat_b, max_message)
    if len(chunks_a) != len(chunks_b):
        raise CommError(
            f"exchange chunk counts differ: {len(chunks_a)} vs {len(chunks_b)}"
        )

    received_a: list[np.ndarray] = []
    received_b: list[np.ndarray] = []

    if mode is CommMode.BLOCKING:
        # One Sendrecv pair in flight at a time, chunk by chunk.
        for i, (ca, cb) in enumerate(zip(chunks_a, chunks_b)):
            tag = tag_base + i
            comm.Send(ca, source=rank_a, dest=rank_b, tag=tag)
            comm.Send(cb, source=rank_b, dest=rank_a, tag=tag)
            received_a.append(comm.Recv(dest=rank_a, source=rank_b, tag=tag))
            received_b.append(comm.Recv(dest=rank_b, source=rank_a, tag=tag))
    else:
        # Post every send and receive, then complete them all at once.
        recv_reqs_a = [
            comm.Irecv(dest=rank_a, source=rank_b, tag=tag_base + i)
            for i in range(len(chunks_b))
        ]
        recv_reqs_b = [
            comm.Irecv(dest=rank_b, source=rank_a, tag=tag_base + i)
            for i in range(len(chunks_a))
        ]
        send_reqs = []
        for i, ca in enumerate(chunks_a):
            send_reqs.append(
                comm.Isend(ca, source=rank_a, dest=rank_b, tag=tag_base + i)
            )
        for i, cb in enumerate(chunks_b):
            send_reqs.append(
                comm.Isend(cb, source=rank_b, dest=rank_a, tag=tag_base + i)
            )
        comm.Waitall(send_reqs)
        received_a = [r for r in comm.Waitall(recv_reqs_a)]
        received_b = [r for r in comm.Waitall(recv_reqs_b)]

    got_a = _assemble(received_a, out_a)
    got_b = _assemble(received_b, out_b)
    if got_a.nbytes != np.asarray(buf_b).nbytes or got_b.nbytes != np.asarray(buf_a).nbytes:
        raise CommError("exchange produced buffers of unexpected size")
    return got_a, got_b


def log_exchange_schedule(
    comm: SimComm,
    rank_a: int,
    rank_b: int,
    num_elements: int,
    *,
    itemsize: int = 16,
    mode: CommMode = CommMode.BLOCKING,
    max_message: int = MAX_MESSAGE_BYTES,
    tag_base: int = 0,
) -> None:
    """Account the message schedule of an exchange without moving data.

    Every numeric executor moves amplitudes through the step executor's
    transports (:mod:`repro.parallel.stepper`), never through
    :class:`SimComm`.  The parent process calls this once per mirror
    pair of a step's copies, so ``comm.stats`` and ``comm.message_log``
    record the *exact* message sequence :func:`exchange_arrays` -- the
    reference driver of QuEST's protocol -- produces for the same
    ranks, length and ``tag_base``: same chunk sizes, same tags, same
    per-mode ordering.

    ``num_elements`` is the per-side payload length (both sides of a
    QuEST exchange send equally many amplitudes).
    """
    if rank_a == rank_b:
        raise CommError("exchange requires two distinct ranks")
    sizes = element_chunk_bytes(num_elements, itemsize, max_message)
    if mode is CommMode.BLOCKING:
        # Sendrecv pairs proceed chunk by chunk: a->b then b->a per tag.
        for i, nbytes in enumerate(sizes):
            comm.record_only(rank_a, rank_b, tag_base + i, nbytes)
            comm.record_only(rank_b, rank_a, tag_base + i, nbytes)
    else:
        # All of one side's Isends post before the other side's.
        for i, nbytes in enumerate(sizes):
            comm.record_only(rank_a, rank_b, tag_base + i, nbytes)
        for i, nbytes in enumerate(sizes):
            comm.record_only(rank_b, rank_a, tag_base + i, nbytes)
