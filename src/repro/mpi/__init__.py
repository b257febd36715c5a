"""Simulated MPI: communicator, chunking, exchange drivers, topology.

This layer reproduces the *schedule* of QuEST's communication -- who
talks to whom, in how many messages of what size, blocking or
non-blocking -- without real message passing.  The performance model
prices that schedule; the numeric executors record it (and run their
collectives through it) while moving amplitudes through their own
transports.
"""

from repro.mpi.chunking import (
    MAX_MESSAGE_BYTES,
    chunk_array,
    element_chunk_bytes,
    num_chunks,
    split_message,
)
from repro.mpi.comm import SimComm
from repro.mpi.datatypes import CommMode, CommStats, Message, Request
from repro.mpi.exchange import exchange_arrays, log_exchange_schedule
from repro.mpi.topology import (
    ARCHER2_NODES_PER_SWITCH,
    ARCHER2_SWITCH_POWER_W,
    NetworkTopology,
)

__all__ = [
    "SimComm",
    "CommMode",
    "CommStats",
    "Message",
    "Request",
    "MAX_MESSAGE_BYTES",
    "num_chunks",
    "split_message",
    "chunk_array",
    "element_chunk_bytes",
    "exchange_arrays",
    "log_exchange_schedule",
    "NetworkTopology",
    "ARCHER2_NODES_PER_SWITCH",
    "ARCHER2_SWITCH_POWER_W",
]
