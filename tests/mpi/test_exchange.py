"""Tests for the pairwise exchange drivers."""

import numpy as np
import pytest

from repro.errors import CommError, ValidationError
from repro.mpi import (
    MAX_MESSAGE_BYTES,
    CommMode,
    SimComm,
    exchange_arrays,
    log_exchange_schedule,
)


@pytest.mark.parametrize("mode", [CommMode.BLOCKING, CommMode.NONBLOCKING])
class TestExchange:
    def test_swaps_payloads(self, mode):
        comm = SimComm(2)
        a = np.arange(8, dtype=np.complex128)
        b = np.arange(8, 16, dtype=np.complex128)
        ra, rb = exchange_arrays(comm, 0, a, 1, b, mode=mode)
        assert np.allclose(ra, b)
        assert np.allclose(rb, a)

    def test_chunked(self, mode):
        comm = SimComm(2)
        a = np.arange(8, dtype=np.complex128)
        b = -a
        ra, rb = exchange_arrays(comm, 0, a, 1, b, mode=mode, max_message=32)
        assert np.allclose(ra, b) and np.allclose(rb, a)
        # 4 chunks each direction.
        assert comm.stats.messages_sent == 8

    def test_asymmetric_sizes_equal_chunks(self, mode):
        # Halved swap: both sides send half-slices of equal size.
        comm = SimComm(2)
        a = np.arange(4, dtype=np.complex128)
        b = np.arange(4, 8, dtype=np.complex128)
        ra, rb = exchange_arrays(comm, 0, a, 1, b, mode=mode)
        assert np.allclose(ra, b) and np.allclose(rb, a)

    def test_no_pending_left(self, mode):
        comm = SimComm(2)
        a = np.ones(4, np.complex128)
        exchange_arrays(comm, 0, a, 1, a.copy(), mode=mode, max_message=32)
        assert comm.pending_messages() == 0


class TestExchangeErrors:
    def test_same_rank_raises(self):
        comm = SimComm(2)
        a = np.ones(2, np.complex128)
        with pytest.raises(CommError):
            exchange_arrays(comm, 0, a, 0, a)

    def test_mismatched_buffer_lengths_raise(self):
        comm = SimComm(2)
        a = np.ones(8, np.complex128)
        b = np.ones(2, np.complex128)
        with pytest.raises(ValidationError, match="lengths differ"):
            exchange_arrays(comm, 0, a, 1, b, max_message=32)

    def test_mismatched_lengths_also_a_value_error(self):
        # ValidationError subclasses ValueError: stdlib-guarding callers
        # keep working.
        comm = SimComm(2)
        with pytest.raises(ValueError):
            exchange_arrays(
                comm,
                0,
                np.ones(8, np.complex128),
                1,
                np.ones(2, np.complex128),
            )

    def test_max_message_below_one_amplitude_raises(self):
        comm = SimComm(2)
        a = np.ones(4, np.complex128)
        with pytest.raises(ValidationError, match="amplitude"):
            exchange_arrays(comm, 0, a, 1, a.copy(), max_message=8)


class TestScheduleDifferences:
    def test_blocking_interleaves_tags(self):
        comm = SimComm(2)
        a = np.ones(4, np.complex128)
        exchange_arrays(
            comm, 0, a, 1, a.copy(), mode=CommMode.BLOCKING, max_message=32
        )
        tags = [m.tag for m in comm.message_log]
        # Sendrecv pairs proceed tag by tag: 0,0,1,1.
        assert tags == [0, 0, 1, 1]

    def test_nonblocking_posts_all_sends_per_side(self):
        comm = SimComm(2)
        a = np.ones(4, np.complex128)
        exchange_arrays(
            comm, 0, a, 1, a.copy(), mode=CommMode.NONBLOCKING, max_message=32
        )
        order = [(m.source, m.tag) for m in comm.message_log]
        # All of rank 0's chunks posted before rank 1's.
        assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("mode", [CommMode.BLOCKING, CommMode.NONBLOCKING])
@pytest.mark.parametrize(
    "max_message", [MAX_MESSAGE_BYTES, 48], ids=["unchunked", "chunked"]
)
@pytest.mark.parametrize("length", [16, 8], ids=["full", "halved"])
def test_log_exchange_schedule_matches_exchange_arrays(mode, max_message, length):
    # The executors log exchanges without moving data through SimComm;
    # the logged schedule must be exactly the one the reference driver
    # produces.  48 B is three amplitudes, so chunked payloads end in a
    # short chunk.
    tag_base = 5 << 8
    driven = SimComm(4)
    a = np.arange(length, dtype=np.complex128)
    exchange_arrays(
        driven, 1, a, 3, -a, mode=mode, max_message=max_message, tag_base=tag_base
    )
    logged = SimComm(4)
    log_exchange_schedule(
        logged,
        1,
        3,
        length,
        itemsize=a.itemsize,
        mode=mode,
        max_message=max_message,
        tag_base=tag_base,
    )
    assert logged.message_log == driven.message_log
    assert logged.stats == driven.stats
