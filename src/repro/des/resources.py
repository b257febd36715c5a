"""Resource models: NICs, switch uplinks and per-node compute tokens.

The fabric mirrors the paper's ARCHER2 picture: every node owns a
full-duplex NIC (independent transmit and receive directions), nodes
hang off Slingshot switches in groups of 8, and traffic leaving a group
crosses the source group's up-link and the destination group's
down-link.  Each direction of each link is a deterministic
FIFO-reservation server: a transfer starts when the link (and every
other link on its path) is free, occupies them for ``bytes / rate``,
and queues behind earlier reservations otherwise -- which is exactly
how contention between co-located ranks or oversubscribed up-links
shows up in the replayed timeline.

Compute is modelled as a per-node token pool (one token per resident
rank): a rank holds a token for the duration of a compute span, so an
oversubscribed node serialises -- the closed-form model divides
bandwidth instead, and the DES cross-check confirms the two views agree
when occupancy is uniform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from operator import itemgetter
from typing import NamedTuple, Sequence

from repro.errors import DesError
from repro.des.engine import Engine, Signal

__all__ = [
    "Link",
    "TokenPool",
    "Fabric",
    "FlowReservation",
]


#: Relative tolerance under which a channel freeing just after a chunk's
#: start still counts as free for best fit.
_FIT_SLACK = 1e-12

_chunk_end = itemgetter(1)


class Link:
    """One direction of a network link: ``channels`` parallel servers.

    A NIC direction has a single channel; a switch up-link gets one
    channel per non-oversubscribed node so that simultaneous flows from
    different nodes of a group do not falsely serialise.
    """

    __slots__ = ("name", "bandwidth", "_free", "busy_s", "bytes_moved", "intervals")

    def __init__(
        self,
        name: str,
        bandwidth: float,
        *,
        channels: int = 1,
        record_intervals: bool = False,
    ):
        if not math.isfinite(bandwidth) or bandwidth <= 0:
            raise DesError(
                f"link bandwidth must be finite and > 0, got {bandwidth}"
            )
        if channels < 1:
            raise DesError(f"link needs >= 1 channel, got {channels}")
        self.name = name
        self.bandwidth = bandwidth
        self._free = [0.0] * channels
        self.busy_s = 0.0
        self.bytes_moved = 0
        self.intervals: list[tuple[float, float]] | None = (
            [] if record_intervals else None
        )

    def next_free(self) -> float:
        """Earliest time any channel is available."""
        return min(self._free)

    def commit(
        self,
        start: float,
        end: float,
        nbytes: int,
        busy: float | None = None,
        spans: list[tuple[float, float]] | None = None,
    ) -> None:
        """Book a channel for ``[start, end)``: one chunk or a chunk train.

        Best fit: the channel whose free time is latest while still at
        or before ``start``.  Least-loaded (min-free) selection would
        fragment the channels -- a flow's second chunk would book a
        fresh channel instead of reusing the one its first chunk just
        vacated, spuriously delaying later flows in the same group.

        A train books its chunks in one call: ``spans`` lists each
        chunk's ``(start, end)`` in order, ``busy`` is the sum of their
        durations and ``nbytes`` their total.  The train stays on the
        channel its first chunk fits -- the channel chunk-by-chunk best
        fit picks for every chunk, unless another channel frees within
        the fit slack of a chunk boundary (:meth:`_hops`); then the
        chunks are fitted one by one.
        """
        free = self._free
        if len(free) == 1:
            free[0] = end
        else:
            channel = self._best_fit(start)
            if spans is not None and len(spans) > 1 and self._hops(channel, spans):
                for chunk_start, chunk_end in spans:
                    free[self._best_fit(chunk_start)] = chunk_end
            else:
                free[channel] = end
        self.busy_s += end - start if busy is None else busy
        self.bytes_moved += nbytes
        if self.intervals is not None:
            if spans is None:
                self.intervals.append((start, end))
            else:
                self.intervals.extend(spans)

    def _best_fit(self, start: float) -> int:
        free = self._free
        eps = _FIT_SLACK * (1.0 + abs(start))
        best = None
        for channel, t in enumerate(free):
            if t <= start + eps and (best is None or t > free[best]):
                best = channel
        return best if best is not None else free.index(min(free))

    def _hops(self, channel: int, spans: list[tuple[float, float]]) -> bool:
        """Whether per-chunk best fit would move a train off ``channel``.

        Chunk ``k`` leaves the channel (which frees at ``end[k-1]``)
        only for another channel freeing in
        ``[end[k-1], start[k] + slack]``.  The windows grow with ``k``,
        so a free time need only be checked against the last window
        opening at or before it.
        """
        lo = spans[0][1]
        last = spans[-1][0]
        hi = last + _FIT_SLACK * (1.0 + abs(last))
        for other, t in enumerate(self._free):
            if other == channel or not lo <= t <= hi:
                continue
            k = bisect_right(spans, t, 0, len(spans) - 1, key=_chunk_end)
            start = spans[k][0]
            if t <= start + _FIT_SLACK * (1.0 + abs(start)):
                return True
        return False

    def utilisation(self, horizon: float) -> float:
        """Mean busy fraction over ``[0, horizon]`` across channels."""
        if horizon <= 0:
            return 0.0
        return self.busy_s / (horizon * len(self._free))


class TokenPool:
    """Counting semaphore for a node's compute capacity.

    ``request`` either grants immediately (returns ``None``) or returns
    a :class:`Signal` the caller must yield on; ``release`` hands the
    token to the longest-waiting requester (FIFO, deterministic).
    """

    __slots__ = ("engine", "capacity", "available", "_queue")

    def __init__(self, engine: Engine, capacity: int):
        if capacity < 1:
            raise DesError(f"token pool capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.available = capacity
        self._queue: deque[Signal] = deque()

    def request(self) -> Signal | None:
        if self.available > 0:
            self.available -= 1
            return None
        signal = self.engine.signal()
        self._queue.append(signal)
        return signal

    def release(self) -> None:
        if self._queue:
            # The token transfers directly to the next waiter.
            self._queue.popleft().fire()
            return
        if self.available >= self.capacity:
            raise DesError("token released more times than acquired")
        self.available += 1


class FlowReservation(NamedTuple):
    """Outcome of a booking: when the src -> dst train starts, and when
    the whole transfer completes (see :meth:`Fabric.transfer`)."""

    start: float
    end: float


class Fabric:
    """The job's network: per-node NICs plus per-group switch up/down links.

    ``bandwidth`` is the calibrated effective per-flow rate for the
    run's communication mode (the DES adds message-level serialisation,
    overlap and contention *on top of* the same calibration the
    closed-form model prices with -- that shared anchoring is what makes
    the two predictors comparable).
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        bandwidth: float,
        nodes_per_switch: int = 8,
        uplink_oversubscription: float = 1.0,
        record_intervals: bool = False,
    ):
        if num_nodes < 1:
            raise DesError(f"num_nodes must be >= 1, got {num_nodes}")
        if not math.isfinite(uplink_oversubscription) or uplink_oversubscription < 1.0:
            raise DesError(
                "uplink_oversubscription must be finite and >= 1 "
                f"(1 = full bisection), got {uplink_oversubscription}"
            )
        self.num_nodes = num_nodes
        self.nodes_per_switch = nodes_per_switch
        self.bandwidth = bandwidth
        num_groups = -(-num_nodes // nodes_per_switch)
        uplink_channels = max(
            1, round(min(nodes_per_switch, num_nodes) / uplink_oversubscription)
        )
        self.nic_tx = [
            Link(f"node{n}.tx", bandwidth, record_intervals=record_intervals)
            for n in range(num_nodes)
        ]
        self.nic_rx = [
            Link(f"node{n}.rx", bandwidth, record_intervals=record_intervals)
            for n in range(num_nodes)
        ]
        self.uplink_up = [
            Link(
                f"switch{g}.up",
                bandwidth,
                channels=uplink_channels,
                record_intervals=record_intervals,
            )
            for g in range(num_groups)
        ]
        self.uplink_down = [
            Link(
                f"switch{g}.down",
                bandwidth,
                channels=uplink_channels,
                record_intervals=record_intervals,
            )
            for g in range(num_groups)
        ]
        self._paths: dict[tuple[int, int, bool], tuple[tuple[Link, ...], ...]] = {}

    @property
    def uplinks_oversubscribed(self) -> bool:
        """True when flows cross switches and some group has more nodes
        than up-link channels."""
        nps = self.nodes_per_switch
        return len(self.uplink_up) > 1 and any(
            len(link._free) < min(nps, self.num_nodes - g * nps)
            for g, link in enumerate(self.uplink_up)
        )

    def group_of(self, node: int) -> int:
        """Which switch group a node belongs to (dense packing)."""
        return node // self.nodes_per_switch

    def path(self, src_node: int, dst_node: int) -> list[Link]:
        """The link path of one directed flow (empty for same-node)."""
        if src_node == dst_node:
            return []
        links = [self.nic_tx[src_node], self.nic_rx[dst_node]]
        src_group, dst_group = self.group_of(src_node), self.group_of(dst_node)
        if src_group != dst_group:
            links.insert(1, self.uplink_up[src_group])
            links.insert(2, self.uplink_down[dst_group])
        return links

    def transfer(
        self,
        src_node: int,
        dst_node: int,
        sizes: int | Sequence[int],
        *,
        earliest: float,
        latency: float = 0.0,
        duplex: bool = False,
        blocking: bool = False,
    ) -> FlowReservation:
        """Book a chunk train src -> dst; cut-through across the whole path.

        ``sizes`` lists the chunk sizes (a bare int is one chunk).  Each
        chunk starts when every link on the path has a free channel,
        moves at the bottleneck rate, and occupies all links for its
        duration (plus the message latency, which models the software
        injection cost and so does occupy the NIC).  ``duplex`` books
        the same chunks dst -> src as well -- one pairwise exchange.

        Chunks follow one another without leaving the call, which is
        exact wherever nothing else can book the train's links
        mid-train (see :mod:`repro.des.rank`):

        * pipelined (default): chunk ``k + 1`` starts where chunk ``k``
          ended on the path's single-channel NIC; only the first chunk
          pays ``latency``.  ``end`` is the last chunk's completion.
        * ``blocking``: chunk ``k + 1`` (both directions) is posted when
          chunk ``k`` has completed both ways, every chunk pays
          ``latency``, and the clock advances as a chain of engine
          timeouts would (``now + (done - now)``).  ``end`` is that
          clock after the last chunk.

        Each link is committed once per call, with the per-chunk
        durations summed in chunk order.
        """
        if isinstance(sizes, int):
            sizes = (sizes,)
        if sizes and min(sizes) < 0:
            raise DesError(f"transfer size must be >= 0, got {min(sizes)}")
        paths = self._routes(src_node, dst_node, duplex)
        if not paths or not sizes:
            return FlowReservation(earliest, earliest)
        # Per direction: where the train can start, its bottleneck rate,
        # its chunks' (start, end) and their summed durations.
        tails = []
        rates = []
        spans: list[list[tuple[float, float]]] = []
        busy = []
        for links in paths:
            start = earliest
            rate = self.bandwidth
            for link in links:
                free = min(link._free)
                if free > start:
                    start = free
                if link.bandwidth < rate:
                    rate = link.bandwidth
            tails.append(start)
            rates.append(rate)
            spans.append([])
            busy.append(0.0)
        first = tails[0]
        clock = earliest
        lat = latency
        for size in sizes:
            done = clock
            for d, rate in enumerate(rates):
                start = tails[d] if tails[d] > clock else clock
                end = start + lat + size / rate
                tails[d] = end
                spans[d].append((start, end))
                busy[d] += end - start
                if end > done:
                    done = end
            if not blocking:
                lat = 0.0
            elif done > clock:
                clock = clock + (done - clock)
        total = sum(sizes)
        for links, train, train_busy in zip(paths, spans, busy):
            train_start, train_end = train[0][0], train[-1][1]
            for link in links:
                link.commit(train_start, train_end, total, train_busy, train)
        return FlowReservation(first, clock if blocking else done)

    def _routes(
        self, src_node: int, dst_node: int, duplex: bool
    ) -> tuple[tuple[Link, ...], ...]:
        """The link paths a transfer books: src -> dst, then dst -> src if
        ``duplex``; empty for same-node."""
        key = (src_node, dst_node, duplex)
        paths = self._paths.get(key)
        if paths is None:
            pairs = [(src_node, dst_node)]
            if duplex:
                pairs.append((dst_node, src_node))
            paths = tuple(tuple(self.path(*pair)) for pair in pairs)
            paths = paths if paths[0] else ()
            self._paths[key] = paths
        return paths

    # -- accounting ----------------------------------------------------------

    def all_links(self) -> list[Link]:
        """Every link direction, NICs first."""
        return [*self.nic_tx, *self.nic_rx, *self.uplink_up, *self.uplink_down]

    def nic_links(self) -> list[Link]:
        """Both directions of every NIC."""
        return [*self.nic_tx, *self.nic_rx]

    def uplink_links(self) -> list[Link]:
        """Both directions of every switch up-link."""
        return [*self.uplink_up, *self.uplink_down]

    def bytes_on_network(self) -> int:
        """Total bytes that crossed any NIC (each flow counted once)."""
        return sum(link.bytes_moved for link in self.nic_tx)
