"""Tests for the fabric resource models: links, token pools, paths."""

import pytest

from repro.des import Engine, Fabric, Link, Timeout, TokenPool, Until
from repro.errors import DesError


class TestLink:
    def test_bad_bandwidth_rejected(self):
        with pytest.raises(DesError):
            Link("l", 0.0)

    def test_bad_channels_rejected(self):
        with pytest.raises(DesError):
            Link("l", 1e9, channels=0)

    def test_serialises_on_one_channel(self):
        link = Link("l", 1e9)
        link.commit(0.0, 1.0, 100)
        assert link.next_free() == 1.0

    def test_two_channels_overlap(self):
        link = Link("l", 1e9, channels=2)
        link.commit(0.0, 1.0, 100)
        assert link.next_free() == 0.0
        link.commit(0.0, 2.0, 100)
        assert link.next_free() == 1.0

    def test_best_fit_reuses_just_vacated_channel(self):
        """A flow's next chunk lands on the channel its last chunk held."""
        link = Link("l", 1e9, channels=2)
        link.commit(0.0, 1.0, 100)  # channel A busy to t=1
        link.commit(1.0, 2.0, 100)  # must reuse A (best fit), not take B
        assert link.next_free() == 0.0

    def test_utilisation(self):
        link = Link("l", 1e9)
        link.commit(0.0, 1.0, 100)
        link.commit(1.0, 2.0, 100)
        assert link.utilisation(4.0) == pytest.approx(0.5)

    def test_interval_recording(self):
        link = Link("l", 1e9, record_intervals=True)
        link.commit(0.0, 1.0, 100)
        assert link.intervals == [(0.0, 1.0)]
        assert Link("l", 1e9).intervals is None


class TestTokenPool:
    def test_bad_capacity_rejected(self):
        with pytest.raises(DesError):
            TokenPool(Engine(), 0)

    def test_grant_without_waiting(self):
        pool = TokenPool(Engine(), 2)
        assert pool.request() is None
        assert pool.request() is None
        assert pool.available == 0

    def test_over_release_rejected(self):
        pool = TokenPool(Engine(), 1)
        with pytest.raises(DesError):
            pool.release()

    def test_contended_pool_serialises_fifo(self):
        engine = Engine()
        pool = TokenPool(engine, 1)
        order = []

        def worker(tag):
            grant = pool.request()
            if grant is not None:
                yield grant
            order.append((tag, engine.now))
            yield Timeout(1.0)
            pool.release()

        for tag in range(3):
            engine.process(worker(tag))
        engine.run()
        assert order == [(0, 0.0), (1, 1.0), (2, 2.0)]


class TestFabricTopology:
    def test_bad_nodes_rejected(self):
        with pytest.raises(DesError):
            Fabric(0, bandwidth=1e9)

    def test_bad_oversubscription_rejected(self):
        with pytest.raises(DesError):
            Fabric(8, bandwidth=1e9, uplink_oversubscription=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_bandwidth_rejected(self, bad):
        # NaN passes a bare `<= 0` guard and then poisons every
        # transfer-time computation downstream.
        with pytest.raises(DesError, match="finite"):
            Fabric(8, bandwidth=bad)

    def test_non_finite_oversubscription_rejected(self):
        with pytest.raises(DesError, match="finite"):
            Fabric(8, bandwidth=1e9, uplink_oversubscription=float("nan"))

    def test_same_node_path_is_empty(self):
        fabric = Fabric(8, bandwidth=1e9)
        assert fabric.path(3, 3) == []

    def test_same_group_path_is_nic_only(self):
        fabric = Fabric(16, bandwidth=1e9)
        links = fabric.path(0, 7)
        assert [link.name for link in links] == ["node0.tx", "node7.rx"]

    def test_cross_group_path_crosses_uplinks(self):
        fabric = Fabric(16, bandwidth=1e9)
        links = fabric.path(1, 9)
        assert [link.name for link in links] == [
            "node1.tx",
            "switch0.up",
            "switch1.down",
            "node9.rx",
        ]


class TestFabricTransfers:
    def test_negative_bytes_rejected(self):
        with pytest.raises(DesError):
            Fabric(2, bandwidth=1e9).transfer(0, 1, -1, earliest=0.0)

    def test_transfer_duration_matches_rate(self):
        fabric = Fabric(2, bandwidth=1e9)
        flow = fabric.transfer(0, 1, 10**9, earliest=0.0)
        assert flow.start == 0.0
        assert flow.end == pytest.approx(1.0)

    def test_latency_extends_occupancy(self):
        fabric = Fabric(2, bandwidth=1e9)
        flow = fabric.transfer(0, 1, 10**9, earliest=0.0, latency=0.5)
        assert flow.end == pytest.approx(1.5)

    def test_same_direction_serialises_on_nic(self):
        fabric = Fabric(4, bandwidth=1e9)
        first = fabric.transfer(0, 1, 10**9, earliest=0.0)
        second = fabric.transfer(0, 2, 10**9, earliest=0.0)
        assert second.start == pytest.approx(first.end)

    def test_full_duplex_directions_independent(self):
        fabric = Fabric(2, bandwidth=1e9)
        fwd = fabric.transfer(0, 1, 10**9, earliest=0.0)
        rev = fabric.transfer(1, 0, 10**9, earliest=0.0)
        assert fwd.start == rev.start == 0.0

    def test_cross_group_flows_share_uplink_channels(self):
        """One up-link channel per node: 8 simultaneous cross-group flows
        from distinct sources all start immediately."""
        fabric = Fabric(16, bandwidth=1e9)
        flows = [
            fabric.transfer(src, 8 + src, 10**9, earliest=0.0)
            for src in range(8)
        ]
        assert all(flow.start == 0.0 for flow in flows)

    def test_bytes_on_network_counts_each_flow_once(self):
        fabric = Fabric(16, bandwidth=1e9)
        fabric.transfer(0, 9, 500, earliest=0.0)
        fabric.transfer(9, 0, 500, earliest=0.0)
        assert fabric.bytes_on_network() == 1000


class TestChunkTrains:
    """A train booked in one call matches booking its chunks one by one."""

    @pytest.mark.parametrize("other_free", [0.5, 1.0, 1.0 + 1e-13, 5.0])
    def test_train_commit_equals_chunk_commits(self, other_free):
        """Including when another channel frees within the best-fit slack
        of a chunk boundary, where per-chunk fitting changes channel."""
        spans = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        train, chunks = Link("t", 1e9, channels=2), Link("c", 1e9, channels=2)
        for link in (train, chunks):
            link.commit(0.0, other_free, 10)
        train.commit(0.0, 3.0, 30, busy=3.0, spans=spans)
        for start, end in spans:
            chunks.commit(start, end, 10)
        assert train.next_free() == chunks.next_free()
        assert train.busy_s == chunks.busy_s
        assert train.bytes_moved == chunks.bytes_moved
        train.commit(0.0, 9.0, 1)
        chunks.commit(0.0, 9.0, 1)
        assert train.next_free() == chunks.next_free()

    def test_pipelined_train_pays_latency_once(self):
        fabric = Fabric(2, bandwidth=1e9)
        flow = fabric.transfer(0, 1, [10**9, 10**9], earliest=0.0, latency=0.5)
        assert flow.end == pytest.approx(2.5)
        assert fabric.nic_tx[0].busy_s == pytest.approx(2.5)
        assert fabric.bytes_on_network() == 2 * 10**9

    @pytest.mark.parametrize("chunks", [1, 8])
    def test_blocking_train_lands_where_chunk_timeouts_would(self, chunks):
        """The blocking train's clock chain ``now + (done - now)`` is the
        engine's: from t=0.1 on a 3 GB/s fabric, a 1 GB chunk's ``done``
        and ``0.1 + (done - 0.1)`` differ in the last bit."""
        sizes = [10**9] * chunks

        def per_chunk(engine, fabric):
            yield Timeout(0.1)
            for size in sizes:
                done = fabric.transfer(
                    0, 1, size, earliest=engine.now, latency=1e-6, duplex=True
                ).end
                if done > engine.now:
                    yield Timeout(done - engine.now)

        def train(engine, fabric):
            yield Timeout(0.1)
            done = fabric.transfer(
                0,
                1,
                sizes,
                earliest=engine.now,
                latency=1e-6,
                duplex=True,
                blocking=True,
            ).end
            yield Until(done)

        finished = []
        for driver in (per_chunk, train):
            engine = Engine()
            fabric = Fabric(2, bandwidth=3e9)
            engine.process(driver(engine, fabric))
            finished.append((engine.run(), fabric.nic_rx[1].next_free()))
        assert finished[0] == finished[1]
