"""Chunk-train booking is bit-identical to booking chunk by chunk.

Where nothing else can touch an exchange's links between two of its
chunks, the DES books the whole chunk train in one
:meth:`~repro.des.resources.Fabric.transfer` call
(:func:`repro.des.rank._books_trains`).  The per-chunk drivers stay as
the reference: this suite forces them through that private hook and
demands the same makespan, every timeline span and the network bytes
bit for bit, with per-link busy time and bytes equal (busy time is
summed per train before it reaches the link, so it may differ in the
last bits).

Covered: the paper's Table 2 replays (41 qubits on 512 nodes, all three
variants), fig. 2 points, and generated small topologies that mix
shared NICs, small switch groups, oversubscribed up-links, many-chunk
exchanges, overlap, stragglers and degraded links.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.des.rank as des_rank
from repro.circuits import (
    builtin_qft_circuit,
    cache_blocked_qft_circuit,
    random_circuit,
)
from repro.des import simulate_trace
from repro.faults import FaultPlan, LinkDegradation, Straggler
from repro.machine import HIGHMEM_NODE, STANDARD_NODE, CpuFrequency
from repro.mpi import CommMode
from repro.perfmodel import RunConfiguration, trace_circuit
from repro.statevector import Partition

BUSY_RTOL = 1e-9


@contextmanager
def _booking(reference: bool):
    """Replay on the train path, or force the per-chunk reference.

    Yields the replay contexts the hook saw, so callers can inspect the
    fabric and which path was taken.
    """
    original = des_rank._books_trains
    seen = []

    def hook(ctx):
        seen.append(ctx)
        return False if reference else original(ctx)

    des_rank._books_trains = hook
    try:
        yield seen
    finally:
        des_rank._books_trains = original


def _replay(trace, *, reference: bool, **kwargs):
    with _booking(reference) as seen:
        result = simulate_trace(trace, **kwargs)
    (ctx,) = seen
    return result, ctx


def _assert_identical(trace, **kwargs):
    """Train and reference replays agree; returns whether trains ran."""
    train, train_ctx = _replay(trace, reference=False, **kwargs)
    ref, ref_ctx = _replay(trace, reference=True, **kwargs)
    assert not ref_ctx.trains
    assert train.makespan_s == ref.makespan_s
    assert train.network_bytes == ref.network_bytes
    assert train.events_processed <= ref.events_processed
    for rank in range(trace.config.partition.num_ranks):
        assert train.timeline.spans_of(rank) == ref.timeline.spans_of(rank)
    assert train.timeline.events == ref.timeline.events
    links = zip(train_ctx.fabric.all_links(), ref_ctx.fabric.all_links())
    for got, want in links:
        assert got.bytes_moved == want.bytes_moved, got.name
        assert got.busy_s == pytest.approx(want.busy_s, rel=BUSY_RTOL, abs=0)
        assert got.next_free() == want.next_free(), got.name
    return train_ctx.trains


def _config(n, nodes, mode, *, node_type=STANDARD_NODE, frequency=None, **kw):
    return RunConfiguration(
        partition=Partition(n, nodes * kw.get("ranks_per_node", 1)),
        node_type=node_type,
        frequency=frequency or CpuFrequency.MEDIUM,
        comm_mode=mode,
        **kw,
    )


@pytest.mark.parametrize(
    "variant", ["builtin-blocking", "builtin-nonblocking", "fast-nonblocking"]
)
def test_table2_replays_identical(variant):
    """The 41-qubit, 512-node Table 2 replays: 32 chunks of 2 GiB."""
    n, nodes = 41, 512
    circuit = (
        cache_blocked_qft_circuit(n, n - 9)
        if variant.startswith("fast")
        else builtin_qft_circuit(n)
    )
    mode = CommMode.BLOCKING if "-blocking" in variant else CommMode.NONBLOCKING
    trace = trace_circuit(circuit, _config(n, nodes, mode))
    assert _assert_identical(trace)


@pytest.mark.parametrize(
    ("node_type", "n", "nodes"),
    [
        (STANDARD_NODE, 34, 4),
        (STANDARD_NODE, 36, 16),
        (STANDARD_NODE, 38, 64),
        (HIGHMEM_NODE, 37, 16),
    ],
)
@pytest.mark.parametrize("frequency", [CpuFrequency.MEDIUM, CpuFrequency.HIGH])
def test_fig2_replays_identical(node_type, n, nodes, frequency):
    """Fig. 2 points: the built-in QFT at its minimum node count."""
    config = _config(
        n, nodes, CommMode.BLOCKING, node_type=node_type, frequency=frequency
    )
    assert _assert_identical(trace_circuit(builtin_qft_circuit(n), config))


@st.composite
def topologies(draw):
    node_bits = draw(st.integers(1, 5))
    rpn = draw(st.sampled_from([1, 2, 4]))
    rank_bits = node_bits + rpn.bit_length() - 1
    n = rank_bits + draw(st.integers(3, 6))
    config = _config(
        n,
        1 << node_bits,
        draw(st.sampled_from(list(CommMode))),
        ranks_per_node=rpn,
        nodes_per_switch=draw(st.sampled_from([2, 4, 8])),
        max_message=draw(st.sampled_from([16, 48, 128, 1024])),
        overlap_comm_compute=draw(st.booleans()),
    )
    if draw(st.booleans()):
        circuit = builtin_qft_circuit(n)
    else:
        circuit = random_circuit(n, 40, seed=draw(st.integers(0, 2**16)))
    ranks = st.integers(0, (1 << rank_bits) - 1)
    nodes = st.integers(0, (1 << node_bits) - 1)
    plan = FaultPlan(
        stragglers=tuple(
            Straggler(rank=r, slowdown=s)
            for r, s in draw(
                st.dictionaries(ranks, st.floats(1.0, 3.0), max_size=2)
            ).items()
        ),
        link_degradations=tuple(
            LinkDegradation(node=node, factor=f)
            for node, f in draw(
                st.dictionaries(nodes, st.floats(0.2, 1.0), max_size=2)
            ).items()
        ),
    )
    oversubscription = draw(st.sampled_from([1.0, 2.0, 4.0]))
    return trace_circuit(circuit, config), plan, oversubscription


@given(topologies())
@settings(max_examples=60, deadline=None)
def test_small_topologies_identical(case):
    trace, plan, oversubscription = case
    trains = _assert_identical(
        trace, faults=plan, uplink_oversubscription=oversubscription
    )
    # Blocking exchanges contend between chunks when ranks share a NIC,
    # or when flows cross switches whose up-links are oversubscribed.
    config = trace.config
    crosses_switches = config.num_nodes > config.nodes_per_switch
    contended = config.ranks_per_node > 1 or (
        crosses_switches and oversubscription > 1
    )
    assert trains == (config.comm_mode is CommMode.NONBLOCKING or not contended)


def test_chunk_faults_take_the_per_chunk_path():
    config = _config(16, 4, CommMode.NONBLOCKING, max_message=1024)
    trace = trace_circuit(builtin_qft_circuit(16), config)
    _, ctx = _replay(
        trace,
        reference=False,
        faults=FaultPlan(seed=1, chunk_failure_rate=0.1),
    )
    assert not ctx.trains
