"""Unit tests for the fault plan and its coordinate-keyed randomness."""

import math

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults import (
    ZERO_FAULTS,
    CheckpointPolicy,
    FaultPlan,
    LinkDegradation,
    NodeFailure,
    Straggler,
)
from repro.faults.rng import exponential, mix64, mix64_batch, uniform


class TestRng:
    def test_mix64_deterministic_and_keyed(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        assert mix64(1, 2, 3) != mix64(1, 2, 4)
        assert mix64(1, 2, 3) != mix64(1, 3, 2)

    def test_mix64_batch_equals_scalar(self):
        counters = np.concatenate(
            [
                np.arange(8192, dtype=np.uint64),
                np.array([2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
            ]
        )
        for prefix in ((), (7,), (7, 0x53414D50), (-1, 2**70 + 3)):
            got = mix64_batch(*prefix, counters=counters)
            assert got.dtype == np.uint64
            want = [mix64(*prefix, c) for c in counters.tolist()]
            assert got.tolist() == want

    def test_uniform_range(self):
        for i in range(200):
            u = uniform(7, 0xAB, i)
            assert 0.0 <= u < 1.0

    def test_uniform_roughly_uniform(self):
        draws = [uniform(3, i) for i in range(2000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 0.5) < 0.05

    def test_exponential_positive_with_sane_mean(self):
        draws = [exponential(10.0, 5, i) for i in range(2000)]
        assert all(d > 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert 8.0 < mean < 12.0


class TestComponentValidation:
    def test_node_failure_rejects_negative_time(self):
        with pytest.raises(FaultError, match="time_s"):
            NodeFailure(time_s=-1.0, node=0)

    def test_node_failure_rejects_nan_time(self):
        with pytest.raises(FaultError, match="finite"):
            NodeFailure(time_s=float("nan"), node=0)

    def test_node_failure_rejects_bad_node(self):
        with pytest.raises(FaultError, match="node"):
            NodeFailure(time_s=0.0, node=-1)
        with pytest.raises(FaultError, match="node"):
            NodeFailure(time_s=0.0, node=True)

    def test_straggler_rejects_speedup(self):
        with pytest.raises(FaultError, match="slowdown"):
            Straggler(rank=0, slowdown=0.5)

    def test_straggler_rejects_nan(self):
        with pytest.raises(FaultError, match="finite"):
            Straggler(rank=0, slowdown=float("nan"))

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_link_degradation_rejects_out_of_range(self, factor):
        with pytest.raises(FaultError):
            LinkDegradation(node=0, factor=factor)

    def test_link_degradation_accepts_unit_factor(self):
        LinkDegradation(node=0, factor=1.0)

    def test_checkpoint_policy_rejects_nonpositive_interval(self):
        with pytest.raises(FaultError, match="interval"):
            CheckpointPolicy(interval_s=0.0, write_s=1.0)

    def test_checkpoint_policy_rejects_negative_write(self):
        with pytest.raises(FaultError, match="write"):
            CheckpointPolicy(interval_s=1.0, write_s=-1.0)


class TestFaultPlan:
    def test_zero_plan_is_zero(self):
        assert FaultPlan().is_zero
        assert ZERO_FAULTS.is_zero

    def test_checkpoint_alone_is_not_zero(self):
        plan = FaultPlan(checkpoint=CheckpointPolicy(interval_s=1.0, write_s=0.1))
        assert not plan.is_zero

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mtbf_s": 100.0},
            {"node_failures": (NodeFailure(1.0, 0),)},
            {"stragglers": (Straggler(0, 2.0),)},
            {"link_degradations": (LinkDegradation(0, 0.5),)},
            {"chunk_failure_rate": 0.1},
        ],
    )
    def test_any_fault_makes_plan_nonzero(self, kwargs):
        assert not FaultPlan(**kwargs).is_zero

    def test_rejects_nan_mtbf(self):
        with pytest.raises(FaultError, match="finite"):
            FaultPlan(mtbf_s=float("nan"))

    def test_rejects_nonpositive_mtbf(self):
        with pytest.raises(FaultError, match="mtbf"):
            FaultPlan(mtbf_s=0.0)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, float("nan")])
    def test_rejects_bad_chunk_rate(self, rate):
        with pytest.raises(FaultError):
            FaultPlan(chunk_failure_rate=rate)

    def test_rejects_duplicate_straggler(self):
        with pytest.raises(FaultError, match="duplicate"):
            FaultPlan(stragglers=(Straggler(1, 2.0), Straggler(1, 3.0)))

    def test_rejects_duplicate_degraded_node(self):
        with pytest.raises(FaultError, match="duplicate"):
            FaultPlan(
                link_degradations=(
                    LinkDegradation(0, 0.5),
                    LinkDegradation(0, 0.9),
                )
            )

    def test_worst_case_queries(self):
        plan = FaultPlan(
            stragglers=(Straggler(0, 1.5), Straggler(3, 2.5)),
            link_degradations=(LinkDegradation(1, 0.8), LinkDegradation(2, 0.3)),
        )
        assert plan.max_slowdown == 2.5
        assert plan.min_link_factor == 0.3
        assert plan.slowdown_of(3) == 2.5
        assert plan.slowdown_of(7) == 1.0
        assert plan.link_factor_of(2) == 0.3
        assert plan.link_factor_of(0) == 1.0

    def test_validate_against_rejects_out_of_job_targets(self):
        plan = FaultPlan(stragglers=(Straggler(8, 2.0),))
        with pytest.raises(FaultError, match="out of range"):
            plan.validate_against(num_ranks=8, num_nodes=8)
        plan = FaultPlan(link_degradations=(LinkDegradation(4, 0.5),))
        with pytest.raises(FaultError, match="out of range"):
            plan.validate_against(num_ranks=8, num_nodes=4)
        plan = FaultPlan(node_failures=(NodeFailure(1.0, 4),))
        with pytest.raises(FaultError, match="out of range"):
            plan.validate_against(num_ranks=8, num_nodes=4)

    def test_validate_against_accepts_in_range(self):
        FaultPlan(
            stragglers=(Straggler(7, 2.0),),
            link_degradations=(LinkDegradation(3, 0.5),),
            node_failures=(NodeFailure(1.0, 3),),
        ).validate_against(num_ranks=8, num_nodes=4)


class TestFailureStream:
    def test_explicit_only_stream_is_sorted_and_finite(self):
        plan = FaultPlan(
            node_failures=(NodeFailure(5.0, 1), NodeFailure(2.0, 0))
        )
        failures = list(plan.failure_stream(num_nodes=4))
        assert [f.time_s for f in failures] == [2.0, 5.0]

    def test_drawn_stream_is_deterministic(self):
        plan = FaultPlan(seed=11, mtbf_s=10.0)
        take = lambda: [
            (f.time_s, f.node)
            for f, _ in zip(plan.failure_stream(num_nodes=8), range(50))
        ]
        assert take() == take()

    def test_drawn_stream_depends_on_seed(self):
        a = FaultPlan(seed=1, mtbf_s=10.0)
        b = FaultPlan(seed=2, mtbf_s=10.0)
        firsts = lambda p: next(iter(p.failure_stream(num_nodes=8))).time_s
        assert firsts(a) != firsts(b)

    def test_drawn_times_strictly_increase(self):
        plan = FaultPlan(seed=3, mtbf_s=1.0)
        times = [
            f.time_s for f, _ in zip(plan.failure_stream(num_nodes=4), range(100))
        ]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(math.isfinite(t) for t in times)

    def test_merged_stream_interleaves_in_time_order(self):
        plan = FaultPlan(
            seed=5,
            mtbf_s=10.0,
            node_failures=(NodeFailure(0.5, 2), NodeFailure(40.0, 3)),
        )
        times = [
            f.time_s for f, _ in zip(plan.failure_stream(num_nodes=4), range(30))
        ]
        assert times == sorted(times)
        assert 0.5 in times and 40.0 in times

    def test_drawn_nodes_in_range(self):
        plan = FaultPlan(seed=9, mtbf_s=1.0)
        nodes = [
            f.node for f, _ in zip(plan.failure_stream(num_nodes=4), range(100))
        ]
        assert all(0 <= n < 4 for n in nodes)
        assert len(set(nodes)) > 1  # not stuck on one node
