"""The measurement subsystem: exact primitives, Measure gate, sample()."""

import numpy as np
import pytest

from repro.circuits import Circuit, ghz_circuit, random_state
from repro.errors import SimulationError, ValidationError
from repro.statevector import (
    DenseStatevector,
    DistributedStatevector,
    sample,
)
from repro.statevector import exact
from repro.statevector.sampling import SHOTS_ENV, resolve_shots


class TestExactPrimitives:
    def test_norm_is_partition_invariant(self):
        psi = random_state(6, seed=3)
        whole = exact.exact_sq_norm([psi])
        for parts in (2, 4, 8):
            assert exact.exact_sq_norm(np.split(psi, parts)) == whole

    def test_partial_norms_local_matches_marginal(self):
        psi = random_state(4, seed=5)
        n0, ntotal = exact.partial_norms(psi, 2, 0, 4)
        probs = np.abs(psi) ** 2
        mask = (np.arange(16) >> 2) & 1
        assert ntotal == exact.exact_sq_norm([psi])
        assert np.isclose(n0 / ntotal, probs[mask == 0].sum())

    def test_partial_norms_rank_qubit_sums_to_local_split(self):
        # Qubit 2 measured on 4 ranks (2 local qubits) must reduce to
        # the same exact pair as on 1 rank (4 local qubits).
        psi = random_state(4, seed=5)
        whole = exact.partial_norms(psi, 2, 0, 4)
        slices = np.split(psi, 4)
        parts = [
            exact.partial_norms(s, 2, r, 2) for r, s in enumerate(slices)
        ]
        assert (
            sum(p[0] for p in parts),
            sum(p[1] for p in parts),
        ) == whole

    def test_measure_outcome_endpoints(self):
        # p(0) = 0 can never draw outcome 0; p(0) = 1 always does.
        for ordinal in range(16):
            assert exact.measure_outcome(7, ordinal, 0, 100) == 1
            assert exact.measure_outcome(7, ordinal, 100, 100) == 0

    def test_measure_outcome_rejects_zero_norm(self):
        with pytest.raises(SimulationError, match="zero-norm"):
            exact.measure_outcome(7, 0, 0, 0)

    def test_collapse_scale_rejects_zero_probability(self):
        with pytest.raises(SimulationError, match="zero-probability"):
            exact.collapse_scale(0, 10)

    def test_collapse_scale_exact_halves(self):
        assert exact.collapse_scale(1, 4) == 2.0
        assert exact.collapse_scale(4, 4) == 1.0

    def test_sample_exact_is_partition_invariant(self):
        psi = random_state(6, seed=9)
        whole = exact.sample_exact([psi], 32, seed=11)
        for parts in (2, 4):
            assert np.array_equal(
                exact.sample_exact(np.split(psi, parts), 32, seed=11),
                whole,
            )

    def test_sample_exact_matches_naive_cumulative_search(self):
        from repro.faults.rng import mix64

        psi = random_state(5, seed=13)
        sq = np.abs(np.asarray(psi)) ** 2
        # Exact per-element units, then the definitional linear scan.
        re = np.asarray(psi.real, dtype=np.float64)
        im = np.asarray(psi.imag, dtype=np.float64)
        units = [
            a + b
            for a, b in zip(
                exact._unit_values(re * re), exact._unit_values(im * im)
            )
        ]
        ntotal = sum(units)
        got = exact.sample_exact([psi], 16, seed=17)
        for s in range(16):
            u = mix64(17, exact.SAMPLE_STREAM, s) >> 11
            target = u * ntotal
            acc = 0
            for j, ev in enumerate(units):
                acc += ev
                if (acc << 53) > target:
                    break
            assert int(got[s]) == j
        assert sq[np.asarray(got, dtype=int)].min() > 0

    def test_sample_exact_matches_naive_search_across_blocks(self):
        from itertools import accumulate

        from repro.faults.rng import mix64

        # 2**13 amps: two 4096-element reference blocks, 128 sampler
        # segments, four slices; the zero run crosses segment, block and
        # slice boundaries.
        psi = random_state(13, seed=13)
        psi[1000:5000] = 0
        re = np.asarray(psi.real, dtype=np.float64)
        im = np.asarray(psi.imag, dtype=np.float64)
        cum = list(
            accumulate(
                a + b
                for a, b in zip(
                    exact._unit_values(re * re), exact._unit_values(im * im)
                )
            )
        )
        got = exact.sample_exact(np.split(psi, 4), 96, seed=17)
        for s in range(96):
            target = (mix64(17, exact.SAMPLE_STREAM, s) >> 11) * cum[-1]
            j = next(j for j, c in enumerate(cum) if (c << 53) > target)
            assert int(got[s]) == j
        assert not np.any((got >= 1000) & (got < 5000))

    @staticmethod
    def _crafted_segments() -> np.ndarray:
        """Squared components of four 64-amp rows built to strain the
        fixed-point level: mixed exponents with zeros and a subnormal,
        equal weights, an all-subnormal row, and a row whose every
        component but the first truncates with an error just under one
        unit, so the ``2(j+1)`` bound is nearly tight."""
        rng = np.random.default_rng(5)
        mixed = rng.normal(size=(64, 2)) * 10.0 ** rng.uniform(-30, 0, (64, 2))
        mixed[::7] = 0
        mixed[3, 1] = 1e-160
        equal = np.full((64, 2), 0.125)
        tiny = rng.normal(size=(64, 2)) * 1e-160
        sq = np.stack([mixed, equal, tiny]) ** 2
        # Mantissa 2**53 - 1, 52 binary places below the top component.
        ragged = np.full((1, 64, 2), 2.0 - 2.0**-52)
        ragged[0, 0, 0] = 2.0**52
        return np.concatenate([sq, ragged])

    def test_segment_totals_are_exact(self):
        sq = self._crafted_segments()
        # The mixed row holds components far more than 2**55 below its
        # largest, which take the one-by-one path.
        x, _ = exact._scaled(sq)
        assert ((x[0] > 0) & (x[0] < 2.0 ** (52 - exact._FRAC_BITS))).any()
        assert exact._segment_totals(sq) == [
            sum(exact._unit_values(row.ravel())) for row in sq
        ]

    def test_fixed_point_bounds_bracket_and_fallback_is_exact(self):
        from itertools import accumulate

        sq = self._crafted_segments()
        rows, rems, want = [], [], []
        for row in range(len(sq)):
            units = exact._unit_values(sq[row].ravel())
            cum = list(accumulate(map(sum, zip(units[::2], units[1::2]))))
            # Targets at, just below and just above every exact C_j.
            for c in cum:
                for rem in (c - 1, c, c + 1):
                    if 0 <= rem < cum[-1]:
                        rows.append(row)
                        rems.append(rem)
                        want.append(sum(cj <= rem for cj in cum))
        rows = np.array(rows)
        j_lo, j_hi = exact._fixed_point_bounds(sq, rows, rems)
        assert np.all(j_lo <= want) and np.all(np.asarray(want) <= j_hi)
        assert np.count_nonzero(j_lo != j_hi) > len(rems) // 4
        assert exact._resolve_elements(sq, rows, rems).tolist() == want

    def test_sample_exact_rejects_bad_input(self):
        psi = random_state(3, seed=1)
        with pytest.raises(SimulationError, match="shots"):
            exact.sample_exact([psi], -1, seed=0)
        with pytest.raises(SimulationError, match="zero-norm"):
            exact.sample_exact([np.zeros(8, complex)], 4, seed=0)

    def test_non_finite_amplitude_rejected(self):
        bad = np.array([np.inf + 0j, 0j])
        with pytest.raises(SimulationError, match="non-finite"):
            exact.exact_sq_norm([bad])


class TestMeasureGate:
    def test_collapse_is_seed_deterministic(self):
        c = Circuit(3).h(0).cx(0, 1).measure(0).h(2).measure(2)
        a = DenseStatevector(3, measure_seed=42).apply_circuit(c)
        b = DenseStatevector(3, measure_seed=42).apply_circuit(c)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert a.measure_outcomes == b.measure_outcomes
        assert len(a.measure_outcomes) == 2

    def test_collapse_renormalises(self):
        c = Circuit(2).h(0).h(1).measure(0)
        state = DenseStatevector(2, measure_seed=1).apply_circuit(c)
        assert np.isclose(state.norm(), 1.0)
        ((qubit, outcome),) = state.measure_outcomes
        assert qubit == 0
        # The collapsed branch holds no weight on the other outcome.
        probs = state.probabilities()
        other = probs[((np.arange(4) >> 0) & 1) != outcome]
        assert np.all(other == 0)

    def test_deterministic_branch_never_flips(self):
        # |11> measured on qubit 1 must always give 1, any seed.
        for seed in range(8):
            c = Circuit(2).x(0).x(1).measure(1)
            state = DenseStatevector(2, measure_seed=seed).apply_circuit(c)
            assert state.measure_outcomes == [(1, 1)]

    def test_entangled_pair_outcomes_agree(self):
        # GHZ collapse: measuring qubit 0 pins every later measurement.
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        for q in range(3):
            c.measure(q)
        for seed in range(6):
            state = DenseStatevector(3, measure_seed=seed).apply_circuit(c)
            outcomes = [o for _, o in state.measure_outcomes]
            assert len(set(outcomes)) == 1


class TestSampleApi:
    def test_rejects_negative_shots(self):
        with pytest.raises(ValidationError, match="shots"):
            sample(Circuit(2).h(0), -1)

    def test_zero_shots_is_empty(self):
        result = sample(Circuit(2).h(0), 0)
        assert result.samples.size == 0
        assert result.counts() == {}

    def test_ghz_support_is_all_zeros_or_all_ones(self):
        result = sample(ghz_circuit(5), 64, seed=3)
        assert set(np.unique(result.samples).tolist()) <= {0, 31}
        assert set(result.counts()) <= {"00000", "11111"}

    def test_bitstrings_render_width(self):
        result = sample(Circuit(3).x(1), 4, seed=0)
        assert result.bitstrings() == ["010"] * 4
        assert result.counts() == {"010": 4}

    def test_dense_and_serial_agree(self):
        c = Circuit(4).h(0).cx(0, 1).measure(1).h(2).cx(2, 3).measure(3)
        dense = sample(c, 20, seed=7)
        serial = sample(c, 20, seed=7, executor="serial", num_ranks=4)
        assert np.array_equal(dense.samples, serial.samples)
        assert dense.measure_outcomes == serial.measure_outcomes

    def test_distributed_post_measure_state_matches_dense(self):
        c = Circuit(4).h(0).cx(0, 1).measure(0).rz(0.3, 2).h(3).measure(3)
        dense = DenseStatevector(4, measure_seed=5).apply_circuit(c)
        dist = DistributedStatevector.zero_state(
            4, 4, executor="serial", measure_seed=5
        ).apply_circuit(c)
        # Outcome decisions are exact and partition-independent; the
        # amplitudes themselves are held to the standing
        # dense-vs-distributed contract (unitary sweeps differ in the
        # last ulp between the full-array and per-rank kernels).
        np.testing.assert_allclose(dense.amplitudes, dist.gather(), atol=1e-12)
        assert dense.measure_outcomes == dist.measure_outcomes


class TestResolveShots:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(SHOTS_ENV, "99")
        assert resolve_shots(5) == 5

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(SHOTS_ENV, "1024")
        assert resolve_shots() == 1024

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(SHOTS_ENV, raising=False)
        assert resolve_shots() == 0
        assert resolve_shots(default=4096) == 4096

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(SHOTS_ENV, "many")
        with pytest.raises(ValidationError, match="integer"):
            resolve_shots()
        monkeypatch.setenv(SHOTS_ENV, "-2")
        with pytest.raises(ValidationError, match=">= 0"):
            resolve_shots()

    def test_negative_explicit_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            resolve_shots(-1)
