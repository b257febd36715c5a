"""Property-based tests: the batched exact sampler equals its reference twin.

``exact.sample_exact`` resolves every shot by bisection over exact
segment cumulatives plus a fixed-point element search;
``exact._sample_exact_reference`` walks each shot through slice totals,
block partials and per-element big ints.  Both implement the same
definition, so on every ``(state, seed, shots)`` they must return the
same indices bit for bit.  The states below aim at the places where a
batched shortcut could drift from the definition: zero runs covering
whole segments, blocks and slices; squares that are subnormal;
magnitudes spread over many decades within one segment; equal
weights, whose cumulatives land on exact boundaries; a single nonzero
amplitude; and complex64 input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.statevector import exact

#: Alignments of the zeroed runs: an element, a sampler segment, a
#: reference-twin block, and (``None``) one whole slice.
_RUN_UNITS = (1, 64, 4096, None)


@st.composite
def sharded_states(draw):
    n = draw(st.integers(1, 14))
    size = 1 << n
    parts = 1 << draw(st.integers(0, min(4, n)))
    shape = draw(st.sampled_from(["random", "graded", "equal", "single"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "random":
        psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    elif shape == "graded":
        # Magnitudes spread over 40 decades: segments mix components far
        # below their largest, past the fixed-point fraction width.
        psi = (rng.normal(size=size) + 1j * rng.normal(size=size)) * (
            10.0 ** rng.uniform(-40, 0, size)
        )
    elif shape == "equal":
        weight = draw(st.sampled_from([1.0, 1j, 0.5 + 0.5j, -3.0]))
        psi = np.full(size, weight, dtype=complex)
    else:
        psi = np.zeros(size, dtype=complex)
        psi[draw(st.integers(0, size - 1))] = draw(
            st.sampled_from([1.0, -1j, 0.6 - 0.8j])
        )
    for _ in range(draw(st.integers(0, 3))):
        unit = draw(st.sampled_from(_RUN_UNITS)) or size // parts
        start = draw(st.integers(0, size - 1)) // unit * unit
        psi[start : start + unit * draw(st.integers(1, 4))] = 0
    scale = draw(st.sampled_from([1.0, 1e-160, 1e150]))
    psi *= scale
    if scale == 1.0 and draw(st.booleans()):
        psi = psi.astype(np.complex64)
    if exact.exact_sq_norm([psi]) == 0:
        psi[draw(st.integers(0, size - 1))] = 1.0
    return np.split(psi, parts)


@settings(max_examples=80, deadline=None)
@given(
    slices=sharded_states(),
    shots=st.integers(0, 512),
    seed=st.integers(-(2**63), 2**64 - 1),
)
def test_batched_sampler_equals_reference_twin(slices, shots, seed):
    got = exact.sample_exact(slices, shots, seed)
    want = exact._sample_exact_reference(slices, shots, seed)
    assert got.dtype == want.dtype == np.uint64
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(slices=sharded_states(), seed=st.integers(0, 2**64 - 1))
def test_batched_sampler_is_partition_invariant(slices, seed):
    whole = np.concatenate(slices)
    assert np.array_equal(
        exact.sample_exact(slices, 64, seed),
        exact.sample_exact([whole], 64, seed),
    )
