"""Exact-arithmetic measurement primitives.

Bit-identical measurement across executors cannot be built on floating
partial sums: the four backends reduce |amp|^2 over different slice
structures (one flat array, per-rank slices, per-chunk pipelines), and
float addition is not associative, so their norms drift in the last ulp
and a threshold draw near the boundary flips.  Instead every squared
component is converted *exactly* to an integer in units of ``2**-1074``
(the smallest positive subnormal): a finite float64 ``x`` decomposes via
``frexp`` as ``mant * 2**(e-53)`` with ``mant`` a 53-bit integer, so
``x / 2**-1074 == mant << (e + 1021)`` -- an exact (possibly shifted
down, see :func:`_group_value`) Python integer.  Integer sums are
associative, so every partition of the amplitudes yields the *same*
total, and outcome decisions / cumulative searches on those totals are
reproducible bit-for-bit however the state is sharded.

The per-element float work (component squaring) is elementwise and
therefore partition-independent; only the *summation* needed rescuing.

Shot sampling (:func:`sample_exact`) turns each draw into one integer
target and finds the first index whose exact cumulative exceeds it.
All shots share one exact prefix -- 64-amplitude segment totals built
in vectorised int64 fixed point, accumulated once -- so a shot costs a
bisection plus a batched fixed-point search inside its segment, whose
error bound is tight enough that only targets within a few units of a
cumulative need an exact Python-int rescan.  The per-shot descent it
replaced stays as :func:`_sample_exact_reference`, the twin the
property suite holds it to bit for bit.

Outcome draws use the counter-based :func:`repro.faults.rng.mix64`
stream so the k-th measurement (or shot) of a run depends only on
``(seed, stream, k)`` -- never on how many ranks or workers computed it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.errors import SimulationError
from repro.faults.rng import mix64, mix64_batch

__all__ = [
    "MEASURE_STREAM",
    "SAMPLE_STREAM",
    "exact_sq_norm",
    "partial_norms",
    "measure_outcome",
    "collapse_scale",
    "collapse_slice",
    "sample_exact",
]

#: Stream tag ("MEAS") separating mid-circuit collapse draws from every
#: other consumer of the splitmix64 counter space.
MEASURE_STREAM = 0x4D454153

#: Stream tag ("SAMP") for terminal shot sampling.
SAMPLE_STREAM = 0x53414D50

#: ``2**53`` -- frexp mantissas scale to integers by this factor.
_MANT_SCALE = float(1 << 53)

#: Mantissas are < 2**53; chunks of 512 summed in int64 stay < 2**62.
_SUM_CHUNK = 512


def _sq_components(amps: np.ndarray) -> np.ndarray:
    """Squared real and imaginary components of a slice, as float64.

    The returned order is irrelevant: callers only ever *sum* these
    exactly, and exact sums are permutation-invariant.  Components are
    widened to float64 *before* squaring so complex64 states square the
    same values the dense reference does.
    """
    c = np.asarray(amps)
    re = np.asarray(c.real, dtype=np.float64)
    im = np.asarray(c.imag, dtype=np.float64)
    sq = np.concatenate([np.ravel(re * re), np.ravel(im * im)])
    if not np.all(np.isfinite(sq)):
        raise SimulationError(
            "non-finite amplitude encountered while measuring"
        )
    return sq


def _decompose(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mantissa, shift) with ``value == mant * 2**shift`` exactly.

    ``mant`` is an int64 in ``[2**52, 2**53)`` (0 for zero values) and
    ``shift`` is the exponent in units of ``2**-1074``.
    """
    m, e = np.frexp(values)
    mant = np.rint(m * _MANT_SCALE).astype(np.int64)
    shift = e.astype(np.int64) + 1021
    return mant, shift


def _group_value(mants: np.ndarray, shift: int) -> int:
    """Exact sum of one equal-shift mantissa group, as a Python int.

    A negative shift only arises for subnormal squares, whose mantissas
    carry at least ``-shift`` trailing zero bits (the value is a
    multiple of ``2**-1074`` by construction), so the group total is
    exactly divisible and the right-shift below loses nothing.
    """
    total = 0
    for off in range(0, len(mants), _SUM_CHUNK):
        total += int(
            np.add.reduce(mants[off : off + _SUM_CHUNK], dtype=np.int64)
        )
    return (total << shift) if shift >= 0 else (total >> -shift)


def _units_sum(values: np.ndarray) -> int:
    """Exact integer sum of non-negative float64s, in ``2**-1074`` units."""
    if values.size == 0:
        return 0
    mant, shift = _decompose(values)
    order = np.argsort(shift, kind="stable")
    mant = mant[order]
    shift = shift[order]
    bounds = np.flatnonzero(np.diff(shift)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(shift)]))
    total = 0
    for a, b in zip(starts, ends):
        total += _group_value(mant[a:b], int(shift[a]))
    return total


def _unit_values(values: np.ndarray) -> list[int]:
    """Per-element exact integer values (``2**-1074`` units)."""
    mant, shift = _decompose(values)
    return [
        (mt << sh) if sh >= 0 else (mt >> -sh)
        for mt, sh in zip(mant.tolist(), shift.tolist())
    ]


def exact_sq_norm(arrays) -> int:
    """Exact squared norm of a sequence of slices, in ``2**-1074`` units."""
    return sum(_units_sum(_sq_components(a)) for a in arrays)


def partial_norms(
    amps: np.ndarray, qubit: int, rank: int, local_qubits: int
) -> tuple[int, int]:
    """One slice's exact ``(norm with qubit=0, total norm)`` contribution.

    For a local qubit the slice splits into interleaved halves by the
    target bit; for a rank-index qubit the whole slice belongs to one
    outcome, decided by the rank id's bit.
    """
    if qubit < local_qubits:
        view = np.reshape(amps, (-1, 2, 1 << qubit))
        n0 = _units_sum(_sq_components(view[:, 0, :]))
        n1 = _units_sum(_sq_components(view[:, 1, :]))
        return n0, n0 + n1
    total = _units_sum(_sq_components(amps))
    bit = (rank >> (qubit - local_qubits)) & 1
    return (0 if bit else total), total


def measure_outcome(seed: int, ordinal: int, n0: int, ntotal: int) -> int:
    """The seed-deterministic outcome of measurement number ``ordinal``.

    Draws a 53-bit uniform ``u`` from the MEASURE stream and returns 0
    iff ``u / 2**53 < n0 / ntotal``, compared exactly in integers.  A
    zero-probability outcome is provably never chosen: ``n0 == 0`` fails
    the comparison for every ``u``, and ``n0 == ntotal`` satisfies it
    (``u < 2**53`` always).
    """
    if ntotal <= 0:
        raise SimulationError("cannot measure a zero-norm state")
    u = mix64(seed, MEASURE_STREAM, ordinal) >> 11
    return 0 if u * ntotal < (n0 << 53) else 1


def collapse_scale(n_selected: int, ntotal: int) -> float:
    """The renormalisation factor ``1/sqrt(p)`` for the chosen outcome.

    ``n_selected / ntotal`` is a big-int true division -- the correctly
    rounded float64 of the exact ratio -- so every executor derives the
    identical scale from the identical integer pair.
    """
    if n_selected <= 0:
        raise SimulationError("collapse onto a zero-probability outcome")
    return 1.0 / math.sqrt(n_selected / ntotal)


def collapse_slice(
    amps: np.ndarray,
    qubit: int,
    outcome: int,
    scale: float,
    rank: int,
    local_qubits: int,
) -> None:
    """Project one slice onto ``qubit == outcome`` and rescale, in place."""
    if qubit < local_qubits:
        view = np.reshape(amps, (-1, 2, 1 << qubit))
        view[:, 1 - outcome, :] = 0
        amps *= amps.dtype.type(scale)
        return
    bit = (rank >> (qubit - local_qubits)) & 1
    if bit != outcome:
        amps[:] = 0
    else:
        amps *= amps.dtype.type(scale)


#: Amplitudes per segment of the batched sampler.  A segment holds 128
#: squared components, so any segment-wide int64 sum of per-component
#: words below 2**55 stays below 2**62.
_SEGMENT = 64

#: Fraction bits of the exact segment totals (see :func:`_segment_totals`).
_FRAC_BITS = 55

#: Amplitudes per vectorised pass of the prefix build (a multiple of
#: ``_SEGMENT``); bounds the pass's temporaries at a few MiB.
_PASS_AMPS = 1 << 16

#: Shots resolved per vectorised batch; bounds the gathered segment
#: matrix and the (shots, 64) comparison at a few MiB.
_SHOT_BATCH = 4096


def _sq_segments(a: np.ndarray) -> np.ndarray:
    """Squared (re, im) components as a ``(segments, 64, 2)`` array.

    Zero-padded to whole segments.  Widened to float64 before squaring,
    like :func:`_sq_components`, so every component takes the value the
    reference twin sums.
    """
    sq = np.zeros((-(-a.size // _SEGMENT) * _SEGMENT, 2))
    sq[: a.size, 0] = a.real
    sq[: a.size, 1] = a.imag
    sq *= sq
    if not np.all(np.isfinite(sq)):
        raise SimulationError(
            "non-finite amplitude encountered while measuring"
        )
    return sq.reshape(-1, _SEGMENT, 2)


def _scaled(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's components in units of ``2**top``, plus ``top``.

    ``top`` is the shift (in ``2**-1074`` units, as :func:`_decompose`
    gives it) of the segment's largest component, floored at 0, so every
    scaled component ``x`` is below ``2**53``.  A component whose shift
    is at most 55 below ``top`` scales to ``x >= 2**-3``, a normal
    float, so the power-of-two scaling is exact for it; only deeper
    components (``x < 2**-3``) may lose bits.
    """
    top = np.maximum(np.frexp(sq.max(axis=(1, 2)))[1] + 1021, 0)
    x = np.ldexp(sq, (1074 - top).astype(np.int32)[:, None, None])
    return x, top


def _segment_totals(sq: np.ndarray) -> list[int]:
    """Exact squared norm of every segment, in ``2**-1074`` units.

    A component at most ``_FRAC_BITS`` below its segment's top scales
    exactly to ``x = w + f`` with integer ``w < 2**53`` and ``f`` a
    multiple of ``2**-55``, so the segment sums exactly in two int64
    fixed-point words, leaving one Python big-int shift per segment.
    Deeper components -- less than ``2**-55`` of the segment's largest,
    so almost never -- are added one by one.
    """
    x, top = _scaled(sq)
    deep = (x > 0) & (x < 2.0 ** (52 - _FRAC_BITS))
    any_deep = bool(deep.any())
    if any_deep:
        x[deep] = 0.0
    w = np.floor(x)
    whole = w.astype(np.int64).sum(axis=(1, 2))
    frac = np.ldexp(x - w, _FRAC_BITS).astype(np.int64).sum(axis=(1, 2))
    # The shallow sum is an integer number of units, so the right shift
    # of a low-top segment drops only zero bits.
    totals = [
        ((w << _FRAC_BITS) + f) << (t - _FRAC_BITS)
        if t >= _FRAC_BITS
        else ((w << _FRAC_BITS) + f) >> (_FRAC_BITS - t)
        for w, f, t in zip(whole.tolist(), frac.tolist(), top.tolist())
    ]
    if any_deep:
        rows = np.nonzero(deep)[0]
        for row, units in zip(rows.tolist(), _unit_values(sq[deep])):
            totals[row] += units
    return totals


def _fixed_point_bounds(
    sq: np.ndarray, rows: np.ndarray, rems: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(j_lo, j_hi)`` per shot, bracketing its in-segment index.

    ``sq`` holds the squared components of the touched segments as a
    ``(k, 64, 2)`` float64 array; shot ``s`` looks in row ``rows[s]``
    for the first element ``j`` whose exact inclusive cumulative ``C_j``
    exceeds ``rems[s]`` (``0 <= rems[s] <`` the row total).

    Every component is truncated to int64 fixed point at its row's top
    shift ``M``, losing less than one unit of ``2**M`` each, so the
    cumsum ``T`` brackets the exact cumulatives:
    ``T_j * 2**M <= C_j < (T_j + 2(j+1)) * 2**M``.  With
    ``r = rem >> M``, the first ``j`` with ``T_j > r`` (``j_hi``) has
    ``C_j > rem``, and no ``j`` before the first with
    ``T_j + 2(j+1) > r`` (``j_lo``) does: ``j_lo <= answer <= j_hi``.
    (A component whose scaling is inexact is below ``2**-3`` and
    truncates to 0 either way.)
    """
    x, top = _scaled(sq)
    trunc = np.floor(x).astype(np.int64)
    low = np.cumsum(trunc[:, :, 0] + trunc[:, :, 1], axis=1)
    high = low + 2 * np.arange(1, sq.shape[1] + 1)
    tops = top.tolist()
    r = np.array(
        [rem >> tops[row] for row, rem in zip(rows.tolist(), rems)],
        dtype=np.int64,
    )[:, None]
    j_lo = np.count_nonzero(high[rows] <= r, axis=1)
    j_hi = np.count_nonzero(low[rows] <= r, axis=1)
    return j_lo, j_hi


def _resolve_elements(
    sq: np.ndarray, rows: np.ndarray, rems: list[int]
) -> np.ndarray:
    """In-segment index of every shot, exactly.

    Where :func:`_fixed_point_bounds` agree the index is exact; the rare
    shots whose target lies within the truncation error of a cumulative
    rescan their row in exact Python ints.
    """
    j_lo, j_hi = _fixed_point_bounds(sq, rows, rems)
    for s in np.flatnonzero(j_lo != j_hi).tolist():
        units = _unit_values(sq[rows[s]].ravel())
        acc = 0
        for j in range(sq.shape[1]):
            acc += units[2 * j] + units[2 * j + 1]
            if acc > rems[s]:
                break
        j_hi[s] = j
    return j_hi


def sample_exact(slices, shots: int, seed: int) -> np.ndarray:
    """Draw ``shots`` basis-state indices from rank-ordered slices.

    Shot ``s`` draws ``u = mix64(seed, SAMPLE_STREAM, s) >> 11`` and
    returns the smallest global index ``j`` whose exact cumulative
    squared norm satisfies ``cum(j) << 53 > u * N_total``.  Since
    ``cum(j) << 53`` is a multiple of ``2**53``, that is ``cum(j) > t``
    with ``t = (u * N_total) >> 53``: one integer target per shot.

    All shots share one exact prefix: the totals of 64-amplitude
    segments, built in vectorised passes and accumulated across the
    whole state.  Bisection over those cumulatives picks each shot's
    segment -- never a zero one, whose cumulative repeats the previous
    -- and :func:`_resolve_elements` finds the element inside it.  Every
    decision is on exact integers, so the result is independent of how
    the state is sharded and equals :func:`_sample_exact_reference` bit
    for bit.  ``u < 2**53`` keeps every target below the final
    cumulative.
    """
    if shots < 0:
        raise SimulationError(f"shots must be >= 0, got {shots}")
    arrays = [np.ravel(np.asarray(a)) for a in slices]
    if not arrays:
        raise SimulationError("sample_exact needs at least one slice")
    totals: list[int] = []
    for a in arrays:
        for lo in range(0, a.size, _PASS_AMPS):
            totals += _segment_totals(_sq_segments(a[lo : lo + _PASS_AMPS]))
    seg_cum = list(accumulate(totals))
    ntotal = seg_cum[-1] if seg_cum else 0
    if ntotal <= 0:
        raise SimulationError("cannot sample a zero-norm state")

    seg_base = np.cumsum([0] + [-(-a.size // _SEGMENT) for a in arrays])
    elem_base = np.cumsum([0] + [a.size for a in arrays])
    draws = mix64_batch(
        seed, SAMPLE_STREAM, counters=np.arange(shots, dtype=np.uint64)
    ) >> np.uint64(11)
    out = np.empty(shots, dtype=np.uint64)
    for lo in range(0, shots, _SHOT_BATCH):
        picks, rems = [], []
        for u in draws[lo : lo + _SHOT_BATCH].tolist():
            t = (u * ntotal) >> 53
            p = bisect_right(seg_cum, t)
            picks.append(p)
            rems.append(t - seg_cum[p - 1] if p else t)
        touched, rows = np.unique(picks, return_inverse=True)
        owner = np.searchsorted(seg_base, touched, side="right") - 1
        segs = np.empty((len(touched), _SEGMENT), dtype=np.complex128)
        for r in np.unique(owner).tolist():
            a = arrays[r]
            if a.size % _SEGMENT:
                a = np.concatenate([a, np.zeros(-a.size % _SEGMENT, a.dtype)])
            mine = owner == r
            segs[mine] = a.reshape(-1, _SEGMENT)[touched[mine] - seg_base[r]]
        j = _resolve_elements(_sq_segments(segs.ravel()), rows, rems)
        starts = elem_base[owner] + (touched - seg_base[owner]) * _SEGMENT
        out[lo : lo + len(rems)] = starts[rows] + j
    return out


#: Elements per search block in :func:`_sample_exact_reference`.
_SAMPLE_BLOCK = 4096


def _sample_exact_reference(slices, shots: int, seed: int) -> np.ndarray:
    """The per-shot descent :func:`sample_exact` must reproduce bitwise.

    Walks every shot through slice totals, then 4096-element block
    partials, then per-element exact integers, stopping at the first
    index whose ``cum(j) << 53`` exceeds ``u * N_total``.  Kept as the
    reference twin for the property suite and the sampling benchmark.
    """
    if shots < 0:
        raise SimulationError(f"shots must be >= 0, got {shots}")
    arrays = [np.ravel(np.asarray(a)) for a in slices]
    if not arrays:
        raise SimulationError("sample_exact needs at least one slice")
    slice_len = len(arrays[0])
    slice_totals = [_units_sum(_sq_components(a)) for a in arrays]
    ntotal = sum(slice_totals)
    if ntotal <= 0:
        raise SimulationError("cannot sample a zero-norm state")

    block_cache: dict[int, list[int]] = {}
    elem_cache: dict[tuple[int, int], list[int]] = {}

    def block_totals(r: int) -> list[int]:
        got = block_cache.get(r)
        if got is None:
            a = arrays[r]
            got = [
                _units_sum(_sq_components(a[off : off + _SAMPLE_BLOCK]))
                for off in range(0, len(a), _SAMPLE_BLOCK)
            ]
            block_cache[r] = got
        return got

    def elem_units(r: int, k: int) -> list[int]:
        got = elem_cache.get((r, k))
        if got is None:
            a = arrays[r][k * _SAMPLE_BLOCK : (k + 1) * _SAMPLE_BLOCK]
            re = np.asarray(a.real, dtype=np.float64)
            im = np.asarray(a.imag, dtype=np.float64)
            res = _unit_values(re * re)
            ims = _unit_values(im * im)
            got = [x + y for x, y in zip(res, ims)]
            elem_cache[(r, k)] = got
        return got

    out = np.empty(shots, dtype=np.uint64)
    for s in range(shots):
        u = mix64(seed, SAMPLE_STREAM, s) >> 11
        target = u * ntotal
        acc = 0
        r = 0
        for r, tr in enumerate(slice_totals):
            if ((acc + tr) << 53) <= target:
                acc += tr
            else:
                break
        k = 0
        for k, bk in enumerate(block_totals(r)):
            if ((acc + bk) << 53) <= target:
                acc += bk
            else:
                break
        base = r * slice_len + k * _SAMPLE_BLOCK
        for i, ev in enumerate(elem_units(r, k)):
            acc += ev
            if (acc << 53) > target:
                out[s] = base + i
                break
    return out
