"""Deterministic, coordinate-keyed random streams for fault injection.

The DES engine is bit-reproducible because it contains no randomness;
fault injection must not break that.  Instead of a stateful generator
(whose draws would depend on event *order*), every random decision here
is a pure function of the plan's seed and the coordinates of the thing
being decided -- ``(gate_index, rank_pair, chunk, attempt)`` for a chunk
failure, a failure counter for MTBF draws.  Replaying the same plan
therefore reproduces the same faults no matter how the event loop
interleaves, which is what the resilience property suite asserts.

The mixer is splitmix64 (Steele et al., the JDK's ``SplittableRandom``
finaliser): cheap, well-distributed, and stable across platforms --
unlike ``hash()``, which Python salts per process.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mix64", "mix64_batch", "uniform", "exponential"]

_MASK64 = (1 << 64) - 1
#: splitmix64's golden-gamma increment.
_GAMMA = 0x9E3779B97F4A7C15


def mix64(*parts: int) -> int:
    """Mix integer coordinates into one 64-bit value (order-sensitive)."""
    state = 0
    for part in parts:
        state = (state + _GAMMA + (part & _MASK64)) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


def mix64_batch(*parts: int, counters: np.ndarray) -> np.ndarray:
    """``mix64(*parts, c)`` for every ``c`` in ``counters``, as uint64.

    The prefix is mixed once in Python; the last round runs over the
    whole counter array in numpy's wrapping uint64 arithmetic, which is
    exactly the ``& _MASK64`` of the scalar version.
    """
    base = (mix64(*parts) + _GAMMA) & _MASK64
    z = np.asarray(counters, dtype=np.uint64) + np.uint64(base)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform(*parts: int) -> float:
    """A deterministic draw in ``[0, 1)`` keyed by the coordinates."""
    # Top 53 bits -> the full double-precision mantissa range.
    return (mix64(*parts) >> 11) / float(1 << 53)


def exponential(mean: float, *parts: int) -> float:
    """A deterministic exponential draw with the given mean."""
    u = uniform(*parts)
    # 1 - u is in (0, 1], so the log is finite.
    return -mean * math.log(1.0 - u)
