"""Former home of the transpiler passes; they live in :mod:`repro.transpile`.

Kept as a re-export so existing imports keep working:
``TranspilerPass`` is :class:`~repro.transpile.TransformationPass` and
``PassManager`` is :class:`~repro.transpile.TranspilePassManager`.
"""

from repro.transpile import (
    CacheBlockingPass,
    DecomposeControlledSwapsPass,
    DiagonalFusionPass,
    PassResult,
    PeepholePass,
    assert_equivalent,
    equivalent,
    identity_permutation,
    permute_statevector,
)
from repro.transpile import TransformationPass as TranspilerPass
from repro.transpile import TranspilePassManager as PassManager

__all__ = [
    "TranspilerPass",
    "PassManager",
    "PassResult",
    "identity_permutation",
    "CacheBlockingPass",
    "DiagonalFusionPass",
    "PeepholePass",
    "DecomposeControlledSwapsPass",
    "assert_equivalent",
    "equivalent",
    "permute_statevector",
]
