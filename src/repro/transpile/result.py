"""The transpilation result record."""

from __future__ import annotations

from dataclasses import dataclass

from repro.transpile.basepass import PassResult

__all__ = ["TranspileResult"]


@dataclass(kw_only=True)
class TranspileResult(PassResult):
    """What one :func:`repro.transpile.transpile` call produced.

    ``stats`` holds the per-pass counters, namespaced ``<pass>.<stat>``,
    plus the pipeline-level ``exchange_rounds_before/after`` accounting.
    """

    #: The strategy that ran (``naive``/``blocked``/``grouped``).
    strategy: str
