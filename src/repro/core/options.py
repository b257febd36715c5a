"""Run options: the user-facing knobs of a simulation campaign.

These map one-to-one onto the paper's experimental dimensions: node
type, CPU frequency, blocking vs non-blocking communication, cache
blocking, and the future-work halved-SWAP exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.frequency import CpuFrequency
from repro.mpi.chunking import MAX_MESSAGE_BYTES
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """How to run a circuit (sensible ARCHER2 defaults throughout)."""

    node_type: str = "standard"
    frequency: CpuFrequency = CpuFrequency.MEDIUM
    comm_mode: CommMode = CommMode.BLOCKING
    #: Transpile with the generic cache-blocking pass before running:
    #: shorthand for ``transpile="blocked"``.
    cache_block: bool = False
    #: Pass-manager transpilation strategy (``repro.transpile``):
    #: ``"naive"``/``"blocked"``/``"grouped"``.  ``None`` defers to
    #: ``REPRO_TRANSPILE`` (default: no pipeline).  When a strategy is
    #: selected it supersedes ``cache_block``.
    transpile: str | None = None
    #: Use the halved-communication distributed SWAP (paper future work).
    halved_swaps: bool = False
    #: Explicit node count; None sizes the job minimally.
    num_nodes: int | None = None
    max_message: int = MAX_MESSAGE_BYTES
    calibration: Calibration = field(default=DEFAULT_CALIBRATION)
    #: Numeric-execution engine: ``None`` defers to ``REPRO_EXECUTOR``
    #: (default serial); ``"pool"`` runs rank sweeps across the
    #: shared-memory worker pool.  Model-only runs ignore this.
    executor: str | None = None
    #: Gate-fusion mode for compiled apply plans:
    #: ``"off"``/``"diag"``/``"full[:k]"``.  ``None`` defers to
    #: ``REPRO_FUSION`` (default diag).  Model-only runs ignore this.
    fusion: str | None = None
    #: Pool worker hosts (``"host:port,..."`` or a tuple of entries):
    #: selects the TCP rank transport so the pool spans machines.
    #: ``None`` defers to ``REPRO_POOL_HOSTS`` (default: shared memory
    #: on this host).  Only meaningful with ``executor="pool"``.
    hosts: str | tuple[str, ...] | None = None

    def fast(self) -> "RunOptions":
        """The paper's 'Fast' configuration: cache-blocked, non-blocking."""
        return RunOptions(
            node_type=self.node_type,
            frequency=self.frequency,
            comm_mode=CommMode.NONBLOCKING,
            cache_block=True,
            transpile=self.transpile,
            halved_swaps=self.halved_swaps,
            num_nodes=self.num_nodes,
            max_message=self.max_message,
            calibration=self.calibration,
            executor=self.executor,
            fusion=self.fusion,
            hosts=self.hosts,
        )
