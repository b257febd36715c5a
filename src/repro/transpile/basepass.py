"""Pass framework: analysis vs transformation passes and their manager.

This is the transpiler's one skeleton (the style of Qiskit's pass
manager, specialised for distributed statevector simulation): passes run
in order against an optional
:class:`~repro.statevector.partition.Partition`, reading and writing a
shared :class:`~repro.transpile.property_set.PropertySet`.

* An :class:`AnalysisPass` inspects the circuit and records results in
  the property set; the circuit flows through unchanged.
* A :class:`TransformationPass` returns a :class:`PassResult` -- a
  rewritten circuit plus the qubit relabelling it left behind; the
  manager composes relabellings across passes.  Its :meth:`run
  <TransformationPass.run>` applies one pass on its own.

Every pass the manager runs sits inside a ``transpile.pass``
observability span, so a trace of a transpilation shows exactly where
the time (and the gate count) went.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro import obs
from repro.circuits.circuit import Circuit
from repro.errors import TranspilerError
from repro.statevector.partition import Partition
from repro.transpile.property_set import PropertySet

__all__ = [
    "PassResult",
    "identity_permutation",
    "compose_permutations",
    "AnalysisPass",
    "TransformationPass",
    "TranspilePassManager",
]


def identity_permutation(n: int) -> dict[int, int]:
    """The do-nothing logical-to-physical map."""
    return {q: q for q in range(n)}


def compose_permutations(
    first: dict[int, int], second: dict[int, int]
) -> dict[int, int]:
    """Apply ``first`` then ``second``: result[q] = second[first[q]]."""
    return {q: second[p] for q, p in first.items()}


@dataclass
class PassResult:
    """Output of one pass (or a chain)."""

    circuit: Circuit
    #: Logical qubit -> physical wire at the *end* of the circuit.  The
    #: executed state equals the untranspiled state with its index bits
    #: relabelled by this map (``permute_statevector`` applies it).
    output_permutation: dict[int, int]
    #: Counters ("swaps_inserted", "gates_fused", ...); a manager run
    #: namespaces them ``<pass>.<stat>``.
    stats: dict[str, int] = field(default_factory=dict)
    #: Analysis results the passes shared.
    properties: PropertySet = field(default_factory=PropertySet)

    def is_identity_layout(self) -> bool:
        """True when the output layout matches the input layout."""
        return all(q == p for q, p in self.output_permutation.items())


class _BasePass(abc.ABC):
    """Common machinery: naming and declared property requirements."""

    #: Human-readable pass name (defaults to the class name).
    name: str = ""
    #: Property-set keys this pass reads (checked before it runs).
    requires: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "name" not in cls.__dict__:
            cls.name = cls.__name__


class AnalysisPass(_BasePass):
    """Writes properties; never touches the circuit."""

    @abc.abstractmethod
    def analyse(
        self,
        circuit: Circuit,
        partition: Partition | None,
        properties: PropertySet,
    ) -> None:
        """Record analysis results into ``properties``."""


class TransformationPass(_BasePass):
    """Rewrites the circuit (and may relabel qubits)."""

    @abc.abstractmethod
    def transform(
        self,
        circuit: Circuit,
        partition: Partition | None,
        properties: PropertySet,
    ) -> PassResult:
        """Return the rewritten circuit and its output permutation."""

    def run(
        self, circuit: Circuit, partition: Partition | None = None
    ) -> PassResult:
        """Apply this pass alone, with a fresh property set.

        Stats come back un-namespaced (``swaps_inserted``, not
        ``cache_blocking.swaps_inserted``).
        """
        return self.transform(circuit, partition, PropertySet())


class TranspilePassManager:
    """Run a pipeline of passes over one circuit.

    The manager owns the property set, verifies each pass's declared
    requirements, composes output permutations across transformation
    passes, and namespaces every pass's stats under its name.
    """

    def __init__(self, passes: list[AnalysisPass | TransformationPass]):
        if not passes:
            raise TranspilerError("TranspilePassManager needs at least one pass")
        self.passes = list(passes)

    def run(
        self,
        circuit: Circuit,
        partition: Partition | None = None,
        properties: PropertySet | None = None,
    ) -> PassResult:
        """Apply every pass in order; the result carries the property set."""
        props = properties if properties is not None else PropertySet()
        permutation = identity_permutation(circuit.num_qubits)
        stats: dict[str, int] = {}
        current = circuit
        for p in self.passes:
            for key in p.requires:
                props.require(key)
            with obs.span(
                "transpile.pass", pass_name=p.name, gates_in=len(current)
            ):
                if isinstance(p, AnalysisPass):
                    p.analyse(current, partition, props)
                    continue
                result = p.transform(current, partition, props)
                current = result.circuit
                permutation = compose_permutations(
                    permutation, result.output_permutation
                )
                for key, value in result.stats.items():
                    stats[f"{p.name}.{key}"] = value
        return PassResult(
            circuit=current,
            output_permutation=permutation,
            stats=stats,
            properties=props,
        )
