"""The benchmark's four workloads: closed loop, one job at a time.

Every workload follows the same life cycle, driven by ``run.py``:

``reference()``
    Correctness references, computed once, outside timing and outside
    ``setup_s`` (analytic DFT column, dense shot streams, analytic
    makespans).
``setup(check)``
    Program set-up before the first timed job: pool spawn, TCP mesh
    connect, and one checked warm-up job.  The warm-up job is the same
    job on a small twin of the inputs (same executors, same code paths),
    which keeps set-up cheap enough to repeat for a stable median.
``job(leg, check)``
    One job.  Each timed region runs inside ``with leg(name):``; the
    job's time is the sum of its legs, so checks stay out of it.
    ``check(ok, message)`` records a failed output check.
``teardown()``
    Shut every pool down (its workers are joined).

All inputs come from the seed given to the constructor.
"""

from __future__ import annotations

import hashlib
import math
import random
from contextlib import nullcontext

import numpy as np

#: Two TCP workers on loopback, matching the two pool workers.
TCP_HOSTS = "127.0.0.1:0,127.0.0.1:0"


def _bit_reverse(value: int, bits: int) -> int:
    return int(format(value, f"0{bits}b")[::-1], 2) if bits else 0


class _Workload:
    """The life cycle every workload shares."""

    #: Pools the workload runs on: "shm" and/or "tcp".
    pools_needed: tuple[str, ...] = ()
    #: Constructor sizes of the warm-up twin.
    warm_up_size: dict = {}
    #: Pools started by the last ``setup`` (their workers count in RSS).
    pools: list = []
    state_bytes = 0
    working_set_bytes = 0
    #: Whether job legs are reported at the reference host speed (see
    #: ``run.py``): true for interpreter-bound jobs, which follow the
    #: pure-Python speed probe.
    speed_corrected = True

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        """Build inputs and correctness references."""

    def reference(self) -> None:
        self.prepare()
        self.twin = type(self)(self.seed, **self.warm_up_size)
        self.twin.prepare()

    def setup(self, check) -> dict:
        from repro.parallel import get_pool
        from repro.parallel.tcp import get_tcp_pool

        self.pools = []
        if "shm" in self.pools_needed:
            self.pools.append(get_pool())
        if "tcp" in self.pools_needed:
            self.pools.append(get_tcp_pool(TCP_HOSTS))
        return self.twin.job(lambda _name: nullcontext(), check)

    def worker_pids(self) -> list[int]:
        return [pid for pool in self.pools for pid in pool.worker_pids() if pid]

    def teardown(self) -> None:
        from repro.parallel import shutdown_pool
        from repro.parallel.tcp import shutdown_tcp_pools

        shutdown_pool()
        shutdown_tcp_pools()
        self.pools = []


class QftNumeric(_Workload):
    """QuEST's built-in QFT-22 on 8 ranks from a seeded basis state |x>.

    Four executors per job: dense (the single-threaded baseline), serial,
    the shared-memory pool and the TCP pool.
    """

    name = "qft-numeric"
    num_ranks = 8
    # Numpy kernels sweeping a 64 MiB state: the legs' times follow the
    # host's memory traffic, not the pure-Python probe, so they are
    # reported as measured.
    speed_corrected = False
    pools_needed = ("shm", "tcp")
    warm_up_size = {"num_qubits": 12}

    def __init__(self, seed: int, num_qubits: int = 22):
        super().__init__(seed)
        self.num_qubits = num_qubits
        # Every rank bit of x is set, so all ranks hold data from the
        # first gate on and the serial executor's zero-slice skipping
        # cannot make a job's cost depend on the seed; the seed picks
        # which half of the local bits are set (same X-gate count).
        local = num_qubits - int(math.log2(self.num_ranks))
        low = random.Random(seed).sample(range(local), local // 2)
        self.x = sum(1 << q for q in low) | ((self.num_ranks - 1) << local)
        self.local_bits = local
        self.rev_local: np.ndarray | None = None

    @property
    def state_bytes(self) -> int:
        return 16 << self.num_qubits

    @property
    def working_set_bytes(self) -> int:
        # Slices plus the same-size pair buffers the exchange receives into.
        return 2 * self.state_bytes

    def _circuit(self):
        from repro.circuits.circuit import Circuit
        from repro.circuits.qft import builtin_qft_circuit

        n = self.num_qubits
        circuit = Circuit(n, name=f"qft{n}_from_x")
        for q in range(n):
            if (self.x >> q) & 1:
                circuit.x(q)
        circuit.extend(builtin_qft_circuit(n).gates)
        return circuit

    def prepare(self) -> None:
        # The built-in (fig. 1a) QFT is R.QFT.R with R the qubit reversal,
        # so |x> maps to amplitude exp(2 pi i rev(x) rev(j) / N) / sqrt(N)
        # at index j.  The reference is built one rank slice at a time, so
        # no full-size copy of it stays resident during the jobs.
        m = self.local_bits
        local = np.arange(1 << m, dtype=np.int64)
        self.rev_local = np.zeros_like(local)
        for b in range(m):
            self.rev_local |= ((local >> b) & 1) << (self.num_qubits - 1 - b)

    def _dft_slice(self, rank: int) -> np.ndarray:
        """The analytic amplitudes rank ``rank`` holds: its indices carry
        ``rank`` in their high bits."""
        n, size = self.num_qubits, 1 << self.num_qubits
        rev_j = self.rev_local | _bit_reverse(rank, n - self.local_bits)
        rev_x = _bit_reverse(self.x, n)
        return np.exp(2j * np.pi * ((rev_x * rev_j) % size) / size) / math.sqrt(
            size
        )

    def _is_dft_column(self, slices) -> bool:
        return all(
            np.allclose(part, self._dft_slice(rank), atol=1e-10)
            for rank, part in enumerate(slices)
        )

    def job(self, leg, check) -> dict:
        from repro.statevector import DenseStatevector, DistributedStatevector
        from repro.statevector.partition import Partition

        with leg("build"):
            circuit = self._circuit()
        with leg("dense"):
            dense = DenseStatevector(self.num_qubits).apply_circuit(circuit)
        check(
            self._is_dft_column(np.split(dense.amplitudes, self.num_ranks)),
            "dense QFT differs from the analytic DFT column",
        )
        del dense
        partition = Partition(self.num_qubits, self.num_ranks)
        first = None
        exchange_bytes = 0
        for name, kwargs in (
            ("serial", {"executor": "serial"}),
            ("pool_shm", {"executor": "pool"}),
            ("pool_tcp", {"executor": "pool", "hosts": TCP_HOSTS}),
        ):
            with leg(name):
                sim = DistributedStatevector(partition, **kwargs)
                sim.apply_circuit(circuit)
            # Slice by slice, so the checks hold no full-size copy.
            digest = hashlib.sha256()
            for rank in range(self.num_ranks):
                digest.update(sim.local_array(rank))
            log = [(m.source, m.dest, m.nbytes) for m in sim.comm.message_log]
            if first is None:
                check(
                    self._is_dft_column(
                        sim.local_array(r) for r in range(self.num_ranks)
                    ),
                    "serial QFT differs from the analytic DFT column",
                )
                first = (digest.digest(), log)
                exchange_bytes = sum(m[2] for m in log)
            else:
                check(
                    digest.digest() == first[0],
                    f"{name} amplitudes are not bitwise equal to serial",
                )
                check(log == first[1], f"{name} message log differs from serial")
            del sim
        return {"exchange_bytes": exchange_bytes}


class SampleMix(_Workload):
    """Build a state, then draw 1024 shots: two seeded 18-qubit circuits.

    ``qaoa-sampled-18`` has two mid-circuit collapses and a concentrated
    distribution; ``random-18`` spreads its amplitudes.  Each circuit runs
    on the serial executor and on the shared-memory pool (4 ranks).
    """

    name = "sample-mix"
    num_ranks = 4
    pools_needed = ("shm",)
    warm_up_size = {"num_qubits": 10, "shots": 64}
    #: circuit family -> the distribution shape it stands for.
    circuits = (("qaoa-sampled", "concentrated"), ("random", "spread"))

    def __init__(self, seed: int, num_qubits: int = 18, shots: int = 1024):
        super().__init__(seed)
        self.num_qubits = num_qubits
        self.shots = shots
        rng = random.Random(seed)
        self.circuit_seed = rng.randrange(1 << 31)
        self.shot_seed = rng.randrange(1 << 31)
        self.inputs = {}
        self.references = {}

    @property
    def state_bytes(self) -> int:
        return 16 << self.num_qubits

    @property
    def working_set_bytes(self) -> int:
        return 2 * self.state_bytes

    def prepare(self) -> None:
        from repro.statevector.sampling import sample
        from repro.tune.workloads import build_workload

        for family, shape in self.circuits:
            circuit = build_workload(
                family, self.num_qubits, seed=self.circuit_seed
            ).circuit
            self.inputs[shape] = circuit
            self.references[shape] = sample(circuit, self.shots, self.shot_seed)

    def job(self, leg, check) -> dict:
        from repro.statevector import DistributedStatevector
        from repro.statevector.partition import Partition

        partition = Partition(self.num_qubits, self.num_ranks)
        shots = {}
        for executor, leg_name in (("serial", "serial"), ("pool", "pool_shm")):
            for shape, circuit in self.inputs.items():
                with leg(f"{leg_name}.prep.{shape}"):
                    sim = DistributedStatevector(
                        partition, executor=executor, measure_seed=self.shot_seed
                    )
                    sim.apply_circuit(circuit)
                draw = f"{leg_name}.draw.{shape}"
                with leg(draw):
                    samples = sim.sample_bitstrings(self.shots, self.shot_seed)
                shots[draw] = self.shots
                ref = self.references[shape]
                check(
                    np.array_equal(samples, ref.samples),
                    f"{executor} shot stream for {shape} differs from dense",
                )
                check(
                    tuple(sim.measure_outcomes) == ref.measure_outcomes,
                    f"{executor} outcome record for {shape} differs from dense",
                )
                del sim
        return {"shots": shots}


class DesTable2(_Workload):
    """DES replays of Table 2's three variants at 41 qubits on 512 nodes.

    The seed only shuffles the order of the three replays within each
    job: the configurations are the paper's, and makespans must not
    depend on the order they are replayed in.
    """

    name = "des-table2"
    tolerance = 0.10
    warm_up_size = {"num_qubits": 34, "num_nodes": 32}

    def __init__(self, seed: int, num_qubits: int = 41, num_nodes: int = 512):
        super().__init__(seed)
        self.num_qubits = num_qubits
        self.num_nodes = num_nodes
        self.rng = random.Random(seed)
        self.variants = []
        self.analytic: dict[str, float] = {}
        self.makespans: dict[str, float] = {}

    def _config(self, mode):
        from repro.machine.frequency import CpuFrequency
        from repro.machine.node import STANDARD_NODE
        from repro.perfmodel.trace import RunConfiguration
        from repro.statevector.partition import Partition

        return RunConfiguration(
            partition=Partition(self.num_qubits, self.num_nodes),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
            comm_mode=mode,
        )

    def prepare(self) -> None:
        from repro.circuits.qft import (
            builtin_qft_circuit,
            cache_blocked_qft_circuit,
        )
        from repro.mpi.datatypes import CommMode
        from repro.perfmodel.trace import cost_trace, trace_circuit

        local_qubits = self.num_qubits - int(math.log2(self.num_nodes))
        builtin = builtin_qft_circuit(self.num_qubits)
        fast = cache_blocked_qft_circuit(self.num_qubits, local_qubits)
        self.variants = [
            ("builtin-blocking", builtin, self._config(CommMode.BLOCKING)),
            ("builtin-nonblocking", builtin, self._config(CommMode.NONBLOCKING)),
            ("fast-nonblocking", fast, self._config(CommMode.NONBLOCKING)),
        ]
        for name, circuit, config in self.variants:
            self.analytic[name] = cost_trace(
                trace_circuit(circuit, config)
            ).runtime_s

    def job(self, leg, check) -> dict:
        from repro.des.replay import simulate_trace
        from repro.perfmodel.trace import trace_circuit

        order = list(self.variants)
        self.rng.shuffle(order)
        makespans = {}
        for name, circuit, config in order:
            # One leg per variant: each is timed against the host speed
            # measured right around it (see run.py).
            with leg(f"replay.{name}"):
                makespans[name] = simulate_trace(
                    trace_circuit(circuit, config)
                ).makespan_s
        if not self.makespans:
            self.makespans = dict(makespans)
        check(makespans == self.makespans, "DES makespans changed between jobs")
        for name, makespan in makespans.items():
            delta = abs(makespan - self.analytic[name]) / self.analytic[name]
            check(
                delta <= self.tolerance,
                f"{name}: DES is {delta:.1%} from cost_trace",
            )
        check(
            makespans["builtin-nonblocking"] < makespans["builtin-blocking"],
            "non-blocking is not faster than blocking",
        )
        check(
            makespans["fast-nonblocking"] < makespans["builtin-nonblocking"],
            "fast is not faster than built-in",
        )
        return {}


class TuneZoo(_Workload):
    """``tune()`` with DES spot-checks on ``qft-20`` and a seeded ``qaoa-20``.

    Both searches run under a deadline with 2x slack over the paper
    default, over the 8- and 16-node lever space.
    """

    name = "tune-zoo"
    min_qft_saving = 0.25
    warm_up_size = {"num_qubits": 8}

    def __init__(self, seed: int, num_qubits: int = 20):
        super().__init__(seed)
        self.num_qubits = num_qubits
        self.qaoa_seed = random.Random(seed).randrange(1 << 31)
        self.searches = []
        self.frontiers: dict[str, list] = {}

    def prepare(self) -> None:
        from repro.experiments.ext_tune import paper_default_point
        from repro.perfmodel.objectives import objective_vector
        from repro.perfmodel.predictor import predict
        from repro.tune.levers import LeverSpace
        from repro.tune.search import Constraint
        from repro.tune.workloads import build_workload

        default = paper_default_point().to_run_configuration(self.num_qubits)
        for family, seed in (("qft", None), ("qaoa", self.qaoa_seed)):
            kwargs = {} if seed is None else {"seed": seed}
            workload = build_workload(family, self.num_qubits, **kwargs)
            objectives = objective_vector(predict(workload.circuit, default))
            self.searches.append(
                (
                    workload,
                    Constraint(deadline_s=2.0 * objectives.runtime_s),
                    LeverSpace(node_counts=(8, 16)),
                    objectives.energy_j,
                )
            )

    def job(self, leg, check) -> dict:
        from repro.tune.search import tune

        results = []
        for workload, constraint, space, _ in self.searches:
            with leg(f"search.{workload.name}"):
                results.append(tune(workload, constraint, space))
        for (workload, _, _, default_energy), result in zip(self.searches, results):
            frontier = [p.to_dict() for p in result.frontier]
            expected = self.frontiers.setdefault(workload.name, frontier)
            check(frontier == expected, f"{workload.name} frontier changed")
            check(result.best is not None, f"{workload.name} found no point")
            if workload.name.startswith("qft") and result.best is not None:
                saving = 1.0 - result.best.objectives.energy_j / default_energy
                check(
                    saving >= self.min_qft_saving,
                    f"{workload.name} best point saves only {saving:.1%}",
                )
        return {}


WORKLOADS = {w.name: w for w in (QftNumeric, SampleMix, DesTable2, TuneZoo)}
