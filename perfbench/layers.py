"""Per-layer tracing for the benchmark, done entirely from outside ``src/``.

The traced run wraps each layer's public functions where their callers
look them up (every ``repro.*`` module attribute that is the original
function object, plus a few class methods), turns on ``repro.obs`` and
reads the spans, counters and histograms the program already keeps.
Spans stay in memory and are written once, at the end, as one Chrome
trace.

Each timed call becomes an ``obs`` span named after its layer metric
(``statevector.compile_plan``, ``des.simulate_trace``, ...); a layer's
self time is its span's duration minus the part covered by the nearest
enclosed layer spans of the same thread.  Hot calls that would drown the
trace in spans (``plan_gate``, ``Link.commit``, ``Fabric.transfer``,
``measure_outcome``) are counted, not spanned.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
from collections import defaultdict

from repro import obs

#: Kernel entry points: layer metric suffix -> ``gate_kernels`` name.
KERNELS = {
    "matrix": "apply_matrix",
    "diagonal": "apply_diagonal",
    "swap_local": "apply_swap_local",
    "unitary_batched": "apply_unitary_batched",
    "permutation": "apply_permutation",
}

#: Module functions timed as spans: span name -> (module, attribute).
TIMED = {
    **{
        f"statevector.kernel.{kind}": ("repro.statevector.gate_kernels", fn)
        for kind, fn in KERNELS.items()
    },
    "statevector.compile_plan": ("repro.statevector.apply_plan", "compile_plan"),
    "perfmodel.trace_circuit": ("repro.perfmodel.trace", "trace_circuit"),
    "perfmodel.cost_trace": ("repro.perfmodel.trace", "cost_trace"),
    "mpi.exchange": ("repro.mpi.exchange", "exchange_arrays"),
    "exact.partial_norms": ("repro.statevector.exact", "partial_norms"),
    "exact.sample_exact": ("repro.statevector.exact", "sample_exact"),
    "des.simulate_trace": ("repro.des.replay", "simulate_trace"),
    "transpile": ("repro.transpile", "transpile"),
    "tune": ("repro.tune.search", "tune"),
}

#: Module functions only counted: counter name -> (module, attribute).
COUNTED = {
    "statevector.plan_gate.calls": ("repro.statevector.plan", "plan_gate"),
    "exact.measure_outcome.calls": ("repro.statevector.exact", "measure_outcome"),
}

#: Class methods only counted: counter name -> (module, class, method).
COUNTED_METHODS = {
    "des.link_commits": ("repro.des.resources", "Link", "commit"),
    "des.transfers": ("repro.des.resources", "Fabric", "transfer"),
}

#: Class methods timed as spans (pool start-up): span name -> target.
TIMED_METHODS = {
    "parallel.pool.start.shm": ("repro.parallel.pool", "WorkerPool", "__init__"),
    "parallel.pool.start.tcp": ("repro.parallel.tcp", "TcpPool", "__init__"),
}

#: Counts that must repeat exactly from job to job within a run.
EXACT_COUNTS = (
    "des.events",
    "des.link_commits",
    "des.transfers",
    "des.network_bytes",
    "mpi.exchange.bytes",
    "statevector.plan_gate.calls",
    "statevector.fused_steps",
)

#: Every per-layer metric the traced run prints: name -> unit.
PER_LAYER = {
    **{
        f"statevector.kernel.{kind}.{field}": unit
        for kind in KERNELS
        for field, unit in (("s", "s"), ("calls", "count"))
    },
    "statevector.kernel.bytes_computed": "B",
    "statevector.kernel.gbps_computed": "GB/s",
    "statevector.compile_plan.s": "s",
    "statevector.compile_plan.self_s": "s",
    "statevector.compile_plan.calls": "count",
    "statevector.fused_steps": "count",
    "statevector.plan_gate.calls": "count",
    "perfmodel.trace_circuit.s": "s",
    "perfmodel.trace_circuit.self_s": "s",
    "perfmodel.trace_circuit.calls": "count",
    "perfmodel.cost_trace.s": "s",
    "perfmodel.cost_trace.calls": "count",
    "mpi.exchange.s": "s",
    "mpi.exchange.calls": "count",
    "mpi.exchange.bytes": "B",
    "parallel.pool.start_s": "s",
    "parallel.shm.segments_created": "count",
    "parallel.barrier_wait.s": "s",
    "parallel.barrier_wait.count": "count",
    "parallel.barrier_wait.max_s": "s",
    "parallel.worker.step.s": "s",
    "parallel.worker.plan.s": "s",
    "parallel.unattributed_s": "s",
    "parallel.spmd.calls": "count",
    "parallel.transport.exchange.s": "s",
    "parallel.transport.exchange.count": "count",
    "sample.prep_s": "s",
    "sample.draw_s": "s",
    "sample.draw_us_per_shot.concentrated": "us/shot",
    "sample.draw_us_per_shot.spread": "us/shot",
    "exact.partial_norms.s": "s",
    "exact.partial_norms.calls": "count",
    "exact.sample_exact.s": "s",
    "exact.sample_exact.calls": "count",
    "exact.measure_outcome.calls": "count",
    "des.simulate_trace.s": "s",
    "des.simulate_trace.self_s": "s",
    "des.simulate_trace.calls": "count",
    "des.events": "count",
    "des.link_commits": "count",
    "des.transfers": "count",
    "des.exchanges": "count",
    "des.network_bytes": "B",
    "des.events_per_host_s": "events/s",
    "transpile.s": "s",
    "transpile.self_s": "s",
    "transpile.calls": "count",
    "transpile.exchanges_eliminated": "count",
    "tune.self_s": "s",
    "tune.points": "count",
    "tune.predictions": "count",
    "tune.spot_checks": "count",
    "tune.spot_check.s": "s",
    "bench.trace_overhead_frac": "fraction",
}

_SELF_TIMED = (
    "statevector.compile_plan",
    "perfmodel.trace_circuit",
    "des.simulate_trace",
    "transpile",
    "tune",
)


def _repro_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "repro" and m]


class Tracer:
    """Installs the layer wrappers and turns one leg's trace into numbers.

    Spans and metrics are harvested (and ``repro.obs`` reset) at every
    leg boundary, so each leg's counters and histograms -- including
    histogram maxima -- belong to that leg alone.
    """

    def __init__(self) -> None:
        self.records: list = []
        self._counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self._in_kernel = threading.local()

    # -- wrappers ------------------------------------------------------------

    def _patch_everywhere(self, module_name: str, attr: str, wrapper) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)

    def _patch_method(self, module_name: str, cls_name: str, attr: str, wrapper):
        cls = getattr(importlib.import_module(module_name), cls_name)
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _timed(self, name: str, fn):
        counts = self._counts
        is_kernel = name.startswith("statevector.kernel.")
        in_kernel = self._in_kernel

        def wrapper(*args, **kwargs):
            outer = is_kernel and not getattr(in_kernel, "on", False)
            if outer:
                # Computed bytes: one read and one write of the slice the
                # outermost kernel call is handed (cache misses ignored).
                counts["statevector.kernel.bytes_computed"] += 2 * args[0].nbytes
                in_kernel.on = True
            try:
                with obs.span(name, layer=1):
                    result = fn(*args, **kwargs)
            finally:
                if outer:
                    in_kernel.on = False
            if name == "statevector.compile_plan":
                counts["statevector.fused_steps"] += sum(
                    1 for step in result.steps if len(step.gates) > 1
                )
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self._counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced entry point and turn ``repro.obs`` on."""
        for name, (module, attr) in TIMED.items():
            fn = getattr(importlib.import_module(module), attr)
            self._patch_everywhere(module, attr, self._timed(name, fn))
        for name, (module, attr) in COUNTED.items():
            fn = getattr(importlib.import_module(module), attr)
            self._patch_everywhere(module, attr, self._counted(name, fn))
        for name, (module, cls, attr) in COUNTED_METHODS.items():
            fn = getattr(importlib.import_module(module), cls).__dict__[attr]
            self._patch_method(module, cls, attr, self._counted(name, fn))
        for name, (module, cls, attr) in TIMED_METHODS.items():
            fn = getattr(importlib.import_module(module), cls).__dict__[attr]
            self._patch_method(module, cls, attr, self._timed(name, fn))
        obs.reset()
        obs.enable()

    def uninstall(self) -> None:
        """Restore every patched name and turn ``repro.obs`` off."""
        obs.disable()
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- harvesting ------------------------------------------------------------

    def harvest(self) -> dict:
        """Spans, obs metrics and wrapper counts since the last harvest."""
        spans = obs.spans()
        metrics = {}
        for m in obs.metrics():
            if m.kind == "histogram":
                value = (m.count, m.sum, m.max or 0.0)
                old = metrics.get(m.name, (0, 0.0, 0.0))
                metrics[m.name] = (
                    old[0] + value[0], old[1] + value[1], max(old[2], value[2])
                )
            else:
                metrics[m.name] = metrics.get(m.name, 0) + m.value
        counts = dict(self._counts)
        self._counts.clear()
        obs.reset()
        self.records.extend(spans)
        return {"spans": spans, "metrics": metrics, "counts": counts}


def _self_times(spans) -> dict[int, float]:
    """Self seconds of every layer span, keyed by ``id(record)``.

    Nesting is recovered per (pid, tid) from the intervals: a span's
    parent is the innermost enclosing layer span still open.
    """
    by_thread = defaultdict(list)
    for r in spans:
        if r.attrs.get("layer"):
            by_thread[(r.pid, r.tid)].append(r)
    child_ns: dict[int, int] = defaultdict(int)
    for records in by_thread.values():
        records.sort(key=lambda r: (r.ts_ns, -r.dur_ns))
        stack = []
        for r in records:
            while stack and stack[-1].ts_ns + stack[-1].dur_ns <= r.ts_ns:
                stack.pop()
            if stack:
                child_ns[id(stack[-1])] += r.dur_ns
            stack.append(r)
    return {
        id(r): (r.dur_ns - child_ns[id(r)]) / 1e9
        for records in by_thread.values()
        for r in records
    }


def _uncovered_s(outer, inner) -> float:
    """Seconds of ``outer``'s interval that no ``inner`` span covers."""
    lo, hi = outer.ts_ns, outer.ts_ns + outer.dur_ns
    covered = 0
    cursor = lo
    for s, e in sorted((r.ts_ns, r.ts_ns + r.dur_ns) for r in inner):
        s, e = max(s, cursor), min(e, hi)
        if e > s:
            covered += e - s
            cursor = e
    return (hi - lo - covered) / 1e9


def job_layer_metrics(legs: dict[str, dict], job: dict) -> dict:
    """One job's per-layer metrics from its harvested legs.

    ``legs`` maps leg name to a :meth:`Tracer.harvest` result plus the
    leg's ``wall_s``; ``job`` is what the workload's job returned (shot
    counts per draw leg, exchange bytes from the message log).  Pool
    metrics are taken from the shared-memory legs (``pool_shm*``) and
    transport metrics from the TCP legs, so each number belongs to the
    executor the benchmark maps it to.
    """
    out = defaultdict(float)
    all_spans = [r for leg in legs.values() for r in leg["spans"]]
    self_s = _self_times(all_spans)
    kernel_s = 0.0  # outermost kernel time: the sum of kernel self times
    for r in all_spans:
        if not r.attrs.get("layer"):
            continue
        name = r.name
        if name.startswith("parallel.pool.start."):
            out["parallel.pool.start_s"] += r.dur_ns / 1e9
            continue
        out[f"{name}.s"] += r.dur_ns / 1e9
        out[f"{name}.calls"] += 1
        if name in _SELF_TIMED:
            out[f"{name}.self_s"] += self_s[id(r)]
        if name.startswith("statevector.kernel."):
            kernel_s += self_s[id(r)]

    def counter(name, prefix=""):
        return sum(
            leg["metrics"].get(name, 0)
            for leg_name, leg in legs.items()
            if leg_name.startswith(prefix)
        )

    def hist(name, prefix):
        count, total, peak = 0, 0.0, 0.0
        for leg_name, leg in legs.items():
            if leg_name.startswith(prefix) and name in leg["metrics"]:
                c, s, m = leg["metrics"][name]
                count, total, peak = count + c, total + s, max(peak, m)
        return count, total, peak

    for leg in legs.values():
        for name, value in leg["counts"].items():
            out[name] += value
    bytes_computed = out["statevector.kernel.bytes_computed"]
    out["statevector.kernel.gbps_computed"] = (
        bytes_computed / kernel_s / 1e9 if kernel_s else 0.0
    )

    out["parallel.shm.segments_created"] = counter(
        "repro_shm_segments_created_total"
    )
    count, total, peak = hist("repro_pool_barrier_wait_seconds", "pool_shm")
    out["parallel.barrier_wait.s"] = total
    out["parallel.barrier_wait.count"] = count
    out["parallel.barrier_wait.max_s"] = peak
    out["parallel.spmd.calls"] = counter("repro_pool_spmd_total", "pool_shm")
    count, total, _ = hist("repro_transport_exchange_seconds", "pool_tcp")
    out["parallel.transport.exchange.s"] = total
    out["parallel.transport.exchange.count"] = count
    for leg_name, leg in legs.items():
        if not leg_name.startswith("pool_shm"):
            continue
        workers = [r for r in leg["spans"] if r.name == "worker.plan"]
        out["parallel.worker.plan.s"] += sum(r.dur_ns for r in workers) / 1e9
        out["parallel.worker.step.s"] += sum(
            r.dur_ns for r in leg["spans"] if r.name == "worker.step"
        ) / 1e9
        for r in leg["spans"]:
            if r.name == "apply_circuit" and r.attrs.get("executor") == "pool":
                out["parallel.unattributed_s"] += _uncovered_s(r, workers)

    for leg_name, leg in legs.items():
        if not leg_name.startswith("serial."):
            continue
        seconds = leg["wall_s"]
        if ".prep." in leg_name:
            out["sample.prep_s"] += seconds
        elif ".draw." in leg_name:
            out["sample.draw_s"] += seconds
            shape = leg_name.rsplit(".", 1)[1]
            out[f"sample.draw_us_per_shot.{shape}"] = (
                seconds / job["shots"][leg_name] * 1e6
            )

    out["mpi.exchange.bytes"] = job.get("exchange_bytes", 0)
    out["des.events"] = counter("repro_des_events_total")
    out["des.exchanges"] = counter("repro_des_exchanges_total")
    out["des.network_bytes"] = counter("repro_des_network_bytes_total")
    if out["des.simulate_trace.s"]:
        out["des.events_per_host_s"] = out["des.events"] / out["des.simulate_trace.s"]
    out["transpile.exchanges_eliminated"] = counter(
        "repro_transpile_exchanges_eliminated_total"
    )
    out["tune.points"] = counter("repro_tune_points_total")
    out["tune.predictions"] = counter("repro_predictions_total")
    out["tune.spot_checks"] = counter("repro_tune_spot_checks_total")
    out["tune.spot_check.s"] = sum(
        r.dur_ns for r in all_spans if r.name == "tune.spotcheck"
    ) / 1e9
    return {
        name: int(out[name]) if PER_LAYER[name] in ("count", "B") else out[name]
        for name in PER_LAYER
    }


def median_metrics(per_job: list[dict]) -> dict:
    """Median of every per-layer metric over the traced jobs."""
    return {
        name: statistics.median(job[name] for job in per_job) for name in per_job[0]
    }
