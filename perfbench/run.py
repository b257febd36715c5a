"""The repository benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload qft-numeric --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and builds nothing: the program is
imported from ``src/``.  With ``--trace 0`` it times jobs with tracing
off and prints the end-to-end metrics; with ``--trace 1`` it times half
the run untraced and half traced, and prints the per-layer metrics.
Human-readable lines (host record, every named metric with its unit and
sample count) come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every job passed its checks, 1 when one did not,
2 when the checkout holds no program to run.  See ``NOTES.md`` for why
each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run artefacts (Chrome traces); git-ignored.
OUT = ROOT / ".perfbench"
#: Set-ups per run: at least ``SETUP_MIN``, then more while their total
#: stays under ``SETUP_BUDGET_S``, up to ``SETUP_MAX``; ``setup_s`` is their
#: median, so the short, noisy set-ups get the most samples.  Each one
#: spawns fresh pools and starts from an empty plan cache; imports stay warm.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 3.0
#: Two pool workers: the benchmark is sized for a 2-core host.
POOL_WORKERS = "2"
#: Host-speed probe: a fixed pure-Python loop timed just before and just
#: after every timed region.  On a shared host the same loop's time drifts
#: by tens of percent over seconds and minutes, CPU time with it; scaling
#: each region by ``PROBE_REF_S`` / (mean of its two probes) reports it at
#: one fixed host speed, so runs made at different times compare.  The
#: probe touches no program code, so a program change cannot move it.
#: Set-ups are always scaled; job legs only on workloads whose jobs are
#: interpreter-bound (``speed_corrected``), since memory-bound numpy legs
#: do not follow the probe.
PROBE_LOOPS = 400_000
#: The probe's time at the reference speed (about its median on a 2-core
#: host with a 105 MiB L3); only ratios between runs matter.
PROBE_REF_S = 0.025
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, with default knobs.

    Every ``REPRO_*`` variable is dropped so the program runs its
    defaults (no prediction cache, default fusion, kernels and
    executor); the pool is pinned to two workers.  Spawned workers
    inherit ``sys.path`` and the environment.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_POOL_WORKERS"] = POOL_WORKERS
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {SRC}")


def _probe_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - t0


@contextmanager
def _timed(record: dict, corrected: bool = True):
    """Time the block into ``record``: ``wall_s`` as measured, ``probe_s``
    the mean of the probes around it, and ``s`` the reported time: the
    wall time at the reference host speed, or as measured when not
    ``corrected``."""
    before = _probe_s()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - t0
        probe = (before + _probe_s()) / 2
        scaled = wall * PROBE_REF_S / probe if corrected else wall
        record.update(wall_s=wall, probe_s=probe, s=scaled)


def _shm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}


def _stop_resource_tracker() -> None:
    """Stop (and wait for) the tracker process shared memory started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _hwm_mib(pid: int | str) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def _reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident set.

    References and set-up are then left out of ``peak_rss_mb``.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError as exc:
        print(f"note: peak RSS not reset ({exc})", file=sys.stderr)


def _l3_bytes() -> int | None:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def _host_record(workload) -> dict:
    import numpy as np

    l3 = _l3_bytes()
    return {
        "cpu_count": os.cpu_count(),
        "l3_bytes": l3,
        "state_bytes": workload.state_bytes,
        "working_set_bytes": workload.working_set_bytes,
        "working_set_over_l3": (
            workload.working_set_bytes / l3 if l3 else None
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pool_workers": int(POOL_WORKERS),
    }


class Checks:
    """Failed-check bookkeeping: per job, or per run outside a job."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._job_failed = None

    def __call__(self, ok, message: str) -> None:
        if ok:
            return
        print(f"check failed: {message}", file=sys.stderr)
        if self._job_failed is None:
            self.failed += 1
        else:
            self._job_failed = True

    def run_job(self, fn, *args):
        """Run one job; a raised exception fails it like a failed check."""
        self.attempted += 1
        self._job_failed = False
        result = None
        try:
            result = fn(*args, self)
        except Exception:  # a failed job is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            self._job_failed = True
        job_failed, self._job_failed = self._job_failed, None
        if job_failed:
            self.failed += 1
            return None
        return result


def _legs(tracer=None, corrected: bool = True):
    """``(legs, leg)``: ``with leg(name):`` times one region into ``legs``
    (see ``_timed``).

    With a tracer, every boundary harvests ``repro.obs`` so each leg
    carries exactly the spans and metrics it produced.
    """
    legs: dict[str, dict] = {}

    @contextmanager
    def leg(name: str):
        if tracer is not None:
            tracer.harvest()  # what ran between legs is not the leg's
        timing: dict = {}
        try:
            with _timed(timing, corrected):
                yield
        finally:
            legs[name] = tracer.harvest() if tracer is not None else {}
            legs[name].update(timing)

    return legs, leg


def _timed_jobs(workload, checks: Checks, seconds: float, tracer=None):
    """Closed loop: start jobs while the next should end by ``seconds``
    plus half a job.

    Returns ``(legs, job_result)`` per passed job; at least one job runs.
    """
    done = []
    start = time.perf_counter()
    last = 0.0
    while not done or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        legs, leg = _legs(tracer, workload.speed_corrected)
        result = checks.run_job(workload.job, leg)
        last = time.perf_counter() - t0
        if result is not None:
            done.append((legs, result))
        elif not done and time.perf_counter() - start > seconds:
            break
    return done


def _leg_sum(legs: dict, prefix: str) -> float:
    return sum(v["s"] for k, v in legs.items() if k.startswith(prefix))


def _job_seconds(jobs) -> float:
    """A job's typical time: the sum of each leg's median ``s`` (see
    ``_timed``) over the jobs.

    A job's legs run different executors; each leg's median drops that
    leg's outliers on its own.
    """
    return sum(
        statistics.median(legs[name]["s"] for legs, _ in jobs)
        for name in jobs[0][0]
    )


def _shots_per_s(legs: dict, result: dict) -> float:
    shots = sum(n for k, n in result["shots"].items() if k.startswith("serial."))
    return shots / _leg_sum(legs, "serial.draw")


#: The named end-to-end timings: name -> (unit, workloads, per-job value).
NAMED = {
    "dense_s": ("s", ("qft-numeric",), lambda legs, _: _leg_sum(legs, "dense")),
    "serial_s": (
        "s",
        ("qft-numeric", "sample-mix"),
        lambda legs, _: _leg_sum(legs, "serial"),
    ),
    "pool_shm_s": (
        "s",
        ("qft-numeric", "sample-mix"),
        lambda legs, _: _leg_sum(legs, "pool_shm"),
    ),
    "pool_tcp_s": ("s", ("qft-numeric",), lambda legs, _: _leg_sum(legs, "pool_tcp")),
    "shots_per_s": ("shots/s", ("sample-mix",), _shots_per_s),
    "replay_s": ("s", ("des-table2",), lambda legs, _: _leg_sum(legs, "replay")),
    "search_s": ("s", ("tune-zoo",), lambda legs, _: _leg_sum(legs, "search")),
}


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"n={n}: no percentile above p50 has 10 samples beyond it"
    q = math.floor(100 * (1 - 10 / n))
    return f"n={n}, p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"


def _say(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>16.6g} {unit:<9} {note}")


def _run_untraced(workload, checks: Checks, seconds: float) -> dict:
    from repro.statevector.apply_plan import clear_plan_cache

    setups: list[dict] = []
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX
        and sum(t["wall_s"] for t in setups) < SETUP_BUDGET_S
    ):
        if setups:
            workload.teardown()
            clear_plan_cache()
        setups.append({})
        with _timed(setups[-1]):
            checks.run_job(workload.setup)
    _reset_peak_rss()
    jobs = _timed_jobs(workload, checks, seconds)
    rss = _hwm_mib("self") + sum(_hwm_mib(p) for p in workload.worker_pids())
    workload.teardown()
    if not jobs:
        return {}
    job_s = _job_seconds(jobs)
    setup_s = statistics.median(t["s"] for t in setups)
    whole = [sum(v["s"] for v in legs.values()) for legs, _ in jobs]
    whole_wall = [sum(v["wall_s"] for v in legs.values()) for legs, _ in jobs]
    speed = [PROBE_REF_S / v["probe_s"] for legs, _ in jobs for v in legs.values()]
    legs_at = "reference host speed" if workload.speed_corrected else "wall time"
    print(f"end-to-end ({len(jobs)} timed jobs, {len(setups)} set-ups; "
          f"job times at {legs_at}, set-ups at reference host speed):")
    print("  whole-job samples: " + " ".join(f"{v:.4f}" for v in whole))
    print("  whole-job wall samples: " + " ".join(f"{v:.4f}" for v in whole_wall))
    print("  set-up samples: " + " ".join(f"{t['s']:.4f}" for t in setups))
    _say("job_s", job_s, "s/job", "sum of per-leg medians; " + _tail(whole))
    _say("job_wall_s", statistics.median(whole_wall), "s/job", "wall, median")
    _say("host_speed", statistics.median(speed), "x ref",
         f"median over {len(speed)} legs, range "
         f"{min(speed):.3f}-{max(speed):.3f}")
    for name, (unit, names, fn) in NAMED.items():
        if workload.name in names:
            values = [fn(legs, result) for legs, result in jobs]
            _say(name, statistics.median(values), unit, _tail(values))
    _say("setup_s", setup_s, "s", f"median, n={len(setups)}")
    _say("peak_rss_mb", rss, "MiB", "timed jobs only")
    return {
        "job_s": (job_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def _check_exact_counts(per_job: list[dict], check) -> None:
    """Exact counts must agree in every traced job of the run."""
    from layers import EXACT_COUNTS

    counts = {name: per_job[0][name] for name in EXACT_COUNTS}
    for job in per_job[1:]:
        check(
            all(job[name] == counts[name] for name in EXACT_COUNTS),
            "exact counts differ between traced jobs",
        )


def _run_traced(workload, checks: Checks, seconds: float, seed: int) -> dict:
    from layers import PER_LAYER, Tracer, job_layer_metrics, median_metrics

    from repro import obs

    checks.run_job(workload.setup)
    untraced = _timed_jobs(workload, checks, seconds / 2)
    workload.teardown()

    tracer = Tracer()
    tracer.install()
    try:
        legs, leg = _legs(tracer)
        with leg("setup"):
            checks.run_job(workload.setup)
        setup_metrics = job_layer_metrics(legs, {})
        traced = _timed_jobs(workload, checks, seconds / 2, tracer)
    finally:
        tracer.uninstall()
        workload.teardown()
    if not untraced or not traced:
        return {}

    per_job = [job_layer_metrics(legs, result) for legs, result in traced]
    for job in per_job:
        job["parallel.pool.start_s"] = setup_metrics["parallel.pool.start_s"]
    metrics = median_metrics(per_job)
    job_s = _job_seconds(untraced)
    metrics["bench.trace_overhead_frac"] = (_job_seconds(traced) - job_s) / job_s

    doc = obs.chrome_trace(tracer.records)
    try:
        obs.validate_chrome_trace(doc)
    except Exception as exc:  # an invalid trace fails the run's check
        checks(False, f"Chrome trace does not validate: {exc}")
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_path.write_text(json.dumps(doc))
    _check_exact_counts(per_job, checks)
    print(
        f"per-layer (median per job over {len(traced)} traced jobs; "
        f"{len(untraced)} untraced; trace in {trace_path.name}):"
    )
    for name, unit in PER_LAYER.items():
        _say(name, metrics[name], unit)
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    _prepare_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    segments_before = _shm_segments()
    workload = WORKLOADS[args.workload](args.seed)
    workload.reference()
    print(f"host: {json.dumps(_host_record(workload), sort_keys=True)}")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    checks = Checks()
    try:
        if args.trace:
            metrics = _run_traced(workload, checks, args.seconds, args.seed)
        else:
            metrics = _run_untraced(workload, checks, args.seconds)
    finally:
        workload.teardown()
    leaked = _shm_segments() - segments_before
    if leaked:
        print(f"check failed: leaked shm segments {sorted(leaked)}", file=sys.stderr)
        checks.failed += len(leaked)
    # After the leak check: the tracker unlinks what it still holds.
    _stop_resource_tracker()
    error_rate = checks.failed / max(1, checks.attempted)
    print(f"  {'error_rate':<40} {error_rate:>16.6g} {'fraction':<9} "
          f"{checks.failed} failed of {checks.attempted} jobs attempted")
    correct = checks.failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
