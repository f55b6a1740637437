"""End-to-end request benchmark of the reproduction, from outside the program.

Run from the repository root::

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

One client in one process sends requests through the public API
(``Workload.run``, or ``run_cached`` as the CLI calls it for
``cached-sweep``) in a closed loop: the next request goes out when the
previous one has returned, with no think time.  The workloads and their
requests are defined in ``streams.py``; the seed fixes a *lap* of
requests, which the client sends lap after lap, each lap in a new seeded
order.  An untimed warm-up lap comes first; the timed phase then runs
whole laps until ``--seconds`` have gone by.

Every timing is *host-calibrated*: it is scaled by ``REF_MS`` over the
time of a fixed reference block measured beside it, so it reads in
milliseconds of a host that runs the block in ``REF_MS``.  The host is a
shared VM whose speed moves by up to 2x for tens of seconds at a time;
the reference block moves with it, and the program's own changes do not
move the block (see :func:`_reference_ms`).  The info line carries the
uncalibrated figures beside the calibrated ones.

Each request's latency is the median of its calibrated runs, one per
lap.  Throughput is the lap's request count over the sum of those
latencies, and p50 and p90 are taken over them.  ``setup_s`` is the
median of fresh processes timed from spawn to their first request, half
before the warm-up and half after the timed phase, each calibrated by a
reference measured just before it.  The client checks every output
between requests, off the clock; a request fails if it
raises, if its verification did not run or did not pass, if its primary
metric is not finite, if a cache hit differs from the fresh result
(provenance excluded), or if one configuration's primary metric differs
between the ``auto`` and ``lowered`` executors.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced phase, then a traced phase with the layer wrappers of
``layers.py`` installed, each for half of ``--seconds``, and prints the
per-layer metrics.  The last line of standard output is the result
object; the line before it carries the seed, the environment
fingerprint, the calibration scale before and after the run, the
request-sequence digest, the composition of the lap, the wall time and
calibration scale of every timed lap, the uncalibrated end-to-end
timings and, for traced runs, the layer shares.

``--fault-rate P`` installs a seeded ``repro.resilience.FaultPlan`` that
fails each functional kernel launch with probability ``P``, to show that
failing requests are counted, not fatal.

The result cache and the tuning database live in a temporary directory
under ``.perfbench_tmp/``, which the run removes; the committed
``.repro_tune/`` and ``.repro_cache/`` trees must read the same before
and after the run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

#: fresh processes timed per run for ``setup_s``, half before the warm-up
#: and half after the timed phase; the median is reported
SETUP_PROBES = 4
#: a probe that takes longer than this is a failure, not a sample
PROBE_TIMEOUT_S = 60
#: the reference block's time in ms on a quick host; calibrated timings
#: read in milliseconds of a host that runs the block in this time
REF_MS = 2.0
#: reference blocks timed per lap, spread evenly over its requests
REF_PER_LAP = 16


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-sweep", "cached-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault-rate", type=float, default=0.0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------- stores
def _store_digest() -> str:
    """Digest of the committed result and tuning stores (names and bytes)."""
    digest = hashlib.sha256()
    for name in (".repro_tune", ".repro_cache"):
        base = ROOT / name
        for path in sorted(base.rglob("*")) if base.is_dir() else ():
            digest.update(str(path.relative_to(ROOT)).encode())
            if path.is_file():
                digest.update(path.read_bytes())
    return digest.hexdigest()


def _fresh_stores(directory: Path) -> None:
    """Point the result cache and tuning DB at *directory*, empty."""
    from repro.tuning import configure_tuning_db
    from repro.workloads.cache import configure_result_cache

    directory.mkdir(parents=True, exist_ok=True)
    configure_result_cache(disk=True, disk_dir=str(directory / "results"))
    configure_tuning_db(disk_dir=str(directory / "tune"))


def _clear_process_caches() -> None:
    from repro.core.compiler import clear_compile_cache
    from repro.tuning import clear_tuning_db
    from repro.workloads import clear_result_cache

    clear_result_cache()
    clear_compile_cache()
    clear_tuning_db()


# ------------------------------------------------------------- calibration
@functools.lru_cache(maxsize=None)
def _reference_input():
    import numpy

    return numpy.random.default_rng(0).permutation(20000).astype(float)


def _reference_ms() -> float:
    """Wall ms of a fixed block of pure-Python and NumPy work.

    The program is interpreted Python driving NumPy, so the block mixes a
    Python loop with NumPy sorts, products and sums (no BLAS call, whose
    thread pool would time the scheduler).  In a 150 s recording on a
    shared 2-vCPU Xeon VM, 36 laps of half the paper grid took 2.9-4.6 s;
    lap time and the median time of a similar block timed before each
    request correlated at 0.95, and dividing by it cut the lap-to-lap
    coefficient of variation from 0.12 to 0.04.  The block runs
    benchmark code only, so a change to the program moves the requests
    and not the block.
    """
    import numpy

    values = _reference_input()
    start = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    for _ in range(10):
        total += float((numpy.sort(values) * values).sum())
    return (time.perf_counter() - start) * 1e3


def _host_scale(blocks: int = 3) -> float:
    """``REF_MS`` over the median of *blocks* reference blocks timed now."""
    return REF_MS / statistics.median(_reference_ms() for _ in range(blocks))


# -------------------------------------------------------------------- setup
def _setup_probe(args) -> int:
    """Child process: import, resolve, build the lap; report timing."""
    start = time.perf_counter()
    import repro.workloads  # noqa: F401  (the import being timed)
    import_s = time.perf_counter() - start

    import streams

    TMP.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="probe-", dir=TMP))
    try:
        _fresh_stores(run_dir)
        streams.lap_items(args.workload, args.seed, 0)
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def _time_setup(args, count: int) -> list:
    """``(seconds, import seconds, scale)`` of *count* fresh processes from
    spawn to their first request, uncalibrated, with the host scale timed
    just before each."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(count):
        scale = _host_scale()
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              cwd=str(ROOT), text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
        if child.returncode != 0 or not line:
            raise RuntimeError(f"setup probe exited with {child.returncode}")
        samples.append((elapsed, json.loads(line)["import_s"], scale))
    return samples


# -------------------------------------------------------------------- phase
class Phase:
    """Outcome of one timed phase: whole laps until the time is up."""

    def __init__(self) -> None:
        #: per ``(request, occurrence in the lap)``, the calibrated ms of
        #: each of its runs
        self.samples = defaultdict(list)
        #: the same, uncalibrated
        self.raw_samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.kinds = Counter()
        self.laps = 0
        #: result-cache and tuning-DB counters summed over the requests
        self.cache = Counter()
        self.compile = {}
        self.digest = hashlib.sha256()
        #: per lap, the wall ms of its requests and its calibration scale
        self.lap_ms = []
        self.lap_scale = []

    def fail(self, item, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{item.kind} {item.request.workload}: {reason}")

    @property
    def wall_ms(self) -> float:
        return math.fsum(self.lap_ms)

    def latencies_ms(self, calibrated: bool = True) -> list:
        """Each request's median run over the laps."""
        samples = self.samples if calibrated else self.raw_samples
        return [statistics.median(times) for times in samples.values()]

    def rate(self, calibrated: bool = True) -> float:
        """Requests per second at each request's median latency."""
        latencies = self.latencies_ms(calibrated)
        return len(latencies) / math.fsum(latencies) * 1e3


def _export(result) -> dict:
    payload = result.as_dict()
    payload.pop("provenance")
    return payload


def _cli_invocation(workload, request, stores: Path, counts: Counter):
    """*request* as one ``repro bench`` or ``repro sweep`` invocation runs it.

    Each invocation is a new process, so nothing but the disk stores under
    *stores* carries over.  An untuned request goes through a fresh
    ``ResultCache`` over the disk store, as ``bench`` makes it: a disk hit
    or a miss that runs and stores.  A tuned request goes through the
    default cache, which passes it by, and a tuning DB re-read from disk,
    as ``bench --tuned`` and ``sweep --param tune=search`` configure it.
    The runner is the retry wrapper of ``--retries 1``.  The store counters
    are added to *counts*.
    """
    from repro.resilience import RetryPolicy, run_resilient
    from repro.tuning import configure_tuning_db, tuning_db_info
    from repro.workloads import run_cached
    from repro.workloads.cache import ResultCache

    def runner(r):
        return run_resilient(workload, r, retry=RetryPolicy(max_attempts=2))

    if request.tune == "off":
        cache = ResultCache(disk_dir=str(stores / "results"))
        result = run_cached(request, cache=cache, workload=workload,
                            runner=runner)
        info = cache.info()
        counts.update(hits=info["hits"], misses=info["misses"],
                      disk_hits=info["disk_hits"])
    else:
        configure_tuning_db(disk_dir=str(stores / "tune"))
        result = run_cached(request, workload=workload, runner=runner)
        info = tuning_db_info()
        counts.update(tune_hits=info["hits"], tune_misses=info["misses"])
    return result


class Client:
    """One closed-loop client for one workload."""

    def __init__(self, workload: str, seed: int, run_dir: Path) -> None:
        import streams

        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.next_lap = 0

    def _call(self, item, stores: Path, counts: Counter):
        from repro.workloads import get_workload

        workload = get_workload(item.request.workload)
        if self.workload == "cached-sweep":
            return _cli_invocation(workload, item.request, stores, counts)
        return workload.run(item.request)

    def run_phase(self, seconds: float, collector=None) -> Phase:
        """Run whole laps for at least *seconds*; check every output."""
        import streams
        from layers import REQUEST_SPAN
        from repro.core.compiler import compile_cache_info

        phase = Phase()
        compiled = compile_cache_info()
        start = time.perf_counter()
        while phase.laps == 0 or time.perf_counter() - start < seconds:
            # every lap starts from empty stores, so each cached-sweep
            # request meets the same hit, miss or search in every lap
            lap = streams.lap_items(self.workload, self.seed, self.next_lap)
            stores = self.run_dir / f"lap-{self.next_lap}"
            self.next_lap += 1
            _fresh_stores(stores)
            fresh = {}
            primaries = {}
            lap_ms = {}
            occurrences = Counter()
            references = []
            every = max(1, len(lap) // REF_PER_LAP)
            for position, item in enumerate(lap):
                key = (item.request, occurrences[item.request])
                occurrences[item.request] += 1
                if position % every == 0:
                    references.append(_reference_ms())
                phase.digest.update(repr(item.request).encode())
                phase.kinds[item.kind] += 1
                phase.attempted += 1
                began = time.perf_counter()
                try:
                    if collector is None:
                        result = self._call(item, stores, phase.cache)
                    else:
                        with collector.span(REQUEST_SPAN):
                            result = self._call(item, stores, phase.cache)
                except Exception as exc:  # a failed request, not a crash
                    phase.fail(item, f"raised {type(exc).__name__}: {exc}")
                    continue
                lap_ms[key] = (time.perf_counter() - began) * 1e3
                self._check(phase, item, result, fresh, primaries)
            shutil.rmtree(stores, ignore_errors=True)
            scale = REF_MS / statistics.median(references)
            for key, ms in lap_ms.items():
                phase.samples[key].append(ms * scale)
                phase.raw_samples[key].append(ms)
            phase.lap_ms.append(math.fsum(lap_ms.values()))
            phase.lap_scale.append(scale)
            phase.laps += 1
        phase.compile = {key: compile_cache_info()[key] - compiled[key]
                         for key in ("hits", "misses")}
        return phase

    def _check(self, phase: Phase, item, result, fresh, primaries) -> None:
        verification = result.verification
        if not (verification.ran and verification.passed):
            phase.fail(item, f"verification ran={verification.ran} "
                             f"passed={verification.passed}")
            return
        if not math.isfinite(result.primary_value):
            phase.fail(item, f"primary metric {result.primary_value}")
            return
        if item.kind == "miss":
            fresh[item.request] = _export(result)
        elif item.kind == "repeat" and item.request in fresh \
                and _export(result) != fresh[item.request]:
            phase.fail(item, "cache hit differs from the fresh result")
            return
        if item.config is not None:
            first = primaries.setdefault(item.config, result.primary_value)
            if first != result.primary_value:
                phase.fail(item, f"primary metric {result.primary_value} "
                                 f"under {item.request.executor}, {first} "
                                 "under the other executor")
                return


def _paper_cells() -> dict:
    """Modelled durations of the printed paper cells, evaluated untimed.

    ``cell -> (modelled ms, paper ms)``; the model error metrics are taken
    over them on every workload.
    """
    import streams
    from repro.workloads import get_workload

    cells = {}
    for request in streams.paper_cell_requests():
        result = get_workload(request.workload).run(request)
        for cell, modelled, paper in streams.paper_cells(result):
            cells[cell] = (modelled, paper)
    return cells


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _environment() -> dict:
    import numpy

    import repro

    try:
        import scipy  # noqa: F401
        scipy_imports = True
    except ImportError:
        scipy_imports = False
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_imports, "nproc": os.cpu_count(),
            "repro": repro.__version__}


def _composition(phase: Phase) -> dict:
    return {kind: {"count": count, "share": count / phase.attempted}
            for kind, count in sorted(phase.kinds.items())}


def _measure(args):
    """Time set-up, then run the warm-up lap and the timed phase(s)."""
    from repro.obs.trace import TraceCollector, install_trace_collector
    from repro.resilience import FaultPlan, FaultRule, install_fault_plan

    import layers

    TMP.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        setup = _time_setup(args, SETUP_PROBES // 2)
        client = Client(args.workload, args.seed, run_dir)
        plan = FaultPlan(seed=args.seed, rules=(
            FaultRule("launch", probability=args.fault_rate),)) \
            if args.fault_rate > 0 else None
        traced = collector = counts = None
        with install_fault_plan(plan) if plan else contextlib.nullcontext():
            _clear_process_caches()
            # one untimed lap first: a fresh process runs its first lap
            # about 15% slower (first allocations, lazy imports)
            warmup = client.run_phase(0)
            seconds = args.seconds / 2 if args.trace else args.seconds
            phase = client.run_phase(seconds)
            if args.trace:
                collector = TraceCollector()
                counts = layers.Counts()
                with layers.wrapped_layers(counts), \
                        install_trace_collector(collector):
                    traced = client.run_phase(seconds, collector)
        setup += _time_setup(args, SETUP_PROBES - len(setup))
        # read before the paper cells below run in this process
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cells = _paper_cells()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()
    return setup, warmup, phase, traced, collector, counts, cells, rss_mb


def _end_to_end(setup, phase: Phase, cells, rss_mb: float, attempted: int,
                failed: int):
    errors = sorted(abs(modelled / paper - 1.0)
                    for modelled, paper in cells.values())
    latencies = phase.latencies_ms()
    return {
        "setup_s": (statistics.median(s * scale for s, _, scale in setup),
                    "s"),
        "requests_per_s": (phase.rate(), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (_p90(latencies), "ms"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "model_error_median": (statistics.median(errors), "ratio"),
        "model_error_max": (errors[-1], "ratio"),
    }


def _per_layer(setup, phase: Phase, traced: Phase, totals, counts):
    import layers

    ratio = layers.ratio
    cache, compiled = traced.cache, traced.compile
    metrics = layers.layer_metrics(totals, traced.wall_ms, counts,
                                   traced.laps)
    metrics.update({
        "workloads.cache.hit_ratio": (ratio(
            cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "workloads.cache.disk_hit_ratio": (ratio(
            cache["disk_hits"], cache["hits"]), "ratio"),
        "tuning.db_hit_ratio": (ratio(
            cache["tune_hits"], cache["tune_hits"] + cache["tune_misses"]),
            "ratio"),
        "core.compiler.cache_hit_ratio": (ratio(
            compiled["hits"], compiled["hits"] + compiled["misses"]),
            "ratio"),
        "setup.import_s": (statistics.median(
            i * scale for _, i, scale in setup), "s"),
        "obs.trace_overhead_pct": (
            (phase.rate() / traced.rate() - 1.0) * 100.0, "%"),
    })
    return metrics


def _uncalibrated(setup, phase: Phase) -> dict:
    """The end-to-end timings as measured, before calibration."""
    latencies = phase.latencies_ms(calibrated=False)
    return {"setup_samples_s": [round(s, 4) for s, _, _ in setup],
            "requests_per_s": round(phase.rate(calibrated=False), 4),
            "latency_p50_ms": round(statistics.median(latencies), 4),
            "latency_p90_ms": round(_p90(latencies), 4)}


def _run(args) -> int:
    import layers
    import streams

    stores_before = _store_digest()
    host_scale = [_host_scale(21)]
    setup, warmup, phase, traced, collector, counts, cells, rss_mb = \
        _measure(args)
    host_scale.append(_host_scale(21))
    problems = warmup.errors + phase.errors
    if len(cells) != streams.PAPER_CELL_COUNT:
        problems.append(f"{len(cells)} paper cells, expected "
                        f"{streams.PAPER_CELL_COUNT}")
    if _store_digest() != stores_before:
        problems.append("the committed .repro_tune/.repro_cache changed")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fault_rate": args.fault_rate,
        "environment": _environment(),
        # REF_MS over the reference block's time, before and after
        "host_scale": [round(scale, 4) for scale in host_scale],
        # the warm-up is one lap, so equal seeds give equal digests
        # whatever the machine's speed
        "request_digest": warmup.digest.hexdigest()[:16],
        "laps": phase.laps, "lap_requests": len(phase.latencies_ms()),
        "composition": _composition(warmup),
        "store_stats": dict(warmup.cache),
        "lap_ms": [round(ms, 1) for ms in phase.lap_ms],
        "lap_scale": [round(scale, 4) for scale in phase.lap_scale],
        "uncalibrated": _uncalibrated(setup, phase),
    }
    attempted, failed = phase.attempted, phase.failed
    if traced is None:
        metrics = _end_to_end(setup, phase, cells, rss_mb, attempted, failed)
    else:
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.errors
        totals = layers.fold(collector.spans)
        gaps = layers.coverage_gaps(args.workload, totals)
        if gaps:
            problems.append(f"layers with no call: {', '.join(gaps)}")
        metrics = _per_layer(setup, phase, traced, totals, counts)
        info["layer_shares"] = {
            layer: round(metrics[f"{layer}.share"][0], 4)
            for layer in layers.LAYERS if metrics[f"{layer}.calls"][0]}
    info["problems"] = problems
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
