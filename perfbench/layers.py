"""Per-layer spans for the traced run, recorded from the benchmark's side.

:func:`wrapped_layers` patches the public functions below with wrappers
that open a :mod:`repro.obs.trace` span named after the layer, and puts
every original back on exit.  Each wrapper patches the name its caller
actually looks up: a function imported by name into another module is
patched in that module, a function imported at call time is patched in
its defining module, and a method is patched on its class.

:func:`fold` turns the finished spans into calls, self time and share per
layer.  Only spans under the client's ``request`` root spans count, so
work done while building requests is not charged to any layer.  The
program's own spans (``workload.run``, ``tuning.resolve`` and
``device.drain``) are folded in beside the wrappers'.  Work the program
runs on a helper thread, such as a tuning probe under its deadline, opens
no span under the request and is charged to the layer that waits for it.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import trace as _trace

#: span name of the client's root span around one request
REQUEST_SPAN = "request"

#: program spans folded into layers, span name -> layer
PROGRAM_SPANS = {
    "workload.run": "workloads.run",
    "tuning.resolve": "tuning.resolve",
    "device.drain": "core.device.drain",
}

#: (module, attribute path, layer); ``Class.method`` patches the class
WRAPPED = (
    ("repro.workloads.base", "Workload.validate_params", "workloads.validate"),
    ("repro.workloads.hartreefock", "compute_schwarz",
     "kernels.hartreefock.schwarz"),
    ("repro.kernels.hartreefock.runner", "compute_schwarz",
     "kernels.hartreefock.schwarz"),
    ("repro.workloads.hartreefock", "surviving_quadruple_fraction",
     "kernels.hartreefock.survivors"),
    ("repro.workloads.hartreefock", "make_helium_system",
     "kernels.hartreefock.system"),
    ("repro.kernels.hartreefock.runner", "make_helium_system",
     "kernels.hartreefock.system"),
    ("repro.workloads.minibude", "make_bm1", "kernels.minibude.deck"),
    ("repro.workloads.minibude", "make_deck", "kernels.minibude.deck"),
    ("repro.workloads.stencil", "verify_stencil_kernel",
     "kernels.stencil.verify"),
    ("repro.kernels.babelstream.runner", "run_babelstream_functional",
     "kernels.babelstream.verify"),
    ("repro.workloads.minibude", "run_fasten_functional",
     "kernels.minibude.verify"),
    ("repro.workloads.hartreefock", "run_hartreefock_functional",
     "kernels.hartreefock.verify"),
    ("repro.core.device", "DeviceContext.enqueue_function",
     "core.device.enqueue_function"),
    ("repro.gpu.executor", "KernelExecutor.launch", "gpu.executor.launch"),
    # imported at call time by the executor, so patched where defined
    ("repro.graphopt.lower", "lower_launch", "graphopt.lower_launch"),
    ("repro.backends.base", "Backend.time", "backends.time"),
    ("repro.backends.base", "compile_kernel", "core.compiler.compile_kernel"),
    # the device context imports compile_kernel at call time
    ("repro.core.compiler", "compile_kernel", "core.compiler.compile_kernel"),
    ("repro.workloads.base", "Workload.counter_metrics",
     "profiling.counter_metrics"),
    ("repro.workloads.cache", "ResultCache.get", "workloads.cache.get"),
    ("repro.workloads.cache", "ResultCache.put", "workloads.cache.put"),
    ("repro.tuning.tuner", "Tuner.search", "tuning.search"),
)

#: the workload each layer does most of its work on; the traced run of
#: that workload must record at least one call, or a wrapper patched a
#: binding nobody calls
COVERAGE = {
    "workloads.run": "cached-sweep",
    "workloads.validate": "cached-sweep",
    "kernels.hartreefock.schwarz": "verify-sweep",
    "kernels.hartreefock.survivors": "verify-sweep",
    "kernels.hartreefock.system": "verify-sweep",
    "kernels.minibude.deck": "verify-sweep",
    "kernels.stencil.verify": "verify-sweep",
    "kernels.babelstream.verify": "verify-sweep",
    "kernels.minibude.verify": "verify-sweep",
    "kernels.hartreefock.verify": "verify-sweep",
    "core.device.enqueue_function": "verify-sweep",
    "core.device.drain": "verify-sweep",
    "gpu.executor.launch": "verify-sweep",
    "graphopt.lower_launch": "verify-sweep",
    "backends.time": "verify-sweep",
    "core.compiler.compile_kernel": "verify-sweep",
    "profiling.counter_metrics": "verify-sweep",
    "workloads.cache.get": "cached-sweep",
    "workloads.cache.put": "cached-sweep",
    "tuning.resolve": "cached-sweep",
    "tuning.search": "cached-sweep",
}

#: every timed layer, in report order
LAYERS = tuple(COVERAGE)


class Counts:
    """Result-derived counts the wrappers take while tracing is on."""

    def __init__(self) -> None:
        self.threads_run = 0
        self.lowered = 0
        self.candidates_measured = 0

    def observe(self, layer: str, result) -> None:
        if layer == "gpu.executor.launch":
            self.threads_run += result.counters.threads_run
        elif layer == "graphopt.lower_launch":
            self.lowered += result is not None
        elif layer == "tuning.search":
            self.candidates_measured += len(result.evaluations)


def _wrap(original: Callable, layer: str, counts: Counts) -> Callable:
    def traced(*args, **kwargs):
        collector = _trace._ACTIVE
        if collector is None:
            return original(*args, **kwargs)
        with collector.span(layer):
            result = original(*args, **kwargs)
        counts.observe(layer, result)
        return result

    traced.__wrapped__ = original
    return traced


@contextlib.contextmanager
def wrapped_layers(counts: Counts) -> Iterator[None]:
    """Patch every :data:`WRAPPED` binding for the scope, then restore it."""
    patched: List[Tuple[object, str, Callable]] = []
    try:
        for module_name, path, layer in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(original, layer, counts))
            patched.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def fold(spans) -> Dict[str, Dict[str, float]]:
    """Calls and self time (ms) per layer, from spans under request roots."""
    by_id = {s.span_id: s for s in spans}

    def under_request(span) -> bool:
        while span.parent_id is not None:
            span = by_id[span.parent_id]
        return span.name == REQUEST_SPAN

    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ms": 0.0})
    for span in spans:
        layer = PROGRAM_SPANS.get(span.name, span.name)
        if layer not in LAYERS or not under_request(span):
            continue
        covered = sum(child.wall_ms for child in span.children
                      if child.wall_ms is not None)
        totals[layer]["calls"] += 1
        totals[layer]["self_ms"] += span.wall_ms - covered
    return totals


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was counted."""
    return part / whole if whole else 0.0


def coverage_gaps(workload: str,
                  totals: Dict[str, Dict[str, float]]) -> List[str]:
    """Layers expected to work on *workload* that recorded no call."""
    return [layer for layer, home in COVERAGE.items()
            if home == workload and not totals.get(layer, {}).get("calls")]


def layer_metrics(totals: Dict[str, Dict[str, float]], wall_ms: float,
                  counts: Optional[Counts],
                  rounds: int) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` for every timed layer of :data:`LAYERS`.

    Calls, self time and the counts are per round of the request set, so
    they do not grow with the number of rounds the host speed allowed.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        entry = totals.get(layer, {"calls": 0, "self_ms": 0.0})
        out[f"{layer}.calls"] = (entry["calls"] / rounds, "count")
        out[f"{layer}.self_ms"] = (entry["self_ms"] / rounds, "ms")
        out[f"{layer}.share"] = (ratio(entry["self_ms"], wall_ms), "ratio")
    if counts is not None:
        lower_calls = totals.get("graphopt.lower_launch", {}).get("calls", 0)
        out["gpu.executor.threads_run"] = (counts.threads_run / rounds,
                                           "count")
        out["graphopt.lowered_ratio"] = (ratio(counts.lowered, lower_calls),
                                         "ratio")
        out["tuning.candidates_measured"] = (
            counts.candidates_measured / rounds, "count")
    return out
