"""Profiling counters in WorkloadResult.metrics (``counter_*`` keys).

Every adapter folds the analytic profiling counters of its primary kernel
into the uniform metrics dict.  The counters are a pure function of the
compiled kernel and the analytic timing model, so they must not depend on
which functional-simulator mode executed the verification launches.
"""

import math

import pytest

from repro.harness.runner import MeasurementProtocol
from repro.workloads import get_workload

FAST = MeasurementProtocol(warmup=1, repeats=3)

QUICK = {
    "stencil": {"L": 64},
    "babelstream": {"n": 2 ** 18},
    "minibude": {"ppwi": 2, "wgsize": 8, "nposes": 1024},
    "hartreefock": {"natoms": 16},
}

EXPECTED_KEYS = {
    "counter_duration_ms",
    "counter_compute_throughput_pct",
    "counter_memory_throughput_pct",
    "counter_flops_per_second",
    "counter_occupancy",
    "counter_registers",
}


@pytest.mark.parametrize("name", sorted(QUICK))
def test_every_workload_reports_counters(name):
    workload = get_workload(name)
    request = workload.make_request(params=QUICK[name], protocol=FAST)
    result = workload.run(request)
    counter_keys = {k for k in result.metrics if k.startswith("counter_")}
    assert EXPECTED_KEYS <= counter_keys
    for key in counter_keys:
        value = result.metrics[key]
        assert isinstance(value, float) and math.isfinite(value)
    assert result.metrics["counter_duration_ms"] > 0


@pytest.mark.parametrize("executor", ["sequential", "cooperative",
                                      "vectorized"])
def test_counters_are_executor_mode_invariant(executor):
    workload = get_workload("stencil")
    base = workload.make_request(params={"L": 18},
                                 protocol=MeasurementProtocol(warmup=0,
                                                              repeats=2))
    reference = workload.run(base)
    other = workload.run(base.replace(executor=executor))
    ref_counters = {k: v for k, v in reference.metrics.items()
                    if k.startswith("counter_")}
    assert ref_counters
    for key, value in ref_counters.items():
        assert other.metrics[key] == value, key


def test_counter_metrics_memo_returns_copies():
    workload = get_workload("stencil")
    request = workload.make_request(params={"L": 18}, protocol=FAST)
    first = workload.counter_metrics(request)
    first["counter_duration_ms"] = -1.0  # caller-side mutation
    second = workload.counter_metrics(request)
    assert second["counter_duration_ms"] > 0


def test_counter_memo_survives_concurrent_eviction():
    """8 threads over more distinct keys than the memo bound: none raises.

    Each thread cycles through its own 200 stencil sizes, so the threads
    insert and evict concurrently; a tiny switch interval makes the
    interleavings dense.
    """
    import sys
    import threading
    import time

    from repro.workloads import base as workloads_base

    workload = get_workload("stencil")
    nthreads, per_thread = 8, 200
    requests = [[workload.make_request(params={"L": 3 + t * per_thread + i})
                 for i in range(per_thread)] for t in range(nthreads)]
    memo = workloads_base._counter_memo
    assert nthreads * per_thread > memo.maxsize
    errors = []

    def worker(batch, deadline):
        try:
            while time.perf_counter() < deadline:
                for request in batch:
                    workload.counter_metrics(request)
                    if time.perf_counter() >= deadline:
                        return
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            deadline = time.perf_counter() + 1.0
            threads = [threading.Thread(target=worker, args=(batch, deadline))
                       for batch in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            if errors:
                break
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]
    assert len(memo) <= memo.maxsize
