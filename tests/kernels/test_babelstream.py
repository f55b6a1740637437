"""Tests for the BabelStream workload."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, VerificationError
from repro.kernels.babelstream import (
    BABELSTREAM_OPS,
    SCALAR,
    START_A,
    START_B,
    START_C,
    DEFAULT_SIZE,
    BabelStreamArrays,
    arrays_moved,
    babelstream_kernel_model,
    babelstream_model_and_launch,
    expected_values,
    operation_bandwidth_gbs,
    operation_bytes,
    run_babelstream_functional,
    verify_arrays,
    verify_dot,
)
from repro.harness.runner import MeasurementProtocol
from repro.workloads import get_workload


def babelstream_result(*, verify=False, **fields):
    """One 2^25-element request, three timed iterations (one warm-up)."""
    workload = get_workload("babelstream")
    return workload.run(workload.make_request(
        protocol=MeasurementProtocol(warmup=1, repeats=2), verify=verify,
        **fields))


def bandwidths(result):
    """``op -> GB/s`` of a BabelStream result."""
    return {op: result.metrics[f"{op}_gbs"] for op in BABELSTREAM_OPS}


class TestHostReference:
    def test_initial_values(self):
        arrays = BabelStreamArrays(100)
        assert np.all(arrays.a == START_A)
        assert np.all(arrays.b == START_B)
        assert np.all(arrays.c == START_C)

    def test_operations_semantics(self):
        arrays = BabelStreamArrays(10)
        arrays.copy()
        assert np.all(arrays.c == START_A)
        arrays.mul()
        assert np.allclose(arrays.b, SCALAR * START_A)
        arrays.add()
        assert np.allclose(arrays.c, arrays.a + arrays.b)
        arrays.triad()
        assert np.allclose(arrays.a, arrays.b + SCALAR * arrays.c)

    def test_dot(self):
        arrays = BabelStreamArrays(10)
        assert arrays.dot() == pytest.approx(10 * START_A * START_B)

    def test_scalar_replay_matches_arrays(self):
        arrays = BabelStreamArrays(32)
        for _ in range(3):
            arrays.run_iteration()
        errors = verify_arrays(arrays, 3)
        assert max(errors.values()) < 1e-12

    def test_verify_detects_mismatch(self):
        arrays = BabelStreamArrays(32)
        arrays.run_iteration()
        arrays.a[5] += 1.0
        with pytest.raises(VerificationError):
            verify_arrays(arrays, 1)

    def test_verify_dot_detects_mismatch(self):
        arrays = BabelStreamArrays(16)
        with pytest.raises(VerificationError):
            verify_dot(arrays.dot() * 2.0, arrays)

    def test_expected_values_iteration_growth(self):
        a1, _, _ = expected_values(1)
        a5, _, _ = expected_values(5)
        assert a1 != a5


class TestDeviceKernels:
    def test_functional_run_verifies(self):
        errors = run_babelstream_functional(n=256, tb_size=16, dot_blocks=2,
                                            num_iterations=2)
        assert max(errors.values()) < 1e-10

    def test_functional_run_float32(self):
        errors = run_babelstream_functional(n=128, precision="float32",
                                            tb_size=16, dot_blocks=2)
        assert max(errors.values()) < 1e-5

    def test_functional_run_on_amd(self):
        errors = run_babelstream_functional(n=128, tb_size=16, dot_blocks=2,
                                            gpu="mi300a")
        assert max(errors.values()) < 1e-10


class TestMetrics:
    def test_arrays_moved_per_eq2(self):
        assert arrays_moved("copy") == 2
        assert arrays_moved("mul") == 2
        assert arrays_moved("add") == 3
        assert arrays_moved("triad") == 3
        assert arrays_moved("dot") == 2

    def test_operation_bytes(self):
        assert operation_bytes("triad", 1000, "float64") == 3 * 1000 * 8

    def test_bandwidth(self):
        assert operation_bandwidth_gbs("copy", 10 ** 9, "float32", 1.0) == pytest.approx(8.0)

    def test_unknown_operation(self):
        with pytest.raises(ConfigurationError):
            arrays_moved("fma")

    def test_invalid_time(self):
        with pytest.raises(ConfigurationError):
            operation_bandwidth_gbs("copy", 100, "float64", 0.0)

    def test_kernel_models(self):
        copy = babelstream_kernel_model("copy", n=1024)
        add = babelstream_kernel_model("add", n=1024)
        dot = babelstream_kernel_model("dot", n=1024, elements_per_thread=8,
                                       tb_size=256)
        assert copy.loads_global == 1 and copy.stores_global == 1
        assert add.loads_global == 2
        assert dot.uses_shared and dot.barriers > 0
        assert dot.shared_bytes_per_block == 256 * 8

    def test_unknown_model_op(self):
        with pytest.raises(ValueError):
            babelstream_kernel_model("saxpy", n=10)


class TestBenchmark:
    def test_run_reports_all_operations(self):
        res = babelstream_result(backend="cuda", gpu="h100")
        assert set(bandwidths(res)) == set(BABELSTREAM_OPS)
        assert all(v > 0 for v in bandwidths(res).values())

    def test_bandwidths_below_peak(self):
        res = babelstream_result(backend="cuda", gpu="h100")
        assert all(v <= 3900 for v in bandwidths(res).values())

    def test_mojo_beats_cuda_on_streaming_ops(self):
        mojo = bandwidths(babelstream_result(backend="mojo", gpu="h100"))
        cuda = bandwidths(babelstream_result(backend="cuda", gpu="h100"))
        for op in ("copy", "mul", "add", "triad"):
            assert mojo[op] >= cuda[op]

    def test_mojo_loses_dot_on_h100(self):
        mojo = bandwidths(babelstream_result(backend="mojo", gpu="h100"))
        cuda = bandwidths(babelstream_result(backend="cuda", gpu="h100"))
        ratio = mojo["dot"] / cuda["dot"]
        assert 0.70 < ratio < 0.88           # paper: 0.78

    def test_mojo_matches_hip_on_mi300a(self):
        mojo = bandwidths(babelstream_result(backend="mojo", gpu="mi300a"))
        hip = bandwidths(babelstream_result(backend="hip", gpu="mi300a"))
        for op in BABELSTREAM_OPS:
            assert mojo[op] == pytest.approx(hip[op], rel=0.06)

    def test_add_and_triad_move_more_bytes_than_copy(self):
        res = babelstream_result(backend="cuda", gpu="h100")
        # add/triad move 3 arrays so their kernel time is longer than copy's
        kernel_ms = {op: t.kernel_time_ms for op, t in res.timing.items()}
        assert kernel_ms["add"] > kernel_ms["copy"]
        assert kernel_ms["triad"] > kernel_ms["copy"]

    def test_with_verification(self):
        res = babelstream_result(backend="mojo", gpu="h100", verify=True)
        assert res.verification.passed
        assert res.verification.max_rel_error < 1e-10

    def test_benchmark_launch_configs(self):
        def launch(op):
            _, config = babelstream_model_and_launch(
                op, n=DEFAULT_SIZE, precision="float64", tb_size=1024,
                backend="cuda", gpu="h100")
            return config

        copy_launch = launch("copy")
        dot_launch = launch("dot")
        assert copy_launch.total_threads >= DEFAULT_SIZE
        assert dot_launch.num_blocks == 4 * 132
