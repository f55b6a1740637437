"""Lane exactness in the region analysis: the facts lowering is built on.

``LaunchRegions.lanes`` claims an access touches *exactly* its box, so a
guard the interpreter could not fully parse must withhold the claim — and
with it the NumPy-slice lowering, which would otherwise store to lanes the
interpreter masks off.
"""

from __future__ import annotations

from repro.analysis.regions import LaneDim, TensorSpec, concretize_launch
from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.core.intrinsics import block_dim, block_idx, compress_lanes, thread_idx
from repro.core.kernel import Kernel, LaunchConfig
from repro.graphopt import lowering_report
from repro.kernels.stencil.kernel import laplacian_kernel
from repro.kernels.stencil.runner import stencil_launch_config


def _copy_flipped(a, c, n):
    i = thread_idx.x + block_idx.x * block_dim.x
    m = n > i
    i = compress_lanes(m, i)
    c[i] = a[i]


def _copy_unparsed_conjunct(a, c, n):
    i = thread_idx.x + block_idx.x * block_dim.x
    m = (i < n) & ((i > 2) | (i < 1))
    i = compress_lanes(m, i)
    c[i] = a[i]


def _copy_stale_index(a, c, nx, ny):
    x = thread_idx.x + block_idx.x * block_dim.x
    y = thread_idx.y + block_idx.y * block_dim.y
    m = (x < nx) & (y < ny)
    x = compress_lanes(m, x)
    c[y, x] = a[y, x]


def _lanes(fn, args, launch):
    """Lane-exact sites of *fn* as ``{(line offset, kind): dims}``."""
    lr = concretize_launch(Kernel(fn), args, launch)
    first = fn.__code__.co_firstlineno
    return {(line - first, kind): dims
            for (line, _, kind), dims in lr.lanes.items()}


def test_stencil_accesses_are_lane_exact_with_offsets():
    L = 8
    launch = stencil_launch_config(L, (4, 4, 2))
    spec = TensorSpec((L, L, L))
    lr = concretize_launch(laplacian_kernel, (spec, spec, L, L, L,
                                              1.0, 1.0, 1.0, 1.0), launch)
    interior = (1, L - 1)
    writes = [dims for (_, _, kind), dims in lr.lanes.items() if kind == "w"]
    assert writes == [(LaneDim("z", *interior, 0), LaneDim("y", *interior, 0),
                       LaneDim("x", *interior, 0))]
    reads = [dims for (_, _, kind), dims in lr.lanes.items() if kind == "r"]
    assert len(reads) == 7
    assert sorted(tuple(d.offset for d in dims) for dims in reads) == sorted(
        [(0, 0, 0), (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0),
         (0, 0, -1), (0, 0, 1)])


def test_name_on_the_right_of_a_comparison_bounds_the_lane_index():
    launch = LaunchConfig.make(2, 64)
    lanes = _lanes(_copy_flipped, (TensorSpec((128,)), TensorSpec((128,)),
                                   100), launch)
    assert lanes[(4, "w")] == (LaneDim("x", 0, 100, 0),)


def test_unparsed_conjunct_withholds_lane_exactness_and_lowering():
    launch = LaunchConfig.make(2, 64)
    spec = TensorSpec((128,))
    assert _lanes(_copy_unparsed_conjunct, (spec, spec, 100), launch) == {}
    ctx = DeviceContext("h100")
    a, c = (ctx.enqueue_create_buffer(DType.float64, 128, label=label).tensor()
            for label in ("a", "c"))
    report = lowering_report(Kernel(_copy_unparsed_conjunct), (a, c, 100),
                             launch)
    assert report["lowered"] is False
    assert report["reason"] == "tensor index is not lane-variable +/- constant"


def test_mask_on_an_uncompressed_index_withholds_lane_exactness():
    launch = LaunchConfig.make((2, 2), (8, 8))
    spec = TensorSpec((16, 16))
    assert _lanes(_copy_stale_index, (spec, spec, 10, 10), launch) == {}


def test_non_integer_bound_is_not_lane_exact():
    launch = LaunchConfig.make(2, 64)
    spec = TensorSpec((128,))
    assert _lanes(_copy_flipped, (spec, spec, 99.5), launch) == {}
