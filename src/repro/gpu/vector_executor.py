"""Lockstep (SIMT-vectorized) execution of vector-safe device kernels.

The scalar executors in :mod:`repro.gpu.executor` pay one Python call per
simulated thread, which caps functional simulation at roughly 10^5 threads
per second.  This module evaluates a *vector-safe* kernel body (see
:class:`repro.core.kernel.Kernel` and the lane helpers in
:mod:`repro.core.intrinsics`) once per **lane set** instead: ``thread_idx`` /
``block_idx`` resolve to NumPy index arrays carrying one element per lane,
so every statement of the body executes for all lanes at once as array
operations — the data-centric lockstep execution of per-thread code that
Ziogas et al. and MIRGE use to reclaim array-level throughput without giving
up per-thread semantics.

Two lane-set granularities exist:

* **whole grid** — kernels without barriers or shared memory have no
  intra-block communication, so the entire launch is one lane set (chunked
  at block boundaries to bound the size of the index arrays);
* **per block** — kernels with ``barrier()`` / shared memory run one lane
  set per block.  Because lockstep granularity is per *statement* — finer
  than the per-barrier-phase split a diverging executor would need —
  every lane has completed the pre-barrier statements when ``barrier()`` is
  reached, so the barrier degenerates to an event-count bump of one barrier
  per lane (keeping :class:`~repro.gpu.executor.ExecutionCounters` identical
  to the scalar modes, where each simulated thread counts its own call).

Masked divergence (``if`` guards, predicated accumulation) is expressed in
the kernel body through the lane helpers (``any_lane`` + ``compress_lanes``
for top-level guards, ``lane_where`` / ``masked_store`` for predicated
branches); atomics take the ``np.add.at``-backed lane-vector form in
:mod:`repro.core.atomics`.  Kernels that are not vector-safe fall back to the
scalar executors automatically — see :meth:`KernelExecutor.launch`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.intrinsics import Dim3, bind_thread_state
from ..core.kernel import Kernel
from ..core.memo import Memo
from ..resilience import faults as _faults

__all__ = ["VectorThreadState", "LaneDim3", "kernel_vector_safe",
           "run_vectorized", "single_chunk", "VECTOR_CHUNK_LANES"]

#: whole-grid lane sets are split at block boundaries so one chunk carries at
#: most this many lanes (bounds the size of the per-lane index arrays)
VECTOR_CHUNK_LANES = 1 << 18


def single_chunk(launch) -> bool:
    """True when a whole-grid launch executes as exactly one lane chunk.

    The legality query kernel fusion (:mod:`repro.graphopt.passes`) keys on:
    sequencing fused part bodies is only equivalent to back-to-back launches
    when every lane of a part completes before the next part starts.  One
    chunk guarantees that; chunked execution would interleave the parts per
    chunk (part A chunk 1, part B chunk 1, part A chunk 2, ...), which
    breaks cross-lane producer/consumer patterns between parts.
    """
    return launch.total_threads <= VECTOR_CHUNK_LANES


def kernel_vector_safe(kern, *, infer: bool = False) -> bool:
    """True when *kern* is safe for lockstep execution.

    A hand-set declaration (``vector_safe=`` on the kernel, or the cached
    ``_repro_vector_safe`` marking on the function) decides directly — but a
    ``True`` declaration is cross-checked against the static verifier's
    verdict, and a refuted declaration warns once per kernel (``repro
    lint`` reports the same disagreement as a ``KV100`` error).  The
    runtime still honours the flag so a deliberate override keeps working.

    With ``infer=True`` an *undeclared* kernel is also accepted when the
    verifier can positively prove its body lockstep-safe — the
    inference-backed path the explicit ``mode="vectorized"`` request uses.
    Verification is memoised on the function object, so neither path costs
    more than one AST walk per kernel body, ever.
    """
    if isinstance(kern, Kernel):
        declared = kern.declared_vector_safe
        if declared is None and kern.vector_safe:
            declared = True             # constructor-derived marking
    else:
        declared = (bool(kern._repro_vector_safe)
                    if hasattr(kern, "_repro_vector_safe") else None)
    if declared is not None:
        if declared:
            _warn_if_refuted(kern)
        return declared
    if not infer:
        return False
    from ..analysis.verifier import infer_vector_safe

    return infer_vector_safe(kern) is True


def _warn_if_refuted(kern) -> None:
    """Warn (once per kernel body) when inference refutes a declared flag."""
    fn = getattr(kern, "fn", kern)
    if getattr(fn, "_repro_flag_warned", False):
        return
    from ..analysis.verifier import verify_kernel

    result = verify_kernel(kern)
    try:
        fn._repro_flag_warned = True
    except (AttributeError, TypeError):  # pragma: no cover - builtins
        return
    if result.inferred is False:
        import warnings

        reasons = "; ".join(result.reasons) or "body rules failed"
        warnings.warn(
            f"kernel {result.kernel!r} declares vector_safe=True but the "
            f"static verifier cannot confirm it ({reasons}); the flag is "
            f"honoured — run `repro lint` for the full diagnostics",
            RuntimeWarning, stacklevel=3)


class LaneDim3:
    """A ``dim3`` whose components may be per-lane index arrays.

    Mirrors the attribute surface the intrinsic proxies read
    (``thread_idx.x`` ...), but ``x``/``y``/``z`` are NumPy int arrays (one
    entry per lane) — or plain ints when the component is uniform across the
    lane set (e.g. ``block_idx`` in per-block mode).
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaneDim3({self.x!r}, {self.y!r}, {self.z!r})"


class VectorThreadState:
    """Lane-set execution state, bound in place of a scalar ``ThreadState``.

    Presents the same attribute surface the intrinsic proxies, shared-memory
    allocation and atomics read (``thread_idx``, ``block_idx``, ``block_dim``,
    ``grid_dim``, ``block_shared``, ``counters``, ``_shared_seq``), but the
    thread/block indices are :class:`LaneDim3` carrying one element per lane.
    ``barrier()`` counts one barrier event per lane and synchronises nothing:
    lockstep execution already guarantees every lane completed the preceding
    statements.
    """

    __slots__ = ("thread_idx", "block_idx", "block_dim", "grid_dim",
                 "block_shared", "block_barrier", "counters", "num_lanes",
                 "_shared_seq")

    def __init__(self, thread_idx: LaneDim3, block_idx, block_dim: Dim3,
                 grid_dim: Dim3, num_lanes: int,
                 block_shared: Optional[Dict] = None, counters=None):
        self.thread_idx = thread_idx
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.num_lanes = int(num_lanes)
        self.block_shared = block_shared if block_shared is not None else {}
        self.block_barrier = None
        self.counters = counters
        self._shared_seq = 0

    # ------------------------------------------------------------------ ids
    @property
    def linear_thread_id(self):
        t, b = self.thread_idx, self.block_dim
        return t.x + t.y * b.x + t.z * b.x * b.y

    @property
    def linear_block_id(self):
        c, g = self.block_idx, self.grid_dim
        return c.x + c.y * g.x + c.z * g.x * g.y

    @property
    def global_linear_id(self):
        return self.linear_block_id * self.block_dim.total + self.linear_thread_id

    # --------------------------------------------------------------- shared
    def shared_alloc(self, key: str, size: int, dtype) -> np.ndarray:
        """Return (allocating on first use) a block-shared array.

        One logical allocation serves every lane of the block, exactly as one
        ``__shared__`` array serves every thread.  Uses the same atomic
        ``dict.setdefault`` form as ``ThreadState.shared_alloc``: the
        vectorized executor is single-threaded today, but the allocation
        paths must not diverge on the race the scalar one was fixed for.
        """
        arr = self.block_shared.get(key)
        if arr is None:
            from ..core.dtypes import dtype_from_any
            np_dtype = dtype_from_any(dtype).to_numpy()
            arr = self.block_shared.setdefault(
                key, np.zeros(int(size), dtype=np_dtype))
        return arr

    def barrier(self) -> None:
        """Lockstep barrier: counts one event per lane, synchronises nothing."""
        if self.counters is not None:
            self.counters.record_barrier(self.num_lanes)


def _lane_indices(extent: Dim3):
    """Per-lane (x, y, z) index arrays enumerating *extent*, x fastest.

    The lane order matches ``_iter_dim3`` in the scalar executors, so
    colliding scatters and unbuffered atomic accumulations visit elements in
    the same order in every execution mode.
    """
    lin = np.arange(extent.total, dtype=np.int64)
    x = lin % extent.x
    y = (lin // extent.x) % extent.y
    z = lin // (extent.x * extent.y)
    return x, y, z


#: launches with at most this many total threads have their geometry
#: memoised; bigger grids keep their one-transient-chunk memory profile
_GEOMETRY_MEMO_MAX_LANES = 1 << 16


def _iter_chunks(bd: Dim3, gd: Dim3):
    """Yield ``(thread_idx, block_idx, lanes)`` whole-grid lane chunks.

    Consecutive blocks are fused into chunks of at most
    :data:`VECTOR_CHUNK_LANES` lanes; each chunk's index arrays are built
    transiently, so peak memory for big grids is one chunk.
    """
    tpb = bd.total
    tx, ty, tz = _lane_indices(bd)
    bx, by, bz = _lane_indices(gd)
    blocks_per_chunk = max(VECTOR_CHUNK_LANES // tpb, 1)
    for start in range(0, gd.total, blocks_per_chunk):
        stop = min(start + blocks_per_chunk, gd.total)
        nblocks = stop - start
        if nblocks == 1:
            yield (LaneDim3(tx, ty, tz),
                   LaneDim3(int(bx[start]), int(by[start]), int(bz[start])),
                   tpb)
        else:
            yield (
                LaneDim3(np.tile(tx, nblocks), np.tile(ty, nblocks),
                         np.tile(tz, nblocks)),
                LaneDim3(np.repeat(bx[start:stop], tpb),
                         np.repeat(by[start:stop], tpb),
                         np.repeat(bz[start:stop], tpb)),
                nblocks * tpb,
            )


def _chunk_arrays(chunks):
    """Distinct lane-index arrays of *chunks* (tx/ty/tz are shared)."""
    return {id(c): c for t, b, _ in chunks for dim3 in (t, b)
            for c in (dim3.x, dim3.y, dim3.z)
            if isinstance(c, np.ndarray)}.values()


def _frozen_chunks(bd: Dim3, gd: Dim3) -> list:
    """The launch's chunk list with every lane-index array made read-only."""
    chunks = list(_iter_chunks(bd, gd))
    for array in _chunk_arrays(chunks):
        array.setflags(write=False)
    return chunks


#: launch geometries by grid/block extents: removes the arange/tile/repeat
#: cost from repeated launches (what makes graph replay cheap).  Entries are
#: frozen read-only, so a kernel mutating its index arrays fails loudly
#: instead of corrupting later launches; LRU past 32 MB of lane indices.
_geometry_memo = Memo(
    "geometry_memo", 128, max_bytes=32 << 20,
    sizeof=lambda chunks: sum(a.nbytes for a in _chunk_arrays(chunks)))


def _grid_geometry(bd: Dim3, gd: Dim3):
    """Whole-grid lane geometry: an iterable of chunk tuples.

    Small launches (≤ :data:`_GEOMETRY_MEMO_MAX_LANES` threads) return a
    memoised list of frozen chunks; larger grids return the transient
    chunk generator.
    """
    if gd.total * bd.total > _GEOMETRY_MEMO_MAX_LANES:
        return _iter_chunks(bd, gd)
    return _geometry_memo.get_or_compute(
        (bd.x, bd.y, bd.z, gd.x, gd.y, gd.z), lambda: _frozen_chunks(bd, gd))


def run_vectorized(kern, args, launch, counters, *, per_block: bool) -> int:
    """Execute one launch in lockstep; returns the peak shared bytes/block.

    ``per_block=True`` (kernels with barriers / shared memory) evaluates one
    lane set per block; otherwise consecutive blocks are fused into whole-grid
    chunks of at most :data:`VECTOR_CHUNK_LANES` lanes.
    """
    fn = kern.fn if isinstance(kern, Kernel) else kern
    injector = _faults._ACTIVE
    if injector is not None:
        # Graph-replay thunks call run_vectorized directly, bypassing
        # KernelExecutor.launch — these sites cover that path too.
        name = kern.name if isinstance(kern, Kernel) else \
            getattr(fn, "__name__", "kernel")
        injector.fail_launch("launch.vectorized", name)
        injector.inject_latency("latency.vectorized", name)
    bd, gd = launch.block_dim, launch.grid_dim
    tpb = bd.total
    max_shared = 0

    if per_block:
        tx, ty, tz = _lane_indices(bd)
        bx, by, bz = _lane_indices(gd)
        state = VectorThreadState(
            thread_idx=LaneDim3(tx, ty, tz),
            block_idx=LaneDim3(0, 0, 0),
            block_dim=bd, grid_dim=gd, num_lanes=tpb, counters=counters,
        )
        with bind_thread_state(state):
            for bi in range(gd.total):
                state.block_idx = LaneDim3(int(bx[bi]), int(by[bi]), int(bz[bi]))
                state.block_shared = {}
                state._shared_seq = 0
                fn(*args)
                shared = _shared_bytes(state.block_shared)
                if shared > max_shared:
                    max_shared = shared
        counters.merge(threads_run=gd.total * tpb, blocks_run=gd.total)
        return max_shared

    # Whole-grid mode: blocks are independent, fused into chunks (memoised
    # for small launches, a transient generator for big grids).
    state = VectorThreadState(
        thread_idx=LaneDim3(0, 0, 0),
        block_idx=LaneDim3(0, 0, 0),
        block_dim=bd, grid_dim=gd, num_lanes=tpb, counters=counters,
    )
    with bind_thread_state(state):
        for thread_idx, block_idx, num_lanes in _grid_geometry(bd, gd):
            state.thread_idx = thread_idx
            state.block_idx = block_idx
            state.num_lanes = num_lanes
            state.block_shared = {}
            state._shared_seq = 0
            fn(*args)
    counters.merge(threads_run=gd.total * tpb, blocks_run=gd.total)
    return max_shared


def _shared_bytes(block_shared: Dict) -> int:
    total = 0
    for arr in block_shared.values():
        total += getattr(arr, "nbytes", 0)
    return int(total)
