"""Workload adapter for the Hartree–Fock Fock build (Table 4).

A run checks the device kernel functionally on a reduced system, then
screens the requested helium chain with its Schwarz bounds: the surviving
quadruple fraction drives the per-thread resource model, and the backend
model times the kernel.  No ERI is evaluated for the timing.
"""

from __future__ import annotations

from typing import Mapping

from ..core.kernel import LaunchConfig
from ..core.memo import Memo
from ..kernels.hartreefock.basis import make_helium_system
from ..kernels.hartreefock.kernel import (
    SCHWARZ_TOLERANCE,
    hartree_fock_kernel_model,
)
from ..kernels.hartreefock.reference import fock_quadruple_reference
from ..kernels.hartreefock.runner import (
    APPROX_SCHWARZ_NATOMS,
    DEFAULT_BLOCK_SIZE,
    compute_schwarz,
    run_hartreefock_functional,
    surviving_quadruple_fraction,
)
from .base import ParamSpec, RunRequest, Verification, Workload, WorkloadResult
from .provenance import build_provenance

__all__ = ["HartreeFockWorkload"]


def _problem_shape(p: Mapping[str, object]):
    """``(nquads, surviving_fraction)`` of the helium chain *p* describes."""
    system = make_helium_system(p["natoms"], p["ngauss"], spacing=p["spacing"])
    schwarz = compute_schwarz(
        system, approximate=p["natoms"] >= APPROX_SCHWARZ_NATOMS)
    return (system.nquads,
            surviving_quadruple_fraction(schwarz, p["schwarz_tol"]))


def _model_and_launch(p: Mapping[str, object], nquads: int,
                      survivors: float):
    """ERI kernel model and launch for *p* with the given problem shape."""
    model = hartree_fock_kernel_model(natoms=p["natoms"], ngauss=p["ngauss"],
                                      surviving_fraction=survivors)
    return model, LaunchConfig.for_elements(nquads, p["block_size"])


#: :meth:`HartreeFockWorkload.tuning_model`'s :func:`_problem_shape` memo
_shape_memo = Memo("hf_shape_memo", 16)


class HartreeFockWorkload(Workload):
    """Hartree–Fock ERI/Fock-build kernel (compute-bound + atomics, Table 4)."""

    name = "hartreefock"
    description = ("Hartree–Fock two-electron Fock build with Schwarz "
                   "screening on a helium chain (Table 4 kernel time)")
    primary_metric = "kernel_time_ms"
    primary_unit = "ms"
    precisions = ("float64",)
    default_precision = "float64"
    sampling = "single-evaluation"
    params = (
        ParamSpec("natoms", int, 256, "helium atoms in the chain", minimum=1),
        ParamSpec("ngauss", int, 3, "gaussian primitives per basis function",
                  minimum=1),
        ParamSpec("block_size", int, DEFAULT_BLOCK_SIZE, "thread-block size",
                  minimum=1),
        ParamSpec("spacing", float, 3.0, "inter-atom spacing in bohr",
                  minimum=0.1),
        ParamSpec("schwarz_tol", float, SCHWARZ_TOLERANCE,
                  "Schwarz screening tolerance", minimum=0.0),
        ParamSpec("verify_natoms", int, 4,
                  "system size for functional verification", minimum=1),
    )

    #: thread-block sizes the tuner may try for the 1-D quadruple launch
    TUNING_BLOCK_SIZES = (64, 128, 256, 512, 1024)

    def tuning_space(self, request: RunRequest):
        """Launch knobs: thread-block size and fast-math."""
        from ..tuning.space import TuningKnob, TuningSpace

        return TuningSpace((
            TuningKnob("block_size", self.TUNING_BLOCK_SIZES),
            TuningKnob("fast_math", (False, True), kind="field"),
        ))

    def tuning_model(self, request: RunRequest):
        """ERI kernel model + launch for the pruner.

        The system shape (quadruple count, Schwarz survival fraction) is
        launch-independent, so it is memoised per problem configuration —
        candidate scoring must not re-screen the system per block size.
        """
        p = self.validate_params(request.params)
        key = (p["natoms"], p["ngauss"], p["spacing"], p["schwarz_tol"])
        shape = _shape_memo.get_or_compute(key, lambda: _problem_shape(p))
        return _model_and_launch(p, *shape)

    def lint_graph(self):
        """Two-stream upload → fan-in → ERI kernel → D2H capture (tiny system).

        Mirrors
        :func:`~repro.kernels.hartreefock.runner.run_hartreefock_functional`
        with ``streams=2``: the six input uploads round-robin over two H2D
        lanes with the kernel event-ordered behind all of them, so the race
        detector checks the workload's real fan-in structure.
        """
        import itertools

        import numpy as np

        from ..core.device import DeviceContext
        from ..core.dtypes import DType
        from ..core.layout import Layout
        from ..kernels.hartreefock.kernel import hartree_fock_kernel

        natoms, ngauss = 2, 3
        system = make_helium_system(natoms, ngauss, spacing=2.5)
        schwarz = compute_schwarz(system)
        n = system.natoms
        ctx = DeviceContext("h100")
        pool, compute = ctx.upload_pipeline(2)
        lanes = itertools.cycle(pool)

        def upload(data, shape, label, mut=False):
            flat = np.asarray(data, dtype=np.float64).reshape(-1)
            buf = ctx.enqueue_create_buffer(DType.float64, flat.size,
                                            label=label)
            buf.copy_from_host(flat, stream=next(lanes))
            return buf, buf.tensor(Layout.row_major(*shape), mut=mut,
                                   bounds_check=False)

        launch = LaunchConfig.for_elements(system.nquads, 16)
        with ctx.capture(f"lint-{self.name}") as graph:
            _, schwarz_t = upload(schwarz, (len(schwarz),), "schwarz")
            _, xpnt_t = upload(system.xpnt, (ngauss,), "xpnt")
            _, coef_t = upload(system.coef, (ngauss,), "coef")
            _, geom_t = upload(system.geometry, (n, 3), "geom")
            _, dens_t = upload(system.dens, (n, n), "dens")
            fock_buf, fock_t = upload(np.zeros((n, n)), (n, n), "fock",
                                      mut=True)
            ctx.fan_in(pool, compute, prefix="uploads")
            ctx.enqueue_function(
                hartree_fock_kernel, ngauss, n, system.nquads, schwarz_t,
                0.0, xpnt_t, coef_t, geom_t, dens_t, fock_t,
                grid_dim=launch.grid_dim, block_dim=launch.block_dim,
                model=hartree_fock_kernel_model(natoms=n, ngauss=ngauss,
                                                surviving_fraction=1.0),
                stream=compute,
            )
            fock_buf.copy_to_host(stream=compute)
        return graph

    def reference(self, *, natoms: int = 4, ngauss: int = 3,
                  spacing: float = 2.5):
        """Batched-ERI reference Fock matrix for a small helium system."""
        system = make_helium_system(natoms, ngauss, spacing=spacing)
        return fock_quadruple_reference(system)

    def verify(self, *, natoms: int = 4, ngauss: int = 3,
               gpu: str = "h100") -> float:
        """Device-kernel functional verification; max relative error."""
        _, err = run_hartreefock_functional(natoms, ngauss, gpu=gpu)
        return err

    def _run(self, request: RunRequest) -> WorkloadResult:
        p = request.params
        sink: dict = {}
        max_rel_error = float("nan")
        if request.verify:
            _, max_rel_error = run_hartreefock_functional(
                p["verify_natoms"], p["ngauss"], gpu=request.gpu,
                executor=request.executor, streams=request.streams,
                pipeline_sink=sink)

        nquads, survivors = _problem_shape(p)
        run = self._time(request, *_model_and_launch(p, nquads, survivors))
        return WorkloadResult(
            request=request,
            metrics={
                "kernel_time_ms": run.timing.kernel_time_ms,
                "nquads": float(nquads),
                "surviving_fraction": survivors,
                **self.counter_metrics(request),
            },
            primary_metric=self.primary_metric,
            verification=Verification(ran=request.verify,
                                      passed=request.verify,
                                      max_rel_error=max_rel_error),
            timing=self._timing_with_pipeline({"kernel": run.timing}, sink),
            provenance=build_provenance(request, sampling=self.sampling),
        )
