"""Lowering tier: compile vector-safe kernel bodies to NumPy-slice code.

The vectorized executor (:mod:`repro.gpu.vector_executor`) already amortises
the Python interpreter over whole lane sets, but every tensor subscript in
the kernel body still pays a fancy-indexing gather/scatter through per-lane
index arrays.  This module goes one step further, the way the paper's MLIR
stack lowers its parametric kernels to target code: a vector-safe body whose
lane indices are *affine* in the launch axes is rewritten — via static
analysis, not execution — into plain NumPy whole-array slicing, compiled
with ``exec`` into a synthetic module, and dispatched through the executor's
``mode="lowered"``.

Lowering keeps no access analysis of its own.  It reads the facts from the
region analysis that lint, racecheck and fusion share:
:func:`~repro.analysis.regions.concretize_launch` reports, for every access
site whose dimensions are each one launch axis's global lane index plus an
integer, the exact lane range and offset per dimension
(:class:`~repro.analysis.regions.LaneDim`) — after guard masks that parsed
completely, ``compress_lanes`` clamps and scalar-argument values.  This
module keeps the statement walk, the legality checks a slice rewrite needs
on top of exact boxes (reads aligned lane for lane with the store, one
launch axis per dimension, every populated launch axis covered), the NumPy
source emission and the memo.

The contract mirrors a real compiler's legality checking: lowering is a
*best-effort specialisation*.  ``lower_launch`` returns a compiled entry
point when the body fits the supported shape and ``None`` otherwise, and the
executor falls back to the lockstep interpreter — behaviour, counters and
results stay identical either way (the generated code performs the very same
NumPy element operations, in the same order and dtype, that the lane
interpreter would, so results are bit-identical; the property suite in
``tests/property`` holds the compiler to that).

Supported body shape (the SIMT-generic idiom the memory-bound kernels use):

* call-free bindings of lane indices and guard masks, e.g.
  ``i = block_dim.x * block_idx.x + thread_idx.x`` and
  ``interior = (i > 0) & (i < nx - 1) & ...``;
* the ``if not any_lane(m): return`` early-exit idiom;
* ``i = compress_lanes(m, i)`` / ``i, j, k = compress_lanes(m, i, j, k)``
  range tightening;
* whole-tensor stores ``t[i, j, k] = expr`` whose every index is lane
  exact (``u[i - 1, j, k]``) and whose right-hand side is built from
  ``+ - * /``, scalar arguments, constants and aligned tensor reads.

Everything else — ``while`` loops, ``barrier()``, shared memory, masked
gathers, helper calls, data-dependent indexing — raises
:class:`LoweringUnsupported` internally and surfaces as a ``None`` entry
(i.e. "keep interpreting").

Specialisation key: the generated source bakes slice *bounds* (derived from
launch extents, scalar argument values and tensor shapes), so compiled
entries are memoised in a bounded LRU keyed by the kernel function and
exactly those ingredients.  Tensor *data* is rebound on every call (the
entry re-reads ``args[i].ptr``), so replaying a graph with new H2D bindings
reuses the compiled module.
"""

from __future__ import annotations

import ast
import re
import types
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..analysis.regions import LaneDim, concretize_launch, kernel_regions
from ..core.kernel import Kernel, LaunchConfig
from ..core.layout import LayoutTensor
from ..core.memo import Memo

__all__ = ["LoweringUnsupported", "lower_launch", "lower_source",
           "lowering_report"]


class LoweringUnsupported(Exception):
    """The kernel body falls outside the lowerable subset (internal)."""


#: scalar-argument references in generated source ("_s<combined index>")
_SCALAR_TOKEN = re.compile(r"_s(\d+)")
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


class _Tensor:
    """A tensor argument: combined-arg index plus its shape."""

    __slots__ = ("index", "shape")

    def __init__(self, index: int, shape: Tuple[int, ...]):
        self.index = index
        self.shape = shape


def _fail(reason: str) -> "LoweringUnsupported":
    return LoweringUnsupported(reason)


def _axis_extents(launch: LaunchConfig) -> Dict[str, int]:
    bd, gd = launch.block_dim, launch.grid_dim
    return {"x": bd.x * gd.x, "y": bd.y * gd.y, "z": bd.z * gd.z}


def _callee(node) -> Optional[str]:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _guard_mask(stmt) -> Optional[str]:
    """The mask name of ``if not any_lane(m): return``, else None."""
    if not (isinstance(stmt, ast.If) and not stmt.orelse
            and len(stmt.body) == 1 and isinstance(stmt.body[0], ast.Return)
            and stmt.body[0].value is None):
        return None
    test = stmt.test
    if (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and _callee(test.operand) == "any_lane"
            and len(test.operand.args) == 1
            and isinstance(test.operand.args[0], ast.Name)):
        return test.operand.args[0].id
    return None


def _binding_call(value) -> Optional[ast.Call]:
    """First call a binding makes, other than a top-level compress_lanes."""
    nodes = list(ast.walk(value))
    if _callee(value) == "compress_lanes":
        nodes = nodes[1:]
    return next((n for n in nodes if isinstance(n, ast.Call)), None)


def _slices(dims: Sequence[LaneDim]) -> str:
    return ", ".join(f"{d.lo + d.offset}:{d.hi + d.offset}" for d in dims)


class _BodyLowerer:
    """Lower one kernel body's statements into NumPy-slice source lines."""

    def __init__(self, params: Dict[str, Union[_Tensor, int]],
                 lanes: Dict[Tuple[int, int, str], Tuple[LaneDim, ...]],
                 extents: Dict[str, int]):
        self.params = params          # scalars map to their argument index
        self.lanes = lanes
        self.extents = extents
        self.bound: Set[str] = set()  # names the body binds itself
        self.lines: List[str] = []

    def _dims(self, node: ast.Subscript, tensor: _Tensor,
              kind: str) -> Tuple[LaneDim, ...]:
        """The lane-exact box of one access site, checked against *tensor*."""
        dims = self.lanes.get((node.lineno, node.col_offset, kind))
        if dims is None:
            raise _fail("tensor index is not lane-variable +/- constant")
        if len(dims) != len(tensor.shape):
            raise _fail("tensor subscript rank does not match its shape")
        for d, extent in zip(dims, tensor.shape):
            lo, hi = d.lo + d.offset, d.hi + d.offset
            if lo < 0 or hi > extent:
                raise _fail(f"slice [{lo}:{hi}] escapes tensor extent "
                            f"{extent}")
        return dims

    # ------------------------------------------------------------ expression
    def _emit_expr(self, node, store: Tuple[LaneDim, ...], lhs_index: int,
                   reads_lhs: List[bool]) -> str:
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (int, float)):
            return repr(node.value)
        if isinstance(node, ast.Name):
            sym = self.params.get(node.id)
            if isinstance(sym, int):
                return f"_s{sym}"
            raise _fail(f"unsupported value {node.id!r} in expression")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self._emit_expr(node.operand, store, lhs_index, reads_lhs)})"
        if isinstance(node, ast.BinOp):
            sym = _OPERATORS.get(type(node.op))
            if sym is None:
                raise _fail("unsupported arithmetic operator")
            left = self._emit_expr(node.left, store, lhs_index, reads_lhs)
            right = self._emit_expr(node.right, store, lhs_index, reads_lhs)
            return f"({left} {sym} {right})"
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            tensor = self.params.get(node.value.id)
            if not isinstance(tensor, _Tensor):
                raise _fail(f"subscript of non-tensor {node.value.id!r}")
            dims = self._dims(node, tensor, "r")
            # Alignment: a read must enumerate lanes exactly as the store
            # does, else the slice views would pair the wrong elements.
            if [(d.axis, d.lo, d.hi) for d in dims] != \
                    [(d.axis, d.lo, d.hi) for d in store]:
                raise _fail("tensor read indices are not aligned with the "
                            "store indices")
            if tensor.index == lhs_index:
                reads_lhs[0] = True
            return f"_d{tensor.index}[{_slices(dims)}]"
        raise _fail("unsupported expression in kernel body")

    # ------------------------------------------------------------- statement
    def lower_statements(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str):
                continue  # docstring
            if _guard_mask(stmt) in self.bound:
                continue  # empty lane sets produce empty slices: a no-op
            if isinstance(stmt, ast.Return) and stmt.value is None:
                break
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                raise _fail(f"unsupported statement {ast.dump(stmt)[:60]}")
            target = stmt.targets[0]
            if isinstance(target, ast.Subscript) \
                    and isinstance(target.value, ast.Name):
                self._lower_store(target, stmt.value)
                continue
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            if not all(isinstance(n, ast.Name) for n in names):
                raise _fail("unsupported assignment target")
            # A binding emits no code: the region analysis interprets lane
            # indices, masks and compress_lanes clamps, so it only has to be
            # free of side effects.  A rebound name no longer is its argument.
            call = _binding_call(stmt.value)
            if call is not None:
                bound = ", ".join(n.id for n in names)
                raise _fail(f"unsupported call {ast.unparse(call.func)}() in "
                            f"the binding of {bound!r}")
            for n in names:
                self.params.pop(n.id, None)
                self.bound.add(n.id)

    def _lower_store(self, target: ast.Subscript, value) -> None:
        tensor = self.params.get(target.value.id)
        if not isinstance(tensor, _Tensor):
            raise _fail(f"store into non-tensor {target.value.id!r}")
        dims = self._dims(target, tensor, "w")
        axes = [d.axis for d in dims]
        if len(set(axes)) != len(axes):
            raise _fail("store uses one launch axis for two dimensions")
        # Every populated launch axis must drive a store dimension, or two
        # lanes would scatter different values to one element.
        live_axes = {a for a, n in self.extents.items() if n > 1}
        if not live_axes <= set(axes):
            raise _fail("store does not cover every populated launch axis")
        reads_lhs = [False]
        rhs = self._emit_expr(value, dims, tensor.index, reads_lhs)
        if reads_lhs[0]:
            # The store target appears on its right-hand side: materialise
            # the RHS first, as the lane interpreter's gather does, so an
            # overlapping slice copy cannot read half-written data.
            rhs = f"({rhs}).copy()"
        self.lines.append(f"_d{tensor.index}[{_slices(dims)}] = {rhs}")


# ------------------------------------------------------------------ assembly
def _arg_signature(args: Sequence) -> Tuple:
    sig = []
    for a in args:
        if isinstance(a, LayoutTensor):
            sig.append(("T", a.shape, a.dtype.name))
        elif isinstance(a, (int, float, np.integer, np.floating)):
            sig.append(("S", type(a).__name__, a))
        else:
            raise _fail(f"unsupported argument type {type(a).__name__}")
    return tuple(sig)


def _lower_part(fn, args: Sequence, indices: Sequence[int],
                launch: LaunchConfig, tensors: Dict[int, _Tensor]) -> List[str]:
    """Source lines of one kernel body, its parameters bound to *indices*."""
    summary = kernel_regions(fn)
    fdef = summary.fndef
    if not summary.analyzable or fdef is None:
        raise _fail("kernel source is unavailable")
    if len(summary.params) != len(indices) or fdef.args.vararg \
            or fdef.args.kwarg or fdef.args.kwonlyargs:
        raise _fail("kernel signature does not match its captured arguments")
    params: Dict[str, Union[_Tensor, int]] = {}
    for pname, idx in zip(summary.params, indices):
        a = args[idx]
        if isinstance(a, LayoutTensor):
            if a.layout.order != "row_major" or not a.layout.is_contiguous:
                raise _fail(f"tensor {pname!r} is not row-major contiguous")
            params[pname] = tensors.setdefault(idx, _Tensor(idx, a.shape))
        else:
            params[pname] = idx
    regions = concretize_launch(fn, [args[i] for i in indices], launch)
    lowerer = _BodyLowerer(params, regions.lanes, _axis_extents(launch))
    lowerer.lower_statements(fdef.body)
    if not lowerer.lines:
        raise _fail("kernel body lowered to no stores")
    return lowerer.lines


def _fused_parts(kern) -> Optional[Tuple]:
    fn = kern.fn if isinstance(kern, Kernel) else kern
    return getattr(fn, "_repro_fused_parts", None)


def _generate(kern, args: Sequence, launch: LaunchConfig) -> Tuple[object, str]:
    """Build (entry, source) for a launch; raises LoweringUnsupported."""
    parts = _fused_parts(kern)
    if parts is None:
        fn = kern.fn if isinstance(kern, Kernel) else kern
        parts = ((fn, tuple(range(len(args)))),)
    tensors: Dict[int, _Tensor] = {}
    body_lines: List[str] = []
    for fn, indices in parts:
        fn = fn.fn if isinstance(fn, Kernel) else fn
        body_lines.extend(_lower_part(fn, args, indices, launch, tensors))

    name = kern.name if isinstance(kern, Kernel) else \
        getattr(kern, "__name__", "kernel")
    prelude = []
    for idx in sorted(tensors):
        shape = tensors[idx].shape
        size = int(np.prod(shape))
        prelude.append(
            f"_d{idx} = args[{idx}].ptr[:{size}].reshape({shape!r})")
    # Scalar prelude: reference every scalar index the body mentions.
    scalar_idx = sorted({int(m) for line in body_lines
                         for m in _SCALAR_TOKEN.findall(line)})
    for idx in scalar_idx:
        prelude.append(f"_s{idx} = args[{idx}]")
    indent = "\n    ".join(prelude + body_lines)
    source = (f"# lowered from kernel {name!r} for launch {launch}\n"
              f"def _entry(*args):\n    {indent}\n")
    module = types.ModuleType(f"_repro_lowered_{name}")
    code = compile(source, f"<lowered:{name}>", "exec")
    exec(code, module.__dict__)
    return module._entry, source


# -------------------------------------------------------------------- public
#: lowered specialisations per (kernel function, launch dims, argument
#: signature): ``(entry, source)`` or ``(None, reason)``
_lowering_memo = Memo("lowering_memo", 128)


def _lower(kern, args: Sequence, launch: LaunchConfig):
    """(entry, source-or-reason): memoised lowering of one specialisation."""
    fn = kern.fn if isinstance(kern, Kernel) else kern
    bd, gd = launch.block_dim, launch.grid_dim
    try:
        key = (fn, (bd.x, bd.y, bd.z, gd.x, gd.y, gd.z), _arg_signature(args))
    except LoweringUnsupported as exc:
        return None, str(exc)

    def generate():
        try:
            return _generate(kern, args, launch)
        except LoweringUnsupported as exc:
            return None, str(exc)

    return _lowering_memo.get_or_compute(key, generate)


def lower_launch(kern, args: Sequence, launch: LaunchConfig):
    """Compiled NumPy-slice entry for the launch, or None when unsupported.

    The entry takes the original positional ``*args`` and performs exactly
    the stores the kernel body would; the executor's ``mode="lowered"``
    dispatches through it and falls back to the interpreter on None.
    """
    return _lower(kern, args, launch)[0]


def lower_source(kern, args: Sequence, launch: LaunchConfig) -> Optional[str]:
    """The generated module source for the launch, or None when unsupported."""
    entry, source = _lower(kern, args, launch)
    return source if entry is not None else None


def lowering_report(kern, args: Sequence, launch: LaunchConfig) -> Dict[str, object]:
    """Structured lowering outcome for inspection tools (``repro graph``)."""
    entry, detail = _lower(kern, args, launch)
    name = kern.name if isinstance(kern, Kernel) else \
        getattr(kern, "__name__", "kernel")
    return {"kernel": name, "lowered": entry is not None,
            ("source" if entry is not None else "reason"): detail}
