"""Electron-repulsion integrals over contracted s-type Gaussians.

Shared by the device kernel, the NumPy reference and the Schwarz-screening
machinery so that every code path evaluates exactly the same integral.

For normalised primitives with exponents ``a, b, c, d`` centred at
``A, B, C, D`` the (ss|ss) integral is::

    p   = a + b                q   = c + d
    P   = (aA + bB) / p        Q   = (cC + dD) / q
    rho = p q / (p + q)
    (ab|cd) = 2 pi^2.5 / (p q sqrt(p+q))
              * exp(-a b/p |A-B|^2 - c d/q |C-D|^2)
              * F0(rho |P-Q|^2)

where ``F0`` is the zeroth Boys function.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np
from scipy.special import erf as _erf

__all__ = ["boys_f0", "boys_f0_array", "contracted_eri", "contracted_eri_batch",
           "pair_schwarz", "schwarz_identical_basis", "TWO_PI_POW_2_5"]

TWO_PI_POW_2_5 = 2.0 * math.pi ** 2.5

#: below this argument the Boys function uses its Taylor expansion
_F0_SMALL = 1e-12


def boys_f0(t: float) -> float:
    """Zeroth-order Boys function ``F0(t)``.

    Per-lane arrays (the vectorized executor) dispatch to
    :func:`boys_f0_array`, so one kernel body serves both execution
    regimes.  Scalars use the same SciPy ``erf`` and the same operation
    order, so ``boys_f0(t) == boys_f0_array(t)`` bit for bit.
    """
    if isinstance(t, np.ndarray):
        return boys_f0_array(t)
    if t < _F0_SMALL:
        return 1.0 - t / 3.0
    return float(0.5 * math.sqrt(math.pi / t) * _erf(math.sqrt(t)))


def boys_f0_array(t: np.ndarray) -> np.ndarray:
    """Vectorised zeroth-order Boys function (NumPy implementation)."""
    t = np.asarray(t, dtype=np.float64)
    t_safe = np.where(t < _F0_SMALL, 1.0, t)
    with np.errstate(invalid="ignore", divide="ignore"):
        large = 0.5 * np.sqrt(np.pi / t_safe) * _erf(np.sqrt(t_safe))
    small = 1.0 - t / 3.0
    return np.where(t < _F0_SMALL, small, large)


def contracted_eri(
    pos_a: Sequence[float], pos_b: Sequence[float],
    pos_c: Sequence[float], pos_d: Sequence[float],
    xpnt: Sequence[float], coef: Sequence[float],
) -> float:
    """Contracted (ss|ss) ERI over four centres (scalar, loop implementation).

    This is the exact arithmetic executed per surviving quadruple by the
    device kernel; the coefficients are expected to already include the
    primitive normalisation (see :func:`normalise_coefficients`).
    """
    ax, ay, az = float(pos_a[0]), float(pos_a[1]), float(pos_a[2])
    bx, by, bz = float(pos_b[0]), float(pos_b[1]), float(pos_b[2])
    cx, cy, cz = float(pos_c[0]), float(pos_c[1]), float(pos_c[2])
    dx, dy, dz = float(pos_d[0]), float(pos_d[1]), float(pos_d[2])

    rab2 = (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2
    rcd2 = (cx - dx) ** 2 + (cy - dy) ** 2 + (cz - dz) ** 2

    ngauss = len(xpnt)
    eri = 0.0
    for ib in range(ngauss):
        for jb in range(ngauss):
            aij = xpnt[ib] + xpnt[jb]
            dij = coef[ib] * coef[jb] * math.exp(-xpnt[ib] * xpnt[jb] / aij * rab2)
            if dij == 0.0:
                continue
            pijx = (xpnt[ib] * ax + xpnt[jb] * bx) / aij
            pijy = (xpnt[ib] * ay + xpnt[jb] * by) / aij
            pijz = (xpnt[ib] * az + xpnt[jb] * bz) / aij
            for kb in range(ngauss):
                for lb in range(ngauss):
                    akl = xpnt[kb] + xpnt[lb]
                    dkl = coef[kb] * coef[lb] * math.exp(
                        -xpnt[kb] * xpnt[lb] / akl * rcd2)
                    if dkl == 0.0:
                        continue
                    pklx = (xpnt[kb] * cx + xpnt[lb] * dx) / akl
                    pkly = (xpnt[kb] * cy + xpnt[lb] * dy) / akl
                    pklz = (xpnt[kb] * cz + xpnt[lb] * dz) / akl
                    rpq2 = ((pijx - pklx) ** 2 + (pijy - pkly) ** 2
                            + (pijz - pklz) ** 2)
                    aijkl = aij * akl / (aij + akl)
                    f0t = boys_f0(aijkl * rpq2)
                    prefac = TWO_PI_POW_2_5 / (aij * akl * math.sqrt(aij + akl))
                    eri += dij * dkl * prefac * f0t
    return eri


def contracted_eri_batch(
    pos_a: np.ndarray, pos_b: np.ndarray,
    pos_c: np.ndarray, pos_d: np.ndarray,
    xpnt: Sequence[float], coef: Sequence[float],
) -> np.ndarray:
    """Contracted (ss|ss) ERIs for arrays of centre quadruples at once.

    ``pos_a .. pos_d`` are ``(N, 3)`` arrays (one row per quadruple); the
    return value is the ``(N,)`` array of integrals.  The arithmetic is the
    same term-by-term accumulation as the scalar :func:`contracted_eri` (the
    bit-level oracle), with the per-quadruple work vectorised so only the
    ``ngauss^4`` primitive-product loop remains in Python.
    """
    pos_a = np.atleast_2d(np.asarray(pos_a, dtype=np.float64))
    pos_b = np.atleast_2d(np.asarray(pos_b, dtype=np.float64))
    pos_c = np.atleast_2d(np.asarray(pos_c, dtype=np.float64))
    pos_d = np.atleast_2d(np.asarray(pos_d, dtype=np.float64))
    xpnt = np.asarray(xpnt, dtype=np.float64)
    coef = np.asarray(coef, dtype=np.float64)
    ngauss = len(xpnt)

    diff_ab = pos_a - pos_b
    diff_cd = pos_c - pos_d
    rab2 = np.einsum("ij,ij->i", diff_ab, diff_ab)
    rcd2 = np.einsum("ij,ij->i", diff_cd, diff_cd)

    # Precompute the primitive-pair quantities for the bra (a, b) and ket
    # (c, d) sides: ngauss^2 exponential prefactors and product centres each,
    # instead of ngauss^4 of them inside the combined loop.
    bra = []  # (aij, dij(N,), pij(N,3)) per (ib, jb)
    ket = []  # (akl, dkl(N,), pkl(N,3)) per (kb, lb)
    for ib in range(ngauss):
        for jb in range(ngauss):
            aij = xpnt[ib] + xpnt[jb]
            dij = coef[ib] * coef[jb] * np.exp(-xpnt[ib] * xpnt[jb] / aij * rab2)
            pij = (xpnt[ib] * pos_a + xpnt[jb] * pos_b) / aij
            bra.append((aij, dij, pij))
    for kb in range(ngauss):
        for lb in range(ngauss):
            akl = xpnt[kb] + xpnt[lb]
            dkl = coef[kb] * coef[lb] * np.exp(-xpnt[kb] * xpnt[lb] / akl * rcd2)
            pkl = (xpnt[kb] * pos_c + xpnt[lb] * pos_d) / akl
            ket.append((akl, dkl, pkl))

    eri = np.zeros(pos_a.shape[0], dtype=np.float64)
    for aij, dij, pij in bra:
        for akl, dkl, pkl in ket:
            dpq = pij - pkl
            rpq2 = np.einsum("ij,ij->i", dpq, dpq)
            aijkl = aij * akl / (aij + akl)
            f0t = boys_f0_array(aijkl * rpq2)
            prefac = TWO_PI_POW_2_5 / (aij * akl * math.sqrt(aij + akl))
            eri += dij * dkl * prefac * f0t
    return eri


def pair_schwarz(positions: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray,
                 xpnt: np.ndarray, coef: np.ndarray, *,
                 chunk: int = 65536, approximate: bool = False) -> np.ndarray:
    """Schwarz bounds ``sqrt((ij|ij))`` for a list of basis-function pairs.

    ``approximate=True`` keeps only the dominant (most diffuse) primitive,
    which is accurate enough for the *counting* use of screening in the
    timing model and keeps the 1024-atom case cheap.
    """
    positions = np.asarray(positions, dtype=np.float64)
    xpnt = np.asarray(xpnt, dtype=np.float64)
    coef = np.asarray(coef, dtype=np.float64)
    if approximate:
        keep = int(np.argmax(np.abs(coef)))
        xpnt = xpnt[keep:keep + 1]
        coef = coef[keep:keep + 1]

    out = np.empty(len(pair_i), dtype=np.float64)
    for start in range(0, len(pair_i), chunk):
        a_pos = positions[pair_i[start:start + chunk]]
        b_pos = positions[pair_j[start:start + chunk]]
        eri = contracted_eri_batch(a_pos, b_pos, a_pos, b_pos, xpnt, coef)
        out[start:start + chunk] = np.sqrt(np.maximum(eri, 0.0))
    return out


def schwarz_identical_basis(rab2: np.ndarray, xpnt: np.ndarray, coef: np.ndarray,
                            *, samples: int = 4096) -> np.ndarray:
    """Schwarz bounds for pairs of *identical* s-type contractions.

    When every basis function shares the same exponents and coefficients (the
    helium decks), the bound ``sqrt((ij|ij))`` depends only on the squared
    centre distance, so it can be tabulated exactly on a distance grid and
    interpolated.  This keeps the 1024-atom case (half a million pairs with
    1296 primitive products each) inexpensive without giving up accuracy.
    """
    rab2 = np.asarray(rab2, dtype=np.float64)
    if rab2.size == 0:
        return np.zeros(0, dtype=np.float64)
    r2max = float(np.max(rab2))
    grid = np.linspace(0.0, r2max, samples)
    xpnt = np.asarray(xpnt, dtype=np.float64)
    coef = np.asarray(coef, dtype=np.float64)
    ngauss = len(xpnt)

    eri = np.zeros_like(grid)
    for ib in range(ngauss):
        for jb in range(ngauss):
            aij = xpnt[ib] + xpnt[jb]
            dij = coef[ib] * coef[jb] * np.exp(-xpnt[ib] * xpnt[jb] / aij * grid)
            # Centre of the (i, j) product along the A-B axis, as a fraction.
            fij = xpnt[jb] / aij
            for kb in range(ngauss):
                for lb in range(ngauss):
                    akl = xpnt[kb] + xpnt[lb]
                    dkl = coef[kb] * coef[lb] * np.exp(
                        -xpnt[kb] * xpnt[lb] / akl * grid)
                    fkl = xpnt[lb] / akl
                    rpq2 = (fij - fkl) ** 2 * grid
                    aijkl = aij * akl / (aij + akl)
                    prefac = TWO_PI_POW_2_5 / (aij * akl * np.sqrt(aij + akl))
                    eri += dij * dkl * prefac * boys_f0_array(aijkl * rpq2)
    table = np.sqrt(np.maximum(eri, 0.0))
    return np.interp(rab2, grid, table)
