"""Configuration-space weight integrals and the singular propagator family.

All quadrature is deterministic adaptive tensor Gauss-Legendre over explicit
charts: polar charts absorb the 1/r singularities at marked points, and a
symmetry under inversion or a compactified radius handles infinity.  Where an
integrand is singular at several points, a partition of unity gives each
point its own polar chart.  Error estimates come from comparing two
quadrature orders per cell and are accumulated globally.

The Gauss-Legendre nodes and weights are computed once per order and
shared.  When a cell is split, the coarse and fine grids of its four
children are evaluated in one vectorised integrand call; each child is then
reduced on its own, exactly as a cell-by-cell loop would, so the refinement
sequence and the results do not depend on the batching.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import CheckError

TWO_PI = 2.0 * math.pi
PI = math.pi


class QuadratureError(CheckError):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    tol: float = 1e-6
    max_cells: int = 60_000
    order: int = 8
    order_fine: int = 12


@dataclass
class WeightResult:
    value: complex
    error: float
    cells: int
    converged: bool          # the error estimate met the requested tolerance
    t: float | None = None

    def to_json(self) -> dict:
        v = self.value
        val = {"re": float(np.real(v)), "im": float(np.imag(v))}
        return {"value": val, "error": self.error, "cells": self.cells,
                "converged": self.converged, "t": self.t}


@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are returned read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def adaptive_quad_2d(f, ax, bx, ay, by, spec: QuadratureSpec):
    """Deterministic adaptive quadrature of f over [ax,bx] x [ay,by].

    ``f`` maps 1-D coordinate arrays to (possibly complex) value arrays,
    elementwise.  The cell with the largest error estimate is split into
    four; the coarse and fine grids of all four children go to ``f`` in one
    call.  Returns (value, error_estimate, cells_used).
    """
    x0, w0 = _gl_nodes(spec.order)
    x1, w1 = _gl_nodes(spec.order_fine)
    n0, n1 = len(x0), len(x1)
    # both tensor grids of a cell, flattened row-major, on [-1, 1]^2
    ux = np.concatenate((np.repeat(x0, n0), np.repeat(x1, n1)))
    uy = np.concatenate((np.tile(x0, n0), np.tile(x1, n1)))
    counter = 0

    def make_cells(rects):
        """Heap entries of the given cells, from one evaluation of ``f``."""
        nonlocal counter
        xa, xb, ya, yb = np.array(rects, dtype=float).T[:, :, None]
        px = 0.5 * (xa + xb) + 0.5 * (xb - xa) * ux
        py = 0.5 * (ya + yb) + 0.5 * (yb - ya) * uy
        vals = f(px.ravel(), py.ravel()).reshape(len(rects), -1)
        out = []
        for (a, b, c, d), v in zip(rects, vals):
            hx, hy = 0.5 * (b - a), 0.5 * (d - c)
            coarse = hx * hy * np.einsum("i,j,ij->", w0, w0, v[:n0 * n0].reshape(n0, n0))
            fine = hx * hy * np.einsum("i,j,ij->", w1, w1, v[n0 * n0:].reshape(n1, n1))
            err = abs(fine - coarse)
            counter += 1
            out.append((-err, counter, a, b, c, d, fine, err))
        return out

    heap = make_cells([(ax, bx, ay, by)])
    total_err = heap[0][7]
    cells = 1
    while total_err > spec.tol and cells < spec.max_cells:
        neg_err, _, a, b, c, d, val, err = heapq.heappop(heap)
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        total_err -= err
        for cell in make_cells(((a, mx, c, my), (mx, b, c, my),
                                (a, mx, my, d), (mx, b, my, d))):
            total_err += cell[7]
            heapq.heappush(heap, cell)
            cells += 1
    value = sum(item[6] for item in heap)
    return value, total_err, cells


# -- dilogarithm and the disk function ------------------------------------------

_BERN = [1.0, -0.5, 1.0 / 6, 0.0, -1.0 / 30, 0.0, 1.0 / 42, 0.0, -1.0 / 30, 0.0,
         5.0 / 66, 0.0, -691.0 / 2730, 0.0, 7.0 / 6, 0.0, -3617.0 / 510, 0.0,
         43867.0 / 798, 0.0, -174611.0 / 330]


def _dilog_core(z):
    """Li2 on |z| <= 1, Re z <= 1/2, via the Bernoulli series in -log(1-z)."""
    u = -np.log1p(-z)
    total = np.zeros_like(u)
    term = u.copy()            # u^{n+1}/(n+1)! at n = 0
    total += term * _BERN[0]
    for n in range(1, len(_BERN)):
        term = term * u / (n + 1)
        if _BERN[n]:
            total += term * _BERN[n]
    # tail: |B_n u^(n+1)/(n+1)!| decays like (|u|/2pi)^n here
    return total


def dilog(w):
    """Complex dilogarithm, principal branch, vectorized, ~1e-14 accurate."""
    z = np.asarray(w, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).copy()
    add = np.zeros_like(z)
    mul = np.ones_like(z)

    big = np.abs(z) > 1.0
    if np.any(big):
        zb = z[big]
        add_b = -(PI ** 2) / 6.0 - 0.5 * np.log(-zb) ** 2
        z[big] = 1.0 / zb
        add[big] += add_b
        mul[big] = -1.0

    ones = z == 1.0
    if np.any(ones):
        z[ones] = 0.0
        add[ones] += mul[ones] * (PI ** 2) / 6.0
        mul[ones] = 0.0

    right = (np.real(z) > 0.5) & ~ones
    if np.any(right):
        zr = z[right]
        add_r = (PI ** 2) / 6.0 - np.log(zr) * np.log1p(-zr)
        z[right] = 1.0 - zr
        add[right] += mul[right] * add_r
        mul[right] = -mul[right]

    out = mul * _dilog_core(z) + add
    return out[0] if scalar else out


def dilog_F(w):
    """2/pi^2 times the Bloch-Wigner function D(w) = Im(Li2(w) + log|w| log(1-w)).

    Antisymmetric under conjugation and under w -> 1/w, positive on the
    upper half plane, vanishing on the real axis away from 0 and 1.
    """
    z = np.asarray(w, dtype=complex)
    return (2.0 / PI ** 2) * np.imag(dilog(z) + np.log(np.abs(z)) * np.log(1.0 - z))


# -- the tetrahedron weight -------------------------------------------------------

ZETA3 = 1.2020569031595942854


def _angle_measure_density(w):
    """Density of the normalized angle-form product against dx dy.

    Equals -y / (4 pi^2 |w|^2 |w-1|^2): a negative volume form on the upper
    half plane.
    """
    y = np.imag(w)
    return -y / (4.0 * PI ** 2 * (np.abs(w) ** 2) * (np.abs(w - 1.0) ** 2))


def tetra_type1_integral(spec: QuadratureSpec = QuadratureSpec()) -> WeightResult:
    """Twice the disk integral of F against the normalized angle-form measure.

    F(1/u) = -F(u), and under w = 1/u the measure turns to minus itself, so
    the exterior of the unit disk gives what the disk gives.  The disk runs
    at tol/2 with the whole cell budget; ``cells`` counts the cells it
    evaluated.  The value is -3 zeta(3)/(4 pi^3), three times the paper's.
    """
    def disk(r, th):
        w = r * np.exp(1j * th)
        return dilog_F(w) * _angle_measure_density(w) * r

    v, e, cells = adaptive_quad_2d(disk, 1e-14, 1.0, -PI, PI, replace(spec, tol=spec.tol / 2))
    return WeightResult(value=2 * v, error=2 * e, cells=cells, converged=bool(2 * e <= spec.tol))


# Recorded bookkeeping for the assembled tetrahedron weight: five equal
# contributions survive the reduction; each carries the log-factor and four
# angle-form normalizations whose rational residue against the normalized
# disk integral is 1/8 (one factor i of unit modulus is dropped and absorbed
# into the flow-normalization ratio recorded below).
TETRA_SYMMETRY_FACTOR = 5
TETRA_PREFACTOR = Fraction(1, 8)

# The flow normalization pinned by the boundary condition satisfies
# lambda = RECORDED_LAMBDA_RATIO * i * (tetra weight at t = 1/2); the ratio
# is recorded here and re-derived from scratch by the acceptance suite
# (lambda from the ODE boundary matching, the weight from quadrature).
RECORDED_LAMBDA_RATIO = Fraction(16)


def tetra_weight(t: float, spec: QuadratureSpec = QuadratureSpec()) -> WeightResult:
    """Assembled tetrahedron weight: symmetry factor, prefactor and t-scaling."""
    return tetra_weight_from_type1(tetra_type1_integral(spec), t)


def tetra_weight_from_type1(base: WeightResult, t: float) -> WeightResult:
    """The tetrahedron weight at t from an already computed type-I integral."""
    scale = (4.0 * t * (1.0 - t)) ** 2
    factor = float(TETRA_SYMMETRY_FACTOR * TETRA_PREFACTOR)
    return WeightResult(value=scale * factor * base.value,
                        error=scale * factor * base.error,
                        cells=base.cells, converged=base.converged, t=t)


# -- the propagator family --------------------------------------------------------

ALPHA = 1.0 / (2j * PI)


@dataclass
class PropagatorEval:
    t: float
    d_z1: complex
    d_z1bar: complex
    d_z2: complex
    d_z2bar: complex


def propagator_omega(t: float, z1: complex, z2: complex) -> PropagatorEval:
    """Components of the closed 1-form in (dz1, dz1bar, dz2, dz2bar)."""
    if z1 == z2:
        raise QuadratureError("coincident points")
    z1b, z2b = np.conj(z1), np.conj(z2)
    s = 1.0 - t
    d_z1 = s * ALPHA / (z1 - z2) + t * ALPHA / (z1 - z2b)
    d_z1bar = -s * ALPHA / (z1b - z2) - t * ALPHA / (z1b - z2b)
    d_z2 = s * ALPHA * (1.0 / (z1b - z2) - 1.0 / (z1 - z2))
    d_z2bar = t * ALPHA * (1.0 / (z1b - z2b) - 1.0 / (z1 - z2b))
    return PropagatorEval(t, complex(d_z1), complex(d_z1bar), complex(d_z2), complex(d_z2bar))


def propagator_boundary_arg_residual(t: float, z1: complex, x2: float) -> float:
    """Distance from (1/pi) d arg(z1 - z2) when the second point is real."""
    p = propagator_omega(t, z1, complex(x2, 0.0))
    d = z1 - x2
    # (1/pi) d arg(z) has components (1/2 pi i)(dz/z - dzbar/zbar)
    ref_z1 = 1.0 / (2j * PI) / d
    ref_z1bar = -1.0 / (2j * PI) / np.conj(d)
    ref_x2 = -(ref_z1 + ref_z1bar)
    # the restriction to the stratum sees dz1, dz1bar and the real dx2 only
    worst = max(abs(p.d_z1 - ref_z1), abs(p.d_z1bar - ref_z1bar),
                abs((p.d_z2 + p.d_z2bar) - ref_x2))
    return worst


def propagator_first_to_boundary_residual(t: float, x1: float, z2: complex) -> float:
    """The form must restrict to zero when the first point is on the axis."""
    p = propagator_omega(t, complex(x1, 1e-300), z2)
    # restriction to the stratum keeps dx1, dz2, dz2bar
    return max(abs(p.d_z1 + p.d_z1bar), abs(p.d_z2), abs(p.d_z2bar))


def propagator_diagonal_expansion(t: float, rho: float = 1e-7,
                                  thetas: int = 4) -> complex:
    """Fitted d(rho)/rho coefficient of the form near the diagonal.

    Integrates the z1-leg of the form along short radial segments at
    z1 = i + r e^{i theta}, z2 = i; the logarithmic coefficient is the
    average over directions of I(rho, 2 rho) / log 2.
    """
    x, wq = _gl_nodes(24)
    acc = 0.0 + 0.0j
    for k in range(thetas):
        theta = TWO_PI * (k + 0.37) / thetas
        e = np.exp(1j * theta)
        a, b = rho, 2.0 * rho
        rr = 0.5 * (a + b) + 0.5 * (b - a) * x
        val = 0.0 + 0.0j
        for r, wgt in zip(rr, wq):
            p = propagator_omega(t, 1j + r * e, 1j)
            val += wgt * (p.d_z1 * e + p.d_z1bar * np.conj(e))
        val *= 0.5 * (b - a)
        acc += val / math.log(2.0)
    return acc / thetas


# -- the one-internal-vertex connection term ---------------------------------------

def at_one_vertex_closed_form(t: float, z: complex) -> tuple[complex, complex]:
    """Closed form of the (dz, dzbar) coefficients of the one-vertex term."""
    lz = math.log(abs(z))
    l1z = math.log(abs(1.0 - z))
    s = t * (1.0 - t)
    a = (1.0 - t) * s / (2.0 * PI ** 2) * (l1z / z + lz / (1.0 - z))
    b = t * s / (2.0 * PI ** 2) * (l1z / np.conj(z) + lz / (1.0 - np.conj(z)))
    return complex(a), complex(b)


def _cauchy_weighted_integral(z: complex, spec: QuadratureSpec) -> tuple[complex, float, int]:
    """integral of f(w) = Im(w) / (|w|^2 |w-1|^2 (w-z)) over the plane.

    A partition of unity over the points p in {0, 1, z},
    chi_p = prod_{q != p} |w-q|^2 / sum_{p'} prod_{q != p'} |w-q|^2, leaves
    chi_p f = Im(w) conj(w-z) / (|w-p|^2 sum_{p'} ...), smooth away from p.
    Each piece is integrated on a polar chart at p, w = p + r e^{i theta},
    with r = R s / (1 - s) and R the distance from p to the nearest other
    point; r dr/ds = r^2 / (s (1 - s)) cancels the |w-p|^2.  Each chart gets
    a third of the tolerance and of the cell budget.
    """
    points = (0.0, 1.0, complex(z))
    third = replace(spec, tol=spec.tol / 3, max_cells=spec.max_cells // 3)
    value, err, cells = 0.0, 0.0, 0
    for p in points:
        radius = min(abs(p - q) for q in points if q != p)

        def chart(s, th, p=p, radius=radius):
            u = radius * s / (1.0 - s) * np.exp(1j * th)      # w - p
            d0, d1, dz = (np.abs(u + (p - q)) ** 2 for q in points)
            g = np.imag(u + p) * np.conj(u + (p - z))
            return g / ((d1 * dz + d0 * dz + d0 * d1) * s * (1.0 - s))

        v, e, c = adaptive_quad_2d(chart, 0.0, 1.0, -PI, PI, third)
        value, err, cells = value + v, err + e, cells + c
    return value, err, cells


def at_one_vertex_coefficient(t: float, z: complex,
                              spec: QuadratureSpec = QuadratureSpec()
                              ) -> tuple[complex, complex, float, int]:
    """Quadrature of the fiber integral for the one-internal-vertex term.

    Returns (dz coefficient, dzbar coefficient, error estimate, cells).
    """
    if z in (0.0, 1.0):
        raise QuadratureError("z must avoid the marked points")
    core, err, cells = _cauchy_weighted_integral(z, spec)
    s = t * (1.0 - t)
    # fiber orientation: dz-component carries +(1-t), dzbar-component -t,
    # against the core integral taken in the standard plane orientation
    a = (1.0 - t) * s / (2.0 * PI ** 3 * 1j) * core
    b = -t * s / (2.0 * PI ** 3 * 1j) * np.conj(core)
    scale = s * max(1.0 - t, t) / (2.0 * PI ** 3)
    return complex(a), complex(b), err * scale, cells


# -- pointwise evaluation of the boundary integrand --------------------------------

def _psgn_pair(i: int, j: int) -> int:
    """Sign of the permutation moving positions (i, j) to the front."""
    s = (-1) ** i  # move i to front across i earlier entries
    s *= (-1) ** (j - 1 if j > i else j)
    return s


def beta_tilde_pointwise(n: int, edges: list[tuple[int, int]], t: float,
                         points: list[complex]) -> complex:
    """Top coefficient of the boundary integrand at a marked configuration.

    Vertices 1 and 2 sit at 0 and 1; ``points`` places the remaining n-2
    vertices.  The coefficient is taken against dz3 ^ dz3bar ^ ... in the
    complex coordinate basis.
    """
    if len(points) != n - 2:
        raise QuadratureError(f"need {n-2} free points")
    pos = {1: 0.0 + 0.0j, 2: 1.0 + 0.0j}
    for idx, p in enumerate(points, start=3):
        pos[idx] = complex(p)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if pos[a] == pos[b]:
                raise QuadratureError("coincident points")

    m = len(edges)
    dim = 2 * (n - 2)

    def edge_row(e):
        u, v = e
        zu, zv = pos[u], pos[v]
        row = np.zeros(dim, dtype=complex)
        alpha = 1.0 / (2j * PI)
        coeff_z = (1.0 - t) * alpha / (zu - zv)
        coeff_zb = -t * alpha / np.conj(zu - zv)
        for vert, sign in ((u, +1.0), (v, -1.0)):
            if vert <= 2:
                continue
            col = 2 * (vert - 3)
            row[col] += sign * coeff_z
            row[col + 1] += sign * coeff_zb
        return row

    rows = [edge_row(e) for e in edges]
    total = 0.0 + 0.0j
    for ip in range(m):
        u, v = edges[ip]
        log_factor = (1.0 / (1j * PI)) * math.log(abs(pos[u] - pos[v])) \
            if pos[u] != pos[v] else 0.0
        if log_factor == 0.0:
            continue
        for ie in range(m):
            if ie == ip:
                continue
            rest = [rows[j] for j in range(m) if j not in (ip, ie)]
            if len(rest) != dim:
                continue
            det = np.linalg.det(np.array(rest))
            total += _psgn_pair(ip, ie) * log_factor * det
    return complex(total)
