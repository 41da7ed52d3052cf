import heapq
import math

import mpmath
import numpy as np
import pytest

from assoclab import confint
from assoclab.confint import (QuadratureError, QuadratureSpec, ZETA3,
                              adaptive_quad_2d, at_one_vertex_closed_form,
                              at_one_vertex_coefficient, beta_tilde_pointwise,
                              dilog, dilog_F, propagator_boundary_arg_residual,
                              propagator_closedness_residual,
                              propagator_diagonal_expansion,
                              propagator_first_to_boundary_residual,
                              propagator_omega, propagator_phi,
                              tetra_type1_integral, tetra_weight)

PI = math.pi


def test_dilog_against_oracle():
    pts = [0.3 + 0.4j, -1.5 + 2.0j, 2.5 - 0.3j, 0.5 + 0.866j, -0.2 - 0.7j,
           3.0 + 4.0j, 0.01 + 0.001j, -5.0 - 0.1j, 0.999 + 0.01j, -0.5 + 0.0j]
    for w in pts:
        ref = complex(mpmath.polylog(2, mpmath.mpc(w)))
        assert abs(dilog(w) - ref) < 1e-13


def test_dilog_special_values():
    assert dilog(0.0 + 0.0j) == 0
    assert abs(dilog(1.0 + 0.0j) - PI ** 2 / 6) < 1e-14
    # raw series oracle inside the radius of convergence
    w = 0.5 + 0.0j
    series = sum(w ** n / n ** 2 for n in range(1, 200))
    assert abs(dilog(w) - series) < 1e-12


def test_dilog_vectorized():
    ws = np.array([0.2 + 0.1j, -2.0 + 0.5j, 1.5 + 1.5j])
    vals = dilog(ws)
    for w, v in zip(ws, vals):
        assert abs(v - dilog(complex(w))) == 0


def test_disk_function_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        assert abs(dilog_F(np.conj(w)) + dilog_F(w)) < 1e-14
        assert dilog_F(w) > 0
    for x in (0.1, 0.5, 0.9):
        assert abs(dilog_F(x + 0.0j)) < 1e-14


def test_adaptive_quadrature_calibration():
    # a smooth integrand with known value
    spec = QuadratureSpec(tol=1e-10, max_cells=4000)
    val, err, cells = adaptive_quad_2d(
        lambda x, y: np.exp(-x * y), 0.0, 1.0, 0.0, 2.0, spec)
    ref = float(mpmath.quad(lambda x: (1 - mpmath.exp(-2 * x)) / x, [1e-30, 1]))
    assert abs(val - ref) <= max(err, 1e-9)


def test_tetra_type1_value():
    spec = QuadratureSpec(tol=2e-7, max_cells=40000)
    res = tetra_type1_integral(spec)
    honest = -3 * ZETA3 / (4 * PI ** 3)
    assert abs(res.value - honest) / abs(honest) < 1e-4
    assert abs(res.value - honest) < 5 * max(res.error, 1e-8)


def test_tetra_type1_half_plane_split():
    # upper and lower half plane contributions agree
    from assoclab.confint import _angle_measure_density

    def make(fhalf):
        def disk(r, th):
            w = r * np.exp(1j * th)
            return dilog_F(w) * _angle_measure_density(w) * r

        def outside(r, th):
            u = r * np.exp(1j * th)
            w = 1.0 / u
            return dilog_F(w) * _angle_measure_density(w) * r / r ** 4

        spec = QuadratureSpec(tol=2e-6, max_cells=20000)
        lo, hi = (0.0, PI) if fhalf == "upper" else (-PI, 0.0)
        v1, e1, _ = adaptive_quad_2d(disk, 1e-14, 1.0, lo, hi, spec)
        # inversion flips the half planes
        lo2, hi2 = (-PI, 0.0) if fhalf == "upper" else (0.0, PI)
        v2, e2, _ = adaptive_quad_2d(outside, 1e-14, 1.0, lo2, hi2, spec)
        return v1 + v2, e1 + e2

    up, eu = make("upper")
    lo, el = make("lower")
    assert abs(up - lo) < 5 * (eu + el + 1e-7)


def test_tetra_weight_scaling():
    spec = QuadratureSpec(tol=1e-6, max_cells=20000)
    w0 = tetra_weight(0.0, spec)
    assert w0.value == 0
    w_half = tetra_weight(0.5, spec)
    w_quarter = tetra_weight(0.25, spec)
    ratio = w_quarter.value / w_half.value
    assert abs(ratio - 9.0 / 16.0) < 1e-12  # same quadrature base, exact scaling
    from assoclab.confint import TETRA_PREFACTOR, TETRA_SYMMETRY_FACTOR, tetra_type1_integral
    base = tetra_type1_integral(spec)
    assembled = float(TETRA_SYMMETRY_FACTOR * TETRA_PREFACTOR) * base.value
    assert abs(w_half.value - assembled) < 1e-14


def test_at_one_vertex_against_closed_form():
    # The error estimate must bound the error of the core plane integral:
    # both coefficients are taken back to it by their prefactors.  The
    # inputs are the acceptance samples, points where a single chart with
    # subtracted local models missed tol while its estimate read <= tol,
    # two points close to a marked point, and 60 seeded points of the box
    # Re in [-0.2, 1.5], Im in [0.4, 0.7].
    spec = QuadratureSpec(tol=5e-8, max_cells=40000)
    samples = [(t, z) for z in (0.3 + 0.4j, -0.2 + 0.7j, 1.5 + 0.5j) for t in (0.25, 0.5, 0.75)]
    samples += [(0.5, 0.5054129325820493 + 0.6217372042207573j),
                (0.25, 0.37418206361987677 + 0.654838858721331j),
                (0.5, 0.99 + 0.01j), (0.5, 0.001 + 0.001j)]
    rng = np.random.default_rng(19)
    samples += [(float(rng.choice((0.25, 0.5, 0.75))),
                 complex(rng.uniform(-0.2, 1.5), rng.uniform(0.4, 0.7))) for _ in range(60)]
    for t, z in samples:
        a, b, err, cells = at_one_vertex_coefficient(t, z, spec)
        acf, bcf = at_one_vertex_closed_form(t, z)
        s = t * (1.0 - t)
        fa, fb = (1.0 - t) * s / (2.0 * PI ** 3), t * s / (2.0 * PI ** 3)
        deviation = max(abs(a - acf) / fa, abs(b - bcf) / fb)
        estimate = err / max(fa, fb)
        assert deviation <= estimate <= spec.tol, (t, z, deviation, estimate, cells)
    for t in (0.0, 1.0):
        a, b, err, _ = at_one_vertex_coefficient(t, 0.3 + 0.4j, spec)
        assert abs(a) <= err + 1e-15 and abs(b) <= err + 1e-15
    with pytest.raises(QuadratureError):
        at_one_vertex_coefficient(0.5, 0.0, spec)


def test_at_one_vertex_conjugate_symmetry():
    # the anti-holomorphic component at t is the conjugate of the
    # holomorphic component at 1 - t
    z = 0.4 + 0.6j
    for t in (0.25, 0.6):
        _, b_cf = at_one_vertex_closed_form(t, z)
        a_swap, _ = at_one_vertex_closed_form(1.0 - t, z)
        assert abs(b_cf - np.conj(a_swap)) < 1e-15


def test_propagator_values():
    t, z1, z2 = 0.3, 0.5 + 1.2j, 0.1 + 0.4j
    # components differentiate the potential (finite differences)
    h = 1e-6
    p = propagator_omega(t, z1, z2)
    num = (propagator_phi(t, z1 + h, z2) - propagator_phi(t, z1 - h, z2)) / (2 * h)
    assert abs((p.d_z1 + p.d_z1bar) - num) < 1e-8
    numy = (propagator_phi(t, z1 + 1j * h, z2) - propagator_phi(t, z1 - 1j * h, z2)) / (2 * h)
    assert abs(1j * (p.d_z1 - p.d_z1bar) - numy) < 1e-8
    with pytest.raises(QuadratureError):
        propagator_omega(t, z1, z1)


def test_propagator_closedness_and_boundaries():
    assert propagator_closedness_residual(0.3, 0.5 + 1.2j, 0.1 + 0.4j) < 1e-8
    for t in (0.0, 0.37, 0.5, 1.0):
        assert propagator_boundary_arg_residual(t, 0.4 + 0.9j, 0.2) < 1e-14
        assert propagator_first_to_boundary_residual(t, 0.3, 0.1 + 0.8j) < 1e-14


def test_propagator_diagonal_fit():
    for t in (0.0, 0.25, 0.5, 1.0):
        target = (1 - 2 * t) / (2j * PI)
        got = propagator_diagonal_expansion(t)
        assert abs(got - target) < 1e-6


def test_beta_tilde_pointwise():
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    pts = [0.31 + 0.77j, -0.4 + 1.2j]
    v_half = beta_tilde_pointwise(4, edges, 0.5, pts)
    assert v_half != 0
    for t in (0.25, 0.75):
        v = beta_tilde_pointwise(4, edges, t, pts)
        assert abs(v - (4 * t * (1 - t)) ** 2 * v_half) < 1e-12
    for t in (0.0, 1.0):
        assert beta_tilde_pointwise(4, edges, t, pts) == 0
    swapped = [edges[1], edges[0]] + edges[2:]
    assert abs(beta_tilde_pointwise(4, swapped, 0.5, pts) + v_half) < 1e-18
    with pytest.raises(QuadratureError):
        beta_tilde_pointwise(4, edges, 0.5, [0.31 + 0.77j, 0.31 + 0.77j])


def test_quadrature_deterministic():
    spec = QuadratureSpec(tol=1e-6, max_cells=5000)
    a = tetra_type1_integral(spec)
    b = tetra_type1_integral(spec)
    assert a.value == b.value and a.error == b.error and a.cells == b.cells


# -- the batched engine against the cell-by-cell loop it replaces -------------------

def _reference_cell_integral(f, ax, bx, ay, by, order):
    x, wx = np.polynomial.legendre.leggauss(order)
    mx, hx = 0.5 * (ax + bx), 0.5 * (bx - ax)
    my, hy = 0.5 * (ay + by), 0.5 * (by - ay)
    xs = mx + hx * x
    ys = my + hy * x
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vals = f(gx, gy)
    return hx * hy * np.einsum("i,j,ij->", wx, wx, vals)


def _reference_quad_2d(f, ax, bx, ay, by, spec):
    """One integrand call per cell and rule, fresh nodes each time."""
    counter = 0

    def make_cell(a, b, c, d):
        nonlocal counter
        coarse = _reference_cell_integral(f, a, b, c, d, spec.order)
        fine = _reference_cell_integral(f, a, b, c, d, spec.order_fine)
        err = abs(fine - coarse)
        counter += 1
        return (-err, counter, a, b, c, d, fine, err)

    heap = [make_cell(ax, bx, ay, by)]
    total_err = heap[0][7]
    cells = 1
    while total_err > spec.tol and cells < spec.max_cells:
        _, _, a, b, c, d, _, err = heapq.heappop(heap)
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        total_err -= err
        for (a2, b2, c2, d2) in ((a, mx, c, my), (mx, b, c, my),
                                 (a, mx, my, d), (mx, b, my, d)):
            cell = make_cell(a2, b2, c2, d2)
            total_err += cell[7]
            heapq.heappush(heap, cell)
            cells += 1
    return sum(item[6] for item in heap), total_err, cells


def _same_bits(x, y):
    return x == y and repr(x) == repr(y)


def test_batched_engine_matches_cell_loop_one_vertex(monkeypatch):
    spec = QuadratureSpec(tol=1e-9, max_cells=40000)
    for z in (0.3 + 0.4j, 1.5 + 0.5j, 0.86 + 0.62j, -0.7 + 0.2j):
        new = confint._cauchy_weighted_integral(z, spec)
        with monkeypatch.context() as m:
            m.setattr(confint, "adaptive_quad_2d", _reference_quad_2d)
            ref = confint._cauchy_weighted_integral(z, spec)
        assert new[2] > 100
        assert all(_same_bits(u, v) for u, v in zip(new, ref)), (z, new, ref)


def test_batched_engine_matches_cell_loop_type1(monkeypatch):
    for spec in (QuadratureSpec(tol=1e-8, max_cells=200000),
                 QuadratureSpec(tol=1e-12, max_cells=8),
                 QuadratureSpec(tol=1e-5, max_cells=1000, order=5, order_fine=7)):
        new = tetra_type1_integral(spec)
        with monkeypatch.context() as m:
            m.setattr(confint, "adaptive_quad_2d", _reference_quad_2d)
            ref = tetra_type1_integral(spec)
        assert _same_bits(new.value, ref.value)
        assert _same_bits(new.error, ref.error)
        assert new.cells == ref.cells
    # a real-valued integrand on a rectangle with integer corners
    f = lambda x, y: np.exp(-x * y)  # noqa: E731
    spec = QuadratureSpec(tol=1e-10, max_cells=4000)
    assert _reference_quad_2d(f, 0, 1, 0, 2, spec) == adaptive_quad_2d(f, 0, 1, 0, 2, spec)


def test_nodes_computed_once_per_order(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(order):
        calls.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    confint._gl_nodes.cache_clear()
    try:
        f = lambda x, y: np.exp(-x * y)  # noqa: E731
        for tol in (1e-6, 1e-8, 1e-10):
            adaptive_quad_2d(f, 0.0, 1.0, 0.0, 2.0, QuadratureSpec(tol=tol))
        adaptive_quad_2d(f, 0.0, 1.0, 0.0, 2.0, QuadratureSpec(order=5, order_fine=12))
        propagator_diagonal_expansion(0.5)
        propagator_diagonal_expansion(0.25)
        assert sorted(calls) == [5, 8, 12, 24]
        x, w = confint._gl_nodes(8)
        assert not x.flags.writeable and not w.flags.writeable
    finally:
        confint._gl_nodes.cache_clear()


def test_type1_converged_flag():
    ok = tetra_type1_integral(QuadratureSpec(tol=1e-6))
    assert ok.converged and ok.error <= 1e-6
    short = tetra_type1_integral(QuadratureSpec(tol=1e-12, max_cells=8))
    assert not short.converged and short.error > 1e-12
    assert tetra_weight(0.5, QuadratureSpec(tol=1e-12, max_cells=8)).converged is False
    assert short.to_json()["converged"] is False
