import cmath
import math

import pytest

from assoclab.associator import Associator, check_hexagon, check_pentagon, to_taut3
from assoclab.kz import (FuchsSeries, KZError, MzvError, _assemble_phi, build_phi_kz,
                         kz_regularized_solution, mzv, ode_residual)
from assoclab.ncalg import NCSeries, nc_project_lie

TWO_PI_I = 2j * math.pi
ALPHA = 1.0 / TWO_PI_I


def recurrence_at_one(m_order, order):
    """Reference: the Frobenius recurrence run at 1, independently of the one at 0.

    (m - alpha ad_Y) d_m = -alpha X (d_0 + ... + d_{m-1})
    """
    X = NCSeries.generator(2, order, 1, 1.0 + 0.0j)
    Y = NCSeries.generator(2, order, 2, 1.0 + 0.0j)
    coeffs = [NCSeries.unit(2, order, 1.0 + 0.0j)]
    running = coeffs[0]
    for mth in range(1, m_order + 1):
        c = (X * running).scale(-ALPHA).scale(1.0 / mth)
        term = c
        for _ in range(order):
            term = Y.bracket(term).scale(ALPHA / mth)
            if term.is_zero():
                break
            c = c + term
        coeffs.append(c)
        running = running + c
    return FuchsSeries(order, coeffs)


def ode_residual_at_one(f1, z):
    """Residual of the solution tame(1-z) (1-z)^{alpha Y} against the equation at z."""
    order = f1.order
    X = NCSeries.generator(2, order, 1, 1.0 + 0.0j)
    Y = NCSeries.generator(2, order, 2, 1.0 + 0.0j)
    x = 1.0 - z
    tame = f1.evaluate(x)
    dtame = f1.derivative_at(x).scale(-1.0)
    w = Y.scale(ALPHA * cmath.log(x)).exp()
    f = tame * w
    df = dtame * w + tame * Y.scale(-ALPHA / x) * w
    rhs = (X.scale(ALPHA / z) + Y.scale(ALPHA / (z - 1.0))) * f
    return df.distance(rhs)


def zeta3_single_sum(n0=2_000_000):
    """Independent oracle: direct sum plus an integral-bracket midpoint tail."""
    direct = math.fsum(m ** -3.0 for m in range(1, n0 + 1))
    tail_mid = 0.5 * (n0 + 0.5) ** -2.0
    return direct + tail_mid


def test_mzv_classics():
    assert abs(mzv((2,))[0] - math.pi ** 2 / 6) < 1e-12
    assert abs(mzv((3,))[0] - zeta3_single_sum()) < 1e-12
    assert abs(mzv((2, 1))[0] - mzv((3,))[0]) < 1e-10
    assert abs(mzv((4,))[0] - math.pi ** 4 / 90) < 1e-12
    # a depth-2 shuffle relation as a second oracle
    lhs = mzv((3, 2))[0] + mzv((2, 3))[0]
    rhs = mzv((2,))[0] * mzv((3,))[0] - mzv((5,))[0]
    assert abs(lhs - rhs) < 1e-11


def test_mzv_errors():
    with pytest.raises(MzvError):
        mzv((1, 2))
    with pytest.raises(MzvError):
        mzv(())
    with pytest.raises(MzvError):
        mzv((2, 1, 1), tol=1e-17)  # below the rounding of a double
    with pytest.raises(MzvError):
        mzv((3, 1), tol=0.0)


def test_mzv_duality():
    # duality zeta(w) = zeta(rev-swap(w)) holds term by term in the
    # convolution, so the closed forms and the direct sum are the real checks
    tol = 1e-15
    z5 = math.fsum(m ** -5.0 for m in range(1, 2001)) + 0.25 * 2000.5 ** -4
    assert abs(mzv((5,), tol)[0] - z5) < 2e-15
    assert abs(mzv((2, 1, 1), tol)[0] - math.pi ** 4 / 90) < 2e-15
    assert abs(mzv((2, 1, 1, 1), tol)[0] - mzv((5,), tol)[0]) < 2e-15
    assert abs(mzv((3, 1, 1), tol)[0] - mzv((4, 1), tol)[0]) < 2e-15
    # Euler: zeta(4,1) = 2 zeta(5) - zeta(2) zeta(3)
    euler = 2 * z5 - (math.pi ** 2 / 6) * mzv((3,), tol)[0]
    assert abs(mzv((4, 1), tol)[0] - euler) < 2e-15


def test_mzv_returns_its_error_bound():
    for index, tol in (((2,), 1e-12), ((2, 1, 1), 1e-15), ((5,), 1e-10)):
        value, bound = mzv(index, tol)
        # the bound covers the rounding of the value, and meets the tolerance
        assert value * 2.0 ** -53 <= bound <= tol


def test_frobenius_series():
    f0 = kz_regularized_solution(8, 2)
    assert f0.coeffs[0].coefficient(()) == 1
    c1 = f0.coeffs[1]
    # first step: c_1 = -Y/(2 pi i) - [X,Y]/(2 pi i)^2 - ...
    assert abs(c1.coefficient((2,)) - (-1.0 / TWO_PI_I)) < 1e-15
    assert abs(c1.coefficient((1,))) == 0
    f1 = f0.mirror()
    assert abs(f1.coeffs[1].coefficient((1,)) - (-1.0 / TWO_PI_I)) < 1e-15
    with pytest.raises(KZError):
        kz_regularized_solution(0, 2)


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_mirror_is_the_recurrence_at_one(order):
    # the X <-> Y swap of the expansion at 0 is the expansion at 1: the same
    # words in the same order with the same values, signed zeros included
    mirrored = kz_regularized_solution(64, order).mirror()
    reference = recurrence_at_one(64, order)
    assert len(mirrored.coeffs) == len(reference.coeffs) == 65
    for got, want in zip(mirrored.coeffs, reference.coeffs):
        assert list(got.terms) == list(want.terms)
        assert all(repr(got.terms[w]) == repr(c) for w, c in want.terms.items())


@pytest.mark.parametrize("order", [3, 5])
def test_phi_kz_is_the_two_expansion_assembly(order):
    f0 = kz_regularized_solution(64, order)
    half = _assemble_phi(f0, recurrence_at_one(64, order), 0.5 + 0.0j)
    terms = dict(half.terms)
    terms[()] = 1
    reference = Associator(NCSeries._nonzero(2, order, terms), origin="kz")
    phi = build_phi_kz(order, 64)[0]
    assert repr(phi) == repr(reference)
    assert repr(phi.series.terms) == repr(reference.series.terms)


def test_ode_self_consistency():
    # convergence is geometric in the distance to the expansion point
    f0 = kz_regularized_solution(48, 3)
    assert ode_residual(f0, 0.3 + 0.0j) < 1e-12
    assert ode_residual_at_one(f0.mirror(), 0.7 + 0.0j) < 1e-12
    f = kz_regularized_solution(96, 3)
    for z in (0.3, 0.5, 0.6):
        assert ode_residual(f, z + 0.0j) < 1e-12
        assert ode_residual_at_one(f.mirror(), z + 0.0j) < 1e-12


def test_phi_kz_structure():
    phi, report = build_phi_kz(order=4, m_order=64)
    s = phi.series
    assert abs(s.coefficient((1,))) < 1e-12
    assert abs(s.coefficient((2,))) < 1e-12
    assert abs(s.coefficient((1, 2)) - 1.0 / 24) < 1e-13
    assert abs(s.coefficient((2, 1)) + 1.0 / 24) < 1e-13
    assert report["constancy"] < 1e-10
    assert phi.grouplike_residual() < 1e-10
    assert phi.lie_log_residual() < 1e-10
    assert phi.duality_residual() < 1e-10


def test_phi_kz_m_stability():
    a = build_phi_kz(order=4, m_order=64)[0]
    b = build_phi_kz(order=4, m_order=128)[0]
    assert a.series.distance(b.series) < 1e-10


def test_phi_kz_equations():
    # order 6 guards the kernels' reach: 2.776e-17 and 1.388e-17 at both orders
    for order in (4, 6):
        phi = build_phi_kz(order=order, m_order=64)[0]
        g, g_inv = to_taut3(phi)
        assert check_pentagon(g) < 1e-15
        assert check_hexagon(g, g_inv) < 1e-15


def test_anti_kz():
    phi = build_phi_kz(order=4, m_order=64)[0]
    bar = phi.flip_signs()
    assert bar.flip_signs().series.distance(phi.series) == 0
    for w, c in phi.series.terms.items():
        expected = c if len(w) % 2 == 0 else -c
        assert bar.series.coefficient(w) == expected
    g, g_inv = to_taut3(bar)
    assert check_pentagon(g) < 1e-9
    assert check_hexagon(g, g_inv) < 1e-9
    assert bar.duality_residual() < 1e-10


def test_mzv_vs_kz_degree3():
    """The degree-3 logarithm coefficients carry the weight-3 zeta value."""
    phi = build_phi_kz(order=3, m_order=64)[0]
    lg = nc_project_lie(phi.series.log())
    got = lg.coords[(1, 1, 2)]
    expected = -mzv((3,))[0] / TWO_PI_I ** 3
    assert abs(got - expected) < 1e-12
