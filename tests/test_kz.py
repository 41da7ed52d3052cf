import math

import pytest

from assoclab.associator import check_hexagon, check_pentagon, to_taut3
from assoclab.kz import (KZError, MzvError, anti_kz, build_phi_kz,
                         kz_regularized_solution, mzv, ode_residual)
from assoclab.ncalg import nc_project_lie

TWO_PI_I = 2j * math.pi


def zeta3_single_sum(n0=2_000_000):
    """Independent oracle: direct sum plus an integral-bracket midpoint tail."""
    direct = math.fsum(m ** -3.0 for m in range(1, n0 + 1))
    tail_mid = 0.5 * (n0 + 0.5) ** -2.0
    return direct + tail_mid


def test_mzv_classics():
    assert abs(mzv((2,)) - math.pi ** 2 / 6) < 1e-12
    assert abs(mzv((3,)) - zeta3_single_sum()) < 1e-12
    assert abs(mzv((2, 1)) - mzv((3,))) < 1e-10
    assert abs(mzv((4,)) - math.pi ** 4 / 90) < 1e-12
    # a depth-2 shuffle relation as a second oracle
    lhs = mzv((3, 2)) + mzv((2, 3))
    rhs = mzv((2,)) * mzv((3,)) - mzv((5,))
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
    assert abs(mzv((5,), tol) - z5) < 2e-15
    assert abs(mzv((2, 1, 1), tol) - math.pi ** 4 / 90) < 2e-15
    assert abs(mzv((2, 1, 1, 1), tol) - mzv((5,), tol)) < 2e-15
    assert abs(mzv((3, 1, 1), tol) - mzv((4, 1), tol)) < 2e-15
    # Euler: zeta(4,1) = 2 zeta(5) - zeta(2) zeta(3)
    euler = 2 * z5 - (math.pi ** 2 / 6) * mzv((3,), tol)
    assert abs(mzv((4, 1), tol) - euler) < 2e-15


def test_frobenius_series():
    f0 = kz_regularized_solution(0, 8, 2)
    assert f0.coeffs[0].coefficient(()) == 1
    c1 = f0.coeffs[1]
    # first step: c_1 = -Y/(2 pi i) - [X,Y]/(2 pi i)^2 - ...
    assert abs(c1.coefficient((2,)) - (-1.0 / TWO_PI_I)) < 1e-15
    assert abs(c1.coefficient((1,))) == 0
    f1 = kz_regularized_solution(1, 8, 2)
    assert abs(f1.coeffs[1].coefficient((1,)) - (-1.0 / TWO_PI_I)) < 1e-15
    with pytest.raises(KZError):
        kz_regularized_solution(2, 8, 2)


def test_ode_self_consistency():
    # convergence is geometric in the distance to the expansion point
    f0 = kz_regularized_solution(0, 48, 3)
    assert ode_residual(f0, 0.3 + 0.0j) < 1e-12
    f1 = kz_regularized_solution(1, 48, 3)
    assert ode_residual(f1, 0.7 + 0.0j) < 1e-12
    for point in (0, 1):
        f = kz_regularized_solution(point, 96, 3)
        for z in (0.3, 0.5, 0.6):
            assert ode_residual(f, z + 0.0j) < 1e-12


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
    phi = build_phi_kz(order=4, m_order=64)[0]
    g = to_taut3(phi)
    assert check_pentagon(g) < 1e-9
    assert check_hexagon(g) < 1e-9


def test_anti_kz():
    phi = build_phi_kz(order=4, m_order=64)[0]
    bar = anti_kz(phi)
    assert anti_kz(bar).series.distance(phi.series) == 0
    for w, c in phi.series.terms.items():
        expected = c if len(w) % 2 == 0 else -c
        assert bar.series.coefficient(w) == expected
    g = to_taut3(bar)
    assert check_pentagon(g) < 1e-9
    assert check_hexagon(g) < 1e-9
    assert bar.duality_residual() < 1e-10


def test_mzv_vs_kz_degree3():
    """The degree-3 logarithm coefficients carry the weight-3 zeta value."""
    phi = build_phi_kz(order=3, m_order=64)[0]
    lg = nc_project_lie(phi.series.log())
    got = lg.coords[(1, 1, 2)]
    expected = -mzv((3,)) / TWO_PI_I ** 3
    assert abs(got - expected) < 1e-12
