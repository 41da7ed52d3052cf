import math
import random
from fractions import Fraction

import pytest

from assoclab import ncalg
from assoclab.associator import (Associator, AssociatorError, _checked_lie_log,
                                 check_hexagon, check_pentagon, drinfeld_tangent,
                                 etingof_coefficients, grt_infinitesimal_act,
                                 grt_twist_act, interpolate, pexp_word_coefficient,
                                 pin_lambda, to_taut3)
from assoclab.graphcx import grt_generator, grt_solution_space, psi3_normalized
from assoclab.kz import build_phi_kz
from assoclab.ncalg import (LieSeries, NCSeries, SeriesError, lie_to_nc, lyndon_words,
                            nc_project_lie)
from assoclab.tangent import (TAutElem, center_decompose_t3, log_taut, taut_compose,
                              taut_distance)


def rational_associator(order, seed=101, density=0.6):
    """A group-like series with rational Lie logarithm (not a real associator)."""
    rng = random.Random(seed)
    coords = {}
    for d in range(2, order + 1):
        for w in lyndon_words(2, d):
            if rng.random() < density:
                coords[w] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    ell = LieSeries(2, order, coords)
    return Associator(lie_to_nc(ell).exp(), origin="synthetic"), ell


def test_pexp_coefficients():
    assert pexp_word_coefficient((3,), Fraction(0), Fraction(1)) == Fraction(1, 30)
    # the published product coefficients are half the ordered-exponential ones
    assert pexp_word_coefficient((3, 5), Fraction(0), Fraction(1, 2)) / 2 == \
        Fraction(1199, 309657600)
    assert pexp_word_coefficient((3, 5), Fraction(1, 2), Fraction(1)) / 2 == \
        Fraction(283, 103219200)
    assert pexp_word_coefficient((), Fraction(0), Fraction(1)) == 1
    with pytest.raises(AssociatorError):
        pexp_word_coefficient((2,), Fraction(0), Fraction(1))


def test_pexp_chen_concatenation():
    a, b, c = Fraction(0), Fraction(2, 5), Fraction(1)
    word = (3, 5, 3)
    lhs = pexp_word_coefficient(word, a, c)
    rhs = Fraction(0)
    for i in range(len(word) + 1):
        left = pexp_word_coefficient(word[:i], a, b)
        right = pexp_word_coefficient(word[i:], b, c)
        rhs += left * right
    assert lhs == rhs


def test_etingof_values():
    c_a, c_b = etingof_coefficients()
    assert c_a == Fraction(1199, 309657600)
    assert c_b == Fraction(283, 103219200)
    assert c_a != c_b


def test_pentagon_hexagon_trivial():
    one = Associator.one(4)
    g, g_inv = to_taut3(one)
    assert check_pentagon(g) == 0
    assert check_hexagon(g, g_inv) == 0.125  # the pair generators do not commute


def test_pure_bracket_exponential_fails_pentagon():
    lam = Fraction(1, 3)
    xy = NCSeries(2, 5, {(1, 2): lam, (2, 1): -lam})
    phi = Associator(xy.exp())
    assert check_pentagon(to_taut3(phi)[0]) > 0.01


def test_to_taut3_roundtrip():
    phi, ell = rational_associator(4)
    g, g_inv = to_taut3(phi, tol=0)
    split = center_decompose_t3(log_taut(g))
    assert split.alpha == 0
    assert split.reduced == ell
    one = TAutElem.identity(3, 4)
    assert taut_distance(taut_compose(g, g_inv), one) == 0
    assert taut_distance(taut_compose(g_inv, g), one) == 0
    assert to_taut3(Associator.one(4))[0].action()[0].coefficient((1,)) == 1


def test_twist_trivial_and_exact():
    phi, _ = rational_associator(4, seed=7)
    assert grt_twist_act(LieSeries.zero(2, 4), phi, tol=0).series == phi.series
    out = grt_twist_act(psi3_normalized(4), phi, tol=0)
    assert out.grouplike_residual() == 0


def test_twist_is_action():
    order = 4
    psi3 = psi3_normalized(order)
    phi, _ = rational_associator(order, seed=13)
    twice = grt_twist_act(psi3, grt_twist_act(psi3, phi, 0), 0)
    once = grt_twist_act(psi3.scale(Fraction(2)), phi, 0)
    assert twice.series == once.series


def test_twist_rejects_low_degree():
    phi = Associator.one(4)
    bad = LieSeries(2, 4, {(1,): Fraction(1), (1, 1, 2): Fraction(1)})
    with pytest.raises(AssociatorError, match="degree >= 2"):
        grt_twist_act(bad, phi)


def test_infinitesimal_zero_and_finite_difference():
    from assoclab.kz import build_phi_kz
    phi, _ = build_phi_kz(order=4, m_order=48)
    zero = LieSeries.zero(2, 4)
    assert grt_infinitesimal_act(zero, phi).is_zero()
    psi3 = psi3_normalized(4)
    tangent = grt_infinitesimal_act(psi3, phi)
    h = 1e-6
    fd = (grt_twist_act(psi3.scale(h), phi).series - phi.series).scale(1.0 / h)
    assert fd.distance(tangent) < 50 * h


def test_unit_tangent_lowest_degree():
    psi3 = psi3_normalized(4)
    tangent = grt_infinitesimal_act(psi3, Associator.one(4), tol=0.0)
    # at the trivial associator the twist's tangent is -psi, the pin's tangent
    assert tangent.degree_part(3) == lie_to_nc(psi3, 4).scale(Fraction(-1))
    assert tangent.degree_part(4).is_zero()


def test_interpolate_trivial_cases():
    phi, _ = rational_associator(4, seed=3)
    assert interpolate(phi, Fraction(0), Fraction(1), []).series == phi.series
    # the zero series contributes nothing
    zero = LieSeries.zero(2, 4)
    assert interpolate(phi, Fraction(0), Fraction(1), [zero]).series == phi.series
    psi3 = psi3_normalized(4)
    assert interpolate(phi, Fraction(1, 3), Fraction(1, 3), [psi3]).series == phi.series


@pytest.mark.parametrize("coords, why", [
    ({(1, 1, 2, 2): Fraction(1)}, "odd"),
    ({(1, 2): Fraction(1)}, "odd"),
    ({(1, 1, 2): Fraction(1), (1, 1, 1, 1, 2): Fraction(1)}, "homogeneous"),
])
def test_interpolate_reads_and_checks_generator_degrees(coords, why):
    phi, _ = rational_associator(4, seed=3)
    with pytest.raises(AssociatorError, match=why):
        interpolate(phi, Fraction(0), Fraction(1), [LieSeries(2, 5, coords)])


def test_interpolate_flow_property_exact():
    phi, _ = rational_associator(4, seed=5, density=0.5)
    fam = [psi3_normalized(4)]
    t0, t1, t2 = Fraction(0), Fraction(1, 3), Fraction(1)
    direct = interpolate(phi, t0, t2, fam, tol=0)
    mid = interpolate(phi, t0, t1, fam, tol=0)
    via = interpolate(mid, t1, t2, fam, tol=0)
    assert via.series == direct.series


def test_interpolate_is_grouplike_exact():
    phi, _ = rational_associator(4, seed=23, density=0.4)
    out = interpolate(phi, Fraction(0), Fraction(1, 2), [psi3_normalized(4)], tol=0)
    assert out.grouplike_residual() == 0


def test_pin_lambda_and_degree4_prediction():
    phi, _ = build_phi_kz(order=4, m_order=64)
    psi3 = psi3_normalized(4)
    phi1, [(lam, resid)] = pin_lambda(phi, [psi3], Fraction(1), 1e-9)
    assert resid < 1e-15
    assert abs(lam.real) < 1e-15  # imaginary in these conventions
    target = phi.flip_signs()
    assert phi1.series.degree_part(3).distance(target.series.degree_part(3)) < 1e-12
    assert phi1.series.degree_part(4).distance(target.series.degree_part(4)) < 1e-12
    # the pin reads the unit tangent at truncation 3, whatever the order of Phi
    phi5, _ = build_phi_kz(order=5, m_order=64)
    _, [(lam5, resid5)] = pin_lambda(phi5, [psi3_normalized(5)], Fraction(1), 1e-9)
    assert resid5 < 1e-15
    assert abs(lam5 - lam) < 1e-15


def test_pin_lambda_is_the_zeta3_closed_form():
    # lambda * int_0^1 (t(1-t))^2 dt = -i zeta(3) / (4 pi^3), and the integral is 1/30
    from assoclab.kz import build_phi_kz, mzv
    phi, _ = build_phi_kz(order=3, m_order=64)
    _, [(lam, _)] = pin_lambda(phi, [psi3_normalized(3)], Fraction(1), 1e-9)
    expected = -30j * mzv((3,))[0] / (4 * math.pi ** 3)
    assert abs(lam - expected) <= 1e-14 * abs(expected)
    # c_5 * int_0^1 (t(1-t))^4 dt = i zeta(5) / (16 pi^5), pinned on the degree-5
    # miss of the sigma_3 flow, and the integral is 1/630
    phi5, _ = build_phi_kz(order=5, m_order=64)
    sigmas = [psi3_normalized(5), grt_generator(5, 5)]
    _, [_, (c5, resid)] = pin_lambda(phi5, sigmas, Fraction(1), 1e-9)
    expected = 630j * mzv((5,))[0] / (16 * math.pi ** 5)
    assert resid < 1e-15
    assert abs(c5 - expected) <= 1e-14 * abs(expected)


def test_twisted_kz_still_passes_equations():
    from assoclab.kz import build_phi_kz
    phi, _ = build_phi_kz(order=4, m_order=48)
    out = grt_twist_act(psi3_normalized(4).scale(0.05), phi)
    g, g_inv = to_taut3(out)
    assert check_pentagon(g) < 1e-8
    assert check_hexagon(g, g_inv) < 1e-8


def test_interpolate_rejects_small_truncation():
    phi, _ = rational_associator(4, seed=9)
    psi5 = LieSeries(2, 5, {(1, 1, 1, 1, 2): Fraction(1)})
    with pytest.raises(AssociatorError):
        interpolate(phi, Fraction(0), Fraction(1), [psi5])


def test_drinfeld_formula_matches_the_twist_tangent():
    # the flow's tangent D_psi(Phi) - Phi . psi against the dual-number twist,
    # which shares no code with it, on and off the family of associators
    kz6, _ = build_phi_kz(order=6, m_order=64)
    kz5 = Associator(kz6.series.truncate(5), origin="kz")
    psi3 = psi3_normalized(5)
    sigma5 = grt_solution_space(5, 5)[0]
    mid, _ = pin_lambda(kz5, [psi3], Fraction(1, 3), 1e-9)
    off = grt_twist_act(sigma5.scale(0.3), kz5)
    cases = [("kz4", Associator(kz6.series.truncate(4)), [psi3]),
             ("kz5", kz5, [psi3, sigma5]),
             ("kz6", kz6, [psi3]),
             ("anti-kz", kz5.flip_signs(), [psi3, sigma5]),
             ("mid-flow", mid, [psi3, sigma5]),
             ("off-family", off, [psi3, sigma5])]
    for name, phi, psis in cases:
        for psi in psis:
            psi = LieSeries(2, phi.order, psi.coords)
            formula = drinfeld_tangent(lie_to_nc(psi), phi.series)
            twist = grt_infinitesimal_act(psi, phi)
            scale = max(formula.max_abs(), twist.max_abs())
            assert formula.distance(twist) <= 1e-15 * scale, (name, psi)


def test_dynkin_tolerance_comes_from_the_caller(monkeypatch):
    orig = ncalg._lyndon_extract

    def dusty(a):
        coords, residual = orig(a)
        return coords, max(residual, 1e-7)

    phi, _ = rational_associator(4, seed=3)
    lg = phi.series.log()
    monkeypatch.setattr(ncalg, "_lyndon_extract", dusty)
    # a Dynkin residual of 1e-7 is refused at tol 1e-9 and accepted at the default 1e-6
    with pytest.raises(SeriesError):
        nc_project_lie(lg, tol=1e-9)
    nc_project_lie(lg)
    phi.lie_log_residual()
    with pytest.raises(AssociatorError, match="log is not Lie within tolerance"):
        _checked_lie_log(phi, 1e-9)
    _checked_lie_log(phi, 1e-6)
    with pytest.raises(AssociatorError, match="log is not Lie within tolerance"):
        interpolate(phi, Fraction(0), Fraction(1), [psi3_normalized(4)], tol=1e-9)
    with pytest.raises(AssociatorError, match="log is not Lie within tolerance"):
        grt_twist_act(psi3_normalized(4), phi, tol=1e-9)
