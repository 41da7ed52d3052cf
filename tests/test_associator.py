import math
import random
from fractions import Fraction

import pytest

from assoclab import ncalg
from assoclab.associator import (Associator, AssociatorError, TauFamily,
                                 _checked_lie_log, check_hexagon, check_pentagon,
                                 drinfeld_tangent, etingof_coefficients,
                                 grt_infinitesimal_act, grt_twist_act, interpolate,
                                 nu_embedding, pexp_word_coefficient, pin_lambda,
                                 to_taut3, twist_by_avatar)
from assoclab.graphcx import grt_generator, grt_solution_space, psi3_normalized
from assoclab.kz import anti_kz, build_phi_kz
from assoclab.ncalg import (LieSeries, NCSeries, SeriesError, lie_to_nc, lyndon_words,
                            nc_project_lie)
from assoclab.tangent import center_decompose_t3, log_taut


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
    assert pexp_word_coefficient((3, 5), Fraction(0), Fraction(1, 2)) == \
        Fraction(1199, 309657600)
    assert pexp_word_coefficient((3, 5), Fraction(1, 2), Fraction(1)) == \
        Fraction(283, 103219200)
    assert pexp_word_coefficient((), Fraction(0), Fraction(1)) == 1
    with pytest.raises(AssociatorError):
        pexp_word_coefficient((2,), Fraction(0), Fraction(1))


def test_pexp_chen_concatenation():
    a, b, c = Fraction(0), Fraction(2, 5), Fraction(1)
    word = (3, 5, 3)
    lhs = pexp_word_coefficient(word, a, c, half_normalized=False)
    rhs = Fraction(0)
    for i in range(len(word) + 1):
        left = pexp_word_coefficient(word[:i], a, b, half_normalized=False)
        right = pexp_word_coefficient(word[i:], b, c, half_normalized=False)
        rhs += left * right
    assert lhs == rhs


def test_etingof_values():
    c_a, c_b = etingof_coefficients()
    assert c_a == Fraction(1199, 309657600)
    assert c_b == Fraction(283, 103219200)
    assert c_a != c_b


def test_pentagon_hexagon_trivial():
    one = Associator.one(4)
    g = to_taut3(one)
    assert check_pentagon(g) == 0
    assert check_hexagon(g) == 0.125  # the pair generators do not commute


def test_pure_bracket_exponential_fails_pentagon():
    lam = Fraction(1, 3)
    xy = NCSeries(2, 5, {(1, 2): lam, (2, 1): -lam})
    phi = Associator(xy.exp())
    assert check_pentagon(to_taut3(phi)) > 0.01


def test_to_taut3_roundtrip():
    phi, ell = rational_associator(4)
    g = to_taut3(phi, tol=0)
    split = center_decompose_t3(log_taut(g))
    assert split.alpha == 0
    assert split.reduced == ell
    assert to_taut3(Associator.one(4)).action()[0].coefficient((1,)) == 1


def test_twist_trivial_and_exact():
    phi, _ = rational_associator(4, seed=7)
    one_f = NCSeries.unit(2, 4)
    assert grt_twist_act(one_f, phi, tol=0).series == phi.series
    psi3 = psi3_normalized(4)
    f = lie_to_nc(psi3).exp()
    out = grt_twist_act(f, phi, tol=0)
    assert out.grouplike_residual() == 0


def test_twist_is_action():
    order = 4
    psi3 = psi3_normalized(order)
    nu = nu_embedding(psi3)
    phi, _ = rational_associator(order, seed=13)
    twice = twist_by_avatar(nu, twist_by_avatar(nu, phi, 0), 0)
    once = twist_by_avatar(nu.scale(Fraction(2)), phi, 0)
    assert twice.series == once.series


def test_twist_rejects_low_degree():
    phi = Associator.one(4)
    bad = NCSeries(2, 4, {(): 1, (1,): Fraction(1)})
    with pytest.raises(AssociatorError):
        grt_twist_act(bad, phi)


def test_infinitesimal_zero_and_finite_difference():
    from assoclab.kz import build_phi_kz
    phi, _ = build_phi_kz(order=4, m_order=48)
    zero = LieSeries.zero(2, 4)
    assert grt_infinitesimal_act(zero, phi).is_zero()
    psi3 = psi3_normalized(4)
    tangent = grt_infinitesimal_act(psi3, phi)
    h = 1e-6
    f = lie_to_nc(psi3).scale(h).exp()
    fd = (grt_twist_act(f, phi).series - phi.series).scale(1.0 / h)
    assert fd.distance(tangent) < 50 * h


def test_unit_tangent_lowest_degree():
    psi3 = psi3_normalized(4)
    tangent = grt_infinitesimal_act(psi3, Associator.one(4), tol=0.0)
    # at the trivial associator the twist's tangent is -psi, the pin's tangent
    assert tangent.degree_part(3) == lie_to_nc(psi3, 4).scale(Fraction(-1))
    assert tangent.degree_part(4).is_zero()


def test_interpolate_trivial_cases():
    phi, _ = rational_associator(4, seed=3)
    fam = TauFamily([])
    assert interpolate(phi, Fraction(0), Fraction(1), fam).series == phi.series
    psi3 = psi3_normalized(4)
    fam = TauFamily([(3, psi3)])
    assert interpolate(phi, Fraction(1, 3), Fraction(1, 3), fam).series == phi.series
    with pytest.raises(AssociatorError):
        TauFamily([(4, psi3)])


def test_interpolate_flow_property_exact():
    phi, _ = rational_associator(4, seed=5, density=0.5)
    psi3 = psi3_normalized(4)
    fam = TauFamily([(3, psi3)])
    t0, t1, t2 = Fraction(0), Fraction(1, 3), Fraction(1)
    direct = interpolate(phi, t0, t2, fam, tol=0)
    mid = interpolate(phi, t0, t1, fam, tol=0)
    via = interpolate(mid, t1, t2, fam, tol=0)
    assert via.series == direct.series


def test_interpolate_is_grouplike_exact():
    phi, _ = rational_associator(4, seed=23, density=0.4)
    psi3 = psi3_normalized(4)
    fam = TauFamily([(3, psi3)])
    out = interpolate(phi, Fraction(0), Fraction(1, 2), fam, tol=0)
    assert out.grouplike_residual() == 0


def test_pin_lambda_and_degree4_prediction():
    from assoclab.kz import anti_kz, build_phi_kz
    phi, _ = build_phi_kz(order=4, m_order=64)
    psi3 = psi3_normalized(4)
    lam, resid = pin_lambda(phi, psi3)
    assert resid < 1e-15
    assert abs(lam.real) < 1e-15  # imaginary in these conventions
    fam = TauFamily([(3, psi3.scale(lam))])
    phi1 = interpolate(phi, Fraction(0), Fraction(1), fam)
    target = anti_kz(phi)
    assert phi1.series.degree_part(3).distance(target.series.degree_part(3)) < 1e-12
    assert phi1.series.degree_part(4).distance(target.series.degree_part(4)) < 1e-12
    # the pin reads the unit tangent at truncation 3, whatever the order of Phi
    phi5, _ = build_phi_kz(order=5, m_order=64)
    lam5, resid5 = pin_lambda(phi5, psi3_normalized(5))
    assert resid5 < 1e-15
    assert abs(lam5 - lam) < 1e-15


def test_pin_lambda_is_the_zeta3_closed_form():
    # lambda * int_0^1 (t(1-t))^2 dt = -i zeta(3) / (4 pi^3), and the integral is 1/30
    from assoclab.kz import build_phi_kz, mzv
    phi, _ = build_phi_kz(order=3, m_order=64)
    lam, _ = pin_lambda(phi, psi3_normalized(3))
    expected = -30j * mzv((3,)) / (4 * math.pi ** 3)
    assert abs(lam - expected) <= 1e-14 * abs(expected)
    # c_5 * int_0^1 (t(1-t))^4 dt = i zeta(5) / (16 pi^5), pinned on the degree-5
    # miss of the sigma_3 flow, and the integral is 1/630
    phi5, _ = build_phi_kz(order=5, m_order=64)
    lam3, _ = pin_lambda(phi5, psi3_normalized(5))
    flow = interpolate(phi5, Fraction(0), Fraction(1),
                       TauFamily([(3, psi3_normalized(5).scale(lam3))]))
    c5, resid = pin_lambda(phi5, grt_generator(5, 5), flow)
    expected = 630j * mzv((5,)) / (16 * math.pi ** 5)
    assert resid < 1e-15
    assert abs(c5 - expected) <= 1e-14 * abs(expected)


def test_twisted_kz_still_passes_equations():
    from assoclab.kz import build_phi_kz
    phi, _ = build_phi_kz(order=4, m_order=48)
    psi3 = psi3_normalized(4)
    f = lie_to_nc(psi3).scale(0.05).exp()
    out = grt_twist_act(f, phi)
    g = to_taut3(out)
    assert check_pentagon(g) < 1e-8
    assert check_hexagon(g) < 1e-8


def test_interpolate_rejects_small_truncation():
    phi, _ = rational_associator(4, seed=9)
    psi5 = LieSeries(2, 5, {(1, 1, 1, 1, 2): Fraction(1)})
    fam = TauFamily([(5, psi5)])
    with pytest.raises(AssociatorError):
        interpolate(phi, Fraction(0), Fraction(1), fam)


def test_drinfeld_formula_matches_the_twist_tangent():
    # the flow's tangent D_psi(Phi) - Phi . psi against the dual-number twist,
    # which shares no code with it, on and off the family of associators
    kz6, _ = build_phi_kz(order=6, m_order=64)
    kz5 = Associator(kz6.series.truncate(5), origin="kz")
    psi3 = psi3_normalized(5)
    sigma5 = grt_solution_space(5, 5)[0]
    lam, _ = pin_lambda(kz5, psi3)
    mid = interpolate(kz5, Fraction(0), Fraction(1, 3), TauFamily([(3, psi3.scale(lam))]))
    off = grt_twist_act(lie_to_nc(sigma5).scale(0.3).exp(), kz5)
    cases = [("kz4", Associator(kz6.series.truncate(4)), [psi3]),
             ("kz5", kz5, [psi3, sigma5]),
             ("kz6", kz6, [psi3]),
             ("anti-kz", anti_kz(kz5), [psi3, sigma5]),
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
    f = lie_to_nc(psi3_normalized(4)).exp()
    monkeypatch.setattr(ncalg, "_lyndon_extract", dusty)
    # a Dynkin residual of 1e-7 is refused at tol 1e-9 and accepted at the default 1e-6
    with pytest.raises(SeriesError):
        nc_project_lie(lg, tol=1e-9)
    nc_project_lie(lg)
    phi.log_lie()
    with pytest.raises(AssociatorError, match="log is not Lie within tolerance"):
        _checked_lie_log(phi, 1e-9)
    _checked_lie_log(phi, 1e-6)
    with pytest.raises(AssociatorError, match="log is not Lie within tolerance"):
        interpolate(phi, Fraction(0), Fraction(1), TauFamily([(3, psi3_normalized(4))]), tol=1e-9)
    with pytest.raises(SeriesError):
        grt_twist_act(f, phi, tol=1e-9)
