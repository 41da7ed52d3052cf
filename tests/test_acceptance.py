"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS/FAIL line (run pytest with -s to see them inline).
The summary goes to acceptance_report.txt next to this file without the
timings, so rerunning the suite leaves the committed file unchanged; the
same lines with timings go to acceptance_report.timed.txt (not tracked).
Criterion 6a asserts a published reference value that three independent
computations here contradict by an exact factor 3; it is marked xfail with
the analysis available in the quadrature module's test companions.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from assoclab.associator import (Associator, TauFamily, check_hexagon,
                                 check_pentagon, etingof_coefficients,
                                 interpolate, pin_lambda, to_taut3)
from assoclab.confint import (RECORDED_LAMBDA_RATIO, TETRA_PREFACTOR,
                              TETRA_SYMMETRY_FACTOR, QuadratureSpec, ZETA3,
                              at_one_vertex_closed_form,
                              at_one_vertex_coefficient, beta_tilde_pointwise,
                              propagator_boundary_arg_residual,
                              propagator_diagonal_expansion,
                              propagator_first_to_boundary_residual,
                              tetra_type1_integral, tetra_weight)
from assoclab.graphcx import (GraphLinComb, delta_ext, differential, divergence,
                              duplicate_external, edge_graph,
                              enumerate_gc_graphs, grt_check,
                              grt_solution_space, ihara_bracket,
                              mark_one_external, pad_external, phi_map,
                              psi3_normalized, psi_map, tetrahedron)
from assoclab.kz import anti_kz, build_phi_kz
from assoclab.ncalg import LieSeries, lyndon_words
from assoclab.tangent import (TDerElem, center_element, duplicate_slot,
                              exp_tder, is_sder, log_taut, pad_left, pad_right,
                              tder_bracket, tk_generator)

REPORT: list[str] = []        # deterministic: criterion, PASS/FAIL, values
TIMED_REPORT: list[str] = []  # the same lines with wall times
PI = math.pi


def record(num, name, ok, elapsed, detail=""):
    head = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    tail = f" {detail}" if detail else ""
    REPORT.append(head + tail)
    TIMED_REPORT.append(f"{head} [{elapsed:.1f}s]{tail}")
    print("\n" + TIMED_REPORT[-1])
    return ok


@pytest.fixture(scope="module")
def kz5():
    return build_phi_kz(order=5, m_order=64)


@pytest.fixture(scope="module")
def pinned(kz5):
    phi5, _ = kz5
    phi4 = Associator(phi5.series.truncate(4), origin="kz")
    psi3 = psi3_normalized(4)
    lam, resid = pin_lambda(phi4, psi3)
    return phi4, psi3, lam, resid


def test_criterion_1_exact_product_coefficients():
    t0 = time.time()
    c_a, c_b = etingof_coefficients()
    ok = (c_a == Fraction(1199, 309657600) and c_b == Fraction(283, 103219200)
          and c_a != c_b)
    elapsed = time.time() - t0
    assert record(1, "exact flow product coefficients", ok and elapsed < 1.0,
                  elapsed, f"c_a={c_a}, c_b={c_b}, strong form fails: {c_a != c_b}")


def test_criterion_2_graph_complex():
    t0 = time.time()
    ok = differential(tetrahedron()).is_zero()
    graphs = enumerate_gc_graphs(5)
    for g in graphs:
        ok &= differential(differential(GraphLinComb({g: Fraction(1)}))).is_zero()
    ok &= divergence(tetrahedron()).is_zero()
    elapsed = time.time() - t0
    assert record(2, "graph complex identities", ok and elapsed < 60, elapsed,
                  f"delta tetra = 0, delta^2 = 0 on {len(graphs)} graphs, "
                  f"divergence tetra = 0")


def test_criterion_3_phi_map_lands_in_grt():
    t0 = time.time()
    elem = phi_map(tetrahedron(), 5)
    pair, psi = elem.avatar(), elem.psi
    space = grt_solution_space(3, 5)
    ok = len(space) == 1
    sol = space[0]
    lead = psi.coords.get((1, 1, 2), Fraction(0))
    ok &= lead != 0 and psi == sol.scale(lead / sol.coords[(1, 1, 2)])
    ok &= grt_check(psi) == (0, 0, 0)
    ok &= is_sder(pair)
    elapsed = time.time() - t0
    assert record(3, "tetrahedron image in grt", ok and elapsed < 10, elapsed,
                  f"multiple = {lead} of the unique length-3 solution, residuals (0,0,0)")


def test_criterion_4_kz_associator(kz5):
    t0 = time.time()
    phi, report = kz5
    g = to_taut3(phi)
    residuals = {
        "pentagon": check_pentagon(g),
        "hexagon": check_hexagon(g),
        "duality": phi.duality_residual(),
        "grouplike": phi.grouplike_residual(),
    }
    ok = all(v < 1e-9 for v in residuals.values())
    phi2, _ = build_phi_kz(order=5, m_order=128)
    stability = phi.series.distance(phi2.series)
    ok &= stability < 1e-10
    elapsed = time.time() - t0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in residuals.items())
    assert record(4, "monodromy associator equations", ok and elapsed < 120,
                  elapsed, detail + f", M-stability={stability:.1e}")


def test_criterion_5_interpolation_prediction(kz5, pinned):
    t0 = time.time()
    phi4, psi3, lam, resid = pinned
    ok = resid < 1e-12
    fam = TauFamily([(3, psi3.scale(lam))])
    phi1 = interpolate(phi4, Fraction(0), Fraction(1), fam)
    target = anti_kz(phi4)
    d3 = phi1.series.degree_part(3).distance(target.series.degree_part(3))
    d4 = phi1.series.degree_part(4).distance(target.series.degree_part(4))
    ok &= d3 < 1e-8 and d4 < 1e-8
    elapsed = time.time() - t0
    assert record(5, "interpolation boundary prediction", ok and elapsed < 60,
                  elapsed,
                  f"lambda={lam:.6g}, degree-3 match {d3:.1e}, degree-4 match {d4:.1e}")


@pytest.fixture(scope="module")
def tetra_quadrature():
    spec = QuadratureSpec(tol=2e-7, max_cells=40000)
    return tetra_type1_integral(spec), spec


@pytest.mark.xfail(strict=True,
                   reason="the stated reference -zeta(3)/(4 pi^3) disagrees "
                          "with three independent computations by an exact "
                          "factor 3 (sign slip in the published series "
                          "evaluation of int_0^1 r^(2n-1) log r dr); the "
                          "honest value is -3 zeta(3)/(4 pi^3)")
def test_criterion_6a_disk_integral_stated_value(tetra_quadrature):
    res, _ = tetra_quadrature
    stated = -ZETA3 / (4 * PI ** 3)
    ok = abs(res.value - stated) / abs(stated) < 1e-4
    record("6a", "disk integral vs stated reference", ok, 0.0,
           f"quadrature {res.value:.8f} vs stated {stated:.8f}")
    assert ok


def test_criterion_6_tetrahedron_weight(tetra_quadrature, pinned):
    t0 = time.time()
    res, spec = tetra_quadrature
    honest = -3 * ZETA3 / (4 * PI ** 3)
    ok = abs(res.value - honest) / abs(honest) < 1e-4
    # assembled weight identity and t-scaling
    w_half = tetra_weight(0.5, spec)
    assembled = float(TETRA_SYMMETRY_FACTOR * TETRA_PREFACTOR) * res.value
    ok &= abs(w_half.value - assembled) < 1e-14
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        w_t = tetra_weight(t, spec)
        ok &= abs(w_t.value - (4 * t * (1 - t)) ** 2 * w_half.value) < 1e-6
    # pointwise integrand scaling, exact to 1e-12
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    pts = [0.31 + 0.77j, -0.4 + 1.2j]
    v_half = beta_tilde_pointwise(4, edges, 0.5, pts)
    for t in (0.25, 0.75):
        v = beta_tilde_pointwise(4, edges, t, pts)
        ok &= abs(v - (4 * t * (1 - t)) ** 2 * v_half) < 1e-12
    # flow normalization consistency: |lambda| = ratio * |weight at 1/2|
    _, _, lam, _ = pinned
    ratio = abs(lam) / abs(w_half.value)
    ok &= abs(ratio - float(RECORDED_LAMBDA_RATIO)) / float(RECORDED_LAMBDA_RATIO) < 1e-3
    elapsed = time.time() - t0
    assert record(6, "tetrahedron weight quadrature", ok and elapsed < 300,
                  elapsed,
                  f"disk integral {res.value:.8f} = 3 x stated reference, "
                  f"weight(1/2)={w_half.value:.6f}, lambda ratio {ratio:.4f} "
                  f"(recorded {float(RECORDED_LAMBDA_RATIO)})")


def test_criterion_7_one_vertex_connection_term():
    t0 = time.time()
    spec = QuadratureSpec(tol=5e-8, max_cells=40000)
    ok = True
    worst = 0.0
    for z in (0.3 + 0.4j, -0.2 + 0.7j, 1.5 + 0.5j):
        for t in (0.25, 0.5, 0.75):
            a, b, err, _ = at_one_vertex_coefficient(t, z, spec)
            acf, bcf = at_one_vertex_closed_form(t, z)
            rel = max(abs(a - acf) / abs(acf), abs(b - bcf) / abs(bcf))
            worst = max(worst, rel)
            ok &= rel < 1e-4
    for t in (0.0, 1.0):
        a, b, err, _ = at_one_vertex_coefficient(t, 0.3 + 0.4j, spec)
        ok &= abs(a) <= err + 1e-15 and abs(b) <= err + 1e-15
    elapsed = time.time() - t0
    assert record(7, "one-internal-vertex connection term", ok and elapsed < 300,
                  elapsed, f"worst relative error {worst:.2e} over 9 samples; "
                           f"t in {{0,1}} vanish")


def test_criterion_8_propagator_family():
    t0 = time.time()
    ok = True
    worst = 0.0
    for t in (0.0, 0.25, 0.5, 1.0):
        got = propagator_diagonal_expansion(t)
        target = (1 - 2 * t) / (2j * PI)
        worst = max(worst, abs(got - target))
        ok &= abs(got - target) < 1e-6
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        ok &= propagator_boundary_arg_residual(t, 0.4 + 0.9j, 0.2) < 1e-8
        ok &= propagator_first_to_boundary_residual(t, 0.3, 0.1 + 0.8j) < 1e-8
    elapsed = time.time() - t0
    assert record(8, "propagator family", ok, elapsed,
                  f"worst diagonal-fit error {worst:.1e}; boundary restrictions < 1e-8")


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True

    def random_tder(k, order, density=0.25):
        from assoclab.ncalg import lie_to_nc
        comps = []
        for _ in range(k):
            coords = {}
            for d in range(1, order + 1):
                for w in lyndon_words(k, d):
                    if rng.random() < density:
                        coords[w] = Fraction(rng.randint(-2, 2))
            comps.append(lie_to_nc(LieSeries(k, order, coords), order))
        return TDerElem(k, order, comps)

    # tder antisymmetry and Jacobi, k <= 4, N <= 5
    for k, order in ((3, 4), (4, 5)):
        u, v, w = (random_tder(k, order) for _ in range(3))
        ok &= (tder_bracket(u, v) + tder_bracket(v, u)).is_zero()
        jac = (tder_bracket(u, tder_bracket(v, w))
               + tder_bracket(v, tder_bracket(w, u))
               + tder_bracket(w, tder_bracket(u, v)))
        ok &= jac.is_zero()

    # infinitesimal braid relations, k = 3, 4, all index choices
    for k in (3, 4):
        o = 3
        gens = {(i, j): tk_generator(i, j, k, o)
                for i in range(1, k + 1) for j in range(i + 1, k + 1)}
        for (i, j), (l, m) in itertools.combinations(gens, 2):
            if not ({i, j} & {l, m}):
                ok &= tder_bracket(gens[(i, j)], gens[(l, m)]).is_zero()
        for (i, j) in gens:
            for m in range(1, k + 1):
                if m not in (i, j):
                    a, b = tuple(sorted((i, m))), tuple(sorted((j, m)))
                    ok &= tder_bracket(gens[(i, j)], gens[a] + gens[b]).is_zero()
        c = center_element(k, o)
        ok &= all(tder_bracket(c, g).is_zero() for g in gens.values())

    # exp/log roundtrips exact at N <= 6
    for k, order in ((2, 6), (3, 5)):
        u = random_tder(k, order, 0.3)
        ok &= log_taut(exp_tder(u)).distance(u) == 0

    # simplicial/coproduct maps are Lie homomorphisms on sder pairs
    def random_sder3(order):
        gens = [tk_generator(i, j, 3, order) for i, j in ((1, 2), (1, 3), (2, 3))]
        out = gens[0].scale(Fraction(rng.randint(-2, 2)))
        for g in gens[1:]:
            out = out + g.scale(Fraction(rng.randint(-2, 2)))
        out = out + tder_bracket(gens[0], gens[2]).scale(Fraction(rng.randint(-1, 1)))
        return out

    for mapper in (pad_left, pad_right, lambda x: duplicate_slot(x, 1),
                   lambda x: duplicate_slot(x, 3)):
        a, b = random_sder3(4), random_sder3(4)
        ok &= is_sder(mapper(a))
        ok &= mapper(tder_bracket(a, b)).distance(
            tder_bracket(mapper(a), mapper(b))) == 0

    # Ihara bracket Jacobi exact at N <= 7
    def random_grt_like(order):
        coords = {}
        for d in range(2, order + 1):
            for w in lyndon_words(2, d):
                if rng.random() < 0.5:
                    coords[w] = Fraction(rng.randint(-3, 3))
        return LieSeries(2, order, coords)

    a, b, c = (random_grt_like(7) for _ in range(3))
    jac = (ihara_bracket(a, ihara_bracket(b, c))
           + ihara_bracket(b, ihara_bracket(c, a))
           + ihara_bracket(c, ihara_bracket(a, b)))
    ok &= jac.is_zero()

    # mark-and-delete commutation identity on degree-0 graphs (<= 4 vertices)
    for gamma in (edge_graph(), tetrahedron()):
        lhs = delta_ext(psi_map(gamma)) - psi_map(differential(gamma))
        g1 = mark_one_external(gamma)
        rhs = (duplicate_external(g1) - pad_external(g1, "right")
               - pad_external(g1, "left"))
        ok &= (lhs - rhs).is_zero()

    elapsed = time.time() - t0
    assert record(9, "always-on property suites", ok, elapsed,
                  "all identities exact over the rationals")


def test_zz_write_report():
    Path(__file__).with_name("acceptance_report.txt").write_text("\n".join(REPORT) + "\n")
    Path(__file__).with_name("acceptance_report.timed.txt").write_text(
        "\n".join(TIMED_REPORT) + "\n")
    print("\n" + "\n".join(TIMED_REPORT))
    assert len(REPORT) >= 9
