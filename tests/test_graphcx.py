import itertools
import random
from fractions import Fraction

import pytest

from assoclab import graphcx
from assoclab.associator import nu_embedding, nu_extract
from assoclab.graphcx import (GCGraph, GraphError, GraphLinComb, canonicalize,
                              delta_ext, differential, divergence,
                              duplicate_external, edge_graph, enumerate_gc_graphs,
                              gc_bracket, grt_check, grt_generator, grt_solution_space,
                              ihara_bracket, mark_one_external, pad_external,
                              phi_map, pi_project, psi3_normalized, psi_map,
                              tadpole_graph, tetrahedron, wheel)
from assoclab.ncalg import LieSeries, lyndon_words
from assoclab.tangent import is_sder


def test_canonicalize_basics():
    g, s = canonicalize(2, [(1, 2)])
    assert s == 1 and g.edges == ((1, 2),)
    # repeated edge dies
    assert canonicalize(2, [(1, 2), (1, 2)]) is None
    # the two-edge path has an odd automorphism
    assert canonicalize(3, [(1, 2), (2, 3)]) is None
    # two disjoint edges: the edge swap is odd in the edge-order orientation
    assert canonicalize(4, [(1, 2), (3, 4)]) is None
    # the tetrahedron survives with all its symmetry
    res = canonicalize(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert res is not None
    g, _ = res
    assert g.degree() == 0 and g.is_gc()


def test_orientation_sign():
    e = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    g1 = GraphLinComb.single(4, e)
    swapped = [e[1], e[0]] + e[2:]
    g2 = GraphLinComb.single(4, swapped)
    assert (g1 + g2).is_zero()


def test_differential():
    assert differential(edge_graph()).is_zero()
    assert differential(tetrahedron()).is_zero()
    # the bare 5-wheel is not closed; its differential is a single class
    dw = differential(wheel(5))
    assert not dw.is_zero()
    assert differential(dw).is_zero()
    for g in enumerate_gc_graphs(5):
        one = GraphLinComb({g: Fraction(1)})
        assert differential(differential(one)).is_zero()


def test_bracket_grading():
    e = edge_graph()
    t = tetrahedron()
    # degree-0 elements bracket antisymmetrically
    assert (gc_bracket(t, t)).is_zero()
    assert gc_bracket(e, t) == gc_bracket(t, e).scale(Fraction(1))
    # graded Jacobi with the odd edge graph and the odd loop graph
    T = tadpole_graph()
    lhs = gc_bracket(T, gc_bracket(t, e))
    rhs = gc_bracket(gc_bracket(T, t), e) + gc_bracket(t, gc_bracket(T, e))
    assert (lhs - rhs).is_zero()


def test_divergence():
    assert divergence(GraphLinComb()).is_zero()
    assert divergence(tetrahedron()).is_zero()
    # the bare 5-wheel admits a chord insertion and is not divergence-free
    assert not divergence(wheel(5)).is_zero()


def test_psi_map():
    p = psi_map(edge_graph())
    assert len(p.terms) == 1
    g, c = next(iter(p.terms.items()))
    assert g.n == 2 and g.edges == () and c == 2
    # the triangle vanishes in the odd-edge orientation (odd automorphism),
    # so its image is zero; the mark-and-delete mechanics on one ordered
    # pair still produces the external pair joined through a bivalent vertex
    tri = GraphLinComb.single(3, [(1, 2), (1, 3), (2, 3)])
    assert tri.is_zero() and psi_map(tri).is_zero()
    marked = GraphLinComb.from_raw([(3, [(1, 3), (2, 3)], Fraction(1))], ext=2)
    g, _ = next(iter(marked.terms.items()))
    assert g.valences()[g.ext:] == [2]


def test_psiprop_identity():
    for gamma in (edge_graph(), tetrahedron(), wheel(5)):
        lhs = delta_ext(psi_map(gamma)) - psi_map(differential(gamma))
        g1 = mark_one_external(gamma)
        rhs = (duplicate_external(g1) - pad_external(g1, "right")
               - pad_external(g1, "left"))
        assert (lhs - rhs).is_zero()


def test_delta_ext_squares_to_zero():
    x = psi_map(tetrahedron())
    assert delta_ext(delta_ext(x)).is_zero()


def test_pi_project():
    order = 4
    single = GraphLinComb.from_raw([(2, [(1, 2)], Fraction(1))], ext=2)
    u = pi_project(single, order)
    assert u.comps[0].coefficient((2,)) == 1
    assert u.comps[1].coefficient((1,)) == 1
    # a bivalent internal chain dies
    chain = GraphLinComb.from_raw([(3, [(1, 3), (2, 3)], Fraction(1))], ext=2)
    assert pi_project(chain, order).is_zero()
    # edge-order antisymmetry passes through the tree reading
    tree = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    swapped = [tree[2], tree[1], tree[0], tree[3], tree[4]]
    a = pi_project(GraphLinComb.from_raw([(4, tree, Fraction(1))], ext=2), order)
    b = pi_project(GraphLinComb.from_raw([(4, swapped, Fraction(1))], ext=2), order)
    assert not a.is_zero()
    assert (a + b).is_zero()


def test_pi_project_zero_cases():
    tree = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    cases = {
        # 2·n_int + 1 edges, so only the cycle and the missed edge send it to zero
        "triangle with legs and (1, 2)":
            (5, [(1, 2), (1, 3), (2, 4), (1, 5), (3, 4), (4, 5), (3, 5)]),
        "loop at an internal vertex":
            (5, [(1, 2), (1, 3), (2, 3), (3, 4), (1, 4), (4, 5), (5, 5)]),
        "separate internal component": (8, tree + [(u + 4, v + 4) for u, v in k4]),
        "(1, 2) beside a tree": (4, tree + [(1, 2)]),
    }
    for name, (n, edges) in cases.items():
        a = GraphLinComb.from_raw([(n, edges, Fraction(1))], ext=2)
        assert not a.is_zero(), name
        assert pi_project(a, 5).is_zero(), name


def test_pi_after_delta_vanishes():
    x = psi_map(tetrahedron())
    assert pi_project(delta_ext(x), 5).is_zero()


def test_phi_map_tetrahedron():
    elem = phi_map(tetrahedron(), 5)
    pair, psi = elem.pair, elem.psi
    assert is_sder(pair)
    psi3 = psi3_normalized(5)
    assert psi == psi3.scale(Fraction(-24))
    assert grt_check(psi) == (0, 0, 0)
    assert nu_embedding(psi).distance(pair) == 0
    assert nu_extract(pair) == psi


@pytest.fixture(scope="module")
def gamma5():
    """gamma5 = w5 + (5/2) G', the loop-5 cocycle with wheel coefficient 1.

    w5 and G' are the two 6-vertex, 10-edge graphs, with d(w5) = 5 H and
    d(G') = -2 H.
    """
    w5, other = [GraphLinComb({g: Fraction(1)}) for g in enumerate_gc_graphs(6)
                 if len(g.edges) == 10]
    assert w5 == wheel(5)
    h = differential(other).scale(Fraction(-1, 2))
    assert len(h.terms) == 1 and differential(w5) == h.scale(5)
    return w5 + other.scale(Fraction(5, 2))


@pytest.fixture(scope="module")
def loop8_bracket(gamma5):
    """B = [gamma3, gamma5], gamma3 the tetrahedron."""
    return gc_bracket(tetrahedron(), gamma5)


def test_loop8_bracket_is_closed(loop8_bracket):
    assert len(loop8_bracket.terms) == 68
    assert differential(loop8_bracket).is_zero()


@pytest.mark.xfail(strict=True, reason="phi (pi after psi) sends the loop-8 class "
                                       "[gamma3, gamma5], which is not exact, to 0")
def test_phi_map_reads_the_loop8_class(loop8_bracket):
    psi = phi_map(loop8_bracket, 8).psi
    assert grt_check(psi) == (0, 0, 0)
    assert not psi.is_zero()


def test_phi_map_rejects_bad_inputs():
    with pytest.raises(GraphError):
        phi_map(edge_graph(), 4)  # degree 1, not 0
    # two tetrahedra joined by an edge: 13 edges on 8 vertices is degree 1,
    # so the degree check rejects it (irreducibility is tested on GCGraph)
    two_tets = GraphLinComb.single(
        8, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8), (4, 5)])
    assert not two_tets.is_zero()
    with pytest.raises(GraphError, match="degree-0"):
        phi_map(two_tets, 4)


def test_connectivity():
    tet, w5 = next(iter(tetrahedron().terms)), next(iter(wheel(5).terms))
    assert tet.is_connected() and tet.one_vertex_irreducible()
    assert w5.is_connected() and w5.one_vertex_irreducible()
    # two tetrahedra sharing vertex 4: removing it disconnects the rest
    shared = GCGraph(7, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                         (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)))
    assert shared.is_gc() and not shared.one_vertex_irreducible()
    # two disjoint triangles
    triangles = GCGraph(6, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)))
    assert not triangles.is_connected() and not triangles.one_vertex_irreducible()
    # a cut vertex labelled 1, so the walk starts from vertex 2
    bowtie = GCGraph(5, ((1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)))
    assert bowtie.is_connected() and not bowtie.one_vertex_irreducible()


def test_grt_check():
    psi3 = psi3_normalized(5)
    assert grt_check(psi3) == (0, 0, 0)
    xy = LieSeries(2, 4, {(1, 2): Fraction(1)})
    res = grt_check(xy)
    assert res[0] == 0 and res[1] != 0
    rng = random.Random(13)
    coords = {w: Fraction(rng.randint(-3, 3)) for w in lyndon_words(2, 4)}
    rand4 = LieSeries(2, 4, coords)
    assert any(r != 0 for r in grt_check(rand4))


def test_grt_solution_space_dimensions():
    assert len(grt_solution_space(3)) == 1
    space = grt_solution_space(4)
    assert space == [] or all(g.is_zero() for g in space)
    assert grt_solution_space(6) == []  # grt has no degree-6 element


def test_grt_in_degree_8_is_spanned_by_sigma3_and_sigma5():
    """grt_8 is one-dimensional: its one vector is -1/5 [sigma_3, sigma_5] (Ihara bracket)."""
    (space,) = grt_solution_space(8)
    bracket = ihara_bracket(grt_generator(3, 8), grt_generator(5, 8))
    assert space.order == 8 and space == bracket.scale(Fraction(-1, 5))


def test_grt_generator_is_the_normalized_solution():
    sigma5 = grt_generator(5, 7)
    assert sigma5.order == 7 and {len(w) for w in sigma5.coords} == {5}
    assert sigma5.coords[(1, 1, 1, 1, 2)] == 1
    assert grt_check(sigma5) == (0, 0, 0)
    (space,) = grt_solution_space(5)
    assert LieSeries(2, 5, sigma5.coords) == space.scale(1 / space.coords[(1, 1, 1, 1, 2)])
    assert psi3_normalized(6) is grt_generator(3, 6)
    assert repr(psi3_normalized(4)) == repr(grt_generator(3, 4))
    with pytest.raises(GraphError, match="got 0"):
        grt_generator(4, 4)


def test_ihara():
    psi3 = psi3_normalized(7)
    assert ihara_bracket(psi3, psi3).is_zero()
    rng = random.Random(19)
    def rnd(order):
        coords = {}
        for d in range(2, order + 1):
            for w in lyndon_words(2, d):
                if rng.random() < 0.5:
                    coords[w] = Fraction(rng.randint(-3, 3))
        return LieSeries(2, order, coords)
    a, b, c = rnd(7), rnd(7), rnd(7)
    jac = (ihara_bracket(a, ihara_bracket(b, c))
           + ihara_bracket(b, ihara_bracket(c, a))
           + ihara_bracket(c, ihara_bracket(a, b)))
    assert jac.is_zero()


@pytest.mark.parametrize("factor", [0.1, 0.5, 0.3 + 0.1j])
def test_ihara_refuses_inexact_coordinates(factor):
    # scaled by 0.1 or 0.3 + 0.1j, the bracket's rounding leaves the Lie
    # algebra and used to fail deep inside ("series is not Lie")
    sigma3, sigma5 = grt_generator(3, 8), grt_generator(5, 8)
    for pair in ((sigma3.scale(factor), sigma5), (sigma3, sigma5.scale(factor))):
        with pytest.raises(GraphError, match="needs exact coordinates"):
            ihara_bracket(*pair)


# -- the orbit kernels against the term-by-term reference ------------------------------------

def ref_pre_lie(a, b):
    """Every reconnection of g2 inserted at each vertex of g1, each canonicalised."""
    raw = []
    for g1, c1 in a.terms.items():
        for g2, c2 in b.terms.items():
            c = c1 * c2
            n = g1.n + g2.n - 1
            for i in range(1, g1.n + 1):
                inner = [(i - 1 + u, i - 1 + v) for u, v in g2.edges]
                for edges in graphcx._reassign_ends(g1.edges, i,
                                                    lambda m: [range(i, i + g2.n)] * m,
                                                    lambda w: w if w < i else w + g2.n - 1):
                    raw.append((n, edges + inner, c))
    return GraphLinComb.from_raw(raw)


def ref_differential(a):
    """Every unordered split of every vertex, each canonicalised; other inputs bracketed."""
    if a.is_zero():
        return GraphLinComb()
    if not all(g.is_gc() for g in a.terms):
        return graphcx.gc_bracket(edge_graph(), a).scale(Fraction(1, 2))
    sign = 1 if graphcx._homogeneous_degree(a) % 2 else -1
    raw = []
    for g, c in a.terms.items():
        for i, val in enumerate(g.valences(), start=1):
            for edges in graphcx._reassign_ends(g.edges, i,
                                                lambda m: [(i,)] + [(i, i + 1)] * (m - 1),
                                                lambda w: w if w < i else w + 1):
                moved = sum(e.count(i + 1) for e in edges)
                if 2 <= moved <= val - 2:
                    raw.append((g.n + 1, edges + [(i, i + 1)], sign * c))
    return GraphLinComb.from_raw(raw)


def reference(name, *args):
    """graphcx.<name>(*args), computed with the reference kernels."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graphcx, "_pre_lie", ref_pre_lie)
        m.setattr(graphcx, "differential", ref_differential)
        return getattr(graphcx, name)(*args)


def exact(a):
    """The terms in order, with their coefficients' types: equal only if all of these are."""
    return repr(list(a.terms.items()))


def relabelled(g, rng):
    """g under a random vertex relabelling, edge order and end order, not canonicalised."""
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    edges = [(perm[u - 1], perm[v - 1])[::rng.choice((1, -1))] for u, v in g.edges]
    rng.shuffle(edges)
    return GCGraph(g.n, tuple(edges))


def test_orbit_differential_matches_the_reference_under_relabelling():
    rng = random.Random(39)
    for g in enumerate_gc_graphs(6):
        for _ in range(3):
            x = GraphLinComb({relabelled(g, rng): Fraction(3, 2)})
            d = differential(x)
            assert exact(d) == exact(reference("differential", x))
            assert exact(differential(d)) == exact(reference("differential", d))
            assert differential(d).is_zero()


def test_orbit_kernels_match_the_reference_on_the_wheel_and_loop8(gamma5, loop8_bracket):
    w5, tet = wheel(5), tetrahedron()
    assert exact(differential(w5)) == exact(reference("differential", w5))
    assert exact(gc_bracket(tet, w5)) == exact(reference("gc_bracket", tet, w5))
    assert exact(loop8_bracket) == exact(reference("gc_bracket", tet, gamma5))
    d_b = differential(loop8_bracket)
    assert d_b.is_zero() and exact(d_b) == exact(reference("differential", loop8_bracket))


def test_orbit_divergence_matches_the_reference():
    # the tadpole's two loop ends give one key, counted twice
    for x in (tetrahedron(), wheel(5)):
        assert exact(divergence(x)) == exact(reference("divergence", x))
    assert not divergence(wheel(5)).is_zero()


def test_orbit_pre_lie_with_the_edge_graph_on_either_side():
    e = edge_graph()
    for x in (e, tetrahedron(), wheel(5), tadpole_graph()):
        assert exact(graphcx._pre_lie(e, x)) == exact(ref_pre_lie(e, x))
        assert exact(graphcx._pre_lie(x, e)) == exact(ref_pre_lie(x, e))


def test_orbit_differential_of_non_gc_inputs_matches_the_reference():
    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    bivalent = GraphLinComb.single(4, [(1, 2), (2, 3), (3, 4), (1, 3), (1, 4)])
    antenna = GraphLinComb.single(5, k4 + [(4, 5)])
    cases = [bivalent, antenna, GraphLinComb.single(4, k4 + [(4, 4)]), tadpole_graph(),
             edge_graph(), bivalent.scale(Fraction(2, 3)) + antenna]
    for x in cases:
        assert not x.is_zero()
        assert exact(differential(x)) == exact(reference("differential", x))


def group_order(gens, n):
    """The order of the group the vertex maps ``gens`` generate."""
    seen = {tuple(range(n + 1))}
    stack = list(seen)
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen)


def automorphism_count(n, edges, fixed=0):
    norm = sorted((min(u, v), max(u, v)) for u, v in edges)
    count = 0
    for perm in itertools.permutations(range(fixed + 1, n + 1)):
        g = (*range(fixed + 1), *perm)
        count += sorted((min(g[u], g[v]), max(g[u], g[v])) for u, v in norm) == norm
    return count


def test_search_generators_are_even_and_generate_the_automorphism_group():
    rng = random.Random(7)
    graphs = [(g, 0) for g in enumerate_gc_graphs(6)] + [(*wheel(5).terms, 0)]
    graphs += [(g, 2) for g in psi_map(wheel(5)).terms]
    orders = []
    for g, fixed in graphs:
        for h in (g, relabelled(g, rng)) if not fixed else (g,):
            key, sign, gens = graphcx._search(h.n, list(h.edges), fixed)
            assert (key, sign) == graphcx.canonical_form(h.n, list(h.edges), fixed)
            norm = [(min(u, v), max(u, v)) for u, v in h.edges]
            index = {e: i for i, e in enumerate(norm)}
            for a in gens:
                assert all(a[v] == v for v in range(fixed + 1))
                perm = [index[(min(a[u], a[v]), max(a[u], a[v]))] for u, v in norm]
                assert sorted(perm) == list(range(len(norm)))
                assert graphcx._perm_sign(perm) == 1
            order = group_order(gens, h.n)
            assert order == automorphism_count(h.n, h.edges, fixed)
        if not fixed:
            orders.append(order)
    assert orders == [24, 10, 2, 2, 48, 720, 10]
