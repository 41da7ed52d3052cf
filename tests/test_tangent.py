import itertools
import random
from fractions import Fraction

import pytest

from assoclab.ncalg import LieSeries, NCSeries, lie_coords_from_nc, lie_to_nc
from assoclab.tangent import (NotInT3Error, TAutElem, TDerElem, center_decompose_t3,
                              center_element, duplicate_slot, exp_tder, is_sder,
                              log_taut, pad_left, pad_right, sym_action,
                              t3_embed, taut_compose, taut_distance,
                              taut_inverse, tder_bracket, tk_generator)

from test_ncalg import random_lie


def gen(i, j, k, order=4):
    return tk_generator(i, j, k, order)


def random_tder(k, order, rng, density=0.35):
    comps = [lie_to_nc(random_lie(k, order, rng, density), order) for _ in range(k)]
    return TDerElem(k, order, comps)


def random_sder(k, order, rng):
    """Random element of the pair-generator span (hence special)."""
    gens = [tk_generator(i, j, k, order)
            for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    if k == 2:
        # arity 2 needs elements beyond the single pair generator
        from assoclab.associator import nu_embedding
        from assoclab.graphcx import psi3_normalized
        gens = gens + [nu_embedding(LieSeries(2, order, psi3_normalized(3).coords))]
    out = TDerElem.zero(k, order)
    for g in gens:
        out = out + g.scale(Fraction(rng.randint(-2, 2)))
    for _ in range(3):
        if len(gens) >= 2:
            a, b = rng.sample(gens, 2)
            out = out + tder_bracket(a, b).scale(Fraction(rng.randint(-1, 1)))
    return out


def test_tk_generator_tuples():
    t12 = gen(1, 2, 2)
    assert t12.comps[0] == NCSeries.generator(2, 4, 2, Fraction(1))
    assert t12.comps[1] == NCSeries.generator(2, 4, 1, Fraction(1))
    t13 = gen(1, 3, 3)
    assert t13.comps[1].is_zero()
    assert t13.comps[0] == NCSeries.generator(3, 4, 3, Fraction(1))
    assert gen(1, 2, 3) == gen(2, 1, 3)
    with pytest.raises(Exception):
        tk_generator(1, 1, 3, 4)


def test_bracket_examples():
    o = 4
    assert tder_bracket(gen(1, 2, 4, o), gen(3, 4, 4, o)).is_zero()
    assert tder_bracket(gen(1, 2, 3, o), gen(1, 3, 3, o) + gen(2, 3, 3, o)).is_zero()
    b = tder_bracket(gen(1, 2, 3, o), gen(1, 3, 3, o))
    x = [NCSeries.generator(3, o, i, Fraction(1)) for i in (1, 2, 3)]
    assert b.comps[0] == x[1].bracket(x[2])
    assert b.comps[1] == -(x[0].bracket(x[2]))
    assert b.comps[2] == x[0].bracket(x[1])


def test_infinitesimal_braid_relations():
    for k in (3, 4):
        o = 3
        gens = {(i, j): tk_generator(i, j, k, o)
                for i in range(1, k + 1) for j in range(i + 1, k + 1)}
        for (i, j), (l, m) in itertools.combinations(gens, 2):
            if {i, j} & {l, m}:
                continue
            assert tder_bracket(gens[(i, j)], gens[(l, m)]).is_zero()
        for (i, j) in gens:
            for m in range(1, k + 1):
                if m in (i, j):
                    continue
                a, b = tuple(sorted((i, m))), tuple(sorted((j, m)))
                assert tder_bracket(gens[(i, j)], gens[a] + gens[b]).is_zero()
        c = center_element(k, o)
        for g in gens.values():
            assert tder_bracket(c, g).is_zero()


def test_jacobi_and_antisymmetry():
    rng = random.Random(17)
    for k, order in ((3, 4), (4, 5)):
        u, v, w = (random_tder(k, order, rng, 0.25) for _ in range(3))
        assert (tder_bracket(u, v) + tder_bracket(v, u)).is_zero()
        jac = (tder_bracket(u, tder_bracket(v, w))
               + tder_bracket(v, tder_bracket(w, u))
               + tder_bracket(w, tder_bracket(u, v)))
        assert jac.is_zero()


def test_is_sder():
    o = 4
    assert is_sder(gen(1, 2, 2, o))
    bad = TDerElem(2, o, (NCSeries.generator(2, o, 2, Fraction(1)),
                          NCSeries.zero(2, o)))
    assert not is_sder(bad)
    rng = random.Random(23)
    a, b = random_sder(3, o, rng), random_sder(3, o, rng)
    assert is_sder(tder_bracket(a, b))


def test_tder_apply():
    o = 4
    t12 = gen(1, 2, 3, o)
    x = [LieSeries.generator(3, o, i) for i in (1, 2, 3)]

    def apply_lie(ell):
        return lie_coords_from_nc(t12.apply_nc(lie_to_nc(ell)))

    def bracket(a, b):
        return lie_coords_from_nc(lie_to_nc(a).bracket(lie_to_nc(b)))

    assert apply_lie(x[0]) == bracket(x[0], x[1])
    assert apply_lie(LieSeries.zero(3, o)).is_zero()
    got = apply_lie(bracket(x[0], x[2]))
    assert got == bracket(bracket(x[0], x[1]), x[2])


def test_simplicial_and_coproduct_maps():
    o = 4
    t12_2 = gen(1, 2, 2, o)
    assert pad_right(t12_2) == gen(1, 2, 3, o)
    assert duplicate_slot(t12_2, 2) == gen(1, 2, 3, o) + gen(1, 3, 3, o)
    assert pad_left(TDerElem.zero(2, o)).is_zero()
    rng = random.Random(29)
    for mapper in (pad_left, pad_right, lambda u: duplicate_slot(u, 1),
                   lambda u: duplicate_slot(u, 2)):
        a, b = random_sder(2, o, rng), random_sder(2, o, rng)
        assert is_sder(mapper(a))
        lhs = mapper(tder_bracket(a, b))
        rhs = tder_bracket(mapper(a), mapper(b))
        assert lhs.distance(rhs) == 0


def test_sym_action():
    o = 4
    t12 = gen(1, 2, 3, o)
    assert sym_action([1, 2, 3], t12) == t12
    assert sym_action([2, 1, 3], t12) == t12
    assert sym_action([3, 2, 1], t12) == gen(2, 3, 3, o)
    # the hexagon's superscripts: Phi^{312} and Phi^{132}
    assert sym_action([2, 3, 1], gen(2, 3, 3, o)) == t12
    assert sym_action([1, 3, 2], t12) == gen(1, 3, 3, o)
    rng = random.Random(31)
    u = random_tder(3, 4, rng)
    perms = list(itertools.permutations([1, 2, 3]))
    sigma, tau = perms[rng.randrange(6)], perms[rng.randrange(6)]
    comp = tuple(sigma[tau[i] - 1] for i in range(3))
    assert sym_action(tau, sym_action(sigma, u)) == sym_action(comp, u)
    a, b = random_tder(3, 4, rng, 0.3), random_tder(3, 4, rng, 0.3)
    lhs = sym_action(sigma, tder_bracket(a, b))
    rhs = tder_bracket(sym_action(sigma, a), sym_action(sigma, b))
    assert lhs.distance(rhs) == 0


def test_slot_maps_commute_with_exp():
    """The maps act on automorphisms as on derivations: m(exp u) = exp(m u)."""
    o = 4
    rng = random.Random(41)
    u = random_tder(3, o, rng, 0.3)
    maps = [pad_left, pad_right] + [lambda x, i=i: duplicate_slot(x, i) for i in (1, 2, 3)]
    maps += [lambda x, s=s: sym_action(s, x) for s in itertools.permutations([1, 2, 3])]
    for m in maps:
        assert taut_distance(m(exp_tder(u)), exp_tder(m(u))) == 0


def test_exp_log():
    o = 4
    assert taut_distance(exp_tder(TDerElem.zero(3, o)), TAutElem.identity(3, o)) == 0
    rng = random.Random(37)
    for k, order in ((2, 6), (3, 4)):
        u = random_tder(k, order, rng, 0.3)
        assert log_taut(exp_tder(u)).distance(u) == 0
    t12 = gen(1, 2, 3, o)
    e = exp_tder(t12)
    img = e.action()[0]
    assert img.coefficient((1,)) == 1
    assert img.coefficient((1, 2)) == 1 and img.coefficient((2, 1)) == -1
    assert img.coefficient((1, 2, 2)) == Fraction(1, 2)


def test_group_structure():
    o = 4
    t12 = gen(1, 2, 3, o)
    e = exp_tder(t12)
    assert taut_distance(taut_compose(e, taut_inverse(e)), TAutElem.identity(3, o)) == 0
    assert taut_distance(taut_compose(e, e), exp_tder(t12.scale(Fraction(2)))) == 0
    rng = random.Random(41)
    g, h, k_ = (exp_tder(random_tder(3, o, rng, 0.3)) for _ in range(3))
    assert taut_distance(taut_compose(taut_compose(g, h), k_),
                         taut_compose(g, taut_compose(h, k_))) == 0
    # the inverse exp(-log) of a product that is not itself an exponential
    gh = taut_compose(g, h)
    inv = taut_inverse(gh)
    one = TAutElem.identity(3, o)
    assert taut_distance(taut_compose(gh, inv), one) == 0
    assert taut_distance(taut_compose(inv, gh), one) == 0
    assert taut_distance(inv, taut_compose(taut_inverse(h), taut_inverse(g))) == 0
    # the pair (exp u, exp -u) that to_taut3 returns, with no logarithm
    for k, o in ((2, 5), (3, 4)):
        u = random_tder(k, o, rng, 0.3)
        g, g_inv = exp_tder(u), exp_tder(-u)
        one = TAutElem.identity(k, o)
        assert taut_distance(taut_compose(g, g_inv), one) == 0
        assert taut_distance(taut_compose(g_inv, g), one) == 0
        assert taut_distance(g_inv, taut_inverse(g)) == 0


def test_center_decompose():
    o = 4
    t12 = gen(1, 2, 3, o)
    t13 = gen(1, 3, 3, o)
    split = center_decompose_t3(t12)
    assert split.alpha == 0 and split.reduced.coords == {(1,): Fraction(1)}
    split = center_decompose_t3(center_element(3, o))
    assert split.alpha == 1 and split.reduced.is_zero()
    split = center_decompose_t3(t13)
    assert split.alpha == 1
    assert split.reduced.coords == {(1,): Fraction(-1), (2,): Fraction(-1)}
    # round trip through the embedding
    rng = random.Random(47)
    ell = random_lie(2, o, rng, 0.5)
    split = center_decompose_t3(t3_embed(ell, o))
    assert split.alpha == 0 and split.reduced == ell
    # something outside the image
    bad = TDerElem(3, o, (lie_to_nc(LieSeries.generator(3, o, 2), o),
                          NCSeries.zero(3, o), NCSeries.zero(3, o)))
    with pytest.raises(NotInT3Error):
        center_decompose_t3(bad)
