"""The series kernels against naive references over every scalar ring.

The references below are the plain pair loops: a product that forms every
term pair and discards the over-long ones, a Leibniz rule that builds
``w[:j] * image * w[j+1:]`` as full products, and sums that copy the
accumulator at every step; a logarithm of tangential automorphisms that
takes a full-order exponential at every degree, and an embedding into tder3
that evaluates every bracketing afresh.  The kernels must give equal values
in the same term order, including when coefficients cancel to exact zeros.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from assoclab import tangent
from assoclab.ncalg import (LieSeries, NCSeries, add_scaled, lie_to_nc,
                            lyndon_bracket_nc, lyndon_words, substitute_many)
from assoclab.scalars import Dual, PolyInT, is_zero
from assoclab.tangent import (TAutElem, TDerElem, center_decompose_t3,
                              evaluate_lie_in_tder, exp_tder, log_taut,
                              normalize_tuple_gauge, t3_embed,
                              taut_compose, tder_bracket, tk_generator)

# few distinct values, so that sums cancel to exact zeros often
SMALL = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)]
HALVES = [-1.0, -0.5, 0.0, 0.5, 1.0]

fractions = st.sampled_from(SMALL)
complexes = st.builds(complex, st.sampled_from(HALVES), st.sampled_from(HALVES))
polys = st.lists(fractions, min_size=1, max_size=2).map(PolyInT)
duals = st.builds(Dual, fractions, fractions)
RINGS = st.sampled_from([fractions, complexes, polys, duals])
# the ring of the interpolation flow: dual numbers over polynomials in t
flow_ring = st.builds(Dual, st.lists(complexes, min_size=1, max_size=2).map(PolyInT),
                      st.lists(complexes, min_size=1, max_size=2).map(PolyInT))
TANGENT_RINGS = st.sampled_from([fractions, complexes, flow_ring])


# -- references ------------------------------------------------------------------

def ref_add(a, b):
    out = dict(a.terms)
    for w, c in b.terms.items():
        out[w] = out.get(w, 0) + c
    return NCSeries(a.k, a.order, out)


def ref_scale(c, a):
    return NCSeries(a.k, a.order, {w: c * x for w, x in a.terms.items()})


def ref_neg(a):
    return NCSeries(a.k, a.order, {w: -x for w, x in a.terms.items()})


def ref_mul(a, b):
    out = {}
    for u, x in a.terms.items():
        rem = a.order - len(u)
        for v, y in b.terms.items():
            if len(v) > rem:
                continue
            w = u + v
            out[w] = out.get(w, 0) + x * y
    return NCSeries(a.k, a.order, out)


def ref_apply_nc(d, s):
    k, order = d.k, d.order
    out = NCSeries.zero(k, order)
    gens = [NCSeries.generator(k, order, i + 1) for i in range(k)]
    images = [ref_add(ref_mul(x, u), ref_neg(ref_mul(u, x))) for x, u in zip(gens, d.comps)]
    for w, c in s.terms.items():
        for j, a in enumerate(w):
            img = images[a - 1]
            if img.is_zero():
                continue
            left = NCSeries(k, order, {w[:j]: 1})
            right = NCSeries(k, order, {w[j + 1:]: 1})
            out = ref_add(out, ref_scale(c, ref_mul(ref_mul(left, img), right)))
    return out


def ref_substitute_many(images, s):
    k, order = images[0].k, images[0].order
    acc = NCSeries.zero(k, order)
    for w, c in sorted(s.terms.items()):
        p = NCSeries.unit(k, order)
        for a in w:
            p = ref_mul(p, images[a - 1])
        acc = ref_add(acc, ref_scale(c, p))
    return acc


def ref_log_taut(g):
    """Degree by degree, with a full-order exp_tder of the partial logarithm."""
    k, order = g.k, g.order
    gn = normalize_tuple_gauge(g)
    u = TDerElem.zero(k, order)
    for d in range(1, order + 1):
        e = exp_tder(u)
        corr = [(gn.comps[i] - e.comps[i]).degree_part(d) for i in range(k)]
        delta = TDerElem(k, order, corr, gauge=(d == 1))
        if not delta.is_zero():
            u = u + delta
    return u


def ref_t3_embed(ell, order):
    t12 = tk_generator(1, 2, 3, order)
    t23 = tk_generator(2, 3, 3, order)
    return evaluate_lie_in_tder(LieSeries(2, order, ell.coords), {1: t12, 2: t23})


def same(got: NCSeries, want: NCSeries):
    """Equal values in the same term order (dict order is what later sums see)."""
    assert (got.k, got.order) == (want.k, want.order)
    assert list(got.terms.items()) == list(want.terms.items())
    assert not any(is_zero(c) for c in got.terms.values())


def same_tder(got: TDerElem, want: TDerElem):
    assert (got.k, got.order) == (want.k, want.order)
    for a, b in zip(got.comps, want.comps):
        same(a, b)
        assert repr(list(a.terms.items())) == repr(list(b.terms.items()))  # signed zeros


# -- strategies ------------------------------------------------------------------

@st.composite
def series(draw, k, order, coeffs, min_len=0, max_terms=10):
    words = st.lists(st.integers(1, k), min_size=min_len, max_size=order).map(tuple)
    terms = draw(st.dictionaries(words, coeffs, max_size=max_terms))
    return NCSeries(k, order, terms)


@st.composite
def series_pair(draw):
    k, order, ring = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(RINGS)
    return draw(series(k, order, ring)), draw(series(k, order, ring))


@st.composite
def derivation_and_series(draw):
    k, order, ring = draw(st.integers(2, 3)), draw(st.integers(2, 5)), draw(RINGS)
    comps = [draw(series(k, order, ring, min_len=1, max_terms=5)) for _ in range(k)]
    return TDerElem(k, order, comps), draw(series(k, order, ring))


@st.composite
def accumulation(draw):
    k, order, ring = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(RINGS)
    steps = draw(st.lists(st.tuples(series(k, order, ring), ring), max_size=6))
    return k, order, steps


@st.composite
def substitution(draw):
    k, order, ring = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(RINGS)
    images = [draw(series(k, order, ring, max_terms=4)) for _ in range(k)]
    return images, draw(series(k, order, ring))


def lie_words(k, order):
    return [w for d in range(1, order + 1) for w in lyndon_words(k, d)]


@st.composite
def lie_derivation(draw, k, order, ring):
    words = st.sampled_from(lie_words(k, order))
    comps = [lie_to_nc(LieSeries(k, order, draw(st.dictionaries(words, ring, max_size=4))), order)
             for _ in range(k)]
    return TDerElem(k, order, comps)


@st.composite
def automorphism(draw):
    """exp(u), possibly composed with exp(v), possibly off the normalized gauge."""
    k, order = draw(st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4)]))
    ring = draw(TANGENT_RINGS)
    g = exp_tder(draw(lie_derivation(k, order, ring)))
    if draw(st.booleans()):
        g = taut_compose(g, exp_tder(draw(lie_derivation(k, order, ring))))
    if draw(st.booleans()):
        i = draw(st.integers(1, k))
        comps = list(g.comps)
        comps[i - 1] = NCSeries.generator(k, order, i, draw(ring)).exp() * comps[i - 1]
        g = TAutElem(k, order, comps)
    return g


@st.composite
def two_letter_lie(draw):
    order, ring = draw(st.integers(1, 5)), draw(TANGENT_RINGS)
    coords = draw(st.dictionaries(st.sampled_from(lie_words(2, order)), ring, max_size=6))
    return LieSeries(2, order, coords), draw(st.integers(1, 5))


# -- properties --------------------------------------------------------------------

@settings(max_examples=300, derandomize=True, deadline=None)
@given(series_pair())
def test_mul_matches_pair_loop(pair):
    a, b = pair
    same(a * b, ref_mul(a, b))
    same(a + b, ref_add(a, b))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(derivation_and_series())
def test_apply_nc_matches_product_leibniz(case):
    d, s = case
    same(d.apply_nc(s), ref_apply_nc(d, s))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(accumulation())
def test_add_scaled_matches_copying_sums(case):
    k, order, steps = case
    acc, want = {}, NCSeries.zero(k, order)
    for s, c in steps:
        add_scaled(acc, s.terms.items(), c)
        want = ref_add(want, ref_scale(c, s))
    same(NCSeries(k, order, acc), want)
    assert list(acc) == list(want.terms)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(substitution())
def test_substitutions_match_copying_sums(case):
    images, s = case
    want = ref_substitute_many(images, s)
    same(substitute_many(images, [s])[0], want)
    same(s.substitute(dict(enumerate(images, start=1))), want)


def test_cancellation_to_zero_keeps_term_order():
    # the word (1, 2) cancels after the second step and is re-added last
    acc = {}
    x = NCSeries(2, 3, {(1, 2): Fraction(1), (2,): Fraction(1)})
    y = NCSeries(2, 3, {(1, 2): Fraction(-1)})
    for s in (x, y, x):
        add_scaled(acc, s.terms.items(), Fraction(1))
    assert list(acc.items()) == [((2,), Fraction(2)), ((1, 2), Fraction(1))]
    want = ref_add(ref_add(x, y), x)
    assert list(want.terms.items()) == list(acc.items())


def test_lie_to_nc_matches_copying_sums():
    coords = {w: Fraction(i % 5 - 2, 1 + i % 3)
              for i, w in enumerate(w for d in range(1, 5) for w in lyndon_words(3, d))}
    ell = LieSeries(3, 4, coords)
    want = NCSeries.zero(3, 4)
    for w, c in ell.coords.items():
        want = ref_add(want, ref_scale(c, lyndon_bracket_nc(3, 4, w)))
    same(lie_to_nc(ell), want)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(automorphism())
def test_log_taut_matches_full_order_exponentials(g):
    same_tder(log_taut(g), ref_log_taut(g))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(two_letter_lie())
def test_t3_embed_matches_fresh_bracketings(case):
    ell, order = case
    same_tder(t3_embed(ell, order), ref_t3_embed(ell, order))


def test_cached_t3_images_are_not_mutated():
    order = 5
    ell = LieSeries(2, order, {w: Fraction(i % 3 - 1, 1 + i % 2)
                               for i, w in enumerate(lie_words(2, order))})
    center_decompose_t3(t3_embed(ell, order))
    center_decompose_t3(t3_embed(ell.scale(0.5 + 0.25j), order), tol=1e-12)
    for w in lie_words(2, order):
        fresh = ref_t3_embed(LieSeries(2, order, {w: Fraction(1)}), order)
        same_tder(tangent._t3_word_image(w, order), fresh)


# -- work counts -------------------------------------------------------------------

def counter(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_log_taut_builds_no_exponential(monkeypatch):
    t12, t23 = tk_generator(1, 2, 3, 4), tk_generator(2, 3, 3, 4)
    g = exp_tder(t12 + tder_bracket(t12, t23).scale(Fraction(1, 3)))
    exps = counter(monkeypatch, tangent, "exp_tder")
    applies = counter(monkeypatch, TDerElem, "apply_nc")
    log_taut(g)
    assert len(exps) == 0
    # (d - 1) derivation powers of 3 components at each degree d <= 4;
    # a full-order exp_tder per degree made 82
    assert len(applies) <= 18


def test_t3_images_are_built_once_per_order(monkeypatch):
    order = 5
    ell = LieSeries(2, order, {w: Fraction(1) for w in lie_words(2, order)})
    u = t3_embed(ell, order)
    center_decompose_t3(u)
    brackets = counter(monkeypatch, tangent, "tder_bracket")
    t3_embed(ell, order)
    center_decompose_t3(u)
    assert len(brackets) == 0
