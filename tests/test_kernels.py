"""The series kernels against naive references over every scalar ring.

The references below are the plain pair loops: a product that forms every
term pair and discards the over-long ones, a Leibniz rule that builds
``w[:j] * image * w[j+1:]`` as full products, and sums that copy the
accumulator at every step.  The kernels must give equal values in the same
term order, including when coefficients cancel to exact zeros.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from assoclab.ncalg import (LieSeries, NCSeries, add_scaled, lie_to_nc,
                            lyndon_bracket_nc, lyndon_words)
from assoclab.scalars import Dual, PolyInT, is_zero
from assoclab.tangent import TDerElem, substitute_many

# few distinct values, so that sums cancel to exact zeros often
SMALL = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)]
HALVES = [-1.0, -0.5, 0.0, 0.5, 1.0]

fractions = st.sampled_from(SMALL)
complexes = st.builds(complex, st.sampled_from(HALVES), st.sampled_from(HALVES))
polys = st.lists(fractions, min_size=1, max_size=2).map(PolyInT)
duals = st.builds(Dual, fractions, fractions)
RINGS = st.sampled_from([fractions, complexes, polys, duals])


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


def same(got: NCSeries, want: NCSeries):
    """Equal values in the same term order (dict order is what later sums see)."""
    assert (got.k, got.order) == (want.k, want.order)
    assert list(got.terms.items()) == list(want.terms.items())
    assert not any(is_zero(c) for c in got.terms.values())


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
    # NCSeries.substitute walks the words unsorted; compare values only
    assert s.substitute(dict(enumerate(images, start=1))) == want


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
