import random
from fractions import Fraction

import pytest

from assoclab.ncalg import (LieSeries, NCSeries, SeriesError, all_words,
                            is_grouplike, lie_coords_from_nc, lie_to_nc,
                            lyndon_words, nc_project_lie, shuffle_words,
                            standard_factorization, witt_dimension)


def random_lie(k, order, rng, density=0.5, bound=3):
    coords = {}
    for d in range(1, order + 1):
        for w in lyndon_words(k, d):
            if rng.random() < density:
                coords[w] = Fraction(rng.randint(-bound, bound))
    return LieSeries(k, order, coords)


def test_witt_counts():
    for k in (2, 3):
        for d in range(1, 9):
            assert len(lyndon_words(k, d)) == witt_dimension(k, d)


def test_lyndon_examples():
    assert lyndon_words(2, 1) == ((1,), (2,))
    assert lyndon_words(2, 2) == ((1, 2),)
    assert lyndon_words(2, 3) == ((1, 1, 2), (1, 2, 2))
    assert standard_factorization((1, 2)) == ((1,), (2,))


def test_nc_products():
    N = 4
    X = NCSeries.generator(2, N, 1, Fraction(1))
    Y = NCSeries.generator(2, N, 2, Fraction(1))
    one = NCSeries.unit(2, N)
    assert (one + X) * (one + Y) == one + X + Y + X * Y
    a = X * Y + X
    assert a * one == a
    assert not X * Y == Y * X


def test_exp_log_roundtrips():
    rng = random.Random(11)
    for k, order in ((2, 8), (3, 5)):
        ell = random_lie(k, order, rng)
        a = lie_to_nc(ell)
        assert a.exp().log() == a
        g = NCSeries.unit(k, order) + a + (a * a).scale(Fraction(1, 3))
        assert g.log().exp() == g


def test_bch_degree_two():
    N = 2
    X = NCSeries.generator(2, N, 1, Fraction(1))
    Y = NCSeries.generator(2, N, 2, Fraction(1))
    z = (X.exp() * Y.exp()).log()
    assert z.coefficient((1, 2)) == Fraction(1, 2)
    assert z.coefficient((2, 1)) == Fraction(-1, 2)
    assert z.coefficient((1,)) == 1 and z.coefficient((2,)) == 1


def test_dynkin_projection():
    N = 4
    X = NCSeries.generator(2, N, 1, Fraction(1))
    Y = NCSeries.generator(2, N, 2, Fraction(1))
    assert nc_project_lie(X * Y).coords == {(1, 2): Fraction(1, 2)}
    assert nc_project_lie(X.bracket(Y)).coords == {(1, 2): Fraction(1)}
    rng = random.Random(5)
    for k in (2, 3):
        ell = random_lie(k, 6, rng)
        assert nc_project_lie(lie_to_nc(ell)) == ell


def test_lie_to_nc_is_bracket_morphism():
    rng = random.Random(7)
    a = random_lie(2, 5, rng)
    b = random_lie(2, 5, rng)
    rhs = lie_to_nc(a).bracket(lie_to_nc(b))
    lhs = lie_to_nc(lie_coords_from_nc(rhs))
    assert lhs == rhs


def test_grouplike():
    N = 5
    X = NCSeries.generator(2, N, 1, Fraction(1))
    Y = NCSeries.generator(2, N, 2, Fraction(1))
    assert is_grouplike(X.exp()) == 0
    g = NCSeries(2, N, {(): 1, (1, 2): 1})
    assert is_grouplike(g) == 1
    assert is_grouplike(X.bracket(Y).exp()) == 0
    rng = random.Random(3)
    ell = random_lie(2, 5, rng)
    assert is_grouplike(lie_to_nc(ell).exp()) == 0


def test_grouplike_requires_unit():
    with pytest.raises(SeriesError):
        is_grouplike(NCSeries.zero(2, 3))


def test_substitution():
    N = 4
    x1 = LieSeries.generator(3, N, 1)
    x2 = LieSeries.generator(3, N, 2)
    x3 = LieSeries.generator(3, N, 3)
    y1 = LieSeries.generator(2, N, 1)
    y2 = LieSeries.generator(2, N, 2)

    def bracket(a, b):
        return lie_coords_from_nc(lie_to_nc(a).bracket(lie_to_nc(b)))

    def substitute(ell, images):
        return lie_coords_from_nc(lie_to_nc(ell).substitute(
            {i: lie_to_nc(s) for i, s in images.items()}))

    ell = bracket(y1, y2)
    image = substitute(ell, {1: x1 + x2, 2: x3})
    expected = bracket(x1, x3) + bracket(x2, x3)
    assert image == expected
    ident = substitute(ell, {1: y1, 2: y2})
    assert ident == ell
    # swap on a word
    s = NCSeries(2, N, {(1, 2): Fraction(1)})
    swapped = s.substitute({1: NCSeries.generator(2, N, 2),
                            2: NCSeries.generator(2, N, 1)})
    assert swapped.coefficient((2, 1)) == 1 and len(swapped.terms) == 1


def test_substitution_truncates_silently():
    N = 3
    x = NCSeries.generator(2, N, 1, Fraction(1))
    y = NCSeries.generator(2, N, 2, Fraction(1))
    s = NCSeries(2, N, {(1, 1, 1): Fraction(1)})
    img = s.substitute({1: x * y + x, 2: y})
    assert all(len(w) <= N for w in img.terms)


def test_shuffles():
    pairs = dict(shuffle_words((1,), (2,)))
    assert pairs == {(1, 2): 1, (2, 1): 1}
    total = sum(m for _, m in shuffle_words((1, 1), (1,)))
    assert total == 3
    assert dict(shuffle_words((1, 1), (1,))) == {(1, 1, 1): 3}


def test_non_lie_rejected():
    N = 3
    bad = NCSeries(2, N, {(1, 2): Fraction(1)})  # XY alone is not Lie
    with pytest.raises(SeriesError):
        lie_coords_from_nc(bad)


def test_all_words_count():
    assert len(all_words(2, 5)) == 1 + 2 + 4 + 8 + 16 + 32
