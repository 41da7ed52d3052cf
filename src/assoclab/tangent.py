"""Tangential derivations and automorphisms of free Lie algebras.

A tangential derivation of the free Lie algebra on X_1..X_k acts by
``u(X_i) = [X_i, u_i]`` and is stored as the k-tuple of its components
(normalized so that u_i has no X_i term and no constant term).  The
pro-unipotent group integrating them is realized by tuples of group-like
series ``g_i`` acting as ``X_i -> g_i^{-1} X_i g_i``; group elements are
compared extensionally, by their action on the generators.  Every component
is group-like, so its inverse is the antipode (``NCSeries.inverse``, a word
map with no products), and ``TAutElem.action`` is the one formula for the
action.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple, Sequence

from . import CheckError
from .ncalg import (LieSeries, NCSeries, SeriesError, add_scaled, length_views, lyndon_words,
                    relabel, standard_factorization, substitute_many, times_views)
from .scalars import coeff_abs, eliminate, integer_operands, over_integers, rational_field


class ArityError(ValueError):
    pass


def _strip_gauge(comps: Sequence[NCSeries]) -> tuple[NCSeries, ...]:
    """Drop the words (i,) and () from component i, which add [X_i, X_i] = [X_i, 1] = 0."""
    out = []
    for i, c in enumerate(comps, start=1):
        if (i,) in c.terms or () in c.terms:
            c = NCSeries._nonzero(c.k, c.order,
                                  {w: x for w, x in c.terms.items() if w not in ((i,), ())})
        out.append(c)
    return tuple(out)


class TDerElem:
    """Tangential derivation, components as NC series that are Lie elements."""

    __slots__ = ("k", "order", "comps", "_images", "_integer")
    _fill = staticmethod(NCSeries.zero)  # the component of an untouched slot

    def __init__(self, k: int, order: int, comps: Sequence[NCSeries]):
        if len(comps) != k:
            raise ArityError(f"expected {k} components, got {len(comps)}")
        for c in comps:
            if c.k != k or c.order != order:
                raise ArityError("component alphabet/truncation mismatch")
        self.k = k
        self.order = order
        self.comps = _strip_gauge(comps)
        self._images: tuple[list, ...] | None = None
        self._integer: tuple | None | bool = False  # False until over_integers runs

    @staticmethod
    def zero(k: int, order: int) -> "TDerElem":
        return TDerElem(k, order, tuple(NCSeries.zero(k, order) for _ in range(k)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def max_abs(self) -> float:
        return max((c.max_abs() for c in self.comps), default=0.0)

    def __add__(self, other: "TDerElem") -> "TDerElem":
        self._check(other)
        return TDerElem(self.k, self.order,
                        tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return TDerElem(self.k, self.order, tuple(-c for c in self.comps))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TDerElem":
        return TDerElem(self.k, self.order, tuple(x.scale(c) for x in self.comps))

    def map_coefficients(self, f) -> "TDerElem":
        return TDerElem(self.k, self.order,
                        tuple(x.map_coefficients(f) for x in self.comps))

    def _check(self, other: "TDerElem"):
        if self.k != other.k or self.order != other.order:
            raise ArityError("arity/truncation mismatch")

    def __eq__(self, other):
        if not isinstance(other, TDerElem):
            return NotImplemented
        return self.k == other.k and all(a == b for a, b in zip(self.comps, other.comps))

    def distance(self, other: "TDerElem") -> float:
        self._check(other)
        return max(a.distance(b) for a, b in zip(self.comps, other.comps))

    def apply_nc(self, s: NCSeries) -> NCSeries:
        """Extend the derivation by Leibniz to the free associative algebra.

        Letter j of a word w is replaced by each term (v, b) of its image
        [X_a, u_a] that fits, len(v) <= N - len(w) + 1, and c*b, with b as
        the bracket gives it, is added at w[:j] + v + w[j+1:] in one
        accumulator, in the order the product ``w[:j] * image * w[j+1:]``
        would give, letter after letter (one ``add_scaled`` per word).  The
        images' ``length_views`` are built on the first call and kept, as
        ``TAutElem.action`` is: the components never change.
        """
        N = self.order
        if self._images is None:
            self._images = tuple(length_views(NCSeries.generator(self.k, N, i).bracket(c))
                                 for i, c in enumerate(self.comps, start=1))
        images = self._images
        out: dict[tuple[int, ...], object] = {}
        for w, c in s.terms.items():
            rem = N - len(w) + 1
            if rem < 0:  # only from an input truncated above N
                continue
            add_scaled(out, ((w[:j] + v + w[j + 1:], x) for j, a in enumerate(w)
                             for v, x in images[a - 1][rem]), c)
        return NCSeries._nonzero(self.k, N, out)

    def over_integers(self) -> tuple["TDerElem", int, bool] | None:
        """(D*u over ints, D, all Fractions?) on rational u, else None: ``scalars.over_integers``.

        Kept with the derivation, as its letter images are, so the scaled
        copy and its own images serve every bracket and exponential of u.
        On int data the copy is u itself (kept as None, so u holds no cycle).
        """
        if self._integer is False:
            maps = [c.terms for c in self.comps]
            scaled = over_integers(maps)
            if scaled is not None:
                terms, denom, fractions = scaled
                copy = None if terms is maps else TDerElem(
                    self.k, self.order, [NCSeries._nonzero(self.k, self.order, t) for t in terms])
                scaled = copy, denom, fractions
            self._integer = scaled
        if self._integer is None:
            return None
        copy, denom, fractions = self._integer
        return self if copy is None else copy, denom, fractions

    def to_json(self) -> dict:
        return {"arity": self.k, "order": self.order,
                "components": [c.to_json() for c in self.comps]}

    def __repr__(self):
        return f"TDerElem(k={self.k}, N={self.order}, comps={list(self.comps)!r})"


def tk_generator(i: int, j: int, k: int, order: int, c=1) -> TDerElem:
    """The arity-k tangential derivation with c X_j in slot i and c X_i in slot j.

    The default c is the int 1, so brackets of pair generators keep integer
    coefficients.
    """
    if not (1 <= i <= k and 1 <= j <= k) or i == j:
        raise ArityError(f"bad generator indices ({i},{j}) for arity {k}")
    comps = [NCSeries.zero(k, order) for _ in range(k)]
    comps[i - 1] = NCSeries.generator(k, order, j, c)
    comps[j - 1] = NCSeries.generator(k, order, i, c)
    return TDerElem(k, order, comps)


def center_element(k: int, order: int) -> TDerElem:
    """Sum of all pair generators; central in their span."""
    out = TDerElem.zero(k, order)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            out = out + tk_generator(i, j, k, order)
    return out


def tder_bracket(u: TDerElem, v: TDerElem) -> TDerElem:
    """The bracket of tangential derivations: slot i is u(v_i) - v(u_i) + [u_i, v_i].

    It is bilinear, so on rational operands (``integer_operands``) it is the
    bracket of their integer multiples, each output coefficient divided once.
    The multiples are the ones the operands keep (``TDerElem.over_integers``),
    so their letter images are built once across brackets.
    """
    u._check(v)
    scaled = integer_operands(u.over_integers(), v.over_integers())
    if scaled is None:
        return _bracket(u, v)
    a, b, denom = scaled
    return _bracket(a, b).map_coefficients(lambda n: Fraction(n, denom))


def _bracket(u: TDerElem, v: TDerElem) -> TDerElem:
    comps = []
    for i in range(u.k):
        comps.append(u.apply_nc(v.comps[i]) - v.apply_nc(u.comps[i])
                     + u.comps[i].bracket(v.comps[i]))
    return TDerElem(u.k, u.order, comps)


def is_sder(u: TDerElem, tol: float = 0.0) -> bool:
    acc = NCSeries.zero(u.k, u.order)
    for i in range(u.k):
        acc = acc + NCSeries.generator(u.k, u.order, i + 1).bracket(u.comps[i])
    return acc.max_abs() <= tol


# -- tangential automorphisms --------------------------------------------------

class TAutElem:
    """Tangential automorphism as a tuple of group-like series."""

    __slots__ = ("k", "order", "comps", "_action")
    _fill = staticmethod(NCSeries.unit)  # the component of an untouched slot

    def __init__(self, k: int, order: int, comps: Sequence[NCSeries]):
        if len(comps) != k:
            raise ArityError(f"expected {k} components, got {len(comps)}")
        self.k = k
        self.order = order
        self.comps = tuple(comps)
        self._action: tuple[NCSeries, ...] | None = None

    @staticmethod
    def identity(k: int, order: int) -> "TAutElem":
        return TAutElem(k, order, tuple(NCSeries.unit(k, order) for _ in range(k)))

    def _check(self, other: "TAutElem"):
        if self.k != other.k or self.order != other.order:
            raise ArityError("arity/truncation mismatch")

    def action(self) -> tuple[NCSeries, ...]:
        """Images of the generators, X_i -> g_i^{-1} X_i g_i, with g_i^{-1} the antipode."""
        if self._action is None:
            imgs = []
            for i, g in enumerate(self.comps, start=1):
                gi = g.inverse()
                imgs.append(gi * NCSeries.generator(self.k, self.order, i) * g)
            self._action = tuple(imgs)
        return self._action

    def to_json(self) -> dict:
        return {"arity": self.k, "order": self.order,
                "components": [c.to_json() for c in self.comps]}

    def __repr__(self):
        return f"TAutElem(k={self.k}, N={self.order})"


def taut_compose(g: TAutElem, h: TAutElem) -> TAutElem:
    """Composition g then h read as automorphisms: (g o h)(x) = g(h(x))."""
    g._check(h)
    gh = substitute_many(g.action(), list(h.comps))
    return TAutElem(g.k, g.order, tuple(g.comps[i] * gh[i] for i in range(g.k)))


def taut_distance(g: TAutElem, h: TAutElem) -> float:
    """Extensional distance: compare the actions on all generators."""
    g._check(h)
    ga, ha = g.action(), h.action()
    return max(a.distance(b) for a, b in zip(ga, ha))


# -- simplicial and permutation maps ------------------------------------------
#
# One set of maps for derivations and automorphisms: the components are
# relabelled alike, and a new slot gets the class's ``_fill`` component
# (zero for a derivation, the unit for an automorphism).

def pad_right(u: TDerElem | TAutElem) -> TDerElem | TAutElem:
    """Simplicial map keeping slots 1..k and appending an untouched slot."""
    k2 = u.k + 1
    ident = {a: (a,) for a in range(1, u.k + 1)}
    comps = [relabel(c, k2, ident) for c in u.comps]
    comps.append(u._fill(k2, u.order))
    return type(u)(k2, u.order, comps)


def pad_left(u: TDerElem | TAutElem) -> TDerElem | TAutElem:
    """Simplicial map shifting everything to slots 2..k+1."""
    k2 = u.k + 1
    shift = {a: (a + 1,) for a in range(1, u.k + 1)}
    comps = [u._fill(k2, u.order)]
    comps.extend(relabel(c, k2, shift) for c in u.comps)
    return type(u)(k2, u.order, comps)


def duplicate_slot(u: TDerElem | TAutElem, i: int) -> TDerElem | TAutElem:
    """Coproduct map doubling slot i (components get X_i -> X_i + X_{i+1})."""
    if not (1 <= i <= u.k):
        raise ArityError(f"slot {i} out of range for arity {u.k}")
    k2 = u.k + 1
    split = {a: (a,) if a < i else (i, i + 1) if a == i else (a + 1,)
             for a in range(1, u.k + 1)}
    subs = [relabel(c, k2, split) for c in u.comps]
    comps = subs[:i] + [subs[i - 1]] + subs[i:]
    return type(u)(k2, u.order, comps)


# The five arity-4 faces of an arity-3 element, left then right, as
# (sign in the linearized pentagon, letter map, source slot of each target
# slot, None for an untouched slot): u^{1,2,34}, u^{12,3,4}; u^{2,3,4},
# u^{1,23,4}, u^{1,2,3}, which ``duplicate_slot`` 3 and 1, ``pad_left``,
# ``duplicate_slot`` 2 and ``pad_right`` give.  The pentagon equates the
# products of the two sides in this order (Drinfeld, Leningrad Math. J. 2,
# 1991); on derivations its linearization equates their sums.
PENTAGON_FACES = (
    (1, {1: (1,), 2: (2,), 3: (3, 4)}, (1, 2, 3, 3)),
    (1, {1: (1, 2), 2: (3,), 3: (4,)}, (1, 1, 2, 3)),
    (-1, {1: (2,), 2: (3,), 3: (4,)}, (None, 1, 2, 3)),
    (-1, {1: (1,), 2: (2, 3), 3: (4,)}, (1, 2, 2, 3)),
    (-1, {1: (1,), 2: (2,), 3: (3,)}, (1, 2, 3, None)),
)


def sym_action(sigma: Sequence[int], u: TDerElem | TAutElem) -> TDerElem | TAutElem:
    """Right action of a permutation sigma (1-based image list)."""
    inv = {sigma[j - 1]: (j,) for j in range(1, u.k + 1)}
    comps = [relabel(u.comps[sigma[i - 1] - 1], u.k, inv) for i in range(1, u.k + 1)]
    return type(u)(u.k, u.order, comps)


# -- exp and log ---------------------------------------------------------------

def field_of(comps: Sequence[NCSeries]):
    """``rational_field`` of the coefficients of the series ``comps``."""
    return rational_field(x for c in comps for x in c.terms.values())


def _derivation_powers(u: TDerElem) -> tuple[list[list[NCSeries]], int | None]:
    """The derivation powers of exp_tder for a < order, and the denominator D or None.

    powers[a][i] is A_a = u^a(u_i)/a!, with None; on rational u it is the
    int A'_a = U^a(U_i) of U = D*u (``TDerElem.over_integers``), with D.
    """
    scaled = u.over_integers()
    base, denom = (u, None) if scaled is None else scaled[:2]
    rational = field_of(base.comps)
    powers = [list(base.comps)]
    for a in range(1, u.order):
        power = [base.apply_nc(c) for c in powers[-1]]
        powers.append(power if denom else [c.scale(rational(1, a)) for c in power])
    return powers, denom


def _exp_components(powers: list[list[NCSeries]], denom: int | None) -> tuple[NCSeries, ...]:
    """Component tuple of exp(u) from ``_derivation_powers``, by the recurrence on exp_tder.

    On the int powers A'_a the one loop runs G'_n = n! D^n G_n: the G'_m A'_(n-1-m)
    are weighted by C(n-1, m) and there is no 1/n, G'_n gets the weight
    N! D^N / (n! D^n), and each coefficient of g_i - 1 is divided once by N! D^N.
    """
    k, order = powers[0][0].k, powers[0][0].order
    if denom is None:
        rational = field_of(powers[0])
    else:
        top = factorial(order) * denom ** order
    comps = []
    for i in range(k):
        views = [length_views(p[i]) for p in powers[:-1]]  # each right factor viewed once
        parts = [NCSeries.unit(k, order)]  # parts[n] = G_n, or G'_n
        for n in range(1, order + 1):
            gn = powers[n - 1][i]  # G_0 A_{n-1}, then G_m A_{n-1-m} for 0 < m < n
            for m in range(1, n):
                term = times_views(parts[m], views[n - 1 - m])
                gn = gn + (term if denom is None else term.scale(comb(n - 1, m)))
            parts.append(gn.scale(rational(1, n)) if denom is None else gn)
        if denom is None:
            comps.append(sum(parts[1:], parts[0]))
            continue
        acc: dict = {}
        for n in range(1, order + 1):
            add_scaled(acc, parts[n].terms.items(), top // (factorial(n) * denom ** n))
        # no G_n past G_0 has a constant term, as no u_i has one
        comps.append(NCSeries._nonzero(k, order, {(): 1, **{w: Fraction(x, top)
                                                            for w, x in acc.items()}}))
    return tuple(comps)


def exp_tder(u: TDerElem) -> TAutElem:
    """Exponential of a tangential derivation.

    The component tuple solves g_i'(s) = g_i(s) * exp(s u)(u_i), g_i(0) = 1.
    Writing g_i(s) = sum_n s^n G_n and exp(s u)(u_i) = sum_a s^a A_a with
    A_a := u^a(u_i)/a!, its value g_i = sum_n G_n at s = 1 follows from

        G_0 = 1,    n G_n = sum_{p=1..n} G_{n-p} A_{p-1},

    which is exact whenever u is.  G_n starts in degree n, so only
    A_0..A_{N-1} and G_0..G_N enter at order N.  The action is not stored:
    ``TAutElem.action`` computes it from the components.

    On rational u (every coefficient an int or a Fraction) the recurrence
    runs over ints: with U = D*u over one denominator D, A'_a = U^a(U_i)
    and G'_n = n! D^n G_n satisfy

        G'_0 = 1,    G'_n = sum_{p=1..n} C(n-1, p-1) G'_{n-p} A'_{p-1},

    and each coefficient of g_i - 1 = sum_n G'_n / (n! D^n) is one Fraction
    over N! D^N.  Every sum is the rational one times a fixed int, so the
    values, the Fraction type, the int constant 1 and the term order are
    those of the recurrence on Fractions.
    """
    return TAutElem(u.k, u.order, _exp_components(*_derivation_powers(u)))


def exp_tder_pair(u: TDerElem) -> tuple[TAutElem, TAutElem]:
    """(exp u, exp -u) from one set of derivation powers.

    The powers of -u are (-u)^a(-u_i)/a! = (-1)^(a+1) u^a(u_i)/a!, and
    negation is exact, so exp -u equals ``exp_tder(-u)``.
    """
    powers, denom = _derivation_powers(u)
    negated = [p if a % 2 else [-c for c in p] for a, p in enumerate(powers)]
    return (TAutElem(u.k, u.order, _exp_components(powers, denom)),
            TAutElem(u.k, u.order, _exp_components(negated, denom)))


def normalize_tuple_gauge(g: TAutElem) -> TAutElem:
    """Remove the exp(c X_i) left-factor ambiguity from the component tuple.

    Components of the same automorphism differ by group-like left factors
    commuting with their generator; requiring log(g_i) to have no X_i term
    makes the tuple unique and equal to exp_tder's components.  The X_i
    coefficient of log(g_i) = (g_i - 1) - (g_i - 1)^2/2 + ... is that of g_i,
    since every power past the first starts in degree 2.
    """
    comps = []
    for i, gi in enumerate(g.comps, start=1):
        c = gi.coefficient((i,))
        comps.append(NCSeries.generator(g.k, g.order, i, -c).exp() * gi if c else gi)
    return TAutElem(g.k, g.order, tuple(comps))


def log_taut(g: TAutElem) -> TDerElem:
    """Inverse of exp_tder up to extensional equality.

    Works on the gauge-normalized component tuple, where the closed-form
    exponential tuple is reproduced exactly; the components of the logarithm
    are then read off degree by degree.  The degree-d part of exp(u) depends
    only on the words of length <= d, so step d evaluates the closed-form
    components of the partial logarithm truncated at order d, with no action
    and no terms above d; every word of length <= d gets the same
    contributions in the same order as at the full order.  On rational g
    each step takes exp_tder's integer path, one division per coefficient.
    """
    for c in g.comps:
        if c.constant_term() - 1:
            raise SeriesError("log of a non-unipotent tangential automorphism")
    k, order = g.k, g.order
    gn = normalize_tuple_gauge(g)
    u = TDerElem.zero(k, order)
    for d in range(1, order + 1):
        e = _exp_components(*_derivation_powers(TDerElem(k, d, [c.truncate(d) for c in u.comps])))
        # only the degree-d part of the difference is kept, so only it is formed
        corr = [NCSeries._nonzero(k, order, (gn.comps[i].truncate(d).degree_part(d)
                                             - e[i].degree_part(d)).terms) for i in range(k)]
        delta = TDerElem(k, order, corr)
        if not delta.is_zero():
            u = u + delta
    return u


def taut_inverse(g: TAutElem) -> TAutElem:
    """Inverse of a unipotent automorphism: exp(-log g)."""
    return exp_tder(-log_taut(g))


# -- the center decomposition in arity 3 ---------------------------------------

class NotInT3Error(CheckError):
    def __init__(self, degree: int, residual: float):
        super().__init__(f"not in the t3 image at degree {degree} (residual {residual:.3e})")
        self.degree = degree
        self.residual = residual


class CenterSplit(NamedTuple):
    """alpha * (t12+t13+t23) + reduced(t12, t23) decomposition of a tder3 element."""

    alpha: object
    reduced: LieSeries


@lru_cache(maxsize=None)
def _t3_word_image(w: tuple[int, ...], order: int) -> TDerElem:
    """Image in tder3 of the Lyndon bracketing of w on (t12, t23), integer-valued.

    Cached and shared between callers, so the result must never be mutated.
    """
    if len(w) == 1:  # letter 1 is t12, letter 2 is t23
        return tk_generator(w[0], w[0] + 1, 3, order)
    left, right = standard_factorization(w)
    return tder_bracket(_t3_word_image(left, order), _t3_word_image(right, order))


def _flatten(u: TDerElem, d: int) -> dict:
    """The degree-d part of u as one vector, keyed by (component index,) + word."""
    return {(i,) + w: c for i, comp in enumerate(u.comps)
            for w, c in comp.terms.items() if len(w) == d}


def center_decompose_t3(u: TDerElem, tol: float = 0.0) -> CenterSplit:
    """Write u = alpha*c + ell(t12, t23), solving degree by degree.

    Raises NotInT3Error (with the offending degree) when u is not in the
    image of the pair-generator Lie algebra at the requested tolerance.
    The columns are integer-valued, so the degree-d part of u may have
    coefficients in any ring containing the rationals.
    """
    if u.k != 3:
        raise ArityError("center decomposition is defined in arity 3")
    order = u.order
    alpha = 0
    coords: dict[tuple[int, ...], object] = {}
    for d in range(1, order + 1):
        labels = ([None] if d == 1 else []) + list(lyndon_words(2, d))
        images = [center_element(3, order) if w is None else _t3_word_image(w, order)
                  for w in labels]
        kernel, sol, rest = eliminate([_flatten(img, d) for img in images], _flatten(u, d))
        if kernel:
            raise NotInT3Error(d, float("inf"))
        residual = max((coeff_abs(x) for x in rest.values()), default=0.0)
        if residual > tol:
            raise NotInT3Error(d, residual)
        for lab, x in zip(labels, sol):
            if lab is None:
                alpha = x
            elif x:
                coords[lab] = x
    return CenterSplit(alpha, LieSeries(2, order, coords))


def t3_embed(ell: LieSeries, order: int | None = None) -> TDerElem:
    """Evaluate a two-letter Lie series on (t12, t23) inside tder3.

    The scaled word images are summed into the components in place, as
    ``lie_to_nc`` sums bracketings.
    """
    order = ell.order if order is None else order
    out: tuple[dict, ...] = ({}, {}, {})
    for w, c in LieSeries(2, order, ell.coords).coords.items():
        for acc, comp in zip(out, _t3_word_image(w, order).comps):
            add_scaled(acc, comp.terms.items(), c)
    return TDerElem(3, order, [NCSeries._nonzero(3, order, acc) for acc in out])
