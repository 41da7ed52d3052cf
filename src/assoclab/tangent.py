"""Tangential derivations and automorphisms of free Lie algebras.

A tangential derivation of the free Lie algebra on X_1..X_k acts by
``u(X_i) = [X_i, u_i]`` and is stored as the k-tuple of its components
(normalized so that u_i has no X_i term).  The pro-unipotent group
integrating them is realized by tuples of group-like series ``g_i`` acting
as ``X_i -> g_i^{-1} X_i g_i``; group elements are compared extensionally,
by their action on the generators.  Every component is group-like, so its
inverse is the antipode (``NCSeries.inverse``, a word map with no products),
and ``TAutElem.action`` is the one formula for the action.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .ncalg import (LieSeries, NCSeries, SeriesError, add_scaled, bracketing_of,
                    fold_bracketing, lie_coords_from_nc, lie_to_nc, lyndon_words,
                    relabel, standard_factorization, substitute_many)
from .scalars import coeff_abs, eliminate, is_zero


class ArityError(ValueError):
    pass


def _strip_gauge(comps: Sequence[NCSeries]) -> tuple[NCSeries, ...]:
    out = []
    for i, c in enumerate(comps, start=1):
        t = dict(c.terms)
        t.pop((i,), None)
        out.append(NCSeries._nonzero(c.k, c.order, t))
    return tuple(out)


class TDerElem:
    """Tangential derivation, components as NC series that are Lie elements."""

    __slots__ = ("k", "order", "comps")
    _fill = staticmethod(NCSeries.zero)  # the component of an untouched slot

    def __init__(self, k: int, order: int, comps: Sequence[NCSeries], gauge: bool = True):
        if len(comps) != k:
            raise ArityError(f"expected {k} components, got {len(comps)}")
        for c in comps:
            if c.k != k or c.order != order:
                raise ArityError("component alphabet/truncation mismatch")
        self.k = k
        self.order = order
        self.comps = _strip_gauge(comps) if gauge else tuple(comps)

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
                        tuple(x.map_coefficients(f) for x in self.comps), gauge=False)

    def _check(self, other: "TDerElem"):
        if self.k != other.k or self.order != other.order:
            raise ArityError("arity/truncation mismatch")

    def __eq__(self, other):
        if not isinstance(other, TDerElem):
            return NotImplemented
        return self.k == other.k and all(a == b for a, b in zip(self.comps, other.comps))

    def __hash__(self):  # pragma: no cover
        return hash((self.k, self.order, self.comps))

    def distance(self, other: "TDerElem") -> float:
        self._check(other)
        return max(a.distance(b) for a, b in zip(self.comps, other.comps))

    def apply_nc(self, s: NCSeries) -> NCSeries:
        """Extend the derivation by Leibniz to the free associative algebra.

        Letter j of a word w is replaced by each term (v, b) of its image
        [X_a, u_a] that fits, len(v) <= N - len(w) + 1, and c*b is added at
        w[:j] + v + w[j+1:] in one accumulator, in the order the product
        ``w[:j] * image * w[j+1:]`` would give.
        """
        N = self.order
        images = []
        for i in range(self.k):
            img = NCSeries.generator(self.k, N, i + 1).bracket(self.comps[i])
            # the unit factors of w[:j] * image * w[j+1:], kept so that
            # signed zeros inside complex coefficients come out unchanged
            terms = {}
            for v, b in img.terms.items():
                x = 0 + 1 * b
                if not is_zero(x):
                    x = 0 + x * 1
                    if not is_zero(x):
                        terms[v] = x
            images.append({r: [(v, x) for v, x in terms.items() if len(v) <= r]
                           for r in range(N + 1)})
        out: dict[tuple[int, ...], object] = {}
        for w, c in s.terms.items():
            rem = N - len(w) + 1
            if rem < 0:  # only from an input truncated above N
                continue
            for j, a in enumerate(w):
                head, tail = w[:j], w[j + 1:]
                add_scaled(out, ((head + v + tail, x) for v, x in images[a - 1][rem]), c)
        return NCSeries._nonzero(self.k, N, out)

    def apply_lie(self, ell: LieSeries) -> LieSeries:
        return lie_coords_from_nc(self.apply_nc(lie_to_nc(ell)))

    def to_json(self) -> dict:
        return {"arity": self.k, "order": self.order,
                "components": [c.to_json() for c in self.comps]}

    def __repr__(self):
        return f"TDerElem(k={self.k}, N={self.order}, comps={list(self.comps)!r})"


def tk_generator(i: int, j: int, k: int, order: int) -> TDerElem:
    """The arity-k tangential derivation with X_j in slot i and X_i in slot j."""
    if not (1 <= i <= k and 1 <= j <= k) or i == j:
        raise ArityError(f"bad generator indices ({i},{j}) for arity {k}")
    comps = [NCSeries.zero(k, order) for _ in range(k)]
    comps[i - 1] = NCSeries.generator(k, order, j, Fraction(1))
    comps[j - 1] = NCSeries.generator(k, order, i, Fraction(1))
    return TDerElem(k, order, comps)


def center_element(k: int, order: int) -> TDerElem:
    """Sum of all pair generators; central in their span."""
    out = TDerElem.zero(k, order)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            out = out + tk_generator(i, j, k, order)
    return out


def tder_bracket(u: TDerElem, v: TDerElem) -> TDerElem:
    u._check(v)
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

    def apply_many(self, series: Sequence[NCSeries]) -> list[NCSeries]:
        return substitute_many(self.action(), series)

    def to_json(self) -> dict:
        return {"arity": self.k, "order": self.order,
                "components": [c.to_json() for c in self.comps]}

    def __repr__(self):
        return f"TAutElem(k={self.k}, N={self.order})"


def taut_compose(g: TAutElem, h: TAutElem) -> TAutElem:
    """Composition g then h read as automorphisms: (g o h)(x) = g(h(x))."""
    g._check(h)
    gh = g.apply_many(list(h.comps))
    return TAutElem(g.k, g.order, tuple(g.comps[i] * gh[i] for i in range(g.k)))


def taut_distance(g: TAutElem, h: TAutElem) -> float:
    """Extensional distance: compare the actions on all generators."""
    g._check(h)
    ga, ha = g.action(), h.action()
    return max(a.distance(b) for a, b in zip(ga, ha))


def taut_equal(g: TAutElem, h: TAutElem, tol: float = 0.0) -> bool:
    return taut_distance(g, h) <= tol


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


def pentagon_faces(u: TDerElem | TAutElem) -> tuple[tuple, tuple]:
    """The five arity-4 faces of an arity-3 element, as (left, right).

    Left: u^{1,2,34}, u^{12,3,4}; right: u^{2,3,4}, u^{1,23,4}, u^{1,2,3}.
    The pentagon equates the products of the two sides in this order
    (Drinfeld, Leningrad Math. J. 2, 1991); on derivations its
    linearization equates their sums.
    """
    return ((duplicate_slot(u, 3), duplicate_slot(u, 1)),
            (pad_left(u), duplicate_slot(u, 2), pad_right(u)))


def sym_action(sigma: Sequence[int], u: TDerElem | TAutElem) -> TDerElem | TAutElem:
    """Right action of a permutation sigma (1-based image list)."""
    inv = {sigma[j - 1]: (j,) for j in range(1, u.k + 1)}
    comps = [relabel(u.comps[sigma[i - 1] - 1], u.k, inv) for i in range(1, u.k + 1)]
    return type(u)(u.k, u.order, comps)


# -- exp and log ---------------------------------------------------------------

def _exp_components(u: TDerElem) -> tuple[NCSeries, ...]:
    """Component tuple of exp(u), by the recurrence documented on exp_tder."""
    k, order = u.k, u.order
    # derivation powers: powers[a][i] = u^a(u_i)/a! = A_a for a < order
    powers = [list(u.comps)]
    for a in range(1, order):
        powers.append([u.apply_nc(c).scale(Fraction(1, a)) for c in powers[-1]])
    comps = []
    for i in range(k):
        parts = [NCSeries.unit(k, order)]  # parts[n] = G_n
        for n in range(1, order + 1):
            gn = powers[n - 1][i]  # G_0 A_{n-1}, then G_m A_{n-1-m} for 0 < m < n
            for m in range(1, n):
                gn = gn + parts[m] * powers[n - 1 - m][i]
            parts.append(gn.scale(Fraction(1, n)))
        comps.append(sum(parts[1:], parts[0]))
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
    """
    return TAutElem(u.k, u.order, _exp_components(u))


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
        comps.append(gi if is_zero(c) else NCSeries.generator(g.k, g.order, i, -c).exp() * gi)
    return TAutElem(g.k, g.order, tuple(comps))


def log_taut(g: TAutElem) -> TDerElem:
    """Inverse of exp_tder up to extensional equality.

    Works on the gauge-normalized component tuple, where the closed-form
    exponential tuple is reproduced exactly; the components of the logarithm
    are then read off degree by degree.  The degree-d part of exp(u) depends
    only on the words of length <= d, so step d evaluates the closed-form
    components of the partial logarithm truncated at order d, with no action
    and no terms above d; every word of length <= d gets the same
    contributions in the same order as at the full order.
    """
    for c in g.comps:
        if not is_zero(c.constant_term() - 1):
            raise SeriesError("log of a non-unipotent tangential automorphism")
    k, order = g.k, g.order
    gn = normalize_tuple_gauge(g)
    u = TDerElem.zero(k, order)
    for d in range(1, order + 1):
        e = _exp_components(TDerElem(k, d, [c.truncate(d) for c in u.comps], gauge=False))
        corr = [NCSeries._nonzero(k, order, (gn.comps[i].truncate(d) - e[i]).degree_part(d).terms)
                for i in range(k)]
        delta = TDerElem(k, order, corr, gauge=(d == 1))
        if not delta.is_zero():
            u = u + delta
    return u


def taut_inverse(g: TAutElem) -> TAutElem:
    """Inverse of a unipotent automorphism: exp(-log g)."""
    return exp_tder(-log_taut(g))


def tder_bch(u: TDerElem, v: TDerElem) -> TDerElem:
    """Baker-Campbell-Hausdorff series evaluated on tangential derivations.

    Computed independently of exp/log by expanding log(exp(A)exp(B)) in the
    free associative algebra on two symbols and evaluating the Lyndon
    bracketings through tder_bracket.
    """
    u._check(v)
    n = u.order
    A = NCSeries.generator(2, n, 1, Fraction(1))
    B = NCSeries.generator(2, n, 2, Fraction(1))
    word_series = (A.exp() * B.exp()).log()
    coords = lie_coords_from_nc(word_series)
    return evaluate_lie_in_tder(coords, {1: u, 2: v})


def evaluate_lie_in_tder(ell: LieSeries, images: Mapping[int, TDerElem]) -> TDerElem:
    """Evaluate a Lie series on tder images of its generators."""
    any_img = images[next(iter(images))]
    out = TDerElem.zero(any_img.k, any_img.order)
    for w, c in ell.coords.items():
        out = out + fold_bracketing(bracketing_of(w), images.__getitem__, tder_bracket).scale(c)
    return out


# -- the center decomposition in arity 3 ---------------------------------------

class NotInT3Error(ValueError):
    def __init__(self, degree: int, residual: float):
        super().__init__(f"not in the t3 image at degree {degree} (residual {residual:.3e})")
        self.degree = degree
        self.residual = residual


class CenterSplit:
    """alpha * (t12+t13+t23) + reduced(t12, t23) decomposition of a tder3 element."""

    __slots__ = ("alpha", "reduced", "order")

    def __init__(self, alpha, reduced: LieSeries, order: int):
        self.alpha = alpha
        self.reduced = reduced
        self.order = order


@lru_cache(maxsize=None)
def _t3_word_image(w: tuple[int, ...], order: int) -> TDerElem:
    """Image in tder3 of the Lyndon bracketing of w on (t12, t23), exact.

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
    The columns are exact rational, so the degree-d part of u may have
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
            elif not is_zero(x):
                coords[lab] = x
    return CenterSplit(alpha, LieSeries(2, order, coords), order)


def t3_embed(ell: LieSeries, order: int | None = None) -> TDerElem:
    """Evaluate a two-letter Lie series on (t12, t23) inside tder3."""
    order = ell.order if order is None else order
    out = TDerElem.zero(3, order)
    for w, c in LieSeries(2, order, ell.coords).coords.items():
        out = out + _t3_word_image(w, order).scale(c)
    return out
