"""Associators, their defining equations, the twist action and the t-flow.

An associator is a group-like series Phi(X, Y); the pentagon and hexagon
equations are decided inside the tangential automorphism groups of arity 4
and 3, never through a PBW normal form.  The one-parameter family of
associators is produced by integrating d/dt Phi^t = tau^t . Phi^t exactly in
polynomial-in-t arithmetic, degree by degree, with Drinfeld's infinitesimal
action of grt on associators (Drinfeld, Leningrad Math. J. 2, 1991, section 5)

    delta_psi Phi = D_psi(Phi) - Phi . psi,   D_psi(x) = [x, psi(x, y)], D_psi(y) = 0,

as the tangent.  The twist action in the arity-3 automorphism group, and its
dual-number tangent ``grt_infinitesimal_act``, share no code with it and are
its independent check (Alekseev-Torossian, Ann. Math. 2012, show that the two
actions agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import CheckError
from .ncalg import (LieSeries, NCSeries, SeriesError, is_grouplike, lie_to_nc,
                    lie_coords_from_nc, nc_project_lie, relabel)
from .scalars import Dual, PolyInT, coeff_abs, iterated_word_integral, s_one_minus_s_power
from .tangent import (TAutElem, TDerElem, center_decompose_t3, duplicate_slot,
                      exp_tder, exp_tder_pair, field_of, log_taut, pad_left, pad_right,
                      pentagon_faces, sym_action, t3_embed, taut_compose, taut_distance,
                      tk_generator)


class AssociatorError(CheckError):
    pass


@dataclass
class Associator:
    """Group-like series in two generators with constant term 1."""

    series: NCSeries
    origin: str = "unspecified"

    def __post_init__(self):
        if self.series.k != 2:
            raise AssociatorError("associators live in two generators")
        if self.series.constant_term() - 1:
            raise AssociatorError("constant term must be 1")

    @property
    def order(self) -> int:
        return self.series.order

    def grouplike_residual(self) -> float:
        return is_grouplike(self.series)

    def _lie_log(self, tol: float = 1e-6) -> tuple[LieSeries, float]:
        """Lie projection of log(series) and the distance of the log from it.

        ``tol`` bounds the rounding left by the Dynkin projection itself.
        """
        lg = self.series.log()
        ell = nc_project_lie(lg, tol)
        return ell, lie_to_nc(ell, self.order).distance(lg)

    def lie_log_residual(self) -> float:
        """Distance of log(series) from the free Lie algebra."""
        return self._lie_log()[1]

    def flip_signs(self) -> "Associator":
        terms = {w: (c if len(w) % 2 == 0 else -c) for w, c in self.series.terms.items()}
        return Associator(NCSeries._nonzero(2, self.order, terms),
                          origin=f"sign-flip({self.origin})")

    def swap_arguments(self) -> NCSeries:
        return relabel(self.series, 2, {1: (2,), 2: (1,)})

    def duality_residual(self) -> float:
        prod = self.series * self.swap_arguments()
        return (prod - NCSeries.unit(2, self.order)).max_abs()

    def to_json(self) -> dict:
        d = self.series.to_json()
        d["kind"] = "associator"
        d["origin"] = self.origin
        return d

    @staticmethod
    def from_json(obj: dict) -> "Associator":
        return Associator(NCSeries.from_json(obj), origin=obj.get("origin", "file"))

    @staticmethod
    def one(order: int) -> "Associator":
        return Associator(NCSeries.unit(2, order), origin="identity")


def _checked_lie_log(phi: Associator, tol: float) -> LieSeries:
    """Lie projection of log Phi; raises if log Phi is further than ``tol`` from it."""
    try:
        ell, res = phi._lie_log(tol)
    except SeriesError as e:
        raise AssociatorError(f"log is not Lie within tolerance ({e})") from e
    if res > tol:
        raise AssociatorError(f"log is not Lie within tolerance ({res:.3e} > {tol:.1e})")
    return ell


def _t3_log(phi: Associator, tol: float) -> TDerElem:
    """u = log Phi on (t12, t23) inside tder3, whose exponential realizes Phi."""
    return t3_embed(_checked_lie_log(phi, tol), phi.order)


def to_taut3(phi: Associator, tol: float = 1e-9) -> tuple[TAutElem, TAutElem]:
    """Realize Phi inside the arity-3 tangential automorphism group, with its inverse.

    Returns (g, g^{-1}) = (exp u, exp -u) for u = ``_t3_log(phi)``, from one
    set of derivation powers.
    """
    return exp_tder_pair(_t3_log(phi, tol))


def check_pentagon(g: TAutElem) -> float:
    """Extensional residual of the five-term equation in arity 4, for g of to_taut3(Phi).

    Compares the generator images l1(l2(X_i)) with r1(r2(r3(X_i))) for
    i = 1..4, with no composite automorphism built: the residual is the
    largest distance over the four images.  Each face is dropped, with the
    action it caches, as soon as its images are used.
    """
    (l1, l2), (r1, r2, r3) = pentagon_faces(g)
    lhs = l1.apply_many(l2.action())
    del l1, l2
    mid = r2.apply_many(r3.action())
    del r2, r3
    rhs = r1.apply_many(mid)
    return max(a.distance(b) for a, b in zip(lhs, rhs))


def check_hexagon(g: TAutElem, g_inv: TAutElem) -> float:
    """Extensional residual of the hexagon equation in arity 3, for (g, g_inv) = to_taut3(Phi).

    Phi^{312} is sym_action([2, 3, 1], g) and (Phi^{132})^{-1} is
    sym_action([1, 3, 2], g_inv).  The braid factors exp(t13/2), exp(t23/2)
    and exp((t13 + t23)/2) are built in g's field: with 1/2 as the float 0.5
    when g has float or complex coefficients, exactly otherwise.
    """
    n = g.order
    half = field_of(g.comps)(1, 2)
    t13 = tk_generator(1, 3, 3, n, half)
    t23 = tk_generator(2, 3, 3, n, half)
    lhs = exp_tder(t13 + t23)
    rhs = taut_compose(
        sym_action([2, 3, 1], g),
        taut_compose(
            exp_tder(t13),
            taut_compose(
                sym_action([1, 3, 2], g_inv),
                taut_compose(exp_tder(t23), g))))
    return taut_distance(lhs, rhs)


# -- the grt side --------------------------------------------------------------

class GrtElem(NamedTuple):
    """Candidate element psi(X, Y) of the associator symmetry Lie algebra.

    Carries the special-derivation avatar it was computed from.
    """

    psi: LieSeries
    pair: TDerElem


def nu_embedding(psi: LieSeries) -> TDerElem:
    """The special-derivation avatar (psi(x,z), psi(y,z)) with z = -x-y."""
    order = psi.order
    nc = lie_to_nc(psi)
    x1 = NCSeries.generator(2, order, 1)
    x2 = NCSeries.generator(2, order, 2)
    z = -(x1 + x2)
    comp1 = nc.substitute({1: x1, 2: z})
    comp2 = nc.substitute({1: x2, 2: z})
    return TDerElem(2, order, (comp1, comp2))


def nu_extract(u: TDerElem) -> LieSeries:
    """Inverse of nu_embedding: psi(x,y) = u_2(-x-y, x)."""
    order = u.order
    x1 = NCSeries.generator(2, order, 1)
    x2 = NCSeries.generator(2, order, 2)
    nc = u.comps[1].substitute({1: -(x1 + x2), 2: x1})
    return lie_coords_from_nc(nc)


def _twisted_group_element(avatar: TDerElem, g3: TAutElem) -> TAutElem:
    """exp(a^{2,3}) exp(a^{1,23}) g exp(-a^{12,3}) exp(-a^{1,2}) in arity 3."""
    w = taut_compose(
        exp_tder(pad_left(avatar)),
        taut_compose(
            exp_tder(duplicate_slot(avatar, 2)),
            taut_compose(
                g3,
                taut_compose(exp_tder(-duplicate_slot(avatar, 1)),
                             exp_tder(-pad_right(avatar))))))
    return w


def _exp_of_reduced_log(w: TAutElem, order: int, tol: float, what: str) -> NCSeries:
    """exp of the non-central part of log w, which must have no central part."""
    split = center_decompose_t3(log_taut(w), tol)
    if coeff_abs(split.alpha) > tol:
        raise AssociatorError(f"central anomaly {coeff_abs(split.alpha):.3e} in {what}")
    return lie_to_nc(split.reduced, order).exp()


def grt_twist_act(psi: LieSeries, phi: Associator, tol: float = 1e-9) -> Associator:
    """Act on an associator by exp(psi), psi in grt, inside the arity-3 automorphism group."""
    if any(len(w) < 2 for w in psi.coords):
        raise AssociatorError("twist log must start in degree >= 2")
    w = _twisted_group_element(nu_embedding(psi), exp_tder(_t3_log(phi, tol)))
    out = _exp_of_reduced_log(w, phi.order, tol, "twist result")
    return Associator(out, origin=f"twisted({phi.origin})")


def grt_infinitesimal_act(psi: LieSeries, phi: Associator,
                          tol: float = 1e-9) -> NCSeries:
    """Tangent of the twist action, extracted with dual numbers.

    The paper's twist in the arity-3 automorphism group, taken to first
    order: the group element of the associator is computed over the plain
    scalar ring and only then lifted; the twist factors are exponentials of
    the eps-scaled avatar images, so the whole first-order computation stays
    exact over the dual ring.  It shares no code with ``drinfeld_tangent``,
    which the flow uses, and is its independent check.
    """
    eps = Dual(Fraction(0), Fraction(1))
    psi_eps = psi.scale(eps)
    g = exp_tder(_t3_log(phi, tol))
    g3 = TAutElem(3, g.order, tuple(c.map_coefficients(lambda x: Dual(x, 0)) for c in g.comps))
    w = _twisted_group_element(nu_embedding(psi_eps), g3)
    out = _exp_of_reduced_log(w, phi.order, tol, "tangent")
    return out.map_coefficients(lambda c: c.tangent if isinstance(c, Dual) else 0)


# -- the interpolation flow ----------------------------------------------------

def drinfeld_tangent(psi: NCSeries, phi: NCSeries) -> NCSeries:
    """Drinfeld's infinitesimal action of psi in grt on Phi: D_psi(Phi) - Phi . psi.

    D_psi is the derivation x -> [x, psi(x, y)], y -> 0 (Drinfeld, Leningrad
    Math. J. 2, 1991, section 5); ``psi`` is the Lie element as a series at
    the order of ``phi``.  The formula is linear in Phi, and for psi of
    degree d it sends the degree-m part of Phi to degree m + d, so a
    homogeneous Phi gives a homogeneous tangent with no term to discard.
    """
    d = TDerElem(2, phi.order, (psi, NCSeries.zero(2, phi.order)))
    return d.apply_nc(phi) - phi * psi


def _flow(phi_init: Associator, t0: Fraction, t1: Fraction,
          generators: Sequence[LieSeries], tol: float, pin=None) -> Associator:
    """``interpolate``, or with ``pin`` the one pass of ``pin_lambda``.

    With ``pin`` the generators are bare sigma_d of rising degree d, the pass
    runs even where t0 == t1, and it swaps sigma_d for ``pin(d, sigma_d, part)``
    on first reaching d, ``part`` the degree-d part of Phi^t from those below d.
    """
    order = phi_init.order
    gens = []
    for ell in generators:
        degrees = {len(w) for w in ell.coords}
        if len(degrees) > 1:
            raise AssociatorError("family generators must be homogeneous")
        for deg in degrees:  # none for the zero series, which contributes nothing
            if deg < 3 or deg % 2 == 0:
                raise AssociatorError("family degrees must be odd and >= 3")
            if deg > order:
                raise AssociatorError("truncation too small for the family degrees")
            gens.append([deg, s_one_minus_s_power(deg - 1), ell if pin else lie_to_nc(ell, order)])
    if pin and [g[0] for g in gens] != sorted(g[0] for g in gens):
        raise AssociatorError("pinned generators must rise in degree")
    _checked_lie_log(phi_init, tol)

    def integrated(rhs: NCSeries) -> NCSeries:
        return rhs.map_coefficients(
            lambda p: (lambda q: q - PolyInT.constant(q(t0)))(p.antiderivative()))

    poly_phi = phi_init.series.map_coefficients(lambda c: PolyInT((c,)))
    lowest = min((deg for deg, _, _ in gens if pin or t0 != t1), default=order + 1)
    for n in range(lowest, order + 1):
        rhs = NCSeries.zero(2, order)
        for i, (deg, tpoly, psi) in enumerate(gens):
            if deg > n:
                continue
            if pin and deg == n:
                psi = gens[i][2] = pin(n, psi, poly_phi.degree_part(n) + integrated(rhs))
            tangent = drinfeld_tangent(psi, poly_phi.degree_part(n - deg))
            rhs = rhs + tangent.map_coefficients(lambda c: tpoly * c)
        poly_phi = poly_phi + integrated(rhs)
    if lowest > order or t0 == t1:
        return Associator(phi_init.series, origin=phi_init.origin)
    return Associator(poly_phi.map_coefficients(lambda p: p(t1)),
                      origin=f"interpolated(t={t1})")


def interpolate(phi_init: Associator, t0: Fraction, t1: Fraction,
                generators: Sequence[LieSeries], tol: float = 1e-9) -> Associator:
    """Solve d/dt Phi^t = tau^t . Phi^t exactly and evaluate at t1.

    tau^t = sum (t(1-t))^(d-1) tau over the ``generators``, homogeneous Lie
    series whose odd degree d >= 3 is read from their words; the zero series
    contributes nothing.  Word coefficients of Phi^t are polynomials in t.
    The tangent is Drinfeld's formula ``drinfeld_tangent``, delta_psi Phi =
    D_psi(Phi) - Phi . psi, which is linear in Phi: a generator of degree d
    sends the degree-(n - d) part of Phi^t to degree n.  The family starts
    in degree 3, so the system is triangular in the word length, and one
    exact polynomial integration per degree produces the flow.  The input is
    checked once to have a Lie logarithm within ``tol``.
    """
    return _flow(phi_init, t0, t1, generators, tol)


def pin_lambda(phi: Associator, sigmas: Sequence[LieSeries], t1: Fraction,
               tol: float) -> tuple[Associator, list[tuple[complex, float]]]:
    """Phi^t1 of the family tau_d = lambda_d sigma_d from Phi, and each (lambda_d, residual).

    The ``sigmas`` rise in odd degree d, and a zero one is dropped.  One flow
    fixes lambda_d on first reaching degree d, so that Phi^1 meets the sign
    flip of ``phi`` there.  The degree-d tangent of sigma_d reads only the
    constant term 1, where Drinfeld's formula gives -sigma_d, so lambda_d is
    one division of the degree-d miss on its largest coefficient (the first,
    on ties); the residual measures its consistency across all degree-d words.
    """
    anti = phi.flip_signs().series
    pins = []

    def pin(d: int, sigma: LieSeries, part: NCSeries) -> NCSeries:
        at_one = -lie_to_nc(sigma, d).degree_part(d)
        base = complex(s_one_minus_s_power(d - 1).integral(Fraction(0), Fraction(1)))
        target = (anti - part.map_coefficients(lambda p: p(1))).degree_part(d).truncate(d)
        best_w = max(at_one.terms, key=lambda w: coeff_abs(at_one.terms[w]))
        lam = complex(target.coefficient(best_w)) / (base * complex(at_one.coefficient(best_w)))
        pins.append((lam, at_one.map_coefficients(lambda c: lam * base * c).distance(
            target.map_coefficients(complex))))
        return lie_to_nc(sigma.scale(lam), phi.order)

    return _flow(phi, Fraction(0), t1, sigmas, tol, pin), pins


# -- exact path-ordered exponential coefficients --------------------------------

def pexp_word_coefficient(word: Sequence[int], t0: Fraction, t1: Fraction) -> Fraction:
    """Coefficient of an abstract generator word in the flow's ordered exponential.

    ``word`` lists odd degrees, e.g. (3, 5) for the product of the degree-3
    and degree-5 generators, earliest time leftmost.  The values satisfy the
    Chen concatenation identity.
    """
    for d in word:
        if d < 3 or d % 2 == 0:
            raise AssociatorError("word letters must be odd degrees >= 3")
    return iterated_word_integral([s_one_minus_s_power(d - 1) for d in word], t0, t1)


def etingof_coefficients() -> tuple[Fraction, Fraction]:
    """The two exact product coefficients that separate the half flows.

    They are half the (3, 5) coefficients of the ordered exponential on
    [0, 1/2] and on [1/2, 1], the normalization of the published values.
    """
    half = Fraction(1, 2)
    return (half * pexp_word_coefficient((3, 5), Fraction(0), half),
            half * pexp_word_coefficient((3, 5), half, Fraction(1)))
