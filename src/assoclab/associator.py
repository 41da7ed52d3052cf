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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .ncalg import (LieSeries, NCSeries, SeriesError, is_grouplike, lie_to_nc,
                    lie_coords_from_nc, nc_project_lie, relabel)
from .scalars import (Dual, PolyInT, coeff_abs, is_zero, iterated_word_integral,
                      s_one_minus_s_power)
from .tangent import (TAutElem, TDerElem, center_decompose_t3, duplicate_slot,
                      exp_tder, log_taut, pad_left, pad_right, pentagon_faces,
                      sym_action, t3_embed, taut_compose, taut_distance,
                      taut_inverse, tk_generator)


class AssociatorError(ValueError):
    pass


@dataclass
class Associator:
    """Group-like series in two generators with constant term 1."""

    series: NCSeries
    origin: str = "unspecified"

    def __post_init__(self):
        if self.series.k != 2:
            raise AssociatorError("associators live in two generators")
        if not is_zero(self.series.constant_term() - 1):
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

    def log_lie(self) -> LieSeries:
        return self._lie_log()[0]

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


def to_taut3(phi: Associator, tol: float = 1e-9) -> TAutElem:
    """Realize Phi inside the arity-3 tangential automorphism group."""
    return exp_tder(t3_embed(_checked_lie_log(phi, tol), phi.order))


def check_pentagon(g: TAutElem) -> float:
    """Extensional residual of the five-term equation in arity 4, for g = to_taut3(Phi)."""
    (l1, l2), (r1, r2, r3) = pentagon_faces(g)
    return taut_distance(taut_compose(l1, l2), taut_compose(r1, taut_compose(r2, r3)))


def check_hexagon(g: TAutElem) -> float:
    """Extensional residual of the hexagon equation in arity 3, for g = to_taut3(Phi).

    Phi^{312} is sym_action([2, 3, 1], g) and (Phi^{132})^{-1} is
    sym_action([1, 3, 2], g^{-1}).
    """
    n = g.order
    t13 = tk_generator(1, 3, 3, n)
    t23 = tk_generator(2, 3, 3, n)
    half = Fraction(1, 2)
    lhs = exp_tder((t13 + t23).scale(half))
    rhs = taut_compose(
        sym_action([2, 3, 1], g),
        taut_compose(
            exp_tder(t13.scale(half)),
            taut_compose(
                sym_action([1, 3, 2], taut_inverse(g)),
                taut_compose(exp_tder(t23.scale(half)), g))))
    return taut_distance(lhs, rhs)


# -- the grt side --------------------------------------------------------------

@dataclass
class GrtElem:
    """Candidate element psi(X, Y) of the associator symmetry Lie algebra.

    Optionally carries the special-derivation avatar it was computed from.
    """

    psi: LieSeries
    pair: "TDerElem | None" = None

    def __post_init__(self):
        if self.psi.k != 2:
            raise AssociatorError("grt elements live in two generators")

    def avatar(self) -> TDerElem:
        return self.pair if self.pair is not None else nu_embedding(self.psi)


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


def twist_by_avatar(avatar: TDerElem, phi: Associator,
                    tol: float = 1e-9) -> Associator:
    """Twist action computed entirely inside the arity-3 automorphism group."""
    w = _twisted_group_element(avatar, to_taut3(phi, tol))
    out = _exp_of_reduced_log(w, phi.order, tol, "twist result")
    return Associator(out, origin=f"twisted({phi.origin})")


def grt_twist_act(f: NCSeries, phi: Associator, tol: float = 1e-9) -> Associator:
    """Act on an associator by a group-like series exp(psi), psi in grt."""
    if not is_zero(f.constant_term() - 1):
        raise AssociatorError("twists need constant term 1")
    psi = nc_project_lie(f.log(), tol)
    lowest = min((len(w) for w in psi.coords), default=3)
    if lowest < 2:
        raise AssociatorError("twist log must start in degree >= 2")
    return twist_by_avatar(nu_embedding(psi), phi, tol)


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
    g = to_taut3(phi, tol)
    g3 = TAutElem(3, g.order, tuple(c.map_coefficients(lambda x: Dual(x, 0)) for c in g.comps))
    w = _twisted_group_element(nu_embedding(psi_eps), g3)
    out = _exp_of_reduced_log(w, phi.order, tol, "tangent")
    return out.map_coefficients(lambda c: c.tangent if isinstance(c, Dual) else 0)


# -- the interpolation flow ----------------------------------------------------

@dataclass
class TauFamily:
    """Odd-degree generators tau_{2j+1}; tau^t = sum (t(1-t))^{2j} tau_{2j+1}."""

    generators: list[tuple[int, LieSeries]] = field(default_factory=list)

    def __post_init__(self):
        for deg, ell in self.generators:
            if deg < 3 or deg % 2 == 0:
                raise AssociatorError("family degrees must be odd and >= 3")
            for w in ell.coords:
                if len(w) != deg:
                    raise AssociatorError(f"generator tagged {deg} has a word of length {len(w)}")


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


def interpolate(phi_init: Associator, t0: Fraction, t1: Fraction,
                fam: TauFamily, tol: float = 1e-9) -> Associator:
    """Solve d/dt Phi^t = tau^t . Phi^t exactly and evaluate at t1.

    Word coefficients of Phi^t are polynomials in t.  The tangent is
    Drinfeld's formula ``drinfeld_tangent``, delta_psi Phi = D_psi(Phi) -
    Phi . psi, which is linear in Phi: a generator of degree d sends the
    degree-(n - d) part of Phi^t to degree n.  The family starts in degree 3,
    so the system is triangular in the word length, and one exact polynomial
    integration per degree produces the flow.  The input is checked once to
    have a Lie logarithm within ``tol``.
    """
    order = phi_init.order
    if fam.generators and max(d for d, _ in fam.generators) > order:
        raise AssociatorError("truncation too small for the family degrees")
    _checked_lie_log(phi_init, tol)
    if not fam.generators or t0 == t1:
        return Associator(phi_init.series, origin=phi_init.origin)

    gens = [(deg, s_one_minus_s_power(deg - 1), lie_to_nc(ell, order))
            for deg, ell in fam.generators]
    poly_phi = phi_init.series.map_coefficients(lambda c: PolyInT((c,)))

    for n in range(min(d for d, _ in fam.generators), order + 1):
        rhs = NCSeries.zero(2, order)
        for deg, tpoly, psi in gens:
            if deg > n:
                continue
            tangent = drinfeld_tangent(psi, poly_phi.degree_part(n - deg))
            rhs = rhs + tangent.map_coefficients(lambda c: tpoly * c)
        increment = rhs.map_coefficients(
            lambda p: (lambda q: q - PolyInT.constant(q(t0)))(p.antiderivative()))
        poly_phi = poly_phi + increment
    value = poly_phi.map_coefficients(lambda p: p(t1) if isinstance(p, PolyInT) else p)
    return Associator(value, origin=f"interpolated(t={t1})")


def pin_lambda(phi_kz: Associator, sigma: LieSeries,
               flow: Associator | None = None) -> tuple[complex, float]:
    """Normalize tau_d = lambda * sigma by matching Phi^1 to the sign flip at degree d.

    ``sigma`` is a generator of odd degree d, and ``flow`` is Phi^1 of the
    family with the generators below degree d pinned; without one (d = 3)
    it is ``phi_kz`` itself.  The degree-d tangent of sigma reads only the
    constant term 1 of the associator, where Drinfeld's formula gives
    -sigma, so lambda is one division of the flow's degree-d miss on its
    largest coefficient (the first, on ties); the returned residual
    measures its consistency across all degree-d words.
    """
    flow = phi_kz if flow is None else flow
    d = max((len(w) for w in sigma.coords), default=3)
    at_one = -lie_to_nc(sigma, d).degree_part(d)
    base = s_one_minus_s_power(d - 1).integral(Fraction(0), Fraction(1))  # 1/30 at d = 3
    target = (phi_kz.flip_signs().series - flow.series).degree_part(d).truncate(d)
    best_w = max(at_one.terms, key=lambda w: coeff_abs(at_one.terms[w]), default=None)
    if best_w is None:
        raise AssociatorError(f"degree-{d} action vanishes; cannot pin the normalization")
    lam = (complex(target.coefficient(best_w))
           / (complex(base) * complex(at_one.coefficient(best_w))))
    resid = at_one.map_coefficients(lambda c: lam * complex(base) * c).distance(
        target.map_coefficients(complex))
    return lam, resid


# -- exact path-ordered exponential coefficients --------------------------------

def pexp_word_coefficient(word: Sequence[int], t0: Fraction, t1: Fraction,
                          half_normalized: bool = True) -> Fraction:
    """Coefficient of an abstract generator word in the flow's ordered exponential.

    ``word`` lists odd degrees, e.g. (3, 5) for the product of the degree-3
    and degree-5 generators, earliest time leftmost.  With ``half_normalized``
    the length-2 values carry the extra 1/2 used for the published product
    coefficients; the raw values satisfy the Chen concatenation identity.
    """
    for d in word:
        if d < 3 or d % 2 == 0:
            raise AssociatorError("word letters must be odd degrees >= 3")
    polys = [s_one_minus_s_power(d - 1) for d in word]
    val = iterated_word_integral(polys, t0, t1)
    if half_normalized and len(word) == 2:
        val = val * Fraction(1, 2)
    return val


def etingof_coefficients() -> tuple[Fraction, Fraction]:
    """The two exact product coefficients that separate the half flows."""
    c_a = pexp_word_coefficient((3, 5), Fraction(0), Fraction(1, 2))
    c_b = pexp_word_coefficient((3, 5), Fraction(1, 2), Fraction(1))
    return c_a, c_b
