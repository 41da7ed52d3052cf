"""Numerical construction of the KZ associator and multiple zeta values.

The associator comes from the ODE  f' = (1/2pi i)(X/z + Y/(z-1)) f  (the
three-point reduction with the generators substituted) by matching the
solutions normalized at the two singular points at z = 1/2.  The local
exponents are X/(2pi i) at 0 and Y/(2pi i) at 1, and the equation is
invariant under X <-> Y, z <-> 1-z, which is what the duality equation
requires.  So the Frobenius recurrence is run once, at 0, and the tame
factor at 1 is its letter swap in the local coordinate 1 - z.  Multiple
zeta values enter only as independent numeric spot checks, computed by the
Hoelder convolution at 1/2 from exact partial sums with a bound on the
geometric tails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import CheckError
from .associator import Associator
from .ncalg import NCSeries, add_scaled, relabel

TWO_PI_I = 2j * math.pi
ALPHA = 1.0 / TWO_PI_I


class KZError(CheckError):
    pass


class MzvError(CheckError):
    pass


# -- multiple zeta values -------------------------------------------------------

_EPS = 2.0 ** -53  # unit roundoff of a double


def _index_word(index: tuple[int, ...]) -> tuple[int, ...]:
    """The iterated-integral word x0^(s1-1) x1 ... x0^(sk-1) x1 as 0/1 letters."""
    word: list[int] = []
    for s in index:
        word.extend([0] * (s - 1) + [1])
    return tuple(word)


def _word_index(word: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of _index_word on words ending in x1 (first exponent may be 1)."""
    index, run = [], 1
    for a in word:
        if a == 0:
            run += 1
        else:
            index.append(run)
            run = 1
    return tuple(index)


def _polylog_half(index: tuple[int, ...], terms: int) -> Fraction:
    """Li_index(1/2) summed exactly over n1 <= terms.

    Li_{r1..rd}(x) = sum over n1 > ... > nd >= 1 of x^n1 / (n1^r1 ... nd^rd);
    the inner sums are kept as running totals, so the cost is terms * d.
    """
    d = len(index)
    if d == 0:
        return Fraction(1)
    inner = [Fraction(0)] * (d - 1) + [Fraction(1)]
    total = Fraction(0)
    for n in range(1, terms + 1):
        total += inner[0] / (2 ** n * n ** index[0])
        for i in range(d - 1):
            inner[i] += inner[i + 1] / n ** index[i + 1]
    return total


def _polylog_half_rest(depth: int, terms: int) -> float:
    """Bound on the terms n1 > ``terms`` of any depth-``depth`` Li at 1/2.

    The inner sum is at most (1 + ln n1)^(d-1) / (d-1)!, and consecutive
    bounds shrink by at most rho = (1 + 1/(terms+1))^(d-1) / 2 < 1.
    """
    m, k = terms + 1, depth - 1
    rho = 0.5 * (1.0 + 1.0 / m) ** k
    if rho >= 1.0:
        return math.inf
    return 2.0 ** -m * (1.0 + math.log(m)) ** k / math.factorial(k) / (1.0 - rho)


def mzv(index: tuple[int, ...], tol: float = 1e-12) -> tuple[float, float]:
    """(zeta(s1, ..., sk), its error bound): zeta = sum over n1 > ... > nk >= 1 of prod nj^-sj.

    Hoelder convolution at 1/2 (Borwein, Bradley and Broadhurst,
    arXiv:math/9910045): the iterated integral of the word w over (0, 1) is
    split at 1/2, so zeta(w) = sum_j L(rev-swap(w[:j])) * L(w[j:]), where
    L is a multiple polylogarithm at 1/2 and rev-swap reverses the word and
    exchanges x0 <-> x1 (the substitution t -> 1 - t).  Each L converges
    like 2^-n at any depth.  The truncated sums are exact rationals, so the
    error bound is the omitted tails plus one rounding to float; MzvError
    is raised when it cannot meet ``tol``, so a returned bound is at most
    ``tol``.
    """
    index = tuple(int(s) for s in index)
    if not index or index[0] < 2 or any(s < 1 for s in index):
        raise MzvError(f"non-admissible index {index}")
    word = _index_word(index)
    n = len(word)
    # a factor's depth is its count of x1 letters, at most max(#x1, #x0) of
    # w; every factor lies in [0, 1], so each of the n + 1 products a*b
    # misses at most a*eb + b*ea + ea*eb <= 3 * rest
    depth = max(len(index), n - len(index))

    def rest(terms: int) -> float:
        return max(_polylog_half_rest(d, terms) for d in range(1, depth + 1))

    # past 256 terms the tail is far below the rounding of any double
    terms = 2 * depth + 8
    while 3 * (n + 1) * rest(terms) > tol / 2 and terms < 256:
        terms += 8
    exact = sum(_polylog_half(_word_index(tuple(1 - a for a in reversed(word[:j]))), terms)
                * _polylog_half(_word_index(word[j:]), terms) for j in range(n + 1))
    value = float(exact)
    err = 3 * (n + 1) * rest(terms) + _EPS * value
    if err > tol:
        raise MzvError(f"cannot reach tolerance {tol} for {index} (error bound {err:.1e})")
    return value, err


# -- Frobenius series for the KZ equation ---------------------------------------

@dataclass
class FuchsSeries:
    """Tame factor of a solution of the regularized KZ equation, as a power series.

    Its coefficients are in the local coordinate x: x = z for the expansion
    at 0 and x = 1 - z for its mirror image at 1.
    """

    order: int            # word truncation
    coeffs: list[NCSeries] = field(default_factory=list)

    def evaluate(self, x: complex) -> NCSeries:
        """Value of the tame factor, sum_m c_m x^m."""
        acc: dict = {}
        p = 1.0
        for c in self.coeffs:
            add_scaled(acc, c.terms.items(), p)
            p *= x
        return NCSeries._nonzero(2, self.order, acc)

    def derivative_at(self, x: complex) -> NCSeries:
        """d/dx of the tame factor: sum_m m c_m x^{m-1}."""
        acc: dict = {}
        for mth, c in enumerate(self.coeffs[1:], start=1):
            add_scaled(acc, c.terms.items(), mth * x ** (mth - 1))
        return NCSeries._nonzero(2, self.order, acc)

    def mirror(self) -> "FuchsSeries":
        """The X <-> Y letter swap: the expansion at 1 made from the one at 0."""
        swap = {1: (2,), 2: (1,)}
        return FuchsSeries(self.order, [relabel(c, 2, swap) for c in self.coeffs])


def _ad_series(gen: int, order: int) -> NCSeries:
    return NCSeries.generator(2, order, gen, 1.0 + 0.0j)


def kz_regularized_solution(m_order: int, order: int) -> FuchsSeries:
    """Tame factor of the solution normalized to 1 at 0.

    (m - alpha ad_X) c_m = -alpha Y (c_0 + ... + c_{m-1}); the operator is
    invertible for m >= 1 because ad raises word length.  The recurrence at
    1 is this one with X and Y exchanged, so ``mirror`` gives its solution.
    """
    if m_order < 1 or order < 1:
        raise KZError("need m_order >= 1 and order >= 1")
    X = _ad_series(1, order)
    Y = _ad_series(2, order)

    coeffs = [NCSeries.unit(2, order, 1.0 + 0.0j)]
    running = coeffs[0]
    for mth in range(1, m_order + 1):
        rhs = (Y * running).scale(-ALPHA)
        # invert (m - alpha ad_X): geometric series in the nilpotent part
        c = rhs.scale(1.0 / mth)
        term = c
        for _ in range(order):
            term = X.bracket(term).scale(ALPHA / mth)
            if term.is_zero():
                break
            c = c + term
        coeffs.append(c)
        running = running + c
    return FuchsSeries(order, coeffs)


def ode_residual(fuchs: FuchsSeries, z: complex) -> float:
    """Self-consistency of the solution tame(z) z^{alpha X} against the equation at z."""
    order = fuchs.order
    X = _ad_series(1, order)
    Y = _ad_series(2, order)
    tame = fuchs.evaluate(z)
    dtame = fuchs.derivative_at(z)
    w = X.scale(ALPHA * cmath.log(z)).exp()
    f = tame * w
    df = dtame * w + tame * X.scale(ALPHA / z) * w
    rhs = (X.scale(ALPHA / z) + Y.scale(ALPHA / (z - 1.0))) * f
    return df.distance(rhs)


def _assemble_phi(f0: FuchsSeries, f1: FuchsSeries, z: complex) -> NCSeries:
    """f1(z)^{-1} f0(z) with f0 = tame0(z) z^{aX}, f1 = tame1(1-z) (1-z)^{aY}."""
    order = f0.order
    X = _ad_series(1, order)
    Y = _ad_series(2, order)
    left = Y.scale(-ALPHA * cmath.log(1.0 - z)).exp() * f1.evaluate(1.0 - z).inverse()
    right = f0.evaluate(z) * X.scale(ALPHA * cmath.log(z)).exp()
    return left * right


def build_phi_kz(order: int = 5, m_order: int = 64, tol: float = 1e-10):
    """KZ associator plus a report of the construction residuals."""
    if 2.0 ** (-m_order) > tol:
        raise KZError("series order too small for the requested tolerance")
    f0 = kz_regularized_solution(m_order, order)
    f1 = f0.mirror()
    phi_half = _assemble_phi(f0, f1, 0.5 + 0.0j)
    phi_alt = _assemble_phi(f0, f1, 0.4 + 0.0j)
    constancy = phi_half.distance(phi_alt)
    if constancy > tol:
        raise KZError(f"constancy check failed: {constancy:.3e} > {tol:.1e}")
    # clean the tiny imaginary dust on the constant term
    terms = dict(phi_half.terms)
    terms[()] = 1
    phi = Associator(NCSeries._nonzero(2, phi_half.order, terms), origin="kz")
    report = {
        "constancy": constancy,
        "ode-residual-at-0.3": ode_residual(f0, 0.3 + 0.0j),
        "grouplike": phi.grouplike_residual(),
        "lie-log": phi.lie_log_residual(),
        "duality": phi.duality_residual(),
    }
    return phi, report
