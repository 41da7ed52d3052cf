"""Reference values the benchmark checks results against.

Nothing here calls into ``assoclab``: zeta values come from mpmath, the
KZ word coefficients from the Lie form of the associator's low degrees,
the multiple zeta values from classical closed forms, and exactness
checks read the coefficients directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 30

PI = math.pi
TWO_PI_I = 2j * math.pi


def zeta(k: int) -> float:
    return float(mpmath.zeta(k))


# Phi_KZ = 1 + L2 + L3 + (degree >= 4) with A = X/(2 pi i), B = Y/(2 pi i):
#   L2 = -zeta(2) [A, B]
#   L3 = -zeta(3) ([A, [A, B]] + [B, [A, B]])
# (the coefficient of A^(k-1) B is -zeta(k), the depth-1 sign (-1)^1).
# Expanding the brackets gives these word coefficients in units of
# zeta(k)/(2 pi i)^k; every other word of length 1 to 3 has coefficient 0.
KZ_WORD_UNITS = {
    (1, 2): -1, (2, 1): 1,
    (1, 1, 2): -1, (1, 2, 1): 2, (2, 1, 1): -1,
    (1, 2, 2): 1, (2, 1, 2): -2, (2, 2, 1): 1,
}


def _words(length: int):
    if length == 0:
        yield ()
        return
    for w in _words(length - 1):
        yield w + (1,)
        yield w + (2,)


def kz_depth_one_units(k: int) -> dict[tuple, int]:
    """Coefficients of the length-k words with a single Y, in units of zeta(k)/(2 pi i)^k.

    Every Lie term of log Phi_KZ has degree >= 2 and so holds a Y; a
    product of two holds two.  So the one-Y part of Phi_KZ is that of its
    logarithm, -zeta(k) ad_A^(k-1)(B), and the word with j letters X after
    its Y has coefficient -C(k-1, j) (-1)^j.
    """
    return {(1,) * (k - 1 - j) + (2,) + (1,) * j: -math.comb(k - 1, j) * (-1) ** j
            for j in range(k)}


def kz_reference(order: int = 3) -> dict[tuple, complex]:
    """Coefficients of Phi_KZ on every word of length 0 to 3 and, up to
    ``order``, on the longer words with a single Y."""
    out = {(): 1 + 0j}
    for n in (1, 2, 3):
        for w in _words(n):
            out[w] = KZ_WORD_UNITS.get(w, 0) * zeta(n) / TWO_PI_I ** n if n > 1 else 0j
    for n in range(4, order + 1):
        for w, units in kz_depth_one_units(n).items():
            out[w] = units * zeta(n) / TWO_PI_I ** n
    return out


def flow_degree3_factor(t: Fraction) -> Fraction:
    """Phi^t in degree 3 is this multiple of Phi^0 in degree 3.

    The flow is d/dt Phi^t = tau^t . Phi^t with tau^t = (t(1-t))^2 lambda psi3
    in its lowest degree, and the degree-3 tangent does not depend on the
    associator, so Phi^t_3 = Phi^0_3 + F(t) D with F(t) = int_0^t (s(1-s))^2 ds.
    The normalization pins Phi^1_3 = -Phi^0_3 (the sign flip), which gives
    D = -2 Phi^0_3 / F(1) and the factor 1 - 2 F(t)/F(1) = 1 - 60 F(t).
    """
    f = t ** 3 / 3 - t ** 4 / 2 + t ** 5 / 5
    return 1 - 60 * f


def _mzv_closed_forms() -> dict[tuple, float]:
    z2, z3, z4, z5 = (mpmath.zeta(k) for k in (2, 3, 4, 5))
    pi = mpmath.pi
    z32 = 3 * z2 * z3 - mpmath.mpf(11) / 2 * z5
    z23 = mpmath.mpf(9) / 2 * z5 - 2 * z2 * z3
    z41 = 2 * z5 - z2 * z3
    forms = {
        (2,): z2, (3,): z3, (4,): z4, (5,): z5,
        (2, 1): z3,
        (3, 1): pi ** 4 / 360,
        (2, 2): pi ** 4 / 120,
        (4, 1): z41,
        (3, 2): z32,
        (2, 3): z23,
        (2, 1, 1): z4,
        (3, 1, 1): z41,          # duality with (4, 1)
        (2, 2, 1): z32,          # duality with (3, 2)
        (2, 1, 2): z23,          # duality with (2, 3)
        (2, 1, 1, 1): z5,
    }
    return {k: float(v) for k, v in forms.items()}


MZV_REFERENCE = _mzv_closed_forms()
# Every admissible index (first entry >= 2) of weight <= 5 and depth 1 to 4.
MZV_INDICES = sorted(MZV_REFERENCE, key=lambda ix: (sum(ix), len(ix), ix))


def tetra_weight_reference(t: float) -> float:
    """(4t(1-t))^2 * 5/8 * (-3 zeta(3)/(4 pi^3))."""
    return (4 * t * (1 - t)) ** 2 * 5 / 8 * tetra_type1_reference()


def tetra_type1_reference() -> float:
    return -3 * zeta(3) / (4 * PI ** 3)


def one_vertex_prefactors(t: float) -> tuple[float, float]:
    """Moduli of the factors taking the core plane integral to the (dz, dzbar) coefficients.

    The coefficients are the core integral times (1-t) s / (2 pi^3 i) and
    its conjugate times -t s / (2 pi^3 i), with s = t (1 - t).
    """
    s = t * (1 - t)
    return (1 - t) * s / (2 * PI ** 3), t * s / (2 * PI ** 3)


# -- exactness -------------------------------------------------------------------

def _coefficients(x):
    """Every coefficient of a series, derivation, Lie series or graph combination."""
    if hasattr(x, "comps"):
        for comp in x.comps:
            yield from _coefficients(comp)
    elif hasattr(x, "coords"):
        yield from x.coords.values()
    else:
        yield from x.terms.values()


def exactly_zero(x) -> bool:
    """All coefficients are exact rationals equal to zero."""
    return all(isinstance(c, (int, Fraction)) and c == 0 for c in _coefficients(x))


def permutation_parity(perm: list[int]) -> int:
    """+1 for an even permutation of 0..n-1, -1 for an odd one."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def report_coefficients(series_json: dict) -> dict[tuple, complex]:
    """Word coefficients of a series as the CLI writes it to its JSON report."""
    out = {}
    for term in series_json["terms"]:
        c = term["coeff"]
        if isinstance(c, dict):
            c = complex(c["re"], c["im"])
        elif isinstance(c, list):
            c = Fraction(int(c[0]), int(c[1]))
        out[tuple(term["word"])] = complex(c)
    return out
