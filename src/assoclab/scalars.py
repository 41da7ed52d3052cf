"""Coefficient rings for the series machinery.

Four kinds of scalars flow through the package:

* exact integers and rationals (``int``, ``fractions.Fraction``),
* double precision floats / complexes for numeric work,
* :class:`PolyInT`, univariate polynomials in an interpolation parameter,
* :class:`Dual`, dual numbers ``a + b*eps`` with ``eps**2 = 0`` for
  first-order perturbations.

All of them are immutable values supporting ``+``, ``-``, ``*``, division by
integers and a truth value that is false exactly at zero (``bool(x)``),
which is the whole interface the series code relies on.  Polynomials and
duals may be nested over any of the other rings.

A rational constant that meets float or complex data enters as the float
p/q (``rational_field``), which is what a ``Fraction`` meeting a float turns
into; exact data keeps exact arithmetic, and on mixed data the exact
coefficients meet the float p/q too.

Integer structure constants stay ``int``: the letters, the pair generators
and the basis vectors of the exact Lie kernels are seeded with the int 1, so
their brackets and Lie images hold ints, and ``Fraction`` appears only where
a division happens (``eliminate``'s kernel vectors and right-hand-side
multipliers, its reduction being fraction-free; the 1/n! and 1/n of exp and
log through ``rational_field``; the Dynkin 1/d).  Every true division of
exact data divides by a ``Fraction``, so no int turns into a float, and an
int meets a float or complex with the bits of its float.

Rational brackets run over integers too: a bilinear map of rational
operands is taken on their integer multiples over one denominator each
(``over_integers``, ``integer_operands``) and divided once per output
coefficient, so no ``Fraction`` arithmetic happens per term pair.  The
exponential and logarithm of rational tangential derivations run on the
same multiples, with one division per output coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import truediv
from typing import Callable, Hashable, Iterable, Mapping, Sequence


class ScalarError(ValueError):
    pass


def _is_plain_number(x) -> bool:
    return isinstance(x, (int, float, complex, Fraction))


def coeff_abs(x) -> float:
    """A float magnitude usable for residual reporting on any scalar."""
    if isinstance(x, PolyInT):
        return max((coeff_abs(c) for c in x.coeffs), default=0.0)
    if isinstance(x, Dual):
        return max(coeff_abs(x.primal), coeff_abs(x.tangent))
    if isinstance(x, Fraction):
        return abs(x.numerator) / x.denominator if x else 0.0
    return float(abs(x))


class PolyInT:
    """Polynomial in one variable, coefficients in any supported ring.

    Coefficients are stored lowest power first with trailing zeros trimmed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(c):
        return PolyInT((c,))

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for zero polynomial

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, PolyInT):
            return other
        if _is_plain_number(other):
            return PolyInT((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] = a[i] + c
        return PolyInT(a)

    __radd__ = __add__

    def __neg__(self):
        return PolyInT(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return PolyInT(())
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return PolyInT(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not _is_plain_number(other):
            return NotImplemented
        if isinstance(other, int):
            other = Fraction(other)
        return PolyInT(tuple(c / other for c in self.coeffs))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("PolyInT", self.coeffs))

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "PolyInT":
        return PolyInT(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def antiderivative(self) -> "PolyInT":
        out = [0]
        for i, c in enumerate(self.coeffs):
            out.append(c / Fraction(i + 1) if isinstance(c, (int, Fraction))
                       else c / (i + 1))
        return PolyInT(out)

    def integral(self, a, b):
        """Definite integral over [a, b] by the power rule, term by term."""
        anti = self.antiderivative()
        return anti(b) - anti(a)

    def __repr__(self):
        if not self.coeffs:
            return "PolyInT(0)"
        return "PolyInT(" + " + ".join(f"({c})*t^{i}" for i, c in enumerate(self.coeffs)) + ")"


class Dual:
    """Dual number ``primal + tangent*eps`` with ``eps**2 = 0``."""

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent=0):
        self.primal = primal
        self.tangent = tangent

    def __bool__(self) -> bool:
        return bool(self.primal) or bool(self.tangent)

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        if _is_plain_number(other) or isinstance(other, PolyInT):
            return Dual(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.primal + o.primal, self.tangent + o.tangent)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.primal, -self.tangent)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.primal * o.primal,
                    self.primal * o.tangent + self.tangent * o.primal)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_plain_number(other):
            if isinstance(other, int):
                other = Fraction(other)
            return Dual(self.primal / other, self.tangent / other)
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.primal == o.primal and self.tangent == o.tangent

    def __hash__(self):
        return hash(("Dual", self.primal, self.tangent))

    def __repr__(self):
        return f"Dual({self.primal!r}, {self.tangent!r})"


# -- exact polynomial integrals (the iterated-integral workhorses) ----------

def s_one_minus_s_power(exponent: int) -> PolyInT:
    """The polynomial ``(s(1-s))**exponent`` with rational coefficients."""
    base = PolyInT((Fraction(0), Fraction(1), Fraction(-1)))  # s - s^2
    out = PolyInT.constant(Fraction(1))
    for _ in range(exponent):
        out = out * base
    return out


def iterated_word_integral(polys: Sequence[PolyInT], a, b):
    """Right-time-ordered iterated integral of a word of polynomials.

    Computes ``int over a < s_1 < ... < s_r < b of prod_i polys[i](s_i)``;
    the first list entry is attached to the earliest time.
    """
    running = PolyInT.constant(Fraction(1))
    for p in polys:
        running = (p * running).antiderivative()
        running = running - PolyInT.constant(running(a))
    return running(b)


# -- exact linear algebra -------------------------------------------------------

def add_scaled(acc: dict, terms: Iterable[tuple[Hashable, object]], c) -> None:
    """In place, ``acc += c * terms``, dropping keys whose sum is exactly zero.

    ``terms`` yields (key, coeff) pairs, added one after the other.  With
    distinct keys this gives the values and the key order of
    ``acc = acc + series.scale(c)`` without copying the accumulator.
    """
    for w, x in terms:
        val = c * x
        if not val:
            continue
        new = acc.get(w, 0) + val
        if not new:
            del acc[w]
        else:
            acc[w] = new


def over_one_denominator(maps: Sequence[Mapping]) -> tuple[list[dict], int]:
    """Maps of int or Fraction values as ints over one denominator: (the maps times D, D).

    D is the lcm of the denominators of all the values.  Scaling by a
    positive int keeps every exact zero, so any sum of the scaled values
    cancels where the sum of the values does.
    """
    denom = lcm(*(x.denominator for m in maps for x in m.values()))
    return [{key: x.numerator * (denom // x.denominator) for key, x in m.items()}
            for m in maps], denom


def over_integers(maps: Sequence[Mapping]):
    """Rational maps as ints over one denominator: (scaled maps, D, all Fractions?), or None.

    None unless every value is an int or a Fraction: float, complex, PolyInT
    and Dual data run as they are.  Int values alone need no scaling, so
    then D is 1 and ``maps`` comes back itself.  The flag says whether every
    value is a Fraction (vacuously so for no values).
    """
    kinds = {type(x) for m in maps for x in m.values()}
    if not kinds <= {int, Fraction}:
        return None
    scaled, denom = (maps, 1) if kinds <= {int} else over_one_denominator(maps)
    return scaled, denom, kinds <= {Fraction}


def integer_operands(a, b):
    """The scaled operands of a bilinear map and the one denominator of its value, or None.

    ``a`` and ``b`` are the ``over_integers`` of the two operands.  Returns
    (scaled a, scaled b, D_a * D_b): the map of the rational operands is its
    map of the scaled ones over D_a * D_b.  That is taken only when both are
    rational and one operand's values are all Fractions; then every term
    pair of the map has a Fraction factor, so each output value is a
    Fraction on either path.  Otherwise None: the map runs on the values as
    they are.
    """
    if a is None or b is None or not (a[2] or b[2]):
        return None
    return a[0], b[0], a[1] * b[1]


def rational_field(values: Iterable) -> Callable[[int, int], object]:
    """The constructor of a constant p/q that is to meet the scalars ``values``.

    Float division if any of them is a float or complex, ``Fraction`` on
    exact data (ints, rationals, PolyInT, Dual).  On mixed data the exact
    values meet the float too.
    """
    return truediv if any(isinstance(x, (float, complex)) for x in values) else Fraction


def eliminate(columns: Sequence[Mapping], rhs: Mapping | None = None):
    """Exact sparse elimination of integer or rational columns, left to right.

    Fraction-free: column j is scaled to integers by the lcm D_j of its
    denominators, its combination of input columns starting at {j: D_j}.
    It is reduced against each earlier pivot entry p by
    vec <- (p/g)*vec - (a/g)*pivot column, a its own entry there and
    g = gcd(p, a), the combination alongside, then divided by the gcd of
    all their entries; it pivots on its least remaining key.  One that
    reduces to zero is a kernel vector, divided by its entry on itself:
    1 there and supported on earlier pivot columns (the RREF null-space
    vector).  ``rhs``, with entries in any ring containing the rationals, is
    reduced with rational multipliers.  Returns the kernel vectors (dicts
    column -> Fraction), the coefficient of each column in ``rhs`` (0 off
    the pivots) and the remainder of ``rhs``.
    """
    pivots = []  # (key, reduced integer column, its entry there, combination of columns)
    kernel = []
    for j, column in enumerate(columns):
        scale = lcm(*(x.denominator for x in column.values()))
        vec = {r: x.numerator * (scale // x.denominator) for r, x in column.items() if x}
        combo = {j: scale}
        for r, pvec, p, pcombo in pivots:
            a = vec.get(r)
            if a:
                g = gcd(p, a)
                p_g, a_g = p // g, a // g
                if p_g != 1:
                    vec = {k: p_g * x for k, x in vec.items()}
                    combo = {k: p_g * x for k, x in combo.items()}
                add_scaled(vec, pvec.items(), -a_g)
                add_scaled(combo, pcombo.items(), -a_g)
        g = gcd(*vec.values(), *combo.values())
        if g != 1:
            vec = {k: x // g for k, x in vec.items()}
            combo = {k: x // g for k, x in combo.items()}
        if vec:
            r = min(vec)
            pivots.append((r, vec, vec[r], combo))
        else:
            kernel.append({i: Fraction(x, combo[j]) for i, x in sorted(combo.items())})
    rest = dict(rhs or {})
    solution = {}
    for r, pvec, p, pcombo in pivots:
        if r in rest:
            f = rest[r] * Fraction(1, p)
            add_scaled(rest, pvec.items(), -f)
            add_scaled(solution, pcombo.items(), f)
    return kernel, [solution.get(j, Fraction(0)) for j in range(len(columns))], rest


# -- JSON encoding ------------------------------------------------------------

def scalar_to_json(x):
    if isinstance(x, Fraction):
        return [str(x.numerator), str(x.denominator)]
    if isinstance(x, bool):
        raise ScalarError("bool is not a scalar")
    if isinstance(x, int):
        return [str(x), "1"]
    if isinstance(x, float):
        return x
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, PolyInT):
        return {"poly": [scalar_to_json(c) for c in x.coeffs]}
    raise ScalarError(f"cannot serialize scalar of type {type(x)!r}")


def scalar_from_json(obj):
    if isinstance(obj, list) and len(obj) == 2 and all(isinstance(s, str) for s in obj):
        return Fraction(int(obj[0]), int(obj[1]))
    if isinstance(obj, (int, float)):
        return float(obj)
    if isinstance(obj, dict) and set(obj) == {"re", "im"}:
        return complex(obj["re"], obj["im"])
    if isinstance(obj, dict) and set(obj) == {"poly"}:
        return PolyInT([scalar_from_json(c) for c in obj["poly"]])
    raise ScalarError(f"cannot parse scalar from {obj!r}")
