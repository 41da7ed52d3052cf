"""Truncated noncommutative series and free Lie algebra machinery.

Words are tuples of 1-based generator indices.  An :class:`NCSeries` is a
sparse coefficient map word -> scalar, truncated at a hard order ``order``.
Truncation is structural: products only pair words whose lengths fit, and
sums accumulate in place, so no kernel builds a term it then discards.  Lie
elements are carried either as NC series (for computation) or as
:class:`LieSeries` in Lyndon-basis coordinates (for normal forms and linear
algebra).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Mapping, Sequence

from .scalars import add_scaled, coeff_abs, rational_field

Word = tuple[int, ...]


class AlphabetError(ValueError):
    pass


class SeriesError(ValueError):
    pass


# -- Lyndon words -------------------------------------------------------------

@lru_cache(maxsize=None)
def lyndon_words(k: int, d: int) -> tuple[Word, ...]:
    """All Lyndon words of length exactly ``d`` over letters 1..k (Duval)."""
    if k < 1 or d < 1:
        raise AlphabetError("need k >= 1 and d >= 1")
    out: list[Word] = []
    w = [1]
    while w:
        if len(w) == d:
            out.append(tuple(w))
        # extend periodically to length d, then increment
        m = len(w)
        while len(w) < d:
            w.append(w[len(w) - m])
        while w and w[-1] == k:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(sorted(out))


def witt_dimension(k: int, d: int) -> int:
    """Number of Lyndon words of length d over k letters (Witt's formula)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _moebius(d // e) * k**e
    return total // d


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    m, out = n, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


@lru_cache(maxsize=None)
def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Chen-Fox-Lyndon factorization w = u v, v the longest proper Lyndon suffix."""
    if len(w) < 2:
        raise SeriesError("single letters have no factorization")
    for i in range(1, len(w)):
        v = w[i:]
        if _is_lyndon(v):
            return w[:i], v
    raise SeriesError(f"{w} is not a Lyndon word")


def _is_lyndon(w: Word) -> bool:
    return all(w < w[i:] for i in range(1, len(w)))


# -- NC series ----------------------------------------------------------------

class NCSeries:
    """Truncated series in the free associative algebra on k generators."""

    __slots__ = ("k", "order", "terms")

    def __init__(self, k: int, order: int, terms: Mapping[Word, object] | None = None):
        self.k = k
        self.order = order
        data: dict[Word, object] = {}
        if terms:
            for w, c in terms.items():
                if len(w) > order:
                    continue
                if any(not (1 <= a <= k) for a in w):
                    raise AlphabetError(f"letter out of range in {w}")
                if c:
                    data[w] = c
        self.terms = data

    # construction helpers
    @staticmethod
    def zero(k: int, order: int) -> "NCSeries":
        return NCSeries(k, order)

    @staticmethod
    def unit(k: int, order: int, c=1) -> "NCSeries":
        return NCSeries(k, order, {(): c})

    @staticmethod
    def generator(k: int, order: int, i: int, c=1) -> "NCSeries":
        return NCSeries(k, order, {(i,): c})

    @staticmethod
    def _nonzero(k: int, order: int, terms: Mapping[Word, object]) -> "NCSeries":
        """Series from terms whose words are known to fit; drops exact zeros only."""
        s = NCSeries.__new__(NCSeries)
        s.k, s.order = k, order
        s.terms = {w: c for w, c in terms.items() if c}
        return s

    def coefficient(self, w: Word):
        return self.terms.get(tuple(w), 0)

    def constant_term(self):
        return self.terms.get((), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        return max((coeff_abs(c) for c in self.terms.values()), default=0.0)

    def degree_part(self, d: int) -> "NCSeries":
        return NCSeries._nonzero(self.k, self.order,
                                 {w: c for w, c in self.terms.items() if len(w) == d})

    def truncate(self, order: int) -> "NCSeries":
        s = NCSeries.__new__(NCSeries)
        s.k, s.order = self.k, order
        s.terms = {w: c for w, c in self.terms.items() if len(w) <= order}
        return s

    def map_coefficients(self, f: Callable) -> "NCSeries":
        return NCSeries._nonzero(self.k, self.order, {w: f(c) for w, c in self.terms.items()})

    def _check_compatible(self, other: "NCSeries"):
        if self.k != other.k or self.order != other.order:
            raise SeriesError(
                f"alphabet/truncation mismatch: ({self.k},{self.order}) vs ({other.k},{other.order})")

    def __add__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            other = NCSeries.unit(self.k, self.order, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCSeries._nonzero(self.k, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return NCSeries._nonzero(self.k, self.order, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            other = NCSeries.unit(self.k, self.order, other)
        return self + (-other)

    def scale(self, c) -> "NCSeries":
        return NCSeries._nonzero(self.k, self.order, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        """Concatenation product, truncated; scalars multiply coefficientwise.

        The right operand's ``length_views`` are built for this one product;
        ``times_views`` pairs each left word only with the right terms that
        fit, so no pair is formed to be discarded.
        """
        if not isinstance(other, NCSeries):
            return self.scale(other)
        self._check_compatible(other)
        return times_views(self, length_views(other))

    def __rmul__(self, other):
        return self.scale(other)

    def bracket(self, other: "NCSeries") -> "NCSeries":
        return self * other - other * self

    def exp(self) -> "NCSeries":
        if self.constant_term():
            raise SeriesError("exp needs zero constant term")
        rational = rational_field(self.terms.values())
        out: dict[Word, object] = {(): 1}
        power = NCSeries.unit(self.k, self.order)
        fact = 1
        for n in range(1, self.order + 1):
            power = power * self
            if power.is_zero():
                break
            fact *= n
            add_scaled(out, power.terms.items(), rational(1, fact))
        return NCSeries._nonzero(self.k, self.order, out)

    def log(self) -> "NCSeries":
        if self.constant_term() - 1:
            raise SeriesError("log needs constant term 1")
        x = self - 1
        rational = rational_field(x.terms.values())
        out: dict[Word, object] = {}
        power = NCSeries.unit(self.k, self.order)
        for n in range(1, self.order + 1):
            power = power * x
            if power.is_zero():
                break
            add_scaled(out, power.terms.items(), rational((-1) ** (n + 1), n))
        return NCSeries._nonzero(self.k, self.order, out)

    def inverse(self) -> "NCSeries":
        """Inverse of a group-like series: the antipode S(g)_w = (-1)^|w| g_{reversed w}.

        A word map with no products.  It serves group-like series only (the
        exponential of a Lie series, and products of those), where it is the
        exact inverse; on any other series it is not.  Raises SeriesError
        unless the constant term is 1.
        """
        if self.constant_term() - 1:
            raise SeriesError("the antipode inverts group-like series, whose constant term is 1")
        return NCSeries._nonzero(self.k, self.order, {
            w[::-1]: -c if len(w) % 2 else c for w, c in self.terms.items()})

    def substitute(self, images: Mapping[int, "NCSeries"]) -> "NCSeries":
        """Algebra homomorphism sending generator i to images[i], truncated."""
        return substitute_many([images[i] for i in range(1, self.k + 1)], [self])[0]

    def distance(self, other: "NCSeries") -> float:
        self._check_compatible(other)
        keys = set(self.terms) | set(other.terms)
        return max((coeff_abs(self.terms.get(w, 0) - other.terms.get(w, 0)) for w in keys),
                   default=0.0)

    def __eq__(self, other):
        if not isinstance(other, NCSeries):
            return NotImplemented
        if self.k != other.k or self.order != other.order:
            return False
        keys = set(self.terms) | set(other.terms)
        return not any(self.terms.get(w, 0) - other.terms.get(w, 0) for w in keys)

    def __repr__(self):
        if not self.terms:
            return f"NCSeries(k={self.k}, N={self.order}, 0)"
        parts = [f"({c})*{''.join(map(str, w)) or '1'}"
                 for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))[:8]]
        more = "" if len(self.terms) <= 8 else f" ... [{len(self.terms)} terms]"
        return f"NCSeries(k={self.k}, N={self.order}, {' + '.join(parts)}{more})"

    def to_json(self) -> dict:
        from .scalars import scalar_to_json
        return {
            "alphabet": self.k,
            "order": self.order,
            "terms": [{"word": list(w), "coeff": scalar_to_json(c)}
                      for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))],
        }

    @staticmethod
    def from_json(obj: dict) -> "NCSeries":
        from .scalars import scalar_from_json
        return NCSeries(obj["alphabet"], obj["order"],
                        {tuple(t["word"]): scalar_from_json(t["coeff"]) for t in obj["terms"]})


def length_views(s: NCSeries) -> list[list[tuple[Word, object]]]:
    """``views[r]`` holds the terms of ``s`` of length <= r, in term order, r = 0..order.

    Built in one pass over the terms.  The views belong to whoever reuses
    the operand and live as long as that reuse: one product in
    ``NCSeries.__mul__``, one call of ``substitute_many``, one component of
    an exponential of a derivation for its powers, and the lifetime of a
    derivation for its letter images (``TDerElem.apply_nc``).
    """
    views: list[list[tuple[Word, object]]] = [[] for _ in range(s.order + 1)]
    for t in s.terms.items():
        for view in views[len(t[0]):]:
            view.append(t)
    return views


def times_views(a: NCSeries, views: Sequence[Sequence[tuple[Word, object]]]) -> NCSeries:
    """The truncated product ``a * b``, given ``views = length_views(b)``.

    A left word u only meets the right terms of length <= N - len(u), in the
    right operand's term order, and every output word sums its contributions
    in the order of the left operand's terms.
    """
    out: dict[Word, object] = {}
    N = a.order
    for u, x in a.terms.items():
        for v, y in views[N - len(u)]:
            w = u + v
            out[w] = out.get(w, 0) + x * y
    return NCSeries._nonzero(a.k, N, out)


def substitute_many(images: Sequence[NCSeries], series_list: Sequence[NCSeries]) -> list[NCSeries]:
    """Apply the algebra endomorphism X_i -> images[i-1] to several series.

    Horner's rule over each series' word trie: with d_a s the series of the
    words of s that start with a, with that letter removed,
    s(img) = c_() + sum_a img_a * (d_a s)(img).  When the shortest word of
    img_a has length l, (d_a s)(img) is needed only to order N - l, so for
    images without a constant term depth m of the trie runs at order N - m;
    a zero image is skipped.  Each image's ``length_views`` are built once,
    on entry, and serve every product with that image.  Nothing is cached:
    only the values on the recursion path are alive.
    """
    if not images:
        return list(series_list)
    for img in images[1:]:
        images[0]._check_compatible(img)
    k, order = images[0].k, images[0].order
    factors = [(length_views(img), min(map(len, img.terms))) if img.terms else None
               for img in images]
    return [NCSeries._nonzero(k, order, _horner(sorted(s.terms.items()), 0, len(s.terms), 0,
                                                order, factors))
            for s in series_list]


def _horner(items, lo: int, hi: int, depth: int, top: int, factors) -> dict:
    """The sum of c * img(w[depth:]) over the sorted terms ``items[lo:hi]``, truncated at ``top``.

    The words share their first ``depth`` letters.  Each product
    img_a * value sums over the value's terms first, and each output word
    sums its contributions in that order.
    """
    acc: dict[Word, object] = {}
    if lo < hi and len(items[lo][0]) == depth:
        acc[()] = items[lo][1]
        lo += 1
    while lo < hi:
        a = items[lo][0][depth]
        end = lo + 1
        while end < hi and items[end][0][depth] == a:
            end += 1
        factor = factors[a - 1]
        if factor is not None and factor[1] <= top:
            views, low = factor
            for v, y in _horner(items, lo, end, depth + 1, top - low, factors).items():
                if y:
                    for u, x in views[top - len(v)]:
                        w = u + v
                        acc[w] = acc.get(w, 0) + x * y
        lo = end
    return acc


def relabel(s: NCSeries, k: int, letters: Mapping[int, Sequence[int]]) -> NCSeries:
    """Send X_a to the sum of X_b over b in letters[a], on k letters.

    With one letter per entry this renames letters; ``(i, i + 1)`` for a
    splits X_i into X_i + X_{i+1}.  Words keep their length.  The images
    must be disjoint and inside 1..k, so that no two words of ``s`` meet:
    each coefficient is copied as it is, with no sum and no check.
    """
    return NCSeries._nonzero(k, s.order, {w2: c for w, c in s.terms.items()
                                          for w2 in product(*(letters[a] for a in w))})


# -- Lie elements -------------------------------------------------------------

@lru_cache(maxsize=None)
def lyndon_bracket_nc(k: int, order: int, w: Word) -> NCSeries:
    """NC expansion of the standard Lyndon bracketing of ``w``, integer-valued."""
    if len(w) == 1:
        return NCSeries.generator(k, order, w[0])
    u, v = standard_factorization(w)
    return lyndon_bracket_nc(k, order, u).bracket(lyndon_bracket_nc(k, order, v))


class LieSeries:
    """Free-Lie-algebra element in Lyndon coordinates, truncated at ``order``."""

    __slots__ = ("k", "order", "coords")

    def __init__(self, k: int, order: int, coords: Mapping[Word, object] | None = None):
        self.k = k
        self.order = order
        data: dict[Word, object] = {}
        if coords:
            for w, c in coords.items():
                if len(w) > order or not c:
                    continue
                if not _is_lyndon(tuple(w)):
                    raise SeriesError(f"{w} is not a Lyndon word")
                data[tuple(w)] = c
        self.coords = data

    @staticmethod
    def zero(k: int, order: int) -> "LieSeries":
        return LieSeries(k, order)

    @staticmethod
    def generator(k: int, order: int, i: int, c=1) -> "LieSeries":
        return LieSeries(k, order, {(i,): c})

    def is_zero(self) -> bool:
        return not self.coords

    def max_abs(self) -> float:
        return max((coeff_abs(c) for c in self.coords.values()), default=0.0)

    def degree_part(self, d: int) -> "LieSeries":
        return LieSeries(self.k, self.order,
                         {w: c for w, c in self.coords.items() if len(w) == d})

    def __add__(self, other: "LieSeries") -> "LieSeries":
        out = dict(self.coords)
        for w, c in other.coords.items():
            out[w] = out.get(w, 0) + c
        return LieSeries(self.k, min(self.order, other.order), out)

    def __neg__(self):
        return LieSeries(self.k, self.order, {w: -c for w, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LieSeries":
        return LieSeries(self.k, self.order, {w: c * x for w, x in self.coords.items()})

    def __eq__(self, other):
        if not isinstance(other, LieSeries):
            return NotImplemented
        keys = set(self.coords) | set(other.coords)
        return not any(self.coords.get(w, 0) - other.coords.get(w, 0) for w in keys)

    def __repr__(self):
        parts = [f"({c})*L{''.join(map(str, w))}"
                 for w, c in sorted(self.coords.items(), key=lambda t: (len(t[0]), t[0]))[:8]]
        more = "" if len(self.coords) <= 8 else " ..."
        return f"LieSeries(k={self.k}, N={self.order}, {' + '.join(parts) or '0'}{more})"

    def to_json(self) -> dict:
        from .scalars import scalar_to_json
        return {
            "alphabet": self.k,
            "order": self.order,
            "terms": [{"word": list(w), "coeff": scalar_to_json(c)}
                      for w, c in sorted(self.coords.items(), key=lambda t: (len(t[0]), t[0]))],
        }


def lie_to_nc(ell: LieSeries, order: int | None = None) -> NCSeries:
    order = ell.order if order is None else order
    out: dict[Word, object] = {}
    for w, c in ell.coords.items():
        add_scaled(out, lyndon_bracket_nc(ell.k, order, w).terms.items(), c)
    return NCSeries._nonzero(ell.k, order, out)


def nc_project_lie(a: NCSeries, tol: float = 1e-6) -> LieSeries:
    """Dynkin-Specht-Wever projection, expressed in the Lyndon basis.

    A word of length d maps to 1/d times its integer-valued left-iterated
    bracketing, the 1/d a Fraction on exact data (``PolyInT`` and ``Dual``
    divide by an int as by its Fraction); Lie elements are fixed, so the
    projection residual measures failure to be Lie.  The projected series is
    Lie by construction, and the rounding it may carry in the Lyndon basis
    must stay within ``tol``.
    """
    if a.constant_term():
        raise SeriesError("nonzero constant term")
    projected: dict[Word, object] = {}
    for w, c in a.terms.items():
        scale = c * Fraction(1, len(w)) if isinstance(c, (int, Fraction)) else c / len(w)
        add_scaled(projected, _left_bracketing_nc(a.k, a.order, w).terms.items(), scale)
    coords, residual = _lyndon_extract(NCSeries._nonzero(a.k, a.order, projected))
    if residual > tol:
        raise SeriesError(f"Dynkin projection produced a non-Lie series ({residual:.3e})")
    return LieSeries(a.k, a.order, coords)


@lru_cache(maxsize=None)
def _left_bracketing_nc(k: int, order: int, w: Word) -> NCSeries:
    out = NCSeries.generator(k, order, w[0])
    for a in w[1:]:
        out = out.bracket(NCSeries.generator(k, order, a))
    return out


def _lyndon_extract(a: NCSeries) -> tuple[dict, float]:
    coords: dict[Word, object] = {}
    rest = dict(a.terms)
    for d in range(1, a.order + 1):
        for w in lyndon_words(a.k, d):
            c = rest.get(w, 0)
            if not c:
                continue
            coords[w] = c
            for v, b in lyndon_bracket_nc(a.k, a.order, w).terms.items():
                rest[v] = rest.get(v, 0) - c * b
                if not rest[v]:
                    del rest[v]
    residual = max((coeff_abs(c) for c in rest.values()), default=0.0)
    return coords, residual


def lie_coords_from_nc(a: NCSeries) -> LieSeries:
    """Lyndon coordinates of an NC series assumed to be a Lie element.

    Uses the triangularity of Lyndon bracketings (each expands as its word
    plus lexicographically larger words) and raises on any residual, i.e.
    if the input was not Lie.
    """
    coords, residual = _lyndon_extract(a)
    if residual > 0:
        raise SeriesError(f"series is not Lie (residual {residual:.3e})")
    return LieSeries(a.k, a.order, coords)


# -- shuffles and group-likeness ----------------------------------------------

@lru_cache(maxsize=None)
def shuffle_words(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    """Shuffle product of two words as (word, multiplicity) pairs."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc: dict[Word, int] = {}
    for w, m in shuffle_words(u[:-1], v):
        w2 = w + (u[-1],)
        acc[w2] = acc.get(w2, 0) + m
    for w, m in shuffle_words(u, v[:-1]):
        w2 = w + (v[-1],)
        acc[w2] = acc.get(w2, 0) + m
    return tuple(acc.items())


def is_grouplike(g: NCSeries) -> float:
    """Max shuffle residual |c(u)c(v) - sum_{w in u sh v} c(w)| over word pairs."""
    if g.constant_term() - 1:
        raise SeriesError("group-like test needs constant term 1")
    worst = 0.0
    words_by_len: dict[int, list[Word]] = {}
    for w in all_words(g.k, g.order):
        words_by_len.setdefault(len(w), []).append(w)
    for lu in range(1, g.order):
        for lv in range(1, g.order - lu + 1):
            for u in words_by_len[lu]:
                cu = g.terms.get(u, 0)
                for v in words_by_len[lv]:
                    cv = g.terms.get(v, 0)
                    acc = cu * cv
                    for w, m in shuffle_words(u, v):
                        cw = g.terms.get(w, 0)
                        if cw:
                            acc = acc - m * cw
                    r = coeff_abs(acc)
                    if r > worst:
                        worst = r
    return worst


@lru_cache(maxsize=None)
def all_words(k: int, order: int) -> tuple[Word, ...]:
    out: list[Word] = [()]
    layer: list[Word] = [()]
    for _ in range(order):
        layer = [w + (a,) for w in layer for a in range(1, k + 1)]
        out.extend(layer)
    return tuple(out)
