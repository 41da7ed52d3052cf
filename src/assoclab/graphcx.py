"""The graph complex with odd edges, its bracket, and the maps into sder_2.

Graphs carry an ordered edge list; the orientation is the edge order, so a
relabeling contributes the parity of the induced edge permutation and a
graph admitting an automorphism with odd edge permutation is zero.  Double
edges vanish for the same reason.  The differential is the bracket with the
one-edge graph; the divergence is the bracket with the one-vertex one-loop
graph computed in the ambient complex that admits loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ncalg import LieSeries, NCSeries, fold_bracketing, lie_coords_from_nc, lie_to_nc
from .scalars import is_zero, row_reduce
from .tangent import TDerElem, evaluate_lie_in_tder, tk_generator

Edge = tuple[int, int]


class GraphError(ValueError):
    pass


# -- canonical forms ------------------------------------------------------------

def _sort_with_parity(edges: list[Edge]) -> tuple[tuple[Edge, ...], int]:
    """Stable selection sort, returning the sorted tuple and the swap parity."""
    arr = list(edges)
    sign = 1
    for i in range(len(arr)):
        m = min(range(i, len(arr)), key=lambda j: arr[j])
        if m != i:
            arr[i], arr[m] = arr[m], arr[i]
            sign = -sign
    return tuple(arr), sign


def _colors(n: int, edges: list[Edge], fixed: int) -> list:
    """Iso-invariant vertex colors; vertices <= fixed keep their own label."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    loops = [0] * (n + 1)
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            adj[u].append(v)
            adj[v].append(u)
    col = {v: (0, v) if v <= fixed else (1, len(adj[v]), loops[v]) for v in range(1, n + 1)}
    for _ in range(n):
        nxt = {v: (col[v], tuple(sorted(col[w] for w in adj[v]))) for v in range(1, n + 1)}
        names = {c: i for i, c in enumerate(sorted(set(nxt.values())))}
        new = {v: (0, v) if v <= fixed else (2, names[nxt[v]]) for v in range(1, n + 1)}
        if new == col:
            break
        col = new
    return col


def _candidate_relabelings(n: int, edges: list[Edge], fixed: int):
    """Label maps respecting the color classes; fixed vertices stay put."""
    col = _colors(n, edges, fixed)
    classes: dict = {}
    for v in range(1, n + 1):
        if v > fixed:
            classes.setdefault(col[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    # label blocks: class i receives the next block of labels after `fixed`
    blocks = []
    start = fixed + 1
    for cls in ordered:
        blocks.append(list(range(start, start + len(cls))))
        start += len(cls)
    for perms in itertools.product(*(itertools.permutations(c) for c in ordered)):
        mapping = {v: v for v in range(1, fixed + 1)}
        for cls_perm, block in zip(perms, blocks):
            for v, lbl in zip(cls_perm, block):
                mapping[v] = lbl
        yield mapping


def canonical_form(n: int, edges: list[Edge], fixed: int = 0):
    """Minimal labeled representative with orientation sign, or None if zero.

    ``fixed`` leading vertices (external legs) are never relabeled.
    Returns (edge tuple, sign) with edges sorted, or None when the graph has
    a sign-reversing automorphism or a repeated edge.
    """
    norm = [(min(u, v), max(u, v)) for (u, v) in edges]
    best_key = None
    best_sign = 0
    for mapping in _candidate_relabelings(n, norm, fixed):
        lab = [(min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for (u, v) in norm]
        key, sign = _sort_with_parity(lab)
        if best_key is None or key < best_key:
            best_key, best_sign = key, sign
        elif key == best_key and sign != best_sign:
            return None
    if best_key is None:
        best_key, best_sign = (), 1
    for i in range(len(best_key) - 1):
        if best_key[i] == best_key[i + 1]:
            return None
    return best_key, best_sign


@dataclass(frozen=True)
class GCGraph:
    """Canonically labeled graph; instances are made through ``canonicalize``."""

    n: int
    edges: tuple[Edge, ...]

    def valences(self) -> list[int]:
        val = [0] * (self.n + 1)
        for u, v in self.edges:
            val[u] += 1
            val[v] += 1
        return val[1:]

    def degree(self) -> int:
        return 2 * self.n - 2 - len(self.edges)

    def has_tadpole(self) -> bool:
        return any(u == v for u, v in self.edges)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {1}
        frontier = [1]
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        while frontier:
            v = frontier.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    def is_gc(self) -> bool:
        return (self.is_connected() and not self.has_tadpole()
                and all(d >= 3 for d in self.valences()))

    def one_vertex_irreducible(self) -> bool:
        if self.n <= 2:
            return True
        for v in range(1, self.n + 1):
            rest = [e for e in self.edges if v not in e]
            verts = [w for w in range(1, self.n + 1) if w != v]
            if not verts:
                continue
            seen = {verts[0]}
            frontier = [verts[0]]
            adj: dict[int, list[int]] = {}
            for a, b in rest:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            while frontier:
                x = frontier.pop()
                for w in adj.get(x, ()):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) != len(verts):
                return False
        return True

    def to_json(self) -> dict:
        return {"vertices": self.n, "edges": [list(e) for e in self.edges]}


def canonicalize(n: int, edges: list[Edge]):
    """(canonical GCGraph, sign) or None when the graph is zero."""
    res = canonical_form(n, edges, fixed=0)
    if res is None:
        return None
    key, sign = res
    return GCGraph(n, key), sign


class GraphLinComb:
    """Rational linear combination of canonical graphs."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[GCGraph, Fraction] = {}
        if terms:
            for g, c in terms.items():
                if not is_zero(c):
                    self.terms[g] = c

    @staticmethod
    def from_raw(items: list[tuple[int, list[Edge], Fraction]]) -> "GraphLinComb":
        acc: dict[GCGraph, Fraction] = {}
        for n, edges, c in items:
            res = canonicalize(n, edges)
            if res is None:
                continue
            g, s = res
            acc[g] = acc.get(g, Fraction(0)) + s * c
        return GraphLinComb(acc)

    @staticmethod
    def single(n: int, edges: list[Edge], c=Fraction(1)) -> "GraphLinComb":
        return GraphLinComb.from_raw([(n, edges, Fraction(c))])

    def __add__(self, other: "GraphLinComb") -> "GraphLinComb":
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, Fraction(0)) + c
        return GraphLinComb(out)

    def __neg__(self):
        return GraphLinComb({g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "GraphLinComb":
        return GraphLinComb({g: c * x for g, x in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GraphLinComb):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):  # pragma: no cover
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "GraphLinComb(0)"
        bits = [f"({c})*G(n={g.n},e={list(g.edges)})" for g, c in list(self.terms.items())[:4]]
        more = "" if len(self.terms) <= 4 else f" ... [{len(self.terms)} graphs]"
        return "GraphLinComb(" + " + ".join(bits) + more + ")"

    def to_json(self) -> list:
        return [{"graph": g.to_json(), "coeff": [str(c.numerator), str(c.denominator)]}
                for g, c in self.terms.items()]


# -- insertion, bracket, differential, divergence --------------------------------

def _insert_graph(n1: int, e1: tuple[Edge, ...], i: int,
                  n2: int, e2: tuple[Edge, ...]):
    """All reconnections of inserting the second graph into vertex i."""
    def relabel(v: int) -> int:
        if v < i:
            return v
        if v > i:
            return v + n2 - 1
        raise AssertionError

    ends_at_i: list[tuple[int, int]] = []  # (edge index, endpoint slot)
    for idx, (u, v) in enumerate(e1):
        if u == i:
            ends_at_i.append((idx, 0))
        if v == i:
            ends_at_i.append((idx, 1))

    base = []
    for u, v in e1:
        base.append([u if u != i else None, v if v != i else None])

    n = n1 + n2 - 1
    out = []
    for targets in itertools.product(range(1, n2 + 1), repeat=len(ends_at_i)):
        edges = []
        assigned = {(idx, slot): t for ((idx, slot), t) in zip(ends_at_i, targets)}
        for idx, (u, v) in enumerate(e1):
            uu = relabel(u) if u != i else i - 1 + assigned[(idx, 0)]
            vv = relabel(v) if v != i else i - 1 + assigned[(idx, 1)]
            edges.append((uu, vv))
        for u, v in e2:
            edges.append((i - 1 + u, i - 1 + v))
        out.append((n, edges))
    return out


def _pre_lie(a: GraphLinComb, b: GraphLinComb) -> GraphLinComb:
    raw: list[tuple[int, list[Edge], Fraction]] = []
    for g1, c1 in a.terms.items():
        for g2, c2 in b.terms.items():
            c = c1 * c2
            for i in range(1, g1.n + 1):
                for n, edges in _insert_graph(g1.n, g1.edges, i, g2.n, g2.edges):
                    raw.append((n, edges, c))
    return GraphLinComb.from_raw(raw)


def _homogeneous_degree(a: GraphLinComb) -> int:
    degs = {g.degree() for g in a.terms}
    if len(degs) > 1:
        raise GraphError(f"inhomogeneous combination (degrees {sorted(degs)})")
    return degs.pop() if degs else 0


def gc_bracket(a: GraphLinComb, b: GraphLinComb) -> GraphLinComb:
    """Graded Lie bracket from the insertion pre-Lie product."""
    if a.is_zero() or b.is_zero():
        return GraphLinComb()
    da, db = _homogeneous_degree(a), _homogeneous_degree(b)
    sign = Fraction((-1) ** (da * db))
    return _pre_lie(a, b) - _pre_lie(b, a).scale(sign)


def edge_graph() -> GraphLinComb:
    return GraphLinComb.single(2, [(1, 2)])


def tadpole_graph() -> GraphLinComb:
    return GraphLinComb.single(1, [(1, 1)])


def tetrahedron() -> GraphLinComb:
    return GraphLinComb.single(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def wheel(m: int) -> GraphLinComb:
    """Wheel with m rim vertices (1..m) and hub m+1."""
    edges = [(i, i % m + 1) for i in range(1, m + 1)] + [(i, m + 1) for i in range(1, m + 1)]
    return GraphLinComb.single(m + 1, edges)


NAMED_GRAPHS = {
    "edge": edge_graph,
    "tetrahedron": tetrahedron,
    "wheel3": tetrahedron,
    "wheel5": lambda: wheel(5),
}


def differential(a: GraphLinComb) -> GraphLinComb:
    """Vertex-splitting differential, half the bracket with the one-edge graph.

    The half normalizes the insertion sum to unordered vertex splittings,
    which is the normalization under which the mark-and-delete map
    intertwines the differentials on plain and external-legged graphs.
    """
    if a.is_zero():
        return GraphLinComb()
    return gc_bracket(edge_graph(), a).scale(Fraction(1, 2))


def divergence(a: GraphLinComb) -> GraphLinComb:
    """Bracket with the loop graph, projected back to the loop-free complex."""
    if a.is_zero():
        return GraphLinComb()
    br = gc_bracket(tadpole_graph(), a)
    return GraphLinComb({g: c for g, c in br.terms.items() if not g.has_tadpole()})


def enumerate_gc_graphs(max_vertices: int) -> list[GCGraph]:
    """All canonical loop-free connected graphs with valences >= 3."""
    out = []
    for n in range(2, max_vertices + 1):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        for r in range((3 * n + 1) // 2, len(pairs) + 1):
            for subset in itertools.combinations(pairs, r):
                g = GCGraph(n, subset)
                if not (g.is_connected() and all(d >= 3 for d in g.valences())):
                    continue
                res = canonicalize(n, list(subset))
                if res is None:
                    continue
                cg, _ = res
                if cg not in out:
                    out.append(cg)
    return out


# -- graphs with external legs ---------------------------------------------------

@dataclass(frozen=True)
class ExtGraph:
    """Graph with ``ext`` external vertices labeled 1..ext, internals after."""

    ext: int
    n: int  # total vertex count
    edges: tuple[Edge, ...]

    def internal_valences(self) -> dict[int, int]:
        val = {v: 0 for v in range(self.ext + 1, self.n + 1)}
        for u, v in self.edges:
            if u > self.ext:
                val[u] += 1
            if v > self.ext:
                val[v] += 1
        return val

    def to_json(self) -> dict:
        return {"external": self.ext, "vertices": self.n,
                "edges": [list(e) for e in self.edges]}


def canonicalize_ext(ext: int, n: int, edges: list[Edge]):
    res = canonical_form(n, edges, fixed=ext)
    if res is None:
        return None
    key, sign = res
    return ExtGraph(ext, n, key), sign


class ExtLinComb:
    """Linear combination of canonical external-legged graphs."""

    __slots__ = ("ext", "terms")

    def __init__(self, ext: int, terms: dict | None = None):
        self.ext = ext
        self.terms: dict[ExtGraph, Fraction] = {}
        if terms:
            for g, c in terms.items():
                if not is_zero(c):
                    self.terms[g] = c

    @staticmethod
    def from_raw(ext: int, items: list[tuple[int, list[Edge], Fraction]]) -> "ExtLinComb":
        acc: dict[ExtGraph, Fraction] = {}
        for n, edges, c in items:
            res = canonicalize_ext(ext, n, edges)
            if res is None:
                continue
            g, s = res
            acc[g] = acc.get(g, Fraction(0)) + s * c
        return ExtLinComb(ext, acc)

    def __add__(self, other: "ExtLinComb") -> "ExtLinComb":
        if self.ext != other.ext:
            raise GraphError("external arity mismatch")
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, Fraction(0)) + c
        return ExtLinComb(self.ext, out)

    def __neg__(self):
        return ExtLinComb(self.ext, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ExtLinComb":
        return ExtLinComb(self.ext, {g: c * x for g, x in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, ExtLinComb):
            return NotImplemented
        return self.ext == other.ext and (self - other).is_zero()

    def __repr__(self):
        return f"ExtLinComb(ext={self.ext}, {len(self.terms)} graphs)"


def psi_map(a: GraphLinComb) -> ExtLinComb:
    """Mark an adjacent ordered vertex pair external and delete their edge.

    The deleted edge is moved to the front of the edge order first, which
    contributes its position parity.
    """
    raw: list[tuple[int, list[Edge], Fraction]] = []
    for g, c in a.terms.items():
        for idx, (u, v) in enumerate(g.edges):
            if u == v:
                continue
            sign = Fraction((-1) ** idx)  # move edge idx to the front
            rest = [e for j, e in enumerate(g.edges) if j != idx]
            for (a1, a2) in ((u, v), (v, u)):
                mapping = {a1: 1, a2: 2}
                nxt = 3
                for w in range(1, g.n + 1):
                    if w not in mapping:
                        mapping[w] = nxt
                        nxt += 1
                edges = [(mapping[x], mapping[y]) for (x, y) in rest]
                raw.append((g.n, edges, sign * c))
    return ExtLinComb.from_raw(2, raw)


def mark_one_external(a: GraphLinComb) -> ExtLinComb:
    """Sum over the choices of one vertex to expose as the external leg."""
    raw: list[tuple[int, list[Edge], Fraction]] = []
    for g, c in a.terms.items():
        for v in range(1, g.n + 1):
            mapping = {v: 1}
            nxt = 2
            for w in range(1, g.n + 1):
                if w != v:
                    mapping[w] = nxt
                    nxt += 1
            edges = [(mapping[x], mapping[y]) for (x, y) in g.edges]
            raw.append((g.n, edges, c))
    return ExtLinComb.from_raw(1, raw)


def duplicate_external(a: ExtLinComb) -> ExtLinComb:
    """Split the single external vertex into externals 1, 2 in all ways."""
    if a.ext != 1:
        raise GraphError("duplicate_external expects one external vertex")
    raw: list[tuple[int, list[Edge], Fraction]] = []
    for g, c in a.terms.items():
        ends = []
        for idx, (u, v) in enumerate(g.edges):
            if u == 1:
                ends.append((idx, 0))
            if v == 1:
                ends.append((idx, 1))
        for targets in itertools.product((1, 2), repeat=len(ends)):
            assigned = {key: t for key, t in zip(ends, targets)}
            edges = []
            for idx, (u, v) in enumerate(g.edges):
                uu = assigned.get((idx, 0), None)
                vv = assigned.get((idx, 1), None)
                nu = uu if u == 1 else u + 1
                nv = vv if v == 1 else v + 1
                edges.append((nu, nv))
            raw.append((g.n + 1, edges, c))
    return ExtLinComb.from_raw(2, raw)


def pad_external(a: ExtLinComb, side: str) -> ExtLinComb:
    """Append an isolated external vertex on the left or right."""
    if a.ext != 1:
        raise GraphError("pad_external expects one external vertex")
    raw: list[tuple[int, list[Edge], Fraction]] = []
    for g, c in a.terms.items():
        if side == "right":
            shift = {1: 1}
        else:
            shift = {1: 2}
        for w in range(2, g.n + 1):
            shift[w] = w + 1
        edges = [(shift[x], shift[y]) for (x, y) in g.edges]
        raw.append((g.n + 1, edges, c))
    return ExtLinComb.from_raw(2, raw)


def delta_ext(a: ExtLinComb) -> ExtLinComb:
    """Differential on external-legged graphs (vertex splitting).

    Internal vertices split into an unordered pair of internals; an
    external vertex keeps its leg and spawns an internal neighbour (all
    redistributions of its edge ends); the pendant terms subtract a
    one-valent internal vertex attached anywhere.  The new edge always
    goes first in the edge order; splits carry +1 and pendants -1.  This
    is the unique convention compatible with the marking of the vertex
    splitting differential (pinned by the exact commutation identity with
    the mark-and-delete map on degree-0 graphs).
    """
    out_raw: list[tuple[int, list[Edge], Fraction]] = []
    for g, c in a.terms.items():
        new_vertex = g.n + 1
        for v in range(1, g.n + 1):
            ends = []
            for idx, (x, y) in enumerate(g.edges):
                if x == v:
                    ends.append((idx, 0))
                if y == v:
                    ends.append((idx, 1))
            internal = v > g.ext
            if internal and ends:
                # fix the first end to stay at v: unordered splitting
                choice_sets = [(v,)] + [(v, new_vertex)] * (len(ends) - 1)
            else:
                choice_sets = [(v, new_vertex)] * len(ends)
            for targets in itertools.product(*choice_sets):
                assigned = {key: t for key, t in zip(ends, targets)}
                edges = [(v, new_vertex)]
                for idx, (x, y) in enumerate(g.edges):
                    xx = assigned.get((idx, 0), x)
                    yy = assigned.get((idx, 1), y)
                    edges.append((xx, yy))
                out_raw.append((g.n + 1, edges, c))
        for u in range(1, g.n + 1):
            edges = [(u, new_vertex)] + list(g.edges)
            out_raw.append((g.n + 1, edges, -c))
    return ExtLinComb.from_raw(a.ext, out_raw)


# -- the projection to sder_2 ----------------------------------------------------

def _monomial_from_tree(g: ExtGraph, root_edge_idx: int, ext_vertex: int,
                        order: int):
    """Lie monomial read off the internally trivalent tree hanging at an edge.

    Returns (NCSeries Lie monomial, parity sign) or None if the graph does
    not orient as a rooted tree from this leg.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for idx, (u, v) in enumerate(g.edges):
        adj.setdefault(u, []).append((idx, v))
        adj.setdefault(v, []).append((idx, u))

    dfs_edges: list[int] = []
    visited_internal: set[int] = set()

    def walk(vertex: int, via_idx: int):
        """The tree below ``vertex`` as a bracketing of external vertices."""
        dfs_edges.append(via_idx)
        if vertex <= g.ext:
            return vertex
        if vertex in visited_internal:
            raise GraphError("internal cycle")
        visited_internal.add(vertex)
        children = sorted((idx, w) for idx, w in adj.get(vertex, ()) if idx != via_idx)
        if len(children) != 2:
            raise GraphError("not trivalent")
        left = walk(children[0][1], children[0][0])
        right = walk(children[1][1], children[1][0])
        return (left, right)

    u, v = g.edges[root_edge_idx]
    other = v if u == ext_vertex else u
    try:
        tree = walk(other, root_edge_idx)
    except GraphError:
        return None
    if len(dfs_edges) != len(g.edges):
        return None
    mono = fold_bracketing(tree, lambda a: NCSeries.generator(2, order, a, Fraction(1)),
                           NCSeries.bracket)
    # parity of (graph edge order -> DFS order)
    perm = {e: pos for pos, e in enumerate(dfs_edges)}
    sign = 1
    seen = [False] * len(g.edges)
    for start in range(len(g.edges)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return mono, sign


def pi_project(a: ExtLinComb, order: int) -> TDerElem:
    """Project onto internally trivalent trees, read as an sder_2 element.

    Graphs with a non-trivalent internal vertex, an internal cycle, or a
    disconnected hanging structure are sent to zero.
    """
    if a.ext != 2:
        raise GraphError("pi_project expects two external vertices")
    comps = [NCSeries.zero(2, order), NCSeries.zero(2, order)]
    for g, c in a.terms.items():
        if any(val != 3 for val in g.internal_valences().values()):
            continue
        n_int = g.n - 2
        if len(g.edges) != 2 * n_int + 1:
            continue
        contributions = []
        ok = True
        for ext_vertex in (1, 2):
            for idx, (u, v) in enumerate(g.edges):
                if ext_vertex not in (u, v):
                    continue
                if u == v:
                    ok = False
                    break
                res = _monomial_from_tree(g, idx, ext_vertex, order)
                if res is None:
                    ok = False
                    break
                mono, sign = res
                contributions.append((ext_vertex, mono.scale(sign * c)))
            if not ok:
                break
        if not ok:
            continue
        for ext_vertex, term in contributions:
            comps[ext_vertex - 1] = comps[ext_vertex - 1] + term
    return TDerElem(2, order, tuple(comps))


def phi_map(a: GraphLinComb, order: int):
    """pi after psi, with the cocycle and irreducibility preconditions."""
    if not differential(a).is_zero():
        raise GraphError("phi_map needs a closed combination")
    for g in a.terms:
        if g.degree() != 0:
            raise GraphError("phi_map needs degree-0 graphs")
        if not g.one_vertex_irreducible():
            raise GraphError("phi_map needs one-vertex irreducible graphs")
    pair = pi_project(psi_map(a), order)
    from .associator import GrtElem, nu_extract
    return GrtElem(psi=nu_extract(pair), pair=pair)


# -- grt membership checks -------------------------------------------------------

def grt_check(psi: LieSeries) -> tuple[float, float, float]:
    """Residuals of the antisymmetry, hexagon and pentagon conditions."""
    order = psi.order
    nc = lie_to_nc(psi)
    x = NCSeries.generator(2, order, 1)
    y = NCSeries.generator(2, order, 2)
    z = -(x + y)
    r_anti = (nc + nc.substitute({1: y, 2: x})).max_abs()
    r_hexa = (nc + nc.substitute({1: y, 2: z}) + nc.substitute({1: z, 2: x})).max_abs()

    t = {(i, j): tk_generator(i, j, 4, order) for i in range(1, 5) for j in range(i + 1, 5)}
    def ev(aa: TDerElem, bb: TDerElem) -> TDerElem:
        return evaluate_lie_in_tder(psi, {1: aa, 2: bb})
    lhs = ev(t[(1, 2)], t[(2, 3)] + t[(2, 4)]) + ev(t[(1, 3)] + t[(2, 3)], t[(3, 4)])
    rhs = (ev(t[(2, 3)], t[(3, 4)]) + ev(t[(1, 2)] + t[(1, 3)], t[(2, 4)] + t[(3, 4)])
           + ev(t[(1, 2)], t[(2, 3)]))
    r_penta = (lhs - rhs).max_abs()
    return r_anti, r_hexa, r_penta


def ihara_bracket(psi1: LieSeries, psi2: LieSeries) -> LieSeries:
    """(0,psi1)(psi2) - (0,psi2)(psi1) + [psi1, psi2] in two generators."""
    order = min(psi1.order, psi2.order)
    nc1 = lie_to_nc(LieSeries(2, order, psi1.coords))
    nc2 = lie_to_nc(LieSeries(2, order, psi2.coords))
    d1 = TDerElem(2, order, (NCSeries.zero(2, order), nc1), gauge=False)
    d2 = TDerElem(2, order, (NCSeries.zero(2, order), nc2), gauge=False)
    out = d1.apply_nc(nc2) - d2.apply_nc(nc1) + nc1.bracket(nc2)
    return lie_coords_from_nc(out)


def _grt_residual_vector(psi: LieSeries) -> dict:
    """All coordinates of the three condition residuals, for linear algebra."""
    order = psi.order
    nc = lie_to_nc(psi)
    x = NCSeries.generator(2, order, 1)
    y = NCSeries.generator(2, order, 2)
    z = -(x + y)
    out: dict = {}
    anti = nc + nc.substitute({1: y, 2: x})
    hexa = nc + nc.substitute({1: y, 2: z}) + nc.substitute({1: z, 2: x})
    for tag, series in (("a", anti), ("h", hexa)):
        for w, c in series.terms.items():
            out[(tag, w)] = c
    t = {(i, j): tk_generator(i, j, 4, order) for i in range(1, 5) for j in range(i + 1, 5)}
    def ev(aa, bb):
        return evaluate_lie_in_tder(psi, {1: aa, 2: bb})
    penta = (ev(t[(1, 2)], t[(2, 3)] + t[(2, 4)]) + ev(t[(1, 3)] + t[(2, 3)], t[(3, 4)])
             - ev(t[(2, 3)], t[(3, 4)]) - ev(t[(1, 2)] + t[(1, 3)], t[(2, 4)] + t[(3, 4)])
             - ev(t[(1, 2)], t[(2, 3)]))
    for i, comp in enumerate(penta.comps):
        for w, c in comp.terms.items():
            out[("p", i, w)] = c
    return out


def grt_solution_space(word_length: int, order: int | None = None) -> list[LieSeries]:
    """Exact rational basis of the grt conditions in one word length."""
    from .ncalg import lyndon_words
    order = word_length if order is None else order
    basis = [LieSeries(2, order, {w: Fraction(1)}) for w in lyndon_words(2, word_length)]
    mat, _, pivots = row_reduce([_grt_residual_vector(b) for b in basis])
    ncols = len(basis)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        coeffs = [Fraction(0)] * ncols
        coeffs[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            coeffs[pc] = -mat[r][fc]
        elem = LieSeries(2, order)
        for c, b in zip(coeffs, basis):
            elem = elem + b.scale(c)
        out.append(elem)
    return out


@lru_cache(maxsize=None)
def psi3_normalized(order: int = 5) -> LieSeries:
    """The unique (up to scale) word-length-3 solution of the three conditions.

    Found by exact linear solve and normalized to coefficient 1 on the
    Lyndon word xxy.
    """
    space = grt_solution_space(3, order)
    if len(space) != 1:
        raise GraphError(f"expected a one-dimensional solution space, got {len(space)}")
    sol = space[0]
    lead = sol.coords.get((1, 1, 2))
    if lead is None or lead == 0:
        raise GraphError("degenerate length-3 solution")
    return sol.scale(Fraction(1, 1) / Fraction(lead))
