"""The graph complex with odd edges, its bracket, and the maps into sder_2.

Graphs carry an ordered edge list; the orientation is the edge order, so a
relabeling contributes the parity of the induced edge permutation and a
graph admitting an automorphism with odd edge permutation is zero.  Double
edges vanish for the same reason.  The differential is half the bracket
with the one-edge graph; on GC graphs (connected, loop-free, every vertex
at least trivalent) its antenna and bivalent terms cancel, so it is formed
as the unordered splitting of each vertex into two at least trivalent
vertices, and any other input is bracketed.  The divergence is the bracket
with the one-vertex one-loop graph computed in the ambient complex that
admits loops.  The splittings and insertions are formed once per orbit of
the automorphisms of the graphs involved, weighted by the orbit's count.
A canonical form is the least relabeling inside the classes of color
refinement (a class of isolated vertices in one order only), found by a
depth-first search that hands out the labels in increasing order and
prunes a prefix by a bound on its key and a child by the automorphisms
found at tied leaves, which also decide whether the graph is zero and
generate the automorphism group used for those orbits.  Graphs with
external legs are the same types with ``ext`` > 0: vertices 1..ext are the
legs and are never relabeled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import CheckError
from .associator import GrtElem, nu_extract
from .ncalg import (LieSeries, NCSeries, lie_coords_from_nc, lie_to_nc, lyndon_words,
                    relabeled_terms)
from .scalars import (add_scaled, coeff_abs, eliminate, integer_operands, over_integers,
                      over_one_denominator)
from .tangent import PENTAGON_FACES, TDerElem, _t3_word_image, t3_embed, tder_bracket

Edge = tuple[int, int]


class GraphError(CheckError):
    pass


# -- canonical forms ------------------------------------------------------------

def _perm_sign(perm: list[int]) -> int:
    """Sign of a permutation of 0..m-1, from its number of cycles."""
    cycles = 0
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
    return -1 if (len(perm) - cycles) % 2 else 1


def _adjacency(n: int, edges: list[Edge]) -> tuple[list[list[int]], list[bool]]:
    """The neighbor lists (loops left out) and the loop flags of distinct edges, by vertex."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    loop = [False] * (n + 1)
    for u, v in edges:
        if u == v:
            loop[u] = True
        else:
            adj[u].append(v)
            adj[v].append(u)
    return adj, loop


def _colors(n: int, adj: list[list[int]], loop: list[bool], fixed: int) -> list[int]:
    """Iso-invariant int vertex colors, indexed by vertex; vertex v <= fixed has color v - 1.

    ``adj`` and ``loop`` are the ``_adjacency`` of the graph.  The first
    colors rank (valence, loop); each round ranks the signatures (color,
    sorted neighbor colors) and stops at the first round that splits no
    class, or once every class is one vertex.  A signature starts with the
    color before, so the order of the colors is the order of the classes
    whichever round stops.
    """
    start = [(len(adj[v]), loop[v]) for v in range(fixed + 1, n + 1)]
    names = {c: i for i, c in enumerate(sorted(set(start)), fixed)}
    col = [*range(-1, fixed), *[names[c] for c in start]]  # index 0 is a placeholder
    count = fixed + len(names)
    while count < n:
        sig = [(col[v], tuple(sorted([col[w] for w in adj[v]]))) for v in range(n + 1)]
        names = {c: i for i, c in enumerate(sorted(set(sig)), -1)}
        col = [names[c] for c in sig]
        if len(names) - 1 == count:
            break
        count = len(names) - 1
    return col


def canonical_form(n: int, edges: list[Edge], fixed: int = 0):
    """Minimal labeled representative with orientation sign, or None if zero.

    ``fixed`` leading vertices (external legs) are never relabeled.
    Returns (edge tuple, sign) with edges sorted, or None when the graph has
    a sign-reversing automorphism or a repeated edge.  It is the key and
    sign of ``_search``, whose automorphism generators let ``differential``
    and ``_pre_lie`` form each term once per automorphism orbit, weighted by
    the orbit's count.
    """
    key, sign, _ = _search(n, edges, fixed)
    return None if key is None else (key, sign)


def _search(n: int, edges: list[Edge], fixed: int):
    """(key, sign, gens): the canonical form, and automorphisms found on the way.

    ``gens`` are the automorphisms kept at tied leaves, as vertex maps
    (lists indexed by vertex, entry 0 unused) of even edge parity that fix
    the first ``fixed`` vertices.  They generate the automorphism group of
    the graph with its isolated vertices left in place.  On a zero graph key
    and sign are None and 0, and ``gens`` holds the automorphisms found
    before the search stopped.  The representative is
    the least sorted edge list over the relabelings that give each color
    class of ``_colors``, in color order, the next block of labels after
    ``fixed`` (a class of isolated vertices in one order only).

    A depth-first search hands out those labels one at a time, in increasing
    order, each to a vertex of the class whose block holds it.  Row a of a key
    is the sorted list of labels b >= a adjacent to label a; a row only grows
    by appends, and it is complete once its vertex has no unlabeled neighbor.
    The rows below the least label a* with an unlabeled neighbor are complete
    and the rest of row a* is at least the next label m + 1 (with no a*, the
    next key entry is at least (m + 1, m + 1), a loop), so a prefix is pruned
    when every completion is worse than the least key so far.  Two leaves
    with equal keys differ by an automorphism: one of odd edge parity makes
    the graph zero; the others are kept, and a child in the orbit of an
    explored sibling under the kept automorphisms fixing the labeled prefix
    is skipped, as is the rest of a subtree once its leaf ties the least one.
    The bound drops only leaves worse than one seen, the automorphisms only
    images of searched subtrees, and the automorphisms found generate the
    automorphism group (McKay-Piperno, *Practical graph isomorphism, II*,
    2014), so the key, the sign and the zero test are those of the whole
    product of class orders.  The sign is computed for the least leaf only.
    """
    norm = [(u, v) if u <= v else (v, u) for u, v in edges]
    if len(set(norm)) < len(norm):
        return None, 0, []
    adj, loop = _adjacency(n, norm)
    col = _colors(n, adj, loop, fixed)
    classes: dict[int, list[int]] = {}
    for v in range(fixed + 1, n + 1):
        classes.setdefault(col[v], []).append(v)
    cands: list[list[int]] = []  # the vertices that may take label fixed + 1 + i
    for c in sorted(classes):
        cls = classes[c]
        cands += [cls] * len(cls) if adj[cls[0]] or loop[cls[0]] else [[v] for v in cls]
    depth = len(cands)
    end = n + 1  # closes a complete row, so a complete row that is a prefix sorts last
    lab = [*range(fixed + 1), *[0] * (n - fixed)]  # vertex -> label, 0 if unlabeled
    free = [0] * (n + 1)  # label -> unlabeled neighbors of its vertex
    rows: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in norm:
        if v <= fixed:
            rows[u].append(v)
    for v in range(1, fixed + 1):
        rows[v].sort()
        free[v] = sum(w > fixed for w in adj[v])
        if not free[v]:
            rows[v].append(end)
    path: list[int] = []  # the labeled vertices after the legs, in label order
    best_rows: list[list[int]] = []  # the rows and path of the least leaf so far
    best_path: list[int] = []
    gens: list[list[int]] = []  # automorphisms as vertex maps, all of even edge parity
    edge_index = {e: i for i, e in enumerate(norm)}
    odd = False

    def node(level: int) -> int:
        """Search below ``path``; returns the level whose loop goes on."""
        nonlocal best_rows, best_path, odd
        m = fixed + level
        cmp = -1  # against the least key: -1 less, 0 undecided or equal, 1 greater
        if best_rows:
            cmp = 0
            for a in range(1, m + 1):
                r, br = rows[a], best_rows[a]
                if free[a]:
                    head = br[:len(r)]
                    if r != head:
                        cmp = 1 if r > head else -1
                    elif br[len(r)] <= m:
                        cmp = 1
                    break
                if r != br:
                    cmp = 1 if r > br else -1
                    break
            if cmp > 0:
                return level - 1
        if level == depth:
            if cmp < 0:
                best_rows, best_path = [r[:] for r in rows], path[:]
                return level - 1
            g = list(range(n + 1))
            for x, y in zip(best_path, path):
                g[x] = y
            perm = [edge_index[(x, y) if (x := g[u]) <= (y := g[v]) else (y, x)]
                    for u, v in norm]
            if _perm_sign(perm) < 0:
                odd = True
                return -1
            gens.append(g)
            # below the first difference, g maps the least leaf's searched subtree onto this one
            return next(i for i, (x, y) in enumerate(zip(best_path, path)) if x != y)
        explored: list[int] = []
        covered: set[int] = set()
        t = m + 1
        row = rows[t]
        for v in cands[level]:
            if lab[v] or v in covered:
                continue
            lab[v] = t
            if loop[v]:
                row.append(t)
            k = 0
            for w in adj[v]:
                if a := lab[w]:
                    rows[a].append(t)
                    free[a] -= 1
                    if not free[a]:
                        rows[a].append(end)
                else:
                    k += 1
            free[t] = k
            if not k:
                row.append(end)
            path.append(v)
            jump = node(level + 1)
            path.pop()
            lab[v] = 0
            row.clear()
            for w in adj[v]:
                if a := lab[w]:
                    if not free[a]:
                        rows[a].pop()
                    rows[a].pop()
                    free[a] += 1
            if jump < level:
                return jump
            explored.append(v)
            stab = [g for g in gens if all(g[x] == x for x in path)]
            if stab:
                covered = set(explored)
                stack = explored[:]
                while stack:
                    x = stack.pop()
                    for g in stab:
                        if g[x] not in covered:
                            covered.add(g[x])
                            stack.append(g[x])
        return level - 1

    node(0)
    if odd:
        return None, 0, gens
    for t, v in enumerate(best_path, fixed + 1):
        lab[v] = t
    lab_edges = [(a, b) if (a := lab[u]) <= (b := lab[v]) else (b, a) for u, v in norm]
    sign = _perm_sign(sorted(range(len(norm)), key=lab_edges.__getitem__))
    return tuple(sorted(lab_edges)), sign, gens


@dataclass(frozen=True)
class GCGraph:
    """Canonically labeled graph whose first ``ext`` vertices are external legs.

    Instances are made through ``canonicalize``.
    """

    n: int  # total vertex count
    edges: tuple[Edge, ...]
    ext: int = 0

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

    def _connected_without(self, removed: int = 0) -> bool:
        """Whether the edges avoiding vertex ``removed`` join all other vertices."""
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            if removed not in (u, v):
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
        start = 2 if removed == 1 else 1
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n - (removed > 0)

    def is_connected(self) -> bool:
        return self.n <= 1 or self._connected_without()

    def is_gc(self) -> bool:
        return (self.is_connected() and not self.has_tadpole()
                and all(d >= 3 for d in self.valences()))

    def one_vertex_irreducible(self) -> bool:
        return self.n <= 2 or all(self._connected_without(v) for v in range(1, self.n + 1))

    def to_json(self) -> dict:
        out = {"vertices": self.n, "edges": [list(e) for e in self.edges]}
        return {"external": self.ext, **out} if self.ext else out


def canonicalize(n: int, edges: list[Edge], ext: int = 0):
    """(canonical GCGraph, sign) or None when the graph is zero."""
    res = canonical_form(n, edges, fixed=ext)
    if res is None:
        return None
    key, sign = res
    return GCGraph(n, key, ext), sign


class GraphLinComb:
    """Rational linear combination of canonical graphs with ``ext`` external legs."""

    __slots__ = ("ext", "terms")

    def __init__(self, terms: dict | None = None, ext: int = 0):
        self.ext = ext
        self.terms: dict[GCGraph, Fraction] = {}
        if terms:
            for g, c in terms.items():
                if c:
                    self.terms[g] = c

    @staticmethod
    def from_raw(items: list[tuple[int, list[Edge], Fraction]],
                 ext: int = 0) -> "GraphLinComb":
        acc: dict[GCGraph, Fraction] = {}
        for n, edges, c in items:
            res = canonicalize(n, edges, ext)
            if res is None:
                continue
            g, s = res
            acc[g] = acc.get(g, Fraction(0)) + s * c
        return GraphLinComb(acc, ext)

    @staticmethod
    def single(n: int, edges: list[Edge], c=Fraction(1)) -> "GraphLinComb":
        return GraphLinComb.from_raw([(n, edges, Fraction(c))])

    def __add__(self, other: "GraphLinComb") -> "GraphLinComb":
        if self.ext != other.ext:
            raise GraphError("external arity mismatch")
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, Fraction(0)) + c
        return GraphLinComb(out, self.ext)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "GraphLinComb":
        return GraphLinComb({g: c * x for g, x in self.terms.items()}, self.ext)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GraphLinComb):
            return NotImplemented
        return self.ext == other.ext and (self - other).is_zero()

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

def _reassign_ends(edges: tuple[Edge, ...], v: int, choices, relabel=lambda w: w):
    """Every way of moving the edge ends at vertex ``v``, as edge lists.

    The ends at ``v`` are taken in edge order, an edge's first end before its
    second; ``choices(m)`` gives the possible new endpoints of each of the
    ``m`` ends, and the lists come in the order of their product.  All other
    endpoints are mapped through ``relabel``.
    """
    ends = [(idx, slot) for idx, e in enumerate(edges) for slot in (0, 1) if e[slot] == v]
    base = [[x if x == v else relabel(x) for x in e] for e in edges]
    for targets in itertools.product(*choices(len(ends))):
        for (idx, slot), t in zip(ends, targets):
            base[idx][slot] = t
        yield [(x, y) for x, y in base]


def _insertion_orbits(g1: GCGraph, g2: GCGraph, gens: dict, targets) -> list[list]:
    """The insertions of g2 at the vertices of g1, one raw term per orbit, with its count.

    At vertex i of g1 the ends of its edges, taken as in ``_reassign_ends``,
    go to the vertices of g2 (labels 1..g2.n) in each way ``targets(m, g2.n)``
    yields for its m ends; g2's vertex j becomes i - 1 + j, the vertices of
    g1 after i move past g2, and g2's edges follow g1's.  A reassignment's
    key is (i, sorted (old neighbour, new endpoint) of its ends): it fixes
    the raw term up to the order of a loop's two ends.  Aut(g1) x Aut(g2),
    from the generators ``gens[g]``, acts on keys; being even, it keeps the
    value of the term, so each orbit is formed once, at its first
    enumerated member, and counts the enumerated reassignments whose key
    lies in it.  Returns [vertex count, edge list, count] in the order of the
    first members.
    """
    same1, same2 = range(g1.n + 1), range(g2.n + 1)  # the identity maps
    moves = [(g, same2) for g in gens[g1]] + [(same1, h) for h in gens[g2]]
    orbit: dict = {}  # key -> index of its orbit in out
    out: list[list] = []
    for i in range(1, g1.n + 1):
        ends = [(idx, slot) for idx, e in enumerate(g1.edges) for slot in (0, 1) if e[slot] == i]
        nbrs = [g1.edges[idx][1 - slot] for idx, slot in ends]
        for t in targets(len(ends), g2.n):
            key = (i, tuple(sorted(zip(nbrs, t))))
            k = orbit.get(key)
            if k is not None:
                out[k][2] += 1
                continue
            k = orbit[key] = len(out)
            stack = [key]
            while stack:
                v, pairs = stack.pop()
                for g, h in moves:
                    image = (g[v], tuple(sorted([(g[w], h[j]) for w, j in pairs])))
                    if image not in orbit:
                        orbit[image] = k
                        stack.append(image)
            edges = [[x if x < i else x + g2.n - 1 for x in e] for e in g1.edges]
            for (idx, slot), j in zip(ends, t):
                edges[idx][slot] = i - 1 + j
            out.append([g1.n + g2.n - 1, [(x, y) for x, y in edges]
                        + [(i - 1 + u, i - 1 + v) for u, v in g2.edges], 1])
    return out


def _automorphisms(graphs) -> dict:
    """The automorphism generators ``_search`` finds for each of ``graphs``."""
    return {g: _search(g.n, g.edges, 0)[2] for g in graphs}


def _pre_lie(a: GraphLinComb, b: GraphLinComb) -> GraphLinComb:
    """Sum over the vertices i of g1 of inserting g2 at i, in all reconnections.

    Each term is formed once per orbit of Aut(g1) x Aut(g2) and weighted by
    the orbit's count (``_insertion_orbits``).
    """
    gens = _automorphisms([*a.terms, *b.terms])
    anywhere = lambda m, k: itertools.product(range(1, k + 1), repeat=m)
    raw = [(n, edges, c1 * c2 * count) for g1, c1 in a.terms.items()
           for g2, c2 in b.terms.items()
           for n, edges, count in _insertion_orbits(g1, g2, gens, anywhere)]
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
    On GC graphs (connected, loop-free, every vertex at least trivalent)
    the antenna and bivalent terms of the bracket cancel, so only the
    unordered splits of a vertex into two at least trivalent vertices are
    formed: the first end stays at the split vertex i, the new edge
    (i, i + 1) goes last, and each split carries -(-1)^deg(a) times its
    coefficient.  Each split is formed once per orbit of Aut(g) x Aut(edge)
    (the edge's swap exchanges i and i + 1) and weighted by the orbit's
    count (``_insertion_orbits``).  Any other input is bracketed.
    """
    if a.is_zero():
        return GraphLinComb()
    if not all(g.is_gc() for g in a.terms):
        return gc_bracket(edge_graph(), a).scale(Fraction(1, 2))
    sign = 1 if _homogeneous_degree(a) % 2 else -1
    (edge,) = edge_graph().terms
    gens = _automorphisms([*a.terms, edge])
    # the first end stays at i, and at least two ends stay and two move to i + 1
    splits = lambda m, k: (t for t in itertools.product((1,), *[(1, 2)] * (m - 1))
                           if 2 <= t.count(2) <= m - 2)
    raw = [(n, edges, sign * c * count) for g, c in a.terms.items()
           for n, edges, count in _insertion_orbits(g, edge, gens, splits)]
    return GraphLinComb.from_raw(raw)


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
                if not GCGraph(n, subset).is_gc():
                    continue
                res = canonicalize(n, list(subset))
                if res is None:
                    continue
                cg, _ = res
                if cg not in out:
                    out.append(cg)
    return out


# -- graphs with external legs ---------------------------------------------------

def _moved_to_front(edges, n: int, first: tuple[int, ...]) -> list[Edge]:
    """The edges relabeled: the vertices ``first`` become 1, 2, ..., the rest follow in order."""
    rest = [w for w in range(1, n + 1) if w not in first]
    label = {w: i for i, w in enumerate((*first, *rest), start=1)}
    return [(label[x], label[y]) for x, y in edges]


def psi_map(a: GraphLinComb) -> GraphLinComb:
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
            for pair in ((u, v), (v, u)):
                raw.append((g.n, _moved_to_front(rest, g.n, pair), sign * c))
    return GraphLinComb.from_raw(raw, ext=2)


def mark_one_external(a: GraphLinComb) -> GraphLinComb:
    """Sum over the choices of one vertex to expose as the external leg."""
    raw = [(g.n, _moved_to_front(g.edges, g.n, (v,)), c)
           for g, c in a.terms.items() for v in range(1, g.n + 1)]
    return GraphLinComb.from_raw(raw, ext=1)


def duplicate_external(a: GraphLinComb) -> GraphLinComb:
    """Split the single external vertex into externals 1, 2 in all ways."""
    if a.ext != 1:
        raise GraphError("duplicate_external expects one external vertex")
    raw = [(g.n + 1, edges, c) for g, c in a.terms.items()
           for edges in _reassign_ends(g.edges, 1, lambda m: [(1, 2)] * m, lambda w: w + 1)]
    return GraphLinComb.from_raw(raw, ext=2)


def pad_external(a: GraphLinComb, side: str) -> GraphLinComb:
    """Append an isolated external vertex on the left or right."""
    if a.ext != 1:
        raise GraphError("pad_external expects one external vertex")
    new = 2 if side == "right" else 1  # the label of the isolated leg
    raw = [(g.n + 1, [(x + (x >= new), y + (y >= new)) for x, y in g.edges], c)
           for g, c in a.terms.items()]
    return GraphLinComb.from_raw(raw, ext=2)


def delta_ext(a: GraphLinComb) -> GraphLinComb:
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
            if v > g.ext:
                # fix the first end to stay at v: unordered splitting
                choices = lambda m: [(v,)] + [(v, new_vertex)] * (m - 1)
            else:
                choices = lambda m: [(v, new_vertex)] * m
            for edges in _reassign_ends(g.edges, v, choices):
                out_raw.append((new_vertex, [(v, new_vertex)] + edges, c))
        for u in range(1, g.n + 1):
            edges = [(u, new_vertex)] + list(g.edges)
            out_raw.append((new_vertex, edges, -c))
    return GraphLinComb.from_raw(out_raw, a.ext)


# -- the projection to sder_2 ----------------------------------------------------

def _read_tree(g: GCGraph, root_idx: int, leg: int, order: int):
    """The tree hanging from external vertex ``leg`` at edge ``root_idx``, as a Lie monomial.

    One depth-first walk from the other end of the edge reads an external
    vertex j as X_j and brackets the two subtrees below each internal
    vertex, the one through its lower-numbered edge on the left.  Returns
    (monomial, parity sign of the graph's edge order against the walk's),
    or None if the walk meets an internal vertex twice or misses an edge.
    The graph must be loop-free with every internal vertex trivalent.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for idx, (u, v) in enumerate(g.edges):
        adj.setdefault(u, []).append((idx, v))
        adj.setdefault(v, []).append((idx, u))
    walked: list[int] = []
    seen: set[int] = set()

    def walk(vertex: int, via: int):
        walked.append(via)
        if vertex <= g.ext:
            return NCSeries.generator(2, order, vertex)
        if vertex in seen:
            return None
        seen.add(vertex)
        (i, x), (j, y) = sorted((idx, w) for idx, w in adj[vertex] if idx != via)
        left = walk(x, i)
        right = None if left is None else walk(y, j)
        return None if right is None else left.bracket(right)

    u, v = g.edges[root_idx]
    mono = walk(v if u == leg else u, root_idx)
    if mono is None or len(walked) != len(g.edges):
        return None
    return mono, _perm_sign(walked)


def pi_project(a: GraphLinComb, order: int) -> TDerElem:
    """Project onto internally trivalent trees, read as an sder_2 element.

    Graphs with a loop, a non-trivalent internal vertex, an internal cycle,
    or a disconnected hanging structure are sent to zero.
    """
    if a.ext != 2:
        raise GraphError("pi_project expects two external vertices")
    comps = [NCSeries.zero(2, order), NCSeries.zero(2, order)]
    for g, c in a.terms.items():
        if g.has_tadpole() or any(val != 3 for val in g.valences()[g.ext:]):
            continue
        trees = [(leg, _read_tree(g, idx, leg, order))
                 for leg in (1, 2) for idx, edge in enumerate(g.edges) if leg in edge]
        if any(tree is None for _, tree in trees):
            continue
        for leg, (mono, sign) in trees:
            comps[leg - 1] = comps[leg - 1] + mono.scale(sign * c)
    return TDerElem(2, order, tuple(comps))


def phi_map(a: GraphLinComb, order: int):
    """pi after psi, with the cocycle and irreducibility preconditions.

    Checked on the loop-3, 5 and 7 classes, which it sends to -24 sigma_3,
    10 sigma_5 and -14 sigma_7 (sigma_d the normalized ``grt_generator``).
    It sends the loop-8 class [gamma_3, gamma_5], which is closed and not
    exact, to 0: pi after psi is only the first step of Willwacher's
    zig-zag, so a zero image says nothing about the class.
    """
    if not differential(a).is_zero():
        raise GraphError("phi_map needs a closed combination")
    for g in a.terms:
        if g.degree() != 0:
            raise GraphError("phi_map needs degree-0 graphs")
        if not g.one_vertex_irreducible():
            raise GraphError("phi_map needs one-vertex irreducible graphs")
    pair = pi_project(psi_map(a), order)
    return GrtElem(psi=nu_extract(pair), pair=pair)


# -- grt membership checks -------------------------------------------------------

def grt_check(psi: LieSeries) -> tuple[float, float, float]:
    """Residuals of the antisymmetry, hexagon and pentagon conditions.

    The residual vector is linear in psi.  With rational coordinates it is
    computed for D*psi, whose coordinates are ints (D the lcm of their
    denominators), and its largest entries are divided by D: int by int
    true division is correctly rounded, so each value is the float of the
    rational residual, as it is on the plain path that other rings take.
    """
    size, denom = coeff_abs, 1
    if all(isinstance(c, (int, Fraction)) for c in psi.coords.values()):
        (coords,), denom = over_one_denominator([psi.coords])
        size, psi = abs, LieSeries(2, psi.order, coords)
    worst = {"a": 0, "h": 0, "p": 0}
    for key, c in _grt_residual_vector(psi).items():
        worst[key[0]] = max(worst[key[0]], size(c))
    return worst["a"] / denom, worst["h"] / denom, worst["p"] / denom


def ihara_bracket(psi1: LieSeries, psi2: LieSeries) -> LieSeries:
    """(0,psi1)(psi2) - (0,psi2)(psi1) + [psi1, psi2]: slot 2 of the tder2 bracket.

    The bracket is read back in Lyndon coordinates, which needs an exactly
    Lie result, so float and complex coordinates are refused.  It is
    bilinear, so on rational operands (``integer_operands``) the Lie images,
    the bracket and the Lyndon coordinates are those of their integer
    multiples, and each coordinate is divided once at the end.
    """
    if any(isinstance(c, (float, complex))
           for psi in (psi1, psi2) for c in psi.coords.values()):
        raise GraphError("ihara_bracket needs exact coordinates, not float or complex")
    order = min(psi1.order, psi2.order)
    psi1, psi2 = LieSeries(2, order, psi1.coords), LieSeries(2, order, psi2.coords)
    scaled = integer_operands(over_integers([psi1.coords]), over_integers([psi2.coords]))
    if scaled is not None:
        (c1,), (c2,), denom = scaled
        psi1, psi2 = LieSeries(2, order, c1), LieSeries(2, order, c2)
    d1 = TDerElem(2, order, (NCSeries.zero(2, order), lie_to_nc(psi1)))
    d2 = TDerElem(2, order, (NCSeries.zero(2, order), lie_to_nc(psi2)))
    out = lie_coords_from_nc(tder_bracket(d1, d2).comps[1])
    if scaled is None:
        return out
    return LieSeries(2, order, {w: Fraction(n, denom) for w, n in out.coords.items()})


def _pentagon_component(u: TDerElem, i: int) -> dict:
    """Component i of the linearized pentagon residual of u in tder3, by word.

    It is the signed sum of the faces' component i (``PENTAGON_FACES``): each
    face's source component of u, relabelled by the face's letter map, is
    added straight into one accumulator, face after face, so no face is built
    and no relabelled series is copied.  Component 0 reads only u_1, as the
    face u^{2,3,4} has a zero first component.
    """
    acc: dict = {}
    for sign, letters, sources in PENTAGON_FACES:
        if sources[i] is not None:
            add_scaled(acc, relabeled_terms(u.comps[sources[i] - 1].terms, letters), sign)
    return acc


def _grt_residual_vector(psi: LieSeries) -> dict:
    """All coordinates of the three condition residuals, for linear algebra.

    The pentagon is the sum of the left faces minus the sum of the right
    faces of psi(t12, t23), from the simplicial maps ``check_pentagon`` uses;
    they are Lie morphisms (Alekseev-Torossian, Ann. Math. 175, 2012), so
    each face is psi evaluated on the faces of t12 and t23.  Its four
    components are ``_pentagon_component``s of u = ``t3_embed(psi)``;
    ``grt_solution_space`` eliminates on component 0 alone and certifies
    the kernel with this full vector.
    """
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
    u = t3_embed(psi)
    for i in range(4):
        for w, c in _pentagon_component(u, i).items():
            out[("p", i, w)] = c
    return out


def grt_solution_space(word_length: int, order: int | None = None) -> list[LieSeries]:
    """Exact rational basis of the grt conditions in one word length.

    The elimination runs on a subset of the rows: each Lyndon word's column
    is component 0 of its pentagon residual (``_pentagon_component`` of its
    t3 image), made as ``eliminate`` asks for it.  The subset's kernel
    contains the true one, so when every kernel vector passes the full
    exact ``grt_check`` with residuals (0, 0, 0) the two kernels are equal;
    the RREF basis depends only on the kernel and the column order, so it
    is the basis the full rows give.  If a vector fails, the elimination is
    redone on the full residual vectors: in word length 2 the component-0
    rows leave [x, y], which the hexagon rows remove.  The columns are integer-valued
    and ``eliminate`` reduces them in integer arithmetic; only the kernel
    vectors, divided by their entry on their own column, are Fractions.
    """
    order = word_length if order is None else order
    words = lyndon_words(2, word_length)

    def solve(columns):
        kernel, _, _ = eliminate(columns)
        return [LieSeries(2, order, {words[j]: c for j, c in vec.items()}) for vec in kernel]

    space = solve(_pentagon_component(_t3_word_image(w, order), 0) for w in words)
    if all(grt_check(psi) == (0, 0, 0) for psi in space):
        return space
    return solve(_grt_residual_vector(LieSeries(2, order, {w: 1})) for w in words)


@lru_cache(maxsize=None)
def grt_generator(degree: int, order: int) -> LieSeries:
    """The grt element of word length ``degree``, lifted to truncation ``order``.

    It is the one solution of the three conditions in that word length,
    found by exact elimination and normalized to coefficient 1 on the
    Lyndon word x^(degree-1) y.  Raises GraphError unless the solution space
    is one-dimensional.
    """
    space = grt_solution_space(degree)
    if len(space) != 1:
        raise GraphError(f"expected a one-dimensional solution space in word length "
                         f"{degree}, got {len(space)}")
    lead = space[0].coords.get((1,) * (degree - 1) + (2,))
    if lead is None:
        raise GraphError(f"degenerate length-{degree} solution")
    return LieSeries(2, order, space[0].scale(1 / lead).coords)


def psi3_normalized(order: int = 5) -> LieSeries:
    """The word-length-3 grt generator, normalized to 1 on xxy."""
    return grt_generator(3, order)
