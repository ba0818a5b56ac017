"""Immutable undirected simple graphs with bit-mask adjacency rows, the
graph families built on subset labels, and the standard constructions
(line graph, complement, induced subgraph and distance layers).

Vertices are 0-based indices.  Subset-labelled families attach a
SubsetLabel per vertex; the vertex order of those families is exactly the
colex rank order from the subsets module.
"""

from __future__ import annotations

import time
from functools import cached_property, lru_cache
from itertools import combinations
from operator import attrgetter

from .subsets import SubsetLabel, _Value, binomial

DEFAULT_VERTEX_CAP = 5000


class VertexCapExceeded(ValueError):
    """A construction or search would exceed the configured vertex cap."""


def _check_cap(n: int, cap: int | None) -> None:
    """Raise VertexCapExceeded when n vertices exceed cap; None means DEFAULT_VERTEX_CAP."""
    limit = DEFAULT_VERTEX_CAP if cap is None else cap
    if n > limit:
        raise VertexCapExceeded(f"graph has {n} vertices, cap is {limit}")


class TimeLimitExceeded(Exception):
    """A search or verification ran past its deadline (not a ValueError:
    the input was valid)."""


def _check_deadline(deadline: float | None) -> None:
    """Raise TimeLimitExceeded once time.monotonic() reaches deadline; None never does."""
    if deadline is not None and time.monotonic() >= deadline:
        raise TimeLimitExceeded("time limit exceeded")


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edge_list(adj) -> list[tuple[int, int]]:
    """The edges of adjacency rows as (u, v) with u < v, in lexicographic order."""
    out = []
    for u, row in enumerate(adj):
        for w in bits(row >> (u + 1)):
            out.append((u, u + 1 + w))
    return out


class Graph(_Value):
    """Undirected simple graph on vertices 0..n-1.

    ``adj[v]`` is the neighbour set of v as a bit mask.  Instances are
    immutable after construction.  Equality and hashing are structural
    (vertex count plus adjacency); ``labels`` is carried metadata and does
    not participate in equality.

    One sweep checks each row's range, self-loop bit and the mirrors of its
    bits above the diagonal (triangle bit counts cover those below); only
    after it may a row-order scan name an asymmetric pair.
    """

    __match_args__ = ("n", "adj", "labels")
    _key = attrgetter("n", "adj")

    def __init__(self, n: int, adj, labels=None):
        if n < 1:
            raise ValueError("graphs need at least one vertex")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for {n} vertices")
        upper = total = 0
        mirrored = True
        for v, row in enumerate(adj):
            if row < 0 or row >> n:
                raise ValueError(f"row {v} mentions vertices outside 0..{n - 1}")
            above = row >> v  # bit i stands for vertex v + i
            if above & 1:
                raise ValueError(f"self-loop at vertex {v}")
            upper += above.bit_count()
            total += row.bit_count()
            bit = 1 << v
            while mirrored and above:
                low = above & -above
                mirrored = adj[v + low.bit_length() - 1] & bit
                above ^= low
        if not mirrored or 2 * upper != total:
            for v, row in enumerate(adj):
                for w in bits(row):
                    if not (adj[w] >> v) & 1:
                        raise ValueError(f"asymmetric adjacency between {v} and {w}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count must match vertex count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _from_nbrs(cls, nbrs, labels=None) -> "Graph":
        """The graph with the ascending neighbour lists ``nbrs``, kept as its
        view; each row is set from its list in a bytearray, then checked.
        The lists must hold one int object per vertex, as a builder's do
        when it reads each vertex's number from one table."""
        width = (len(nbrs) + 7) // 8
        rows = []
        for ws in nbrs:
            row = bytearray(width)
            for w in ws:
                row[w >> 3] |= 1 << (w & 7)
            rows.append(int.from_bytes(row, "little"))
        g = cls(len(nbrs), rows, labels)
        vars(g)["nbrs"] = tuple(map(tuple, nbrs))
        return g

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, labels)

    @cached_property
    def nbrs(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex as an ascending tuple, one int
        object per vertex.  Builders that list neighbours hand it over; a
        graph built from rows derives it on first read and keeps it.  It
        lives in the instance dict, outside the fields: equality, hashing
        and ``repr`` never see it."""
        # past 256 each int read from a row is its own object, several
        # times larger than a reference to a shared one
        get = list(range(self.n)).__getitem__
        return tuple(tuple(map(get, bits(row))) for row in self.adj)

    def __getstate__(self):
        """The fields alone, for pickle and copy: cached entries of the
        instance dict, such as the neighbour view, stay behind and are
        rebuilt when read."""
        return {"n": self.n, "adj": self.adj, "labels": self.labels}

    def _vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return v

    def degree(self, v: int) -> int:
        return self.adj[self._vertex(v)].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[self._vertex(u)] >> self._vertex(v)) & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.adj[self._vertex(v)]))

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        return _edge_list(self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


class DistancePartition(_Value):
    """BFS layers around a source vertex.

    ``masks[i]`` is the set of vertices at distance i as a bit mask, and
    ``layers[i]`` is the same set as a frozenset; ``dist[v]`` is None
    exactly when v is unreachable from the source, and unreachable vertices
    appear in no layer.
    """

    __match_args__ = ("source", "masks", "dist")
    _key = attrgetter(*__match_args__)

    def __init__(self, source: int, masks: tuple[int, ...], dist: tuple):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "dist", dist)

    @property
    def layers(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(bits(mask)) for mask in self.masks)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.masks)

    @property
    def eccentricity(self) -> int:
        return len(self.masks) - 1

    @property
    def unreachable(self) -> frozenset[int]:
        return frozenset(v for v, d in enumerate(self.dist) if d is None)


def complete_graph(n: int, *, cap: int | None = None) -> Graph:
    """K_n; ``cap`` as in johnson_graph."""
    _check_cap(n, cap)
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def complete_bipartite(s: int, t: int, *, cap: int | None = None) -> Graph:
    """K_{s,t} with side X = 0..s-1 and side Y = s..s+t-1; ``cap`` as in
    johnson_graph."""
    _check_cap(s + t, cap)
    if s < 1 or t < 1:
        raise ValueError("both sides of a complete bipartite graph must be nonempty")
    n = s + t
    x_mask = (1 << s) - 1
    y_mask = ((1 << n) - 1) ^ x_mask
    return Graph(n, [y_mask if v < s else x_mask for v in range(n)])


@lru_cache(maxsize=32)
def _colex_index(n: int, m: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """Masks of the m-subsets of {1..n} in colex rank order, which is
    ascending mask order, and mask -> rank."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"subset size must be in 1..{n - 1}, got {m}")
    binomial(n, m)  # rejects a ground set past the one-word limit before enumerating
    masks = tuple(sorted(map(sum, combinations([1 << b for b in range(n)], m))))
    return masks, {mask: r for r, mask in enumerate(masks)}


def _subset_family(n: int, m: int, cap: int | None):
    """Labels and mask -> rank index of the m-subsets of {1..n}; cap-checked first."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"subset size must be in 1..{n - 1}, got {m}")
    _check_cap(binomial(n, m), cap)
    masks, index = _colex_index(n, m)
    return [SubsetLabel(n, mask) for mask in masks], index


def johnson_graph(n: int, m: int, cap: int | None = None) -> Graph:
    """J(n, m): m-subsets of {1..n}, adjacent when they share m-1 elements.

    Regular of degree m*(n-m).  J(n, 1) is the complete graph K_n.  Over
    ``cap`` vertices (None: DEFAULT_VERTEX_CAP) it raises VertexCapExceeded.
    """
    labels, index = _subset_family(n, m, cap)
    units = [1 << b for b in range(n)]
    nbrs = []
    for label in labels:
        mask = label.mask
        removed = [mask ^ u for u in units if mask & u]
        added = [u for u in units if not mask & u]
        nbrs.append(sorted(map(index.__getitem__, [r | a for r in removed for a in added])))
    return Graph._from_nbrs(nbrs, labels)


def kneser_graph(n: int, m: int, cap: int | None = None) -> Graph:
    """K(n, m): m-subsets of {1..n}, adjacent when disjoint; ``cap`` as in johnson_graph."""
    labels, index = _subset_family(n, m, cap)
    nbrs = []
    for label in labels:
        outside = [1 << b for b in range(n) if not (label.mask >> b) & 1]
        nbrs.append(sorted(map(index.__getitem__, map(sum, combinations(outside, m)))))
    return Graph._from_nbrs(nbrs, labels)


def line_graph(g: Graph, *, cap: int | None = None) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of g plus the edge map.

    Line-graph vertex i corresponds to ``edge_map[i]``; the map lists g's
    edges as (u, v) with u < v in lexicographic order, and that order is a
    frozen contract.  Two line vertices are adjacent when the underlying
    edges share exactly one endpoint.  Over ``cap`` edges of g (None:
    DEFAULT_VERTEX_CAP) it raises VertexCapExceeded before listing them.
    """
    _check_cap(g.edge_count(), cap)
    edge_map = tuple(g.edges())
    if not edge_map:
        raise ValueError("line graph of an edgeless graph is not defined here")
    incident = [set() for _ in range(g.n)]
    for i, (u, v) in enumerate(edge_map):
        incident[u].add(i)
        incident[v].add(i)
    # edge i is the one edge on both u and v, so the difference drops it
    return Graph._from_nbrs([sorted(incident[u] ^ incident[v]) for u, v in edge_map]), edge_map


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [(full ^ row) ^ (1 << v) for v, row in enumerate(g.adj)], g.labels)


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the given vertex set.

    Returns the new graph together with the mapping new-index -> old-index;
    new indices follow ascending old indices.
    """
    mapping = tuple(sorted(set(vertices)))
    if not mapping:
        raise ValueError("induced subgraph needs at least one vertex")
    if mapping[0] < 0 or mapping[-1] >= g.n:
        raise ValueError(f"vertices outside 0..{g.n - 1}")
    position = {old: new for new, old in enumerate(mapping)}
    nbrs = [[position[w] for w in g.nbrs[old] if w in position] for old in mapping]
    labels = None if g.labels is None else tuple(map(g.labels.__getitem__, mapping))
    return Graph._from_nbrs(nbrs, labels), mapping


def distance_partition(g: Graph, source: int) -> DistancePartition:
    """BFS layers from source; unreachable vertices are flagged, not layered.

    This is the one BFS kernel of the package.  Each step grows the whole
    frontier at once: the next layer is the OR of the frontier's rows with
    every vertex seen so far masked out, and each frontier is kept as a
    layer mask.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} outside 0..{g.n - 1}")
    adj = g.adj
    dist = [None] * g.n
    dist[source] = 0
    masks = [1 << source]
    seen = frontier = masks[0]
    d = 0
    while True:
        reach = 0
        for v in bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        if not frontier:
            break
        seen |= frontier
        d += 1
        for v in bits(frontier):
            dist[v] = d
        masks.append(frontier)
    return DistancePartition(source, tuple(masks), tuple(dist))


def neighborhood(g: Graph, v: int) -> frozenset[int]:
    return g.neighbors(v)
