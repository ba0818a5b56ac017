"""Johnson-graph structure: induced actions of the ground-set symmetric
group, the complementation map, line-graph lifts, local neighbourhood
isomorphisms, intersection uniqueness, reconstruction from a seed map, and
the end-to-end verifier.

The background facts being verified mechanically: vertices of J(n, m) at
distance d share exactly m - d elements; the neighbourhood of any vertex
induces the line graph of K_{m,n-m}; for layers two and beyond, a vertex
is the unique common neighbour (within its layer) of its back-neighbours,
which pins down every automorphism from its restriction to one closed
neighbourhood; and the full automorphism group has order n! when
n != 2m and 2 * n! when n = 2m, the extra factor coming from set
complementation.  The verifier takes that order from two bounds and runs
no search of J(n, m): the induced Sym(n), doubled by complementation when
n = 2m, is the lower bound, and because every vertex past the first layer
is pinned by its back-neighbours, a vertex stabilizer embeds in the
automorphism group of its neighbourhood, whose order C(n, m) times is the
upper bound.  Its one automorphism search runs on that neighbourhood.
"""

from __future__ import annotations

import time
from math import factorial
from operator import attrgetter

from ._version import __version__
from .graphs import (
    Graph,
    _check_cap,
    _check_deadline,
    _colex_index,
    bits,
    complete_bipartite,
    distance_partition,
    induced_subgraph,
    johnson_graph,
    line_graph,
)
from .perms import Perm, PermGroup, _orbit_mask, compose
from .search import automorphism_group, check_automorphism
from .subsets import SubsetLabel, _Value, binomial, intersection_size, rank_subset

DEFAULT_SEED = 1729


def induced_action(theta: Perm, n: int, m: int, *, cap: int | None = None) -> Perm:
    """The permutation of J(n, m) vertices induced by a ground-set
    permutation theta (0-based points stand for elements 1..n).  Over
    ``cap`` vertices (None: DEFAULT_VERTEX_CAP) it raises
    VertexCapExceeded before any subset is listed."""
    if theta.degree != n:
        raise ValueError(f"ground permutation degree {theta.degree} != {n}")
    _check_cap(binomial(n, m), cap)
    masks, index = _colex_index(n, m)
    lift = {1 << b: 1 << t for b, t in enumerate(theta.images)}  # bit -> image bit
    images = []
    for mask in masks:
        moved = 0
        while mask:
            low = mask & -mask
            moved |= lift[low]
            mask ^= low
        images.append(index[moved])
    return Perm(images)


def complementation_map(m: int, *, cap: int | None = None) -> Perm:
    """The vertex permutation of J(2m, m) sending each set to its
    complement.  Over ``cap`` vertices (None: DEFAULT_VERTEX_CAP) it
    raises VertexCapExceeded before any subset is listed."""
    if m < 1:
        raise ValueError(f"subset size must be positive, got {m}")
    n = 2 * m
    _check_cap(binomial(n, m), cap)
    masks, index = _colex_index(n, m)
    full = (1 << n) - 1
    return Perm([index[mask ^ full] for mask in masks])


def whitney_lift(p: Perm, base: Graph, edge_map) -> Perm:
    """Lift an automorphism of the base graph to its line graph.

    ``edge_map`` is the frozen edge order returned by line_graph(base);
    line vertex i moves to the line vertex of the image edge.  The lift is
    a group homomorphism, injective whenever the base is connected and has
    more than one edge worth of structure (everything except K_2).
    """
    if not check_automorphism(base, p):
        raise ValueError("permutation is not an automorphism of the base graph")
    edge_map = tuple(edge_map)
    index = {}
    for i, (u, v) in enumerate(edge_map):
        if not base.has_edge(u, v):
            raise ValueError(f"edge map entry ({u},{v}) is not an edge of the base graph")
        index[(u, v)] = i
    if len(index) != len(edge_map) or len(edge_map) != base.edge_count():
        raise ValueError("edge map does not enumerate the base graph's edges")
    images = []
    for u, v in edge_map:
        a, b = p[u], p[v]
        if a > b:
            a, b = b, a
        images.append(index[(a, b)])
    return Perm(images)


def neighborhood_iso(n: int, m: int, v: SubsetLabel) -> tuple[int, ...]:
    """Explicit isomorphism from L(K_{m,n-m}) onto the neighbourhood of v
    in J(n, m).

    Entry i is the J(n, m) vertex index for line vertex i: the bipartite
    edge (x side position i, y side position j) goes to the set
    v minus its (i+1)-th smallest element plus the (j+1)-th smallest
    element outside v.  The bijection is checked edge for edge against the
    intersection adjacency rule before it is returned; no search is
    involved.
    """
    if v.n != n:
        raise ValueError(f"label ground set {v.n} != {n}")
    if v.m != m:
        raise ValueError(f"label size {v.m} != {m}")
    if not 1 <= m <= n - 1:
        raise ValueError(f"subset size must be in 1..{n - 1}, got {m}")
    xs = v.elements()
    ys = v.complement().elements()
    line, edge_map = line_graph(complete_bipartite(m, n - m))
    targets = [(v.mask ^ (1 << (xs[i] - 1))) | (1 << (ys[j - m] - 1)) for i, j in edge_map]
    phi = tuple(rank_subset(SubsetLabel(n, mask)) for mask in targets)
    if len(set(phi)) != len(phi):
        raise RuntimeError("neighbourhood map failed to be injective")
    for mask in targets:
        if (mask & v.mask).bit_count() != m - 1:
            raise RuntimeError("neighbourhood map left the neighbourhood")
    for a in range(len(targets)):
        for b in range(a + 1, len(targets)):
            meets = (targets[a] & targets[b]).bit_count() == m - 1
            if meets != line.has_edge(a, b):
                raise RuntimeError("neighbourhood map is not edge faithful")
    return phi


def distance_by_intersection(u: SubsetLabel, v: SubsetLabel) -> int:
    """m minus the intersection size: the J(n, m) distance formula."""
    if u.m != v.m:
        raise ValueError(f"labels have different sizes: {u.m} vs {v.m}")
    return u.m - intersection_size(u, v)


class IntersectionWitness(_Value):
    """Outcome of the common-neighbour uniqueness probe for one (x, v)."""

    __match_args__ = ("passed", "layer", "intersection", "extras")
    _key = attrgetter(*__match_args__)

    def __init__(self, passed: bool, layer: int, intersection: frozenset[int], extras: frozenset[int]):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "intersection", intersection)
        object.__setattr__(self, "extras", extras)


def _meet(g: Graph, masks, d: int, v: int, images, image_masks) -> int:
    """The vertices of layer d of ``image_masks`` adjacent to the image
    under ``images`` of every back-neighbour of v, as a mask.  ``masks``
    are the BFS layers around a source, with v in layer d >= 1, and
    ``image_masks`` the layers around the source's image.  Under the
    identity map, with ``masks`` for both, the paper needs it to be {v}."""
    meet = image_masks[d]
    for w in bits(g.adj[v] & masks[d - 1]):
        meet &= g.adj[images[w]]
    return meet


def _propagate(g: Graph, masks, images, image_masks):
    """Pin the vertices of layers 2 and up of ``masks``, layer by layer
    and vertex by vertex in ascending order: u is pinned, and ``images[u]``
    set, when its ``_meet`` is a single vertex not yet taken; the images of
    layers 0 and 1 start taken, and an unpinned vertex keeps its image.
    A generator: it yields each offender (vertex, layer, meet mask) as it
    meets it, so a caller that needs only the first stops the walk there."""
    taken = {images[u] for u in bits(sum(masks[:2]))}  # the layers are disjoint
    for d in range(2, len(masks)):
        for u in bits(masks[d]):
            meet = _meet(g, masks, d, u, images, image_masks)
            image = meet.bit_length() - 1
            if meet.bit_count() == 1 and image not in taken:
                images[u] = image
                taken.add(image)
            else:
                yield u, d, meet


def unique_intersection_witness(g: Graph, x: int, v: int) -> IntersectionWitness:
    """Check that v is the only vertex of its layer around x adjacent to
    every back-neighbour of v.

    The probe computes the intersection of N(w) over all w one layer
    closer to x and adjacent to v, restricted to v's layer.  ``passed`` is
    True exactly when that intersection is {v}; any other members are
    reported in ``extras``.  At layer 1 the intersection is always the
    whole first layer, so the probe carries content only from layer 2 on.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    if x == v:
        raise ValueError("source and probe vertex must differ")
    dp = distance_partition(g, x)
    d = dp.dist[v]
    if d is None:
        raise ValueError(f"vertex {v} is unreachable from {x}")
    meet = _meet(g, dp.masks, d, v, range(g.n), dp.masks)
    return IntersectionWitness(
        passed=meet == 1 << v,
        layer=d,
        intersection=frozenset(bits(meet)),
        extras=frozenset(bits(meet ^ (1 << v))),
    )


class PartialVertexMap(_Value):
    """A partial injection on the vertex set of a fixed graph."""

    __match_args__ = ("graph", "_map")
    # a map compares by identity and shows the object repr
    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

    def __init__(self, graph: Graph, assignment):
        mapping = {}
        used = set()
        for v, w in dict(assignment).items():
            if not (0 <= v < graph.n and 0 <= w < graph.n):
                raise ValueError(f"assignment {v} -> {w} outside 0..{graph.n - 1}")
            if w in used:
                raise ValueError(f"image {w} repeated; assignment is not injective")
            used.add(w)
            mapping[v] = w
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_map", dict(sorted(mapping.items())))

    @classmethod
    def identity_on(cls, graph: Graph, vertices) -> "PartialVertexMap":
        return cls(graph, {v: v for v in vertices})

    @classmethod
    def restriction(cls, graph: Graph, p: Perm, vertices) -> "PartialVertexMap":
        if p.degree != graph.n:
            raise ValueError(f"permutation degree {p.degree} != vertex count {graph.n}")
        return cls(graph, {v: p[v] for v in vertices})

    @property
    def assigned(self) -> frozenset[int]:
        return frozenset(self._map)

    def __getitem__(self, v: int) -> int:
        return self._map[v]

    def __contains__(self, v: int) -> bool:
        return v in self._map

    def __len__(self) -> int:
        return len(self._map)

    def items(self):
        return self._map.items()

    def respects_adjacency(self) -> bool:
        """True when edges and non-edges are preserved within the domain."""
        keys = list(self._map)
        for a_pos, a in enumerate(keys):
            for b in keys[a_pos + 1:]:
                if self.graph.has_edge(a, b) != self.graph.has_edge(self._map[a], self._map[b]):
                    return False
        return True


class ReconstructionError(Exception):
    """Layer propagation failed; carries the first offending vertex."""

    def __init__(self, message, vertex=None, layer=None, candidates=None):
        super().__init__(message)
        self.vertex = vertex
        self.layer = layer
        self.candidates = candidates


def local_reconstruction(g: Graph, x: int, seed: PartialVertexMap) -> Perm:
    """Extend a closed-neighbourhood seed map to a full automorphism by
    layer propagation.

    The seed must be defined on exactly {x} union N(x) and must preserve
    adjacency there.  Processing layers 2..D in order, each vertex's image
    is the unique common neighbour, inside the matching layer around the
    image of x, of the images of its back-neighbours (``_propagate``).  The
    first vertex without a single candidate, or whose candidate is already
    taken, raises ReconstructionError; a successful propagation is
    returned only after passing check_automorphism.  With the identity
    seed this says an automorphism fixing a closed neighbourhood pointwise
    is the identity.
    """
    if seed.graph != g:
        raise ValueError("seed is bound to a different graph")
    if not 0 <= x < g.n:
        raise ValueError(f"source {x} outside 0..{g.n - 1}")
    expected_domain = frozenset(bits(g.adj[x])) | {x}
    if seed.assigned != expected_domain:
        raise ValueError("seed domain must be exactly the closed neighbourhood of the source")
    if not seed.respects_adjacency():
        raise ValueError("seed breaks adjacency on its domain")
    dp = distance_partition(g, x)
    if dp.unreachable:
        raise ValueError("graph must be connected from the source")
    y = seed[x]
    dp_image = distance_partition(g, y)
    if dp.layer_sizes != dp_image.layer_sizes:
        raise ReconstructionError(
            f"layer profiles around {x} and {y} differ: "
            f"{dp.layer_sizes} vs {dp_image.layer_sizes}"
        )
    images = [seed[v] if v in seed else v for v in range(g.n)]
    offender = next(_propagate(g, dp.masks, images, dp_image.masks), None)
    if offender:
        u, d, meet = offender
        k = meet.bit_count()
        fault = f"has {k} candidates" if k != 1 else f"collides on image {meet.bit_length() - 1}"
        raise ReconstructionError(
            f"vertex {u} at layer {d} {fault}", vertex=u, layer=d, candidates=frozenset(bits(meet))
        )
    result = Perm(images)
    if not check_automorphism(g, result):
        raise ReconstructionError("propagated map is not an automorphism")
    return result


def bipartite_aut_order(s: int, t: int) -> int:
    """|Aut(K_{s,t})|: s! t! for unequal sides, doubled when s = t."""
    if s < 1 or t < 1:
        raise ValueError("both sides must be nonempty")
    if s == t:
        return 2 * factorial(s) ** 2
    return factorial(s) * factorial(t)


class TransitivityProfile(_Value):
    """Vertex, edge and distance transitivity of a graph under a group."""

    __match_args__ = ("vertex", "edge", "distance")
    _key = attrgetter(*__match_args__)

    def __init__(self, vertex: bool, edge: bool, distance: bool):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "distance", distance)


def transitivity_profile(g: Graph, aut: PermGroup, *, deadline=None) -> TransitivityProfile:
    """Vertex, edge and distance transitivity flags under the given group,
    which must act by automorphisms of g.

    Vertex and edge transitivity hold when the vertices, respectively the
    edges, form a single orbit.  Distance transitivity means that every
    class of ordered pairs at a fixed distance, the diagonal and the
    unreachable pairs included, is a single orbit; it implies vertex
    transitivity.  For a vertex-transitive group it is equivalent to the
    stabilizer of one vertex b being transitive on every class of vertices
    at a fixed distance from b (Brouwer, Cohen & Neumaier, Distance-Regular
    Graphs, 1989), which is what is checked: b is the group's first base
    point and the stabilizer comes from its stabilizer chain, so one BFS
    replaces orbit closure over all ordered pairs.  The same BFS gives the
    edge flag in the common case: a vertex-transitive group whose
    stabilizer of b is transitive on the neighbours of b is transitive on
    arcs, hence on edges.  The converse fails (Holt, J. Graph Theory 5,
    1981), so any other group has its edge orbit closed edge by edge.

    Past ``deadline``, a ``time.monotonic()`` instant checked at every
    layer of the distance pass and every edge of the edge pass,
    TimeLimitExceeded is raised; None means no limit.
    """
    if aut.degree != g.n:
        raise ValueError(f"group degree {aut.degree} != vertex count {g.n}")
    masks = distance_partition(g, aut.base[0] if aut.base else 0).masks
    stabilizer = [p.images for p in aut.base_stabilizer_generators]
    return _transitivity(g, [p.images for p in aut.generators], masks, stabilizer, deadline)


def _transitivity(g: Graph, gens, masks, stabilizer, deadline) -> TransitivityProfile:
    """The flags of transitivity_profile for the group of automorphisms
    generated by the image tuples ``gens``, given the BFS layer ``masks``
    of g around a vertex b and image tuples ``stabilizer`` that generate a
    subgroup of its stabilizer of b.

    The stabilizer's orbits are taken on layer 0 (so it must fix b), on
    each further layer and on the unreachable set, up to the first that
    splits.  A vertex-transitive group is arc-transitive when layer 1 does
    not split, and acts on an edgeless graph when b has no layer 1; only
    otherwise is the edge orbit closed over the edge list.
    """
    vertex = _orbit_mask(gens, 1) == (1 << g.n) - 1
    layers = (*masks, (1 << g.n) - 1 - sum(masks)) if vertex else ()  # the layers are disjoint
    whole = 0  # the leading layers that are single orbits of the stabilizer
    for mask in layers:
        _check_deadline(deadline)
        if mask and _orbit_mask(stabilizer, mask & -mask) != mask:
            break
        whole += 1
    distance = vertex and whole == len(layers)
    edge = vertex and (len(masks) == 1 or whole > 1)
    if not edge:
        edges = g.edges()
        # a generator that fixes both ends of an edge fixes the edge
        movers = [[gen for gen in gens if gen[v] != v] for v in range(g.n)]
        seen = set(edges[:1])
        queue = edges[:1]
        while queue:
            _check_deadline(deadline)
            a, b = queue.pop()
            for gen in (*movers[a], *movers[b]):
                c, d = gen[a], gen[b]
                e = (c, d) if c < d else (d, c)
                if e not in seen:
                    seen.add(e)
                    queue.append(e)
        edge = seen == set(edges)
    return TransitivityProfile(vertex=vertex, edge=edge, distance=distance)


class CheckResult(_Value):
    """One verifier check.  Only asserted checks drive pass/fail; the rest
    are recorded observations."""

    __match_args__ = ("name", "passed", "asserted", "detail")
    _key = attrgetter(*__match_args__)

    def __init__(self, name: str, passed: bool, asserted: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "asserted", asserted)
        object.__setattr__(self, "detail", detail)


class VerificationReport(_Value):
    """What verify_johnson_aut found for one J(n, m): the orders it compared
    and every check."""

    __match_args__ = (
        "n", "m", "vertex_count", "degree", "aut_order", "expected_order",
        "stabilizer_order", "stabilizer_bound", "checks", "seed", "elapsed_seconds",
    )
    _key = attrgetter(*__match_args__)

    def __init__(
        self, n: int, m: int, vertex_count: int, degree: int, aut_order: int,
        expected_order: int, stabilizer_order: int, stabilizer_bound: int,
        checks: tuple[CheckResult, ...], seed: int, elapsed_seconds: float,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "aut_order", aut_order)
        object.__setattr__(self, "expected_order", expected_order)
        object.__setattr__(self, "stabilizer_order", stabilizer_order)
        object.__setattr__(self, "stabilizer_bound", stabilizer_bound)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "elapsed_seconds", elapsed_seconds)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.asserted)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "status": "ok",
            "tool_version": __version__,
            "n": self.n,
            "m": self.m,
            "vertex_count": self.vertex_count,
            "degree": self.degree,
            "aut_order": str(self.aut_order),
            "expected_order": str(self.expected_order),
            "stabilizer_order": str(self.stabilizer_order),
            "stabilizer_bound": str(self.stabilizer_bound),
            "passed": self.passed,
            "seed": self.seed,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "checks": [dict(vars(c)) for c in self.checks],
        }


def _valid_pair(n: int, m: int) -> bool:
    """The pairs the verifier covers: n >= 4 and 2 <= m <= n/2."""
    return n >= 4 and 2 <= m and 2 * m <= n


def verify_johnson_aut(
    n: int,
    m: int,
    *,
    cap: int | None = None,
    seed: int = DEFAULT_SEED,
    all_sources: bool = False,
    deadline: float | None = None,
) -> VerificationReport:
    """Run the full structure verification for J(n, m) and report.

    The order of Aut(J(n, m)) comes from two bounds, with no search of
    J(n, m) and no group of degree C(n, m) built.  Lower bound: the lifts
    of (0 1) and (0 ... n-1) are automorphisms, the induced action is
    injective, and the two generate order n! on the n ground points; for
    n = 2m the complementation map is an involution outside the induced
    copy of Sym(n) that commutes with it, which doubles the order.  Upper
    bound: every vertex at layer two and beyond around vertex 0 is the
    unique common neighbour, inside its layer, of its back-neighbours, so
    an automorphism that fixes N[0] pointwise is the identity and Stab(0)
    embeds in Aut(G[N(0)]); hence |Aut| <= C(n, m) |Aut(G[N(0)])|
    (``stabilizer_index``).  The one automorphism search runs on the
    m(n - m) vertices of G[N(0)], and its order is checked against
    Whitney's |Aut(L(K_{m,n-m}))| = |Aut(K_{m,n-m})| (``stabilizer_bound``).
    ``aut_order`` passes when both bounds hold and meet at n!, doubled
    when n = 2m.  The report's ``aut_order`` is the upper bound and its
    ``stabilizer_order`` is |Aut(G[N(0)])|.

    Transitivity under a subgroup of Aut implies it under Aut, so the
    vertex orbit is taken under the lifts of (0 1) and (0 ... n-1), and
    the distance layers around vertex 0 = {0, ..., m-1}, read from the
    sweep's BFS, under the lifts of (0 1), (0 ... m-1), (m m+1) and
    (m ... n-1), which generate its stabilizer in the induced Sym(n).
    Vertex-transitive lifts that are automorphisms
    (``induced_maps_are_automorphisms``) and whose stabilizer is
    transitive on layer 1 act arc-transitively, so ``edge_transitive``
    asks for both, and on J(n, m) no edge is listed.

    Layer-two-and-beyond intersection uniqueness is asserted only for
    n >= 6, m >= 3 and recorded otherwise; ``all_sources`` widens its
    sweep from vertex 0 to every vertex, and the upper bound reads vertex
    0's part of it on every pair.  Nothing is sampled; ``seed`` is only
    recorded in the report.

    ``deadline`` is a ``time.monotonic()`` instant, None for no limit.  It
    is checked at every search node and between phases, last before the
    report is returned; once it has passed, TimeLimitExceeded is raised.
    """
    if not _valid_pair(n, m):
        raise ValueError(f"requires n >= 4 and 2 <= m <= n/2, got ({n}, {m})")
    start = time.perf_counter()
    checks = []
    g = johnson_graph(n, m, cap=cap)
    _check_deadline(deadline)
    expected = 2 * factorial(n) if n == 2 * m else factorial(n)

    # Every non-trivial normal subgroup of Sym(n) holds the 3-cycles when
    # n >= 5 and (0 1)(2 3) when n = 4, so lifts of those decide the kernel.
    probes = [Perm.from_cycles(n, (0, 1, 2))]
    if n == 4:
        probes.append(Perm.from_cycles(n, (0, 1), (2, 3)))
    moved = [
        sum(v != w for v, w in enumerate(induced_action(t, n, m, cap=cap).images)) for t in probes
    ]
    injective = all(moved)
    checks.append(CheckResult(
        "induced_action_injective",
        injective,
        True,
        "the kernel is normal in Sym(n), so it is trivial when these lifts are not the "
        "identity: " + ", ".join(
            f"{t.cycle_string()} moves {k} of {g.n} vertices" for t, k in zip(probes, moved)
        ),
    ))

    swap = Perm.from_cycles(n, (0, 1))
    cycle = Perm.from_cycles(n, tuple(range(n)))
    lifts = [induced_action(swap, n, m, cap=cap), induced_action(cycle, n, m, cap=cap)]
    alpha = complementation_map(m, cap=cap) if n == 2 * m else None
    maps = lifts if alpha is None else [*lifts, alpha]
    automorphisms = all(check_automorphism(g, f) for f in maps)
    checks.append(CheckResult(
        "induced_maps_are_automorphisms",
        automorphisms,
        True,
        f"the lifts of (0 1) and (0 ... {n - 1})"
        + (" and the complementation map" if n == 2 * m else "")
        + " map edges to edges and non-edges to non-edges",
    ))

    if n == 2 * m:
        involution = compose(alpha, alpha).is_identity() and not alpha.is_identity()
        checks.append(CheckResult(
            "complement_map_involution",
            involution,
            True,
            "complementation squares to the identity and is not the identity",
        ))
    ground_order = PermGroup([swap, cycle], n).order
    subgroup = injective and ground_order == factorial(n)
    checks.append(CheckResult(
        "induced_subgroup_order",
        subgroup,
        True,
        f"(0 1) and (0 ... {n - 1}) generate order {ground_order} on the {n} ground "
        f"points, expected {factorial(n)}; the action is faithful "
        f"(induced_action_injective), so their two lifts generate the same order",
    ))
    if n == 2 * m:
        # The sets through T = {0, ..., m-2} share exactly T, and their images
        # under the map induced by theta share exactly theta(T).
        masks, index = _colex_index(n, m)
        through = (1 << (m - 1)) - 1
        shared = (1 << n) - 1
        for x in range(m - 1, n):
            shared &= masks[alpha[index[through | 1 << x]]]
        outside = shared.bit_count() != m - 1
        checks.append(CheckResult(
            "complement_map_outside_induced_subgroup",
            outside,
            True,
            f"the {n - m + 1} sets containing a fixed {m - 1}-set share exactly it, and so "
            f"do their images under any induced map; under complementation their images "
            f"share {shared.bit_count()} elements",
        ))
        commutes = all(compose(f, alpha) == compose(alpha, f) for f in lifts)
        checks.append(CheckResult(
            "complement_map_commutes",
            commutes,
            True,
            "the two standard lifts commute with complementation; they generate the "
            "induced copy of Sym(n) (induced_subgroup_order), so all of it does",
        ))
        checks.append(CheckResult(
            "full_group_order_with_complement_map",
            automorphisms and involution and subgroup and outside and commutes,
            True,
            f"an involution outside the induced copy of Sym(n) that commutes with it adds "
            f"exactly one coset, so with induced_maps_are_automorphisms the four checks "
            f"above give a group of {2 * factorial(n)} automorphisms",
        ))
    lower = all(c.passed for c in checks)  # every check so far is part of the lower bound

    sources = range(g.n) if all_sources else [0]
    in_hypothesis = n >= 6 and m >= 3
    deep_total = deep_unique = 0
    first_total = first_unique = 0
    identity = list(range(g.n))  # pinning under the identity writes u over u
    for x in sources:
        _check_deadline(deadline)
        masks = distance_partition(g, x).masks
        deep = sum(mask.bit_count() for mask in masks[2:])
        offenders = sum(1 for _ in _propagate(g, masks, identity, masks))
        deep_total += deep
        deep_unique += deep - offenders
        first_total += masks[1].bit_count()
        first_unique += sum(_meet(g, masks, 1, v, identity, masks) == 1 << v for v in bits(masks[1]))
        if x == 0:
            rigid = not offenders
            around = masks
    neighbourhood, _ = induced_subgraph(g, g.nbrs[0])
    local = automorphism_group(neighbourhood, cap=cap, deadline=deadline).order
    bound = bipartite_aut_order(m, n - m)
    checks.append(CheckResult(
        "stabilizer_index",
        rigid,
        True,
        f"each vertex at layer >= 2 around vertex 0 is pinned by its back-neighbours: {rigid}; "
        f"then Stab(0) embeds in Aut(G[N(0)]), so |Aut| <= {g.n} x {local} = {g.n * local}",
    ))
    checks.append(CheckResult(
        "stabilizer_bound",
        local == bound,
        True,
        f"|Aut(G[N(0)])| = {local} vs |Aut(L(K_{{{m},{n - m}}}))| = {bound} (Whitney)",
    ))
    checks.append(CheckResult(
        "intersection_uniqueness",
        deep_unique == deep_total,
        in_hypothesis,
        f"layers >= 2: {deep_unique}/{deep_total} unique over {len(sources)} source(s)"
        + ("" if in_hypothesis else "; recorded only, outside the n >= 6, m >= 3 hypothesis"),
    ))
    checks.append(CheckResult(
        "intersection_uniqueness_first_layer",
        first_unique == first_total,
        False,
        f"layer 1: {first_unique}/{first_total} unique; recorded only, the intersection "
        f"there is the whole first layer",
    ))

    fixers = [tuple(range(m)), (m, m + 1), tuple(range(m, n))]  # with (0 1), all fix vertex 0
    lifted = [induced_action(Perm.from_cycles(n, c), n, m, cap=cap) for c in fixers]
    stabilizer = [f.images for f in (lifts[0], *lifted)]
    profile = _transitivity(g, [f.images for f in lifts], around, stabilizer, deadline)
    checks.append(CheckResult("vertex_transitive", profile.vertex, True, "single vertex orbit"))
    # the arc argument reads the lifts as automorphisms
    checks.append(CheckResult(
        "edge_transitive", automorphisms and profile.edge, True, "arc-transitive"
    ))
    checks.append(CheckResult(
        "distance_transitive",
        profile.distance,
        True,
        "vertex-transitive, and the stabilizer of one vertex is transitive on each of its "
        "distance layers (Brouwer-Cohen-Neumaier criterion)",
    ))
    checks.insert(0, CheckResult(
        "aut_order",
        lower and rigid and g.n * local == expected,
        True,
        f"lower bound {expected}: {lower}; upper bound {g.n * local}: {rigid}; expected {expected}",
    ))

    _check_deadline(deadline)
    return VerificationReport(
        n=n,
        m=m,
        vertex_count=g.n,
        degree=g.degree(0),
        aut_order=g.n * local,
        expected_order=expected,
        stabilizer_order=local,
        stabilizer_bound=bound,
        checks=tuple(checks),
        seed=seed,
        elapsed_seconds=time.perf_counter() - start,
    )
