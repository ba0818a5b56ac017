"""Colour refinement and individualization-refinement search: automorphism
groups, isomorphism testing, canonical forms.

Refinement keeps ordered partitions.  The public ColoredPartition presents
cells in the frozen (size, smallest member) order, but search trees order
cells by the refinement trace: when a cell splits, its fragments take its
position ordered by ascending splitter count.  Trace order is preserved by
relabelling (the counts are invariants), which is what makes cross-branch
cell pairing and the canonical search correct; the (size, smallest member)
order is not, so it stays a presentation rule only.  Refinement reads a
graph's adjacency rows as bit masks; maps read its neighbour view,
``Graph.nbrs``.

Everything here is deterministic: target cells are the first smallest
non-singleton cell in trace order and branch candidates run in ascending
vertex order.  All three searches walk their trees through one walker,
``_leaves``, and each witness is checked once, where the walk finds it.
Edgeless, complete and complete bipartite graphs meet the walk as cells
of pairwise twins, each decided once, when its node is pushed, so such a
graph costs one descent.

A graph searched once is not searched again for the same answer:
automorphism_group records a completed uncoloured search on its graph,
find_isomorphism lends a recorded group to an isomorphic graph that has
none, and canonical_form prunes by either (each docstring says how).  The
record also says whether the tree is one orbit: whether every target cell
on the first path is the orbit of the path's vertex under the stabilizer
of the path above it.  Then every leaf is an image of the first, so
canonical_form relabels by the graph's first leaf, recorded or lent with
the group, and walks nothing: J(12,6)'s form takes about 8 ms so, not
600 ms.  A record is what a new walk would produce, so it never changes
an output, and a lent group is never recorded, so automorphism_group
still answers from a walk of the graph itself.
"""

from __future__ import annotations

import marshal
from collections import deque
from math import prod
from operator import attrgetter

from .graphs import Graph, _check_cap, _check_deadline, _edge_list, bits
from .perms import Perm, PermGroup, _inv, _mul, _orbit_mask
from .subsets import _Value


class ColoredPartition(_Value):
    """A vertex colouring presented as an ordered partition.

    ``color[v]`` is the colour id of vertex v.  ``cells[c]`` lists the
    vertices of colour c in ascending order, and colour ids are contiguous
    from 0, ordered by (cell size, smallest member).
    """

    __match_args__ = ("color", "cells")
    _key = attrgetter(*__match_args__)

    def __init__(self, color: tuple[int, ...], cells: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_cells(cls, n: int, cells) -> "ColoredPartition":
        """Normalize an iterable of cells into the frozen presentation."""
        ordered = []
        seen = 0
        for cell in cells:
            try:
                members = set(cell)
            except TypeError:
                raise ValueError(
                    f"colours are given as cells, iterables of vertices, not {cell!r}"
                ) from None
            if not members:
                raise ValueError("empty cell in partition")
            mask = 0
            for v in members:
                if type(v) is not int:
                    raise ValueError(f"vertices are ints, not {v!r}")
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} outside 0..{n - 1}")
                mask |= 1 << v
            members = tuple(sorted(members))
            if mask & seen:
                raise ValueError("cells are not disjoint")
            seen |= mask
            ordered.append(members)
        if seen != (1 << n) - 1:
            raise ValueError("cells do not cover every vertex")
        ordered.sort(key=lambda members: (len(members), members[0]))
        color = [0] * n
        for c, members in enumerate(ordered):
            for v in members:
                color[v] = c
        return cls(tuple(color), tuple(ordered))

    @classmethod
    def uniform(cls, n: int) -> "ColoredPartition":
        return cls.from_cells(n, [range(n)])

    @property
    def n(self) -> int:
        return len(self.color)


def _cut(cell, planes):
    """The (count, fragment) pairs of a cell under a splitter's count
    planes, in ascending count order: the cell is cut by each plane from
    the highest down, the part outside a plane before the part inside."""
    parts = [(0, cell)]
    for i in range(len(planes) - 1, -1, -1):
        plane = planes[i]
        cut = []
        for c, part in parts:
            meet = plane & part
            if meet != part:
                cut.append((c, part ^ meet))
            if meet:
                cut.append((c | 1 << i, meet))
        parts = cut
    return parts


def _refine(adj, cells, queue, trace=None, expect=None):
    """Refine an ordered partition (cell masks) to its coarsest equitable
    refinement; the queue holds pending splitter masks.

    Each splitter is read through its count bit planes, built once: the
    rows of its vertices are added with big-int half-adders, so that a
    vertex's neighbour count into the splitter has bit i set exactly where
    plane i holds the vertex.  The union of the rows, ORed while they are
    added, holds every vertex with a neighbour in the splitter.  Only the
    non-singleton cells that meet the union are tested: any other cell has
    count 0 for every vertex, so it cannot split.  A cell that every plane
    meets in nothing or in all of it does not split, and the planes that
    hold it spell its one count, so no vertex is read.  Any other cell is
    cut by the planes from the highest down, which leaves its fragments in
    ascending count order.  A single vertex's one plane is its row, read
    with no adder pass and no plane loop: a reached cell inside the row
    has count 1, and any other splits into the part outside the row
    (count 0) and the part inside it (count 1).

    Testing cell k gives a signature ``(k, pairs)``, the cell's position
    and its ascending (count, fragment size) pairs.  Signatures are
    appended to ``trace``, or checked against ``expect``: False at the
    first difference or when the lengths differ.  The positions keep equal
    traces to equal cell shapes although untested cells leave no entry.
    A cell that splits takes its fragments' place in order, and every
    fragment is queued.
    """
    keep = trace is not None or expect is not None
    pos = 0
    active = 0
    for cell in cells:
        if cell & (cell - 1):
            active |= cell
    while queue and active:
        splitter = queue.popleft()
        if splitter & (splitter - 1):
            planes = []
            hit = 0
            while splitter:
                low = splitter & -splitter
                splitter ^= low
                carry = adj[low.bit_length() - 1]
                hit |= carry
                i = 0
                for plane in planes:
                    planes[i] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                    i += 1
                else:
                    planes.append(carry)
        else:
            hit = row = adj[splitter.bit_length() - 1]
            planes = None
        hit &= active
        k = 0
        while hit:
            cell = cells[k]
            if cell & hit:
                hit &= ~cell
                if planes is None:
                    meet = row & cell
                    count = 1
                    parts = None if meet == cell else [(0, cell ^ meet), (1, meet)]
                else:
                    count = 0
                    bit = 1
                    for plane in planes:
                        meet = plane & cell
                        if meet:
                            if meet != cell:
                                parts = _cut(cell, planes)
                                break
                            count |= bit
                        bit <<= 1
                    else:
                        parts = None
                if keep:
                    if parts:
                        sig = (k, [(c, part.bit_count()) for c, part in parts])
                    else:
                        sig = (k, [(count, cell.bit_count())])
                    if expect is None:
                        trace.append(sig)
                    elif pos < len(expect) and expect[pos] == sig:
                        pos += 1
                    else:
                        return False
                if parts:
                    frags = [part for _, part in parts]
                    cells[k:k + 1] = frags
                    queue.extend(frags)
                    for frag in frags:
                        if not frag & (frag - 1):
                            active ^= frag
                    k += len(frags)
                    continue
            k += 1
    return expect is None or pos == len(expect)


def _target_cell(cells):
    """Branch cell position: first smallest non-singleton in trace order."""
    best = -1
    best_size = 0
    for k, cell in enumerate(cells):
        size = cell.bit_count()
        if size > 1 and (best < 0 or size < best_size):
            best = k
            best_size = size
    return best


# From this many vertices on, _maps_edges, its one reader, compares sorted
# neighbour tuples instead of summing a table of one-bit masks: the
# entries are long ints there, and each addition costs O(n).  On CPython
# 3.11, 2 vCPUs, one check of J(16,8) (12,870 vertices) took 397 ms
# through the table against 212 ms, with 9 MB more peak RSS, where CI
# bounds the J(16,8) and J(18,9) verify runs by their peak RSS.  Below it
# the table is faster per map: about 2x on Paley(53), 1.0-1.6x on J(12,6).
# canonical_form relabels through the table at every size: its relabelling
# is a small share of each walk, and whole calls past this size took as
# long as with an OR per neighbour.
_TABLE_LIMIT = 2048


def _maps_edges(g, h, images, points):
    """True when images maps the neighbours in g of every vertex in the
    mask ``points`` onto the neighbours in h of its image.  ``points``
    holds every point that images moves.

    Rows are read from ``Graph.nbrs`` and mapped with no Python loop per
    neighbour.  Below ``_TABLE_LIMIT`` vertices a table, built once per
    call, holds each point's image as a one-bit mask, and a row's image is
    the sum of its neighbours' entries: images is always a permutation
    (Perm validates its images, and a leaf map is a bijection), so the
    entries are distinct powers of two and their sum is their OR.  From
    ``_TABLE_LIMIT`` on, the sorted images of a row are compared with h's
    ascending neighbour tuple, at a per-row cost that does not grow with
    n."""
    nbrs_a = g.nbrs
    if len(images) < _TABLE_LIMIT:
        get, adj_b = [1 << i for i in images].__getitem__, h.adj
        for v in bits(points):
            if sum(map(get, nbrs_a[v])) != adj_b[images[v]]:
                return False
        return True
    get, nbrs_b = images.__getitem__, h.nbrs
    for v in bits(points):
        if tuple(sorted(map(get, nbrs_a[v]))) != nbrs_b[images[v]]:
            return False
    return True


def _support(perm):
    """The points a permutation moves, as a bit mask."""
    mask = 0
    for p, q in enumerate(perm.images):
        if p != q:
            mask |= 1 << p
    return mask


def _swaps_twins(adj, a, b):
    """True exactly when the transposition (a b) is an automorphism: the
    rows of a and b agree outside the pair."""
    return not (adj[a] ^ adj[b]) & ~(1 << a | 1 << b)


def _is_twin_cell(adj, cell):
    """True when the members of ``cell`` are pairwise twins: each row
    equals the first member's outside the cell and, inside it, holds all
    of the other members or none.  Then every transposition of two
    members is an automorphism that fixes all other vertices."""
    row = adj[(cell & -cell).bit_length() - 1]
    outside = row & ~cell
    clique = cell if row & cell else 0
    for v in bits(cell):
        if adj[v] != outside | (clique & ~(1 << v)):
            return False
    return True


def _leaves(g, cells, path=None, found=None, deadline=None, harvest=None, seeds=None,
            sizes=None):
    """Walk the search tree of g below the initial colouring ``cells``
    (cell masks, refined in place).  Return None when the root's
    refinement trace differs from the root entry of ``path``; otherwise a
    generator that yields the first discrete leaf partition, then every
    later leaf whose cell-by-cell map from the first is no automorphism;
    depth first, candidates in ascending order.  A map is checked on the
    rows of the points it moves, the mask of which is computed once and
    kept for pruning.

    One rule refines every node of the walk, the root included.  With no
    ``path`` it only refines.  ``path`` holds one (vertex, trace) entry
    per node of the first path, the root's first with vertex None, then
    the vertex individualized at each level.  At a level the path holds,
    a node's refinement must reproduce that level's trace or the node is
    pruned; equal traces give equal cell shapes, so every target cell sits
    where the first path's did.  Past the path's end, the node's vertex
    and trace are appended: an empty ``path`` is filled by the root and
    the walk's first descent, which ends at the first leaf.  A branch
    queues only the vertex it individualizes: the rest of that cell cannot
    split an equitable partition.

    Each accepted map is appended to ``found`` as a Perm, and a consumer
    may append automorphisms of its own after a leaf.  Two rules skip
    subtrees that an automorphism fixing their shared prefix maps onto
    explored ones.  Before each pick after a frame's first, candidates in
    the orbit of an explored sibling under the automorphisms in ``found``
    that fix the frame's prefix are dropped.  A new automorphism maps an
    explored path onto the current one, so every frame above the first
    whose current candidate it moves is popped.  Backtracking goes deepest
    level first, so the accepted maps are strong for the base of
    first-path vertices.  Each node below the root checks ``deadline``
    before it refines its branch.

    A node whose target cell is a twin cell (``_is_twin_cell``) is decided
    when it is pushed: its smallest member is its only candidate, as the
    transpositions of twins fix its prefix and map that child's subtree
    onto every sibling's.  Individualizing a twin splits no other cell of
    an equitable partition, so the rest of the cell, if not a singleton,
    sits at the next position, is the unique smallest cell and is twin
    again: the child inherits its target and its twin-ness, and a walk
    tests each twin cell once, where it meets it.  A twin node pushed on
    the first descent carries the transposition of the cell's two smallest
    members, and appends it when it pops with the first leaf found (so on
    the first path only), once ``_swaps_twins`` has checked it on their two
    rows.  These transpositions generate the cell's symmetric group and
    stay strong for the base.  Off the first path no transposition is
    appended: handing one over at every twin node left every output and
    refinement count as it was, yet each extra generator lengthens every
    later orbit-pruning pass (the canonical form of two 6-cycles and twenty
    triangles took about nine times as long).

    ``harvest`` and ``seeds`` (a walk takes at most one) are callables
    with no arguments that return automorphisms of g, and each is called
    once: ``harvest`` as soon as the walk has refined more nodes below
    the root than g has vertices, ``seeds`` at the walk's first
    orbit-pruning pass, so that a walk with none (one down twin cells,
    say) never computes their supports.  What either returns joins
    ``found`` with its supports.  Those maps come from no explored leaf,
    so they prune by the orbit rule only and never make the walk jump
    back.  An orbit pass stops closing the orbit once it holds every
    candidate left.

    A list ``sizes`` receives the target-cell size of every first-path
    node, root first, as the first leaf is yielded.
    """
    adj = g.adj
    if found is None:
        found = []

    def refine_node(branch, queue, vertex, level):
        if path is None:
            _refine(adj, branch, queue)
        elif level < len(path):
            return _refine(adj, branch, queue, expect=path[level][1])
        else:
            trace = []
            _refine(adj, branch, queue, trace)
            path.append((vertex, trace))
        return True

    def walk(cells, harvest, seeds):
        k = _target_cell(cells)
        if k < 0:
            yield cells
            return
        first = None
        support = []  # the points each automorphism in found moves
        refined = 0
        # frames: [cells, prefix mask, target position, candidates left,
        #          explored candidates, current candidate bit, twin target,
        #          the two twins whose transposition the frame hands over]
        stack = []

        def push(cells, prefix, k, twin):
            # a twin target's one candidate is its smallest member; a twin
            # frame pushed before the first leaf also holds its two smallest
            cell = cells[k]
            low, rest = cell & -cell, cell & (cell - 1)
            pair = low | rest & -rest if twin and first is None else 0
            stack.append([cells, prefix, k, low if twin else cell, 0, 0, twin, pair])

        push(cells, 0, k, _is_twin_cell(adj, cells[k]))
        while stack:
            frame = stack[-1]
            cells, prefix, k, left, explored, current, twin, pair = frame
            if harvest is not None and refined > g.n or seeds is not None and explored and left:
                for a in (harvest or seeds)():
                    found.append(a)
                    support.append(_support(a))
                harvest = seeds = None
            if explored and left and support:
                fixers = [a.images for a, moved in zip(found, support) if not moved & prefix]
                if fixers:
                    left &= ~_orbit_mask(fixers, explored, left)
            if not left:
                # a twin node pushed on the first path hands its
                # transposition over as it is left
                if pair and first is not None:
                    a, b = bits(pair)
                    if _swaps_twins(adj, a, b):
                        found.append(Perm.from_cycles(g.n, (a, b)))
                        support.append(pair)
                stack.pop()
                continue
            low = left & -left
            frame[3:6] = left ^ low, explored | low, low
            _check_deadline(deadline)
            branch = list(cells)
            branch[k:k + 1] = low, cells[k] ^ low
            refined += 1
            if not refine_node(branch, deque([low]), low.bit_length() - 1, len(stack)):
                continue
            # the rest of a twin cell splits nothing, and is the next target
            inherit = twin and cells[k].bit_count() > 2
            k = k + 1 if inherit else _target_cell(branch)
            if k >= 0:
                push(branch, prefix | low, k, inherit or _is_twin_cell(adj, branch[k]))
                continue
            moved = 0  # the points the leaf's new automorphisms move
            if first is None:
                first = branch
                if sizes is not None:
                    sizes.extend(node[0][node[2]].bit_count() for node in stack)
                yield branch
            else:
                images = _leaf_map(first, branch)
                for a, b in zip(first, branch):
                    if a != b:
                        moved |= a
                if _maps_edges(g, g, images, moved):
                    found.append(Perm(images))
                    support.append(moved)
                else:
                    moved = 0
                    yield branch
            while len(support) < len(found):
                support.append(_support(found[len(support)]))
                moved |= support[-1]
            for i, other in enumerate(stack):
                if other[5] & moved:
                    del stack[i + 1:]
                    break

    if not refine_node(cells, deque(cells), None, 0):
        return None
    return walk(cells, harvest, seeds)


def _leaf_map(leaf_a, leaf_b):
    """The cell-by-cell map from one discrete partition onto another, as a
    tuple of images."""
    images = [0] * len(leaf_a)
    for cell_a, cell_b in zip(leaf_a, leaf_b):
        images[cell_a.bit_length() - 1] = cell_b.bit_length() - 1
    return tuple(images)


def _initial_cells(g, colors):
    if colors is None:
        return [(1 << g.n) - 1]
    if not isinstance(colors, ColoredPartition):
        colors = ColoredPartition.from_cells(g.n, colors)
    elif colors.n != g.n:
        raise ValueError(f"partition covers {colors.n} vertices, graph has {g.n}")
    return [sum(1 << v for v in members) for members in colors.cells]


def color_refinement(g: Graph, initial: ColoredPartition | None = None) -> ColoredPartition:
    """Coarsest equitable refinement of the initial colouring.

    Two vertices stay in one cell exactly when no chain of neighbour-count
    distinctions separates them; the refinement invariant is the multiset
    of neighbour colours, nothing stronger.
    """
    cells = _initial_cells(g, initial)
    _refine(g.adj, cells, deque(cells))
    return ColoredPartition.from_cells(g.n, [tuple(bits(cell)) for cell in cells])


def check_automorphism(g: Graph, p: Perm) -> bool:
    """True exactly when p maps edges to edges and non-edges to non-edges.

    Only the rows of the points p moves are read: adjacency is symmetric,
    so an edge with a moved end is checked from that end, and an edge
    between two fixed points is its own image.
    """
    if p.degree != g.n:
        raise ValueError(f"permutation degree {p.degree} != vertex count {g.n}")
    return _maps_edges(g, g, p.images, _support(p))


def verify_isomorphism(g: Graph, h: Graph, p: Perm) -> bool:
    """True exactly when p maps g onto h edge for edge."""
    if g.n != h.n or p.degree != g.n:
        return False
    return _maps_edges(g, h, p.images, (1 << g.n) - 1)


# g's instance dict entry: (group, marshalled first path, first leaf,
# whether the tree is one orbit)
_RECORD = "_aut_search"
# g's instance dict entry: (group, q, leaf), the recorded group of another
# graph, the images of an isomorphism q from that graph onto g, and g's
# first leaf when the tree is one orbit, else None
_LENT = "_lent_group"


def automorphism_group(g: Graph, colors=None, cap: int | None = None, *, deadline=None) -> PermGroup:
    """The automorphism group of g, optionally restricted to colour-preserving
    permutations when an initial colouring is given.

    Each generator is checked, on the rows of the points it moves, where
    the search finds it.  The stabilizer chain is seeded from the search's
    first path, so ``base`` lists first-path vertices and no Schreier-Sims
    pass runs.

    Past ``deadline``, a ``time.monotonic()`` instant checked at every
    search node, TimeLimitExceeded is raised; None means no limit.

    With no colouring, a completed search is recorded on g (its group,
    first path and first leaf; see the module docstring), and a later call
    returns the recorded group with no search, so no node checks the
    deadline.  The record also holds whether the tree is one orbit, which
    costs one comparison: the group's order, a product of one orbit length
    per first-path level, against the product of the first path's target
    cell sizes.  Each orbit lies in its cell, so the two agree exactly
    when every orbit is its whole cell.  A twin cell qualifies, as its
    transpositions generate its symmetric group.  A search stopped by its
    deadline records nothing.  The record lives in g's instance dict,
    outside its fields, and pickles and copies leave it out.
    It lives as long as g does, and its path, which keeps the refinement
    trace of every first-path node as ``marshal`` bytes, can outweigh
    g's adjacency rows several times over: about 80 KB for J(10,4)'s 210
    vertices and 0.57 MB for J(12,6)'s 924 (64-bit CPython).
    """
    _check_cap(g.n, cap)
    if colors is None and _RECORD in vars(g):
        return vars(g)[_RECORD][0]
    path, found, sizes = [], [], []
    leaves = _leaves(g, _initial_cells(g, colors), path, found, deadline, sizes=sizes)
    leaf = next(leaves)
    deque(leaves, maxlen=0)
    group = PermGroup(found, g.n, base=tuple(v for v, _ in path[1:]))
    if colors is None:
        vars(g)[_RECORD] = (group, marshal.dumps(path), leaf, group.order == prod(sizes))
    return group


def find_isomorphism(g: Graph, h: Graph, cap: int | None = None, *, deadline=None):
    """An isomorphism from g onto h as a Perm, or None.

    The witness is accepted by verify_isomorphism, edge for edge, where the
    search finds it.  The walk over h follows g's first path from the
    root, so a root trace that differs ends the search before either
    graph is descended.  Once the walk has refined more nodes than h has
    vertices, it computes
    automorphism_group(h) once and prunes by the orbits of its
    generators, so a walk that meets no leaf of h matching g's path is
    pruned too.  ``deadline`` is checked at every search node as in
    automorphism_group, the harvest's included.

    When an uncoloured automorphism_group(g) has completed, g is not
    walked: its recorded first leaf and a fresh load of its recorded
    path stand in for the walk, and the harvest returns h's recorded group when h
    has one.  Either way the witness is the same.  A harvest that searches
    h records that search on h, as automorphism_group does, so h keeps it
    for as long as h lives.

    When a witness p is found and exactly one of g and h has a record,
    that group is lent to the other graph with the isomorphism from the
    group's graph onto it (p, or p's inverse), and the borrower keeps
    them as long as it lives, outside its record, and out of pickles and
    copies.  Only canonical_form reads them, through _known_generators,
    which conjugates the generators when a canonical walk uses them;
    nothing is conjugated here.  When the record shows a one-orbit tree,
    a property isomorphic graphs share, the borrower's first leaf goes
    with the group: g's own, or the leaf of h that gave p when it was the
    first the walk of h yielded.  No leaf of h along g's path is pruned
    then, so that one is h's first leaf in depth-first order.
    """
    _check_cap(g.n, cap)
    _check_cap(h.n, cap)
    # an edgeless graph's uniform cell meets no splitter's neighbourhood,
    # so its trace is empty whatever its size: compare vertex counts here
    if g.n != h.n:
        return None
    record = vars(g).get(_RECORD)
    if record is None:
        path = []
        leaves = _leaves(g, [(1 << g.n) - 1], path, deadline=deadline)
    else:
        # a fresh list, so that the walk over h never writes to the record
        path, leaves = marshal.loads(record[1]), iter([record[2]])
    harvest = lambda: automorphism_group(h, deadline=deadline).generators
    others = _leaves(h, [(1 << h.n) - 1], path, deadline=deadline, harvest=harvest)
    if others is None:
        # h's root trace differs from g's: no descent of either graph runs
        return None
    leaf = next(leaves)
    for yielded, other in enumerate(others):
        p = Perm(_leaf_map(leaf, other))
        if verify_isomorphism(g, h, p):
            record_g, record_h = vars(g).get(_RECORD), vars(h).get(_RECORD)
            if record_h is None and record_g is not None:
                first = other if record_g[3] and not yielded else None
                vars(h)[_LENT] = (record_g[0], p.images, first)
            elif record_g is None and record_h is not None:
                vars(g)[_LENT] = (record_h[0], _inv(p.images), leaf if record_h[3] else None)
            return p
    return None


def _known_generators(g):
    """The generators of a group already known for g: its record's, or else
    those of a lent group carried across its map q onto g (each a becomes
    b with b[q[i]] = q[a[i]]), or else none."""
    record, lent = vars(g).get(_RECORD), vars(g).get(_LENT)
    if record is not None:
        return record[0].generators
    if lent is None:
        return ()
    group, q, _ = lent
    r = _inv(q)
    return [Perm(_mul(q, _mul(a.images, r))) for a in group.generators]


def _one_orbit_leaf(g):
    """g's first leaf when its search tree is known to be one orbit, by
    its record or by a leaf lent with a group; else None."""
    record, lent = vars(g).get(_RECORD), vars(g).get(_LENT)
    if record is not None:
        return record[2] if record[3] else None
    return None if lent is None else lent[2]


class CanonicalForm(_Value):
    """Canonical relabelling of a graph.

    ``ordering[i]`` is the original vertex placed at canonical index i and
    ``edges`` is the relabelled edge list, sorted.  Two graphs are
    isomorphic exactly when their canonical forms compare equal, which
    compares vertex count and edges, not the ordering witness.
    """

    __match_args__ = ("n", "ordering", "edges")
    _key = attrgetter("n", "edges")

    def __init__(self, n: int, ordering, edges):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ordering", tuple(ordering))
        object.__setattr__(self, "edges", tuple(edges))

    def graph(self) -> Graph:
        return Graph.from_edges(self.n, self.edges)

    def __repr__(self):
        return f"CanonicalForm(n={self.n}, edges={len(self.edges)})"


def canonical_form(g: Graph, cap: int | None = None, *, deadline=None) -> CanonicalForm:
    """Deterministic canonical labelling via the pruned leaf minimum.

    All leaves of the individualization-refinement tree are compared by
    their relabelled adjacency rows and the minimum wins.  One ``_leaves``
    walk prunes by the automorphisms it finds from its first leaf and by
    the map between any two leaves with equal rows; pruned subtrees only
    repeat leaf values already seen, so the minimum is unaffected and
    isomorphic graphs agree on it.  ``deadline`` is checked at every
    search node as in automorphism_group.

    A group already known for g (``_known_generators``) prunes the walk
    by orbits too.  It joins at the walk's first orbit-pruning pass, so a
    walk with none reads nothing of it.  The form, ordering included, is
    the one a walk with no such group gives: it is the first leaf in
    depth-first order with the least relabelled adjacency, and every leaf
    that orbit pruning skips is the image of an earlier leaf with the same
    adjacency, so that first leaf is never skipped.

    When g's record, or the leaf lent with its group, shows the tree to be
    one orbit, g is not walked and no deadline is checked: the form is
    its first leaf's.  By induction down the first path, every node is
    the image of the first-path node at its level, as the automorphisms
    fixing that node's prefix carry its first child onto every child.  So
    every leaf is an image of the first and has its relabelled adjacency.
    """
    _check_cap(g.n, cap)
    n, nbrs = g.n, g.nbrs
    known = []
    best_key = best_order = best_position = None
    first = _one_orbit_leaf(g)
    if first is not None:
        leaves = (first,)
    else:
        leaves = _leaves(g, [(1 << n) - 1], None, known, deadline,
                         seeds=lambda: _known_generators(g))
    for leaf in leaves:
        # the leaf is a bijection, so the table of _maps_edges applies
        order = [cell.bit_length() - 1 for cell in leaf]
        position = _inv(order)
        get = [1 << i for i in position].__getitem__
        key = tuple(sum(map(get, nbrs[v])) for v in order)
        if best_key is None or key < best_key:
            best_key, best_order, best_position = key, order, position
        elif key == best_key:
            # equal relabelled adjacency: the map between the leaves is an automorphism
            known.append(Perm(_mul(order, best_position)))
    return CanonicalForm(n, best_order, _edge_list(best_key))
