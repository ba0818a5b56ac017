"""Permutations as image tuples, exact permutation groups via a
stabilizer chain (deterministic Schreier-Sims, or seeded from a known
base and strong generating set, with coset representatives built only
for membership), and a brute-force automorphism oracle for small graphs.

Composition convention, frozen package-wide: ``compose(p, q)`` applies q
first, so ``compose(p, q)[i] == p[q[i]]``.  Getting this backwards is the
classic silent bug, hence the explicit function instead of an operator.
"""

from __future__ import annotations

from copy import copy
from functools import cached_property
from math import factorial
from operator import attrgetter

from .graphs import Graph, bits
from .subsets import _Value

BRUTE_FORCE_LIMIT = 10


class Perm(_Value):
    """A permutation of 0..degree-1 stored as its image tuple."""

    __match_args__ = ("images",)
    _key = attrgetter("images")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for i in images:
            if type(i) is not int or not 0 <= i < n or seen[i]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
            seen[i] = True
        object.__setattr__(self, "images", images)

    def __hash__(self):
        # a key of one field is no tuple; hash the one-tuple, as a key of
        # two or more fields hashes its tuple
        return hash((self.images,))

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, *cycles) -> "Perm":
        """Build from 0-based cycles, e.g. ``from_cycles(4, (0, 1), (2, 3))``."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for point in cycle:
                if not 0 <= point < degree:
                    raise ValueError(f"cycle point {point} outside 0..{degree - 1}")
                if point in seen:
                    raise ValueError(f"point {point} repeated across cycles")
                seen.add(point)
            for i, point in enumerate(cycle):
                images[point] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int) -> "Perm":
        """Parse disjoint cycle notation as produced by cycle_string."""
        s = text.strip()
        if s == "()":
            return cls.identity(degree)
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"malformed cycle text {text!r}")
        cycles = []
        for chunk in s[1:-1].split(")("):
            parts = chunk.split()
            if not parts:
                raise ValueError(f"empty cycle in {text!r}")
            try:
                cycles.append(tuple(int(p) for p in parts))
            except ValueError:
                raise ValueError(f"malformed cycle text {text!r}") from None
        return cls.from_cycles(degree, *cycles)

    def __getitem__(self, i: int) -> int:
        return self.images[i]

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def cycle_string(self) -> str:
        """Disjoint cycles on 0-based points, fixed points omitted.

        Cycles are ordered by smallest member and each starts at its
        smallest member; the identity prints as ``()``.
        """
        seen = set()
        parts = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            point = self.images[start]
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = self.images[point]
            parts.append("(" + " ".join(str(p) for p in cycle) + ")")
        return "".join(parts) if parts else "()"

    def __repr__(self) -> str:
        return f"Perm({self.cycle_string()!r}, degree={self.degree})"


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: the result maps i to p[q[i]]."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Perm(_mul(p.images, q.images))


def inverse(p: Perm) -> Perm:
    return Perm(_inv(p.images))


# Internal raw-tuple arithmetic.  The stabilizer chain works on plain image
# tuples to keep the inner loops cheap; Perm wraps them at the boundary.

def _mul(p, q):
    return tuple(map(p.__getitem__, q))


def _inv(p):
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def _orbit_mask(gens, start, until=None):
    """Orbit of a point set under image tuples, both as bit masks.

    Given a mask ``until``, the closure stops as soon as it holds every
    point of it: the mask returned then holds ``start`` and meets
    ``until`` exactly where the whole orbit does."""
    seen = start
    queue = list(bits(start))
    while queue:
        p = queue.pop()
        for g in gens:
            q = g[p]
            if not (seen >> q) & 1:
                seen |= 1 << q
                queue.append(q)
        if until is not None and not until & ~seen:
            break
    return seen


class _Level:
    __slots__ = ("point", "gens", "trans", "done")

    def __init__(self, point, identity):
        self.point = point
        self.gens = []
        self.trans = {point: identity}
        self.done = set()


def _sift(levels, g, start):
    """Strip g through the chain from the given level.

    Returns (residue, level index).  The residue fixes the base points of
    all levels before the returned index; it is the identity exactly when
    g is a member of the group generated so far below ``start``.
    """
    i = start
    while i < len(levels):
        level = levels[i]
        image = g[level.point]
        if image != level.point:
            rep = level.trans.get(image)
            if rep is None:
                return g, i
            g = _mul(_inv(rep), g)
        i += 1
    return g, len(levels)


class PermGroup(_Value):
    """Exact permutation group built from generators.

    Without ``base`` the constructor runs a deterministic Schreier-Sims
    pass: base points are the smallest points moved at each level, orbits
    are closed in ascending point order, and generators are processed in
    input order, so the base, the strong generators and the transversals
    are reproducible.  The pass stops once the partial chain has n - 1
    levels and its order is n!, the largest of degree n.  That is exact:
    the order of a partial chain is at most that of the group its
    generators generate, so reaching n! proves the group is Sym(n) and the
    chain complete, and no Schreier generator left unsifted can add a
    generator.

    With ``base`` the generators must already form a strong generating
    set relative to it: for every i, those that fix ``base[:i]``
    pointwise generate the pointwise stabilizer of ``base[:i]``, and only
    the identity fixes every base point.  Each generator joins the level
    of the first base point it moves (a generator that moves none raises
    ValueError), and levels without a generator are dropped.  No Schreier
    generator is sifted, so a set that is not strong gives a wrong
    ``order``.  An individualization-refinement search yields such a set
    relative to the vertices it individualizes along its first path.

    ``order`` is an exact Python int, the product over levels of the orbit
    size of the level's point under the generators of that level and deeper
    ones.  Those orbits come from one union-find over the points, grown
    deepest level first by every point each generator moves, so the order
    costs one pass over the generators.  ``orbits()`` closes each orbit of
    the group once.  ``contains`` and ``elements`` build the coset
    representatives once, on first use.
    """

    __match_args__ = ("degree", "generators", "base", "order", "_levels", "_identity")
    __eq__, __hash__ = object.__eq__, object.__hash__  # a group compares by identity

    def __init__(self, generators, degree: int, *, base=None):
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, Perm):
                raise ValueError("generators must be Perm instances")
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        identity = tuple(range(degree))
        if base is None:
            levels = _schreier_sims(generators, identity)
        else:
            levels = _seeded_chain(generators, tuple(base), identity)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "base", tuple(level.point for level in levels))
        object.__setattr__(self, "order", _chain_order(levels, degree))
        object.__setattr__(self, "_levels", tuple(levels))
        object.__setattr__(self, "_identity", identity)

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        residue, _ = _sift(self._transversals, p.images, 0)
        return residue == self._identity

    def orbit(self, point: int) -> frozenset[int]:
        """Orbit of a point under the whole group."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} outside 0..{self.degree - 1}")
        gens = [g.images for g in self.generators]
        return frozenset(bits(_orbit_mask(gens, 1 << point)))

    def orbits(self) -> tuple[frozenset[int], ...]:
        """Every orbit of the group, ordered by smallest member."""
        gens = [g.images for g in self.generators]
        masks, left = [], (1 << self.degree) - 1
        while left:
            masks.append(_orbit_mask(gens, left & -left))
            left &= ~masks[-1]
        return tuple(frozenset(bits(mask)) for mask in masks)

    @property
    def base_stabilizer_generators(self) -> tuple[Perm, ...]:
        """Strong generators below the first level of the chain.

        They generate the stabilizer of ``base[0]``; the tuple is empty
        for the trivial group and whenever that stabilizer is trivial.
        """
        return tuple(Perm(g) for level in self._levels[1:] for g in level.gens)

    @cached_property
    def _transversals(self):
        """The chain with every level's transversal closed, built on first use."""
        levels = [copy(level) for level in self._levels]
        for i, level in enumerate(levels):
            level.trans = dict(level.trans)  # concurrent first calls never share a half-closed level
            _close_orbit(levels, i)  # writes level i's trans alone
        return levels

    def elements(self):
        """Yield every element exactly once (use only for small orders)."""

        def rec(i):
            if i == len(self._levels):
                yield self._identity
                return
            level = self._transversals[i]
            for point in sorted(level.trans):
                rep = level.trans[point]
                for tail in rec(i + 1):
                    yield _mul(rep, tail)

        for images in rec(0):
            yield Perm(images)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _chain_order(levels, degree):
    """The product over levels of the orbit size of the level's point
    under the generators of that level and deeper ones.

    The orbits are the components of a union-find over the points: going
    deepest level first, each generator unites every point it moves with
    its image, so the whole chain costs one pass over its generators.
    """
    parent = list(range(degree))
    size = [1] * degree

    def root(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    order = 1
    for level in reversed(levels):
        for g in level.gens:
            for p in [p for p, q in enumerate(g) if p != q]:
                a, b = root(p), root(g[p])
                if a != b:
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
        order *= size[root(level.point)]
    return order


def _schreier_sims(generators, identity):
    n = len(identity)
    levels = []
    for g in generators:
        residue, stuck = _sift(levels, g.images, 0)
        if residue != identity:
            _place(levels, residue, stuck, identity)
    i = len(levels) - 1
    # the partial chain's order is at most that of the group, so once it
    # reaches n! the group is Sym(n) and no Schreier generator is left over
    while i >= 0 and not (len(levels) == n - 1 and _chain_order(levels, n) == factorial(n)):
        jumped = _process_level(levels, i, identity)
        i = i - 1 if jumped is None else jumped
    return levels


def _seeded_chain(generators, base, identity):
    """The chain of a strong generating set relative to ``base``."""
    n = len(identity)
    if len(set(base)) != len(base) or not all(type(b) is int and 0 <= b < n for b in base):
        raise ValueError(f"base must list distinct points of 0..{n - 1}: {base}")
    levels = [_Level(b, identity) for b in base]
    for g in generators:
        i = next((i for i, b in enumerate(base) if g.images[b] != b), None)
        if i is None:
            raise ValueError(f"generator {g.cycle_string()} fixes every base point")
        levels[i].gens.append(g.images)
    return [level for level in levels if level.gens]


def _place(levels, residue, index, identity):
    if index == len(levels):
        point = next(p for p, image in enumerate(residue) if image != p)
        levels.append(_Level(point, identity))
    levels[index].gens.append(residue)


def _close_orbit(levels, i):
    """Extend level i's transversal to the orbit of its point under the
    generators of level i and deeper ones; returns those generators."""
    level = levels[i]
    gens_here = [g for j in range(i, len(levels)) for g in levels[j].gens]
    frontier = sorted(level.trans)
    while frontier:
        nxt = []
        for p in frontier:
            rep = level.trans[p]
            for g in gens_here:
                q = g[p]
                if q not in level.trans:
                    level.trans[q] = _mul(g, rep)
                    nxt.append(q)
        frontier = sorted(nxt)
    return gens_here


def _process_level(levels, i, identity):
    """Close level i: extend its transversal, then sift Schreier generators.

    Returns None once every Schreier generator of the level sifts to the
    identity, or the deeper level index where a non-trivial residue was
    placed (the caller resumes work there).  Transversal entries are never
    rewritten, so each (point, generator) pair is examined once.
    """
    level = levels[i]
    gens_here = _close_orbit(levels, i)
    for p in sorted(level.trans):
        rep = level.trans[p]
        for g in gens_here:
            key = (p, g)
            if key in level.done:
                continue
            level.done.add(key)
            schreier = _mul(_inv(level.trans[g[p]]), _mul(g, rep))
            if schreier == identity:
                continue
            residue, stuck = _sift(levels, schreier, i + 1)
            if residue != identity:
                _place(levels, residue, stuck, identity)
                return stuck
    return None


def group_from_generators(generators, degree: int) -> PermGroup:
    """Group generated by the given permutations; empty input gives order 1."""
    return PermGroup(generators, degree)


def brute_force_automorphisms(g: Graph) -> list[Perm]:
    """Every automorphism of g by exhaustive assignment with pruning.

    Candidates are filtered by degree and by adjacency against all already
    placed vertices, which keeps the tiny instances this oracle is meant
    for tractable.  Hard limit of 10 vertices; this is the independent
    check for the search module, not a general tool.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force oracle is limited to {BRUTE_FORCE_LIMIT} vertices")
    n = g.n
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    found = []
    images = [0] * n
    used = [False] * n

    def extend(v):
        if v == n:
            found.append(Perm(tuple(images)))
            return
        row = adj[v]
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            ok = True
            for u in range(v):
                if ((row >> u) & 1) != ((adj[w] >> images[u]) & 1):
                    ok = False
                    break
            if ok:
                images[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False

    extend(0)
    return found
