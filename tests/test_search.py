import copy
import marshal
import math
import pickle
import random
import sys
import time
import tracemalloc
from collections import deque
from itertools import combinations, permutations
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from jgraphs import (
    CanonicalForm,
    ColoredPartition,
    Graph,
    Perm,
    PermGroup,
    TimeLimitExceeded,
    automorphism_group,
    brute_force_automorphisms,
    canonical_form,
    check_automorphism,
    color_refinement,
    complement,
    complete_bipartite,
    complete_graph,
    compose,
    find_isomorphism,
    group_from_generators,
    induced_action,
    johnson_graph,
    kneser_graph,
    line_graph,
    verify_isomorphism,
)
import jgraphs.perms
import jgraphs.search
from jgraphs.graphs import bits
from jgraphs.perms import BRUTE_FORCE_LIMIT

from conftest import build_corpus, count_calls


def relabel(g: Graph, p: Perm) -> Graph:
    return Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])


def random_graph(rng: random.Random, n: int, density: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


def draw_graph(data, n: int) -> Graph:
    """A hypothesis-drawn graph on n vertices, one coin per vertex pair."""
    pairs = list(combinations(range(n), 2))
    chosen = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])


def shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1), +-(1,1): SRG(16,6,2,2)."""
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = {
        tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
        for a in range(4) for b in range(4) for da, db in steps
    }
    return Graph.from_edges(16, sorted(edges))


def chang() -> Graph:
    """Seidel switch of L(K8) on the vertices of a perfect matching of K8:
    SRG(28,12,6,4), like L(K8), with a group of order 384."""
    lk8, edge_of = line_graph(complete_graph(8))
    switch = {edge_of.index(e) for e in [(0, 1), (2, 3), (4, 5), (6, 7)]}
    edges = set(lk8.edges())
    for u in switch:
        for v in set(range(lk8.n)) - switch:
            edges ^= {(min(u, v), max(u, v))}
    return Graph.from_edges(28, sorted(edges))


def cfi_k4(twisted: bool) -> Graph:
    """Cai-Fuerer-Immerman graph over K4: 40 vertices, 3-regular.

    Each base vertex x becomes four middle vertices, one per even subset S
    of its three edges, and a pair a(x, e, 0), a(x, e, 1) per edge e; the
    middle vertex S is joined to a(x, e, [e in S]).  Base edge {x, y}
    joins a(x, e, i) to a(y, e, i), except on the twisted edge, where it
    joins a(x, e, i) to a(y, e, 1 - i).
    """
    base = list(combinations(range(4), 2))
    ids: dict = {}

    def vertex(key):
        return ids.setdefault(key, len(ids))

    edges = []
    for x in range(4):
        incident = [e for e, pair in enumerate(base) if x in pair]
        for subset in [(), *combinations(incident, 2)]:
            middle = vertex(("middle", x, subset))
            for e in incident:
                edges.append((middle, vertex(("a", x, e, int(e in subset)))))
    for e, (x, y) in enumerate(base):
        flip = int(twisted and e == 0)
        for i in (0, 1):
            edges.append((vertex(("a", x, e, i)), vertex(("a", y, e, i ^ flip))))
    return Graph.from_edges(40, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph.from_edges(a.n + b.n, list(a.edges()) + shifted)


def cycle_union(sizes) -> Graph:
    """Disjoint cycles of the given lengths, in order."""
    edges, start = [], 0
    for k in sizes:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return Graph.from_edges(start, edges)


def circulant(n: int, jumps) -> Graph:
    """Vertex i joined to i + j mod n for every jump j."""
    return Graph.from_edges(n, sorted({
        (min(i, (i + j) % n), max(i, (i + j) % n)) for i in range(n) for j in jumps
        if (i + j) % n != i
    }))


def srg_unions() -> tuple[Graph, Graph]:
    """Shrikhande + L(K4,4) and Shrikhande + Shrikhande: non-isomorphic,
    with components that colour refinement cannot tell apart."""
    sh = shrikhande()
    return (
        disjoint_union(sh, line_graph(complete_bipartite(4, 4))[0]),
        disjoint_union(sh, sh),
    )


def paley(p: int) -> Graph:
    """Paley graph on Z_p, p = 1 mod 4 prime: x ~ y when x - y is a
    non-zero square.  Self-complementary, with a group of order p(p-1)/2."""
    squares = {x * x % p for x in range(1, p)}
    return Graph.from_edges(
        p, [(a, b) for a, b in combinations(range(p), 2) if (b - a) % p in squares]
    )


def networkx_graph(g: Graph):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def networkx_aut_order(g: Graph) -> int:
    """|Aut(g)| from networkx by orbit-stabilizer: the orbit of each vertex
    under the automorphisms fixing the earlier ones is counted with one
    node-coloured isomorphism test per candidate image, then the vertex
    gets a colour of its own.  Unequal Weisfeiler-Lehman hashes rule a
    candidate out first: VF2 can take exponential time to refute a
    candidate among large classes of twins."""
    nx = pytest.importorskip("networkx")
    G = networkx_graph(g)
    same = nx.algorithms.isomorphism.categorical_node_match("c", None)
    wl = lambda G: nx.weisfeiler_lehman_graph_hash(G, node_attr="c", iterations=g.n)
    colour = dict.fromkeys(range(g.n), 0)
    order = 1
    for v in range(g.n):
        nx.set_node_attributes(G, {**colour, v: -1}, "c")
        orbit = 0
        for w in range(g.n):
            if colour[w] == colour[v]:
                H = G.copy()
                nx.set_node_attributes(H, {**colour, w: -1}, "c")
                orbit += wl(G) == wl(H) and nx.is_isomorphic(G, H, node_match=same)
        order *= orbit
        colour[v] = v + 1
    return order


class TestColoredPartition:
    def test_from_cells_normalizes_order(self):
        # cells are presented by (size, smallest member)
        p = ColoredPartition.from_cells(5, [[3, 4], [0], [1, 2]])
        assert p.cells == ((0,), (1, 2), (3, 4))

    def test_uniform(self):
        p = ColoredPartition.uniform(4)
        assert p.cells == ((0, 1, 2, 3),)
        assert any(len(cell) > 1 for cell in p.cells)

    def test_discrete(self):
        p = ColoredPartition.from_cells(3, [[2], [0], [1]])
        assert all(len(cell) == 1 for cell in p.cells)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            ColoredPartition.from_cells(3, [[0, 1]])
        with pytest.raises(ValueError):
            ColoredPartition.from_cells(3, [[0, 1], [1, 2]])

    def test_rejects_a_colour_per_vertex(self):
        # colours are given as cells; [0, 1] reads as two cells that are not iterable
        with pytest.raises(ValueError, match="cells, iterables of vertices"):
            automorphism_group(complete_graph(2), colors=[0, 1])
        with pytest.raises(ValueError, match="cells, iterables of vertices"):
            ColoredPartition.from_cells(3, [[0, 1], 2])

    @pytest.mark.parametrize("bad", ["3", 3.0, None])
    def test_rejects_a_vertex_that_is_no_int(self, bad):
        with pytest.raises(ValueError, match=f"vertices are ints, not {bad!r}"):
            automorphism_group(complete_graph(4), colors=[[0, 1], [2, bad]])
        # True equals 1 but names no vertex
        with pytest.raises(ValueError, match="vertices are ints, not True"):
            ColoredPartition.from_cells(3, [[0, 2], [True]])

    def test_color_lookup(self):
        p = ColoredPartition.from_cells(4, [[0, 1], [2, 3]])
        assert p.color[0] == p.color[1]
        assert p.color[0] != p.color[2]


class TestColorRefinement:
    def test_regular_graph_stays_uniform(self):
        refined = color_refinement(johnson_graph(5, 2))
        assert len(refined.cells) == 1

    def test_path_splits_by_eccentricity(self):
        refined = color_refinement(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert refined.cells == ((1,), (0, 2))

    def test_refinement_is_equitable(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, 9, 0.4)
            refined = color_refinement(g)
            for cell in refined.cells:
                for other in refined.cells:
                    counts = {
                        len(g.neighbors(v) & set(other)) for v in cell
                    }
                    assert len(counts) == 1

    def test_initial_colors_respected(self):
        g = complete_graph(4)
        init = ColoredPartition.from_cells(4, [[0], [1, 2, 3]])
        refined = color_refinement(g, init)
        assert refined.cells[0] == (0,)


class TestRefinementTrace:
    """Trace pruning compares refinement traces: relabelling keeps a
    trace, and equal traces give equal cell shapes."""

    @staticmethod
    def cells_of(colour, images=None):
        """Cell masks of a colouring in colour-id order, each vertex v
        placed at images[v]."""
        cells = {}
        for v, c in enumerate(colour):
            w = v if images is None else images[v]
            cells[c] = cells.get(c, 0) | 1 << w
        return [cells[c] for c in sorted(cells)]

    @staticmethod
    def refine(g, cells, expect=None):
        """Refine cells in place; the trace, or the verdict against expect."""
        trace = [] if expect is None else None
        verdict = jgraphs.search._refine(g.adj, cells, deque(cells), trace, expect)
        return trace if expect is None else verdict

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_relabelling_keeps_the_trace(self, data):
        n = data.draw(st.integers(1, 8))
        g = draw_graph(data, n)
        colour = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        images = data.draw(st.permutations(range(n)))
        cells = self.cells_of(colour)
        trace = self.refine(g, cells)
        moved = self.cells_of(colour, images)
        assert self.refine(relabel(g, Perm(images)), moved) == trace
        assert moved == [sum(1 << images[v] for v in bits(cell)) for cell in cells]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equal_traces_give_equal_cell_shapes(self, data):
        n = data.draw(st.integers(1, 8))
        g = draw_graph(data, n)
        colour = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        cells = self.cells_of(colour)
        trace = self.refine(g, cells)
        # h: any graph, or a relabelled g with up to two edges toggled, so
        # that its trace often agrees with g's for a while
        images = list(range(n))
        if data.draw(st.booleans()):
            h = draw_graph(data, n)
        else:
            edges = set(g.edges())
            pairs = list(combinations(range(n), 2))
            if pairs:
                edges ^= set(data.draw(st.lists(st.sampled_from(pairs), max_size=2)))
            images = data.draw(st.permutations(range(n)))
            h = relabel(Graph.from_edges(n, sorted(edges)), Perm(images))
        cells_h = self.cells_of(colour, images)
        if self.refine(h, cells_h, expect=trace):
            assert [c.bit_count() for c in cells_h] == [c.bit_count() for c in cells]

    def test_positions_tell_apart_equal_signatures_of_other_cells(self):
        # cells {0, 2}, {1}, {3, 4}: the splitter {1} splits the first cell
        # of g and the last cell of h with one signature; only the position
        # of the tested cell tells the traces apart
        g, h = Graph.from_edges(5, [(0, 1)]), Graph.from_edges(5, [(1, 3)])
        colour = [0, 1, 0, 2, 2]
        trace_g = self.refine(g, self.cells_of(colour))
        trace_h = self.refine(h, self.cells_of(colour))
        assert [pairs for _, pairs in trace_g] == [pairs for _, pairs in trace_h]
        assert trace_g != trace_h
        assert not self.refine(h, self.cells_of(colour), expect=trace_g)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rest_of_an_individualized_cell_splits_nothing(self, data):
        # the search queues only {u} after individualizing u: in an
        # equitable partition the rest of u's cell cannot split anything
        n = data.draw(st.integers(2, 9))
        g = draw_graph(data, n)
        cells = self.cells_of(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        self.refine(g, cells)
        targets = [k for k, cell in enumerate(cells) if cell & (cell - 1)]
        if not targets:
            return
        k = data.draw(st.sampled_from(targets))
        u = data.draw(st.sampled_from(list(bits(cells[k]))))
        low, rest = 1 << u, cells[k] ^ 1 << u
        outcomes = []
        for queued in ([low, rest], [low]):
            branch = list(cells)
            branch[k:k + 1] = low, rest
            jgraphs.search._refine(g.adj, branch, deque(queued))
            outcomes.append(branch)
        assert outcomes[0] == outcomes[1]

    @staticmethod
    def reference_refine(adj, cells, queue, trace=None, expect=None):
        """The kernel's contract by the per-vertex counting rule: each
        non-singleton cell that holds a neighbour of the splitter is tested
        in position order, every member counts its neighbours in the
        splitter one vertex at a time, and the fragments take the cell's
        place in ascending count order."""
        sigs = []
        while queue and any(cell & (cell - 1) for cell in cells):
            splitter = queue.popleft()
            reach = 0
            for v in bits(splitter):
                reach |= adj[v]
            k = 0
            while k < len(cells):
                cell = cells[k]
                if not (cell & (cell - 1) and cell & reach):
                    k += 1
                    continue
                groups = {}
                for v in bits(cell):
                    c = (adj[v] & splitter).bit_count()
                    groups[c] = groups.get(c, 0) | 1 << v
                counts = sorted(groups)
                sigs.append((k, [(c, groups[c].bit_count()) for c in counts]))
                if expect is not None and (
                    len(sigs) > len(expect) or expect[len(sigs) - 1] != sigs[-1]
                ):
                    return False
                frags = [groups[c] for c in counts]
                cells[k:k + 1] = frags
                if len(frags) > 1:
                    queue.extend(frags)
                k += len(frags)
        if trace is not None:
            trace.extend(sigs)
        return expect is None or sigs == expect

    def assert_kernel_matches_reference(self, adj, cells, queue, altered=None):
        """The kernel and the reference agree on the cells, the trace and
        the verdict, plainly, with a trace, against the reference's trace
        and against that trace with the signature at ``altered`` changed."""
        kernel = jgraphs.search._refine
        want = list(cells)
        trace = []
        assert self.reference_refine(adj, want, deque(queue), trace)
        for keep in (None, []):
            got = list(cells)
            assert kernel(adj, got, deque(queue), keep)
            assert got == want
            assert keep is None or keep == trace
        expects = [trace, trace + [(0, [(0, 1)])]]
        if altered is not None and trace:
            i = altered % len(trace)
            k, pairs = trace[i]
            expects += [
                trace[:i] + [(k + 1, pairs)] + trace[i + 1:],
                trace[:i] + [(k, pairs[:-1] + [(pairs[-1][0] + 1, pairs[-1][1])])] + trace[i + 1:],
                trace[:i],
            ]
        for expect in expects:
            want, got = list(cells), list(cells)
            verdict = self.reference_refine(adj, want, deque(queue), expect=expect)
            assert kernel(adj, got, deque(queue), expect=expect) is verdict
            assert got == want
            assert verdict is (expect == trace)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kernel_matches_per_vertex_counting(self, data):
        # splitters of every size up to the whole vertex set, on graphs
        # dense enough that counts reach 8 and the carries a fourth plane
        n = data.draw(st.integers(1, 12))
        density = data.draw(st.sampled_from([0.2, 0.5, 0.9]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        g = random_graph(rng, n, density)
        cells = self.cells_of(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        queue = []
        for size in data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6)):
            queue.append(sum(1 << v for v in data.draw(st.permutations(range(n)))[:size]))
        if data.draw(st.booleans()):
            queue += cells
        self.assert_kernel_matches_reference(
            g.adj, cells, queue, altered=data.draw(st.integers(0, 100))
        )

    def test_counts_of_eight_and_more(self):
        # K12 less the edges 0-1, 0-2, 0-3 and 4-5: with every vertex as the
        # splitter, the counts are the degrees 8, 10 and 11, which need the
        # fourth plane; K12 itself gives count 11 to all, and does not split
        g = Graph.from_edges(12, [
            e for e in combinations(range(12), 2) if e not in {(0, 1), (0, 2), (0, 3), (4, 5)}
        ])
        full = (1 << 12) - 1
        trace = []
        cells = [full]
        jgraphs.search._refine(g.adj, cells, deque([full]), trace)
        assert trace[0] == (0, [(8, 1), (10, 5), (11, 6)])
        self.assert_kernel_matches_reference(g.adj, [full], [full], altered=0)
        trace = []
        jgraphs.search._refine(complete_graph(12).adj, [full], deque([full]), trace)
        assert trace == [(0, [(11, 12)])]
        self.assert_kernel_matches_reference(complete_graph(12).adj, [full], [full], altered=0)

    # (automorphism_group, canonical_form fresh, canonical_form after
    # automorphism_group: no walk where the record shows a one-orbit tree,
    # else a walk seeded by the recorded group)
    @pytest.mark.parametrize("name,make,counts", [
        ("Paley(29)", lambda: paley(29), (7, 7, 0)),
        ("Kneser(7,3)", lambda: kneser_graph(7, 3), (28, 28, 0)),
        ("L(K7)", lambda: line_graph(complete_graph(7))[0], (28, 28, 0)),
        ("C60", lambda: cycle_union([60]), (6, 6, 0)),
        ("Chang", chang, (33, 35, 17)),
        ("K12,12", lambda: complete_bipartite(12, 12), (67, 67, 0)),
        ("K8,14", lambda: complete_bipartite(8, 14), (21, 21, 0)),
        ("2C6+20C3", lambda: cycle_union([6, 6] + [3] * 20), (1097, 5095, 4045)),
        # C5 with each vertex blown up to three independent twins: twin
        # cells only below the root
        ("C5 blown up", lambda: twin_blow_up(cycle_union([5]), [3] * 5, [False] * 5),
         (47, 47, 0)),
    ])
    def test_search_refinement_counts(self, monkeypatch, name, make, counts):
        # the kernel's speed must not come from a different walk
        g = make()
        refines = count_calls(monkeypatch, "_refine")
        canonical_form(g)
        fresh = len(refines)
        automorphism_group(g)
        group_calls = len(refines) - fresh
        canonical_form(g)
        assert (group_calls, fresh, len(refines) - fresh - group_calls) == counts


class TestAutomorphismGroup:
    def test_matches_brute_force_on_corpus(self):
        for name, g in build_corpus().items():
            if g.n > BRUTE_FORCE_LIMIT:
                continue
            aut = automorphism_group(g)
            oracle = brute_force_automorphisms(g)
            assert aut.order == len(oracle), name
            assert set(aut.elements()) == set(oracle), name

    def test_every_generator_verified(self):
        aut = automorphism_group(johnson_graph(6, 3))
        for p in aut.generators:
            assert check_automorphism(johnson_graph(6, 3), p)

    def test_colored_stabilizer(self):
        g = kneser_graph(5, 2)
        fix0 = ColoredPartition.from_cells(g.n, [[0], [v for v in range(1, g.n)]])
        stab = automorphism_group(g, colors=fix0)
        assert stab.order == 12  # 120 / 10
        assert all(p[0] == 0 for p in stab.generators)

    def test_asymmetric_graph(self):
        g = Graph.from_edges(
            6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (4, 5)]
        )
        assert len(brute_force_automorphisms(g)) == 1
        assert automorphism_group(g).order == 1

    def test_cap(self):
        from jgraphs import VertexCapExceeded

        g = johnson_graph(6, 3)
        for search in (
            lambda cap: automorphism_group(g, cap=cap),
            lambda cap: find_isomorphism(g, g, cap=cap),
            lambda cap: canonical_form(g, cap=cap),
        ):
            with pytest.raises(VertexCapExceeded, match="^graph has 20 vertices, cap is 10$"):
                search(10)
            assert search(None)

    def test_past_deadline_stops_the_search(self):
        g = johnson_graph(8, 4)
        for search in (
            lambda deadline: automorphism_group(g, deadline=deadline),
            lambda deadline: canonical_form(g, deadline=deadline),
            lambda deadline: find_isomorphism(g, g, deadline=deadline),
        ):
            with pytest.raises(TimeLimitExceeded):
                search(time.monotonic())
        # not a usage error: the CLI maps ValueError to exit 2
        assert not issubclass(TimeLimitExceeded, ValueError)

    def test_deadline_none_or_unreached_changes_nothing(self):
        for name, g in build_corpus().items():
            plain = automorphism_group(g)
            form = canonical_form(g)
            witness = find_isomorphism(g, g)
            for deadline in (None, time.monotonic() + 3600):
                aut = automorphism_group(g, deadline=deadline)
                assert aut.generators == plain.generators, name
                assert aut.base == plain.base and aut.order == plain.order, name
                again = canonical_form(g, deadline=deadline)
                assert again.ordering == form.ordering and again.edges == form.edges, name
                assert find_isomorphism(g, g, deadline=deadline) == witness, name


def assert_seeded_chain_matches_schreier_sims(g, colors, rng):
    """The chain seeded from the search base against full Schreier-Sims on
    the same generators: equal order and equal membership verdicts."""
    aut = automorphism_group(g, colors=colors)
    full = group_from_generators(aut.generators, g.n)
    assert aut.order == full.order
    for i, level in enumerate(aut._levels):
        for images in level.gens:
            assert all(images[b] == b for b in aut.base[:i])
            assert images[aut.base[i]] != aut.base[i]
    for _ in range(10):
        p = Perm.identity(g.n)
        for _ in range(rng.randint(1, 6) if aut.generators else 0):
            p = compose(rng.choice(aut.generators), p)
        assert aut.contains(p) and full.contains(p)
        images = list(range(g.n))
        rng.shuffle(images)
        q = Perm(images)
        assert aut.contains(q) == full.contains(q)


class TestSeededChain:
    @pytest.mark.parametrize(
        "name,make",
        [
            ("Shrikhande", shrikhande),
            ("L(K4,4)", lambda: line_graph(complete_bipartite(4, 4))[0]),
            ("Chang", chang),
            ("L(K8)", lambda: line_graph(complete_graph(8))[0]),
            ("CFI(K4)", lambda: cfi_k4(False)),
            ("J(6,3)", lambda: johnson_graph(6, 3)),
            ("K12,12", lambda: complete_bipartite(12, 12)),
        ],
    )
    def test_matches_schreier_sims(self, name, make):
        g = make()
        rng = random.Random(name)
        assert_seeded_chain_matches_schreier_sims(g, None, rng)
        half = [range(g.n // 2), range(g.n // 2, g.n)]
        assert_seeded_chain_matches_schreier_sims(g, half, rng)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_schreier_sims_on_small_graphs(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = list(combinations(range(n), 2))
        g = Graph.from_edges(n, sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else [])
        red = data.draw(st.sets(st.integers(0, n - 1)))
        colors = [cell for cell in (red, set(range(n)) - red) if cell]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        assert_seeded_chain_matches_schreier_sims(g, None, rng)
        assert_seeded_chain_matches_schreier_sims(g, colors, rng)

    @pytest.mark.parametrize(
        "name,make", [("E100", lambda: Graph(100, [0] * 100)), ("K100", lambda: complete_graph(100))]
    )
    def test_symmetric_group_of_degree_100(self, name, make):
        aut = automorphism_group(make())
        assert aut.order == math.factorial(100)
        images = list(range(100))
        random.Random(name).shuffle(images)
        assert aut.contains(Perm(images))
        assert aut.contains(Perm.from_cycles(100, (0, 1)))

    @pytest.mark.parametrize("name", ["C6", "K5", "K33", "petersen", "J63"])
    def test_search_builds_no_coset_representatives(self, monkeypatch, corpus, name):
        closes = count_calls(monkeypatch, "_close_orbit", jgraphs.perms)
        aut = automorphism_group(corpus[name])
        assert closes == []
        assert aut.contains(aut.generators[-1])
        # the first contains closes each level once; elements closes none again
        elements = set(aut.elements())
        assert len(closes) == len(aut.base)
        assert elements == set(group_from_generators(aut.generators, aut.degree).elements())
        assert_seeded_chain_matches_schreier_sims(corpus[name], None, random.Random(name))

    def test_seeded_chain_of_e150_allocates_under_1_mb(self):
        aut = automorphism_group(Graph(150, [0] * 150))
        tracemalloc.start()
        try:
            group = PermGroup(aut.generators, 150, base=aut.base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.order == math.factorial(150)
        assert peak < 1 << 20, f"{peak / 2**20:.2f} MB traced"


class TestOneWalk:
    """The automorphism search, the isomorphism search and the canonical
    form share one walk, which runs once per graph searched, and every
    leaf the automorphism search compares with the first leaf gives a
    generator."""

    GRAPHS = {
        "E10": lambda: Graph(10, [0] * 10),
        "K12,12": lambda: complete_bipartite(12, 12),
        "J(6,3)": lambda: johnson_graph(6, 3),
        "petersen": lambda: kneser_graph(5, 2),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_one_walk_per_search(self, monkeypatch, name):
        g = self.GRAPHS[name]()
        walks = count_calls(monkeypatch, "_leaves")
        automorphism_group(g)
        assert len(walks) == 1

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_one_walk_per_graph_in_isomorphism_search(self, monkeypatch, name):
        g = self.GRAPHS[name]()
        images = list(range(g.n))
        random.Random(name).shuffle(images)
        h = relabel(g, Perm(images))
        walks = count_calls(monkeypatch, "_leaves")
        p = find_isomorphism(g, h)
        assert p is not None and verify_isomorphism(g, h, p)
        assert len(walks) == 2

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_one_walk_per_canonical_form(self, monkeypatch, name):
        g = self.GRAPHS[name]()
        walks = count_calls(monkeypatch, "_leaves")
        searches = count_calls(monkeypatch, "automorphism_group")
        canonical_form(g)
        assert len(walks) == 1 and len(searches) == 0

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_one_perm_per_found_automorphism(self, monkeypatch, name):
        g = self.GRAPHS[name]()
        perms = []
        init = Perm.__init__

        def counted(perm, images):
            perms.append(None)
            init(perm, images)

        monkeypatch.setattr(Perm, "__init__", counted)
        checks = count_calls(monkeypatch, "_maps_edges")
        twin_checks = count_calls(monkeypatch, "_swaps_twins")
        automorphism_group(g)
        # the Perm made for each accepted map is the group's generator
        assert len(perms) == len(checks) + len(twin_checks)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_walker_contract_on_small_graphs(self, data):
        # after the first leaf the walk yields only leaves whose map from
        # it is no automorphism, and every map it keeps is one, with trace
        # pruning (a first path to fill) and without (the canonical walk)
        n = data.draw(st.integers(1, 9))
        g = draw_graph(data, n)
        for path in ([], None):
            found = []
            first, *rest = jgraphs.search._leaves(g, [(1 << n) - 1], path, found)
            for leaf in rest:
                assert not check_automorphism(g, Perm(jgraphs.search._leaf_map(first, leaf)))
            assert all(check_automorphism(g, p) for p in found)
        assert automorphism_group(g).order == len(brute_force_automorphisms(g))

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_no_leaf_wasted(self, monkeypatch, name):
        g = self.GRAPHS[name]()
        checks = count_calls(monkeypatch, "_maps_edges")
        twin_checks = count_calls(monkeypatch, "_swaps_twins")
        aut = automorphism_group(g)
        # once, on its moved rows or on the two twin rows, where the
        # search finds it
        assert len(checks) + len(twin_checks) == len(aut.generators)
        # and no generator is redundant: each one, found deepest level
        # first, grows the orbit of the first base point it moves
        for i, p in enumerate(aut.generators):
            b = next(v for v in aut.base if p[v] != v)
            assert p[b] not in group_from_generators(aut.generators[:i], g.n).orbit(b)


def twin_blow_up(base: Graph, sizes, cliques) -> Graph:
    """Replace vertex v of base by sizes[v] twins, joined to each other
    when cliques[v] holds and to every twin of each neighbour of v."""
    start = [sum(sizes[:v]) for v in range(base.n)]
    members = [range(start[v], start[v] + sizes[v]) for v in range(base.n)]
    edges = [(a, b) for u, v in base.edges() for a in members[u] for b in members[v]]
    edges += [e for v in range(base.n) if cliques[v] for e in combinations(members[v], 2)]
    return Graph.from_edges(sum(sizes), edges)


class TestTwinCells:
    """A target cell of pairwise twins costs the walk one descent: the
    first path hands over the transpositions of its consecutive members
    and every twin node has one child, its cell's smallest member."""

    # (graph, order, generators: one transposition per point but the
    # smallest of each orbit)
    GRAPHS = {
        "E150": (lambda: Graph(150, [0] * 150), math.factorial(150), 149),
        "K150": (lambda: complete_graph(150), math.factorial(150), 149),
        "K60,90": (
            lambda: complete_bipartite(60, 90), math.factorial(60) * math.factorial(90), 148
        ),
        # n < 2m: no two 3-subsets of {1..5} are disjoint
        "K(5,3)": (lambda: kneser_graph(5, 3), math.factorial(10), 9),
    }

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_linear_walk(self, monkeypatch, name):
        make, order, generators = self.GRAPHS[name]
        g = make()
        refines = count_calls(monkeypatch, "_refine")
        aut = automorphism_group(g)
        assert len(refines) <= g.n
        assert aut.order == order and len(aut.generators) == generators
        assert all(len(p.cycle_string().split()) == 2 for p in aut.generators)
        refines.clear()
        canonical_form(g)
        assert len(refines) <= g.n

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_one_twin_test_per_twin_cell(self, monkeypatch, name):
        # a twin node's child inherits its twin target, so a walk tests a
        # cell for twins once, where it first meets it; each orbit of
        # these graphs is one twin cell, and n - generators counts them
        make, _, generators = self.GRAPHS[name]
        n = make().n
        images = list(range(n))
        random.Random(11).shuffle(images)
        tests = count_calls(monkeypatch, "_is_twin_cell")
        # (search on a fresh graph, the trees it walks: g's, and h's)
        for search, walks in [
            (automorphism_group, 1),
            (canonical_form, 1),
            (lambda g: find_isomorphism(g, relabel(g, Perm(images))), 2),
        ]:
            tests.clear()
            assert search(make()) is not None
            assert len(tests) <= walks * (n - generators)

    @staticmethod
    def assert_twin_swaps_agree_with_checker(g):
        for a, b in combinations(range(g.n), 2):
            swap = Perm.from_cycles(g.n, (a, b))
            assert jgraphs.search._swaps_twins(g.adj, a, b) == check_automorphism(g, swap), (a, b)

    def test_twin_swap_check_on_corpus(self):
        # the mask check on two rows is exact: it accepts (a b) exactly
        # when the moved-rows checker does
        for name, g in build_corpus().items():
            if g.n <= 12:
                self.assert_twin_swaps_agree_with_checker(g)
        for sizes, cliques in [([2, 1, 3], [True, False, False]), ([3, 3], [False, True])]:
            base = Graph.from_edges(len(sizes), [(i, i + 1) for i in range(len(sizes) - 1)])
            self.assert_twin_swaps_agree_with_checker(twin_blow_up(base, sizes, cliques))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_twin_swap_check_on_drawn_graphs(self, data):
        self.assert_twin_swaps_agree_with_checker(draw_graph(data, data.draw(st.integers(1, 9))))

    def test_twin_cell_rule(self):
        # the path 0-1-2 blown up to {0, 1} (a clique), {2} and {3, 4}
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        adj = twin_blow_up(path, [2, 1, 2], [True, False, False]).adj
        twin_cell = jgraphs.search._is_twin_cell
        assert twin_cell(adj, 0b11) and twin_cell(adj, 0b11000)
        # equal rows outside the cell, but 0 and 1 hold only each other
        # inside it; then rows that differ outside the cell
        assert not twin_cell(adj, 0b1011) and not twin_cell(adj, 0b11011)
        assert not twin_cell(adj, 0b101)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_twin_blow_ups(self, data):
        nx = pytest.importorskip("networkx")
        n = data.draw(st.integers(1, 4))
        base = draw_graph(data, n)
        sizes = []
        for v in range(n):
            sizes.append(data.draw(st.integers(1, min(3, 9 - sum(sizes) - (n - 1 - v)))))
        cliques = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        g = twin_blow_up(base, sizes, cliques)
        aut = automorphism_group(g)
        assert aut.order == len(brute_force_automorphisms(g))
        assert all(maps_edge_set(g, g, p) for p in aut.generators)
        form = canonical_form(g)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        for _ in range(3):
            images = list(range(g.n))
            rng.shuffle(images)
            h = relabel(g, Perm(images))
            assert (canonical_form(h) == form) == nx.is_isomorphic(
                networkx_graph(g), networkx_graph(h)
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_larger_twin_blow_ups(self, seed):
        # past the brute-force limit: 11 to 16 vertices; on five seeds of
        # the eight a vertex has 8 or more neighbours, which the whole
        # vertex set, the first splitter, counts in a fourth plane
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        base = random_graph(rng, n, 0.5)
        target = rng.randint(11, 16)
        sizes = [1] * n
        while sum(sizes) < target:
            sizes[rng.randrange(n)] += 1
        cliques = [rng.random() < 0.5 for _ in range(n)]
        g = twin_blow_up(base, sizes, cliques)
        assert 11 <= g.n <= 16
        aut = automorphism_group(g)
        assert aut.order == networkx_aut_order(g)
        assert all(maps_edge_set(g, g, p) for p in aut.generators)

    def test_twin_nodes_off_the_first_path(self):
        # individualizing a triangle vertex leaves its two mates as a twin
        # cell; the canonical walk meets such cells below root children
        # other than the first, off the first path, and gives each of
        # those nodes one child
        nx = pytest.importorskip("networkx")
        rng = random.Random(23)
        graphs = []
        for sizes in [(6, 3, 3), (3, 3, 6), (4, 3, 3)]:
            g = cycle_union(sizes)
            graphs.append(g)
            for _ in range(3):
                images = list(range(g.n))
                rng.shuffle(images)
                graphs.append(relabel(g, Perm(images)))
        forms = [canonical_form(g) for g in graphs]
        for g in graphs:
            assert automorphism_group(g).order == networkx_aut_order(g)
        for (g, a), (h, b) in combinations(zip(graphs, forms), 2):
            assert (a == b) == nx.is_isomorphic(networkx_graph(g), networkx_graph(h))


def maps_edge_set(g: Graph, h: Graph, p: Perm) -> bool:
    """True when p is a bijection that carries g's edge set onto h's: an
    edge-set comparison that shares no code with the engine's checkers."""
    images = p.images
    if g.n != h.n or sorted(images) != list(range(g.n)):
        return False
    mapped = {frozenset((images[u], images[v])) for u, v in g.edges()}
    return mapped == {frozenset(e) for e in h.edges()}


class TestIndependentWitnessCheck:
    """Every generator, and every isomorphism witness between a graph and
    a shuffled copy either way, passes an edge-set check independent of
    the engine's checkers."""

    GRAPHS = {
        **build_corpus(),
        "Shrikhande": shrikhande(),
        "L(K4,4)": line_graph(complete_bipartite(4, 4))[0],
        "Chang": chang(),
        "L(K8)": line_graph(complete_graph(8))[0],
        "CFI(K4)": cfi_k4(False),
        "CFI(K4) twisted": cfi_k4(True),
        # trace-equal leaves that are not automorphisms: a checker that
        # accepts every leaf map returns a wrong generator and witness here
        "CFI(K4) + twisted": disjoint_union(cfi_k4(False), cfi_k4(True)),
    }

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_generators_and_witnesses(self, name):
        g = self.GRAPHS[name]
        for p in automorphism_group(g).generators:
            assert maps_edge_set(g, g, p)
        rng = random.Random(name)
        for _ in range(3):
            images = list(range(g.n))
            rng.shuffle(images)
            h = relabel(g, Perm(images))
            for a, b in ((g, h), (h, g)):
                p = find_isomorphism(a, b)
                assert p is not None and maps_edge_set(a, b, p)

    def test_check_rejects_a_non_witness(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert maps_edge_set(g, g, Perm.from_cycles(3, (0, 1)))
        assert not maps_edge_set(g, g, Perm.from_cycles(3, (1, 2)))
        assert not maps_edge_set(g, complete_graph(3), Perm.identity(3))


# _TABLE_LIMIT as set, and 0, which sends every map through the forms
# kept for graphs past it
BOTH_ROW_MAPS = (jgraphs.search._TABLE_LIMIT, 0)


class TestCheckers:
    def test_check_automorphism_rejects_non_automorphism(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert check_automorphism(g, Perm.from_cycles(3, (0, 1)))
        assert not check_automorphism(g, Perm.from_cycles(3, (1, 2)))

    def test_verify_isomorphism(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        h = Graph.from_edges(3, [(0, 2), (0, 1)])
        assert verify_isomorphism(g, h, Perm([1, 0, 2]))
        assert not verify_isomorphism(g, h, Perm.identity(3))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_moved_rows_check_agrees_with_edge_sets(self, data):
        # check_automorphism reads only the rows of moved points.  Three
        # vertices with equal rows outside their class and any edges inside
        # it give permutations that break an edge only between moved points
        n = data.draw(st.integers(3, 9))
        g = draw_graph(data, n)
        trio = data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        outside = [w for w in g.neighbors(trio[0]) if w not in trio]
        edges = {e for e in g.edges() if not set(e) & set(trio)}
        edges |= {(min(t, w), max(t, w)) for t in trio for w in outside}
        inside = [tuple(sorted(e)) for e in combinations(trio, 2)]
        edges |= {e for e in inside if data.draw(st.booleans())}
        g = Graph.from_edges(n, sorted(edges))
        perms = [Perm.identity(n)]
        for order in permutations(trio):
            images = list(range(n))
            for t, image in zip(trio, order):
                images[t] = image
            perms.append(Perm(images))
        for _ in range(4):
            support = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True))
            images = list(range(n))
            for t, image in zip(support, data.draw(st.permutations(support))):
                images[t] = image
            perms.append(Perm(images))
        perms.append(Perm(data.draw(st.permutations(range(n)))))
        for limit in BOTH_ROW_MAPS:
            with patch.object(jgraphs.search, "_TABLE_LIMIT", limit):
                for p in perms:
                    assert check_automorphism(g, p) == maps_edge_set(g, g, p), (limit, p)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_isomorphism_check_agrees_with_edge_sets(self, data):
        # g is h relabelled by q, so q maps h onto g and its inverse g onto
        # h; a check that read h's neighbours for g's, or g's rows for h's,
        # would reject these witnesses
        n = data.draw(st.integers(2, 20))
        density = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
        h = random_graph(random.Random(data.draw(st.integers(0, 2**32))), n, density)
        q = data.draw(st.permutations(range(n)))
        g = relabel(h, Perm(q))
        back = [0] * n
        for u, image in enumerate(q):
            back[image] = u
        assert verify_isomorphism(g, h, Perm(back))
        assert verify_isomorphism(h, g, Perm(q))
        wrong = [Perm(data.draw(st.permutations(range(n)))) for _ in range(3)]
        t = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        wrong.append(compose(Perm(back), Perm.from_cycles(n, tuple(t))))
        for limit in BOTH_ROW_MAPS:
            with patch.object(jgraphs.search, "_TABLE_LIMIT", limit):
                assert verify_isomorphism(g, h, Perm(back))
                assert verify_isomorphism(h, g, Perm(q))
                for p in wrong:
                    assert verify_isomorphism(g, h, p) == maps_edge_set(g, h, p), (limit, p)

    def test_checks_past_the_table_limit(self):
        # J(15,5) has 3,003 vertices, so its maps take the sorted-tuple
        # comparison with no patching
        g = johnson_graph(15, 5)
        assert g.n >= jgraphs.search._TABLE_LIMIT
        shift = induced_action(Perm.from_cycles(15, tuple(range(15))), 15, 5)
        swap = induced_action(Perm.from_cycles(15, (0, 1)), 15, 5)
        assert check_automorphism(g, shift) and check_automorphism(g, swap)
        assert verify_isomorphism(g, g, shift)
        # two vertices at distance 1 and two at distance 5 swapped
        for u in (g.nbrs[0][0], g.n - 1):
            assert not check_automorphism(g, Perm.from_cycles(g.n, (0, u)))
            assert not verify_isomorphism(g, g, Perm.from_cycles(g.n, (0, u)))


class TestFindIsomorphism:
    def test_petersen_complement_vs_johnson(self):
        g = complement(kneser_graph(5, 2))
        h = johnson_graph(5, 2)
        p = find_isomorphism(g, h)
        assert p is not None
        assert verify_isomorphism(g, h, p)

    def test_relabeled_graphs(self):
        rng = random.Random(5)
        g = johnson_graph(6, 3)
        images = list(range(g.n))
        rng.shuffle(images)
        h = relabel(g, Perm(images))
        p = find_isomorphism(g, h)
        assert p is not None and verify_isomorphism(g, h, p)

    def test_non_isomorphic_same_degree_sequence(self):
        # C6 and two triangles: both 2-regular on 6 vertices.  The others
        # differ in vertex count (edgeless graphs, whose refinement traces
        # are all empty, and E1 vs K2) or in degrees (P4, K1,3), which the
        # first refinement signature, the degree histogram, tells apart
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        tt = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        e1, e2 = Graph(1, [0]), Graph(2, [0, 0])
        e5, e6 = Graph(5, [0] * 5), Graph(6, [0] * 6)
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        pairs = [
            (c6, tt), (e1, e2), (e2, e1), (e5, e6), (e6, e5),
            (e1, complete_graph(2)), (complete_graph(2), e1),
            (p4, complete_bipartite(1, 3)),
        ]
        for g, h in pairs:
            assert find_isomorphism(g, h) is None, (g, h)

    def test_different_sizes(self):
        assert find_isomorphism(complete_graph(3), complete_graph(4)) is None

    def test_root_trace_stops_before_any_descent(self, monkeypatch):
        # J(7,3) is 12-regular and K(7,3) 4-regular, so the two root
        # refinements differ and neither walk descends
        refines = count_calls(monkeypatch, "_refine")
        assert find_isomorphism(johnson_graph(7, 3), kneser_graph(7, 3)) is None
        assert len(refines) == 2

    def test_deep_path_needs_no_recursion(self):
        # the first path individualizes 599 vertices, one level each
        g = Graph(600, [0] * 600)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            p = find_isomorphism(g, g)
        finally:
            sys.setrecursionlimit(limit)
        assert p is not None and verify_isomorphism(g, g, p)

    @pytest.mark.parametrize("seed", range(12))
    def test_target_tree_is_pruned_by_its_automorphisms(self, monkeypatch, seed):
        # CFI(K4) + twisted CFI(K4): unless h's walk is pruned by the
        # automorphisms of h it finds, a shuffled copy takes up to 72,587
        # refinements
        g = disjoint_union(cfi_k4(False), cfi_k4(True))
        images = list(range(g.n))
        random.Random(seed).shuffle(images)
        h = relabel(g, Perm(images))
        refines = count_calls(monkeypatch, "_refine")
        for a, b in ((g, h), (h, g)):
            refines.clear()
            p = find_isomorphism(a, b)
            assert p is not None and verify_isomorphism(a, b, p)
            assert len(refines) <= 500


class TestRefinementResistantPairs:
    """Regular pairs that colour refinement leaves as one cell, so only the
    search (branches pruned by their refinement traces) can tell them
    apart."""

    PAIRS = {
        "Shrikhande vs L(K4,4)": (
            shrikhande, 192, lambda: line_graph(complete_bipartite(4, 4))[0], 1152
        ),
        "Chang vs L(K8)": (chang, 384, lambda: line_graph(complete_graph(8))[0], 40320),
        "CFI(K4) vs twisted": (lambda: cfi_k4(False), 192, lambda: cfi_k4(True), 192),
    }

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_pair(self, name):
        make_a, order_a, make_b, order_b = self.PAIRS[name]
        a, b = make_a(), make_b()
        assert len(color_refinement(a).cells) == len(color_refinement(b).cells) == 1
        assert find_isomorphism(a, b) is None
        assert find_isomorphism(b, a) is None
        assert automorphism_group(a).order == order_a
        assert automorphism_group(b).order == order_b
        rng = random.Random(name)
        for g in (a, b):
            images = list(range(g.n))
            rng.shuffle(images)
            h = relabel(g, Perm(images))
            p = find_isomorphism(g, h)
            assert p is not None and verify_isomorphism(g, h, p)


class TestAdversarialCorpus:
    """Disjoint unions whose components colour refinement cannot tell
    apart, so the search must leave the first path and find automorphisms
    at equal leaves, and self-complementary Paley graphs."""

    CASES = {
        "Shrikhande + L(K4,4)": (
            lambda: disjoint_union(shrikhande(), line_graph(complete_bipartite(4, 4))[0]),
            221184,
        ),
        "Shrikhande + Shrikhande": (lambda: disjoint_union(shrikhande(), shrikhande()), 73728),
        "Chang + L(K8)": (
            lambda: disjoint_union(chang(), line_graph(complete_graph(8))[0]), 15482880
        ),
        "J(6,3) + J(6,3)": (
            lambda: disjoint_union(johnson_graph(6, 3), johnson_graph(6, 3)), 4147200
        ),
        "J(7,3) + K(7,3)": (
            lambda: disjoint_union(johnson_graph(7, 3), kneser_graph(7, 3)), 25401600
        ),
        "CFI(K4)": (lambda: cfi_k4(False), 192),
        "CFI(K4) twisted": (lambda: cfi_k4(True), 192),
        "CFI(K4) + twisted": (lambda: disjoint_union(cfi_k4(False), cfi_k4(True)), 36864),
        "Paley(13)": (lambda: paley(13), 78),
        "Paley(17)": (lambda: paley(17), 136),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_order_witness_and_canonical_form(self, name):
        make, order = self.CASES[name]
        g = make()
        assert automorphism_group(g).order == order
        rng = random.Random(name)
        form = canonical_form(g)
        for _ in range(3):
            images = list(range(g.n))
            rng.shuffle(images)
            h = relabel(g, Perm(images))
            p = find_isomorphism(g, h)
            assert p is not None and verify_isomorphism(g, h, p)
            assert canonical_form(h) == form

    def test_unions_of_srg_twins_differ(self):
        a = disjoint_union(shrikhande(), line_graph(complete_bipartite(4, 4))[0])
        b = disjoint_union(shrikhande(), shrikhande())
        assert canonical_form(a) != canonical_form(b)

    def test_cfi_twins_differ(self):
        assert canonical_form(cfi_k4(False)) != canonical_form(cfi_k4(True))

    @pytest.mark.parametrize("p", [13, 17])
    def test_paley_is_self_complementary(self, p):
        g = paley(p)
        co = complement(g)
        q = find_isomorphism(g, co)
        assert q is not None and verify_isomorphism(g, co, q)
        assert canonical_form(g) == canonical_form(co)


class TestHarvest:
    """Once the walk over h has refined more nodes than h has vertices,
    find_isomorphism hands it h's automorphism group, whose generators
    prune by orbits.  Non-isomorphic pairs that refinement cannot split
    then walk a pruned tree."""

    # the unpruned walks take 43,626 and 21,928 refinements on the unions,
    # 369 on Chang -> L(K8) and 117 on Shrikhande -> L(K4,4)
    BOUNDS = {
        "Shrikhande + L(K4,4) -> Shrikhande + Shrikhande": (srg_unions, 300),
        "Shrikhande + Shrikhande -> Shrikhande + L(K4,4)": (
            lambda: srg_unions()[::-1], 300
        ),
        "Chang -> L(K8)": (lambda: (chang(), line_graph(complete_graph(8))[0]), 150),
        "Shrikhande -> L(K4,4)": (
            lambda: (shrikhande(), line_graph(complete_bipartite(4, 4))[0]), 100
        ),
    }

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_non_isomorphic_pairs_walk_a_pruned_tree(self, monkeypatch, name):
        make, bound = self.BOUNDS[name]
        g, h = make()
        refines = count_calls(monkeypatch, "_refine")
        assert find_isomorphism(g, h) is None
        assert len(refines) <= bound

    def test_harvest_fires_after_more_than_n_refinements(self, monkeypatch):
        g, h = srg_unions()
        cells_g, cells_h = [(1 << g.n) - 1], [(1 << h.n) - 1]
        path = []
        next(jgraphs.search._leaves(g, cells_g, path))
        refines = count_calls(monkeypatch, "_refine")
        fired = []

        def harvest():
            fired.append(len(refines))
            return automorphism_group(h).generators

        deque(jgraphs.search._leaves(h, cells_h, path, harvest=harvest), maxlen=0)
        # once, on the first pick after the walk's (n + 1)-th branch
        # refinement, which follows the root's
        assert fired == [h.n + 2]

    # seeded shuffles whose walk runs past n refinements before it meets a
    # leaf that maps g onto h; on the unions, a walk that also jumped back
    # on the harvested maps (sound only for a map between two explored
    # leaves) would miss every witness
    @pytest.mark.parametrize(
        "name,seed,swap",
        [("Chang", 0, False), ("Chang + L(K8)", 5, False), ("Chang + L(K8)", 18, True)],
    )
    def test_isomorphic_pair_that_harvests_keeps_its_witness(self, monkeypatch, name, seed, swap):
        g = chang() if name == "Chang" else TestAdversarialCorpus.CASES[name][0]()
        images = list(range(g.n))
        random.Random(seed).shuffle(images)
        h = relabel(g, Perm(images))
        if swap:
            g, h = h, g
        harvests = count_calls(monkeypatch, "automorphism_group")
        p = find_isomorphism(g, h)
        assert len(harvests) == 1
        assert p is not None and verify_isomorphism(g, h, p)
        assert maps_edge_set(g, h, p)

    def test_deadline_expiring_during_the_harvest(self, monkeypatch):
        g, h = srg_unions()
        inner = jgraphs.search.automorphism_group
        stopped = []

        def late(graph, *args, deadline=None, **kwargs):
            # the walk reached the trigger in time; the harvest overruns
            time.sleep(max(0.0, deadline - time.monotonic()))
            try:
                return inner(graph, *args, deadline=deadline, **kwargs)
            except TimeLimitExceeded:
                stopped.append(graph)
                raise

        monkeypatch.setattr(jgraphs.search, "automorphism_group", late)
        with pytest.raises(TimeLimitExceeded):
            find_isomorphism(g, h, deadline=time.monotonic() + 1.0)
        assert stopped == [h]

    @staticmethod
    def networkx_isomorphic(g: Graph, h: Graph) -> bool:
        """networkx's verdict, one connected component at a time: two
        graphs are isomorphic exactly when their components pair off
        isomorphically, and VF2++ is slow on whole unions of
        refinement-resistant components."""
        nx = pytest.importorskip("networkx")
        G, H = networkx_graph(g), networkx_graph(h)
        left = [G.subgraph(c).copy() for c in nx.connected_components(G)]
        right = [H.subgraph(c).copy() for c in nx.connected_components(H)]
        for a in left:
            i = next((i for i, b in enumerate(right) if nx.vf2pp_is_isomorphic(a, b)), None)
            if i is None:
                return False
            del right[i]
        return not right

    def test_verdicts_agree_with_networkx(self):
        pairs = [(make_a(), make_b()) for make_a, _, make_b, _ in
                 TestRefinementResistantPairs.PAIRS.values()]
        pairs.append(srg_unions())
        pairs.append((
            TestAdversarialCorpus.CASES["Chang + L(K8)"][0](),
            disjoint_union(chang(), chang()),
        ))
        for a, b in pairs:
            for g, h in ((a, b), (b, a)):
                p = find_isomorphism(g, h)
                assert (p is None) == (not self.networkx_isomorphic(g, h))


def shuffled(g: Graph, seed) -> Graph:
    images = list(range(g.n))
    random.Random(seed).shuffle(images)
    return relabel(g, Perm(images))


class TestSearchRecord:
    """automorphism_group(g) records its completed search on g, and
    find_isomorphism and a second automorphism_group read it back.  No
    output may depend on whether the record is there."""

    GRAPHS = {
        **build_corpus(),
        "Chang": chang(),
        "L(K8)": line_graph(complete_graph(8))[0],
        "Shrikhande": shrikhande(),
        "L(K4,4)": line_graph(complete_bipartite(4, 4))[0],
        # its search meets leaves past the first whose map is no
        # automorphism: a record that kept such a leaf would be caught
        "CFI(K4) + twisted": disjoint_union(cfi_k4(False), cfi_k4(True)),
    }
    # non-isomorphic pairs, which harvest h's group
    PAIRS = {"Chang -> L(K8)": ("Chang", "L(K8)"), "Shrikhande -> L(K4,4)": ("Shrikhande", "L(K4,4)")}

    @staticmethod
    def outputs(g, h, recorded):
        """Every search output on the pair, with automorphism_group run
        first on the graphs in ``recorded`` (a subset of "gh")."""
        for key, graph in (("g", g), ("h", h)):
            if key in recorded:
                automorphism_group(graph)
        witnesses = [find_isomorphism(g, h), find_isomorphism(h, g)]
        forms = [canonical_form(x) for x in (g, h)]
        groups = [automorphism_group(x) for x in (g, h)]
        return (
            witnesses,
            [(f.ordering, f.edges) for f in forms],
            [(a.generators, a.base, a.order) for a in groups],
        )

    @pytest.mark.parametrize("name", [*GRAPHS, *PAIRS])
    def test_outputs_do_not_depend_on_the_record(self, name):
        # new Graph objects for every run, so no record outlives one
        if name in self.PAIRS:
            a, b = self.PAIRS[name]
            make = lambda: (shuffled(self.GRAPHS[a], name), shuffled(self.GRAPHS[b], name))
        else:
            g = self.GRAPHS[name]
            make = lambda: (Graph(g.n, g.adj), shuffled(g, name))
        fresh = self.outputs(*make(), recorded="")
        for recorded in ("g", "h", "gh"):
            assert self.outputs(*make(), recorded) == fresh, recorded

    @pytest.mark.parametrize("name", ["J63", "petersen", "Chang", "CFI(K4) + twisted"])
    def test_record_holds_the_walks_first_path_and_leaf(self, name):
        g = self.GRAPHS[name]
        path = []
        first = next(jgraphs.search._leaves(g, [(1 << g.n) - 1], path))
        fresh = Graph(g.n, g.adj)
        aut = automorphism_group(fresh)
        group, stored, leaf, one_orbit = vars(fresh)["_aut_search"]
        assert (group, marshal.loads(stored), leaf) == (aut, path, first)
        # J(6,3) and the Petersen graph are distance-transitive: every
        # target cell on the first path is one orbit of its stabilizer
        assert one_orbit == (name in ("J63", "petersen"))

    MORE = {
        "K8,14": lambda: complete_bipartite(8, 14),
        "2C6+6C3": lambda: cycle_union([6, 6] + [3] * 6),
        "Paley(29)": lambda: paley(29),
        # the triangle's cells are orbits; the 20 cubic vertices are one
        # cell of two orbits, the target two levels below the root
        "K3+Petersen+prism": lambda: disjoint_union(disjoint_union(
            complete_graph(3), kneser_graph(5, 2)), circulant(10, [2, 5])),
    }

    @pytest.mark.parametrize("name", [*GRAPHS, *MORE])
    def test_one_orbit_fact_is_an_orbit_per_level(self, name):
        # the record compares one product; this checks the fact level by
        # level, each target cell from its own refinement and each orbit
        # from the generators that fix the path's prefix
        g = self.MORE[name]() if name in self.MORE else self.GRAPHS[name]
        g = Graph(g.n, g.adj)
        aut = automorphism_group(g)
        _, stored, _, one_orbit = vars(g)["_aut_search"]
        vertices = [v for v, _ in marshal.loads(stored)[1:]]
        levels = []
        for i, v in enumerate(vertices):
            prefix = vertices[:i]
            rest = set(range(g.n)) - set(prefix)
            cells = color_refinement(g, ColoredPartition.from_cells(
                g.n, [[u] for u in prefix] + ([sorted(rest)] if rest else []))).cells
            target = min(len(cell) for cell in cells if len(cell) > 1)
            fixers = [a for a in aut.generators if all(a[u] == u for u in prefix)]
            levels.append(len(group_from_generators(fixers, g.n).orbit(v)) == target)
        assert one_orbit == all(levels)

    def test_second_group_is_the_recorded_one(self, monkeypatch):
        g = johnson_graph(6, 3)
        walks = count_calls(monkeypatch, "_leaves")
        aut = automorphism_group(g)
        assert automorphism_group(g) is aut and len(walks) == 1
        # a coloured search is neither recorded nor answered from the record
        colors = [range(10), range(10, 20)]
        assert automorphism_group(g, colors=colors).order < aut.order
        assert vars(g)["_aut_search"][0] is aut and len(walks) == 2
        # a cap is still checked before the record is read
        with pytest.raises(ValueError, match="cap is 10"):
            automorphism_group(g, cap=10)

    def test_recorded_pair_walks_h_only(self, monkeypatch):
        g, h = chang(), line_graph(complete_graph(8))[0]
        automorphism_group(g)
        automorphism_group(h)
        walks = count_calls(monkeypatch, "_leaves")
        searches = count_calls(monkeypatch, "automorphism_group")
        assert find_isomorphism(g, h) is None
        # g's walk and the harvest's walk of h are the records' work;
        # the harvest still asks for h's group
        assert len(walks) == 1 and len(searches) == 1

    def test_recorded_graph_is_not_walked_again(self, monkeypatch):
        g = johnson_graph(6, 3)
        h = shuffled(g, 3)
        automorphism_group(g)
        walks = count_calls(monkeypatch, "_leaves")
        p = find_isomorphism(g, h)
        assert p is not None and verify_isomorphism(g, h, p)
        assert len(walks) == 1

    def test_deadline_stores_nothing(self, monkeypatch):
        g = johnson_graph(8, 4)
        with pytest.raises(TimeLimitExceeded):
            automorphism_group(g, deadline=time.monotonic())
        assert "_aut_search" not in vars(g)
        walks = count_calls(monkeypatch, "_leaves")
        p = find_isomorphism(g, g)
        assert p is not None and verify_isomorphism(g, g, p)
        assert len(walks) == 2


class TestSeededCanonicalForm:
    """canonical_form prunes by the recorded group of its graph, or by one
    lent to it by find_isomorphism, and its form must not depend on
    whether either is there."""

    GRAPHS = {
        **TestSearchRecord.GRAPHS,
        "Kneser(7,3)": kneser_graph(7, 3),
        "Paley(29)": paley(29),
        "2C6+6C3": cycle_union([6, 6] + [3] * 6),
        "C5+C5+C4+C4+C3": cycle_union([5, 5, 4, 4, 3]),
        "K5,7": complete_bipartite(5, 7),
        "E9": Graph(9, [0] * 9),
    }

    @staticmethod
    def forms(g, f):
        """(ordering, edges) of canonical_form on new copies of g: fresh,
        after automorphism_group, after find_isomorphism(f, copy) and after
        find_isomorphism(copy, f), where f is isomorphic to g and has a
        recorded group.  Every generator lent to a copy is checked to be
        an automorphism of it."""
        out = []
        for run in ("fresh", "group", "lent onto", "lent back"):
            x = Graph(g.n, g.adj)
            if run == "group":
                automorphism_group(x)
            elif run != "fresh":
                p = find_isomorphism(f, x) if run == "lent onto" else find_isomorphism(x, f)
                assert p is not None and "_aut_search" not in vars(x) and "_lent_group" in vars(x)
                lent = jgraphs.search._known_generators(x)
                assert all(check_automorphism(x, a) for a in lent)
            form = canonical_form(x)
            out.append((form.ordering, form.edges))
        return out

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_form_does_not_depend_on_what_ran_before(self, name):
        g = shuffled(self.GRAPHS[name], name)
        f = shuffled(g, 1)
        automorphism_group(f)
        first, *others = self.forms(g, f)
        assert others == [first] * 3

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_form_does_not_depend_on_what_ran_before_property(self, data):
        if data.draw(st.booleans()):
            # a shuffled circulant: vertex-transitive, so its search tree
            # is often one orbit and its form read off the first leaf
            n = data.draw(st.integers(1, 20))
            jumps = data.draw(st.sets(st.integers(1, max(1, n // 2)), max_size=3))
            g = relabel(circulant(n, jumps), Perm(data.draw(st.permutations(range(n)))))
        else:
            n = data.draw(st.integers(1, 12))
            g = draw_graph(data, n)
        f = relabel(g, Perm(data.draw(st.permutations(range(n)))))
        automorphism_group(f)
        first, *others = self.forms(g, f)
        assert others == [first] * 3

    def test_lent_group_is_left_out_of_copies_and_records(self):
        g = kneser_graph(7, 3)
        h = shuffled(g, 4)
        fresh = automorphism_group(Graph(h.n, h.adj))
        automorphism_group(g)
        assert find_isomorphism(g, h) is not None
        assert "_lent_group" in vars(h)
        for other in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
            assert other == h and "_lent_group" not in vars(other)
        # h's own group is what a walk of h alone gives, never the lent one
        aut = automorphism_group(h)
        assert (aut.generators, aut.base) == (fresh.generators, fresh.base)
        assert vars(h)["_aut_search"][0] is aut

    def test_lent_only_when_one_graph_has_a_record(self):
        g, h = kneser_graph(6, 2), shuffled(kneser_graph(6, 2), 2)
        assert find_isomorphism(g, h) is not None
        assert "_lent_group" not in vars(g) | vars(h)
        automorphism_group(g)
        automorphism_group(h)
        assert find_isomorphism(g, h) is not None
        assert "_lent_group" not in vars(g) | vars(h)

    def test_walk_that_never_prunes_by_orbits_takes_no_seeds(self, monkeypatch):
        # one descent down twin cells has no orbit pass, so the recorded
        # generators are never read and no support is computed
        g = Graph(60, [0] * 60)
        automorphism_group(g)
        supports = count_calls(monkeypatch, "_support")
        assert sorted(canonical_form(g).ordering) == list(range(60))
        assert supports == []


def prepare(x: Graph, f: Graph, run: str) -> None:
    """Give x what ``run`` names: its own record ("group"), or a group lent
    by find_isomorphism(f, x) ("lent onto") or find_isomorphism(x, f)
    ("lent back"), where f is isomorphic to x and has a record."""
    if run == "group":
        automorphism_group(x)
    else:
        p = find_isomorphism(f, x) if run == "lent onto" else find_isomorphism(x, f)
        assert p is not None and "_lent_group" in vars(x) and "_aut_search" not in vars(x)


class TestOneOrbitTree:
    """A record that shows every first-path target cell to be one orbit of
    its stabilizer proves every leaf an image of the first, so
    canonical_form reads the recorded first leaf, or the one
    find_isomorphism lends with a group, and walks nothing.  Any other
    tree is walked, and no form depends on which ran."""

    ONE_ORBIT = {
        "Paley(29)": lambda: paley(29),
        "Kneser(7,3)": lambda: kneser_graph(7, 3),
        "C60": lambda: cycle_union([60]),
        "K12,12": lambda: complete_bipartite(12, 12),
        "E24": lambda: Graph(24, [0] * 24),
        "J(6,3)": lambda: johnson_graph(6, 3),
    }
    WALKED = {
        "Chang": chang,
        "CFI(K4) + twisted": lambda: disjoint_union(cfi_k4(False), cfi_k4(True)),
        "2C6+6C3": lambda: cycle_union([6, 6] + [3] * 6),
    }

    @pytest.mark.parametrize("run", ["group", "lent onto", "lent back"])
    @pytest.mark.parametrize("name", sorted(ONE_ORBIT))
    def test_form_read_with_no_refinement(self, monkeypatch, name, run):
        g = shuffled(self.ONE_ORBIT[name](), name)
        fresh = canonical_form(Graph(g.n, g.adj))
        f = shuffled(g, 1)
        automorphism_group(f)
        prepare(g, f, run)
        refines = count_calls(monkeypatch, "_refine")
        form = canonical_form(g)
        assert refines == []
        assert (form.ordering, form.edges) == (fresh.ordering, fresh.edges)

    @pytest.mark.parametrize("name", sorted(WALKED))
    def test_other_trees_are_walked(self, monkeypatch, name):
        g = shuffled(self.WALKED[name](), name)
        fresh = canonical_form(Graph(g.n, g.adj))
        f = shuffled(g, 1)
        automorphism_group(f)
        assert vars(f)["_aut_search"][3] is False
        for run in ("group", "lent onto", "lent back"):
            x = Graph(g.n, g.adj)
            prepare(x, f, run)
            walks = count_calls(monkeypatch, "_leaves")
            form = canonical_form(x)
            monkeypatch.undo()
            assert len(walks) == 1, run
            assert (form.ordering, form.edges) == (fresh.ordering, fresh.edges), run

    def test_a_deadline_past_is_not_read_by_a_record_read(self):
        g = johnson_graph(6, 3)
        fresh = canonical_form(Graph(g.n, g.adj))
        automorphism_group(g)
        assert canonical_form(g, deadline=time.monotonic() - 1) == fresh
        # a graph whose tree is not one orbit still walks, and stops
        h = chang()
        automorphism_group(h)
        with pytest.raises(TimeLimitExceeded):
            canonical_form(h, deadline=time.monotonic() - 1)


class TestOracles:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_networkx_verdicts_and_orders(self, data):
        nx = pytest.importorskip("networkx")
        n = data.draw(st.integers(2, 8))
        pairs = list(combinations(range(n), 2))
        g = Graph.from_edges(n, sorted(data.draw(st.sets(st.sampled_from(pairs)))))
        G = networkx_graph(g)
        relabelled = relabel(g, Perm(data.draw(st.permutations(range(n)))))
        flips = data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=2))
        flipped = Graph.from_edges(n, sorted(set(relabelled.edges()) ^ flips))
        for h in (relabelled, flipped):
            p = find_isomorphism(g, h)
            isomorphic = nx.is_isomorphic(G, networkx_graph(h))
            assert (p is None) == (not isomorphic)
            assert p is None or verify_isomorphism(g, h, p)
            assert (canonical_form(g) == canonical_form(h)) == isomorphic
        assert automorphism_group(g).order == networkx_aut_order(g)

    @pytest.mark.parametrize(
        "name,make,order",
        [
            ("J(6,3)", lambda: johnson_graph(6, 3), 1440),
            ("Petersen", lambda: kneser_graph(5, 2), 120),
            ("K3,4", lambda: complete_bipartite(3, 4), 144),
            ("Shrikhande", shrikhande, 192),
            ("CFI(K4)", lambda: cfi_k4(False), 192),
        ],
    )
    def test_sympy_order(self, name, make, order):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        aut = automorphism_group(make())
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p.images)) for p in aut.generators]
        )
        assert group.order() == aut.order == order


class TestCanonicalForm:
    def test_equal_for_relabelings(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_graph(rng, 8, 0.5)
            images = list(range(8))
            rng.shuffle(images)
            h = relabel(g, Perm(images))
            assert canonical_form(g) == canonical_form(h)

    def test_distinct_for_non_isomorphic(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        tt = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_form(c6) != canonical_form(tt)

    def test_rebuilt_graph_is_isomorphic(self):
        g = kneser_graph(5, 2)
        cf = canonical_form(g)
        assert isinstance(cf, CanonicalForm)
        h = cf.graph()
        assert find_isomorphism(g, h) is not None

    def test_equality_and_hash_ignore_ordering(self):
        a = CanonicalForm(3, [0, 1, 2], [(0, 1)])
        b = CanonicalForm(3, (2, 1, 0), ((0, 1),))
        assert a == b and hash(a) == hash(b)
        assert a.ordering == (0, 1, 2) and a.edges == ((0, 1),)
        assert a != CanonicalForm(3, [0, 1, 2], [(1, 2)])

    def test_ordering_is_a_permutation(self):
        g = johnson_graph(5, 2)
        cf = canonical_form(g)
        assert sorted(cf.ordering) == list(range(g.n))

    def test_deep_path_needs_no_recursion(self):
        # 149 individualization levels, deeper than the recursion limit
        g = Graph(150, [0] * 150)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            cf = canonical_form(g)
        finally:
            sys.setrecursionlimit(limit)
        assert sorted(cf.ordering) == list(range(150))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_canonical_form_invariance_property(self, data):
        n = data.draw(st.integers(2, 7))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=12,
            )
        )
        g = Graph.from_edges(n, [(min(u, v), max(u, v)) for u, v in edges])
        images = data.draw(st.permutations(range(n)))
        h = relabel(g, Perm(images))
        assert canonical_form(g) == canonical_form(h)
