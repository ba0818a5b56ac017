import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from jgraphs import (
    DEFAULT_VERTEX_CAP,
    CanonicalForm,
    ColoredPartition,
    DistancePartition,
    Graph,
    IntersectionWitness,
    PartialVertexMap,
    Perm,
    PermGroup,
    SubsetLabel,
    TransitivityProfile,
    VerificationReport,
    VertexCapExceeded,
    automorphism_group,
    binomial,
    bits,
    canonical_form,
    complement,
    complete_bipartite,
    complete_graph,
    compose,
    distance_partition,
    induced_subgraph,
    intersection_size,
    johnson_graph,
    kneser_graph,
    line_graph,
    neighborhood,
    unique_intersection_witness,
    unrank_subset,
)
from jgraphs.graphs import _colex_index
from jgraphs.johnson import CheckResult

from conftest import build_corpus


def test_bits_iterates_ascending():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


class TestGraph:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.edge_count() == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    @pytest.mark.parametrize("drop, pair", [((3, 1), (1, 3)), ((1, 3), (3, 1))])
    def test_a_lone_asymmetric_bit_is_named(self, drop, pair):
        # K5 less one row bit: dropping (3, 1) leaves a bit above the
        # diagonal without its mirror, dropping (1, 3) one below it, which
        # the walk over the upper triangle never reads; the triangles'
        # bit counts differ, and the full scan names the pair
        rows = list(complete_graph(5).adj)
        v, w = drop
        rows[v] &= ~(1 << w)
        message = f"asymmetric adjacency between {pair[0]} and {pair[1]}$"
        with pytest.raises(ValueError, match=message):
            Graph(5, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    def test_accepts_exactly_symmetric_rows(self, rows):
        rows = [row & ~(1 << v) for v, row in enumerate(rows)]
        symmetric = all(
            (rows[v] >> w & 1) == (rows[w] >> v & 1) for v in range(len(rows)) for w in range(v)
        )
        try:
            Graph(len(rows), rows)
        except ValueError:
            assert not symmetric
        else:
            assert symmetric

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b110, 0b01))

    @pytest.mark.parametrize("make, name", [
        pytest.param(lambda: SubsetLabel(4, 0b0101), "mask", id="SubsetLabel"),
        pytest.param(lambda: complete_graph(3), "n", id="Graph"),
        pytest.param(lambda: distance_partition(complete_graph(3), 0), "masks", id="DistancePartition"),
        pytest.param(lambda: Perm([1, 0, 2]), "images", id="Perm"),
        pytest.param(lambda: PermGroup([Perm([1, 0, 2])], 3), "order", id="PermGroup"),
        pytest.param(lambda: ColoredPartition.uniform(3), "cells", id="ColoredPartition"),
        pytest.param(lambda: canonical_form(complete_graph(3)), "edges", id="CanonicalForm"),
        pytest.param(
            lambda: unique_intersection_witness(johnson_graph(5, 2), 0, 9), "extras",
            id="IntersectionWitness",
        ),
        pytest.param(
            lambda: PartialVertexMap.identity_on(complete_graph(3), [0]), "graph",
            id="PartialVertexMap",
        ),
        pytest.param(lambda: TransitivityProfile(True, True, False), "edge", id="TransitivityProfile"),
        pytest.param(lambda: CheckResult("degree", True, True, "ok"), "detail", id="CheckResult"),
        pytest.param(lambda: _report(), "checks", id="VerificationReport"),
    ])
    def test_immutable(self, make, name):
        value = make()
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.not_a_field = 5

    def test_equality_ignores_labels(self):
        g = johnson_graph(4, 2)
        h = Graph(g.n, g.adj)
        assert g == h
        assert hash(g) == hash(h)

    def test_neighbors(self):
        g = complete_graph(4)
        assert g.neighbors(0) == frozenset({1, 2, 3})
        assert neighborhood(g, 0) == frozenset({1, 2, 3})


def _handed_over():
    """Every builder that hands its neighbour lists over as the view, with
    the subgraphs induced on the even vertices and on a closed neighbourhood."""
    graphs = {}
    for n in range(2, 10):
        for m in range(1, n):
            graphs[f"J({n},{m})"] = johnson_graph(n, m)
            if n <= 8:
                graphs[f"K({n},{m})"] = kneser_graph(n, m)
    for n in range(2, 9):
        graphs[f"L(K{n})"] = line_graph(complete_graph(n))[0]
    for s in range(1, 5):
        for t in range(s, 5):
            graphs[f"L(K{s},{t})"] = line_graph(complete_bipartite(s, t))[0]
    for name, g in list(graphs.items()):
        graphs[f"{name}[even]"] = induced_subgraph(g, range(0, g.n, 2))[0]
        graphs[f"{name}[N[0]]"] = induced_subgraph(g, [0, *g.nbrs[0]])[0]
    return graphs


class TestNeighbourView:
    def test_rows_as_ascending_tuples(self):
        for name, g in build_corpus().items():
            assert g.nbrs == tuple(tuple(bits(row)) for row in g.adj), name

    def test_handed_over_view_matches_the_rows(self):
        for name, g in _handed_over().items():
            assert "nbrs" in vars(g), name
            assert g.nbrs == tuple(tuple(bits(row)) for row in g.adj), name
            assert g == Graph(g.n, g.adj), name

    def test_pickled_copy_rebuilds_the_view(self):
        for name, g in _handed_over().items():
            copied = pickle.loads(pickle.dumps(g))
            assert "nbrs" not in vars(copied), name
            assert copied.nbrs == g.nbrs, name

    def test_one_int_object_per_vertex(self):
        # 276 to 330 vertices: CPython caches no int past 256
        j = johnson_graph(11, 4)
        graphs = [j, kneser_graph(11, 4), line_graph(complete_graph(24))[0],
                  induced_subgraph(j, range(10, j.n))[0], Graph(j.n, j.adj)]
        for g in graphs:
            seen = {}
            for row in g.nbrs:
                for w in row:
                    assert seen.setdefault(w, w) is w
            assert max(seen) > 256

    def test_built_once(self):
        g = johnson_graph(6, 3)
        g = Graph(g.n, g.adj)
        assert "nbrs" not in vars(g)
        view = g.nbrs
        assert g.nbrs is view

    def test_not_a_field(self):
        assert Graph.__match_args__ == ("n", "adj", "labels")
        j = johnson_graph(6, 3)
        g, h = Graph(j.n, j.adj), Graph(j.n, j.adj)
        g.nbrs  # g's view is built, h's is not
        assert "nbrs" not in vars(h)
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
        with pytest.raises(AttributeError):
            g.nbrs = ()
        for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert copied == h and hash(copied) == hash(h)
            assert copied.nbrs == h.nbrs

    def test_pickle_size_is_the_value_alone(self):
        g = johnson_graph(10, 5)
        size = len(pickle.dumps(g))
        automorphism_group(g)
        g.nbrs
        assert {"nbrs", "_aut_search"} <= set(vars(g))
        assert len(pickle.dumps(g)) == size


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("round_trip", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
class TestCopies:
    def test_graph_keeps_labels(self, round_trip):
        g = johnson_graph(5, 2)
        h = round_trip(g)
        assert h == g and hash(h) == hash(g)
        assert h.adj == g.adj and h.labels == g.labels

    def test_graph_leaves_its_caches_behind(self, round_trip):
        g = johnson_graph(6, 3)
        aut = automorphism_group(g)
        g.nbrs
        h = round_trip(g)
        assert set(vars(h)) == {"n", "adj", "labels"}
        assert h.nbrs == g.nbrs
        again = automorphism_group(h)
        assert again is not aut
        assert (again.generators, again.base) == (aut.generators, aut.base)

    def test_perm(self, round_trip):
        p = Perm.from_cycles(5, (0, 1, 2))
        q = round_trip(p)
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)

    def test_perm_group(self, round_trip):
        aut = automorphism_group(johnson_graph(6, 3))
        copied = round_trip(aut)
        before = [dict(level.trans) for level in copied._levels]
        assert copied.order == aut.order == 1440
        assert copied.generators == aut.generators and copied.base == aut.base
        a, b = aut.generators[:2]
        assert copied.contains(compose(a, b)) and copied.contains(aut.generators[-1])
        assert not copied.contains(Perm.from_cycles(aut.degree, (0, 1)))
        # contains closes copies of the levels, never the group's own
        assert [level.trans for level in copied._levels] == before
        # the transversals that contains built on first use copy with the group
        built = round_trip(copied)
        assert "_transversals" in vars(built)
        assert built.order == aut.order and built.base == aut.base
        assert built.contains(compose(a, b)) and built.contains(aut.generators[-1])
        assert not built.contains(Perm.from_cycles(aut.degree, (0, 1)))
        assert len(set(built.elements())) == 1440

    def test_canonical_form(self, round_trip):
        cf = canonical_form(kneser_graph(5, 2))
        copied = round_trip(cf)
        assert copied == cf and hash(copied) == hash(cf)
        assert copied.ordering == cf.ordering and copied.edges == cf.edges


def _report(**fields):
    values = dict(
        n=4, m=2, vertex_count=6, degree=4, aut_order=48, expected_order=48,
        stabilizer_order=8, stabilizer_bound=8,
        checks=(CheckResult("degree", True, True, "ok"),), seed=7, elapsed_seconds=0.25,
    )
    return VerificationReport(**{**values, **fields})


# One value of each of the twelve value types: a maker; a twin made apart
# from it, equal to it unless the type compares by identity; an unequal
# value of the same type; the repr (None: the object repr); the fields
# that equality and the hash read, or, for identity, that copies keep.
VALUES = [
    pytest.param(
        lambda: SubsetLabel(4, 0b0101), lambda: SubsetLabel.parse("{1,3}", 4),
        lambda: SubsetLabel(5, 0b0101), "SubsetLabel(n=4, mask=5)",
        lambda s: (s.n, s.mask), id="SubsetLabel",
    ),
    # the twin has no labels: they are not compared
    pytest.param(
        lambda: johnson_graph(4, 2), lambda: Graph(6, johnson_graph(4, 2).adj),
        lambda: complete_graph(6), "Graph(n=6, edges=12)",
        lambda g: (g.n, g.adj), id="Graph",
    ),
    pytest.param(
        lambda: distance_partition(Graph.from_edges(4, [(0, 1), (1, 2)]), 0),
        lambda: DistancePartition(0, (1, 2, 4), (0, 1, 2, None)),
        lambda: distance_partition(Graph.from_edges(4, [(0, 1), (1, 2)]), 1),
        "DistancePartition(source=0, masks=(1, 2, 4), dist=(0, 1, 2, None))",
        lambda d: (d.source, d.masks, d.dist), id="DistancePartition",
    ),
    pytest.param(
        lambda: Perm([1, 0, 2]), lambda: Perm.from_cycles(3, (0, 1)),
        lambda: Perm([0, 2, 1]), "Perm('(0 1)', degree=3)",
        lambda p: (p.images,), id="Perm",
    ),
    pytest.param(
        lambda: PermGroup([Perm([1, 0, 2])], 3), lambda: PermGroup([Perm([1, 0, 2])], 3),
        lambda: PermGroup([], 3), "PermGroup(degree=3, order=2)",
        lambda a: (a.degree, a.generators, a.base, a.order), id="PermGroup",
    ),
    pytest.param(
        lambda: ColoredPartition.from_cells(3, [[2], [0, 1]]),
        lambda: ColoredPartition((1, 1, 0), ((2,), (0, 1))),
        lambda: ColoredPartition.uniform(3),
        "ColoredPartition(color=(1, 1, 0), cells=((2,), (0, 1)))",
        lambda c: (c.color, c.cells), id="ColoredPartition",
    ),
    # the twin has another ordering: it is not compared
    pytest.param(
        lambda: CanonicalForm(3, [2, 0, 1], [(0, 1)]), lambda: CanonicalForm(3, (0, 1, 2), ((0, 1),)),
        lambda: CanonicalForm(3, (2, 0, 1), ((1, 2),)), "CanonicalForm(n=3, edges=1)",
        lambda f: (f.n, f.edges), id="CanonicalForm",
    ),
    pytest.param(
        lambda: unique_intersection_witness(johnson_graph(5, 2), 0, 9),
        lambda: IntersectionWitness(True, 2, frozenset({9}), frozenset()),
        lambda: IntersectionWitness(True, 1, frozenset({9}), frozenset()),
        "IntersectionWitness(passed=True, layer=2, intersection=frozenset({9}), extras=frozenset())",
        lambda w: (w.passed, w.layer, w.intersection, w.extras), id="IntersectionWitness",
    ),
    pytest.param(
        lambda: PartialVertexMap(complete_graph(3), {1: 2, 0: 1}),
        lambda: PartialVertexMap(complete_graph(3), {0: 1, 1: 2}),
        lambda: PartialVertexMap(complete_graph(3), {0: 0}), None,
        lambda f: (f.graph, list(f.items())), id="PartialVertexMap",
    ),
    pytest.param(
        lambda: TransitivityProfile(vertex=True, edge=True, distance=False),
        lambda: TransitivityProfile(True, True, False),
        lambda: TransitivityProfile(True, True, True),
        "TransitivityProfile(vertex=True, edge=True, distance=False)",
        lambda t: (t.vertex, t.edge, t.distance), id="TransitivityProfile",
    ),
    pytest.param(
        lambda: CheckResult("degree", True, True, "ok"),
        lambda: CheckResult(name="degree", passed=True, asserted=True, detail="ok"),
        lambda: CheckResult("degree", True, False, "ok"),
        "CheckResult(name='degree', passed=True, asserted=True, detail='ok')",
        lambda c: (c.name, c.passed, c.asserted, c.detail), id="CheckResult",
    ),
    pytest.param(
        _report, _report, lambda: _report(seed=8),
        "VerificationReport(n=4, m=2, vertex_count=6, degree=4, aut_order=48, "
        "expected_order=48, stabilizer_order=8, stabilizer_bound=8, checks=(CheckResult("
        "name='degree', passed=True, asserted=True, detail='ok'),), seed=7, elapsed_seconds=0.25)",
        lambda r: (
            r.n, r.m, r.vertex_count, r.degree, r.aut_order, r.expected_order,
            r.stabilizer_order, r.stabilizer_bound, r.checks, r.seed, r.elapsed_seconds,
        ),
        id="VerificationReport",
    ),
]
BY_IDENTITY = (PermGroup, PartialVertexMap)


@pytest.mark.parametrize("make, twin, other, text, fields", VALUES)
def test_value_semantics(make, twin, other, text, fields):
    value, second, third = make(), twin(), other()
    assert repr(value) == (object.__repr__(value) if text is None else text)
    assert value == value and not value != value
    assert value != third and not value == third
    assert value != fields(value) and value != object()
    if isinstance(value, BY_IDENTITY):
        assert value != second and not value == second
        assert hash(value) == object.__hash__(value)
    else:
        assert value == second and not value != second
        assert hash(value) == hash(second) == hash(fields(value))
    for copied in (copy.copy(value), copy.deepcopy(value), _pickled(value)):
        assert type(copied) is type(value) and fields(copied) == fields(value)
        if text is not None:
            assert repr(copied) == text
        if isinstance(value, BY_IDENTITY):
            assert copied != value
        else:
            assert copied == value and hash(copied) == hash(value)


class TestFamilies:
    def test_complete(self):
        k5 = complete_graph(5)
        assert k5.n == 5 and k5.edge_count() == 10
        assert all(k5.degree(v) == 4 for v in range(k5.n))

    def test_bipartite_sides(self):
        g = complete_bipartite(2, 3)
        # X = {0,1}, Y = {2,3,4}; no edges inside a side
        assert not g.has_edge(0, 1)
        assert not g.has_edge(2, 3)
        assert all(g.has_edge(x, y) for x in (0, 1) for y in (2, 3, 4))

    def test_johnson_basic(self):
        g = johnson_graph(5, 2)
        assert g.n == 10
        assert all(g.degree(v) == 6 for v in range(g.n))  # m(n-m) = 2*3
        # adjacency means intersection of size m-1
        for u, v in g.edges():
            assert intersection_size(g.labels[u], g.labels[v]) == 1

    def test_johnson_m1_is_complete(self):
        g = johnson_graph(6, 1)
        assert Graph(g.n, g.adj) == complete_graph(6)

    def test_johnson_labels_in_rank_order(self):
        g = johnson_graph(5, 2)
        assert str(g.labels[0]) == "{1,2}"
        assert str(g.labels[9]) == "{4,5}"

    def test_kneser_petersen(self):
        p = kneser_graph(5, 2)
        assert p.n == 10 and all(p.degree(v) == 3 for v in range(p.n))
        for u, v in p.edges():
            assert intersection_size(p.labels[u], p.labels[v]) == 0

    def test_johnson_kneser_complement_at_m2_n5(self):
        assert complement(kneser_graph(5, 2)) == johnson_graph(5, 2)

    def test_octahedron(self):
        g = johnson_graph(4, 2)
        assert g.n == 6 and all(g.degree(v) == 4 for v in range(g.n))
        # octahedron: each vertex has exactly one non-neighbor, its complement pair
        for v in range(6):
            non = set(range(6)) - {v} - g.neighbors(v)
            assert len(non) == 1
            w = non.pop()
            assert g.labels[w] == g.labels[v].complement()

    def test_cap_enforced(self):
        with pytest.raises(VertexCapExceeded, match="^graph has 155117520 vertices, cap is 5000$"):
            johnson_graph(30, 15)
        with pytest.raises(VertexCapExceeded):
            kneser_graph(30, 15, cap=DEFAULT_VERTEX_CAP)
        with pytest.raises(VertexCapExceeded, match="^graph has 20 vertices, cap is 19$"):
            kneser_graph(6, 3, cap=19)
        # None means the default, as in every search
        assert johnson_graph(6, 3, cap=None) == johnson_graph(6, 3)
        assert kneser_graph(6, 3, cap=None) == kneser_graph(6, 3)
        # explicit cap raise lets it through
        g = johnson_graph(13, 6, cap=2000)
        assert g.n == 1716

    def test_colex_index_is_the_unranking(self):
        # the enumerated table against rank by rank unranking, the oracle
        for n in range(2, 15):
            for m in range(1, n):
                masks, index = _colex_index(n, m)
                assert masks == tuple(unrank_subset(r, n, m).mask for r in range(binomial(n, m)))
                assert len(index) == len(masks)
                assert all(index[mask] == r for r, mask in enumerate(masks))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            johnson_graph(5, 0)
        with pytest.raises(ValueError):
            johnson_graph(5, 5)


class TestLineGraph:
    def test_lk4(self):
        lg, edge_map = line_graph(complete_graph(4))
        assert lg.n == 6
        assert all(lg.degree(v) == 4 for v in range(lg.n))
        assert edge_map == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_line_vertices_adjacent_iff_edges_share_endpoint(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        lg, edge_map = line_graph(g)
        for i in range(lg.n):
            for j in range(i + 1, lg.n):
                share = bool(set(edge_map[i]) & set(edge_map[j]))
                assert lg.has_edge(i, j) == share

    def test_line_of_path(self):
        lg, _ = line_graph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert lg.edges() == [(0, 1), (1, 2)]


class TestOperations:
    def test_complement_involution(self):
        g = johnson_graph(5, 2)
        assert complement(complement(g)) == g

    def test_induced_subgraph(self):
        g = complete_graph(5)
        sub, mapping = induced_subgraph(g, [1, 3, 4])
        assert sub.n == 3 and sub.edge_count() == 3
        assert mapping == (1, 3, 4)

    def test_induced_neighborhood_of_johnson_vertex(self):
        g = johnson_graph(6, 3)
        sub, _ = induced_subgraph(g, sorted(neighborhood(g, 0)))
        assert sub.n == 9  # m(n-m)


class TestDistancePartition:
    def test_j52_layers(self):
        dp = distance_partition(johnson_graph(5, 2), 0)
        assert dp.layer_sizes == (1, 6, 3)
        assert dp.eccentricity == 2
        assert not dp.unreachable

    def test_j63_layers(self):
        dp = distance_partition(johnson_graph(6, 3), 0)
        assert dp.layer_sizes == (1, 9, 9, 1)
        assert dp.eccentricity == 3

    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (7, 3), (8, 4)])
    def test_layer_size_formula(self, n, m):
        # |layer i| = C(m,i) * C(n-m,i)
        dp = distance_partition(johnson_graph(n, m), 0)
        expected = tuple(binomial(m, i) * binomial(n - m, i) for i in range(m + 1))
        assert dp.layer_sizes == expected

    def test_layers_partition_vertices(self):
        g = johnson_graph(6, 3)
        dp = distance_partition(g, 5)
        seen = set()
        for layer in dp.layers:
            assert not (seen & layer)
            seen |= layer
        assert seen == set(range(g.n))

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1)])
        dp = distance_partition(g, 0)
        assert dp.layer_sizes == (1, 1)
        assert dp.unreachable == frozenset({2, 3})
        assert dp.dist[2] is None

    def test_distance_equals_subset_distance_rule(self):
        g = johnson_graph(6, 3)
        dp = distance_partition(g, 0)
        x = g.labels[0]
        for v in range(g.n):
            assert dp.dist[v] == 3 - intersection_size(x, g.labels[v])

    def test_bad_source(self):
        with pytest.raises(ValueError):
            distance_partition(complete_graph(3), 3)


def _networkx_table(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    return tuple(tuple(lengths[u].get(v) for v in range(g.n)) for u in range(g.n))


def distance_table(g):
    """All-pairs distances, one ``distance_partition`` per source; None
    marks an unreachable pair."""
    return tuple(distance_partition(g, u).dist for u in range(g.n))


class TestDistanceTable:
    @pytest.mark.parametrize(
        "name,g",
        [
            ("J(5,2)", johnson_graph(5, 2)),
            ("J(6,3)", johnson_graph(6, 3)),
            ("J(8,3)", johnson_graph(8, 3)),
            ("K(7,3)", kneser_graph(7, 3)),
            ("Petersen", kneser_graph(5, 2)),
            ("P7", Graph.from_edges(7, [(i, i + 1) for i in range(6)])),
            ("disconnected", Graph.from_edges(7, [(0, 1), (1, 2), (4, 5), (5, 6), (4, 6)])),
            ("edgeless", Graph(4, [0, 0, 0, 0])),
            ("K1", complete_graph(1)),
        ],
    )
    def test_matches_networkx(self, name, g):
        assert distance_table(g) == _networkx_table(g)

    def test_unreachable_entries_are_none(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        table = distance_table(g)
        assert table[0] == (0, 1, None, None, None)
        assert table[4] == (None, None, None, None, 0)

    def test_rows_are_partition_distances(self):
        # each row's distances are the layer indices of its partition's masks
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
        for u, row in enumerate(distance_table(g)):
            masks = distance_partition(g, u).masks
            assert row == tuple(
                next((d for d, mask in enumerate(masks) if mask >> v & 1), None)
                for v in range(g.n)
            )

    def test_symmetric(self):
        table = distance_table(kneser_graph(6, 2))
        assert all(table[u][v] == table[v][u] for u in range(15) for v in range(15))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    ))
    def test_random_graphs(self, data):
        n, pairs = data
        g = Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])
        table = distance_table(g)
        assert table == _networkx_table(g)
        for u in range(n):
            dp = distance_partition(g, u)
            assert all(dp.dist[v] == d for d, layer in enumerate(dp.layers) for v in layer)
            assert sum(dp.layer_sizes) == n - len(dp.unreachable)
            union = 0
            for d, mask in enumerate(dp.masks):
                assert not union & mask
                union |= mask
                assert frozenset(bits(mask)) == dp.layers[d]
            assert union == sum(1 << v for v in range(n) if table[u][v] is not None)
