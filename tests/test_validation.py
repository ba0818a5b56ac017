"""Argument checks that no other test reaches: each call raises the given
exception with a message that names the fault.  Then the public paths that
no other test runs, each with the value it returns."""

import re
import time

import pytest

from jgraphs import (
    ColoredPartition,
    Graph,
    PartialVertexMap,
    Perm,
    PermGroup,
    SubsetLabel,
    VertexCapExceeded,
    automorphism_group,
    bipartite_aut_order,
    canonical_form,
    check_automorphism,
    complementation_map,
    complete_bipartite,
    complete_graph,
    compose,
    induced_action,
    induced_subgraph,
    intersection_size,
    johnson_graph,
    line_graph,
    local_reconstruction,
    neighborhood,
    neighborhood_iso,
    verify_isomorphism,
    verify_johnson_aut,
    whitney_lift,
)

K3 = complete_graph(3)
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
J52 = johnson_graph(5, 2)


def _closed_neighbourhood_seed(g, x):
    return PartialVertexMap.identity_on(g, [x, *g.neighbors(x)])


def _faulty_cycle(n, extra=(), replace=()):
    """Graph(n, rows) on the rows of the n-cycle, with each row bit (v, w) in
    ``extra`` set and each (v, row) in ``replace`` put in place."""
    rows = [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)]
    for v, w in extra:
        rows[v] |= 1 << w
    for v, row in replace:
        rows[v] = row
    return Graph(n, rows)


CASES = [
    # graphs
    ("Graph rows", lambda: Graph(2, [0]), ValueError, "adjacency has 1 rows for 2 vertices"),
    ("Graph self-loop", lambda: Graph(2, [1, 0]), ValueError, "self-loop at vertex 0"),
    # each row fault at 5 vertices and at 70, where rows cross a machine word
    ("Graph bit at n, 5", lambda: _faulty_cycle(5, extra=[(2, 5)]), ValueError,
     "row 2 mentions vertices outside 0..4"),
    ("Graph bit at n, 70", lambda: _faulty_cycle(70, extra=[(65, 70)]), ValueError,
     "row 65 mentions vertices outside 0..69"),
    ("Graph negative row, 5", lambda: _faulty_cycle(5, replace=[(2, -1)]), ValueError,
     "row 2 mentions vertices outside 0..4"),
    ("Graph negative row, 70", lambda: _faulty_cycle(70, replace=[(68, -(1 << 66))]), ValueError,
     "row 68 mentions vertices outside 0..69"),
    ("Graph self-loop, 5", lambda: _faulty_cycle(5, extra=[(3, 3)]), ValueError,
     "self-loop at vertex 3"),
    ("Graph self-loop, 70", lambda: _faulty_cycle(70, extra=[(67, 67)]), ValueError,
     "self-loop at vertex 67"),
    ("Graph unmirrored above, 5", lambda: _faulty_cycle(5, extra=[(1, 4)]), ValueError,
     "asymmetric adjacency between 1 and 4"),
    ("Graph unmirrored above, 70", lambda: _faulty_cycle(70, extra=[(1, 66)]), ValueError,
     "asymmetric adjacency between 1 and 66"),
    ("Graph unmirrored below, 5", lambda: _faulty_cycle(5, extra=[(4, 1)]), ValueError,
     "asymmetric adjacency between 4 and 1"),
    ("Graph unmirrored below, 70", lambda: _faulty_cycle(70, extra=[(66, 1)]), ValueError,
     "asymmetric adjacency between 66 and 1"),
    # a self-loop in any row is named before an asymmetric pair in an earlier one
    ("Graph two faults, 5", lambda: _faulty_cycle(5, extra=[(1, 4), (3, 3)]), ValueError,
     "self-loop at vertex 3"),
    ("Graph two faults, 70", lambda: _faulty_cycle(70, extra=[(1, 66), (3, 3)]), ValueError,
     "self-loop at vertex 3"),
    ("from_edges self-loop", lambda: Graph.from_edges(2, [(1, 1)]), ValueError,
     "self-loop at vertex 1"),
    ("Graph labels", lambda: Graph(2, [0, 0], labels=[1]), ValueError,
     "label count must match vertex count"),
    ("from_edges range", lambda: Graph.from_edges(2, [(0, 2)]), ValueError, "edge (0,2) outside 0..1"),
    ("complete_graph", lambda: complete_graph(0), ValueError,
     "complete graph needs at least one vertex"),
    ("complete_bipartite", lambda: complete_bipartite(0, 3), ValueError,
     "both sides of a complete bipartite graph must be nonempty"),
    ("line_graph edgeless", lambda: line_graph(Graph(3, [0, 0, 0])), ValueError,
     "line graph of an edgeless graph"),
    ("induced_subgraph empty", lambda: induced_subgraph(K3, []), ValueError,
     "induced subgraph needs at least one vertex"),
    ("induced_subgraph range", lambda: induced_subgraph(K3, [0, 3]), ValueError,
     "vertices outside 0..2"),
    ("neighborhood", lambda: neighborhood(K3, 3), ValueError, "vertex 3 outside 0..2"),
    ("degree negative", lambda: J52.degree(-1), ValueError, "vertex -1 outside 0..9"),
    ("neighbors negative", lambda: J52.neighbors(-1), ValueError, "vertex -1 outside 0..9"),
    ("has_edge second high", lambda: J52.has_edge(0, 99), ValueError, "vertex 99 outside 0..9"),
    ("has_edge second negative", lambda: J52.has_edge(0, -1), ValueError,
     "vertex -1 outside 0..9"),
    ("has_edge first high", lambda: J52.has_edge(99, 0), ValueError, "vertex 99 outside 0..9"),
    # permutations and groups
    ("Perm.parse empty cycle", lambda: Perm.parse("()()", 3), ValueError, "empty cycle in '()()'"),
    ("Perm.parse non-integer", lambda: Perm.parse("(a b)", 3), ValueError,
     "malformed cycle text '(a b)'"),
    ("compose degrees", lambda: compose(Perm.identity(2), Perm.identity(3)), ValueError,
     "degree mismatch: 2 vs 3"),
    ("Perm bool image", lambda: Perm([True, False]), ValueError,
     "not a permutation of 0..1: (True, False)"),
    ("PermGroup bool base", lambda: PermGroup([Perm([1, 0])], 2, base=(True,)), ValueError,
     "base must list distinct points of 0..1: (True,)"),
    ("PermGroup tuple generator", lambda: PermGroup([(1, 0)], 2), ValueError,
     "generators must be Perm instances"),
    ("PermGroup.contains degree", lambda: PermGroup([], 2).contains(Perm.identity(3)), ValueError,
     "degree mismatch: 3 vs 2"),
    ("PermGroup.orbit range", lambda: PermGroup([], 2).orbit(2), ValueError, "point 2 outside 0..1"),
    # search
    ("from_cells empty cell", lambda: ColoredPartition.from_cells(3, [[0, 1], [], [2]]), ValueError,
     "empty cell in partition"),
    ("from_cells range", lambda: ColoredPartition.from_cells(3, [[0, 1], [3]]), ValueError,
     "vertex 3 outside 0..2"),
    ("automorphism_group partition size",
     lambda: automorphism_group(K3, colors=ColoredPartition.uniform(2)), ValueError,
     "partition covers 2 vertices, graph has 3"),
    ("check_automorphism degree", lambda: check_automorphism(K3, Perm.identity(2)), ValueError,
     "permutation degree 2 != vertex count 3"),
    # subsets
    ("SubsetLabel ground set", lambda: SubsetLabel(0, 0), ValueError,
     "ground set size must be in 1.."),
    ("SubsetLabel mask", lambda: SubsetLabel(3, 8), ValueError,
     "mask 0x8 does not fit a 3-element ground set"),
    ("intersection_size ground sets", lambda: intersection_size(SubsetLabel(3, 1), SubsetLabel(4, 1)),
     ValueError, "mismatched ground sets: 3 vs 4"),
    # johnson
    ("induced_action degree", lambda: induced_action(Perm.identity(3), 4, 2), ValueError,
     "ground permutation degree 3 != 4"),
    ("induced_action subset size", lambda: induced_action(Perm.identity(5), 5, 0), ValueError,
     "subset size must be in 1..4, got 0"),
    ("induced_action ground set", lambda: induced_action(Perm.identity(65), 65, 2), ValueError,
     "ground set size must be in 0..64, got 65"),
    ("complementation_map", lambda: complementation_map(0), ValueError,
     "subset size must be positive, got 0"),
    # refused before the C(26, 13) subsets are listed
    ("induced_action cap", lambda: induced_action(Perm.identity(26), 26, 13), VertexCapExceeded,
     "graph has 10400600 vertices, cap is 5000"),
    ("complementation_map cap", lambda: complementation_map(13), VertexCapExceeded,
     "graph has 10400600 vertices, cap is 5000"),
    ("complementation_map given cap", lambda: complementation_map(3, cap=19), VertexCapExceeded,
     "graph has 20 vertices, cap is 19"),
    ("complete_graph cap", lambda: complete_graph(6000), VertexCapExceeded,
     "graph has 6000 vertices, cap is 5000"),
    ("complete_bipartite cap", lambda: complete_bipartite(3000, 3000), VertexCapExceeded,
     "graph has 6000 vertices, cap is 5000"),
    # L(K_120) has 7,140 vertices, one per edge of K_120
    ("line_graph cap", lambda: line_graph(complete_graph(120)), VertexCapExceeded,
     "graph has 7140 vertices, cap is 5000"),
    ("whitney_lift non-edge", lambda: whitney_lift(Perm.identity(3), P3, [(0, 1), (0, 2)]),
     ValueError, "edge map entry (0,2) is not an edge of the base graph"),
    ("neighborhood_iso label", lambda: neighborhood_iso(5, 2, SubsetLabel(6, 0b11)), ValueError,
     "label ground set 6 != 5"),
    ("neighborhood_iso subset size", lambda: neighborhood_iso(5, 0, SubsetLabel(5, 0)), ValueError,
     "subset size must be in 1..4, got 0"),
    ("PartialVertexMap range", lambda: PartialVertexMap(K3, {0: 3}), ValueError,
     "assignment 0 -> 3 outside 0..2"),
    ("restriction degree", lambda: PartialVertexMap.restriction(K3, Perm.identity(2), [0]),
     ValueError, "permutation degree 2 != vertex count 3"),
    ("local_reconstruction other graph",
     lambda: local_reconstruction(johnson_graph(5, 2), 0, _closed_neighbourhood_seed(K3, 0)),
     ValueError, "seed is bound to a different graph"),
    ("local_reconstruction source",
     lambda: local_reconstruction(K3, 3, _closed_neighbourhood_seed(K3, 0)), ValueError,
     "source 3 outside 0..2"),
    ("bipartite_aut_order", lambda: bipartite_aut_order(0, 1), ValueError,
     "both sides must be nonempty"),
    ("report.check", lambda: verify_johnson_aut(4, 2).check("nope"), KeyError, "nope"),
]


@pytest.mark.parametrize("call, exception, message",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_rejects_invalid_argument(call, exception, message):
    with pytest.raises(exception, match=re.escape(message)):
        call()


# (a family builder at a size past the default cap, the same builder at
# six vertices); the large graphs are the cap rows of CASES
BUILDERS = [
    ("complete_graph", lambda: complete_graph(6000), lambda cap: complete_graph(6, cap=cap)),
    ("complete_bipartite", lambda: complete_bipartite(3000, 3000),
     lambda cap: complete_bipartite(3, 3, cap=cap)),
    ("line_graph", lambda: line_graph(complete_graph(120)),
     lambda cap: line_graph(complete_graph(4), cap=cap)[0]),
]


@pytest.mark.parametrize("large, small", [case[1:] for case in BUILDERS],
                         ids=[case[0] for case in BUILDERS])
def test_builder_checks_its_cap_first(large, small):
    # refused before a row or an edge is listed: K_6000 takes seconds to build
    start = time.monotonic()
    with pytest.raises(VertexCapExceeded):
        large()
    assert time.monotonic() - start < 0.1
    with pytest.raises(VertexCapExceeded, match="graph has 6 vertices, cap is 5"):
        small(5)
    assert small(6).n == 6


SEED = PartialVertexMap(P3, {0: 2, 1: 1})

RETURNS = [
    ("Graph repr", lambda: repr(P3), "Graph(n=3, edges=2)"),
    ("PermGroup repr", lambda: repr(PermGroup([Perm([1, 0, 2])], 3)), "PermGroup(degree=3, order=2)"),
    ("CanonicalForm repr", lambda: repr(canonical_form(P3)), "CanonicalForm(n=3, edges=2)"),
    ("PartialVertexMap contains", lambda: (1 in SEED, 2 in SEED), (True, False)),
    ("PartialVertexMap len", lambda: len(SEED), 2),
]


@pytest.mark.parametrize("call, expected", [case[1:] for case in RETURNS],
                         ids=[case[0] for case in RETURNS])
def test_returns(call, expected):
    assert call() == expected


def test_verify_isomorphism_on_different_vertex_counts_is_false():
    assert verify_isomorphism(K3, complete_graph(2), Perm.identity(3)) is False
