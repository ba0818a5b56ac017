import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

import jgraphs.graphs
import jgraphs.johnson
import jgraphs.search
from jgraphs import (
    Graph,
    Perm,
    PermGroup,
    PartialVertexMap,
    ReconstructionError,
    SubsetLabel,
    TimeLimitExceeded,
    bipartite_aut_order,
    brute_force_automorphisms,
    check_automorphism,
    complementation_map,
    complete_bipartite,
    complete_graph,
    compose,
    distance_by_intersection,
    distance_partition,
    group_from_generators,
    induced_action,
    intersection_size,
    johnson_graph,
    kneser_graph,
    line_graph,
    local_reconstruction,
    neighborhood,
    neighborhood_iso,
    rank_subset,
    transitivity_profile,
    unique_intersection_witness,
    unrank_subset,
    verify_johnson_aut,
    whitney_lift,
    automorphism_group,
    binomial,
    __version__,
)
from jgraphs.cli import main as cli_main

from conftest import count_calls


def standard_sym_generators(n):
    return [Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))]


def induced_subgroup(n, m):
    gens = [induced_action(t, n, m) for t in standard_sym_generators(n)]
    return group_from_generators(gens, johnson_graph(n, m).n)


class TestInducedAction:
    def test_moves_subsets_elementwise(self):
        # swapping ground elements 1 and 2 sends {1,3} to {2,3}
        theta = Perm.from_cycles(5, (0, 1))
        f = induced_action(theta, 5, 2)
        src = rank_subset(SubsetLabel.from_elements(5, [1, 3]))
        dst = rank_subset(SubsetLabel.from_elements(5, [2, 3]))
        assert f[src] == dst

    def test_identity_maps_to_identity(self):
        assert induced_action(Perm.identity(6), 6, 3).is_identity()

    def test_is_homomorphism(self):
        rng = random.Random(2)
        for _ in range(20):
            a = list(range(6)); rng.shuffle(a)
            b = list(range(6)); rng.shuffle(b)
            t, s = Perm(a), Perm(b)
            lhs = induced_action(compose(t, s), 6, 3)
            rhs = compose(induced_action(t, 6, 3), induced_action(s, 6, 3))
            assert lhs == rhs

    def test_injective_exhaustively_small(self):
        seen = set()
        for images in itertools.permutations(range(5)):
            seen.add(induced_action(Perm(images), 5, 2))
        assert len(seen) == 120

    def test_lands_in_automorphism_group(self):
        g = johnson_graph(7, 3)
        rng = random.Random(9)
        for _ in range(10):
            a = list(range(7)); rng.shuffle(a)
            assert check_automorphism(g, induced_action(Perm(a), 7, 3))

    def test_matches_a_per_bit_oracle(self):
        # each subset's elements moved one at a time, for every theta in Sym(5)
        labels = [unrank_subset(r, 5, 2) for r in range(binomial(5, 2))]
        for images in itertools.permutations(range(5)):
            expected = [
                rank_subset(SubsetLabel.from_elements(5, [images[e - 1] + 1 for e in s.elements()]))
                for s in labels
            ]
            assert induced_action(Perm(images), 5, 2).images == tuple(expected)

    def test_subgroup_order_is_factorial(self):
        assert induced_subgroup(6, 3).order == math.factorial(6)
        assert induced_subgroup(5, 2).order == math.factorial(5)


class TestComplementationMap:
    def test_involution_and_not_identity(self):
        a = complementation_map(3)
        assert not a.is_identity()
        assert compose(a, a).is_identity()

    def test_fixes_nothing(self):
        # complement of an m-set is never equal to it when n = 2m
        a = complementation_map(2)
        assert all(a[v] != v for v in range(6))

    def test_is_automorphism(self):
        g = johnson_graph(6, 3)
        assert check_automorphism(g, complementation_map(3))

    def test_outside_induced_subgroup(self):
        h = induced_subgroup(6, 3)
        assert not h.contains(complementation_map(3))

    def test_commutes_with_induced_actions(self):
        a = complementation_map(3)
        rng = random.Random(4)
        for _ in range(25):
            imgs = list(range(6)); rng.shuffle(imgs)
            f = induced_action(Perm(imgs), 6, 3)
            assert compose(f, a) == compose(a, f)

    def test_extends_group_to_double_order(self):
        h = induced_subgroup(6, 3)
        big = group_from_generators(
            list(h.generators) + [complementation_map(3)], 20
        )
        assert big.order == 2 * math.factorial(6)

    def test_maps_to_complement_labels(self):
        g = johnson_graph(4, 2)
        a = complementation_map(2)
        for v in range(g.n):
            assert g.labels[a[v]] == g.labels[v].complement()


class TestWhitneyLift:
    def test_lift_is_line_graph_automorphism(self):
        base = complete_graph(5)
        lg, emap = line_graph(base)
        for p in brute_force_automorphisms(base):
            q = whitney_lift(p, base, emap)
            assert check_automorphism(lg, q)

    def test_k5_lift_hits_every_line_automorphism(self):
        base = complete_graph(5)
        lg, emap = line_graph(base)
        lifted = {whitney_lift(p, base, emap) for p in brute_force_automorphisms(base)}
        assert len(lifted) == 120
        assert lifted == set(automorphism_group(lg).elements())

    def test_k4_exception(self):
        # the one complete graph whose line graph has extra automorphisms
        base = complete_graph(4)
        lg, emap = line_graph(base)
        lifted = {whitney_lift(p, base, emap) for p in brute_force_automorphisms(base)}
        assert len(lifted) == 24
        assert len(brute_force_automorphisms(lg)) == 48

    def test_rejects_non_automorphism(self):
        base = Graph.from_edges(3, [(0, 1), (1, 2)])
        _, emap = line_graph(base)
        with pytest.raises(ValueError):
            whitney_lift(Perm.from_cycles(3, (0, 1)), base, emap)

    def test_rejects_wrong_edge_map(self):
        base = complete_graph(4)
        _, emap = line_graph(base)
        with pytest.raises(ValueError):
            whitney_lift(Perm.identity(4), base, emap[:-1])


class TestNeighborhoodIso:
    def test_anchor_example(self):
        v = SubsetLabel.from_elements(5, [1, 2])
        phi = neighborhood_iso(5, 2, v)
        assert unrank_subset(phi[0], 5, 2) == SubsetLabel.from_elements(5, [2, 3])

    def test_images_are_neighbors_of_v(self):
        g = johnson_graph(6, 3)
        for r in range(g.n):
            phi = neighborhood_iso(6, 3, g.labels[r])
            assert set(phi) == set(neighborhood(g, r))

    def test_edge_faithful_against_independent_check(self):
        # recheck with a fresh line graph rather than trusting the function
        from jgraphs import complete_bipartite

        n, m = 6, 3
        g = johnson_graph(n, m)
        lg, _ = line_graph(complete_bipartite(m, n - m))
        for r in range(g.n):
            phi = neighborhood_iso(n, m, g.labels[r])
            assert len(set(phi)) == lg.n
            for i in range(lg.n):
                for j in range(i + 1, lg.n):
                    assert lg.has_edge(i, j) == g.has_edge(phi[i], phi[j])

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            neighborhood_iso(6, 3, SubsetLabel.from_elements(6, [1, 2]))

    def test_ranks_targets_without_the_colex_index(self, monkeypatch):
        # C(40, 20) is about 1.4e11 subsets; only the 400 targets are ranked
        def whole_index(n, m):
            raise AssertionError("built the whole colex index")

        monkeypatch.setattr(jgraphs.johnson, "_colex_index", whole_index)
        v = SubsetLabel.from_elements(40, range(1, 21))
        phi = neighborhood_iso(40, 20, v)
        assert len(set(phi)) == len(phi) == 400
        assert all(intersection_size(unrank_subset(r, 40, 20), v) == 19 for r in phi)


class TestDistanceLaw:
    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (7, 3)])
    def test_matches_bfs_everywhere(self, n, m):
        g = johnson_graph(n, m)
        for u in range(g.n):
            dist = distance_partition(g, u).dist
            for v in range(g.n):
                assert dist[v] == distance_by_intersection(g.labels[u], g.labels[v])

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            distance_by_intersection(
                SubsetLabel.from_elements(6, [1, 2]),
                SubsetLabel.from_elements(6, [1, 2, 3]),
            )


class TestIntersectionWitness:
    def test_unique_on_deep_layers(self):
        g = johnson_graph(6, 3)
        dp = distance_partition(g, 0)
        for v in range(1, g.n):
            w = unique_intersection_witness(g, 0, v)
            if dp.dist[v] >= 2:
                assert w.passed and w.layer == dp.dist[v]
                assert not w.extras

    def test_first_layer_degenerates_to_whole_layer(self):
        g = johnson_graph(6, 3)
        dp = distance_partition(g, 0)
        for v in sorted(dp.layers[1]):
            w = unique_intersection_witness(g, 0, v)
            assert not w.passed
            assert w.intersection == dp.layers[1]
            assert w.extras == dp.layers[1] - {v}

    def test_source_itself_rejected(self):
        g = johnson_graph(6, 3)
        with pytest.raises(ValueError):
            unique_intersection_witness(g, 3, 3)

    @pytest.mark.parametrize("v", [10, -1])
    def test_out_of_range_probe_rejected(self, v):
        g = johnson_graph(5, 2)
        with pytest.raises(ValueError, match=rf"vertex {v} outside 0\.\.9"):
            unique_intersection_witness(g, 0, v)

    def test_unreachable_probe_rejected(self):
        with pytest.raises(ValueError, match="vertex 1 is unreachable from 0"):
            unique_intersection_witness(Graph(2, [0, 0]), 0, 1)


# every pair the verifier covers up to n = 10, m = 2 and n < 6 included
VALID_PAIRS = [(n, m) for n in range(4, 11) for m in range(2, n // 2 + 1)]


class TestLocalReconstruction:
    @pytest.mark.parametrize("n, m", VALID_PAIRS)
    def test_identity_seed_gives_identity(self, n, m):
        # rigid outside the paper's n >= 6, m >= 3 hypothesis too, where the
        # sweep of layers >= 2 is recorded, not asserted, and still passes
        g = johnson_graph(n, m)
        dom = [0] + sorted(neighborhood(g, 0))
        f = local_reconstruction(g, 0, PartialVertexMap.identity_on(g, dom))
        assert f.is_identity()
        checks = {check.name: check for check in verify_johnson_aut(n, m).checks}
        assert checks["intersection_uniqueness"].passed

    def test_recovers_induced_action_from_restriction(self):
        g = johnson_graph(7, 3)
        rng = random.Random(31)
        for _ in range(5):
            imgs = list(range(7)); rng.shuffle(imgs)
            f = induced_action(Perm(imgs), 7, 3)
            x = rng.randrange(g.n)
            dom = [x] + sorted(neighborhood(g, x))
            seed = PartialVertexMap.restriction(g, f, dom)
            assert local_reconstruction(g, x, seed) == f

    def test_wrong_domain_rejected(self):
        g = johnson_graph(6, 3)
        seed = PartialVertexMap.identity_on(g, [0, 1])
        with pytest.raises(ValueError):
            local_reconstruction(g, 0, seed)

    def test_adjacency_breaking_seed_rejected(self):
        g = johnson_graph(6, 3)
        dom = [0] + sorted(neighborhood(g, 0))
        far = min(v for v in range(g.n) if distance_partition(g, 0).dist[v] == 2)
        images = {v: v for v in dom}
        images[dom[1]] = far
        with pytest.raises(ValueError, match="breaks adjacency"):
            local_reconstruction(g, 0, PartialVertexMap(g, images))

    def test_not_rigid_off_hypothesis(self):
        # K_{3,3}: vertices 1 and 2 are twins, so the closed neighbourhood of
        # 0 does not pin them down
        g = complete_bipartite(3, 3)
        with pytest.raises(ReconstructionError) as info:
            local_reconstruction(g, 0, PartialVertexMap.identity_on(g, {0, 3, 4, 5}))
        err = info.value
        assert (err.vertex, err.layer, err.candidates) == (1, 2, frozenset({1, 2}))

    def test_collision_on_a_taken_image(self):
        # the seed swaps 2 and 3, so vertex 4 (behind 3) takes 5, the image
        # that 5 (behind 2 and 3) is then pinned to as well
        g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)])
        with pytest.raises(
            ReconstructionError, match="vertex 5 at layer 2 collides on image 5"
        ) as info:
            local_reconstruction(g, 0, PartialVertexMap(g, {0: 0, 2: 3, 3: 2}))
        err = info.value
        assert (err.vertex, err.layer, err.candidates) == (5, 2, frozenset({5}))

    def test_vertex_without_a_candidate(self):
        # around 5 the seed swaps 3 and 4, so 0 (behind 2 and 3) needs a
        # layer-2 neighbour of 2 and 4, and 0 is the only layer-2 vertex
        g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)])
        with pytest.raises(ReconstructionError, match="vertex 0 at layer 2 has 0 candidates") as info:
            local_reconstruction(g, 5, PartialVertexMap(g, {5: 5, 1: 1, 2: 2, 3: 4, 4: 3}))
        err = info.value
        assert (err.vertex, err.layer, err.candidates) == (0, 2, frozenset())

    def test_propagated_bijection_that_is_no_automorphism(self):
        # every candidate set is a singleton and no image repeats, yet the
        # map sends the edge 4-5 inside layer 2, which propagation never
        # reads, to the non-edge 5-3
        g = Graph.from_edges(7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 6),
                                 (3, 4), (4, 5), (4, 6), (5, 6)])
        with pytest.raises(ReconstructionError, match="propagated map is not an automorphism"):
            local_reconstruction(g, 2, PartialVertexMap(g, {2: 2, 0: 6, 1: 0, 6: 1}))

    def test_layer_profiles_differ(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(
            ReconstructionError,
            match=r"layer profiles around 0 and 1 differ: \(1, 1, 1\) vs \(1, 2\)",
        ):
            local_reconstruction(g, 0, PartialVertexMap(g, {0: 1, 1: 0}))

    def test_disconnected_graph_rejected(self):
        g = Graph(2, [0, 0])
        with pytest.raises(ValueError, match="graph must be connected from the source"):
            local_reconstruction(g, 0, PartialVertexMap.identity_on(g, [0]))

    def test_partial_map_validates_injectivity(self):
        g = johnson_graph(6, 3)
        with pytest.raises(ValueError):
            PartialVertexMap(g, {0: 1, 2: 1})

    def test_restriction_round_trip(self):
        g = johnson_graph(6, 3)
        f = induced_action(Perm.from_cycles(6, (0, 1, 2)), 6, 3)
        dom = [4] + sorted(neighborhood(g, 4))
        seed = PartialVertexMap.restriction(g, f, dom)
        assert seed.respects_adjacency()
        assert dict(seed.items()) == {v: f[v] for v in dom}


class TestBipartiteAutOrder:
    def test_unequal_sides(self):
        assert bipartite_aut_order(2, 3) == 12
        assert bipartite_aut_order(3, 4) == 144

    def test_equal_sides_double(self):
        assert bipartite_aut_order(3, 3) == 72
        assert bipartite_aut_order(2, 2) == 8

    def test_matches_brute_force(self):
        from jgraphs import complete_bipartite

        for s, t in [(1, 2), (2, 2), (2, 3), (3, 3)]:
            g = complete_bipartite(s, t)
            assert bipartite_aut_order(s, t) == len(brute_force_automorphisms(g))


class TestTransitivityProfile:
    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3)])
    def test_johnson_fully_transitive(self, n, m):
        g = johnson_graph(n, m)
        prof = transitivity_profile(g, automorphism_group(g))
        assert prof.vertex and prof.edge and prof.distance

    def test_path_is_edge_but_not_vertex_transitive(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        prof = transitivity_profile(g, automorphism_group(g))
        assert not prof.vertex
        assert prof.edge
        assert not prof.distance

    def test_unbalanced_bipartite(self):
        from jgraphs import complete_bipartite

        g = complete_bipartite(2, 3)
        prof = transitivity_profile(g, automorphism_group(g))
        assert not prof.vertex and prof.edge

    def test_cycle_distance_transitive(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        prof = transitivity_profile(g, automorphism_group(g))
        assert prof.vertex and prof.edge and prof.distance

    def test_group_degree_must_match(self):
        with pytest.raises(ValueError, match="group degree 4 != vertex count 3"):
            transitivity_profile(complete_graph(3), PermGroup([], 4))

    def test_deadline(self):
        # both groups are vertex-transitive, so K5 and the edgeless E5 both
        # stop in the layer pass, before any edge is listed
        for g in (complete_graph(5), Graph(5, [0] * 5)):
            aut = automorphism_group(g)
            with pytest.raises(TimeLimitExceeded):
                transitivity_profile(g, aut, deadline=time.monotonic() - 1)
            profile = transitivity_profile(g, aut, deadline=time.monotonic() + 60)
            assert profile == transitivity_profile(g, aut)
            assert profile.vertex and profile.edge and profile.distance


def _single_orbit(gens, pairs, key=lambda pair: pair):
    start = key(pairs[0])
    seen = {start}
    queue = [start]
    while queue:
        a, b = queue.pop()
        for gen in gens:
            image = key((gen[a], gen[b]))
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen == {key(pair) for pair in pairs}


def pair_orbit_profile(g, group):
    """Slow oracle: orbit closure over all ordered pairs of vertices.

    Vertex transitivity is one orbit on the diagonal, edge transitivity
    one orbit on the unordered edges, and distance transitivity one orbit
    on every class of ordered pairs at a fixed distance (None included).
    """
    gens = [p.images for p in group.generators]
    table = [distance_partition(g, u).dist for u in range(g.n)]
    classes = {}
    for a in range(g.n):
        for b in range(g.n):
            classes.setdefault(table[a][b], []).append((a, b))
    edges = g.edges()
    return (
        _single_orbit(gens, [(v, v) for v in range(g.n)]),
        not edges or _single_orbit(gens, edges, key=lambda e: (min(e), max(e))),
        all(_single_orbit(gens, pairs) for pairs in classes.values()),
    )


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _shrikhande():
    # Cayley graph of Z4 x Z4 with connection set {±(0,1), ±(1,0), ±(1,1)}
    return Graph.from_edges(16, [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4) for b in range(4) for da, db in [(0, 1), (1, 0), (1, 1)]
    ])


def _holt():
    # Z9 x Z3 with (x, y) adjacent to (4x +- 1, y + 1): vertex- and
    # edge-transitive, not arc-transitive (Holt, J. Graph Theory 5, 1981)
    return Graph.from_edges(27, [
        (3 * x + y, 3 * ((4 * x + s) % 9) + (y + 1) % 3)
        for x in range(9) for y in range(3) for s in (1, -1)
    ])


PRISM = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
TWO_K4 = Graph.from_edges(8, [(a, b) for a, b in itertools.combinations(range(8), 2) if a // 4 == b // 4])
ORACLE_CASES = {
    # name: (graph, group or None for the full automorphism group, expected flags)
    "prism": (PRISM, None, (True, False, False)),
    "shrikhande": (_shrikhande(), None, (True, True, False)),
    "2K3": (TWO_TRIANGLES, None, (True, True, True)),
    "2K3 regular": (
        TWO_TRIANGLES,
        PermGroup([Perm.from_cycles(6, (0, 1, 2), (3, 4, 5)),
                   Perm.from_cycles(6, (0, 3), (1, 4), (2, 5))], 6),
        (True, True, False),
    ),
    "2K2 regular": (
        # every finite layer is a single vertex; only the unreachable class fails
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        PermGroup([Perm.from_cycles(4, (0, 1), (2, 3)), Perm.from_cycles(4, (0, 2), (1, 3))], 4),
        (True, True, False),
    ),
    "C6": (_cycle(6), None, (True, True, True)),
    "C6 rotations": (_cycle(6), PermGroup([Perm([1, 2, 3, 4, 5, 0])], 6), (True, True, False)),
    "petersen": (kneser_graph(5, 2), None, (True, True, True)),
    # its stabilizer splits the 4 neighbours in two, so the edge pass runs
    "holt": (_holt(), None, (True, True, False)),
    "P3": (Graph.from_edges(3, [(0, 1), (1, 2)]), None, (False, True, False)),
    "K23": (complete_bipartite(2, 3), None, (False, True, False)),
    "K1": (complete_graph(1), None, (True, True, True)),
    "C6 trivial group": (_cycle(6), PermGroup([], 6), (False, False, False)),
    "petersen trivial group": (kneser_graph(5, 2), PermGroup([], 10), (False, False, False)),
    "J(6,3)": (johnson_graph(6, 3), None, (True, True, True)),
    # small-support generators fix most edges, which the edge pass skips
    "K8": (complete_graph(8), None, (True, True, True)),
    "K44": (complete_bipartite(4, 4), None, (True, True, True)),
    "2K4": (TWO_K4, None, (True, True, True)),
    "2K4 diagonal Sym(4)": (
        # Sym(4) acting on both copies at once, and their swap: the stabilizer
        # of 0 fixes 4, so the unreachable class is not one orbit
        TWO_K4,
        PermGroup([Perm.from_cycles(8, (0, 1), (4, 5)),
                   Perm.from_cycles(8, (1, 2, 3), (5, 6, 7)),
                   Perm.from_cycles(8, (0, 4), (1, 5), (2, 6), (3, 7))], 8),
        (True, True, False),
    ),
}


class TestTransitivityAgainstPairOrbits:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_matches_oracle(self, name):
        g, group, expected = ORACLE_CASES[name]
        if group is None:
            group = automorphism_group(g)
        prof = transitivity_profile(g, group)
        flags = (prof.vertex, prof.edge, prof.distance)
        assert flags == pair_orbit_profile(g, group) == expected


EVEN_CHECKS = [
    "aut_order",
    "induced_action_injective",
    "induced_maps_are_automorphisms",
    "complement_map_involution",
    "induced_subgroup_order",
    "complement_map_outside_induced_subgroup",
    "complement_map_commutes",
    "full_group_order_with_complement_map",
    "stabilizer_index",
    "stabilizer_bound",
    "intersection_uniqueness",
    "intersection_uniqueness_first_layer",
    "vertex_transitive",
    "edge_transitive",
    "distance_transitive",
]
# no n = 2m block, but the order of the ground-set generators
ODD_CHECKS = EVEN_CHECKS[:3] + EVEN_CHECKS[4:5] + EVEN_CHECKS[8:]


class TestVerifyReport:
    def test_small_even_pair(self):
        rep = verify_johnson_aut(6, 3)
        assert rep.passed
        assert rep.aut_order == 1440 and rep.expected_order == 1440
        assert rep.stabilizer_order == 72  # 2 * (3!)^2
        assert [c.name for c in rep.checks] == EVEN_CHECKS
        assert rep.check("stabilizer_index").detail.endswith("|Aut| <= 20 x 72 = 1440")
        assert rep.check("stabilizer_bound").detail == (
            "|Aut(G[N(0)])| = 72 vs |Aut(L(K_{3,3}))| = 72 (Whitney)"
        )

    def test_odd_pair_has_no_complement_block(self):
        rep = verify_johnson_aut(7, 3)
        assert rep.passed and rep.aut_order == 5040
        assert [c.name for c in rep.checks] == ODD_CHECKS
        assert rep.stabilizer_order == 144  # 3! * 4!
        assert rep.check("stabilizer_index").detail.endswith("|Aut| <= 35 x 144 = 5040")
        assert rep.check("stabilizer_bound").detail == (
            "|Aut(G[N(0)])| = 144 vs |Aut(L(K_{3,4}))| = 144 (Whitney)"
        )

    def test_m2_uniqueness_recorded_not_asserted(self):
        rep = verify_johnson_aut(5, 2)
        iu = rep.check("intersection_uniqueness")
        assert iu.passed and not iu.asserted
        fl = rep.check("intersection_uniqueness_first_layer")
        assert not fl.passed and not fl.asserted
        assert rep.passed  # unasserted checks never gate

    def test_json_shape(self):
        rep = verify_johnson_aut(5, 2, seed=999)
        doc = rep.to_json_dict()
        assert doc["status"] == "ok"
        assert doc["aut_order"] == "120"
        assert isinstance(doc["aut_order"], str)
        assert doc["seed"] == 999
        assert all(
            set(c) == {"name", "passed", "asserted", "detail"} for c in doc["checks"]
        )

    @pytest.mark.parametrize("all_sources", [False, True])
    @pytest.mark.parametrize("n,m", [(n, m) for n, m in VALID_PAIRS if n <= 8])
    def test_json_checks_are_the_check_fields(self, n, m, all_sources):
        rep = verify_johnson_aut(n, m, all_sources=all_sources)
        assert rep.to_json_dict()["checks"] == [
            {"name": c.name, "passed": c.passed, "asserted": c.asserted, "detail": c.detail}
            for c in rep.checks
        ]

    def test_all_sources_sweep(self):
        rep = verify_johnson_aut(5, 2, all_sources=True)
        assert rep.passed
        assert "10 source(s)" in rep.check("intersection_uniqueness").detail

    @pytest.mark.parametrize("all_sources", [False, True])
    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (7, 3)])
    def test_sweep_counts_match_the_public_probe(self, n, m, all_sources):
        g = johnson_graph(n, m)
        first, deep = [0, 0], [0, 0]  # [unique, probed]
        for x in range(g.n) if all_sources else [0]:
            for v in range(g.n):
                if v != x:
                    w = unique_intersection_witness(g, x, v)
                    counts = deep if w.layer >= 2 else first
                    counts[0] += w.passed
                    counts[1] += 1
        rep = verify_johnson_aut(n, m, all_sources=all_sources)
        for name, (unique, probed) in [
            ("intersection_uniqueness", deep),
            ("intersection_uniqueness_first_layer", first),
        ]:
            assert f": {unique}/{probed} unique" in rep.check(name).detail, name

    def test_j84_all_sources_report(self):
        doc = verify_johnson_aut(8, 4, all_sources=True).to_json_dict()
        doc.pop("elapsed_seconds")
        checks = {c.pop("name"): c for c in doc.pop("checks")}
        assert doc == {
            "status": "ok", "tool_version": __version__, "n": 8, "m": 4,
            "vertex_count": 70, "degree": 16, "aut_order": "80640",
            "expected_order": "80640", "stabilizer_order": "1152",
            "stabilizer_bound": "1152", "passed": True, "seed": 1729,
        }
        assert list(checks) == EVEN_CHECKS
        assert [name for name, c in checks.items() if not c["passed"]] == [
            "intersection_uniqueness_first_layer"
        ]
        assert {name: checks[name]["detail"] for name in [
            "stabilizer_index",
            "stabilizer_bound",
            "intersection_uniqueness",
            "intersection_uniqueness_first_layer",
        ]} == {
            "stabilizer_index":
                "each vertex at layer >= 2 around vertex 0 is pinned by its back-neighbours: "
                "True; then Stab(0) embeds in Aut(G[N(0)]), so |Aut| <= 70 x 1152 = 80640",
            "stabilizer_bound": "|Aut(G[N(0)])| = 1152 vs |Aut(L(K_{4,4}))| = 1152 (Whitney)",
            "intersection_uniqueness": "layers >= 2: 3710/3710 unique over 70 source(s)",
            "intersection_uniqueness_first_layer":
                "layer 1: 0/1120 unique; recorded only, the intersection there is the whole "
                "first layer",
        }

    def test_one_bfs_per_swept_source(self, monkeypatch):
        import jgraphs.johnson

        sources = []

        def counting(g, source):
            sources.append(source)
            return distance_partition(g, source)

        monkeypatch.setattr(jgraphs.johnson, "distance_partition", counting)
        rep = verify_johnson_aut(6, 3, all_sources=True)
        assert rep.passed
        # one BFS per swept source; the transitivity checks read vertex 0's
        assert sorted(sources) == list(range(20))

    @pytest.mark.parametrize("n,m", VALID_PAIRS)
    def test_no_edge_list(self, monkeypatch, n, m):
        # edge transitivity comes from the arc argument, not an edge orbit
        def no_edges(*args):
            raise AssertionError("the verifier listed the edges")

        monkeypatch.setattr(Graph, "edges", no_edges)
        monkeypatch.setattr(jgraphs.graphs, "_edge_list", no_edges)
        assert verify_johnson_aut(n, m).passed

    @pytest.mark.parametrize("all_sources", [False, True])
    def test_one_automorphism_search(self, monkeypatch, all_sources):
        calls = []

        def counting(g, colors=None, cap=None, *, deadline=None):
            calls.append(colors)
            return automorphism_group(g, colors=colors, cap=cap, deadline=deadline)

        monkeypatch.setattr(jgraphs.johnson, "automorphism_group", counting)
        assert verify_johnson_aut(6, 3, all_sources=all_sources).passed
        assert calls == [None]

    def test_one_propagation_routine(self, monkeypatch):
        # the sweep propagates once per source, local_reconstruction once
        calls = count_calls(monkeypatch, "_propagate", jgraphs.johnson)
        assert verify_johnson_aut(6, 3, all_sources=True).passed
        assert len(calls) == 20
        del calls[:]
        g = johnson_graph(6, 3)
        local_reconstruction(g, 0, PartialVertexMap.identity_on(g, [0, *g.neighbors(0)]))
        assert len(calls) == 1

    def test_failing_reconstruction_stops_at_its_first_offender(self, monkeypatch):
        # every vertex of layer 2 of K40,40 has 39 candidates: one meet, not 39
        g = complete_bipartite(40, 40)
        seed = PartialVertexMap.identity_on(g, [0, *g.neighbors(0)])
        meets = count_calls(monkeypatch, "_meet", jgraphs.johnson)
        with pytest.raises(ReconstructionError, match="vertex 1 at layer 2 has 39 candidates"):
            local_reconstruction(g, 0, seed)
        assert len(meets) == 1

    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (7, 3), (8, 4)])
    def test_stabilizer_order_matches_coloured_search(self, n, m):
        # a coloured search of J(n, m) per source against the neighbourhood's group
        g = johnson_graph(n, m)
        order = verify_johnson_aut(n, m).stabilizer_order
        for x in (0, g.n // 2, g.n - 1):
            rest = [v for v in range(g.n) if v != x]
            assert automorphism_group(g, colors=[[x], rest]).order == order, x

    @pytest.mark.parametrize("n,m", VALID_PAIRS)
    def test_aut_order_matches_the_search(self, n, m):
        # the two bounds against a search of the whole graph, which the verifier never runs
        assert verify_johnson_aut(n, m).aut_order == automorphism_group(johnson_graph(n, m)).order

    @pytest.mark.parametrize("n,m", [(14, 7), (15, 5)])
    def test_independent_oracles(self, n, m):
        # the ground-set order and the neighbourhood's shape, re-checked outside the engine
        nx = pytest.importorskip("networkx")
        combinatorics = pytest.importorskip("sympy.combinatorics")
        ground = combinatorics.PermutationGroup([
            combinatorics.Permutation([[0, 1]], size=n),
            combinatorics.Permutation([list(range(n))], size=n),
        ])
        assert ground.order() == math.factorial(n)
        g = nx.Graph(johnson_graph(n, m).edges())
        local = g.subgraph(g[0])
        assert local.number_of_nodes() == m * (n - m)
        assert nx.vf2pp_is_isomorphic(
            local, nx.line_graph(nx.complete_bipartite_graph(m, n - m))
        )
        rep = verify_johnson_aut(n, m)
        assert rep.passed and rep.aut_order == rep.expected_order
        assert rep.expected_order == math.factorial(n) * (2 if n == 2 * m else 1)

    def test_rejects_invalid_parameters(self):
        for n, m in [(3, 1), (5, 1), (5, 3), (6, 4)]:
            with pytest.raises(ValueError):
                verify_johnson_aut(n, m)

    def test_deterministic_given_seed(self):
        a = verify_johnson_aut(6, 3, seed=5).to_json_dict()
        b = verify_johnson_aut(6, 3, seed=5).to_json_dict()
        a.pop("elapsed_seconds"); b.pop("elapsed_seconds")
        assert a == b


class TestVerifyDeadline:
    def test_short_deadline_raises(self):
        # J(16,8) takes seconds; its build alone runs far past the limit
        with pytest.raises(TimeLimitExceeded):
            verify_johnson_aut(16, 8, cap=13000, deadline=time.monotonic() + 0.01)

    @pytest.mark.parametrize("all_sources", [False, True])
    def test_deadline_none_changes_nothing(self, all_sources):
        a = verify_johnson_aut(6, 3, all_sources=all_sources).to_json_dict()
        b = verify_johnson_aut(6, 3, all_sources=all_sources, deadline=None).to_json_dict()
        a.pop("elapsed_seconds"); b.pop("elapsed_seconds")
        assert a == b

    @pytest.mark.parametrize("phase", [
        "johnson_graph", "induced_action", "distance_partition", "induced_subgraph",
        "automorphism_group", "_transitivity",
    ])
    def test_overrun_in_any_phase_raises(self, monkeypatch, phase):
        # a fake clock that one phase moves past the deadline: the check
        # after that phase, at the latest the one before returning, raises
        clock = [0.0]
        monkeypatch.setattr(jgraphs.graphs, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        assert verify_johnson_aut(6, 3, deadline=1.0).passed
        real = getattr(jgraphs.johnson, phase)

        def overrunning(*args, **kwargs):
            result = real(*args, **kwargs)
            clock[0] = 2.0
            return result

        monkeypatch.setattr(jgraphs.johnson, phase, overrunning)
        with pytest.raises(TimeLimitExceeded):
            verify_johnson_aut(6, 3, deadline=1.0)


class TestVerifyArgument:
    """The structure checks of verify_johnson_aut: their names, and that
    each one fails when the map it reasons about is faked."""

    @staticmethod
    def assert_fails(capsys, n, m, *names):
        rep = verify_johnson_aut(n, m)
        for name in names:
            assert not rep.check(name).passed, name
        assert not rep.passed
        assert cli_main(["verify", "--n", str(n), "--m", str(m)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (7, 3)])
    def test_trivial_action_fails_injectivity(self, monkeypatch, capsys, n, m):
        monkeypatch.setattr(
            jgraphs.johnson, "induced_action",
            lambda theta, n, m, cap=None: Perm.identity(binomial(n, m)),
        )
        names = ["induced_action_injective"]
        if n == 2 * m:
            # the order is carried over to the lifts only by faithfulness
            names += ["induced_subgroup_order", "full_group_order_with_complement_map"]
        self.assert_fails(capsys, n, m, *names)

    def test_klein_kernel_fails_injectivity(self, monkeypatch, capsys):
        real = jgraphs.johnson.induced_action
        klein = Perm.from_cycles(4, (0, 1), (2, 3))

        def fake(theta, n, m, cap=None):
            return Perm.identity(6) if theta == klein else real(theta, n, m, cap=cap)

        monkeypatch.setattr(jgraphs.johnson, "induced_action", fake)
        self.assert_fails(capsys, 4, 2, "induced_action_injective")

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_induced_involution_is_not_complementation(self, monkeypatch, capsys, m):
        def fake(m, cap=None):
            halves = Perm.from_cycles(2 * m, *[(i, m + i) for i in range(m)])
            return induced_action(halves, 2 * m, m)

        monkeypatch.setattr(jgraphs.johnson, "complementation_map", fake)
        self.assert_fails(
            capsys, 2 * m, m,
            "complement_map_outside_induced_subgroup",
            "full_group_order_with_complement_map",
        )

    def test_full_order_needs_complementation_outside(self, monkeypatch, capsys):
        # lifts of the standard generators faked to the identity, so the
        # induced involution below passes every premise but non-membership
        real = jgraphs.johnson.induced_action
        standard = standard_sym_generators(6)
        halves = real(Perm.from_cycles(6, (0, 3), (1, 4), (2, 5)), 6, 3)
        monkeypatch.setattr(
            jgraphs.johnson,
            "induced_action",
            lambda theta, n, m, cap=None: (
                Perm.identity(20) if theta in standard else real(theta, n, m, cap=cap)
            ),
        )
        monkeypatch.setattr(jgraphs.johnson, "complementation_map", lambda m, cap=None: halves)
        rep = verify_johnson_aut(6, 3)
        premises = ["complement_map_involution", "induced_subgroup_order", "complement_map_commutes"]
        assert all(rep.check(name).passed for name in premises)
        self.assert_fails(
            capsys, 6, 3,
            "complement_map_outside_induced_subgroup",
            "full_group_order_with_complement_map",
        )

    @pytest.mark.parametrize("n,m", [(6, 3), (7, 3), (8, 4)])
    def test_maps_conjugated_by_a_non_automorphism_fail(self, monkeypatch, capsys, n, m):
        # conjugating every map by one fixed sigma keeps injectivity, the
        # involution, commuting and order; only edge preservation is lost
        g = johnson_graph(n, m)
        sigma = Perm.from_cycles(g.n, (0, g.n - 1))
        assert not check_automorphism(g, sigma)
        real_action, real_complement = induced_action, complementation_map

        def conjugate(p):
            return compose(sigma, compose(p, sigma))

        monkeypatch.setattr(
            jgraphs.johnson, "induced_action",
            lambda theta, n, m, cap=None: conjugate(real_action(theta, n, m, cap=cap)),
        )
        monkeypatch.setattr(
            jgraphs.johnson, "complementation_map",
            lambda m, cap=None: conjugate(real_complement(m, cap=cap)),
        )
        rep = verify_johnson_aut(n, m)
        # the transitivity checks read the same lifts, so the edge orbit runs
        # onto non-edges; for n = 2m sigma swaps vertex 0 with its complement,
        # both fixed by the stabilizer lifts, so the distance layers survive
        assert [c.name for c in rep.checks if not c.passed] == [
            "aut_order",
            "induced_maps_are_automorphisms",
            *(["full_group_order_with_complement_map"] if n == 2 * m else []),
            "intersection_uniqueness_first_layer",
            "edge_transitive",
            *([] if n == 2 * m else ["distance_transitive"]),
        ]
        self.assert_fails(capsys, n, m, "induced_maps_are_automorphisms")

    @pytest.mark.parametrize("n,m", [(6, 3), (7, 3)])
    def test_stabilizer_in_place_of_the_group_fails(self, monkeypatch, capsys, n, m):
        def stabilizer(g, colors=None, cap=None, *, deadline=None):
            return automorphism_group(g, colors=[[0], range(1, g.n)], cap=cap, deadline=deadline)

        monkeypatch.setattr(jgraphs.johnson, "automorphism_group", stabilizer)
        # the one search is the neighbourhood's, transitive on its m(n - m)
        # vertices: the fake returns the stabilizer of one of them
        order = verify_johnson_aut(n, m).stabilizer_order
        assert order == bipartite_aut_order(m, n - m) // (m * (n - m))
        self.assert_fails(capsys, n, m, "stabilizer_bound", "aut_order")

    @pytest.mark.parametrize("n,m", [(6, 3), (7, 3)])
    def test_halved_bipartite_bound_fails(self, monkeypatch, capsys, n, m):
        real = jgraphs.johnson.bipartite_aut_order
        monkeypatch.setattr(jgraphs.johnson, "bipartite_aut_order", lambda s, t: real(s, t) // 2)
        self.assert_fails(capsys, n, m, "stabilizer_bound")

    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (7, 3)])
    def test_unpinned_vertex_fails_the_upper_bound(self, monkeypatch, capsys, n, m):
        # one layer-2 vertex around 0 gets a second candidate, so Stab(0) need
        # not embed in the neighbourhood's group; for m = 2 the bound still
        # rests on the sweep, though intersection_uniqueness is only recorded
        real = jgraphs.johnson._meet

        def loose(g, masks, d, v, images, image_masks):
            meet = real(g, masks, d, v, images, image_masks)
            if masks[0] == 1 and d == 2 and v == (masks[2] & -masks[2]).bit_length() - 1:
                others = masks[2] & ~(1 << v)
                meet |= others & -others
            return meet

        monkeypatch.setattr(jgraphs.johnson, "_meet", loose)
        rep = verify_johnson_aut(n, m)
        assert rep.aut_order == rep.expected_order  # the bound's value is not what fails
        self.assert_fails(capsys, n, m, "stabilizer_index", "aut_order")
        # the same rule pins vertices for local_reconstruction
        g = johnson_graph(n, m)
        with pytest.raises(ReconstructionError, match="has 2 candidates"):
            local_reconstruction(g, 0, PartialVertexMap.identity_on(g, [0, *g.neighbors(0)]))

    def test_no_sampling_and_no_bare_chain_of_vertex_degree(self, monkeypatch):
        built = []
        for module in (jgraphs.johnson, jgraphs.search):
            def recording(generators, degree, *, base=None, _cls=module.PermGroup):
                built.append((degree, base is not None))
                return _cls(generators, degree, base=base)

            monkeypatch.setattr(module, "PermGroup", recording)

        class NoDraws(random.Random):
            def __init__(self, *args):
                raise AssertionError("the verifier drew random numbers")

        monkeypatch.setattr(random, "Random", NoDraws)
        state = random.getstate()
        rep = verify_johnson_aut(8, 4)
        assert rep.passed and random.getstate() == state
        # the ground set's chain and the search of the 16-vertex neighbourhood;
        # nothing of the 70 vertices
        assert (8, False) in built and built.count((16, True)) == 1
        assert 70 not in [degree for degree, _ in built]
