import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import jgraphs.perms
from jgraphs import (
    Perm,
    PermGroup,
    automorphism_group,
    brute_force_automorphisms,
    complete_bipartite,
    complete_graph,
    compose,
    group_from_generators,
    inverse,
    johnson_graph,
    kneser_graph,
)
from jgraphs.graphs import Graph

from conftest import count_calls


def perms(degree):
    return st.permutations(range(degree)).map(Perm)


class TestPerm:
    def test_identity(self):
        e = Perm.identity(4)
        assert e.is_identity()
        assert e.cycle_string() == "()"
        assert [e[i] for i in range(4)] == [0, 1, 2, 3]

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])
        with pytest.raises(ValueError):
            Perm([0, 2])

    def test_compose_applies_right_factor_first(self):
        # (0 1) after (1 2) sends 1 -> 2 first, then leaves 2 fixed: 1 -> 2
        p = Perm.from_cycles(3, (0, 1))
        q = Perm.from_cycles(3, (1, 2))
        assert compose(p, q) == Perm.from_cycles(3, (0, 1, 2))

    def test_inverse(self):
        p = Perm.from_cycles(4, (0, 1, 2))
        assert compose(p, inverse(p)).is_identity()
        assert compose(inverse(p), p).is_identity()

    def test_cycle_string_format(self):
        p = Perm.from_cycles(5, (0, 1), (2, 3, 4))
        assert p.cycle_string() == "(0 1)(2 3 4)"
        # fixed points are omitted
        assert Perm.from_cycles(5, (3, 4)).cycle_string() == "(3 4)"

    def test_parse_round_trip(self):
        for text in ["()", "(0 1)", "(0 1)(2 3 4)", "(1 4)(2 3)"]:
            p = Perm.parse(text, 5)
            assert p.cycle_string() == text

    def test_parse_rejects_garbage(self):
        for bad in ["", "0 1", "(0 1", "(0 0)", "(0 9)", "(0 1)(1 2)"]:
            with pytest.raises(ValueError):
                Perm.parse(bad, 5)

    def test_from_cycles_rejects_repeats(self):
        with pytest.raises(ValueError):
            Perm.from_cycles(4, (0, 1), (1, 2))

    @given(st.data())
    def test_compose_associative(self, data):
        n = data.draw(st.integers(2, 8))
        p, q, r = (data.draw(perms(n)) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(st.data())
    def test_cycle_string_round_trip(self, data):
        n = data.draw(st.integers(1, 10))
        p = data.draw(perms(n))
        assert Perm.parse(p.cycle_string(), n) == p


class TestPermGroup:
    def test_symmetric_group_order(self):
        for n in range(2, 7):
            gens = [Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))]
            g = group_from_generators(gens, n)
            assert g.order == math.factorial(n)
        assert group_from_generators([Perm.identity(1)], 1).order == 1

    def test_cyclic_group(self):
        g = group_from_generators([Perm.from_cycles(5, (0, 1, 2, 3, 4))], 5)
        assert g.order == 5
        assert g.orbit(0) == frozenset(range(5))

    def test_trivial_group(self):
        g = group_from_generators([], 4)
        assert g.order == 1
        assert g.contains(Perm.identity(4))
        assert not g.contains(Perm.from_cycles(4, (0, 1)))

    def test_contains_matches_element_listing(self):
        gens = [Perm.from_cycles(4, (0, 1, 2, 3)), Perm.from_cycles(4, (1, 3))]
        g = group_from_generators(gens, 4)  # dihedral of order 8
        assert g.order == 8
        members = set(g.elements())
        assert len(members) == 8
        for p in map(Perm, itertools.permutations(range(4))):
            assert g.contains(p) == (p in members)

    def test_wreath_like_group(self):
        # two independent 3-cycles plus the swap between them: order 3*3*2
        gens = [
            Perm.from_cycles(6, (0, 1, 2)),
            Perm.from_cycles(6, (3, 4, 5)),
            Perm.from_cycles(6, (0, 3), (1, 4), (2, 5)),
        ]
        g = group_from_generators(gens, 6)
        assert g.order == 18

    def test_elements_multiply_back_into_group(self):
        gens = [Perm.from_cycles(5, (0, 1)), Perm.from_cycles(5, (0, 1, 2, 3, 4))]
        g = group_from_generators(gens, 5)
        elems = list(g.elements())
        assert len(elems) == 120
        sample = elems[::17]
        for p in sample:
            for q in sample:
                assert g.contains(compose(p, q))

    def test_alternating_subgroup(self):
        # 3-cycles generate A_5, order 60
        gens = [Perm.from_cycles(5, (0, 1, 2)), Perm.from_cycles(5, (2, 3, 4))]
        g = group_from_generators(gens, 5)
        assert g.order == 60
        assert not g.contains(Perm.from_cycles(5, (0, 1)))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            group_from_generators([Perm.identity(3)], 4)

    @pytest.mark.parametrize(
        "gens,degree",
        [
            ([Perm.from_cycles(6, (0, 1)), Perm.from_cycles(6, tuple(range(6)))], 6),
            ([Perm.from_cycles(4, (0, 1, 2, 3)), Perm.from_cycles(4, (1, 3))], 4),
            ([Perm.from_cycles(5, (0, 1, 2)), Perm.from_cycles(5, (2, 3, 4))], 5),
            ([Perm.from_cycles(6, (0, 1, 2, 3, 4, 5))], 6),
        ],
    )
    def test_base_stabilizer_generators(self, gens, degree):
        g = group_from_generators(gens, degree)
        b = g.base[0]
        stab = g.base_stabilizer_generators
        assert all(p[b] == b and g.contains(p) for p in stab)
        # orbit-stabilizer: the generators give the whole stabilizer
        assert group_from_generators(stab, degree).order * len(g.orbit(b)) == g.order
        stabilizer = {p for p in g.elements() if p[b] == b}
        assert set(group_from_generators(stab, degree).elements()) == stabilizer

    def test_base_stabilizer_generators_of_trivial_group(self):
        g = group_from_generators([], 4)
        assert g.base == () and g.base_stabilizer_generators == ()


def orbit_partition(group):
    """The orbits as orbit() gives them, ordered by smallest member."""
    out = []
    for v in range(group.degree):
        if not any(v in orbit for orbit in out):
            out.append(group.orbit(v))
    return tuple(out)


class TestOrbits:
    def test_match_orbit_on_the_corpus(self, corpus):
        for name, g in corpus.items():
            aut = automorphism_group(g)
            assert aut.orbits() == orbit_partition(aut), name

    def test_trivial_group_has_singletons(self):
        assert PermGroup([], 6).orbits() == tuple(frozenset([v]) for v in range(6))

    def test_intransitive_group(self):
        aut = automorphism_group(complete_bipartite(3, 4))
        assert aut.orbits() == (frozenset(range(3)), frozenset(range(3, 7)))
        assert aut.orbits() == orbit_partition(aut)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_closure_stopped_at_until_meets_it_as_the_full_one(self, data):
        # the search's orbit pass stops once the orbit holds every candidate
        n = data.draw(st.integers(1, 12))
        gens = [p.images for p in data.draw(st.lists(perms(n), max_size=4))]
        start, until = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=2))
        full = jgraphs.perms._orbit_mask(gens, start)
        early = jgraphs.perms._orbit_mask(gens, start, until)
        assert early & until == full & until
        assert start & ~early == 0 and early & ~full == 0


class TestSeededChain:
    # Sym(4) relative to the base (0, 1, 2): the generators that fix
    # 0..i-1 generate the pointwise stabilizer of 0..i-1
    SYM4 = [
        Perm.from_cycles(4, (0, 1, 2, 3)),
        Perm.from_cycles(4, (1, 2, 3)),
        Perm.from_cycles(4, (2, 3)),
    ]

    def test_matches_schreier_sims(self):
        seeded = PermGroup(self.SYM4, 4, base=(0, 1, 2))
        full = group_from_generators(self.SYM4, 4)
        assert seeded.order == full.order == 24
        assert seeded.base == (0, 1, 2)
        assert seeded.generators == tuple(self.SYM4)
        assert set(seeded.elements()) == set(full.elements())
        assert seeded.base_stabilizer_generators == tuple(self.SYM4[1:])

    def test_levels_without_generators_are_dropped(self):
        # (2 3) is the only generator: the levels of 0 and 1 are empty
        g = PermGroup([Perm.from_cycles(4, (2, 3))], 4, base=(0, 1, 2))
        assert g.base == (2,) and g.order == 2
        assert PermGroup([], 4, base=(0, 1)).order == 1

    def test_generator_fixing_every_base_point_rejected(self):
        with pytest.raises(ValueError, match="fixes every base point"):
            PermGroup([Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (2, 3))], 4, base=(0, 1))
        with pytest.raises(ValueError, match="fixes every base point"):
            PermGroup([Perm.identity(3)], 3, base=(0,))

    @pytest.mark.parametrize("base", [(0, 0, 1), (0, 4), (-1,)])
    def test_malformed_base_rejected(self, base):
        with pytest.raises(ValueError):
            PermGroup(self.SYM4, 4, base=base)


class TestChainOrder:
    """The order comes from a union-find over the points, deepest level
    first; it must equal the number of elements the chain enumerates."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_element_count(self, seed):
        rng = random.Random(seed)
        degree = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(0, 3)):
            images = list(range(degree))
            # a random shuffle of a random subset: small supports give
            # intransitive groups with several levels and orbits
            points = rng.sample(range(degree), rng.randint(0, degree))
            moved = points[:]
            rng.shuffle(moved)
            for p, q in zip(points, moved):
                images[p] = q
            gens.append(Perm(images))
        unseeded = group_from_generators(gens, degree)
        assert unseeded.order == len(list(unseeded.elements()))
        strong = [Perm(g) for level in unseeded._levels for g in level.gens]
        seeded = PermGroup(strong, degree, base=unseeded.base)
        assert seeded.order == len(list(seeded.elements())) == unseeded.order

    def test_consecutive_transpositions_of_degree_600(self):
        gens = [Perm.from_cycles(600, (i, i + 1)) for i in range(599)]
        assert PermGroup(gens, 600, base=range(599)).order == math.factorial(600)


def family(kind, n):
    """Generators of a named group of degree n (S2 wr S4 has degree 8)."""
    if kind == "symmetric":
        return [Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))]
    if kind == "alternating":  # the 3-cycles (i i+1 i+2) generate Alt(n)
        return [Perm.from_cycles(n, (i, i + 1, i + 2)) for i in range(n - 2)]
    if kind == "dihedral":
        return [Perm.from_cycles(n, tuple(range(n))), Perm([-i % n for i in range(n)])]
    # S2 wr S4: any swap inside the blocks {0, 1}, ..., {6, 7}, and Sym(4) on the blocks
    return [
        Perm.from_cycles(8, (0, 1)),
        Perm.from_cycles(8, (0, 2, 4, 6), (1, 3, 5, 7)),
        Perm.from_cycles(8, (0, 2), (1, 3)),
    ]


@st.composite
def generator_sets(draw):
    """A named group or 1-3 random permutations, of degree 2-9, relabelled
    by a random permutation so that the base is not always 0, 1, ..."""
    kind = draw(st.sampled_from(["random", "symmetric", "alternating", "dihedral", "wreath"]))
    n = 8 if kind == "wreath" else draw(st.integers(2 if kind in ("random", "symmetric") else 3, 9))
    if kind == "random":
        gens = draw(st.lists(perms(n), min_size=1, max_size=3))
    else:
        gens = family(kind, n)
    p = draw(perms(n))
    return n, [compose(p, compose(g, inverse(p))) for g in gens]


class TestSymmetricStop:
    """Schreier-Sims stops once the partial chain's order reaches n!, the
    largest order of degree n; sympy is the oracle on groups that reach it
    and on groups that do not."""

    @settings(deadline=None)
    @given(generator_sets(), st.data())
    def test_order_and_membership_match_sympy(self, drawn, data):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        n, gens = drawn
        group = group_from_generators(gens, n)
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens]
        )
        assert group.order == oracle.order()
        word = data.draw(st.lists(st.sampled_from(gens), max_size=6))
        member = Perm.identity(n)
        for g in word:
            member = compose(g, member)
        assert group.contains(member)
        for p in [member, *data.draw(st.lists(perms(n), min_size=1, max_size=4))]:
            assert group.contains(p) == oracle.contains(combinatorics.Permutation(list(p.images)))
        if n <= 5:
            elements = list(group.elements())
            assert len(elements) == len(set(elements)) == group.order

    @pytest.mark.parametrize("n", range(4, 19))
    def test_standard_generators_keep_the_chain(self, n):
        # base (0, 1, 2, n-2, ..., 3) and the per-level generator counts of the full pass
        group = group_from_generators(family("symmetric", n), n)
        assert group.base == (0, 1, 2, *range(n - 2, 2, -1))
        assert [len(level.gens) for level in group._levels] == [2, 1, 1, *[2] * (n - 5), 1][:n - 1]
        assert group.order == math.factorial(n)

    def test_sifts_at_degree_10(self, monkeypatch):
        sifts = count_calls(monkeypatch, "_sift", jgraphs.perms)
        group = group_from_generators(family("symmetric", 10), 10)
        assert group.order == math.factorial(10)
        assert len(sifts) <= 150  # 493 without the stop, 115 with it


class TestBruteForce:
    def test_complete_graph(self):
        auts = brute_force_automorphisms(complete_graph(4))
        assert len(auts) == 24

    def test_path(self):
        auts = brute_force_automorphisms(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert sorted(p.cycle_string() for p in auts) == ["()", "(0 2)"]

    def test_petersen_order(self):
        assert len(brute_force_automorphisms(kneser_graph(5, 2))) == 120

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            brute_force_automorphisms(johnson_graph(6, 3))

    def test_every_result_is_an_automorphism(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        auts = brute_force_automorphisms(g)
        assert len(auts) == 10
        for p in auts:
            for u, v in g.edges():
                assert g.has_edge(p[u], p[v])
