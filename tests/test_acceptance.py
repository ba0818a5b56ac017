"""The acceptance gate: thirteen criteria, one printed line each.

Each test runs its criterion at the stated tolerance and records a
PASS/FAIL line; the conftest terminal-summary hook prints the lines
after the run.  Expensive group computations are cached so later
criteria reuse them, but the timing assertions in criteria 1 and 2
always see the first (uncached) computation because tests run in
definition order.
"""

import functools
import io
import json
import math
import random
import sys
import time

import jsonschema
import pytest
from importlib.resources import files as resource_files

from jgraphs import (
    ColoredPartition,
    Perm,
    automorphism_group,
    binomial,
    bipartite_aut_order,
    brute_force_automorphisms,
    complementation_map,
    complete_bipartite,
    complete_graph,
    compose,
    distance_by_intersection,
    distance_partition,
    find_isomorphism,
    group_from_generators,
    induced_action,
    johnson_graph,
    line_graph,
    local_reconstruction,
    neighborhood,
    neighborhood_iso,
    parse_graph6,
    transitivity_profile,
    unique_intersection_witness,
    verify_isomorphism,
    write_graph6,
    PartialVertexMap,
)
from jgraphs.cli import main as cli_main
from jgraphs.perms import BRUTE_FORCE_LIMIT

from conftest import ACCEPTANCE_RECORDS, build_corpus

SEED = 1729

ODD_PAIRS = [(5, 2), (6, 2), (7, 2), (7, 3), (8, 3), (9, 4)]   # n != 2m
EVEN_PAIRS = [(4, 2), (6, 3), (8, 4)]                           # n == 2m


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_RECORDS.append((number, f"criterion {number:2d} FAIL  {label}"))
                raise
            suffix = f" ({detail})" if detail else ""
            ACCEPTANCE_RECORDS.append(
                (number, f"criterion {number:2d} PASS  {label}{suffix}")
            )
        return wrapper
    return decorate


@functools.lru_cache(maxsize=None)
def graph(n, m):
    return johnson_graph(n, m)


@functools.lru_cache(maxsize=None)
def aut_with_time(n, m):
    g = graph(n, m)
    start = time.monotonic()
    group = automorphism_group(g)
    return group, time.monotonic() - start


@functools.lru_cache(maxsize=None)
def stabilizer_order(n, m):
    g = graph(n, m)
    fix_first = ColoredPartition.from_cells(g.n, [[0], range(1, g.n)])
    return automorphism_group(g, colors=fix_first).order


def induced_generators(n, m):
    return [
        induced_action(Perm.from_cycles(n, (0, 1)), n, m),
        induced_action(Perm.from_cycles(n, tuple(range(n))), n, m),
    ]


@criterion(1, "n != 2m: |Aut(J(n,m))| = n! within 30 s per pair")
def test_odd_orders():
    for n, m in ODD_PAIRS:
        group, elapsed = aut_with_time(n, m)
        assert elapsed <= 30.0, f"J({n},{m}) took {elapsed:.1f}s"
        assert group.order == math.factorial(n), (n, m, group.order)
    return "six pairs up to J(9,4)"


@criterion(2, "n = 2m: |Aut(J(n,m))| = 2*n! within 60 s per pair")
def test_even_orders():
    expected = {(4, 2): 48, (6, 3): 1440, (8, 4): 80640}
    for n, m in EVEN_PAIRS:
        group, elapsed = aut_with_time(n, m)
        assert elapsed <= 60.0, f"J({n},{m}) took {elapsed:.1f}s"
        assert group.order == expected[(n, m)] == 2 * math.factorial(n)
    return "48 / 1440 / 80640"


@criterion(3, "n = 2m structure: complement map outside, commuting, doubling")
def test_even_group_structure():
    for n, m in [(6, 3), (8, 4)]:
        gens = induced_generators(n, m)
        h = group_from_generators(gens, graph(n, m).n)
        assert h.order == math.factorial(n)
        alpha = complementation_map(m)
        assert not h.contains(alpha)

        for f in gens:
            assert compose(f, alpha) == compose(alpha, f)
        rng = random.Random(SEED)
        for _ in range(100):
            images = list(range(n))
            rng.shuffle(images)
            f = induced_action(Perm(images), n, m)
            assert compose(f, alpha) == compose(alpha, f)

        extended = group_from_generators(list(h.generators) + [alpha], h.degree)
        assert extended.order == 2 * math.factorial(n)
    return "J(6,3) and J(8,4), 100 seeded samples each"


@criterion(4, "line graphs of complete graphs match J(n,2)")
def test_line_graph_correspondence():
    for n in (5, 6, 7):
        lk, _ = line_graph(complete_graph(n))
        j = graph(n, 2)
        assert automorphism_group(lk).order == math.factorial(n)
        assert aut_with_time(n, 2)[0].order == math.factorial(n)
        iso = find_isomorphism(lk, j)
        assert iso is not None and verify_isomorphism(lk, j, iso)
    return "n = 5, 6, 7 with verified isomorphisms"


@criterion(5, "the K4 line-graph exception: 48 automorphisms, 24 lifted")
def test_whitney_exception():
    from jgraphs import whitney_lift

    base = complete_graph(4)
    lk4, edge_map = line_graph(base)
    lifted = {whitney_lift(p, base, edge_map) for p in brute_force_automorphisms(base)}
    oracle = brute_force_automorphisms(lk4)
    assert len(lifted) == 24
    assert len(oracle) == 48
    assert len(oracle) != len(lifted)
    assert lifted < set(oracle)  # the lifts are a proper subgroup
    return "brute-force oracle over the 6 line vertices"


@criterion(6, "neighborhood of every vertex is the bipartite line graph, edge for edge")
def test_neighborhood_isomorphism():
    checked = 0
    for n, m in [(6, 3), (7, 3)]:
        g = graph(n, m)
        reference, _ = line_graph(complete_bipartite(m, n - m))
        for r in range(g.n):
            phi = neighborhood_iso(n, m, g.labels[r])
            assert set(phi) == set(neighborhood(g, r))
            for i in range(reference.n):
                for j in range(i + 1, reference.n):
                    assert reference.has_edge(i, j) == g.has_edge(phi[i], phi[j])
            checked += 1
    return f"{checked} vertices, no search"


@criterion(7, "back-neighbour intersections single out each vertex on layers >= 2")
def test_intersection_uniqueness():
    pairs = 0
    for n, m in [(6, 3), (7, 3), (8, 4)]:
        g = graph(n, m)
        for x in range(g.n):
            dp = distance_partition(g, x)
            for v in range(g.n):
                if v == x:
                    continue
                witness = unique_intersection_witness(g, x, v)
                if dp.dist[v] >= 2:
                    assert witness.passed, (n, m, x, v)
                else:
                    # the formula degenerates on the first layer: the
                    # intersection is the whole layer, never the singleton
                    assert not witness.passed
                    assert witness.intersection == dp.layers[1]
                pairs += 1
    return f"{pairs} ordered pairs swept; first-layer degeneracy recorded"


@criterion(8, "reconstruction from a vertex and its neighbourhood is rigid")
def test_local_reconstruction_rigidity():
    for n, m in [(6, 3), (7, 3), (8, 4)]:
        g = graph(n, m)
        dom = [0] + sorted(neighborhood(g, 0))
        f = local_reconstruction(g, 0, PartialVertexMap.identity_on(g, dom))
        assert f.is_identity(), (n, m)

        rng = random.Random(SEED)
        for _ in range(25):
            images = list(range(n))
            rng.shuffle(images)
            target = induced_action(Perm(images), n, m)
            x = rng.randrange(g.n)
            dom = [x] + sorted(neighborhood(g, x))
            seed = PartialVertexMap.restriction(g, target, dom)
            assert local_reconstruction(g, x, seed) == target
    return "identity seeds plus 25 seeded recoveries per graph"


@criterion(9, "graph distance equals the subset-overlap rule on every pair")
def test_distance_law():
    pairs = 0
    for n, m in [(5, 2), (6, 3), (7, 3)]:
        g = graph(n, m)
        for u in range(g.n):
            dist = distance_partition(g, u).dist
            for v in range(g.n):
                assert dist[v] == distance_by_intersection(g.labels[u], g.labels[v])
                pairs += 1
    return f"{pairs} ordered pairs"


@criterion(10, "search engine matches the brute-force oracle on the small corpus")
def test_oracle_equivalence():
    names = []
    for name, g in build_corpus().items():
        if g.n > BRUTE_FORCE_LIMIT:
            continue
        oracle = brute_force_automorphisms(g)
        found = automorphism_group(g)
        assert found.order == len(oracle), name
        assert set(found.elements()) == set(oracle), name
        names.append(name)
    assert "petersen" in names and "LK4" in names
    corpus = build_corpus()
    assert len(brute_force_automorphisms(corpus["petersen"])) == 120
    assert len(brute_force_automorphisms(corpus["LK4"])) == 48
    return f"{len(names)} graphs, element sets equal"


@criterion(11, "vertex, edge and distance transitivity all hold")
def test_transitivity():
    for n, m in [(5, 2), (6, 3), (7, 3)]:
        g = graph(n, m)
        profile = transitivity_profile(g, aut_with_time(n, m)[0])
        assert profile.vertex and profile.edge and profile.distance, (n, m)
    return "J(5,2), J(6,3), J(7,3)"


@criterion(12, "stabilizer index and order identities for every checked pair")
def test_stabilizer_identities():
    for n, m in ODD_PAIRS + EVEN_PAIRS:
        full = aut_with_time(n, m)[0].order
        stab = stabilizer_order(n, m)
        assert full % stab == 0 and full // stab == binomial(n, m), (n, m)
        if n == 2 * m:
            assert stab == 2 * math.factorial(m) ** 2
        else:
            assert stab == math.factorial(m) * math.factorial(n - m)
        assert stab == (2 if n == 2 * m else 1) * math.factorial(m) * math.factorial(n - m)
        assert bipartite_aut_order(m, n - m) == stab
    return "nine pairs"


@criterion(13, "serialization round-trips and reports validate against the schema")
def test_formats_and_schema(tmp_path, capsys, monkeypatch):
    for name, g in build_corpus().items():
        text = write_graph6(g)
        assert parse_graph6(text) == g, name
        assert write_graph6(parse_graph6(text)) == text, name

    schema = json.loads(
        resource_files("jgraphs.schemas").joinpath("report.schema.json").read_text()
    )
    validator = jsonschema.Draft202012Validator(schema)

    def run_json(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        doc = json.loads(out)
        errors = list(validator.iter_errors(doc))
        assert not errors, (argv, [e.message for e in errors])
        return code, doc

    j52 = write_graph6(graph(5, 2)) + "\n"
    code, _ = run_json("aut", "-", stdin=j52)
    assert code == 0
    code, doc = run_json("verify", "--n", "5..6", "--m", "2..3")
    assert code == 0 and len(doc) == 3
    code, doc = run_json("verify", "--n", "12", "--m", "6", "--time-limit", "0.01")
    assert code == 3 and doc[0]["status"] == "timeout"
    code, _ = run_json("dist", "johnson", "6", "3")
    assert code == 0
    code, _ = run_json("dist", "complete", "4", "--all-sources")
    assert code == 0
    a = tmp_path / "a.g6"
    a.write_text(j52)
    code, doc = run_json("iso", str(a), str(a))
    assert code == 0 and doc["isomorphic"]
    return f"{len(build_corpus())} corpus graphs, five report kinds"
