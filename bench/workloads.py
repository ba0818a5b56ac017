"""Seeded operation lists for the jgraphs benchmark.

``build(workload, seed, tmp)`` turns a seed into the program's inputs
(graph6 text or CLI argument lists) and returns the operations to time,
in order.  Every operation carries the answer it must produce.  The
checks run after the timed region and, wherever that is practical, use
constructions of their own rather than the library under test.

Workloads (one caller, closed loop: the next operation starts when the
previous one returns):

- ``verify``: the paper's headline computation, ``verify_johnson_aut``
  on five (n, m) pairs.  Search dominates; one BFS per vertex.
- ``symmetric``: graphs with large symmetric cells and huge groups, plus
  two strongly regular pairs that colour refinement cannot split.  Parse,
  automorphism group, isomorphism and canonical form; no BFS at all.
- ``cli``: the commands a user runs, in-process through
  ``jgraphs.cli.main``.  The O(n^2)-BFS distance-law check dominates.

The ``symmetric`` and ``cli`` instances are small (an operation list
takes 0.8-1.7 s at its fastest on one 2.1 GHz Xeon vCPU, the slowest
operation under half a second) so that a one-minute run holds twenty or
more iterations: each operation is timed at its fastest over the
iterations, and on a shared machine that needs many samples to be steady.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from pathlib import Path
from time import perf_counter
from typing import Callable

import jgraphs as jg
import jgraphs.cli


@dataclass(frozen=True)
class Op:
    """One timed call.

    ``run(results)`` performs the call; ``results`` maps the names of the
    operations already run to what they returned.  ``check(result,
    expected, results)`` decides, after the timed region, whether the
    answer is right.
    """

    name: str
    run: Callable[[dict], object]
    expected: object
    check: Callable[[object, object, dict], bool]


@dataclass
class Outcome:
    results: dict
    errors: dict
    op_s: dict


def execute(ops, tracer=None) -> Outcome:
    """Run the operations once, in order, timing each."""
    results, errors, op_s = {}, {}, {}
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t = perf_counter()
        try:
            results[op.name] = op.run(results)
        except Exception as exc:  # the program under test failed this operation
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        op_s[op.name] = perf_counter() - t
    return Outcome(results, errors, op_s)


def failures(ops, outcome: Outcome) -> list[tuple[str, str]]:
    """(operation, reason) for every operation that raised or answered wrong."""
    failed = []
    for op in ops:
        if op.name in outcome.errors:
            failed.append((op.name, outcome.errors[op.name]))
            continue
        try:
            ok = op.check(outcome.results[op.name], op.expected, outcome.results)
        except Exception as exc:  # a malformed answer is a wrong answer
            failed.append((op.name, f"check raised {type(exc).__name__}: {exc}"))
            continue
        if not ok:
            failed.append((op.name, "wrong answer"))
    return failed


def build(workload: str, seed: int, tmp: Path) -> list[Op]:
    if workload == "verify":
        return _verify_ops(seed)
    if workload == "symmetric":
        return _symmetric_ops(seed)
    if workload == "cli":
        return _cli_ops(seed, tmp)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- helpers


def _shuffled(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel(edges, perm):
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def _edge_set(edges):
    return {(min(u, v), max(u, v)) for u, v in edges}


def johnson_edges(n, m):
    """J(n, m) with vertices in colex order of the m-subsets of 0..n-1."""
    verts = sorted(combinations(range(n), m), key=lambda s: s[::-1])
    sets = [set(s) for s in verts]
    return len(verts), [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if len(sets[i] & sets[j]) == m - 1
    ]


def line_of_complete_edges(n):
    """L(K_n) with vertices in lexicographic order of the edges of K_n."""
    base = list(combinations(range(n), 2))
    return len(base), [
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(base), 2)
        if len(set(a) & set(b)) == 1
    ]


def encode_graph6(n, edges):
    """graph6 text of a labelled graph, header-free (bench's own encoder)."""
    present = _edge_set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    size = chr(n + 63) if n <= 62 else "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    body = "".join(
        chr(int("".join(map(str, bits[k : k + 6])), 2) + 63) for k in range(0, len(bits), 6)
    )
    return size + body


def _parse_cycles(text, degree):
    images = list(range(degree))
    for part in text.strip("()").split(")("):
        if part:
            cycle = [int(x) for x in part.split()]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
    return images


# ---------------------------------------------------------------- verify


def _verify_ops(seed):
    ops = []
    for n, m in [(8, 3), (8, 4), (9, 3), (9, 4), (10, 4)]:
        expected = 2 * factorial(n) if n == 2 * m else factorial(n)
        ops.append(Op(
            f"verify_johnson_aut({n},{m})",
            lambda results, n=n, m=m: jg.verify_johnson_aut(n, m, seed=seed),
            expected,
            lambda report, exp, _: report.passed and report.aut_order == exp,
        ))
    return ops


# ---------------------------------------------------------------- symmetric


def _paley_edges(p):
    squares = {x * x % p for x in range(1, p)}
    return [(a, b) for a, b in combinations(range(p), 2) if (b - a) % p in squares]


def _cycle_edges(n):
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _shrikhande_edges():
    """Cayley graph of Z4 x Z4 on {+-(1,0), +-(0,1), +-(1,1)}: SRG(16,6,2,2)."""
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    return _edge_set(
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4) for b in range(4) for da, db in steps
    )


def _chang_edges(lk8, edge_map):
    """Seidel switch of L(K8) on a perfect matching of K8: SRG(28,12,6,4)."""
    switch = {edge_map.index(e) for e in [(0, 1), (2, 3), (4, 5), (6, 7)]}
    edges = set(lk8.edges())
    for u in switch:
        for v in range(lk8.n):
            if v not in switch:
                edges ^= {(min(u, v), max(u, v))}
    return edges


def _check_canon(form, expected, results):
    """The form relabels its own graph correctly, and equals (or differs
    from) the form of the other graph when one is named."""
    graph, other, equal = expected
    position = [0] * graph.n
    for index, v in enumerate(form.ordering):
        position[v] = index
    if sorted(form.ordering) != list(range(graph.n)):
        return False
    if tuple(_relabel(graph.edges(), position)) != tuple(form.edges):
        return False
    return other is None or (form == results[other]) == equal


def _check_iso(witness, expected, _):
    g, h = expected
    if h is None:
        return witness is None
    images = witness.images
    return sorted(images) == list(range(g.n)) and _edge_set(
        (images[u], images[v]) for u, v in g.edges()
    ) == set(h.edges())


def _symmetric_ops(seed):
    rng = random.Random(seed)
    lk8, lk8_map = jg.line_graph(jg.complete_graph(8))
    # (label, graph, exact automorphism group order)
    families = [
        ("E24", jg.Graph(24, [0] * 24), factorial(24)),
        ("K28", jg.complete_graph(28), factorial(28)),
        ("K12,12", jg.complete_bipartite(12, 12), 2 * factorial(12) ** 2),
        ("K8,14", jg.complete_bipartite(8, 14), factorial(8) * factorial(14)),
        ("Kneser(7,3)", jg.kneser_graph(7, 3), factorial(7)),
        ("L(K7)", jg.line_graph(jg.complete_graph(7))[0], factorial(7)),
        ("Paley(29)", jg.Graph.from_edges(29, _paley_edges(29)), 29 * 28 // 2),
        ("Paley(53)", jg.Graph.from_edges(53, _paley_edges(53)), 53 * 52 // 2),
        ("C60", jg.Graph.from_edges(60, _cycle_edges(60)), 120),
    ]
    # non-isomorphic pairs with equal strongly regular parameters
    pairs = [
        ("Shrikhande", jg.Graph.from_edges(16, _shrikhande_edges()), 192,
         "L(K4,4)", jg.line_graph(jg.complete_bipartite(4, 4))[0], 2 * factorial(4) ** 2),
        ("Chang", jg.Graph.from_edges(28, _chang_edges(lk8, lk8_map)), 384,
         "L(K8)", lk8, factorial(8)),
    ]

    def relabelled(g):
        h = jg.Graph.from_edges(g.n, _relabel(g.edges(), _shuffled(g.n, rng)))
        return h, jg.write_graph6(h)

    def parse(label, text, graph):
        return Op(f"parse {label}", lambda results: jg.parse_graph6(text), graph,
                  lambda g, exp, _: g == exp)

    def aut(label, order):
        key = f"parse {label}"
        return Op(f"aut {label}", lambda results: jg.automorphism_group(results[key]), order,
                  lambda group, exp, _: group.order == exp)

    def iso(a, b, ga, gb):
        ka, kb = f"parse {a}", f"parse {b}"
        return Op(f"iso {a} -> {b}",
                  lambda results: jg.find_isomorphism(results[ka], results[kb]),
                  (ga, gb), _check_iso)

    def canon(label, graph, other=None, equal=True):
        key = f"parse {label}"
        return Op(f"canon {label}", lambda results: jg.canonical_form(results[key]),
                  (graph, other and f"canon {other}", equal), _check_canon)

    ops = []
    for label, g0, order in families:
        ga, text_a = relabelled(g0)
        gb, text_b = relabelled(g0)
        b = label + "'"
        ops += [
            parse(label, text_a, ga),
            parse(b, text_b, gb),
            aut(label, order),
            iso(label, b, ga, gb),
            canon(label, ga),
            canon(b, gb, other=label, equal=True),
        ]
    for a, g0a, order_a, b, g0b, order_b in pairs:
        ga, text_a = relabelled(g0a)
        gb, text_b = relabelled(g0b)
        ops += [
            parse(a, text_a, ga),
            parse(b, text_b, gb),
            aut(a, order_a),
            aut(b, order_b),
            iso(a, b, ga, None),
            canon(a, ga),
            canon(b, gb, other=a, equal=False),
        ]
    return ops


# ---------------------------------------------------------------- cli


@lru_cache(maxsize=None)
def _schema():
    import jsonschema

    path = Path(jg.__file__).parent / "schemas" / "report.schema.json"
    return jsonschema.Draft202012Validator(json.loads(path.read_text()))


def _cli_ops(seed, tmp: Path):
    rng = random.Random(seed)
    tmp = Path(tmp)
    j83 = jg.johnson_graph(8, 3)
    perm = _shuffled(j83.n, rng)
    (tmp / "j83r.g6").write_text(
        jg.write_graph6(jg.Graph.from_edges(j83.n, _relabel(j83.edges(), perm))) + "\n",
        encoding="ascii")
    source_73 = rng.randrange(comb(7, 3))
    source_83 = rng.randrange(comb(8, 3))

    def path(name):
        return str(tmp / name)

    def report(name):
        r = json.loads((tmp / name).read_text())
        if not _schema().is_valid(r):
            raise ValueError(f"{name} does not match report.schema.json")
        return r

    def command(argv, expected, check):
        """A CLI call that must exit 0 and whose output passes check."""
        return Op(" ".join(argv).replace(str(tmp) + "/", ""),
                  lambda results: jgraphs.cli.main(argv), expected,
                  lambda code, exp, _: code == 0 and check(exp))

    def gen_matches(exp):
        name, construction, *params = exp
        n, edges = construction(*params)
        return (tmp / name).read_text().strip() == encode_graph6(n, edges)

    def aut_matches(exp):
        name, n, order = exp
        r = report(name)
        return (r["order"] == str(order) and r["vertex_count"] == n
                and r["orbit_sizes"] == [n] and all(r["transitivity"].values()))

    def iso_matches(exp):
        r = report("iso.json")
        n, edges = johnson_edges(8, 3)
        images = _parse_cycles(r["witness"], n)
        return (r["isomorphic"] is True and sorted(images) == list(range(n))
                and _edge_set((images[u], images[v]) for u, v in edges)
                == set(_relabel(edges, exp)))

    def layers(n, m):
        return [comb(m, i) * comb(n - m, i) for i in range(m + 1)]

    def dist_matches(exp):
        name, sources, sizes, law = exp
        r = report(name)
        return r["distance_law"] == law and r["sources"] == [
            {"source": s, "layer_sizes": sizes, "eccentricity": len(sizes) - 1}
            for s in sources
        ]

    def verify_matches(exp):
        r = report("verify.json")
        return [(e["n"], e["m"], e["status"], e["passed"], e["aut_order"]) for e in r] == exp

    verify_pairs = [(n, m) for n in range(6, 8) for m in range(2, 4) if 2 * m <= n]
    return [
        command(["gen", "johnson", "8", "3", "--out", path("j83.g6")],
                ("j83.g6", johnson_edges, 8, 3), gen_matches),
        command(["gen", "line-of", "complete", "9", "--out", path("lk9.g6")],
                ("lk9.g6", line_of_complete_edges, 9), gen_matches),
        command(["aut", path("j83.g6"), "--out", path("aut-j83.json")],
                ("aut-j83.json", 56, factorial(8)), aut_matches),
        command(["aut", path("lk9.g6"), "--out", path("aut-lk9.json")],
                ("aut-lk9.json", 36, factorial(9)), aut_matches),
        command(["iso", path("j83.g6"), path("j83r.g6"), "--out", path("iso.json")],
                perm, iso_matches),
        command(["dist", "johnson", "7", "3", "--source", str(source_73),
                 "--out", path("dist-j73.json")],
                ("dist-j73.json", [source_73], layers(7, 3), "agree"), dist_matches),
        command(["dist", "johnson", "8", "3", "--source", str(source_83),
                 "--out", path("dist-j83.json")],
                ("dist-j83.json", [source_83], layers(8, 3), "agree"), dist_matches),
        command(["dist", "--in", path("j83.g6"), "--all-sources",
                 "--out", path("dist-all.json")],
                ("dist-all.json", list(range(56)), layers(8, 3), "not-checked"), dist_matches),
        command(["verify", "--n", "6..7", "--m", "2..3", "--seed", str(seed),
                 "--out", path("verify.json")],
                [(n, m, "ok", True, str(2 * factorial(n) if n == 2 * m else factorial(n)))
                 for n, m in verify_pairs],
                verify_matches),
    ]
