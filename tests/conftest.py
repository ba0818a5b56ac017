"""Shared test corpus, a call counter and the acceptance summary hook.

CORPUS maps a short name to a constructed graph.  The small ones (at
most 10 vertices) double as oracle targets for brute-force comparison;
everything round-trips through the serializers.

test_acceptance.py records one line per criterion in
ACCEPTANCE_RECORDS; the terminal-summary hook below prints them after
the run so they show up even with output capture on.
"""

import pytest

import jgraphs.search

ACCEPTANCE_RECORDS: list[tuple[int, str]] = []


def count_calls(monkeypatch, name, module=jgraphs.search):
    """Count the calls to a function of a jgraphs module for one test."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RECORDS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_RECORDS):
        terminalreporter.write_line(line)

from jgraphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    johnson_graph,
    kneser_graph,
    line_graph,
)


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def build_corpus() -> dict[str, Graph]:
    corpus = {
        "K1": complete_graph(1),
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "K5": complete_graph(5),
        "P3": _path(3),
        "P4": _path(4),
        "C4": _cycle(4),
        "C5": _cycle(5),
        "C6": _cycle(6),
        "star4": complete_bipartite(1, 4),
        "K23": complete_bipartite(2, 3),
        "K33": complete_bipartite(3, 3),
        "two_triangles": Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        ),
        "LK4": line_graph(complete_graph(4))[0],
        "J42": johnson_graph(4, 2),
        "J52": johnson_graph(5, 2),
        "petersen": kneser_graph(5, 2),
        "J62": johnson_graph(6, 2),
        "J63": johnson_graph(6, 3),
        "J73": johnson_graph(7, 3),
        "J94": johnson_graph(9, 4),
    }
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
