import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from jgraphs import (
    Graph,
    complete_graph,
    johnson_graph,
    line_graph,
    parse_graph6,
    write_dot,
    write_edgelist,
    write_graph6,
)

from conftest import build_corpus


class TestGraph6Write:
    def test_frozen_values(self):
        assert write_graph6(complete_graph(3)) == "Bw"
        assert write_graph6(complete_graph(4)) == "C~"
        assert write_graph6(Graph.from_edges(3, [(0, 1), (1, 2)])) == "Bg"

    def test_single_vertex(self):
        assert write_graph6(complete_graph(1)) == "@"

    def test_no_header_emitted(self):
        assert not write_graph6(complete_graph(5)).startswith(">>")

    def test_medium_size_prefix(self):
        g = johnson_graph(9, 4)  # 126 vertices forces the long form
        s = write_graph6(g)
        assert s[0] == chr(126)
        assert (ord(s[1]) - 63, ord(s[2]) - 63, ord(s[3]) - 63) == (0, 1, 62)

    def test_oversized_graph_fails_before_any_row_is_read(self):
        # a real graph this size takes seconds to build and its body would
        # be about 33 GB, so a stand-in whose rows cannot be read is encoded
        class RowRead(Exception):
            pass

        class Rows:
            def __getitem__(self, j):
                raise RowRead(j)

        with pytest.raises(ValueError, match="graph6 encoding for n > 258047 not supported"):
            write_graph6(SimpleNamespace(n=258048, adj=Rows()))


class TestGraph6Parse:
    def test_round_trip_corpus(self):
        for name, g in build_corpus().items():
            assert parse_graph6(write_graph6(g)) == g, name

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<Bw") == complete_graph(3)
        assert parse_graph6("  Bw \n") == complete_graph(3)

    def test_rejects_malformed(self):
        bad_inputs = [
            "",                      # empty
            "B",                     # missing body
            "Bwx",                   # extra body byte
            "B w",                   # character below range
            "B\x7f",                 # character above range
            chr(126) + "??",         # truncated size field
            chr(126) + chr(126) + "????",  # unsupported huge form
        ]
        for text in bad_inputs:
            with pytest.raises(ValueError):
                parse_graph6(text)

    def test_rejects_nonzero_padding(self):
        # P3 with a stray bit set in the padding region
        with pytest.raises(ValueError):
            parse_graph6("Bh")

    def test_rejects_non_minimal_size_encoding(self):
        # n=3 written in the medium form must not be accepted
        text = chr(126) + chr(63) + chr(63) + chr(66) + "w"
        with pytest.raises(ValueError):
            parse_graph6(text)

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            parse_graph6("?")

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(1, 20))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(possible), max_size=40)) if possible else []
        g = Graph.from_edges(n, chosen)
        assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_across_size_boundary(self):
        rng = random.Random(17)
        for n in (62, 63, 64):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.1
            ]
            g = Graph.from_edges(n, edges)
            assert parse_graph6(write_graph6(g)) == g


def assert_networkx_graph6_agrees(g):
    nx = pytest.importorskip("networkx")
    decoded = nx.from_graph6_bytes(write_graph6(g).encode())
    assert decoded.number_of_nodes() == g.n
    assert {(min(u, v), max(u, v)) for u, v in decoded.edges()} == set(g.edges())
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    assert parse_graph6(nx.to_graph6_bytes(h, header=False).decode().strip()) == g


class TestGraph6Networkx:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random(self, data):
        n = data.draw(st.integers(1, 20))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(possible), max_size=40)) if possible else []
        assert_networkx_graph6_agrees(Graph.from_edges(n, chosen))

    def test_families_and_long_size_form(self):
        rng = random.Random(63)
        edges = [(u, v) for u in range(70) for v in range(u + 1, 70) if rng.random() < 0.2]
        for g in (johnson_graph(8, 3), line_graph(complete_graph(9))[0], Graph.from_edges(70, edges)):
            assert_networkx_graph6_agrees(g)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_bit_alignment(self, n):
        # n in 1..40 gives n(n-1)/2 every residue mod 24 (one base64 group) it can take
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        padding = -len(pairs) % 6
        for edges in ([], pairs, [e for e in pairs if rng.random() < 0.5]):
            g = Graph.from_edges(n, edges)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges)
            text = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert write_graph6(g) == text
            assert parse_graph6(text) == g
            for k in range(padding):
                with pytest.raises(ValueError, match="nonzero padding bits"):
                    parse_graph6(text[:-1] + chr(63 + ((ord(text[-1]) - 63) | (1 << k))))


class TestDot:
    def test_labels_used_when_present(self):
        text = write_dot(johnson_graph(4, 2))
        assert 'label="{1,2}"' in text
        assert text.startswith("graph G {")
        assert text.rstrip().endswith("}")

    def test_indices_when_unlabeled(self):
        text = write_dot(complete_graph(3))
        assert 'label="0"' in text
        assert "0 -- 1;" in text

    def test_edge_count(self):
        text = write_dot(complete_graph(4))
        assert text.count("--") == 6

    def test_subset_labels_byte_for_byte(self):
        assert write_dot(johnson_graph(3, 1)) == (
            'graph G {\n  0 [label="{1}"];\n  1 [label="{2}"];\n  2 [label="{3}"];\n'
            "  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n"
        )

    def test_quote_and_backslash_escaped(self):
        text = write_dot(Graph(2, (2, 1), labels=['a"b', "c\\d"]), name="my_graph_2")
        assert text.splitlines() == [
            "graph my_graph_2 {", '  0 [label="a\\"b"];', '  1 [label="c\\\\d"];', "  0 -- 1;", "}",
        ]

    @pytest.mark.parametrize("name", ["my graph", "", "2G", "G-1", "G;", "Gé", "node", "Graph"])
    def test_rejects_a_name_that_is_no_identifier(self, name):
        with pytest.raises(ValueError, match="DOT graph name must be an identifier"):
            write_dot(complete_graph(2), name=name)


class TestEdgeList:
    def test_shape(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert write_edgelist(g) == "3\n0 1\n1 2\n"

    def test_edgeless(self):
        assert write_edgelist(Graph(2, (0, 0))) == "2\n"
