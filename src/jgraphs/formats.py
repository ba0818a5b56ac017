"""Graph serialization: graph6, DOT, and plain edge lists.

graph6 is the compact ASCII encoding used by nauty and friends.  We
support reading and writing; DOT and edge lists are write-only, meant
for handing graphs to Graphviz or a spreadsheet.

A graph6 body is the upper triangle of the adjacency matrix, column by
column, written as big-endian base64 whose 64 digits are shifted to
chr(63)..chr(126).  Both directions go through one integer and
``binascii``, so the codec costs time linear in the body plus one step
per edge.
"""

from __future__ import annotations

import binascii
import re

from .graphs import Graph

GRAPH6_HEADER = ">>graph6<<"
_NOT_GRAPH6 = re.compile(r"[^?-~]")  # graph6 characters are chr(63)..chr(126)
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_FROM_GRAPH6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*", re.ASCII)
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}  # any case

# graph6 size encoding switches representation at these bounds
_SMALL_N_MAX = 62
_MEDIUM_N_MAX = 258047


def _encode_size(n: int) -> str:
    if n <= _SMALL_N_MAX:
        return chr(n + 63)
    if n <= _MEDIUM_N_MAX:
        return chr(126) + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    raise ValueError(f"graph6 encoding for n > {_MEDIUM_N_MAX} not supported (n={n})")


def write_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header, no trailing newline)."""
    size = _encode_size(g.n)  # raises on an oversized graph before any row is read
    # column j holds rows 0..j-1, row 0 first: the low j bits of adj[j], reversed
    upper = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    width = -(-len(upper) // 24) * 3  # whole base64 groups of 3 bytes
    word = int("0" + upper, 2) << (8 * width - len(upper))
    body = binascii.b2a_base64(word.to_bytes(width, "big"), newline=False)
    return size + body[: (len(upper) + 5) // 6].translate(_TO_GRAPH6).decode()


def _graph6_size(text: str) -> tuple[int, str]:
    """Vertex count and undecoded body of one graph6 string, so a caller
    can check n against a cap before the body is decoded.

    Strips surrounding whitespace and an optional ``>>graph6<<`` header;
    raises ValueError on a character outside the graph6 range or a
    malformed size field.
    """
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    bad = _NOT_GRAPH6.search(s)
    if bad:
        raise ValueError(f"invalid graph6 character {bad.group()!r}")

    if ord(s[0]) == 126:
        if len(s) < 4:
            raise ValueError("truncated graph6 size field")
        if ord(s[1]) == 126:
            raise ValueError("graph6 large-size encoding (n > 258047) not supported")
        a, b, c = (ord(ch) - 63 for ch in s[1:4])
        n = (a << 12) | (b << 6) | c
        if n <= _SMALL_N_MAX:
            raise ValueError(f"non-minimal graph6 size encoding for n={n}")
        return n, s[4:]
    return ord(s[0]) - 63, s[1:]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string.

    An optional leading ``>>graph6<<`` header is accepted and stripped;
    surrounding whitespace is ignored.  Raises ValueError on malformed
    input, including nonzero padding bits or a wrong body length.
    """
    n, body = _graph6_size(text)

    nbits = n * (n - 1) // 2
    expected_len = (nbits + 5) // 6
    if len(body) != expected_len:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {expected_len} for n={n}")

    body += "?" * (-len(body) % 4)  # "?" is the zero digit
    word = int.from_bytes(binascii.a2b_base64(body.encode().translate(_FROM_GRAPH6)), "big")
    upper = format(word, f"0{6 * len(body)}b")
    if "1" in upper[nbits:]:
        raise ValueError("nonzero padding bits in graph6 body")

    adj = [0] * n
    for j in range(1, n):
        column = upper[j * (j - 1) // 2 : j * (j + 1) // 2]
        adj[j] |= int(column[::-1], 2)
        bit = 1 << j
        i = column.find("1")
        while i >= 0:
            adj[i] |= bit
            i = column.find("1", i + 1)
    return Graph(n, tuple(adj))


def _node_name(g: Graph, v: int) -> str:
    text = str(v) if g.labels is None else str(g.labels[v])
    return text.replace("\\", "\\\\").replace('"', '\\"')


def write_dot(g: Graph, name: str = "G") -> str:
    """Render as a Graphviz DOT graph, one node and edge per line, with
    ``"`` and ``\\`` escaped in the labels; a ``name`` that is no plain DOT
    identifier, a keyword included, raises ValueError."""
    if not _DOT_ID.fullmatch(name) or name.lower() in _DOT_KEYWORDS:
        raise ValueError(f"DOT graph name must be an identifier, got {name!r}")
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f'  {v} [label="{_node_name(g, v)}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_edgelist(g: Graph) -> str:
    """Plain text: first line is the vertex count, then one edge per line."""
    lines = [str(g.n)]
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
