"""Command-line surface.

Subcommands: ``gen`` (emit a graph in graph6/DOT/edge-list form),
``aut`` (exact automorphism group of an input graph), ``verify`` (the
full structure verification over (n, m) ranges), ``dist`` (distance
layers from a source vertex), ``iso`` (isomorphism test with a checked
witness).  All JSON output conforms to schemas/report.schema.json.

``verify --time-limit`` gives each pair a ``time.monotonic()`` deadline,
checked between search nodes and phases on any thread; past it, a pair
becomes a ``timeout`` entry.  ``aut`` and ``iso`` take the same flag for
their search and exit 3 with an error line past it.

Exit codes are a stable contract: 0 success, 1 assertion failure,
2 usage error, 3 resource limit (vertex cap or wall clock).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
import time
from functools import cache

from ._version import __version__
from .graphs import (
    DEFAULT_VERTEX_CAP,
    Graph,
    TimeLimitExceeded,
    VertexCapExceeded,
    _check_cap,
    _check_deadline,
    complete_bipartite,
    complete_graph,
    distance_partition,
    johnson_graph,
    kneser_graph,
    line_graph,
)
from .johnson import (
    DEFAULT_SEED,
    _valid_pair,
    transitivity_profile,
    verify_johnson_aut,
)
from .formats import _graph6_size, parse_graph6, write_dot, write_edgelist, write_graph6
from .search import automorphism_group, find_isomorphism
from .subsets import binomial

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CAP_ENV_VAR = "JGRAPHS_CAP"
DEFAULT_TIME_LIMIT = 60.0

FAMILY_PARAM_COUNTS = {"johnson": 2, "kneser": 2, "complete": 1, "bipartite": 2}


def _resolve_cap(args) -> int:
    if getattr(args, "cap", None) is not None:
        cap = args.cap
    else:
        raw = os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_VERTEX_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"vertex cap must be positive, got {cap}")
    return cap


def _time_limit(args) -> float:
    """The validated ``--time-limit`` in seconds; 0 means no limit."""
    # no NaN, no infinity, no negative and nothing beyond the platform's longest wait
    if not (math.isfinite(args.time_limit) and 0 <= args.time_limit <= threading.TIMEOUT_MAX):
        raise ValueError(
            f"--time-limit must be finite, from 0 to {threading.TIMEOUT_MAX:g} s, "
            f"got {args.time_limit}"
        )
    return args.time_limit


def _deadline(limit: float) -> float | None:
    """A ``time.monotonic()`` deadline ``limit`` seconds from now; None for 0."""
    return time.monotonic() + limit if limit else None


def _build_family(tokens: list[str], cap: int) -> tuple[Graph, str, list[str]]:
    """Construct a graph from family tokens; returns (graph, family, leftovers).

    line-of recurses, so ``line-of complete 4`` builds L(K_4).  Every
    builder checks its vertex count against the cap before it builds.
    """
    if not tokens:
        raise ValueError("missing graph family (johnson|kneser|complete|bipartite|line-of)")
    name, rest = tokens[0], tokens[1:]
    if name == "line-of":
        base, _, rest = _build_family(rest, cap)
        lg, _ = line_graph(base, cap=cap)
        return lg, name, rest
    if name not in FAMILY_PARAM_COUNTS:
        raise ValueError(f"unknown graph family {name!r}")
    want = FAMILY_PARAM_COUNTS[name]
    if len(rest) < want:
        raise ValueError(f"family {name!r} takes {want} integer parameter(s)")
    try:
        params = [int(tok) for tok in rest[:want]]
    except ValueError:
        raise ValueError(f"family {name!r} parameters must be integers, got {rest[:want]}") from None
    rest = rest[want:]
    if name == "johnson":
        g = johnson_graph(params[0], params[1], cap=cap)
    elif name == "kneser":
        g = kneser_graph(params[0], params[1], cap=cap)
    elif name == "complete":
        g = complete_graph(params[0], cap=cap)
    else:
        g = complete_bipartite(params[0], params[1], cap=cap)
    return g, name, rest


def _family_from_args(tokens: list[str], cap: int) -> tuple[Graph, str]:
    g, family, leftovers = _build_family(list(tokens), cap)
    if leftovers:
        raise ValueError(f"unexpected trailing arguments: {leftovers}")
    return g, family


def _read_graph(path: str, cap: int) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
    _check_cap(_graph6_size(text)[0], cap)
    return parse_graph6(text)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _parse_range(text: str) -> list[int]:
    """Parse '7' or '5..8' (inclusive on both ends)."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ValueError(f"bad range {text!r}, expected A..B") from None
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ValueError(f"bad range {text!r}, expected an integer or A..B") from None


def cmd_gen(args) -> int:
    cap = _resolve_cap(args)
    g, _ = _family_from_args(args.family, cap)
    if args.format == "graph6":
        _emit(write_graph6(g) + "\n", args.out)
    elif args.format == "dot":
        _emit(write_dot(g), args.out)
    else:
        _emit(write_edgelist(g), args.out)
    return EXIT_OK


def cmd_aut(args) -> int:
    cap = _resolve_cap(args)
    limit = _time_limit(args)
    g = _read_graph(args.graph, cap)
    deadline = _deadline(limit)
    aut = automorphism_group(g, cap=cap, deadline=deadline)
    _check_deadline(deadline)
    profile = transitivity_profile(g, aut, deadline=deadline)
    report = {
        "status": "ok",
        "tool_version": __version__,
        "seed": args.seed,
        "vertex_count": g.n,
        "edge_count": g.edge_count(),
        "order": str(aut.order),
        "generators": [p.cycle_string() for p in aut.generators],
        "orbit_sizes": [len(orbit) for orbit in aut.orbits()],
        "transitivity": dict(vars(profile)),
    }
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    cap = _resolve_cap(args)
    limit = _time_limit(args)
    pairs = [
        (n, m)
        for n in _parse_range(args.n)
        for m in _parse_range(args.m)
        if _valid_pair(n, m)
    ]
    if not pairs:
        raise ValueError(f"no valid (n, m) pairs in n={args.n} m={args.m}")
    # binomial rejects a ground set above MAX_GROUND_SET as a usage error
    offenders = []
    for n, m in pairs:
        try:
            _check_cap(binomial(n, m), cap)
        except VertexCapExceeded as exc:
            offenders.append(f"({n},{m}): {exc}")
    if offenders:
        raise VertexCapExceeded("; ".join(offenders))

    entries = []
    timed_out = failed = False
    for n, m in sorted(pairs):
        try:
            report = verify_johnson_aut(
                n, m, cap=cap, seed=args.seed, all_sources=args.all_sources,
                deadline=_deadline(limit),
            )
        except TimeLimitExceeded:
            timed_out = True
            entries.append({
                "status": "timeout",
                "tool_version": __version__,
                "n": n,
                "m": m,
                "time_limit_seconds": limit,
            })
            continue
        failed = failed or not report.passed
        entries.append(report.to_json_dict())
    _emit_json(entries, args.out)
    if timed_out:
        return EXIT_RESOURCE
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_dist(args) -> int:
    cap = _resolve_cap(args)
    if bool(args.family) == (args.infile is not None):
        raise ValueError("give either a graph family or --in PATH, not both")
    if args.family:
        g, family = _family_from_args(args.family, cap)
    else:
        g, family = _read_graph(args.infile, cap), None

    if args.all_sources:
        sources = range(g.n)
    else:
        if not 0 <= args.source < g.n:
            raise ValueError(f"source {args.source} out of range for {g.n} vertices")
        sources = [args.source]

    # one BFS per vertex serves both the per-source entries and the
    # distance-law check; without the check only the sources are searched
    checked = family == "johnson"
    parts = {x: distance_partition(g, x) for x in (range(g.n) if checked else sources)}
    entries = [
        {
            "source": x,
            "layer_sizes": list(parts[x].layer_sizes),
            "eccentricity": parts[x].eccentricity,
        }
        for x in sources
    ]

    # cross-check the subset-intersection distance law on every ordered
    # pair when we know the input is a Johnson graph (family form only; a
    # graph6 file carries no label information)
    if checked:
        m = g.labels[0].m
        masks = [label.mask for label in g.labels]
        agrees = all(
            d == m - (masks[u] & masks[v]).bit_count()
            for u, part in parts.items()
            for v, d in enumerate(part.dist)
        )
        verdict = "agree" if agrees else "mismatch"
    else:
        verdict = "not-checked"

    report = {
        "status": "ok",
        "tool_version": __version__,
        "vertex_count": g.n,
        "sources": entries,
        "distance_law": verdict,
    }
    _emit_json(report, args.out)
    return EXIT_ASSERTION if verdict == "mismatch" else EXIT_OK


def cmd_iso(args) -> int:
    cap = _resolve_cap(args)
    limit = _time_limit(args)
    g = _read_graph(args.g, cap)
    h = _read_graph(args.h, cap)
    p = find_isomorphism(g, h, cap=cap, deadline=_deadline(limit))
    report = {
        "status": "ok",
        "tool_version": __version__,
        "isomorphic": p is not None,
    }
    if p is not None:
        report["witness"] = p.cycle_string()
    _emit_json(report, args.out)
    return EXIT_OK


def _add_common(parser, *, seed=False, time_limit=None) -> None:
    """Add the shared flags; ``time_limit`` names what the limit covers."""
    parser.add_argument("--cap", type=int, default=None,
                        help=f"vertex cap (default: ${CAP_ENV_VAR} or {DEFAULT_VERTEX_CAP})")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    if seed:
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help="seed recorded in the report; no check draws from it")
    if time_limit:
        parser.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT,
                            help=f"wall-clock seconds {time_limit}, 0 disables")


@cache  # built once per process; each parse_args call fills a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jgraphs",
        description="Johnson graphs and friends: generate, analyze, verify.",
    )
    parser.add_argument("--version", action="version", version=f"jgraphs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a graph from a named family")
    p_gen.add_argument("family", nargs="+",
                       help="johnson N M | kneser N M | complete N | bipartite S T | line-of FAMILY ...")
    p_gen.add_argument("--format", choices=("graph6", "dot", "edgelist"), default="graph6")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_aut = sub.add_parser("aut", help="exact automorphism group of a graph6 input")
    p_aut.add_argument("graph", help="graph6 file path, or - for stdin")
    _add_common(p_aut, seed=True, time_limit="for the search")
    p_aut.set_defaults(func=cmd_aut)

    p_verify = sub.add_parser("verify", help="run the structure verification over (n, m) ranges")
    p_verify.add_argument("--n", required=True, help="ground-set sizes, e.g. 7 or 5..8")
    p_verify.add_argument("--m", required=True, help="subset sizes, e.g. 3 or 2..4")
    p_verify.add_argument("--all-sources", action="store_true",
                          help="sweep every source vertex in the layer checks")
    _add_common(p_verify, seed=True, time_limit="per (n, m) pair")
    p_verify.set_defaults(func=cmd_verify)

    p_dist = sub.add_parser("dist", help="distance layers from a source vertex")
    p_dist.add_argument("family", nargs="*",
                        help="graph family as in gen; or use --in")
    p_dist.add_argument("--in", dest="infile", default=None,
                        help="graph6 file path, or - for stdin")
    p_dist.add_argument("--source", type=int, default=0)
    p_dist.add_argument("--all-sources", action="store_true",
                        help="report layers from every vertex")
    _add_common(p_dist)
    p_dist.set_defaults(func=cmd_dist)

    p_iso = sub.add_parser("iso", help="isomorphism test with a verified witness")
    p_iso.add_argument("g", help="first graph6 file path, or - for stdin")
    p_iso.add_argument("h", help="second graph6 file path")
    _add_common(p_iso, time_limit="for the search")
    p_iso.set_defaults(func=cmd_iso)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (VertexCapExceeded, TimeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
