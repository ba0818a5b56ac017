"""In-memory span recorder wrapped around the public jgraphs functions.

The wrappers live in the benchmark, not in the program: ``install()``
replaces each traced function in every ``jgraphs`` namespace that holds
it, the package root included, because ``from .graphs import
distance_partition`` binds a separate name in ``johnson`` and ``cli``.
``PermGroup`` keeps its identity; its ``__init__`` and ``contains`` are
wrapped in place.

A span is (layer, start, end, parent span index, operation id).  A
layer's self time is its spans' duration minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _graph_source(args, kwargs, result):
    return args[0].adj, args[1] if len(args) > 1 else kwargs["source"]


def _graph_colouring(args, kwargs, result):
    colors = args[1] if len(args) > 1 else kwargs.get("colors")
    return args[0].adj, colors, len(result.generators)


def _base_length(args, kwargs, result):
    return len(args[0].base)


# (module, attribute, layer, note recorded from the call and its result)
TRACED = [
    ("subsets", "unrank_subset", "subsets.unrank_subset", None),
    ("graphs", "johnson_graph", "graphs.build", None),
    ("graphs", "kneser_graph", "graphs.build", None),
    ("graphs", "line_graph", "graphs.build", None),
    ("graphs", "complete_graph", "graphs.build", None),
    ("graphs", "complete_bipartite", "graphs.build", None),
    ("graphs", "distance_partition", "graphs.distance_partition", _graph_source),
    ("search", "automorphism_group", "search.automorphism_group", _graph_colouring),
    ("search", "canonical_form", "search.canonical_form", None),
    ("search", "find_isomorphism", "search.find_isomorphism", None),
    ("search", "check_automorphism", "search.check_automorphism", None),
    ("johnson", "verify_johnson_aut", "johnson.verify_johnson_aut", None),
    ("johnson", "unique_intersection_witness", "johnson.unique_intersection_witness", None),
    ("johnson", "transitivity_profile", "johnson.transitivity_profile", None),
    ("johnson", "induced_action", "johnson.induced_action", None),
    ("formats", "parse_graph6", "formats.parse_graph6", None),
    ("formats", "write_graph6", "formats.write_graph6", None),
    ("cli", "main", "cli.main", None),
]
METHODS = [
    ("__init__", "perms.PermGroup", _base_length),
    ("contains", "perms.contains", None),
]
LAYERS = sorted({layer for _, _, layer, _ in TRACED} | {layer for _, layer, _ in METHODS})


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent, op, note]
        self.op = "setup"
        self.active = True
        self._stack = []

    def _wrap(self, layer, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        import jgraphs
        import jgraphs.cli  # noqa: F401  (cli.main is traced too)
        from jgraphs.perms import PermGroup

        modules = [m for name, m in sys.modules.items()
                   if name == "jgraphs" or name.startswith("jgraphs.")]
        for module, attribute, layer, note in TRACED:
            original = getattr(getattr(jgraphs, module), attribute)
            wrapped = self._wrap(layer, original, note)
            bound = 0
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)
                        bound += 1
            if not bound:
                raise RuntimeError(f"jgraphs.{module}.{attribute} is bound nowhere")
        for attribute, layer, note in METHODS:
            setattr(PermGroup, attribute, self._wrap(layer, getattr(PermGroup, attribute), note))

    def span_records(self):
        """Spans as JSON-ready rows: layer, start, end, parent, operation."""
        return [span[:5] for span in self.spans]

    def layer_metrics(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for (layer, start, end, _, _, _), child_s in zip(self.spans, covered):
            calls[layer] += 1
            self_s[layer] += end - start - child_s
        notes = defaultdict(list)
        for span in self.spans:
            notes[span[0]].append(span[5])
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.self_s"] = self_s[layer]
        bfs = notes["graphs.distance_partition"]
        metrics["graphs.bfs_repeat_ratio"] = len(bfs) / len(set(bfs)) if bfs else 0.0
        aut = notes["search.automorphism_group"]
        distinct = {(adj, repr(getattr(colors, "color", colors))) for adj, colors, _ in aut}
        metrics["search.aut_repeat_ratio"] = len(aut) / len(distinct) if aut else 0.0
        metrics["search.generators"] = sum(n for _, _, n in aut)
        metrics["perms.base_len"] = sum(notes["perms.PermGroup"])
        return metrics


UNITS = {"calls": "count", "self_s": "s", "bfs_repeat_ratio": "ratio",
         "aut_repeat_ratio": "ratio", "generators": "count", "base_len": "count"}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]
