import io
import json
import subprocess
import sys
import threading
import time

import jsonschema
import pytest
from importlib.resources import files as resource_files

from jgraphs import (
    Graph,
    automorphism_group,
    complement,
    complete_bipartite,
    complete_graph,
    distance_partition,
    johnson_graph,
    kneser_graph,
    transitivity_profile,
    write_graph6,
    __version__,
)
import jgraphs.cli
from jgraphs.cli import main


@pytest.fixture(scope="module")
def validator():
    schema = json.loads(
        resource_files("jgraphs.schemas").joinpath("report.schema.json").read_text()
    )
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, validator, *argv):
    code, out, err = run_cli(capsys, *argv)
    doc = json.loads(out)
    errors = list(validator.iter_errors(doc))
    assert not errors, [e.message for e in errors]
    return code, doc, err


class TestGen:
    def test_johnson_graph6_line(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "johnson", "5", "2")
        assert code == 0
        assert out == write_graph6(johnson_graph(5, 2)) + "\n"

    def test_kneser_dot_has_subset_labels(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "kneser", "5", "2", "--format", "dot")
        assert code == 0
        assert 'label="{1,2}"' in out and 'label="{4,5}"' in out

    def test_line_of_complete_four(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "line-of", "complete", "4")
        assert code == 0
        assert out.strip()[0] == chr(6 + 63)  # six line vertices

    def test_edgelist_format(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "complete", "3", "--format", "edgelist")
        assert code == 0 and out == "3\n0 1\n0 2\n1 2\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.g6"
        code, out, _ = run_cli(capsys, "gen", "johnson", "4", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == write_graph6(johnson_graph(4, 2)) + "\n"

    def test_unknown_family_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "frobnicate", "3")
        assert code == 2 and "unknown graph family" in err

    def test_missing_parameter_usage_error(self, capsys):
        assert run_cli(capsys, "gen", "johnson", "5")[0] == 2

    def test_trailing_arguments_usage_error(self, capsys):
        assert run_cli(capsys, "gen", "johnson", "5", "2", "9")[0] == 2

    def test_cap_exceeded_resource_error(self, capsys):
        code, out, err = run_cli(capsys, "gen", "johnson", "20", "10")
        assert code == 3 and out == ""
        assert err == "error: graph has 184756 vertices, cap is 5000\n"

    @pytest.mark.parametrize(
        "builder,family",
        [
            ("complete_graph", ["complete", "100000"]),
            ("complete_bipartite", ["bipartite", "4000", "4000"]),
            ("line_graph", ["line-of", "complete", "150"]),
        ],
    )
    def test_over_cap_family_is_rejected_before_it_is_built(
        self, capsys, monkeypatch, builder, family
    ):
        # the CLI hands its cap to the builder, which refuses the graph
        # before it lists a row or an edge
        build, caps = getattr(jgraphs.cli, builder), []

        def spy(*args, cap):
            caps.append(cap)
            return build(*args, cap=cap)

        monkeypatch.setattr(f"jgraphs.cli.{builder}", spy)
        start = time.monotonic()
        code, _, err = run_cli(capsys, "gen", *family)
        assert time.monotonic() - start < 1
        assert code == 3 and caps == [5000]
        assert "cap is 5000" in err

    def test_env_var_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("JGRAPHS_CAP", "5")
        assert run_cli(capsys, "gen", "johnson", "5", "2")[0] == 3
        monkeypatch.setenv("JGRAPHS_CAP", "bogus")
        assert run_cli(capsys, "gen", "johnson", "5", "2")[0] == 2

    def test_flag_cap_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("JGRAPHS_CAP", "5")
        code, _, _ = run_cli(capsys, "gen", "johnson", "5", "2", "--cap", "100")
        assert code == 0


class TestAut:
    def test_j52_report(self, capsys, validator, tmp_path):
        path = tmp_path / "j52.g6"
        path.write_text(write_graph6(johnson_graph(5, 2)) + "\n")
        code, doc, _ = run_json(capsys, validator, "aut", str(path))
        assert code == 0
        assert doc["order"] == "120"
        assert doc["orbit_sizes"] == [10]
        assert doc["transitivity"] == {"vertex": True, "edge": True, "distance": True}

    @pytest.mark.parametrize(
        "graph", [johnson_graph(5, 2), complete_bipartite(3, 4), Graph(3, [0, 0, 0])]
    )
    def test_transitivity_is_the_profile_fields(self, capsys, validator, tmp_path, graph):
        path = tmp_path / "g.g6"
        path.write_text(write_graph6(graph))
        _, doc, _ = run_json(capsys, validator, "aut", str(path))
        profile = transitivity_profile(graph, automorphism_group(graph))
        assert doc["transitivity"] == {
            "vertex": profile.vertex, "edge": profile.edge, "distance": profile.distance,
        }

    def test_j63_from_stdin(self, capsys, validator, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(write_graph6(johnson_graph(6, 3)) + "\n")
        )
        code, doc, _ = run_json(capsys, validator, "aut", "-")
        assert code == 0 and doc["order"] == "1440"

    def test_single_vertex(self, capsys, validator, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("@\n"))
        code, doc, _ = run_json(capsys, validator, "aut", "-")
        assert code == 0 and doc["order"] == "1"

    def test_generators_verify(self, capsys, validator, tmp_path):
        from jgraphs import Perm, check_automorphism

        g = kneser_graph(5, 2)
        path = tmp_path / "pet.g6"
        path.write_text(write_graph6(g))
        _, doc, _ = run_json(capsys, validator, "aut", str(path))
        assert doc["order"] == "120"
        for text in doc["generators"]:
            assert check_automorphism(g, Perm.parse(text, g.n))

    def test_missing_file_usage_error(self, capsys):
        assert run_cli(capsys, "aut", "/nonexistent/file.g6")[0] == 2

    def test_garbage_input_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("not graph6 at all\n"))
        assert run_cli(capsys, "aut", "-")[0] == 2

    @pytest.mark.parametrize(
        "argv", [["aut", "{g}"], ["iso", "{g}", "{g}"], ["dist", "--in", "{g}"]]
    )
    def test_over_cap_graph6_is_rejected_before_it_is_decoded(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        path = tmp_path / "k20.g6"
        path.write_text(write_graph6(complete_graph(20)) + "\n")

        def refuse(text):
            raise AssertionError("parse_graph6 called for an over-cap graph")

        monkeypatch.setattr("jgraphs.cli.parse_graph6", refuse)
        code, _, err = run_cli(capsys, *(a.format(g=path) for a in argv), "--cap", "10")
        assert code == 3
        assert "graph has 20 vertices, cap is 10" in err


class TestVerify:
    def test_single_even_pair(self, capsys, validator):
        code, doc, _ = run_json(capsys, validator, "verify", "--n", "6", "--m", "3")
        assert code == 0
        assert len(doc) == 1 and doc[0]["aut_order"] == "1440"
        names = [c["name"] for c in doc[0]["checks"]]
        assert "complement_map_commutes" in names

    def test_odd_pair_skips_complement_block(self, capsys, validator):
        code, doc, _ = run_json(capsys, validator, "verify", "--n", "7", "--m", "3")
        assert code == 0
        names = [c["name"] for c in doc[0]["checks"]]
        assert not any(n.startswith("complement_map") for n in names)

    def test_range_sweep_ordered_and_filtered(self, capsys, validator):
        code, doc, _ = run_json(
            capsys, validator, "verify", "--n", "5..7", "--m", "2..3"
        )
        assert code == 0
        assert [(e["n"], e["m"]) for e in doc] == [(5, 2), (6, 2), (6, 3), (7, 2), (7, 3)]
        assert all(e["passed"] for e in doc)

    def test_empty_range_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "4", "--m", "3")
        assert code == 2 and "no valid" in err

    def test_bad_range_syntax(self, capsys):
        assert run_cli(capsys, "verify", "--n", "5...8", "--m", "2")[0] == 2
        assert run_cli(capsys, "verify", "--n", "8..5", "--m", "2")[0] == 2

    def test_cap_precheck_lists_offenders(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--n", "20..21", "--m", "10", "--cap", "5000"
        )
        assert code == 3
        assert err == (
            "error: (20,10): graph has 184756 vertices, cap is 5000; "
            "(21,10): graph has 352716 vertices, cap is 5000\n"
        )

    def test_ground_set_above_64_is_usage_error(self, capsys):
        # C(65, 2) = 2080 is under the cap; the ground set is what is wrong
        _, _, gen_err = run_cli(capsys, "gen", "johnson", "65", "1")
        code, out, err = run_cli(capsys, "verify", "--n", "65", "--m", "2")
        assert code == 2 and out == ""
        assert err == gen_err == "error: ground set size must be in 0..64, got 65\n"

    def test_timeout_marks_pair_and_exits_resource(self, capsys, validator):
        code, doc, _ = run_json(
            capsys, validator, "verify", "--n", "16", "--m", "8", "--cap", "13000",
            "--time-limit", "0.05",
        )
        assert code == 3
        assert doc[0]["status"] == "timeout"
        assert doc[0]["n"] == 16 and doc[0]["m"] == 8

    @staticmethod
    def verify_in_thread(validator, tmp_path, *argv):
        out = tmp_path / "report.json"
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(main(["verify", *argv, "--out", str(out)]))
        )
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        doc = json.loads(out.read_text())
        assert not list(validator.iter_errors(doc))
        return codes[0], doc

    def test_runs_off_the_main_thread(self, validator, tmp_path):
        code, doc = self.verify_in_thread(validator, tmp_path, "--n", "6", "--m", "3")
        assert code == 0
        assert doc[0]["status"] == "ok" and doc[0]["passed"]

    def test_time_limit_off_the_main_thread(self, validator, tmp_path):
        code, doc = self.verify_in_thread(
            validator, tmp_path, "--n", "6", "--m", "3", "--time-limit", "1e-6"
        )
        assert code == 3
        assert doc[0]["status"] == "timeout"
        assert doc[0]["n"] == 6 and doc[0]["m"] == 3

    def test_time_limit_stops_a_worker_thread(self, validator, tmp_path):
        # J(16,8) takes seconds unlimited; the deadline, checked after its
        # build, ends it, so the report is a timeout entry within the 5 s bound
        start = time.monotonic()
        code, doc = self.verify_in_thread(
            validator, tmp_path, "--n", "16", "--m", "8", "--cap", "13000", "--time-limit", "0.2"
        )
        assert time.monotonic() - start < 5
        assert code == 3
        assert doc == [{
            "status": "timeout", "tool_version": __version__,
            "n": 16, "m": 8, "time_limit_seconds": 0.2,
        }]

    def test_zero_time_limit_disables_the_limit(self, capsys, validator):
        code, doc, _ = run_json(
            capsys, validator, "verify", "--n", "6", "--m", "3", "--time-limit", "0"
        )
        assert code == 0
        assert doc[0]["status"] == "ok" and doc[0]["passed"]

    @pytest.mark.parametrize("limit", ["inf", "-inf", "nan", "1e300", "-5"])
    def test_unusable_time_limit_is_usage_error(self, capsys, limit):
        argv = ["verify", "--n", "5", "--m", "2", f"--time-limit={limit}"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --time-limit must be finite")
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(argv)))
        thread.start()
        thread.join(timeout=120)
        assert codes == [2]

    def test_seed_recorded(self, capsys, validator):
        _, doc, _ = run_json(
            capsys, validator, "verify", "--n", "5", "--m", "2", "--seed", "42"
        )
        assert doc[0]["seed"] == 42


class TestDist:
    def test_johnson_family_layers(self, capsys, validator):
        code, doc, _ = run_json(capsys, validator, "dist", "johnson", "5", "2")
        assert code == 0
        assert doc["sources"] == [
            {"source": 0, "layer_sizes": [1, 6, 3], "eccentricity": 2}
        ]
        assert doc["distance_law"] == "agree"

    def test_j63_layers(self, capsys, validator):
        _, doc, _ = run_json(
            capsys, validator, "dist", "johnson", "6", "3", "--source", "7"
        )
        assert doc["sources"][0]["layer_sizes"] == [1, 9, 9, 1]

    def test_complete_graph_not_checked(self, capsys, validator):
        code, doc, _ = run_json(capsys, validator, "dist", "complete", "4")
        assert code == 0
        assert doc["sources"][0]["layer_sizes"] == [1, 3]
        assert doc["distance_law"] == "not-checked"

    def test_all_sources(self, capsys, validator):
        _, doc, _ = run_json(
            capsys, validator, "dist", "johnson", "5", "2", "--all-sources"
        )
        assert [e["source"] for e in doc["sources"]] == list(range(10))
        assert all(e["layer_sizes"] == [1, 6, 3] for e in doc["sources"])

    def test_graph6_input_not_checked(self, capsys, validator, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(write_graph6(johnson_graph(5, 2)))
        )
        _, doc, _ = run_json(capsys, validator, "dist", "--in", "-")
        assert doc["distance_law"] == "not-checked"

    def test_source_out_of_range(self, capsys):
        assert run_cli(capsys, "dist", "johnson", "5", "2", "--source", "99")[0] == 2

    def test_family_and_infile_conflict(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Bw")
        code, _, _ = run_cli(
            capsys, "dist", "complete", "3", "--in", str(path)
        )
        assert code == 2

    def test_neither_given(self, capsys):
        assert run_cli(capsys, "dist")[0] == 2

    @staticmethod
    def per_source_entries(g, sources):
        # the report as one distance_partition per source gives it
        partitions = [distance_partition(g, x) for x in sources]
        return [
            {"source": dp.source, "layer_sizes": list(dp.layer_sizes), "eccentricity": dp.eccentricity}
            for dp in partitions
        ]

    @pytest.mark.parametrize("graph", [
        johnson_graph(6, 3),
        kneser_graph(5, 2),
        Graph.from_edges(5, [(i, i + 1) for i in range(4)]),
        Graph.from_edges(7, [(0, 1), (1, 2), (4, 5)]),
        Graph(3, [0, 0, 0]),
    ])
    def test_all_sources_match_per_source_bfs(self, capsys, validator, tmp_path, graph):
        path = tmp_path / "g.g6"
        path.write_text(write_graph6(graph))
        code, doc, _ = run_json(capsys, validator, "dist", "--in", str(path), "--all-sources")
        assert code == 0
        assert doc["sources"] == self.per_source_entries(graph, range(graph.n))
        _, doc, _ = run_json(capsys, validator, "dist", "--in", str(path), "--source", "2")
        assert doc["sources"] == self.per_source_entries(graph, [2])

    @pytest.mark.parametrize("n,m,source", [(5, 2, 0), (6, 3, 11), (7, 3, 34), (8, 4, 5)])
    def test_johnson_family_matches_per_source_bfs(self, capsys, validator, n, m, source):
        code, doc, _ = run_json(
            capsys, validator, "dist", "johnson", str(n), str(m), "--source", str(source)
        )
        assert code == 0 and doc["distance_law"] == "agree"
        assert doc["sources"] == self.per_source_entries(johnson_graph(n, m), [source])

    def test_distance_law_runs_one_bfs_per_vertex(self, capsys, validator, monkeypatch):
        import jgraphs.cli
        import jgraphs.graphs

        sources = []

        def counting(g, source):
            sources.append(source)
            return distance_partition(g, source)

        monkeypatch.setattr(jgraphs.graphs, "distance_partition", counting)
        monkeypatch.setattr(jgraphs.cli, "distance_partition", counting)
        code, doc, _ = run_json(capsys, validator, "dist", "johnson", "7", "3", "--all-sources")
        assert code == 0 and doc["distance_law"] == "agree"
        assert sources == list(range(35))

    def test_distance_law_mismatch_exits_assertion(self, capsys, validator, monkeypatch):
        import jgraphs.cli

        def rotated(n, m, cap=None):
            """J(n, m) with each vertex carrying the next vertex's label."""
            g = johnson_graph(n, m, cap=cap)
            return Graph(g.n, g.adj, g.labels[1:] + g.labels[:1])

        monkeypatch.setattr(jgraphs.cli, "johnson_graph", rotated)
        code, doc, _ = run_json(capsys, validator, "dist", "johnson", "5", "2")
        assert code == 1 and doc["distance_law"] == "mismatch"


class TestIso:
    def test_johnson_vs_petersen_complement(self, capsys, validator, tmp_path):
        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        a.write_text(write_graph6(johnson_graph(5, 2)))
        b.write_text(write_graph6(complement(kneser_graph(5, 2))))
        code, doc, _ = run_json(capsys, validator, "iso", str(a), str(b))
        assert code == 0
        assert doc["isomorphic"] is True
        assert "witness" in doc

    def test_line_of_k7_vs_j72(self, capsys, validator, tmp_path):
        from jgraphs import complete_graph, line_graph

        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        a.write_text(write_graph6(line_graph(complete_graph(7))[0]))
        b.write_text(write_graph6(johnson_graph(7, 2)))
        code, doc, _ = run_json(capsys, validator, "iso", str(a), str(b))
        assert code == 0 and doc["isomorphic"] is True

    def test_non_isomorphic(self, capsys, validator, tmp_path):
        from jgraphs import Graph

        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        tt = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        a.write_text(write_graph6(c6))
        b.write_text(write_graph6(tt))
        code, doc, _ = run_json(capsys, validator, "iso", str(a), str(b))
        assert code == 0
        assert doc["isomorphic"] is False
        assert "witness" not in doc

    def test_cap_flag_reaches_the_search(self, capsys, validator, tmp_path, monkeypatch):
        import jgraphs.graphs

        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        a.write_text(write_graph6(johnson_graph(5, 2)))
        b.write_text(write_graph6(complement(kneser_graph(5, 2))))
        # the constructors above read the same default, so patch it after them
        monkeypatch.setattr(jgraphs.graphs, "DEFAULT_VERTEX_CAP", 4)
        code, doc, _ = run_json(capsys, validator, "iso", str(a), str(b), "--cap", "10")
        assert code == 0 and doc["isomorphic"] is True
        assert run_cli(capsys, "iso", str(a), str(b), "--cap", "9")[0] == 3

    def test_witness_actually_maps(self, capsys, validator, tmp_path):
        from jgraphs import Perm, complete_graph, line_graph, verify_isomorphism

        g = johnson_graph(6, 2)
        lk6 = line_graph(complete_graph(6))[0]
        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        a.write_text(write_graph6(lk6))
        b.write_text(write_graph6(g))
        _, doc, _ = run_json(capsys, validator, "iso", str(a), str(b))
        p = Perm.parse(doc["witness"], g.n)
        assert verify_isomorphism(lk6, g, p)


class TestSearchTimeLimit:
    """``aut`` and ``iso`` take ``--time-limit`` with verify's default and
    bounds: exit 2 on an unusable value, exit 3 with an error line when
    the search runs past it, and 0 disables it."""

    COMMANDS = {"aut": ["aut", "{g}"], "iso": ["iso", "{g}", "{g}"]}

    @pytest.fixture(scope="class")
    def j147(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("j147") / "j147.g6"
        path.write_text(write_graph6(johnson_graph(14, 7)) + "\n")
        return str(path)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_limit_stops_the_search(self, capsys, j147, command):
        # unlimited, the J(14,7) search alone takes about 4 s (iso) and
        # 30 s (aut); exit 3 shows that the deadline stopped it
        start = time.monotonic()
        code, out, err = run_cli(
            capsys, *(a.format(g=j147) for a in self.COMMANDS[command]), "--time-limit", "0.2"
        )
        assert time.monotonic() - start < 10
        assert code == 3 and out == ""
        assert err == "error: time limit exceeded\n"

    def test_aut_stops_before_the_profile_once_past_the_limit(self, capsys, tmp_path, monkeypatch):
        import jgraphs.cli

        def late_search(g, cap, deadline):
            group = automorphism_group(g)
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
            return group

        profiled = []
        monkeypatch.setattr(jgraphs.cli, "automorphism_group", late_search)
        monkeypatch.setattr(jgraphs.cli, "transitivity_profile", lambda *args: profiled.append(args))
        path = tmp_path / "j52.g6"
        path.write_text(write_graph6(johnson_graph(5, 2)))
        code, out, err = run_cli(capsys, "aut", str(path), "--time-limit", "0.05")
        assert code == 3 and out == ""
        assert err == "error: time limit exceeded\n"
        assert profiled == []

    def test_aut_passes_its_deadline_to_the_profile(self, capsys, tmp_path, monkeypatch):
        import jgraphs.cli

        profiled = []

        def late_profile(g, aut, *, deadline):
            # the search is done well inside the limit; the profile starts
            # past it, and raises from its own deadline check
            profiled.append(deadline)
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
            return transitivity_profile(g, aut, deadline=deadline)

        monkeypatch.setattr(jgraphs.cli, "transitivity_profile", late_profile)
        path = tmp_path / "j52.g6"
        path.write_text(write_graph6(johnson_graph(5, 2)))
        code, out, err = run_cli(capsys, "aut", str(path), "--time-limit", "0.5")
        assert code == 3 and out == ""
        assert err == "error: time limit exceeded\n"
        assert len(profiled) == 1 and profiled[0] is not None

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("limit", ["inf", "nan", "1e300", "-5"])
    def test_unusable_limit_is_usage_error(self, capsys, tmp_path, command, limit):
        path = tmp_path / "j52.g6"
        path.write_text(write_graph6(johnson_graph(5, 2)))
        argv = [a.format(g=path) for a in self.COMMANDS[command]] + [f"--time-limit={limit}"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --time-limit must be finite")

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_default_and_zero(self, capsys, validator, tmp_path, command):
        from jgraphs.cli import DEFAULT_TIME_LIMIT, _build_parser

        path = tmp_path / "j52.g6"
        path.write_text(write_graph6(johnson_graph(5, 2)))
        argv = [a.format(g=path) for a in self.COMMANDS[command]]
        assert _build_parser().parse_args(argv).time_limit == DEFAULT_TIME_LIMIT
        code, doc, _ = run_json(capsys, validator, *argv, "--time-limit", "0")
        assert code == 0 and doc["status"] == "ok"


class TestTopLevel:
    def test_no_command_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_version(self, capsys):
        from jgraphs import __version__

        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0 and __version__ in out

    @pytest.mark.parametrize("argv,code", [
        (["gen", "bipartite", "3", "4"], 0),
        (["gen", "line-of"], 2),
        (["gen", "johnson", "a", "2"], 2),
        (["gen", "johnson", "6", "3", "--cap", "0"], 2),
        (["verify", "--n", "x", "--m", "2"], 2),
    ])
    def test_exit_code(self, capsys, argv, code):
        assert run_cli(capsys, *argv)[0] == code

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jgraphs.cli", "gen", "complete", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "Bw"

    def test_imports_without_dataclasses(self):
        # every CLI call starts a fresh interpreter, and dataclasses pulls in
        # inspect, ast, dis and tokenize, milliseconds that no command uses
        code = "import jgraphs, jgraphs.cli, sys; print('dataclasses' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
