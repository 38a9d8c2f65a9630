import collections
import contextlib
import io
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cmstruct import (
    EdgeColoring,
    complete_graph,
    disjoint_union,
    parse_graph,
    path_graph,
    serialize,
    star_graph,
)
from cmstruct import cli, constructions, graphs, loss, matching, partition
from cmstruct.cli import main
from cmstruct.graphs import MAX_COLORS, MAX_VERTICES

from .test_matching import count_max_matchings


def write_graph(path, g, coloring=None):
    path.write_text(serialize(g, coloring))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_star(tmp_path, capsys):
    path = write_graph(tmp_path / "star4.g", star_graph(3))
    code, out, _ = run(capsys, ["decompose", "--n", "4", "--input", path])
    assert code == 0
    assert "S = {0}" in out
    assert "Q = {1}" in out
    assert "I = {2, 3}" in out
    assert "conditions 1-4: PASS" in out          # lemma conditions
    assert "derived bounds: PASS" in out


def test_decompose_dot_annotates_classes(tmp_path, capsys):
    path = write_graph(tmp_path / "star4.g", star_graph(3))
    dot = tmp_path / "out.dot"
    code, _, _ = run(
        capsys, ["decompose", "--n", "4", "--input", path, "--dot", str(dot)]
    )
    assert code == 0
    text = dot.read_text()
    assert '0 [class="S"];' in text


def test_decompose_builds_each_witness_once(tmp_path, capsys, monkeypatch):
    real = cli.tutte_berge
    orders = []

    def counting(g):
        orders.append(g.vertex_count)
        return real(g)

    monkeypatch.setattr(cli, "tutte_berge", counting)
    monkeypatch.setattr(partition, "tutte_berge", counting)
    # The printed matching number is read from the witness, so each
    # component's one maximum matching is the witness's.
    matchings = count_max_matchings(monkeypatch)
    # Two components above n - 1 = 3 vertices, which get a partition from
    # the witness, and one small component.
    g = disjoint_union([star_graph(5), star_graph(4), path_graph(2)])
    path = write_graph(tmp_path / "stars.g", g)
    code, out, _ = run(capsys, ["decompose", "--n", "4", "--input", path])
    assert code == 0
    assert out.count("conditions 1-4: PASS") == 3
    assert sorted(orders) == [2, 5, 6]
    assert sorted(matchings) == [2, 5, 6]


def test_decompose_rejects_large_matching(tmp_path, capsys):
    path = write_graph(tmp_path / "k4.g", complete_graph(4))
    code, out, _ = run(capsys, ["decompose", "--n", "4", "--input", path])
    assert code == 2


def test_loss_check_triangle(tmp_path, capsys):
    path = write_graph(tmp_path / "k3.g", complete_graph(3))
    code, out, _ = run(capsys, ["loss-check", "--n", "4", "--input", path])
    assert code == 0
    assert "f(G) = 3/2" in out
    assert "sum f(v) = 3/2" in out
    assert "single-color loss bound: HOLDS (equality)" in out


def test_loss_check_single_color_machine_lines(tmp_path, capsys):
    # The star K_{1,3}: its center is S, one leaf is moved into Q.
    path = tmp_path / "star.g"
    path.write_text("p cm 4 1\ne 0 1 1\ne 0 2 1\ne 0 3 1\n")
    code, out, err = run(
        capsys, ["loss-check", "--n", "4", "--input", str(path), "--machine"]
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "f(G) = 3",
        "sum f(v) = 7/4",
        "single-color loss bound: HOLDS",
        "v 0 S 3/4",
        "v 1 Q 1/1",
        "v 2 I 0/1",
        "v 3 I 0/1",
    ]


def test_loss_check_machine_lines(tmp_path, capsys):
    g = complete_graph(4)
    coloring = EdgeColoring(
        2, {(0, 3): 1, (1, 3): 1, (2, 3): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}
    )
    path = write_graph(tmp_path / "st.g", g, coloring)
    code, out, _ = run(
        capsys, ["loss-check", "--n", "4", "--input", path, "--machine"]
    )
    assert code == 0
    assert "F(G) = 6" in out
    assert "v 3 strong 3/4" in out
    assert "v 0 q-saturated 3/2" in out
    assert "v 1 small 0/1" in out
    assert "additivity over colors: HOLDS" in out


def _wrap_color_analysis(monkeypatch, wrap):
    """Pass each (components record, partitions, loss) of loss's one
    per-color pass through ``wrap``, which returns the (partitions, loss)
    to keep."""
    real = loss.per_color
    monkeypatch.setattr(
        loss, "per_color",
        lambda g, coloring, fn: real(g, coloring, lambda cls: wrap(cls, *fn(cls))),
    )


def test_loss_check_sums_one_loss_for_all_unused_colors(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(cls, parts, f):
        calls.append((cls.edge_count, cls.components))
        return parts, f

    _wrap_color_analysis(monkeypatch, counting)
    path = tmp_path / "wide.g"
    path.write_text("p cm 5 100000\ne 0 1 3\n")
    code, out, _ = run(capsys, ["loss-check", "--n", "4", "--input", str(path)])
    assert code == 0
    # Color 3's record and one all-singletons record for the other colors.
    assert sorted(calls) == [
        (0, ((0,), (1,), (2,), (3,), (4,))), (1, ((0, 1), (2,), (3,), (4,)))
    ]
    assert "additivity over colors: HOLDS" in out


def test_loss_check_adds_one_term_per_distinct_loss(tmp_path, capsys, monkeypatch):
    # Each per-color loss is a Fraction that records every arithmetic
    # operation it takes part in; k = 10^5 colors share two distinct losses.
    ops = []

    def recorded(name):
        def op(self, other):
            ops.append(name)
            return getattr(Fraction, name)(Fraction(self), other)

        return op

    class RecordedFraction(Fraction):
        __add__, __radd__ = recorded("__add__"), recorded("__radd__")
        __mul__, __rmul__ = recorded("__mul__"), recorded("__rmul__")

    _wrap_color_analysis(monkeypatch, lambda cls, parts, f: (parts, RecordedFraction(f)))
    path = tmp_path / "wide.g"
    path.write_text("p cm 5 100000\ne 0 1 3\n")
    code, out, _ = run(capsys, ["loss-check", "--n", "4", "--input", str(path)])
    assert code == 0
    assert "additivity over colors: HOLDS" in out
    assert 1 <= len(ops) <= 4


def count_class_builds_and_guards(monkeypatch):
    """Count the calls of ``color_class`` and ``max_connected_matching``."""
    counts = collections.Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    originals = {
        "color_class": graphs.color_class,
        "max_connected_matching": matching.max_connected_matching,
    }
    # Rebind every module's reference, as each module calls its own.
    modules = [m for key, m in sys.modules.items() if key.startswith("cmstruct")]
    for module in modules:
        for name, real in originals.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    return counts


@pytest.mark.parametrize(
    "text",
    [
        "p cm 5 100000\ne 0 1 3\n",
        serialize(*constructions.affine_plane_coloring(3)),
    ],
    ids=["unused-colors", "affine-3"],
)
def test_loss_check_builds_classes_only_on_detector_hits(
    tmp_path, capsys, monkeypatch, text
):
    # Neither case has a component on n vertices, so the per-color pass
    # never runs the detector (no ``_spans`` pass at all); the pass builds
    # no class, and the additivity line reads the losses of that pass, so
    # no class is checked for a connected matching again.
    counts = count_class_builds_and_guards(monkeypatch)
    spans = matching._spans
    hits = []

    def counting_spans(*args):
        hits.append(spans(*args))
        return hits[-1]

    monkeypatch.setattr(matching, "_spans", counting_spans)
    path = tmp_path / "colored.g"
    path.write_text(text)
    code, out, _ = run(capsys, ["loss-check", "--n", "4", "--input", str(path)])
    assert code == 0
    assert "additivity over colors: HOLDS" in out
    assert hits == []
    assert counts["max_connected_matching"] == 0
    assert counts["color_class"] == 0


@pytest.mark.parametrize(
    "g, orders",
    [
        (disjoint_union([star_graph(5), star_graph(4), path_graph(2)]), [6, 5]),
        (complete_graph(3), []),
    ],
    ids=["stars", "triangle"],
)
def test_single_color_loss_check_builds_no_class_and_runs_no_matching_guard(
    tmp_path, capsys, monkeypatch, g, orders
):
    # The k = 1 twin: the partition pass decides the input class, with one
    # maximum matching per component on n or more vertices.
    counts = count_class_builds_and_guards(monkeypatch)
    matchings = count_max_matchings(monkeypatch)
    path = write_graph(tmp_path / "single.g", g)
    code, out, _ = run(capsys, ["loss-check", "--n", "4", "--input", path])
    assert code == 0
    assert "single-color loss bound: HOLDS" in out
    assert counts == {}
    assert matchings == orders


def test_single_color_loss_check_names_the_largest_connected_matching(
    tmp_path, capsys
):
    # A path on 0-3 (nu = 2) and K_6 on 4-9 (nu = 3): the partition pass
    # rejects the path first, and the error names the K_6's matching.
    g = disjoint_union([path_graph(4), complete_graph(6)])
    path = write_graph(tmp_path / "two.g", g)
    code, _, err = run(capsys, ["loss-check", "--n", "4", "--input", path])
    assert code == 2
    assert err == "cmstruct: graph has a connected matching of size 3 >= 2\n"


def test_loss_check_with_unused_colors(tmp_path, capsys):
    # A star in color 1 and a triangle in color 3; colors 2 and 4 are unused.
    path = tmp_path / "unused.g"
    path.write_text(
        "p cm 7 4\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 4 5 3\ne 5 6 3\ne 4 6 3\n"
    )
    code, out, _ = run(
        capsys, ["loss-check", "--n", "4", "--input", str(path), "--machine"]
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "F(G) = 36",
        "sum F(v) = 85/4",
        "multicolor loss bound: HOLDS",
        "additivity over colors: HOLDS",
        "v 0 strong 3/4",
        "v 1 q-saturated 11/2",
        "v 2 small 0/1",
        "v 3 small 0/1",
        "v 4 q-saturated 5/1",
        "v 5 q-saturated 5/1",
        "v 6 q-saturated 5/1",
    ]


def test_loss_check_rejects_cm_input(tmp_path, capsys):
    path = write_graph(tmp_path / "k4.g", complete_graph(4))
    code, _, err = run(capsys, ["loss-check", "--n", "4", "--input", path])
    assert code == 2
    assert "connected matching" in err


def test_classify(tmp_path, capsys):
    g = complete_graph(4)
    coloring = EdgeColoring(
        2, {(0, 3): 1, (1, 3): 1, (2, 3): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}
    )
    path = write_graph(tmp_path / "st.g", g, coloring)
    code, out, _ = run(capsys, ["classify", "--n", "4", "--input", path])
    assert code == 0
    assert "v 3 strong" in out
    assert "totals: strong=1 q-saturated=1 small=2" in out


def test_bounds_check(tmp_path, capsys):
    path = write_graph(tmp_path / "star.g", star_graph(3))
    code, out, _ = run(capsys, ["bounds-check", "--n", "4", "--input", path])
    assert code == 0
    assert "edge bound e <= (n-2)/2 v: HOLDS (e = 3, slack = 1)" in out
    assert "small-components cap: not applicable" in out


def test_bounds_check_small_components_cap_on_a_colored_file(tmp_path, capsys):
    # Four triangles, each colored 1, 2, 3, in a file declaring k = 4: each
    # used color has 4 edges on v = 14 (slack 14 - 4), the unused color is
    # edgeless (slack 14), and the cap applies.
    path = tmp_path / "triangles.g"
    path.write_text(
        "p cm 14 4\n"
        + "".join(
            f"e {a} {a + 1} 1\ne {a + 1} {a + 2} 2\ne {a} {a + 2} 3\n"
            for a in (0, 3, 6, 9)
        )
    )
    code, out, _ = run(capsys, ["bounds-check", "--n", "4", "--input", str(path)])
    assert code == 0
    assert out == (
        f"# cmstruct bounds-check n=4 input={path}\n"
        "edge bound e_c <= (n-2)/2 v, color 1: HOLDS (slack = 10)\n"
        "edge bound e_c <= (n-2)/2 v, color 2: HOLDS (slack = 10)\n"
        "edge bound e_c <= (n-2)/2 v, color 3: HOLDS (slack = 10)\n"
        "edge bound e_c <= (n-2)/2 v, 1 unused color(s): HOLDS (slack = 14)\n"
        "small-components cap e <= C(v,2) - n^2/32: HOLDS (slack = 157/2)\n"
    )


@pytest.mark.parametrize("q", [3, 5])
def test_bounds_check_reports_every_color_of_an_affine_plane(tmp_path, capsys, q):
    # Each color class is q disjoint K_q with q = n - 1, which meets the
    # Erdos-Gallai bound with equality; the union has a connected matching
    # of n/2 edges, which the per-color report does not look at.
    path = write_graph(tmp_path / "affine.g", *constructions.affine_plane_coloring(q))
    code, out, err = run(capsys, ["bounds-check", "--n", str(q + 1), "--input", path])
    assert (code, err) == (0, "")
    assert out == (
        f"# cmstruct bounds-check n={q + 1} input={path}\n"
        + "".join(
            f"edge bound e_c <= (n-2)/2 v, color {c}: HOLDS (slack = 0)\n"
            for c in range(1, q + 2)
        )
        + "small-components cap: not applicable\n"
    )


def test_bounds_check_on_a_colored_file_reports_unused_colors_once(tmp_path, capsys):
    # Colors 2 and 4 carry an edge each; 1, 3 and 5 share one line.
    path = tmp_path / "sparse.g"
    path.write_text("p cm 6 5\ne 0 1 2\ne 2 3 4\n")
    code, out, _ = run(capsys, ["bounds-check", "--n", "4", "--input", str(path)])
    assert code == 0
    assert out.splitlines()[1:] == [
        "edge bound e_c <= (n-2)/2 v, color 2: HOLDS (slack = 5)",
        "edge bound e_c <= (n-2)/2 v, color 4: HOLDS (slack = 5)",
        "edge bound e_c <= (n-2)/2 v, 3 unused color(s): HOLDS (slack = 6)",
        "small-components cap: not applicable",
    ]


def test_bounds_check_refuses_a_monochromatic_connected_matching(tmp_path, capsys):
    # The affine plane of order 5 at n = 4: every color class is five K_5,
    # each with a matching of two edges.
    path = write_graph(tmp_path / "affine.g", *constructions.affine_plane_coloring(5))
    code, out, err = run(capsys, ["bounds-check", "--n", "4", "--input", path])
    assert code == 2
    assert out == f"# cmstruct bounds-check n=4 input={path}\n"
    assert err == "cmstruct: color 1 has a connected matching of size 2\n"


def test_bounds_check_takes_the_color_count_from_the_file(tmp_path, capsys):
    path = write_graph(tmp_path / "star.g", star_graph(3))
    with pytest.raises(SystemExit) as exc:
        main(["bounds-check", "--n", "4", "--input", path, "--k", "4"])
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


def test_audit(tmp_path, capsys):
    from cmstruct.constructions import affine_plane_coloring

    g, coloring = affine_plane_coloring(3)
    path = write_graph(tmp_path / "affine.g", g, coloring)
    code, out, _ = run(
        capsys,
        ["audit", "--n", "4", "--k", "4", "--epsilon", "1/2",
         "--delta", "1/500", "--input", path],
    )
    assert code == 0
    assert "[FAIL] v(G) > (k - 1/2 + eps) n" in out
    assert "low-degree vertices: 9 of 9" in out
    assert "failing steps:" in out


def test_construct_affine_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "affine.g"
    code, _, _ = run(
        capsys, ["construct", "affine", "--q", "3", "--out", str(out_file)]
    )
    assert code == 0
    g, coloring = parse_graph(out_file.read_text())
    assert g.vertex_count == 9 and coloring.color_count == 4


def test_construct_random_header_carries_seed(capsys):
    code, out, _ = run(
        capsys, ["construct", "random", "--n-vertices", "5", "--k", "2"]
    )
    assert code == 0
    assert "seed=0" in out.splitlines()[0]
    code2, out2, _ = run(
        capsys, ["construct", "random", "--n-vertices", "5", "--k", "2"]
    )
    assert out2 == out  # byte-identical for identical argv and seed


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "random", "--n-vertices", "40", "--k", "3"],
        ["ramsey", "--k", "2", "--n", "4", "--max", "6"],
    ],
    ids=["construct", "ramsey"],
)
def test_graph_output_is_the_same_on_an_in_memory_stdout(capsys, argv):
    # capsys's stdout has a binary layer; io.StringIO has none.
    expected = run(capsys, argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert (code, out.getvalue(), capsys.readouterr().err) == expected


def test_construct_cliques_reports_no_partition(capsys):
    argv = ["construct", "cliques", "--n-vertices", "5", "--k", "1", "--max-clique", "2"]
    assert run(capsys, argv) == (2, "", "no clique-union coloring found\n")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_without_traceback(unbuffered):
    # A child process, so that the flush at exit shows. Under
    # PYTHONUNBUFFERED a write into a pipe whose reader closes can end short
    # without an error; the rest must not be dropped silently.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = ["construct", "random", "--n-vertices", "300", "--k", "4"]
    with subprocess.Popen(
        [sys.executable, "-m", "cmstruct.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": src},
    ) as child:
        assert child.stdout.readline().startswith(b"# cmstruct construct random")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert child.returncode == 1
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["affine", "--q", "37"],
        ["cliques", "--n-vertices", "1025", "--k", "2", "--max-clique", "2"],
        ["random", "--n-vertices", "1025", "--k", "2"],
        ["bounded", "--n-vertices", "1025", "--k", "2", "--max-component", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_construct_refuses_sizes_above_the_cap(capsys, argv):
    code, out, err = run(capsys, ["construct", *argv])
    assert (code, out) == (1, "")
    assert "must be <= 1024" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "cliques", "--n-vertices", "3", "--max-clique", "2"],
        ["construct", "random", "--n-vertices", "3"],
        ["construct", "bounded", "--n-vertices", "3", "--max-component", "2"],
        ["search", "--n-vertices", "3", "--n", "4"],
        ["ramsey", "--n", "4", "--max", "3"],
    ],
    ids=["cliques", "random", "bounded", "search", "ramsey"],
)
def test_color_count_above_the_reader_cap_is_usage_error(argv):
    # A child process, so that an uncaught exception shows as a traceback.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "cmstruct.cli", *argv, "--k", str(MAX_COLORS + 1)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr.endswith(
        f"error: argument --k: k = {MAX_COLORS + 1} exceeds {MAX_COLORS}\n"
    )
    assert "Traceback" not in child.stderr


def test_written_coloring_at_the_color_cap_parses(capsys):
    code, out, _ = run(
        capsys,
        ["construct", "random", "--n-vertices", "3", "--k", str(MAX_COLORS)],
    )
    assert code == 0
    _, coloring = parse_graph(out)
    assert coloring.color_count == MAX_COLORS


def _body(out):
    """Stdout after the header line, which echoes the arguments."""
    return out.split("\n", 1)[1]


def test_search_exit_codes(capsys, in_process_pool):
    code, out, _ = run(
        capsys,
        ["search", "--n-vertices", "4", "--k", "2", "--n", "4", "--exhaustive"],
    )
    assert code == 0
    assert "avoider found" in out

    code, out, _ = run(
        capsys,
        ["search", "--n-vertices", "5", "--k", "2", "--n", "4", "--exhaustive"],
    )
    assert code == 2
    assert "certified none" in out

    code, out, _ = run(
        capsys,
        ["search", "--n-vertices", "5", "--k", "2", "--n", "4", "--budget", "5"],
    )
    assert code == 3
    assert "budget exhausted" in out

    argv = ["search", "--n-vertices", "46", "--k", "40", "--n", "4", "--budget", "20000"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert "budget exhausted" in out

    # The parallel search ends where the sequential one does, with the same
    # report.
    code, parallel, _ = run(capsys, argv + ["--threads", "2"])
    assert code == 3
    assert _body(parallel) == _body(out)

    # With no colors or a negative order there is nothing to search: a
    # usage error before the header, never a certification.
    for n_vertices, k, message in [
        ("5", "0", "color_count"),
        ("5", "-1", "color_count"),
        ("3", "0", "color_count"),
        ("-3", "2", "vertex_count"),
    ]:
        argv = ["search", "--n-vertices", n_vertices, "--k", k, "--n", "4"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert message in err

    # An order above the cap is refused before any edge list is built.
    argv = ["search", "--n-vertices", "100000", "--k", "2", "--n", "4", "--budget", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert "vertex_count must be <=" in err


@pytest.mark.parametrize("size, expected", [(4, 0), (5, 2)])
def test_parallel_search_report_matches_sequential(capsys, size, expected):
    argv = ["search", "--n-vertices", str(size), "--k", "2", "--n", "4", "--exhaustive"]
    code, out, _ = run(capsys, argv)
    assert code == expected
    code, parallel, _ = run(capsys, argv + ["--threads", "2"])
    assert code == expected
    assert _body(parallel) == _body(out)


def test_ramsey_command(capsys):
    code, out, _ = run(
        capsys, ["ramsey", "--k", "2", "--n", "4", "--max", "6"]
    )
    assert code == 0
    assert "R_cm(2, 4) = 5" in out
    assert "avoider on K_4:" in out
    assert "p cm 4 2" in out

    # A spent budget reports the lower bound and the largest avoider found.
    code, out, _ = run(
        capsys, ["ramsey", "--k", "2", "--n", "8", "--max", "12", "--budget", "1000"]
    )
    assert code == 3
    lines = out.splitlines()
    assert "R_cm(2, 8) >= 11 (not certified)" in lines
    assert "avoider on K_10:" in lines
    assert "p cm 10 2" in lines


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--budget", "0"], "node_budget must be positive"),
        (["--budget", "-5"], "node_budget must be positive"),
        (["--max", "-3"], "n_max must be >= 1"),
        (["--n", "1000", "--max", "1000"], "vertex_count must be <="),
    ],
)
def test_ramsey_bad_input_is_usage_error(capsys, extra, message):
    argv = ["ramsey", "--k", "2", "--n", "4", "--max", "6"]
    code, out, err = run(capsys, argv + extra)
    assert code == 1
    assert message in err
    assert out == ""


@pytest.mark.parametrize("n", ["3", "0", "-2"])
@pytest.mark.parametrize(
    "command",
    [
        ["decompose"],
        ["loss-check"],
        ["classify"],
        ["bounds-check"],
        ["audit", "--k", "4", "--epsilon", "1/2", "--delta", "1/500"],
    ],
    ids=lambda command: command[0],
)
def test_analysis_commands_refuse_bad_n_before_output(tmp_path, capsys, command, n):
    # A 4-vertex path: with n = 3, decompose would print its components and
    # bounds-check would report a connected matching of size 2 >= 1.
    path = write_graph(tmp_path / "p4.g", path_graph(4))
    code, out, err = run(capsys, command + ["--n", n, "--input", path])
    assert (code, out) == (1, "")
    assert f"n must be an even integer >= 2, got {n}" in err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_audit_refuses_bad_k_before_output(tmp_path, capsys, k):
    path = write_graph(tmp_path / "k3.g", complete_graph(3))
    argv = ["audit", "--n", "4", "--k", k, "--epsilon", "1/2",
            "--delta", "1/500", "--input", path]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "cmstruct: k must be positive\n"


def test_usage_error_exit_code(capsys):
    for argv in (["decompose", "--bogus"], ["search", "--k", "abc"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_cached_parser_keeps_no_state_between_calls(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--bogus"])
    assert exc.value.code == 1
    code, out, _ = run(capsys, ["construct", "affine", "--q", "2"])
    assert code == 0
    assert out.startswith("# cmstruct construct affine q=2 k=3\n")

    cliques = ["construct", "cliques", "--n-vertices", "4", "--k", "3",
               "--max-clique", "2"]
    code, out, _ = run(capsys, cliques + ["--seed", "5"])
    assert code == 0
    assert out.splitlines()[0].endswith(" seed=5")
    code, out, _ = run(capsys, cliques)
    assert code == 0
    assert out.splitlines()[0].endswith(" seed=None")


@pytest.mark.parametrize(
    "argv", [["--help"], ["construct", "cliques", "--help"], ["audit", "--help"]]
)
def test_cached_parser_help_matches_a_fresh_build(capsys, argv):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(argv)
        assert cached == capsys.readouterr().out != ""


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, ["decompose", "--n", "4", "--input", "/nonexistent"])
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "affine", "--q", "3", "--out", "{missing}"],
        ["construct", "affine", "--q", "3", "--dot", "{missing}"],
        ["decompose", "--n", "4", "--input", "{input}", "--dot", "{missing}"],
        ["search", "--n-vertices", "4", "--k", "2", "--n", "4", "--out", "{missing}"],
        ["search", "--n-vertices", "4", "--k", "2", "--n", "4", "--dot", "{missing}"],
    ],
    ids=["construct-out", "construct-dot", "decompose-dot", "search-out", "search-dot"],
)
def test_unwritable_output_is_usage_error(tmp_path, argv):
    # A child process, so that an uncaught exception shows as a traceback.
    values = {
        "input": write_graph(tmp_path / "star4.g", star_graph(3)),
        "missing": str(tmp_path / "missing" / "out"),
    }
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "cmstruct.cli", *(a.format(**values) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert child.returncode == 1
    assert child.stderr.startswith(f"cmstruct: cannot write {values['missing']}: ")
    assert child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr


def test_format_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("p cm 3 1\ne 0 5 1\n")
    code, _, err = run(capsys, ["decompose", "--n", "4", "--input", str(bad)])
    assert code == 1
    assert "line 2" in err


def test_oversized_header_is_usage_error(tmp_path, capsys):
    big = tmp_path / "big.g"
    big.write_text(f"p cm {MAX_VERTICES + 1} 1\n")
    code, out, err = run(capsys, ["loss-check", "--n", "4", "--input", str(big)])
    assert code == 1
    assert "line 1" in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--epsilon", "--delta"])
@pytest.mark.parametrize("value", ["1/0", "0/0", "abc"])
def test_audit_bad_fraction_is_usage_error(tmp_path, capsys, flag, value):
    path = write_graph(tmp_path / "k3.g", complete_graph(3))
    argv = ["audit", "--n", "4", "--k", "1", "--epsilon", "1/2",
            "--delta", "1/500", "--input", path]
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: cmstruct audit")
    assert out.err.splitlines()[-1] == (
        f"cmstruct audit: error: argument {flag}: invalid Fraction value: {value!r}"
    )


def test_output_is_stable(tmp_path, capsys):
    path = write_graph(tmp_path / "star4.g", star_graph(3))
    argv = ["decompose", "--n", "4", "--input", path]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


_ONE_GIB = 1 << 30


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_ONE_GIB, _ONE_GIB))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["search", "--n-vertices", "46", "--k", "1000000", "--n", "4",
          "--budget", "1"], 3),
        (["search", "--n-vertices", "100000", "--k", "2", "--n", "4",
          "--budget", "1"], 1),
        (["construct", "random", "--n-vertices", "100000", "--k", "2"], 1),
        (["construct", "affine", "--q", "1009"], 1),
    ],
    ids=["search-colors", "search-order", "construct-random", "construct-affine"],
)
def test_oversized_input_fails_fast_within_one_gib(argv, code):
    # Each case runs in a child whose address space is capped, so a
    # regression fails here instead of exhausting the machine's memory.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "cmstruct.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert child.returncode == code, child.stderr
    if code == 1:
        assert child.stdout == ""
        assert "must be <=" in child.stderr
    else:
        assert "budget exhausted" in child.stdout


@pytest.mark.parametrize("command", ["loss-check", "classify"])
def test_oversized_color_count_fails_fast_within_one_gib(tmp_path, command):
    # Every analysis keeps one entry per declared color, so without the
    # header cap this file would need far more than the child's 1 GiB.
    pytest.importorskip("resource")
    k = 10**8
    path = tmp_path / "colors.g"
    path.write_text(f"p cm 5 {k}\ne 0 1 1\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "cmstruct.cli", command, "--n", "4",
         "--input", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr == f"cmstruct: line 1: header k = {k} exceeds {MAX_COLORS}\n"


def test_readme_command_line_examples_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    examples = [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("cmstruct ")
    ]
    assert len(examples) >= 9
    parser = cli._build_parser()
    for argv in examples:
        parser.parse_args(argv)


def test_readme_library_snippet_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Library in one minute", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in snippet
    exec(compile(snippet, "README.md", "exec"), {})
