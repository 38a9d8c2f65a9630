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
from cmstruct import cli, loss, partition
from cmstruct.cli import main
from cmstruct.graphs import MAX_VERTICES


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
    # Two components above n - 1 = 3 vertices, which get a partition from
    # the witness, and one small component.
    g = disjoint_union([star_graph(5), star_graph(4), path_graph(2)])
    path = write_graph(tmp_path / "stars.g", g)
    code, out, _ = run(capsys, ["decompose", "--n", "4", "--input", path])
    assert code == 0
    assert out.count("conditions 1-4: PASS") == 3
    assert sorted(orders) == [2, 5, 6]


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


def test_loss_check_sums_one_loss_for_all_unused_colors(tmp_path, capsys, monkeypatch):
    real = loss.f_graph
    calls = []

    def counting(g, n):
        calls.append(g.edge_count)
        return real(g, n)

    monkeypatch.setattr(loss, "f_graph", counting)
    path = tmp_path / "wide.g"
    path.write_text("p cm 5 100000\ne 0 1 3\n")
    code, out, _ = run(capsys, ["loss-check", "--n", "4", "--input", str(path)])
    assert code == 0
    assert sorted(calls) == [0, 1]
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

    real = loss.f_graph
    monkeypatch.setattr(loss, "f_graph", lambda g, n: RecordedFraction(real(g, n)))
    path = tmp_path / "wide.g"
    path.write_text("p cm 5 100000\ne 0 1 3\n")
    code, out, _ = run(capsys, ["loss-check", "--n", "4", "--input", str(path)])
    assert code == 0
    assert "additivity over colors: HOLDS" in out
    assert 1 <= len(ops) <= 4


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--bogus"])
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
