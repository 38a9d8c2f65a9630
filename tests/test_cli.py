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
from cmstruct import cli, partition
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


def test_search_exit_codes(capsys):
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
    ],
)
def test_ramsey_bad_input_is_usage_error(capsys, extra, message):
    argv = ["ramsey", "--k", "2", "--n", "4", "--max", "6"]
    code, out, err = run(capsys, argv + extra)
    assert code == 1
    assert message in err
    assert out == ""


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--bogus"])
    assert exc.value.code == 1


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
