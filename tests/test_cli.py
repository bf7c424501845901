import re

import pytest

from grouplines.cli import main
from grouplines.graphs import is_isomorphic, make_named, parse_graph_text
from grouplines.groups import make_cyclic, to_cayley_table

Z6_EDGES_OUTPUT = """\
vertices 4
v 0 1 {e}
v 1 2 <3> (order 2)
v 2 3 <2> (order 3)
v 3 6 <1> (order 6)
e 0 1
e 0 2
e 1 3
e 2 3
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gamma


def test_gamma_edges_output(capsys):
    code, out, err = run(capsys, "gamma", "Z6", "--format", "edges")
    assert code == 0 and err == ""
    assert out == Z6_EDGES_OUTPUT


def test_gamma_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "gamma", "Z12", "--format", "dot")
    _, second, _ = run(capsys, "gamma", "Z12", "--format", "dot")
    assert first == second


def test_gamma_dot_labels_the_trivial_subgroup(capsys):
    code, out, _ = run(capsys, "gamma", "Z2xZ2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph gamma {")
    assert '[label="{e}"]' in out


def test_gamma_rejects_a_missing_table_file(capsys, tmp_path):
    code, out, err = run(capsys, "gamma", f"file:{tmp_path}/absent.tbl")
    assert code == 2
    assert "error:" in err


def test_gamma_rejects_a_malformed_table_file(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("order 2\n0 1\n0 0\n", encoding="utf-8")
    code, _, err = run(capsys, "gamma", f"file:{bad}")
    assert code == 2
    assert "Latin" in err


@pytest.mark.parametrize("spec", ["Q8", "Zx", "X9", "Z", "Z2x", ""])
def test_bad_group_specs_exit_2(capsys, spec):
    code, _, err = run(capsys, "check", spec)
    assert code == 2
    assert "error:" in err


def test_check_rejects_a_non_associative_loop(capsys, tmp_path):
    rows = ["0 1 2 3 4", "1 0 3 4 2", "2 3 4 0 1", "3 4 1 2 0", "4 2 0 1 3"]
    table = [[int(x) for x in row.split()] for row in rows]
    path = tmp_path / "loop.tbl"
    path.write_text("order 5\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check", f"file:{path}")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    match = re.search(r"associativity fails at \((\d+),(\d+),(\d+)\)", err)
    assert match, err
    i, j, k = map(int, match.groups())
    assert table[table[i][j]][k] != table[i][table[j][k]]


@pytest.mark.parametrize(
    "spec",
    ["Z99999999", "S99999999", "Dic1000xZ2", "x".join(["Z2"] * 12), "Z1025xfile:z2.tbl"],
)
def test_check_rejects_specs_above_the_order_limit(capsys, tmp_path, monkeypatch, spec):
    # Each is refused before its tables are built; Z99999999 used to hang.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z2.tbl").write_text(to_cayley_table(make_cyclic(2)), encoding="utf-8")
    code, out, err = run(capsys, "check", spec)
    assert code == 2 and out == ""
    assert f"group spec {spec!r} has order above 2048" in err
    assert "Traceback" not in err


def test_gamma_accepts_a_valid_table_file(capsys, tmp_path):
    path = tmp_path / "z6.tbl"
    path.write_text(to_cayley_table(make_cyclic(6)), encoding="utf-8")
    code, out, _ = run(capsys, "gamma", f"file:{path}")
    assert code == 0
    assert out.startswith("vertices 4")


# ---------------------------------------------------------------------------
# check


def test_check_z15_is_a_line_graph(capsys):
    code, out, _ = run(capsys, "check", "Z15")
    assert code == 0
    assert out.startswith("LINE GRAPH")
    assert "root graph" in out


def test_check_s3_reports_the_claw(capsys):
    code, out, _ = run(capsys, "check", "S3")
    assert code == 0
    assert out.startswith("NOT A LINE GRAPH: Gamma1 at vertices [")
    assert "{e}" in out


def test_check_z49(capsys):
    code, out, _ = run(capsys, "check", "Z49")
    assert code == 0
    assert out.startswith("LINE GRAPH")


# ---------------------------------------------------------------------------
# forbidden


def test_forbidden_writes_nine_patterns_and_a_manifest(capsys, tmp_path):
    out_dir = tmp_path / "patterns"
    code, out, _ = run(capsys, "forbidden", "-o", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [f"Gamma{i}.g" for i in range(1, 10)] + ["manifest.tsv"]

    manifest = (out_dir / "manifest.tsv").read_text(encoding="utf-8").strip().splitlines()
    assert manifest[0] == "id\tfile\tvertices\tedges"
    assert len(manifest) == 10
    for line in manifest[1:]:
        pid, filename, vertices, edges = line.split("\t")
        g = parse_graph_text((out_dir / filename).read_text(encoding="utf-8"))
        assert g.n == int(vertices)
        assert g.edge_count() == int(edges)

    claw = parse_graph_text((out_dir / "Gamma1.g").read_text(encoding="utf-8"))
    assert is_isomorphic(claw, make_named("K1,3"))


# ---------------------------------------------------------------------------
# verify


def test_verify_order_15_holds(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "15")
    assert code == 0
    lines = out.strip().splitlines()
    assert "THEOREM HOLDS over 28 groups" in lines
    assert any(line.startswith("CASES HOLD") for line in lines)
    assert any(line.startswith("COMPLETENESS HOLDS") for line in lines)
    main_rows = [line for line in lines if line.startswith("Z12\t")]
    assert len(main_rows) == 1
    name, order, order_class, cyclic, predicted, actual, witness = main_rows[0].split(
        "\t"
    )
    assert (order, predicted, actual) == ("12", "false", "false")
    assert witness.startswith("Gamma1")


def test_verify_merges_external_tables(capsys, tmp_path):
    path = tmp_path / "z21.tbl"
    path.write_text(to_cayley_table(make_cyclic(21)), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--max-order", "15", "--catalog", str(path))
    assert code == 0
    assert "THEOREM HOLDS over 29 groups" in out
    row = next(line for line in out.splitlines() if line.startswith("file:"))
    fields = row.split("\t")
    assert fields[1] == "21"
    assert fields[4] == "true" and fields[5] == "true"


def test_verify_rejects_bad_catalog_file(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("order 2\n0 1\n0 0\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--catalog", str(bad))
    assert code == 2
    assert "error:" in err
