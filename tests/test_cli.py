import contextlib
import copy
import io
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from grouplines import catalog, cli
from grouplines.catalog import catalog_specs
from grouplines.cli import main
from grouplines.graphs import SimpleGraph
from grouplines.groups import make_cyclic, to_cayley_table
from grouplines.lattice import build_gamma
from grouplines.linegraph import line_graph
from oracles import is_isomorphic, make_named, parse_graph_text

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


DATA = Path(__file__).parent / "data"


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


def test_check_names_the_first_faulty_token(capsys):
    # The guard would fire at S99999999, but Z0 comes first.
    code, out, err = run(capsys, "check", "Z0xS99999999")
    assert code == 2 and out == ""
    assert "'Z0'" in err and "above 2048" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["Z٣", "D８", "Z2xZ٣"])
def test_check_rejects_non_ascii_digits(capsys, spec):
    # int() reads Arabic-Indic and fullwidth digits; the grammar takes ASCII only.
    code, out, err = run(capsys, "check", spec)
    assert code == 2 and out == ""
    assert f"bad group spec token {spec.split('x')[-1]!r}" in err


def test_bad_specs_print_the_checked_in_messages(capsys):
    # Which fault is named when a spec has several is part of the message.
    specs = (DATA / "bad_specs.txt").read_text(encoding="utf-8").splitlines()
    errs = []
    for spec in specs:
        code, out, err = run(capsys, "check", spec)
        assert code == 2 and out == "", spec
        errs.append(err)
    assert "".join(errs) == (DATA / "bad_specs_stderr.txt").read_text(encoding="utf-8")


def test_bad_tables_print_the_checked_in_messages(capsys, monkeypatch):
    # The golden names each table by its path from the repository root.
    monkeypatch.chdir(DATA.parents[1])
    errs = []
    for table in sorted((DATA / "bad_tables").glob("*.tbl")):
        path = table.relative_to(DATA.parents[1]).as_posix()
        code, out, err = run(capsys, "check", f"file:{path}")
        assert code == 2 and out == "", path
        errs.append(err)
    expected = (DATA / "bad_tables" / "expected_stderr.txt").read_text(encoding="utf-8")
    assert "".join(errs) == expected


@pytest.mark.parametrize(
    "text, token",
    [
        ("order \u0662\n0 1\n1 0\n", "bad order value '\u0662'"),
        ("order 2\n0 \u0661\n1 0\n", "row 0 has a bad entry '\u0661'"),
        ("order 2\n0 1\n1 -0\n", "row 1 has a bad entry '-0'"),
        ("order 3\n0 1 2\n1 x \u0662\n2 0 1\n", "row 1 has a bad entry 'x'"),
    ],
    ids=["order", "entry", "sign", "first"],
)
def test_check_takes_only_ascii_digits_in_table_files(capsys, tmp_path, text, token):
    # int() reads Arabic-Indic digits and signs; table files take ASCII digits only.
    path = tmp_path / "z2.tbl"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", f"file:{path}")
    assert code == 2 and out == ""
    assert token in err
    assert "Traceback" not in err


def test_a_table_file_that_is_not_utf8_is_named(capsys, tmp_path):
    # A UTF-16 export; among several --catalog files the path tells which.
    path = tmp_path / "z3.tbl"
    path.write_text(to_cayley_table(make_cyclic(3)), encoding="utf-16")
    message = f"error: table file {str(path)!r} is not UTF-8 at byte 0"
    for argv in (["check", f"file:{path}"], ["verify", "--max-order", "1", "--catalog", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(message) and err.count("\n") == 1, argv


def test_a_table_file_that_fails_validation_is_named(capsys, tmp_path):
    # Among several --catalog files the path tells which one is at fault.
    good = tmp_path / "z3.tbl"
    good.write_text(to_cayley_table(make_cyclic(3)), encoding="utf-8")
    bad = DATA / "bad_tables" / "row_repeat.tbl"
    argv = ["verify", "--max-order", "1", "--catalog", str(good), "--catalog", str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    message = "row 1 is not a permutation (Latin square violated)"
    assert err == f"error: table file {str(bad)!r}: {message}\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize(
    "argv", [["check", "file:/dev/zero"], ["verify", "--max-order", "1", "--catalog", "/dev/zero"]]
)
def test_a_device_is_refused_unread(argv):
    # /dev/zero never ends.  The child may map 512 MiB, so reading it fails
    # fast rather than filling the host's memory.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "grouplines.cli", *argv],
        capture_output=True,
        env=env,
        timeout=60,
        preexec_fn=limit_memory,
    )
    message = b"error: table file '/dev/zero' is a device, not a file\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message)


@pytest.mark.parametrize(
    "argv",
    [["check", "file:/dev/stdin"], ["verify", "--max-order", "1", "--catalog", "/dev/stdin"]],
    ids=["check", "verify"],
)
def test_a_table_past_the_byte_limit_is_refused_undecoded(argv):
    # A pipe has no size to check first, so the read itself is bounded.  The
    # child may map 512 MiB, so a read without a bound fails fast rather
    # than filling the host's memory.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    limit = catalog.MAX_TABLE_BYTES
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "grouplines.cli", *argv],
        input=b"0" * (limit + 1),
        capture_output=True,
        env=env,
        timeout=60,
        preexec_fn=limit_memory,
    )
    message = f"error: table file '/dev/stdin' is longer than {limit} bytes\n".encode()
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message)


BIG = "9" * 5000  # past CPython's default limit of 4300 digits for int()


@pytest.mark.parametrize(
    "spec, message",
    [
        (f"Z{BIG}", f"group spec 'Z{BIG}' has order above 2048"),
        ("file:t.tbl", f"table file 't.tbl': expected {BIG} table rows, got 2"),
        ("file:e.tbl", f"table file 'e.tbl': entry (2,1) = {BIG} is outside [0,3)"),
    ],
    ids=["spec", "header", "entry"],
)
def test_numbers_of_any_length_get_the_projects_messages(
    capsys, tmp_path, monkeypatch, spec, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.tbl").write_text(f"order {BIG}\n0 1\n1 0\n", encoding="utf-8")
    (tmp_path / "e.tbl").write_text(f"order 3\n0 1 2\n1 2 0\n2 {BIG} 1\n", encoding="utf-8")
    code, out, err = run(capsys, "check", spec)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_zero_padded_numbers_of_any_length_are_read(capsys, tmp_path):
    zeros = "0" * 5000
    path = tmp_path / "z3.tbl"
    path.write_text(f"order {zeros}3\n0 1 2\n1 2 0\n2 0 {zeros}1\n", encoding="utf-8")
    assert run(capsys, "check", f"Z{zeros}3") == run(capsys, "check", "Z3")
    assert run(capsys, "check", f"file:{path}") == run(capsys, "check", "Z3")


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


ROOT_LINE = re.compile(
    r"LINE GRAPH \(root graph: (\d+) vertices, edges((?: \d+-\d+)*)\)\n"
)


def test_every_positive_check_prints_a_root_of_its_gamma(capsys, monkeypatch):
    # Record the Γ each check builds rather than build it again: Z2048 alone
    # costs about a second.  Z64, Z128 and Z2048 have Γ on 7, 8 and 12
    # vertices.
    built = []

    def recording_build_gamma(group):
        built.append(build_gamma(group))
        return built[-1]

    monkeypatch.setattr(cli, "build_gamma", recording_build_gamma)
    positives = 0
    for spec in (*catalog_specs(60), "Z64", "Z128", "Z2048"):
        code, out, _ = run(capsys, "check", spec)
        assert code == 0
        if out.startswith("NOT A LINE GRAPH"):
            assert spec not in ("Z64", "Z128", "Z2048")
            continue
        m = ROOT_LINE.fullmatch(out)
        assert m, out
        edges = [tuple(map(int, e.split("-"))) for e in m.group(2).split()]
        root = SimpleGraph.from_edges(int(m.group(1)), edges)
        assert is_isomorphic(line_graph(root), built[-1].graph), spec
        positives += 1
    assert positives == 55


def test_check_output_is_unchanged(capsys):
    # Every witness and root `check` prints, byte for byte: the catalog to
    # order 60 plus eight larger groups, one spec per line of the spec file.
    specs = (DATA / "check_specs.txt").read_text(encoding="utf-8").splitlines()
    assert len(specs) == 154
    outputs = []
    for spec in specs:
        code, out, err = run(capsys, "check", spec)
        assert (code, err) == (0, ""), spec
        outputs.append(out)
    assert "".join(outputs).encode() == (DATA / "check_outputs.txt").read_bytes()


def test_gamma_output_is_unchanged(capsys):
    # Every label and member ordering `gamma` prints, byte for byte, for the
    # specs of the check golden; `check` shows labels only at its witnesses.
    specs = (DATA / "check_specs.txt").read_text(encoding="utf-8").splitlines()
    outputs = []
    for spec in specs:
        code, out, err = run(capsys, "gamma", spec)
        assert (code, err) == (0, ""), spec
        outputs.append(out)
    assert "".join(outputs).encode() == (DATA / "gamma_outputs.txt").read_bytes()


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


def test_forbidden_output_is_unchanged(capsys, tmp_path):
    # Pattern labelling and order decide every witness check and verify print.
    code, _, _ = run(capsys, "forbidden", "-o", str(tmp_path))
    assert code == 0
    golden = DATA / "forbidden"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in golden.iterdir()
    )
    for path in golden.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("argv", [["forbidden", "-o", ""], ["forbidden", "--out="]])
def test_forbidden_refuses_an_empty_out_before_writing(capsys, tmp_path, monkeypatch, argv):
    # Path("") is the current directory: an unset shell variable names it.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --out is empty; name the directory to write the patterns to\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# verify


def test_check_and_verify_derive_no_forbidden_patterns(capsys, monkeypatch, tmp_path):
    from grouplines import fanout
    from grouplines.linegraph import derive_forbidden_set

    # The cache counts only this process, so the groups are not forked out.
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)
    derive_forbidden_set.cache_clear()
    for argv in (["check", "S3"], ["check", "Z15"], ["verify", "--max-order", "60"]):
        assert main(argv) == 0
    assert derive_forbidden_set.cache_info().misses == 0
    # The count can fail: `forbidden` derives.
    assert main(["forbidden", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert derive_forbidden_set.cache_info().misses == 1


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
    golden = (DATA / "verify_max_order_15_z21.txt").read_text(encoding="utf-8")
    assert out.replace(str(path), "{path}") == golden


def test_verify_rejects_bad_catalog_file(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("order 2\n0 1\n0 0\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--catalog", str(bad))
    assert code == 2
    assert "error:" in err


def test_verify_output_is_unchanged_at_order_60(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "60")
    assert code == 0
    assert err == ""
    assert out.encode("utf-8") == (DATA / "verify_max_order_60.txt").read_bytes()


def test_verify_notes_a_max_order_beyond_the_catalog(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "1000")
    assert code == 0
    assert out.encode("utf-8") == (DATA / "verify_max_order_60.txt").read_bytes()
    assert err == "note: built-in catalog stops at order 60; 146 built-in groups used\n"


@pytest.mark.parametrize("max_order", ["0", "-5"])
def test_verify_rejects_a_max_order_that_selects_nothing(capsys, max_order):
    code, out, err = run(capsys, "verify", "--max-order", max_order)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-order")


def test_verify_runs_tables_alone_when_max_order_selects_nothing(capsys, tmp_path):
    path = tmp_path / "z21.tbl"
    path.write_text(to_cayley_table(make_cyclic(21)), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--max-order", "0", "--catalog", str(path))
    assert code == 0
    assert err == ""
    assert "THEOREM HOLDS over 1 groups" in out


# ---------------------------------------------------------------------------
# reading the command line


def parse_with_argparse(argv):
    """What argparse makes of argv: its Namespace, or None where it exits."""
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


OPTION_SPELLINGS = ("--format", "--max-order", "--catalog", "-o", "--out")
OTHER_TOKENS = (
    "gamma", "check", "forbidden", "verify", "bogus",
    "--format=dot", "--max-order=15", "--catalog=P", "-oDIR", "--out=DIR",
    "--form", "--max", "--cat", "--ou", "-h", "--help", "--he", "--",
)
VALUES = (
    "", "-5", "-", "-h", "060", "\u0666\u0660", "1_5", " 7",
    "x", "dot", "edges", "Z6", "15", "P", "0",
)


def random_argv(rng, commands):
    """A command name, then up to four pieces: an option spelling with a
    value, a value alone, or any other token, an option spelling included."""
    argv = [rng.choice(commands) if rng.random() < 0.9 else rng.choice(OTHER_TOKENS)]
    for _ in range(rng.randrange(5)):
        r = rng.random()
        if r < 0.5:
            argv += [rng.choice(OPTION_SPELLINGS), rng.choice(VALUES)]
        elif r < 0.8:
            argv.append(rng.choice(VALUES))
        else:
            argv.append(rng.choice(OTHER_TOKENS + OPTION_SPELLINGS))
    return argv


def test_the_reader_agrees_with_argparse_on_a_random_corpus():
    rng = random.Random(12)
    commands = list(cli.COMMANDS)
    read = {name: 0 for name in commands}
    declined = 0
    set_options = set()
    for _ in range(3000):
        argv = random_argv(rng, commands)
        args = cli.read_plain(argv)
        if args is None:
            declined += 1
            continue
        assert args == parse_with_argparse(argv), argv
        read[args.command] += 1
        *_, options = cli.COMMANDS[args.command]
        for flags, keywords in options:
            if getattr(args, keywords["dest"]) != keywords.get("default"):
                set_options.add(flags)
    assert min(read.values()) >= 20 and declined >= 1000, (read, declined)
    every_option = {flags for *_, options in cli.COMMANDS.values() for flags, _ in options}
    assert set_options == every_option


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-order", "15"],
        ["verify", "--max-order=15"],
        ["verify", "--max", "15"],
        ["verify", "--max-order", "-5"],
        ["verify", "--max-order", "+5"],
        ["verify", "--max-order", "\u0666\u0660"],
        ["verify", "--max-order", "9" * 5000],
        ["verify", "--max-order"],
        ["verify", "--catalog"],
        ["verify", "extra"],
        ["gamma", "Z6", "--format", "svg"],
        ["gamma", "Z6", "--format=dot"],
        ["check"],
        ["check", "Z6", "S3"],
        ["check", "--", "Z6"],
        ["check", "-h"],
        ["check", "-5"],
        ["forbidden"],
        ["forbidden", "-oDIR"],
        ["forbidden", "--out", "-"],
        ["-h"],
        [],
    ],
)
def test_the_reader_leaves_every_other_command_line_to_argparse(argv):
    assert cli.read_plain(argv) is None


def test_reading_a_command_line_leaves_the_table_as_it_was():
    # An option's default is shared by every parse; appending to it would
    # carry one command line's --catalog paths into the next.
    before = copy.deepcopy(cli.COMMANDS)
    first = ["verify", "--catalog", "a.tbl", "--catalog", "b.tbl"]
    second = ["verify", "--catalog", "c.tbl"]
    for read in (cli.read_plain, parse_with_argparse):
        assert read(first).catalog == ["a.tbl", "b.tbl"]
        assert read(second).catalog == ["c.tbl"]
    assert cli.read_plain(["verify"]) == parse_with_argparse(["verify"])
    assert cli.COMMANDS == before


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["check"], "usage: grouplines check"),
        (["verify", "--max-order", "x"], "usage: grouplines verify"),
        (["gamma", "Z6", "--format", "svg"], "usage: grouplines gamma"),
    ],
)
def test_usage_errors_exit_2_with_argparses_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(usage)


def plain_command_lines():
    """The command lines the README, CI and the benchmark run."""
    readme = [
        ["gamma", "Z6", "--format", "edges"],
        ["gamma", "Z2xZ2", "--format", "dot"],
        ["check", "Z15"],
        ["check", "S3"],
        ["forbidden", "-o", "patterns/"],
        ["verify", "--max-order", "15"],
        ["verify", "--catalog", "my.tbl"],
    ]
    specs = (DATA / "check_specs.txt").read_text(encoding="utf-8").splitlines()
    ci = [["verify", "--max-order", "60"], ["forbidden", "-o", "/tmp/forbidden"]]
    ci += [["check", spec] for spec in specs]
    ci += [["check", f"file:{t}"] for t in sorted((DATA / "bad_tables").glob("*.tbl"))]
    bench = [
        ["check", "Z2xZ2xZ2xZ2xZ2xZ2xZ2"],
        ["verify", "--max-order", "60", "--catalog", "/tmp/t0.tbl", "--catalog", "/tmp/t1.tbl"],
    ]
    return readme + ci + bench


def test_the_reader_reads_every_command_line_the_project_runs():
    for argv in plain_command_lines():
        args = cli.read_plain(argv)
        assert args is not None, argv
        assert args == parse_with_argparse(argv), argv


def test_plain_command_lines_print_what_argparse_would_without_building_it(
    capsys, tmp_path, monkeypatch
):
    argvs = [
        ["check", "Z6"],
        ["gamma", "Z6", "--format", "dot"],
        ["forbidden", "-o", str(tmp_path)],
        ["verify", "--max-order", "15"],
    ]
    expected = []
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        code = args.func(args)
        expected.append((code, *capsys.readouterr()))

    def refuse():
        raise AssertionError("argparse was built for a plain command line")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for argv, want in zip(argvs, expected):
        assert run(capsys, *argv) == want, argv


@pytest.mark.parametrize(
    "argv", [["verify", "--max-order", "15"], ["verify", "--max-order=15"], ["check", "Z6"]]
)
def test_a_closed_stdout_exits_141_without_a_message(argv):
    # The read end is closed before the child starts, so its first write to
    # stdout fails whenever it happens.
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "grouplines.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def test_the_cli_imports_no_dataclasses():
    # Every CLI process pays for its imports; dataclasses alone pulls in
    # inspect, ast, dis and tokenize.  pytest imports it itself, so only a
    # fresh interpreter can tell; -S keeps site's .pth files out of it.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, grouplines, grouplines.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        stdout=subprocess.PIPE,
        env=env,
        timeout=120,
        check=True,
    )
    assert proc.stdout == b"False\n"


def test_the_cli_imports_every_command_up_front():
    # perfbench forks each verify operation after importing grouplines.cli.
    # A child that imports verify itself took 8.2 ms to fork, import and
    # exit, against 1.3 ms when the parent had imported it (medians of 15,
    # Python 3.11.7, no bytecode cache), so no command defers an import.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = (
        "import sys, grouplines.cli;"
        " print({'grouplines.verify', 'grouplines.fanout'} <= set(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        stdout=subprocess.PIPE,
        env=env,
        timeout=120,
        check=True,
    )
    assert proc.stdout == b"True\n"
