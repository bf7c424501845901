from pathlib import Path

import pytest

from grouplines.catalog import build_catalog, catalog_specs, parse_group_spec
from grouplines.groups import make_cyclic, make_dicyclic, make_dihedral, make_symmetric
from grouplines.verify import (
    check_completeness_claim,
    predict,
    verify_case_theorems,
    verify_main_theorem,
    verify_sources,
)

DATA = Path(__file__).parent / "data"

PREDICTED_TRUE_UP_TO_15 = [
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7",
    "Z8", "Z9", "Z10", "Z11", "Z13", "Z14", "Z15",
]


@pytest.fixture(scope="module")
def catalog15():
    return build_catalog(15)


def record_for(spec):
    return build_catalog_from_specs((spec,))[0]


def build_catalog_from_specs(specs):
    from grouplines.catalog import load_record

    return tuple(load_record(s) for s in specs)


# ---------------------------------------------------------------------------
# prediction


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("Z1", True),
        ("Z8", True),
        ("Z15", True),
        ("Z12", False),
        ("Z2xZ2", False),
        ("S3", False),
        ("Z30", False),
    ],
)
def test_predict(spec, expected):
    assert predict(parse_group_spec(spec)) is expected


# ---------------------------------------------------------------------------
# catalog


def test_catalog_up_to_15_has_all_28_groups(catalog15):
    assert len(catalog15) == 28
    by_order = {}
    for r in catalog15:
        by_order[r.group.order] = by_order.get(r.group.order, 0) + 1
    assert by_order == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
        9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1,
    }


def test_catalog_groups_have_distinct_order_histograms(catalog15):
    seen = {}
    for r in catalog15:
        key = (r.group.order, tuple(sorted(r.group.order_histogram().items())))
        assert key not in seen, (r.source, seen.get(key))
        seen[key] = r.source


def test_catalog_sources_reparse_to_isomorphic_groups(catalog15):
    for r in catalog15:
        again = parse_group_spec(r.source)
        assert again.order == r.group.order
        assert again.order_histogram() == r.group.order_histogram()


def test_catalog_is_deterministic():
    assert catalog_specs(60) == catalog_specs(60)
    a = build_catalog(20)
    b = build_catalog(20)
    assert [r.source for r in a] == [r.source for r in b]


def test_catalog_families_reach_order_60():
    specs = catalog_specs(60)
    assert "Z60" in specs
    assert "D24" in specs
    assert "Dic12" in specs
    assert "A5" in specs
    assert "S4" in specs
    assert "Z6xZ8" in specs


def test_group_spec_grammar():
    assert parse_group_spec("D4xZ2").order == 16
    assert parse_group_spec("Z2xZ2xZ2").order == 8
    assert parse_group_spec("Dic2").order_histogram() == {1: 1, 2: 1, 4: 6}
    with pytest.raises(ValueError):
        parse_group_spec("Q8")
    with pytest.raises(ValueError):
        parse_group_spec("Z2 x Z2")


def test_external_tables_bypass_the_order_cap(tmp_path):
    from grouplines.groups import to_cayley_table

    path = tmp_path / "z21.tbl"
    path.write_text(to_cayley_table(make_cyclic(21)), encoding="utf-8")
    catalog = build_catalog(15, (str(path),))
    assert len(catalog) == 29
    row = verify_main_theorem(catalog).rows[-1]
    assert row.name == f"file:{path}"
    assert row.order == 21
    assert row.predicted and row.actual


# ---------------------------------------------------------------------------
# main theorem


def test_main_theorem_over_the_order_15_catalog(catalog15):
    report = verify_main_theorem(catalog15)
    assert report.passed
    assert report.summary() == "THEOREM HOLDS over 28 groups"
    assert [r.name for r in report.rows if r.predicted] == PREDICTED_TRUE_UP_TO_15


def test_report_rows_are_tab_separated(catalog15):
    report = verify_main_theorem(catalog15)
    text = report.to_text()
    lines = text.strip().splitlines()
    assert lines[-1] == report.summary()
    for line in lines[:-1]:
        assert len(line.split("\t")) == 7


def test_negative_rows_carry_a_witness(catalog15):
    for row in verify_main_theorem(catalog15).rows:
        if not row.actual:
            assert row.witness.startswith("Gamma")
        else:
            assert row.witness == "-"


def test_z30_witness_orders_follow_the_three_primes_construction():
    report = verify_main_theorem(build_catalog_from_specs(("Z30",)))
    assert report.rows[0].witness == "Gamma1 orders=1,2,3,5"


def test_empty_catalog_is_rejected():
    with pytest.raises(ValueError):
        verify_main_theorem(())


# ---------------------------------------------------------------------------
# case theorems


def case_for(checks, group):
    matches = [c for c in checks if c.group == group]
    assert len(matches) == 1, group
    return matches[0]


def test_case_witness_shapes():
    catalog = build_catalog_from_specs(
        ("Z30", "Z3xZ3", "D7", "S3", "Z12", "Dic2", "A5", "Z15", "Z8")
    )
    report = verify_case_theorems(catalog)
    assert report.passed

    c = case_for(report.checks, "Z30")
    assert c.case == "three-primes"
    assert c.center_order == 1 and c.leaf_orders == (2, 3, 5)

    c = case_for(report.checks, "Z3xZ3")
    assert c.case == "noncyclic-abelian"
    assert c.center_order == 1 and c.leaf_orders == (3, 3, 3)

    c = case_for(report.checks, "D7")
    assert c.case == "nonabelian-pq"
    assert c.center_order == 1 and c.leaf_orders == (2, 2, 2)

    c = case_for(report.checks, "S3")
    assert c.case == "nonabelian-pq"
    assert c.leaf_orders == (2, 2, 2)

    c = case_for(report.checks, "Z12")
    assert c.case == "cyclic-two-primes"
    assert not c.expect_line_graph
    assert c.center_order == 2 and c.leaf_orders == (1, 4, 6)

    c = case_for(report.checks, "Dic2")
    assert c.case == "other-negative"
    assert c.center_order == 2 and c.leaf_orders == (1, 4, 4)

    c = case_for(report.checks, "A5")
    assert c.case == "three-primes"
    assert c.center_order == 1 and c.leaf_orders == (2, 3, 5)

    for spec in ("Z15", "Z8"):
        c = case_for(report.checks, spec)
        assert c.case == "cyclic-two-primes"
        assert c.expect_line_graph and c.ok


def test_trivial_group_hits_no_case():
    report = verify_case_theorems(build_catalog_from_specs(("Z1",)))
    assert report.checks == ()
    assert report.passed


# ---------------------------------------------------------------------------
# completeness


def test_completeness_claim_examples():
    catalog = build_catalog_from_specs(("Z1", "Z4", "Z7", "Z2xZ2", "S3"))
    report = check_completeness_claim(catalog)
    assert report.passed
    by_name = {r.name: r for r in report.rows}
    assert by_name["Z1"].complete
    assert by_name["Z7"].complete
    assert not by_name["Z4"].complete
    assert not by_name["Z2xZ2"].complete
    assert not by_name["S3"].complete


def test_completeness_over_order_15_catalog(catalog15):
    report = check_completeness_claim(catalog15)
    assert report.passed
    complete = {r.name for r in report.rows if r.complete}
    assert complete == {"Z1", "Z2", "Z3", "Z5", "Z7", "Z11", "Z13"}


# ---------------------------------------------------------------------------
# one facts pass per group


def test_verify_builds_each_gamma_once(monkeypatch, capsys):
    from grouplines import fanout, verify
    from grouplines.cli import main
    from grouplines.groups import FiniteGroup

    # The counters see only this process, so the groups are not forked out.
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)

    calls = {"build_gamma": 0, "decide_gamma": 0, "is_cyclic": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify, "build_gamma", counted("build_gamma", verify.build_gamma))
    monkeypatch.setattr(
        verify, "decide_gamma", counted("decide_gamma", verify.decide_gamma)
    )
    monkeypatch.setattr(
        FiniteGroup, "is_cyclic", counted("is_cyclic", FiniteGroup.is_cyclic)
    )
    assert main(["verify", "--max-order", "60"]) == 0
    capsys.readouterr()
    assert calls["build_gamma"] == 146
    assert calls["decide_gamma"] == 146
    assert calls["is_cyclic"] <= 146


def test_verify_and_check_factorize_each_order_at_most_twice(monkeypatch, capsys):
    import sys

    from grouplines import fanout
    from grouplines.cli import main
    from grouplines.groups import factorize

    # The counter sees only this process, so the groups are not forked out.
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)
    calls = 0

    def counted(n):
        nonlocal calls
        calls += 1
        return factorize(n)

    # Every module of the package that imported `factorize` by name.
    for name, module in list(sys.modules.items()):
        if name.startswith("grouplines") and getattr(module, "factorize", None) is factorize:
            monkeypatch.setattr(module, "factorize", counted)
    assert main(["verify", "--max-order", "60"]) == 0
    capsys.readouterr()
    assert calls <= 2 * 146
    calls = 0
    assert main(["check", "Z60"]) == 0
    capsys.readouterr()
    assert calls == 1


def test_verify_catalog_matches_the_three_reports(catalog15):
    from grouplines.verify import verify_catalog

    main_report, case_report, completeness = verify_catalog(catalog15)
    assert main_report == verify_main_theorem(catalog15)
    assert case_report == verify_case_theorems(catalog15)
    assert completeness == check_completeness_claim(catalog15)
    with pytest.raises(ValueError):
        verify_catalog(())


def test_catalog_max_order_is_the_largest_built_in_order():
    from grouplines.catalog import CATALOG_MAX_ORDER, _read_spec

    assert max(_read_spec(s)[0] for s in catalog_specs(10**6)) == CATALOG_MAX_ORDER
    assert catalog_specs(10**6) == catalog_specs(CATALOG_MAX_ORDER)


# ---------------------------------------------------------------------------
# a golden past the built-in catalog


# Products of two to four factors, up to order 420, in every negative case
# that the built-in catalog reaches only at small orders.
WIDE_PRODUCT_SPECS = (
    "Z2xZ2xZ3xZ3", "A5xZ7", "Z9xZ3xZ5", "S4xZ5", "Dic9xZ5", "Z2xZ3xZ5xZ7",
    "A4xZ5", "Z7xZ7xZ2", "D9xZ2", "S3xS3", "Dic5xZ3", "Z5xZ5xZ5",
)


def test_verify_sources_prints_the_checked_in_rows_past_order_60():
    specs = (DATA / "check_specs.txt").read_text(encoding="utf-8").splitlines()
    main_report, case_report, completeness = verify_sources((*specs, *WIDE_PRODUCT_SPECS))
    text = main_report.to_text() + case_report.to_text() + completeness.summary() + "\n"
    assert text == (DATA / "verify_sources_wide.txt").read_text(encoding="utf-8")
