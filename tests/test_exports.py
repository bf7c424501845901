"""The names the benchmark takes from the package stay public.

`perfbench/` uses only `grouplines.__all__` and `grouplines.cli.main`, so a
name dropped from `__all__` would break it outside the Tier-1 run.
"""

import ast
from pathlib import Path

import grouplines

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def package_names_used(source):
    """Every `<alias>.<name>` in source, where `import grouplines as <alias>`."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "grouplines"
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and not node.attr.startswith("__")
    }


def test_every_name_the_benchmark_uses_is_exported():
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= package_names_used(path.read_text(encoding="utf-8"))
    assert "derive_forbidden_set" in used and "build_catalog" in used
    assert used <= set(grouplines.__all__), sorted(used - set(grouplines.__all__))
