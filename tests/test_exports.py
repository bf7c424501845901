"""The names the benchmark takes from the package stay public, and the
package namespace keeps its contract while it loads each module on first use.

`perfbench/` uses only `grouplines.__all__` and `grouplines.cli.main`, so a
name dropped from `__all__` would break it outside the Tier-1 run.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def fresh_interpreter(code):
    """stdout of `code` in a new interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(grouplines.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        stdout=subprocess.PIPE,
        env=env,
        timeout=120,
        check=True,
        text=True,
    )
    return proc.stdout


def test_a_cold_derivation_loads_only_graphs_and_linegraph():
    code = (
        "import sys, grouplines; grouplines.derive_forbidden_set();"
        " print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'grouplines'))"
    )
    loaded = fresh_interpreter(code).split()
    assert loaded == ["grouplines", "grouplines.graphs", "grouplines.linegraph"]


def test_submodules_resolve_after_a_bare_import():
    code = "import grouplines; print(grouplines.lattice.__name__, grouplines.build_gamma.__module__)"
    assert fresh_interpreter(code) == "grouplines.lattice grouplines.lattice\n"


def test_every_export_is_its_defining_modules_object():
    for name in grouplines.__all__:
        value = getattr(grouplines, name)
        assert value.__module__.startswith("grouplines."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from grouplines import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(grouplines.__all__)
    assert all(namespace[name] is getattr(grouplines, name) for name in namespace)
    assert set(grouplines.__all__) <= set(dir(grouplines))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        grouplines.no_such_name


def unused_imports(source):
    """The names that an import in source binds and nothing reads.

    A name is read when a `Name` node loads it, as the root of every
    `Attribute` chain is.  `from __future__ import annotations` binds
    nothing that code reads, so it is exempt.
    """
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_no_module_of_the_package_imports_a_name_it_never_reads():
    source = "from __future__ import annotations\nimport os.path, re\nfrom a import b as c\nc(re)"
    assert unused_imports(source) == ["os"]
    package = Path(grouplines.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
