"""Tests for the package's public namespace."""

import ast
import functools
import re
import sys
from pathlib import Path

import ehadc
from ehadc import config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    """A name removed from the package must leave __all__ with it."""
    missing = [name for name in ehadc.__all__ if getattr(ehadc, name, None) is None]
    assert missing == []
    assert len(set(ehadc.__all__)) == len(ehadc.__all__)


def test_readme_names_only_exported_pieces():
    """Every backticked name in the README's "Lower-level pieces" paragraph
    resolves on the package, so the docs cannot keep naming a deleted export."""
    readme = README.read_text()
    start = readme.index("Lower-level pieces are exported too:")
    paragraph = readme[start : readme.index("\n\n", start)]
    names = re.findall(r"`([A-Za-z_][\w.]*)", paragraph)
    assert "rc_step_value" in names and "eh_step" in names
    missing = []
    for name in names:
        try:
            functools.reduce(getattr, name.split("."), ehadc)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_readme_config_table_names_every_key():
    """The README's Configuration table has one row per config key, each
    written out in full."""
    readme = README.read_text()
    start = readme.index("| Key | Default | Meaning |")
    rows = readme[start : readme.index("\n\n", start)].splitlines()[2:]
    keys = [key for row in rows for key in re.findall(r"`([^`]*)`", row.split("|")[1])]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(config.KEY_TABLE)


def test_readme_python_examples_run():
    """Every python block in the README runs against the current API."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_modules_import_only_the_stdlib_numpy_and_the_package():
    """No runtime dependency beyond numpy."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "ehadc"}
    foreign = []
    for path in sorted(Path(ehadc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []
