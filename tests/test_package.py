"""Tests for the package's public namespace."""

import functools
import re
from pathlib import Path

import ehadc


def test_every_exported_name_resolves():
    """A name removed from the package must leave __all__ with it."""
    missing = [name for name in ehadc.__all__ if getattr(ehadc, name, None) is None]
    assert missing == []
    assert len(set(ehadc.__all__)) == len(ehadc.__all__)


def test_readme_names_only_exported_pieces():
    """Every backticked name in the README's "Lower-level pieces" paragraph
    resolves on the package, so the docs cannot keep naming a deleted export."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
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
