"""Tests for the package's public namespace."""

import ehadc


def test_every_exported_name_resolves():
    """A name removed from the package must leave __all__ with it."""
    missing = [name for name in ehadc.__all__ if getattr(ehadc, name, None) is None]
    assert missing == []
    assert len(set(ehadc.__all__)) == len(ehadc.__all__)
