"""Tests for the package's export list."""

import exptriple


def test_every_export_resolves():
    missing = [name for name in exptriple.__all__ if not hasattr(exptriple, name)]
    assert missing == []


def test_exports_unique_and_sorted():
    names = exptriple.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
