"""Every public export list names something that exists, so a class
deleted from a package but left in its ``__all__`` fails here."""

import importlib

import pytest

PACKAGES = ["repro", "repro.nn", "repro.rl", "repro.sim", "repro.validation"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
