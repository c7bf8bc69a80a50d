"""The package's public surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import bvf

MODULES = [
    info.name
    for info in pkgutil.iter_modules(bvf.__path__, prefix="bvf.")
    if not info.name.rpartition(".")[2].startswith("_")
]


@pytest.mark.parametrize("name", ["bvf", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
