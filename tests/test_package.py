import importlib

import pytest

import dirichlet_j

SUBMODULES = ("exact", "special", "jfun", "identities", "linalg")


def test_all_is_the_union_of_the_submodule_lists():
    names = [name for sub in SUBMODULES for name in importlib.import_module(f"dirichlet_j.{sub}").__all__]
    assert len(names) == len(set(names))
    assert dirichlet_j.__all__ == names


@pytest.mark.parametrize("sub", SUBMODULES)
def test_every_export_is_the_submodule_object(sub):
    module = importlib.import_module(f"dirichlet_j.{sub}")
    for name in module.__all__:
        assert getattr(dirichlet_j, name) is getattr(module, name), name
