"""The package's export list: `__all__` names exactly what gmlucas exports."""

import types

import gmlucas


def test_star_import_gives_every_name_in_all():
    namespace = {}
    exec("from gmlucas import *", namespace)
    assert set(gmlucas.__all__) <= set(namespace)


def test_all_is_sorted_unique_and_resolves():
    names = gmlucas.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(gmlucas, name) is not None, name


def test_all_is_every_public_name_but_the_submodules():
    public = {name for name, value in vars(gmlucas).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(gmlucas.__all__) == public
