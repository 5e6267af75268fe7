"""The package's lazy exports: each public name is its home module's object."""

import importlib

import pytest

import unknotone


@pytest.mark.parametrize("name", unknotone.__all__)
def test_an_export_is_the_object_from_its_home_module(name):
    value = getattr(unknotone, name)
    assert value.__module__.startswith("unknotone.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_export():
    assert set(unknotone.__all__) <= set(dir(unknotone))
    assert "__version__" in dir(unknotone)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(unknotone, "no_such_name")
    assert not hasattr(unknotone, "no_such_name")


def test_submodules_still_import_by_name():
    from unknotone import catalog, correction_vector, plumbing

    assert catalog.__name__ == "unknotone.catalog"
    assert plumbing.__name__ == "unknotone.plumbing"
    assert correction_vector.__module__ == "unknotone.corrections"
