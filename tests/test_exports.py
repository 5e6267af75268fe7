"""The package's submodules import by name: ``from unknotone import catalog``."""


def test_submodules_still_import_by_name():
    from unknotone import catalog, plumbing

    assert catalog.__name__ == "unknotone.catalog"
    assert plumbing.__name__ == "unknotone.plumbing"
