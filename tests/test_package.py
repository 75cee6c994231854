"""The package's public names: each listed once, by the module that
exports it, and re-exported unchanged by the package."""

import passiveqkd as pq
from passiveqkd import errors, estimation, keyrate, model, sampling, scenario

MODULES = (errors, estimation, keyrate, model, sampling, scenario)


def test_exports_are_the_union_of_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert len(pq.__all__) == len(set(pq.__all__))
    assert set(pq.__all__) == set(listed)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pq, name) is getattr(module, name)
