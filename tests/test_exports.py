"""The package root exports only names that exist, in sorted order, so a
removed name cannot stay behind in ``__all__``."""

import harmlesskit


def test_all_is_sorted_and_every_entry_resolves():
    names = harmlesskit.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(harmlesskit, name), name
