"""The package's export list: sorted, without duplicates, and exactly the
public names the package imports, so a stale or a missed export fails."""

import types

import cmsvote


def test_all_is_sorted_unique_and_every_public_non_module_attribute():
    assert cmsvote.__all__ == sorted(set(cmsvote.__all__))
    public = {
        name
        for name, value in vars(cmsvote).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cmsvote.__all__) == public
