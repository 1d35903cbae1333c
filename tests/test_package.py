"""The package's public surface: `curveavoid.__all__`."""

import curveavoid


def test_every_exported_name_resolves_once():
    names = curveavoid.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(curveavoid, n)] == []
