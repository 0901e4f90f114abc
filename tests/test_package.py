"""The public namespace of the package."""

import simplexwidth


def test_public_names_resolve_once():
    names = simplexwidth.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(simplexwidth, name), name
