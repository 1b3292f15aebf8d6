"""The package's public name list."""
import firpriv


def test_all_is_sorted_unique_and_resolves():
    names = firpriv.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(firpriv, name)]
    assert not missing
    namespace = {}
    exec("from firpriv import *", namespace)
    assert set(names) <= set(namespace)
