"""The package's public export list."""
import gstft


def test_all_names_resolve_without_duplicates():
    assert len(gstft.__all__) == len(set(gstft.__all__))
    assert [name for name in gstft.__all__ if not hasattr(gstft, name)] == []
