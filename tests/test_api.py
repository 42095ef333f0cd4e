import multiroute


def test_public_names_resolve_and_star_import_succeeds():
    assert [name for name in multiroute.__all__ if not hasattr(multiroute, name)] == []
    namespace = {}
    exec("from multiroute import *", namespace)
    assert set(multiroute.__all__) <= set(namespace)
