import uqsd


def test_public_exports_resolve():
    # A name left in __all__ after its definition went would only fail at a
    # user's `from uqsd import *`.
    assert [name for name in uqsd.__all__ if not hasattr(uqsd, name)] == []
