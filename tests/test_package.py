"""The public surface of the package."""

import stemgrow


def test_every_exported_name_resolves():
    # `from stemgrow import *` fails on a stale entry in __all__
    missing = [name for name in stemgrow.__all__ if not hasattr(stemgrow, name)]
    assert missing == []
    namespace = {}
    exec("from stemgrow import *", namespace)
    assert set(stemgrow.__all__) <= set(namespace)
