"""The package's export list: every name in ``__all__`` exists."""

from __future__ import annotations

import jumpga


def test_every_exported_name_resolves():
    missing = [name for name in jumpga.__all__ if not hasattr(jumpga, name)]
    assert not missing
    assert len(set(jumpga.__all__)) == len(jumpga.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from jumpga import *", namespace)
    assert set(jumpga.__all__) <= set(namespace)
